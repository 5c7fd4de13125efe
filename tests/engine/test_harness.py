"""Tests for the symbolic testing harness (repro.testing.harness)."""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.results import Incompleteness, RunReport
from repro.targets.while_lang import WhileLanguage
from repro.testing.harness import Bug, SuiteResult, SymbolicTester, TestResult, judge

LANG = WhileLanguage()

#: the report of a run that explored every path to its bound
COMPLETE = RunReport("exhausted", Incompleteness())


class TestVerdicts:
    def test_passing_test(self):
        result = SymbolicTester(LANG).run_source(
            "proc main() { assert(1 < 2); }", "main"
        )
        assert result.passed
        assert result.verdict == "bounded-verified"
        assert result.bugs == []

    def test_confirmed_bug(self):
        result = SymbolicTester(LANG).run_source(
            """
            proc main() {
              n := symb_int();
              assume(0 <= n and n <= 2);
              assert(n != 2);
            }""",
            "main",
        )
        assert result.verdict == "bug"
        bug = result.bugs[0]
        assert bug.model == {"val_0_0": 2}
        assert bug.confirmed
        assert bug.concrete_value is not None

    def test_replay_disabled(self):
        tester = SymbolicTester(LANG, replay=False)
        result = tester.run_source(
            "proc main() { n := symb_int(); assert(n != 0); }", "main"
        )
        assert not result.passed
        assert result.bugs[0].model is not None
        assert not result.bugs[0].confirmed  # replay was skipped

    def test_potential_bug_verdict_without_model(self):
        bug = Bug(value="x", path_condition=None, model=None, confirmed=False)
        result = TestResult("t", [bug], stats=None, paths=1, report=COMPLETE)
        assert result.verdict == "potential-bug"


class TestJudge:
    """One verdict rule for the harness and the analysis service."""

    CONFIRMED = Bug("v", None, {"val_0_0": 2}, True)
    UNREPLAYED = Bug("v", None, {"val_0_0": 2}, False)
    NO_MODEL = Bug("v", None, None, False)
    CAPPED = RunReport("max-paths", Incompleteness())
    DEGRADED = RunReport("exhausted", Incompleteness(unknown_assumed=1))

    @pytest.mark.parametrize(
        "bugs, report, verdict",
        [
            ([], COMPLETE, "bounded-verified"),
            ([], CAPPED, "bounded-verified-incomplete"),
            ([], DEGRADED, "bounded-verified-incomplete"),
            ([NO_MODEL, CONFIRMED], CAPPED, "bug"),
            ([NO_MODEL, UNREPLAYED], COMPLETE, "potential-bug"),
        ],
    )
    def test_verdict_table(self, bugs, report, verdict):
        assert judge(bugs, report) == verdict
        assert TestResult("t", bugs, None, 1, report).verdict == verdict


class TestReplayScripting:
    def test_replay_model_reproduces_error(self):
        tester = SymbolicTester(LANG)
        prog = LANG.compile(
            """
            proc main() {
              a := symb_int();
              b := symb_int();
              assume(0 <= a and a <= 3 and 0 <= b and b <= 3);
              assert(a + b != 5);
            }"""
        )
        result = tester.run_test(prog, "main")
        assert result.verdict == "bug"
        for bug in result.bugs:
            assert bug.confirmed
            assert bug.model["val_0_0"] + bug.model["val_1_0"] == 5

    def test_replay_with_wrong_model_no_error(self):
        tester = SymbolicTester(LANG)
        prog = LANG.compile(
            """
            proc main() {
              n := symb_int();
              assert(n != 7);
            }"""
        )
        # A model avoiding the bug must not reproduce it.
        assert tester.replay_model(prog, "main", {"val_0_0": 3}) is None
        assert tester.replay_model(prog, "main", {"val_0_0": 7}) is not None


class TestSuiteResult:
    def _result(self, name, passed):
        from repro.engine.results import ExecutionStats

        bugs = [] if passed else [Bug("v", None, None, False)]
        stats = ExecutionStats(commands_executed=10, wall_time=0.1)
        return TestResult(name, bugs, stats, paths=1, report=COMPLETE)

    def test_aggregation(self):
        suite = SuiteResult("demo")
        suite.results.append(self._result("t1", True))
        suite.results.append(self._result("t2", False))
        assert suite.tests == 2
        assert suite.commands == 20
        assert suite.time == pytest.approx(0.2)
        assert [r.name for r in suite.failures] == ["t2"]


class TestEngineConfigPropagation:
    def test_solver_cache_disabled_in_baseline(self):
        from repro.engine.config import javert2_baseline

        tester = SymbolicTester(LANG, config=javert2_baseline())
        solver = tester.make_solver()
        assert not solver.cache_enabled
        assert not solver.simplifier.memoise

    def test_default_config_caches(self):
        tester = SymbolicTester(LANG)
        solver = tester.make_solver()
        assert solver.cache_enabled


class TestEnumerateModels:
    def test_multiple_witnesses(self):
        tester = SymbolicTester(LANG)
        result = tester.run_source(
            """
            proc main() {
              n := symb_int();
              assume(0 <= n and n <= 20);
              assert(n < 10);
            }""",
            "main",
        )
        assert result.verdict == "bug"
        models = tester.enumerate_models(result.bugs[0], count=4)
        assert len(models) == 4
        values = {m["val_0_0"] for m in models}
        assert len(values) == 4
        assert all(10 <= v <= 20 for v in values)

    def test_unique_witness_stops_early(self):
        tester = SymbolicTester(LANG)
        result = tester.run_source(
            """
            proc main() {
              n := symb_int();
              assume(0 <= n and n <= 20);
              assert(n != 13);
            }""",
            "main",
        )
        models = tester.enumerate_models(result.bugs[0], count=5)
        assert [m["val_0_0"] for m in models] == [13]
