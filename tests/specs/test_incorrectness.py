"""Tests for the incorrectness arm (repro.specs.incorrectness): partial
summaries drop paths but never widen, and every reported bug is
confirmed true-positive by concrete counter-model replay."""

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.engine.results import final_sort_key
from repro.gil.syntax import Call, Fail, IfGoto, ISym, Proc, Prog, Return
from repro.logic.expr import Lit, PVar
from repro.specs import find_bugs
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang import WhileLanguage
from repro.targets.while_lang.memory import WhileSymbolicMemory

LANG = WhileLanguage()


def prog_of(*procs):
    p = Prog()
    for proc in procs:
        p.add(proc)
    return p


BUGGY = prog_of(
    Proc("check", ("a",), (
        IfGoto(PVar("a").lt(Lit(0)), 2),
        Return(Lit(True)),
        Fail(Lit("negative input")),
    )),
    Proc("main", (), (
        ISym("x", "s0"),
        Call("ok", Lit("check"), (PVar("x"),)),
        Return(PVar("ok")),
    )),
)

CLEAN = prog_of(
    Proc("inc", ("a",), (Return(PVar("a") + Lit(1)),)),
    Proc("main", (), (
        ISym("x", "s0"),
        Call("r", Lit("inc"), (PVar("x"),)),
        Return(PVar("r")),
    )),
)


def digest(result):
    return sorted(final_sort_key(f) for f in result.finals)


class TestFindBugs:
    def test_reported_bug_is_confirmed(self):
        report = find_bugs(LANG, BUGGY, "main")
        assert len(report.bugs) == 1
        bug = report.bugs[0]
        assert bug.confirmed
        assert bug.model is not None
        assert report.all_confirmed
        assert report.confirmed == [bug]
        # The counter-model really triggers the failure condition.
        assert any(v < 0 for v in bug.model.values())

    def test_clean_program_reports_nothing(self):
        report = find_bugs(LANG, CLEAN, "main")
        assert report.bugs == []
        assert report.all_confirmed  # vacuously

    def test_summaries_were_engaged(self):
        report = find_bugs(LANG, BUGGY, "main")
        assert report.stats is not None
        assert report.stats.summary_replays > 0

    def test_solver_follows_the_config(self):
        # The hunt's solver is built from the caller's configuration:
        # phase profiling reaches the run's stats.
        quiet = find_bugs(LANG, BUGGY, "main")
        profiled = find_bugs(
            LANG, BUGGY, "main", config=EngineConfig(profile_solver_phases=True)
        )
        assert not quiet.stats.phase_times
        assert profiled.stats.phase_times
        assert profiled.all_confirmed and len(profiled.bugs) == 1


class TestPartialSummaries:
    #: ``wide`` is pure and branches on its argument; a tiny path budget
    #: cuts its summarisation, leaving a partial summary
    PROG = prog_of(
        Proc("wide", ("a",), (
            IfGoto(PVar("a").lt(Lit(0)), 2),
            Fail(Lit("wide-bug")),
            Return(PVar("a")),
        )),
        Proc("main", (), (
            ISym("x", "s0"),
            Call("r", Lit("wide"), (PVar("x"),)),
            Return(PVar("r")),
        )),
    )

    def _run(self, mode, **overrides):
        from repro.specs.cache import clear_summary_cache

        clear_summary_cache()
        cfg = EngineConfig(summaries=True, summary_mode=mode, **overrides)
        sm = SymbolicStateModel(WhileSymbolicMemory())
        return Explorer(self.PROG, sm, cfg, events=None).run("main")

    def test_incorrectness_replays_partial_verify_does_not(self):
        # Budget chosen so the wide summarisation is cut mid-way.
        verify = self._run("verify", summary_max_paths=1)
        incor = self._run("incorrectness", summary_max_paths=1)
        assert verify.stats.summary_replays == 0  # refused, ran inline
        assert incor.stats.summary_replays > 0    # partial replayed

    def test_partial_replay_never_widens(self):
        base = digest(self._run("verify"))  # full budget = inline-equal
        partial = digest(self._run("incorrectness", summary_max_paths=1))
        # Every final the under-approximate run reports is a final of
        # the full run (paths dropped, none invented).
        remaining = list(base)
        for entry in partial:
            assert entry in remaining, (entry, base)
            remaining.remove(entry)
        assert len(partial) < len(base)

    def test_partial_bug_reports_stay_true_positive(self):
        report = find_bugs(
            LANG, self.PROG, "main",
            config=EngineConfig(summary_max_paths=1),
        )
        # The one path the cut summary keeps is the failing one.
        assert [bug.value for bug in report.bugs] == [Lit("wide-bug")]
        assert report.all_confirmed
