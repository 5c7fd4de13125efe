"""Tests for the concolic (DART-style) engine extension (paper §6)."""

import pytest

from repro.engine.concolic import ConcolicTester
from repro.engine.config import EngineConfig
from repro.targets.c_like import MiniCLanguage
from repro.targets.while_lang import WhileLanguage

WHILE = WhileLanguage()


def run_while(source: str, **kw):
    prog = WHILE.compile(source)
    return ConcolicTester(WHILE, **kw).run(prog, "main")


class TestDirectedSearch:
    def test_dart_classic(self):
        # The canonical DART example: reaching the bug needs the solver to
        # invert x == 2*y composed with x - y > 10.
        report = run_while(
            """
            proc main() {
              x := symb_int();
              y := symb_int();
              if (x = 2 * y) {
                if (10 < x - y) {
                  assert(false);
                }
              }
              return 0;
            }"""
        )
        assert report.found_bug
        bug = report.bugs[0]
        x, y = bug.inputs["val_0_0"], bug.inputs["val_1_0"]
        assert x == 2 * y and x - y > 10

    def test_no_bug_terminates(self):
        report = run_while(
            """
            proc main() {
              n := symb_int();
              if (n < 0) { m := -n; } else { m := n; }
              assert(0 <= m);
              return m;
            }"""
        )
        assert not report.found_bug
        assert report.paths_explored >= 2

    def test_nested_equalities(self):
        report = run_while(
            """
            proc main() {
              a := symb_int();
              b := symb_int();
              if (a + b = 10) {
                if (a - b = 4) {
                  assert(false);
                }
              }
              return 0;
            }"""
        )
        assert report.found_bug
        a, b = report.bugs[0].inputs["val_0_0"], report.bugs[0].inputs["val_1_0"]
        assert a + b == 10 and a - b == 4

    def test_iteration_budget_respected(self):
        report = run_while(
            """
            proc main() {
              a := symb_int();
              b := symb_int();
              c := symb_int();
              if (a = 1) { x := 1; }
              if (b = 2) { x := 2; }
              if (c = 3) { x := 3; }
              return 0;
            }""",
            max_iterations=4,
        )
        assert report.iterations <= 4

    def test_memory_error_found_concolically(self):
        language = MiniCLanguage()
        prog = language.compile(
            """
            int main() {
              int *a = (int *) malloc(3 * sizeof(int));
              int i = symb_int();
              if (0 <= i) {
                if (i <= 3) {
                  a[i] = 1;   // i == 3 overflows
                }
              }
              free(a);
              return 0;
            }"""
        )
        report = ConcolicTester(language).run(prog, "main")
        assert report.found_bug
        assert any(
            "buffer-overflow" in str(b.value) for b in report.bugs
        )

    def test_every_bug_input_is_concrete_witness(self):
        # Concolic bugs are found by *concrete* runs — confirmed by
        # construction (no false positives possible).
        report = run_while(
            """
            proc main() {
              n := symb_int();
              if (n = 41) { assert(false); }
              return 0;
            }"""
        )
        assert report.found_bug
        assert report.bugs[0].inputs["val_0_0"] == 41


DART = """
proc main() {
  x := symb_int();
  y := symb_int();
  if (x = 2 * y) {
    if (10 < x - y) {
      assert(false);
    }
  }
  return 0;
}"""


class TestConfig:
    """A concolic run's solver and shadow model follow its EngineConfig."""

    def test_solver_step_budget_reaches_flip_queries(self):
        assert run_while(DART).found_bug
        # One solver step is too little for any flip query: each times
        # out, so no second input vector is ever scheduled.
        report = run_while(DART, config=EngineConfig(solver_step_budget=1))
        assert report.iterations == 1
        assert not report.found_bug

    def test_shadow_model_follows_the_config(self, monkeypatch):
        import repro.engine.concolic as concolic

        built = []
        real = concolic._DirectedSymbolicModel

        def recording(*args):
            sm = real(*args)
            built.append(sm)
            return sm

        monkeypatch.setattr(concolic, "_DirectedSymbolicModel", recording)
        config = EngineConfig(
            solver_cache=False, solver_step_budget=50, unknown_policy="prune"
        )
        run_while(DART, config=config, max_iterations=2)
        assert built
        for sm in built:
            assert sm.unknown_policy == "prune"
            assert not sm.solver.cache_enabled
            assert sm.solver.step_budget == 50
