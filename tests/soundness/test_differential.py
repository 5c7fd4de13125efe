"""Trace-level differential soundness (Theorem 3.6, empirically — E6).

Every final configuration of a symbolic run is replayed concretely under a
model of its path condition; outcomes must agree.  This exercises the
whole stack at once: compiler, GIL semantics, state constructors,
allocators, memory models, solver.
"""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.engine.parallel import SymbolicModelFactory
from repro.gil.semantics import OutcomeKind
from repro.gil.syntax import Fail, IfGoto, ISym, Proc, Prog, Return
from repro.logic.expr import Lit, PVar
from repro.soundness.differential import check_trace_soundness
from repro.targets.while_lang import WhileLanguage

LANG = WhileLanguage()

PROGRAMS = {
    "branching": """
        proc main() {
          n := symb_int();
          assume(-3 <= n and n <= 3);
          if (n < 0) { r := -n; } else { r := n; }
          return r;
        }""",
    "loops": """
        proc main() {
          n := symb_int();
          assume(0 <= n and n <= 3);
          i := 0; acc := 0;
          while (i < n) { acc := acc + i; i := i + 1; }
          return acc;
        }""",
    "objects": """
        proc main() {
          v := symb_int();
          o := { x: v, y: 0 };
          o.y := v + 1;
          a := o.x; b := o.y;
          return a + b;
        }""",
    "errors": """
        proc main() {
          b := symb_bool();
          o := { p: 1 };
          if (b) { dispose(o); }
          v := o.p;
          return v;
        }""",
    "asserts": """
        proc main() {
          n := symb_int();
          assume(0 <= n and n <= 4);
          assert(n != 2);
          return n;
        }""",
    "calls": """
        proc square(x) { return x * x; }
        proc main() {
          n := symb_int();
          assume(-2 <= n and n <= 2);
          s := square(n);
          assert(0 <= s);
          return s;
        }""",
    "strings": """
        proc main() {
          s := symb_string();
          assume(slen(s) < 2);
          t := s ++ "!";
          return slen(t);
        }""",
    "multiple_objects": """
        proc main() {
          a := { v: 1 }; b := { v: 2 };
          x := a.v; y := b.v;
          assert(x != y);
          return x + y;
        }""",
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_trace_soundness(name):
    prog = LANG.compile(PROGRAMS[name])
    report = check_trace_soundness(LANG, prog, "main")
    assert report.checks, "no finals to check"
    assert report.ok, [c.detail for c in report.checks if not c.ok]
    # At least one final must actually replay (models exist).
    assert report.replayed >= 1


class TestConfigHonoured:
    """The symbolic side of the report is built from its EngineConfig."""

    #: deciding ``x * x < 0`` takes the solver more than one step
    PROG = Prog()
    PROG.add(Proc("main", (), (
        ISym("x", "s0"),
        IfGoto((PVar("x") * PVar("x")).lt(Lit(0)), 3),
        Return(PVar("x")),
        Fail(Lit("negative square")),
    )))

    def test_report_checks_the_finals_an_explorer_keeps(self):
        config = EngineConfig(solver_step_budget=1, unknown_policy="prune")
        model = SymbolicModelFactory(LANG.symbolic_memory(), config)()
        explored = Explorer(self.PROG, model, config).run("main")
        assert explored.stats.incompleteness.unknown_pruned == 1
        report = check_trace_soundness(LANG, self.PROG, "main", config)
        kinds = [check.kind for check in report.checks]
        assert kinds == [fin.kind for fin in explored.finals]
        assert kinds == [OutcomeKind.NORMAL]
        # Without the budget the error branch is kept, and checked.
        unbounded = check_trace_soundness(LANG, self.PROG, "main")
        assert len(unbounded.checks) == 2
