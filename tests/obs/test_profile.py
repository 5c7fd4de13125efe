"""Tests for solver phase profiling (``EngineConfig.profile_solver_phases``).

A solver built with ``profile_phases=True`` accrues wall clock per
pipeline phase; the scheduler folds it into ``ExecutionStats.phase_times``
and emits one ``solver/*`` span per phase that did work.
"""

from repro.engine.config import EngineConfig
from repro.engine.events import EventBus, SpanEnd
from repro.engine.explorer import Explorer
from repro.gil.semantics import Config, TopFrame
from repro.gil.syntax import IfGoto, ISym, Proc, Prog, Return
from repro.logic.expr import Lit, LVar, PVar
from repro.logic.pathcond import PathCondition
from repro.logic.solver import Solver
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import WhileSymbolicMemory

#: the solver pipeline phases, as named in spans and ``phase_times``
PHASES = {"solver/split", "solver/propagation", "solver/search"}

#: ``SolverStats`` attributes each phase's wall clock accrues in
PHASE_ATTRS = ("split_time", "propagation_time", "search_time")


def spans_on(bus, seen=None):
    seen = [] if seen is None else seen
    bus.subscribe(seen.append, kinds=(SpanEnd,))
    return seen


def branching_run(solver):
    """Explore a two-branch program over ``solver``; return the stats and
    every span the run emitted."""
    prog = Prog()
    prog.add(Proc("main", (), (
        ISym("a", 0),
        IfGoto(PVar("a").lt(Lit(0)), 3),
        Return(Lit(0)),
        Return(Lit(1)),
    )))
    bus = EventBus()
    seen = spans_on(bus)
    sm = SymbolicStateModel(WhileSymbolicMemory(), solver=solver)
    cfg = Config(sm.initial_state(), (TopFrame("main"),), 0)
    result = Explorer(prog, sm, EngineConfig(), events=bus).explore([cfg])
    return result.stats, seen


class TestSolverPhaseSpans:
    def branchy_solver(self):
        solver = Solver(profile_phases=True)
        x = LVar("x")
        pc = (
            PathCondition.true()
            .conjoin(Lit(0).lt(x))
            .conjoin(x.lt(Lit(10)))
        )
        solver.check(pc)
        return solver

    def test_profiled_solver_accrues_phase_times(self):
        solver = self.branchy_solver()
        accrued = [getattr(solver.stats, attr) for attr in PHASE_ATTRS]
        assert any(t > 0 for t in accrued)

    def test_spans_cover_nonzero_phases_only(self):
        stats, seen = branching_run(Solver(profile_phases=True))
        assert stats.phase_times  # at least one pipeline phase did work
        assert set(stats.phase_times) <= PHASES
        assert all(t > 0 for t in stats.phase_times.values())
        solver_spans = {e.name: e.wall for e in seen if e.name.startswith("solver/")}
        assert solver_spans == stats.phase_times

    def test_unprofiled_solver_emits_nothing(self):
        solver = Solver()
        x = LVar("x")
        solver.check(PathCondition.true().conjoin(x.lt(Lit(1))))
        assert all(getattr(solver.stats, attr) == 0.0 for attr in PHASE_ATTRS)
        stats, seen = branching_run(Solver())
        assert stats.phase_times == {}
        assert not [e for e in seen if e.name.startswith("solver/")]
