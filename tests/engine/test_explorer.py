"""Tests for the symbolic execution driver (repro.engine.explorer)."""

import gc

import pytest

from repro.engine.config import EngineConfig, gillian, javert2_baseline
from repro.engine.explorer import Explorer
from repro.engine.results import ExecutionResult, ExecutionStats
from repro.gil.semantics import OutcomeKind
from repro.gil.syntax import (
    Assignment,
    Call,
    Goto,
    IfGoto,
    ISym,
    Proc,
    Prog,
    Return,
    Vanish,
)
from repro.logic.expr import Lit, PVar
from repro.specs.cache import clear_summary_cache
from repro.state.concrete import ConcreteStateModel
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import WhileConcreteMemory, WhileSymbolicMemory


def prog_of(*procs):
    p = Prog()
    for proc in procs:
        p.add(proc)
    return p


def symbolic_explorer(prog, config=None):
    return Explorer(prog, SymbolicStateModel(WhileSymbolicMemory()), config)


class TestBounds:
    def _infinite_loop(self):
        return prog_of(
            Proc("main", (), (Assignment("x", Lit(0)), Goto(0), Return(PVar("x"))))
        )

    def test_step_bound_drops_path(self):
        config = EngineConfig(max_steps_per_path=50)
        result = symbolic_explorer(self._infinite_loop(), config).run("main")
        assert result.finals == []
        assert result.stats.paths_dropped == 1

    def test_total_step_bound(self):
        config = EngineConfig(max_total_steps=30)
        result = symbolic_explorer(self._infinite_loop(), config).run("main")
        assert result.stats.commands_executed <= 30

    def _wide_branching(self, n=4):
        # n symbolic booleans → 2^n normal paths.
        body = tuple(ISym(f"b{i}", i) for i in range(n))
        for i in range(n):
            body += (IfGoto(PVar(f"b{i}").eq(Lit(True)), len(body) + 1),)
        body += (Return(Lit("done")),)
        return prog_of(Proc("main", (), body))

    def test_max_paths_caps_and_counts_drops(self):
        config = EngineConfig(max_paths=3)
        result = symbolic_explorer(self._wide_branching(), config).run("main")
        assert result.stats.paths_finished <= 3
        assert result.stats.paths_dropped > 0

    def test_max_paths_not_hit_drops_nothing(self):
        config = EngineConfig(max_paths=100_000)
        result = symbolic_explorer(self._wide_branching(), config).run("main")
        assert result.stats.paths_dropped == 0
        assert result.stats.paths_finished == 16

    def test_branching_explores_all_paths(self):
        # Two symbolic booleans → up to 4 normal paths.
        body = (
            ISym("a", 0),
            ISym("b", 1),
            IfGoto(PVar("a").eq(Lit(True)), 4),
            Return(Lit("a-false")),
            IfGoto(PVar("b").eq(Lit(True)), 6),
            Return(Lit("b-false")),
            Return(Lit("both-true")),
        )
        prog = prog_of(Proc("main", (), body))
        result = symbolic_explorer(prog).run("main")
        values = sorted(f.value.value for f in result.normal)
        assert values == ["a-false", "b-false", "both-true"]


class TestStats:
    def test_command_count(self):
        prog = prog_of(Proc("main", (), (Assignment("x", Lit(1)), Return(PVar("x")))))
        result = symbolic_explorer(prog).run("main")
        assert result.stats.commands_executed == 2

    def test_vanish_counted(self):
        prog = prog_of(Proc("main", (), (Vanish(),)))
        result = symbolic_explorer(prog).run("main")
        assert result.stats.paths_vanished == 1
        assert result.stats.paths_finished == 0

    def test_solver_stats_tracked(self):
        body = (
            ISym("a", 0),
            IfGoto(PVar("a").eq(Lit(1)), 3),
            Return(Lit(0)),
            Return(Lit(1)),
        )
        prog = prog_of(Proc("main", (), body))
        result = symbolic_explorer(prog).run("main")
        assert result.stats.solver_queries > 0

    def test_stats_merge(self):
        a = ExecutionStats(commands_executed=2, paths_finished=1, wall_time=0.5)
        b = ExecutionStats(commands_executed=3, paths_finished=2, wall_time=0.25)
        a.merge(b)
        assert a.commands_executed == 5
        assert a.paths_finished == 3
        assert a.wall_time == 0.75


class TestCheckpointFold:
    """The drive loop folds the solver, degradation and summary counters
    into the run's stats at every checkpoint save and once at exit.  Each
    fold resets its baseline, so together they count everything once."""

    class Recorder:
        """A checkpoint hook that saves after every command."""

        interval = 1

        def __init__(self):
            self.saved = []

        def save(self, frontier, finals, stats):
            self.saved.append((stats.solver_queries, stats.summary_replays))

    PROG = prog_of(
        Proc("helper", ("a",), (
            IfGoto(PVar("a").lt(Lit(0)), 2),
            Return(PVar("a")),
            Return(Lit(0) - PVar("a")),
        )),
        Proc("main", (), (
            ISym("x", 0),
            ISym("y", 1),
            Call("r1", Lit("helper"), (PVar("x"),)),
            Call("r2", Lit("helper"), (PVar("y"),)),
            IfGoto(PVar("r1").lt(PVar("r2")), 6),
            Return(PVar("r1")),
            Return(PVar("r2")),
        )),
    )

    def run(self, checkpoint=None, **overrides):
        clear_summary_cache()
        sm = SymbolicStateModel(WhileSymbolicMemory())
        result = Explorer(
            self.PROG, sm, EngineConfig(**overrides), checkpoint=checkpoint
        ).run("main")
        return result, sm

    def test_solver_counters_fold_once(self):
        plain, _ = self.run()
        recorder = self.Recorder()
        saved, sm = self.run(recorder)
        queries = [q for q, _ in recorder.saved]
        assert len(queries) > 1 and queries == sorted(queries)
        assert saved.stats.solver_queries == plain.stats.solver_queries
        assert saved.stats.solver_queries == sm.solver.stats.queries > 0
        assert saved.stats.solver_cache_hits == plain.stats.solver_cache_hits
        assert saved.stats.solver_prefix_hits == plain.stats.solver_prefix_hits

    def test_summary_counters_fold_once(self):
        def counters(stats):
            return (
                stats.summary_hits,
                stats.summary_misses,
                stats.summary_replays,
                stats.summary_build_commands,
            )

        plain, _ = self.run(summaries=True)
        recorder = self.Recorder()
        saved, _ = self.run(recorder, summaries=True)
        replays = [r for _, r in recorder.saved]
        assert replays == sorted(replays)
        assert counters(saved.stats) == counters(plain.stats)
        assert saved.stats.summary_replays > 0


class TestGcBatching:
    """A drive loop runs under a raised gen-0 collector threshold
    (``EngineConfig.gc_batch``) and restores the caller's on exit."""

    class Probe:
        """A checkpoint hook reading the gen-0 threshold mid-drive."""

        interval = 1

        def __init__(self):
            self.seen = set()

        def save(self, frontier, finals, stats):
            self.seen.add(gc.get_threshold()[0])

    PROG = prog_of(Proc("main", (), (
        ISym("a", 0),
        IfGoto(PVar("a").lt(Lit(0)), 3),
        Return(Lit(0)),
        Return(Lit(1)),
    )))

    def drive(self, threshold, **overrides):
        """Run PROG from gen-0 ``threshold``; return (mid-drive, after)."""
        prev = gc.get_threshold()
        probe = self.Probe()
        gc.set_threshold(threshold, prev[1], prev[2])
        try:
            Explorer(
                self.PROG,
                SymbolicStateModel(WhileSymbolicMemory()),
                EngineConfig(**overrides),
                checkpoint=probe,
            ).run("main")
            after = gc.get_threshold()[0]
        finally:
            gc.set_threshold(*prev)
        return probe.seen, after

    def test_threshold_raised_then_restored(self):
        assert self.drive(700, gc_batch=50_000) == ({50_000}, 700)

    def test_zero_leaves_collector_alone(self):
        assert self.drive(700, gc_batch=0) == ({700}, 700)

    def test_higher_threshold_left_alone(self):
        # A nested drive (or a caller that already batches) keeps the
        # larger batch it found.
        assert self.drive(80_000, gc_batch=50_000) == ({80_000}, 80_000)


class TestResults:
    def test_normal_and_error_partition(self):
        from repro.gil.syntax import Fail

        body = (
            ISym("a", 0),
            IfGoto(PVar("a").eq(Lit(True)), 3),
            Fail(Lit("nope")),
            Return(Lit("ok")),
        )
        prog = prog_of(Proc("main", (), body))
        result = symbolic_explorer(prog).run("main")
        assert len(result.normal) == 1
        assert len(result.errors) == 1

    def test_sole_outcome_requires_determinism(self):
        prog = prog_of(Proc("main", (), (Return(Lit(1)),)))
        sm = ConcreteStateModel(WhileConcreteMemory())
        result = Explorer(prog, sm).run("main")
        assert result.sole_outcome.value == 1

    def test_sole_outcome_rejects_multiple(self):
        body = (
            ISym("a", 0),
            IfGoto(PVar("a").eq(Lit(True)), 3),
            Return(Lit(0)),
            Return(Lit(1)),
        )
        prog = prog_of(Proc("main", (), body))
        result = symbolic_explorer(prog).run("main")
        with pytest.raises(ValueError):
            result.sole_outcome


class TestConfigs:
    def test_gillian_config(self):
        config = gillian()
        assert config.simplifier_memoisation and config.solver_cache

    def test_baseline_config(self):
        config = javert2_baseline()
        assert not config.simplifier_memoisation and not config.solver_cache

    def test_configs_explore_identically(self):
        source_body = (
            ISym("a", 0),
            IfGoto(PVar("a").lt(Lit(0)), 3),
            Return(Lit("nonneg")),
            Return(Lit("neg")),
        )
        prog = prog_of(Proc("main", (), source_body))
        fast = symbolic_explorer(prog, gillian()).run("main")
        # Fresh state model so solver/simplifier settings apply.
        from repro.logic.simplify import Simplifier
        from repro.logic.solver import Solver

        slow_solver = Solver(
            simplifier=Simplifier(memoise=False), cache_enabled=False
        )
        slow_sm = SymbolicStateModel(WhileSymbolicMemory(), solver=slow_solver)
        slow = Explorer(prog, slow_sm, javert2_baseline()).run("main")
        assert fast.stats.commands_executed == slow.stats.commands_executed
        assert len(fast.finals) == len(slow.finals)
