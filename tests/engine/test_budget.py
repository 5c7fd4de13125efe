"""Tests for the unified execution budget (repro.engine.budget)."""

import pytest

from repro.engine.budget import Budget, StopReason
from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.engine.results import ExecutionStats
from repro.engine.strategy import strategy_names
from repro.gil.syntax import (
    Assignment,
    Goto,
    IfGoto,
    ISym,
    Proc,
    Prog,
    Return,
)
from repro.logic.expr import Lit, PVar
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang import WhileLanguage
from repro.targets.while_lang.memory import WhileSymbolicMemory
from repro.testing.harness import SymbolicTester


def prog_of(*procs):
    p = Prog()
    for proc in procs:
        p.add(proc)
    return p


def infinite_loop():
    return prog_of(
        Proc("main", (), (Assignment("x", Lit(0)), Goto(0), Return(PVar("x"))))
    )


def wide_branching(n=4):
    body = tuple(ISym(f"b{i}", i) for i in range(n))
    for i in range(n):
        body += (IfGoto(PVar(f"b{i}").eq(Lit(True)), len(body) + 1),)
    body += (Return(Lit("done")),)
    return prog_of(Proc("main", (), body))


def explore(prog, config):
    sm = SymbolicStateModel(WhileSymbolicMemory())
    return Explorer(prog, sm, config).run("main")


class TestFromConfig:
    def test_copies_every_bound(self):
        config = EngineConfig(
            max_steps_per_path=11, max_paths=22, max_total_steps=33, deadline=4.5
        )
        budget = Budget.from_config(config)
        assert budget.max_steps_per_path == 11
        assert budget.max_paths == 22
        assert budget.max_total_steps == 33
        assert budget.deadline == 4.5

    def test_deadline_defaults_off(self):
        assert Budget.from_config(EngineConfig()).deadline is None


class TestDecide:
    def test_continue_inside_all_bounds(self):
        decision = Budget().decide(ExecutionStats(), depth=0, pending=3, elapsed=0.0)
        assert decision.stop is None
        assert not decision.drop_path
        assert decision.evict == 0

    def test_total_steps_stops(self):
        budget = Budget(max_total_steps=10)
        stats = ExecutionStats(commands_executed=10)
        decision = budget.decide(stats, depth=0, pending=5, elapsed=0.0)
        assert decision.stop is StopReason.MAX_TOTAL_STEPS

    def test_deadline_stops(self):
        budget = Budget(deadline=1.0)
        decision = budget.decide(ExecutionStats(), depth=0, pending=0, elapsed=1.5)
        assert decision.stop is StopReason.DEADLINE

    def test_depth_bound_drops_path_only(self):
        budget = Budget(max_steps_per_path=4)
        decision = budget.decide(ExecutionStats(), depth=4, pending=2, elapsed=0.0)
        assert decision.stop is None
        assert decision.drop_path
        assert not decision.cap_hit

    def test_path_cap_evicts_overshoot(self):
        budget = Budget(max_paths=5)
        stats = ExecutionStats(paths_finished=3)
        # 3 finished + 1 popped + 4 pending = 8 prospective > 5: evict 3.
        decision = budget.decide(stats, depth=0, pending=4, elapsed=0.0)
        assert decision.stop is None
        assert not decision.drop_path
        assert decision.evict == 3

    def test_path_cap_drops_current_when_cap_reached(self):
        budget = Budget(max_paths=3)
        stats = ExecutionStats(paths_finished=3)
        decision = budget.decide(stats, depth=0, pending=2, elapsed=0.0)
        assert decision.drop_path and decision.cap_hit
        assert decision.evict == 2


class TestSchedulerIntegration:
    def test_exhausted_run_reports_exhausted(self):
        result = explore(wide_branching(), EngineConfig())
        assert result.stats.stop_reason == "exhausted"
        assert result.stats.paths_dropped == 0

    def test_total_step_stop_reason(self):
        result = explore(infinite_loop(), EngineConfig(max_total_steps=30))
        assert result.stats.commands_executed <= 30
        assert result.stats.stop_reason == "max-total-steps"

    def test_depth_drop_is_still_exhaustive(self):
        result = explore(infinite_loop(), EngineConfig(max_steps_per_path=50))
        assert result.stats.paths_dropped == 1
        assert result.stats.stop_reason == "exhausted"

    def test_deadline_stop_reason(self):
        result = explore(infinite_loop(), EngineConfig(deadline=0.0))
        assert result.stats.stop_reason == "deadline"
        # The popped item and any pending work count as dropped.
        assert result.stats.paths_dropped >= 1

    def test_max_paths_cap_counts_drops(self):
        result = explore(wide_branching(), EngineConfig(max_paths=3))
        assert result.stats.paths_finished <= 3
        assert result.stats.paths_dropped > 0

    def test_budget_object_overrides_config(self):
        sm = SymbolicStateModel(WhileSymbolicMemory())
        explorer = Explorer(
            infinite_loop(), sm, EngineConfig(), budget=Budget(max_total_steps=7)
        )
        result = explorer.run("main")
        assert result.stats.commands_executed <= 7
        assert result.stats.stop_reason == "max-total-steps"

    def test_eviction_is_strategy_deterministic(self):
        # Same strategy + same cap → same surviving finals, every run.
        outcomes = []
        for _ in range(2):
            result = explore(
                wide_branching(), EngineConfig(max_paths=3, strategy="bfs")
            )
            outcomes.append(sorted(repr(f.value) for f in result.finals))
        assert outcomes[0] == outcomes[1]


class TestPathCapIsNotExhaustive:
    """A run whose path cap evicted or dropped a pending path reports
    ``max-paths``, so a bug-free survivor set is never read as bounded
    verification."""

    #: three paths: an assertion failure and two normal returns
    SOURCE = """
    proc main() {
      x := symb_int();
      if (x < 0) { assert(false); } else { skip; }
      if (x = 0) { skip; } else { skip; }
      return x;
    }
    """

    def run(self, strategy, cap):
        config = EngineConfig(max_paths=cap, strategy=strategy)
        return SymbolicTester(WhileLanguage(), config=config).run_source(
            self.SOURCE, "main"
        )

    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("strategy", strategy_names())
    def test_cap_below_the_path_count(self, strategy, cap):
        # At the path count nothing is cut: the run is exhaustive.
        full = self.run(strategy, 3)
        assert (full.stats.paths_dropped, full.report.stop_reason) == (0, "exhausted")
        assert full.verdict == "bug"

        result = self.run(strategy, cap)
        assert result.stats.paths_dropped > 0
        assert result.report.stop_reason == "max-paths"
        assert result.verdict != "bounded-verified"


class _FakeTime:
    """A scripted stand-in for the explorer's ``time`` module."""

    def __init__(self, times):
        self._times = list(times)
        self._last = self._times[0]

    def perf_counter(self):
        if self._times:
            self._last = self._times.pop(0)
        return self._last


class TestDeadlineBetweenBranchAndPush:
    """The deadline can pass in the window after a branch's successors
    are pushed but before any of them is popped: the next pop's budget
    check must stop the run and count every pushed child as dropped."""

    def branching_once(self):
        # ISym (1 step) then IfGoto (branches in two), arms return.
        return prog_of(
            Proc(
                "main",
                (),
                (
                    ISym("b", 0),
                    IfGoto(PVar("b").lt(Lit(0)), 3),
                    Return(Lit("pos")),
                    Return(Lit("neg")),
                ),
            )
        )

    def run_with_clock(self, times, deadline):
        import repro.engine.explorer as explorer_mod

        sm = SymbolicStateModel(WhileSymbolicMemory())
        explorer = Explorer(
            self.branching_once(), sm, EngineConfig(deadline=deadline)
        )
        real_time = explorer_mod.time
        explorer_mod.time = _FakeTime(times)
        try:
            return explorer.run("main")
        finally:
            explorer_mod.time = real_time

    def test_deadline_after_branch_drops_all_children(self):
        # Clock script: start, decide(ISym), decide(IfGoto — the branch),
        # decide(first child) where the deadline has passed, final wall.
        result = self.run_with_clock([0.0, 0.2, 0.4, 1.5, 2.0], deadline=1.0)
        assert result.stats.stop_reason == "deadline"
        # Both branch children were pushed, then dropped unexplored.
        assert result.stats.commands_executed == 2
        assert result.stats.paths_dropped == 2
        assert result.finals == []

    def test_deadline_between_children_keeps_first_final(self):
        # One child gets explored before the clock passes the deadline;
        # the sibling is dropped.
        result = self.run_with_clock([0.0, 0.2, 0.4, 0.6, 1.5, 2.0], deadline=1.0)
        assert result.stats.stop_reason == "deadline"
        assert result.stats.commands_executed == 3
        assert result.stats.paths_finished == 1
        assert result.stats.paths_dropped == 1

    def test_generous_clock_exhausts(self):
        result = self.run_with_clock([0.0] * 12, deadline=1.0)
        assert result.stats.stop_reason == "exhausted"
        assert result.stats.paths_finished == 2
