"""Tests for parallel exploration (repro.engine.parallel) and the
pickle-safety layer underneath it: expression re-interning, path-condition
delta re-linking, state serialization, and the deterministic merge."""

import multiprocessing
import pickle

import pytest

from repro.engine.budget import Budget
from repro.engine.config import EngineConfig
from repro.engine.events import EventBus, WorkerEvent, event_payload
from repro.engine.explorer import Explorer
from repro.engine.parallel import (
    ParallelExplorer,
    SymbolicModelFactory,
    WorkerError,
    model_factory_for,
    resolve_workers,
)
from repro.engine.results import (
    ExecutionResult,
    ExecutionStats,
    final_sort_key,
    merge_results,
)
from repro.gil.syntax import (
    Assignment,
    Fail,
    Goto,
    IfGoto,
    ISym,
    Proc,
    Prog,
    Return,
)
from repro.logic.expr import BinOpExpr, Lit, LVar, PVar, intern_table_sizes
from repro.logic.pathcond import PathCondition
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import WhileSymbolicMemory


def prog_of(*procs):
    p = Prog()
    for proc in procs:
        p.add(proc)
    return p


def branching_prog(levels=3):
    """A binary tree of iSym branches, 2**levels leaves plus error paths."""
    body = ()
    for i in range(levels):
        body += (ISym(f"b{i}", i),)
    for i in range(levels):
        body += (IfGoto(PVar(f"b{i}").lt(Lit(0)), 2 * levels + 1),)
    body += (Return(Lit("ok")), Fail(Lit("neg")))
    return prog_of(Proc("main", (), body))


def sym_model():
    return SymbolicStateModel(WhileSymbolicMemory())


def keys(result):
    """The finals multiset in canonical order (sequential runs report
    discovery order; the parallel merge reports sorted order)."""
    return sorted(final_sort_key(f) for f in result.finals)


class TestResolveWorkers:
    def test_defaults_and_ints(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers("3") == 3

    def test_auto_is_cpu_count(self):
        import os

        assert resolve_workers("auto") == max(1, os.cpu_count() or 1)
        assert resolve_workers(" AUTO ") == resolve_workers("auto")

    @pytest.mark.parametrize("bad", [0, -2, "zero", "1.5", 2.5, True])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)


class TestExprPickling:
    def test_round_trip_re_interns_to_same_object(self):
        e = (LVar("x") + Lit(1)).lt(PVar("y"))
        clone = pickle.loads(pickle.dumps(e))
        assert clone is e  # hash-consing: same process, same node

    def test_round_trip_does_not_grow_intern_tables(self):
        e = BinOpExpr.__mro__ and (LVar("p") * Lit(7)).eq(Lit(0))
        pickle.loads(pickle.dumps(e))  # populate once
        before = intern_table_sizes()
        for _ in range(3):
            pickle.loads(pickle.dumps(e))
        assert intern_table_sizes() == before


class TestPathConditionPickling:
    def chain(self):
        pc = PathCondition.true()
        pc = pc.conjoin(LVar("a").lt(Lit(10)))
        pc = pc.conjoin_all([LVar("b").eq(Lit(2)), LVar("c").neq(Lit(3))])
        pc = pc.conjoin(LVar("a").lt(Lit(10)))  # dedup: no new node
        return pc.conjoin(LVar("d").lt(LVar("a")))

    def test_round_trip_equal_same_order(self):
        pc = self.chain()
        clone = pickle.loads(pickle.dumps(pc))
        assert clone == pc
        assert clone.conjuncts == pc.conjuncts

    def test_round_trip_preserves_delta_structure(self):
        pc = self.chain()
        clone = pickle.loads(pickle.dumps(pc))
        def deltas(node):
            out = []
            while node is not None:
                out.append(node.added)
                node = node.parent
            return out
        assert deltas(clone) == deltas(pc)

    def test_true_round_trips_to_the_shared_root(self):
        clone = pickle.loads(pickle.dumps(PathCondition.true()))
        assert clone is PathCondition.true()

    def test_deep_chain_round_trips_without_recursion_error(self):
        pc = PathCondition.true()
        for i in range(3000):
            pc = pc.conjoin(LVar("n").neq(Lit(i)))
        clone = pickle.loads(pickle.dumps(pc))
        assert clone == pc


class TestStatePickling:
    def final_states(self):
        result = Explorer(branching_prog(), sym_model(), EngineConfig()).run("main")
        assert result.finals
        return [fin.state for fin in result.finals]

    def test_symbolic_state_round_trips(self):
        for state in self.final_states():
            clone = pickle.loads(pickle.dumps(state))
            assert dict(clone.store) == dict(state.store)
            assert clone.alloc == state.alloc
            assert clone.pc == state.pc
            assert clone.memory == state.memory

    def test_concrete_state_round_trips(self):
        from repro.state.concrete import ConcreteStateModel
        from repro.targets.while_lang.memory import WhileConcreteMemory

        sm = ConcreteStateModel(WhileConcreteMemory())
        prog = prog_of(
            Proc("main", (), (Assignment("x", Lit(41)), Return(PVar("x") + Lit(1))))
        )
        result = Explorer(prog, sm).run("main")
        state = result.sole_outcome.state
        clone = pickle.loads(pickle.dumps(state))
        assert dict(clone.store) == dict(state.store)
        assert clone.alloc == state.alloc


class TestDeterministicMerge:
    def test_any_partition_merges_to_the_same_result(self):
        result = Explorer(branching_prog(), sym_model(), EngineConfig()).run("main")
        finals = result.finals
        whole = merge_results([ExecutionResult(list(finals), ExecutionStats())])
        # Split the finals across fake "shards" in two different ways.
        for split in (2, 3):
            parts = [
                ExecutionResult(finals[i::split], ExecutionStats())
                for i in range(split)
            ]
            merged = merge_results(parts)
            assert keys(merged) == keys(whole)

    def test_merge_aggregates_stats(self):
        a = ExecutionResult([], ExecutionStats(commands_executed=3, stop_reason="exhausted"))
        b = ExecutionResult([], ExecutionStats(commands_executed=4, stop_reason="deadline"))
        merged = merge_results([a, b])
        assert merged.stats.commands_executed == 7
        assert merged.stats.stop_reason == "deadline"


class _ExplodingFactory:
    """A picklable factory that fails inside the worker process."""

    def __call__(self):
        raise RuntimeError("boom in worker")


class TestParallelExplorer:
    def run_at(self, workers, seed_factor=1, levels=3, **config_kw):
        prog = branching_prog(levels)
        config = EngineConfig(**config_kw)
        if workers == 1:
            return Explorer(prog, sym_model(), config).run("main")
        return ParallelExplorer(
            prog, sym_model(), config, workers=workers, seed_factor=seed_factor
        ).run("main")

    def test_worker_counts_agree_with_sequential(self):
        reference = self.run_at(1)
        for workers in (2, 3, 4):
            result = self.run_at(workers)
            assert keys(result) == keys(reference), f"workers={workers}"
            assert result.stats.stop_reason == "exhausted"

    def test_stats_commands_match_sequential(self):
        # Every GIL command is stepped exactly once no matter the sharding.
        reference = self.run_at(1)
        result = self.run_at(2)
        assert result.stats.commands_executed == reference.stats.commands_executed
        assert result.stats.paths_finished == reference.stats.paths_finished

    def test_spawned_workers_agree_with_forked(self):
        # Under spawn the program crosses to the workers pickled, as a
        # process argument; under fork they inherit it.  Both must find
        # the same finals.
        prog = branching_prog(3)
        forked = ParallelExplorer(
            prog, sym_model(), EngineConfig(), workers=2, seed_factor=1,
            mp_context=multiprocessing.get_context("fork"),
        ).run("main")
        spawned = ParallelExplorer(
            prog, sym_model(), EngineConfig(), workers=2, seed_factor=1,
            mp_context=multiprocessing.get_context("spawn"),
        ).run("main")
        assert keys(spawned) == keys(forked) == keys(self.run_at(1))
        assert spawned.stats.commands_executed == forked.stats.commands_executed
        assert spawned.stats.stop_reason == "exhausted"

    def test_workers_one_is_plain_sequential(self):
        prog = branching_prog()
        result = ParallelExplorer(prog, sym_model(), EngineConfig(), workers=1).run(
            "main"
        )
        assert keys(result) == keys(self.run_at(1))

    def test_program_finishing_during_seeding(self):
        # A straight-line program never builds a frontier: the parallel
        # explorer must fall back to the seed result (no workers spawned).
        prog = prog_of(Proc("main", (), (Assignment("x", Lit(1)), Return(PVar("x")))))
        result = ParallelExplorer(prog, sym_model(), EngineConfig(), workers=4).run(
            "main"
        )
        assert [f.value for f in result.finals] == [Lit(1)]
        assert result.stats.stop_reason == "exhausted"

    def test_config_workers_field_is_honoured(self):
        prog = branching_prog()
        explorer = ParallelExplorer(prog, sym_model(), EngineConfig(workers=2))
        assert explorer.workers == 2

    def test_malformed_strategy_fails_in_parent(self):
        with pytest.raises(ValueError):
            ParallelExplorer(
                branching_prog(), sym_model(), EngineConfig(), workers=2,
                strategy="random:notanint",
            )

    def test_events_are_forwarded_with_worker_ids(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda ev: seen.append(ev))
        prog = branching_prog()
        ParallelExplorer(
            prog, sym_model(), EngineConfig(), events=bus, workers=2, seed_factor=1
        ).run("main")
        worker_events = [e for e in seen if isinstance(e, WorkerEvent)]
        assert worker_events
        assert {e.worker_id for e in worker_events} <= {0, 1}
        payload = event_payload(worker_events[0])
        assert "worker_id" in payload and payload["event"] != "WorkerEvent"

    def test_worker_failure_raises_under_shard_failure_raise(self):
        prog = branching_prog()
        explorer = ParallelExplorer(
            prog, sym_model(), EngineConfig(shard_failure="raise"),
            workers=2, seed_factor=1, factory=_ExplodingFactory(),
        )
        with pytest.raises(WorkerError, match="boom in worker"):
            explorer.run("main")

    def test_worker_failure_degrades_to_incomplete_by_default(self):
        # Every worker explodes on every attempt, so retries exhaust and
        # the run downgrades: "incomplete" stop reason, the abandoned
        # frontier reported, and the ledger counting retries and losses.
        prog = branching_prog()
        config = EngineConfig(max_shard_retries=1, shard_retry_backoff=0.0)
        explorer = ParallelExplorer(
            prog, sym_model(), config, workers=2, seed_factor=1,
            factory=_ExplodingFactory(),
        )
        result = explorer.run("main")
        assert result.stats.stop_reason == "incomplete"
        inc = result.stats.incompleteness
        assert inc.shards_retried >= 1
        assert inc.shards_lost >= 1
        assert inc.frontier_lost == len(result.lost_frontier) > 0
        assert not result.report.complete

    def test_model_factory_for_symbolic(self):
        factory = model_factory_for(sym_model(), EngineConfig())
        assert isinstance(factory, SymbolicModelFactory)
        rebuilt = pickle.loads(pickle.dumps(factory))()
        assert isinstance(rebuilt, SymbolicStateModel)

    def test_model_factory_rejects_unknown_models(self):
        with pytest.raises(TypeError):
            model_factory_for(object(), EngineConfig())


class TestCheckpointedRounds:
    """``round_items`` deals the frontier in rounds, and the checkpoint
    hook saves the unprocessed remainder after each round."""

    class Spy:
        """A checkpoint hook that only records the between-round saves."""

        interval = 0  # no snapshots inside a drive

        def __init__(self):
            self.sizes = []

        def save(self, frontier, finals, stats):
            self.sizes.append(len(frontier))

    @staticmethod
    def bushy_prog(levels=4):
        """Both arms of every branch continue: ``2**levels`` live paths,
        so seeding builds a frontier of the full target."""
        body = (Assignment("acc", Lit(0)),)
        body += tuple(ISym(f"b{i}", i) for i in range(levels))
        for i in range(levels):
            base = 1 + levels + 4 * i
            body += (
                IfGoto(PVar(f"b{i}").lt(Lit(0)), base + 3),
                Assignment("acc", PVar("acc") + Lit(1)),
                Goto(base + 4),
                Assignment("acc", PVar("acc") - Lit(1)),
            )
        body += (Return(PVar("acc")),)
        return prog_of(Proc("main", (), body))

    def test_rounds_save_the_shrinking_remainder(self):
        prog = self.bushy_prog()
        spy = self.Spy()
        result = ParallelExplorer(
            prog, sym_model(), EngineConfig(), workers=2,
            checkpoint=spy, round_items=2,
        ).run("main")
        # Seeding targets 2 workers x 4 items; each round takes two.
        assert spy.sizes and spy.sizes[0] >= 6
        assert spy.sizes == list(range(spy.sizes[0], 0, -2))
        reference = Explorer(prog, sym_model(), EngineConfig()).run("main")
        assert keys(result) == keys(reference)
        assert result.stats.commands_executed == reference.stats.commands_executed
        assert result.stats.stop_reason == "exhausted"


class TestBudgetSlicing:
    def test_shard_slice_divides_remaining_bounds(self):
        budget = Budget(max_paths=10, max_total_steps=100, deadline=9.0,
                        max_steps_per_path=7)
        sliced = budget.shard_slice(3, steps_spent=10, paths_found=1, elapsed=1.0)
        assert sliced.max_total_steps == 30  # ceil(90 / 3)
        assert sliced.max_paths == 3         # ceil(9 / 3)
        assert sliced.deadline == 8.0
        assert sliced.max_steps_per_path == 7  # path-local: passes through

    def test_shard_sum_covers_the_remainder(self):
        budget = Budget(max_total_steps=10)
        sliced = budget.shard_slice(3)
        assert sliced.max_total_steps * 3 >= 10

    def test_bounded_parallel_run_reports_restrictive_reason(self):
        prog = prog_of(
            Proc(
                "main",
                (),
                (
                    ISym("b", 0),
                    IfGoto(PVar("b").lt(Lit(0)), 3),
                    Goto(1),  # both arms loop forever
                    Goto(1),
                ),
            )
        )
        result = ParallelExplorer(
            prog, sym_model(), EngineConfig(max_total_steps=200),
            workers=2, seed_factor=1,
        ).run("main")
        assert result.stats.stop_reason == "max-total-steps"


class TestHarnessIntegration:
    def test_tester_verdicts_match_across_worker_counts(self):
        from repro.targets.while_lang import WhileLanguage
        from repro.testing.harness import SymbolicTester

        src = """
        proc main() {
          x := symb_int();
          assume(0 <= x and x <= 20);
          if (x < 10) { r := 1; } else { r := 2; }
          assert(not (x = 13));
          return r;
        }
        """
        lang = WhileLanguage()
        seq = SymbolicTester(lang).run_source(src, "main")
        par = SymbolicTester(lang, workers=2).run_source(src, "main")
        assert seq.verdict == par.verdict == "bug"
        assert len(seq.bugs) == len(par.bugs) == 1
        assert par.bugs[0].confirmed  # counter-model replay across pickling
