"""Tests for the summary engine: replay equivalence with inline descent
(and across solver configurations), counters and events, impure and
recursive callees running inline untouched, incomplete-summary
rejection, and the construction gates (repro.specs.engine)."""

import dataclasses
import pickle

import pytest

from repro.engine.config import EngineConfig, javert2_baseline
from repro.engine.events import (
    EventBus,
    SummariesDisabled,
    SummaryHit,
    SummaryMiss,
    SummaryReplay,
)
from repro.engine.explorer import Explorer
from repro.engine.parallel import SymbolicModelFactory
from repro.engine.results import final_sort_key
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Fail,
    IfGoto,
    ISym,
    Proc,
    Prog,
    Return,
    USym,
)
from repro.logic.expr import Lit, PVar, lst
from repro.specs import cache as summary_cache
from repro.specs import summary as summary_module
from repro.specs.cache import clear_summary_cache
from repro.specs.engine import make_summary_engine
from repro.state.concrete import ConcreteStateModel
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import (
    WhileConcreteMemory,
    WhileSymbolicMemory,
)
from repro.testing.faults import ActionFault, FaultPlan


def prog_of(*procs):
    p = Prog()
    for proc in procs:
        p.add(proc)
    return p


#: pure helper: a < 2 -> a + 1, else a * 10
PURE_HELPER = Proc("helper", ("a",), (
    IfGoto(PVar("a").lt(Lit(2)), 2),
    Return(PVar("a") * Lit(10)),
    Return(PVar("a") + Lit(1)),
))

#: impure helper: allocates an object carrying v, fails when v < 0
HEAP_HELPER = Proc("mk", ("v",), (
    IfGoto(PVar("v").lt(Lit(0)), 4),
    USym("o", "obj"),
    ActionCall("w", "mutate", lst(PVar("o"), "p", PVar("v"))),
    Return(PVar("o")),
    Fail(Lit("neg")),
))


def digest(result):
    return sorted(final_sort_key(f) for f in result.finals)


def run(prog, entry="main", events=None, **overrides):
    clear_summary_cache()
    cfg = EngineConfig(**overrides)
    sm = SymbolicStateModel(WhileSymbolicMemory())
    return Explorer(prog, sm, cfg, events=events).run(entry)


class TestPureTierEquivalence:
    PROG = prog_of(
        PURE_HELPER,
        Proc("main", (), (
            ISym("x", "s0"),
            Call("r1", Lit("helper"), (PVar("x"),)),
            Call("r2", Lit("helper"), (PVar("x") + Lit(1),)),
            Return(PVar("r1") + PVar("r2")),
        )),
    )

    def test_finals_identical_on_vs_off(self):
        base = digest(run(self.PROG, summaries=False))
        assert digest(run(self.PROG, summaries=True)) == base
        assert base  # the program actually branches

    def test_uncached_solver_agrees(self):
        # Replay decides feasibility through whatever solver the model
        # carries: under the JaVerT 2.0 baseline's uncached,
        # non-incremental solver the finals and the replays are the same.
        cached = run(self.PROG, summaries=True)
        clear_summary_cache()
        cfg = javert2_baseline(summaries=True)
        sm = SymbolicModelFactory(WhileSymbolicMemory(), cfg)()
        uncached = Explorer(self.PROG, sm, cfg).run("main")
        assert digest(uncached) == digest(cached)
        assert uncached.stats.summary_replays == cached.stats.summary_replays
        assert uncached.stats.summary_replays > 0

    def test_second_call_site_hits(self):
        stats = run(self.PROG, summaries=True).stats
        # helper is summarised once (the one cold miss); every later
        # execution of a call — the second site is reached on both of
        # the first replay's surviving paths — hits the cache, since
        # pure keys ignore the arguments.
        assert stats.summary_misses == 1
        assert stats.summary_hits == 2
        assert stats.summary_replays == 3
        assert stats.summary_build_commands > 0
        assert stats.summary_commands_saved > 0

    def test_replay_shrinks_executed_commands(self):
        base = run(self.PROG, summaries=False).stats
        on = run(self.PROG, summaries=True).stats
        # The driver sees one command per replayed call instead of the
        # whole callee descent (the build cost is tracked separately).
        assert on.commands_executed < base.commands_executed


SUMMARY_EVENTS = (SummaryHit, SummaryMiss, SummaryReplay, SummariesDisabled)


def run_untouched(prog, **overrides):
    """Run ``prog`` with summaries on, asserting the engine never acted.

    Returns the result and its explorer.  No summary event reaches the
    bus, no counter moves, no summary is recorded, and no procedure body
    or transitive hash is computed: every call ran as plain inline
    descent.
    """
    clear_summary_cache()
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append, kinds=SUMMARY_EVENTS)
    explorer = Explorer(
        prog,
        SymbolicStateModel(WhileSymbolicMemory()),
        EngineConfig(summaries=True, **overrides),
        events=bus,
    )
    result = explorer.run("main")
    assert seen == []
    stats = result.stats
    assert (
        stats.summary_hits,
        stats.summary_misses,
        stats.summary_replays,
        stats.summary_commands_saved,
        stats.summary_build_commands,
    ) == (0, 0, 0, 0, 0)
    assert summary_cache._MEMORY == {}
    assert explorer._summaries._hash_memo == {}
    hashed = summary_module._BODY_DIGESTS._entries
    assert not any(id(proc) in hashed for proc in prog.procs.values())
    return result, explorer


class TestImpureCallsRunInline:
    #: only impure callees: mk allocates and mutates, read looks it up
    PROG = prog_of(
        HEAP_HELPER,
        Proc("read", ("o",), (
            ActionCall("v", "lookup", lst(PVar("o"), "p")),
            Return(PVar("v")),
        )),
        Proc("main", (), (
            ISym("x", "s0"),
            Call("o1", Lit("mk"), (PVar("x"),)),
            Call("o2", Lit("mk"), (PVar("x") + Lit(1),)),
            Call("v1", Lit("read"), (PVar("o1"),)),
            Call("v2", Lit("read"), (PVar("o2"),)),
            Return(PVar("v1") + PVar("v2")),
        )),
    )

    def test_finals_identical_on_vs_off(self):
        base = run(self.PROG, summaries=False)
        result, _ = run_untouched(self.PROG)
        assert digest(result) == digest(base)
        assert result.stats.commands_executed == base.stats.commands_executed
        # Error paths (mk fails on negative input) run inline too.
        assert any(kind == "ERROR" for kind, _ in digest(base))

    def test_no_build_hit_miss_or_event(self):
        _, explorer = run_untouched(self.PROG)
        # Purity was looked up once per callee, and that is all.
        assert explorer._summaries._pure == {"mk": False, "read": False}

    def test_pure_calls_beside_impure_ones_still_replay(self):
        prog = prog_of(
            HEAP_HELPER,
            PURE_HELPER,
            Proc("main", (), (
                ISym("x", "s0"),
                Call("o1", Lit("mk"), (PVar("x"),)),
                Call("y", Lit("helper"), (PVar("x"),)),
                ActionCall("v1", "lookup", lst(PVar("o1"), "p")),
                Return(PVar("v1") + PVar("y")),
            )),
        )
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=SUMMARY_EVENTS)
        result = run(prog, events=bus, summaries=True)
        assert digest(result) == digest(run(prog, summaries=False))
        assert result.stats.summary_replays > 0
        assert {e.proc for e in seen} == {"helper"}


class TestEvents:
    PROG = TestPureTierEquivalence.PROG

    def _collect(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=(SummaryHit, SummaryMiss, SummaryReplay))
        run(self.PROG, events=bus, summaries=True)
        return seen

    def test_lifecycle_events_emitted(self):
        seen = self._collect()
        misses = [e for e in seen if isinstance(e, SummaryMiss)]
        hits = [e for e in seen if isinstance(e, SummaryHit)]
        replays = [e for e in seen if isinstance(e, SummaryReplay)]
        assert [m.reason for m in misses] == ["cold"]
        assert len(hits) == 2 and {h.proc for h in hits} == {"helper"}
        assert hits[0].source == "memory"
        assert len(replays) == 3
        assert all(r.feasible <= r.paths for r in replays)
        assert all(r.commands_saved > 0 for r in replays)


class TestRecursion:
    PROG = prog_of(
        Proc("cd", ("n",), (
            IfGoto(PVar("n").lt(Lit(1)), 3),
            Call("r", Lit("cd"), (PVar("n") - Lit(1),)),
            Return(PVar("r") + Lit(1)),
            Return(Lit(0)),
        )),
        Proc("main", (), (
            Call("r", Lit("cd"), (Lit(3),)),
            Return(PVar("r")),
        )),
    )

    def test_recursive_calls_fall_back_inline(self):
        # A procedure on a call cycle is impure: every cd call, outer
        # and nested, is plain inline descent, with nothing built,
        # served, missed or reported.
        result, _ = run_untouched(self.PROG)
        base = run(self.PROG, summaries=False)
        assert digest(result) == digest(base)
        assert result.stats.commands_executed == base.stats.commands_executed


class TestIncompleteSummaries:
    #: pure helper branching on its argument, whose summarisation run
    #: cannot finish under a tiny command budget
    PROG = prog_of(
        Proc("wide", ("a",), (
            IfGoto(PVar("a").lt(Lit(0)), 3),
            Assignment("b", PVar("a") * Lit(2)),
            Return(PVar("b")),
            Return(Lit(0) - PVar("a")),
        )),
        Proc("main", (), (
            ISym("x", "s0"),
            Call("r", Lit("wide"), (PVar("x"),)),
            Call("s", Lit("wide"), (PVar("x") + Lit(1),)),
            Return(PVar("r") + PVar("s")),
        )),
    )

    def test_verify_mode_refuses_and_inlines(self):
        base = digest(run(self.PROG, summaries=False))
        bus = EventBus()
        misses = []
        bus.subscribe(misses.append, kinds=(SummaryMiss,))
        result = run(
            self.PROG, events=bus, summaries=True, summary_max_commands=2
        )
        # The cut summary is never replayed; inline descent preserves
        # the exact path set.
        assert digest(result) == base
        assert result.stats.summary_replays == 0
        reasons = {m.reason for m in misses}
        assert "cold" in reasons
        # The cached incomplete record answers later call sites as an
        # explicit "incomplete" miss (negative cache), not a re-build.
        assert "incomplete" in reasons


def recording_bus():
    """A bus recording every ``SummariesDisabled`` event into a list."""
    bus, seen = EventBus(), []
    bus.subscribe(seen.append, kinds=(SummariesDisabled,))
    return bus, seen


class TestConstructionGates:
    def test_requires_stock_symbolic_model(self):
        prog = prog_of(Proc("main", (), (Return(Lit(1)),)))
        cfg = EngineConfig(summaries=True)
        bus, seen = recording_bus()
        concrete = ConcreteStateModel(WhileConcreteMemory())
        assert make_summary_engine(prog, concrete, cfg, events=bus) is None
        # Concrete runs never branch: refused silently, by design.
        assert seen == []

        class Custom(SymbolicStateModel):
            """A subclass (may override proper actions): not covered."""

        custom = Custom(WhileSymbolicMemory())
        assert make_summary_engine(prog, custom, cfg, events=bus) is None
        assert seen == [SummariesDisabled("state-model:Custom")]
        assert (
            make_summary_engine(
                prog, SymbolicStateModel(WhileSymbolicMemory()), cfg, events=bus
            )
            is not None
        )
        assert len(seen) == 1

    def test_subclassed_model_refusal_reaches_the_explorer_bus(self):
        class Custom(SymbolicStateModel):
            """A subclass (may override proper actions): not covered."""

        prog = prog_of(Proc("main", (), (Return(Lit(1)),)))
        bus, seen = recording_bus()
        explorer = Explorer(
            prog, Custom(WhileSymbolicMemory()), EngineConfig(summaries=True),
            events=bus,
        )
        assert explorer._summaries is None
        assert seen == [SummariesDisabled("state-model:Custom")]
        # Summaries off: nothing was refused, nothing is reported.
        Explorer(prog, Custom(WhileSymbolicMemory()), EngineConfig(), events=bus)
        assert len(seen) == 1

    def test_fault_injection_disables_summaries(self):
        prog = prog_of(Proc("main", (), (Return(Lit(1)),)))
        plan = FaultPlan.random(0, workers=1, max_step=3, kinds=("action",))
        cfg = EngineConfig(summaries=True, fault_plan=plan)
        explorer = Explorer(prog, SymbolicStateModel(WhileSymbolicMemory()), cfg)
        if explorer.faults is not None:
            assert explorer._summaries is None
        cfg = EngineConfig(summaries=True)
        explorer = Explorer(prog, SymbolicStateModel(WhileSymbolicMemory()), cfg)
        assert explorer._summaries is not None

    def test_fault_injection_refusal_is_reported(self):
        prog = prog_of(Proc("main", (), (Return(Lit(1)),)))
        plan = FaultPlan(action_faults=(ActionFault(0),))
        bus, seen = recording_bus()
        explorer = Explorer(
            prog, SymbolicStateModel(WhileSymbolicMemory()),
            EngineConfig(summaries=True, fault_plan=plan), events=bus,
        )
        assert explorer.faults is not None and explorer._summaries is None
        assert seen == [SummariesDisabled("fault-plan")]
        # A plan with no fault for this process installs no injector:
        # summaries run, and nothing is reported.
        quiet = FaultPlan(action_faults=(ActionFault(0, worker=3),))
        explorer = Explorer(
            prog, SymbolicStateModel(WhileSymbolicMemory()),
            EngineConfig(summaries=True, fault_plan=quiet), events=bus,
        )
        assert explorer._summaries is not None
        assert len(seen) == 1

    def test_summaries_off_by_default(self):
        prog = prog_of(Proc("main", (), (Return(Lit(1)),)))
        explorer = Explorer(prog, SymbolicStateModel(WhileSymbolicMemory()))
        assert explorer._summaries is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(summary_mode="sideways")
        with pytest.raises(ValueError):
            EngineConfig(summary_max_paths=0)


class TestProgramCopies:
    @staticmethod
    def run_suites(suites):
        """Every test of ``suites`` with summaries on, in order, from a
        cold summary cache: per-test finals digest and summary counters."""
        clear_summary_cache()
        cfg = EngineConfig(summaries=True)
        rows = []
        for language, prog, tests in suites:
            for entry in tests:
                sm = SymbolicStateModel(language.symbolic_memory())
                result = Explorer(prog, sm, cfg).run(entry)
                stats = result.stats
                rows.append((
                    entry,
                    digest(result),
                    stats.summary_hits,
                    stats.summary_misses,
                    stats.summary_build_commands,
                    stats.summary_replays,
                ))
        return rows

    def test_pickled_copy_runs_the_same(self, table_programs):
        # The copy's procedures and memories are new objects, so none of
        # the per-object memos (body facts, memory digests) filled by the
        # original's run can serve it.
        chosen = [
            (language, prog, tests)
            for label, language, prog, tests in table_programs
            if label in ("table1/bst", "table2/list")
        ]
        assert len(chosen) == 2
        copies = [
            (language, pickle.loads(pickle.dumps(prog)), tests)
            for language, prog, tests in chosen
        ]
        for (_, prog, _), (_, copy, _) in zip(chosen, copies):
            assert not any(copy.procs[n] is prog.procs[n] for n in prog.procs)
        original = self.run_suites(chosen)
        assert sum(row[-1] for row in original) > 0  # summaries replayed
        assert self.run_suites(copies) == original


class TestDynamicCallees:
    def test_dynamic_callee_resolved_and_served(self):
        prog = prog_of(
            PURE_HELPER,
            Proc("main", (), (
                ISym("x", "s0"),
                # The callee is a run-time value; the engine evaluates
                # it to the Lit name and still serves the call.
                Assignment("n", Lit("helper")),
                Call("r", PVar("n"), (PVar("x"),)),
                Return(PVar("r")),
            )),
        )
        base = digest(run(prog, summaries=False))
        result = run(prog, summaries=True)
        assert digest(result) == base
        assert result.stats.summary_replays > 0

    def test_unknown_proc_and_arity_fall_back(self):
        prog = prog_of(
            PURE_HELPER,
            Proc("main", (), (
                Call("a", Lit("missing"), ()),
                Return(PVar("a")),
            )),
        )
        base = digest(run(prog, summaries=False))
        assert digest(run(prog, summaries=True)) == base  # ERROR final

        arity = prog_of(
            PURE_HELPER,
            Proc("main", (), (
                Call("a", Lit("helper"), (Lit(1), Lit(2), Lit(3))),
                Return(PVar("a")),
            )),
        )
        base = digest(run(arity, summaries=False))
        assert digest(run(arity, summaries=True)) == base
