"""The summary engine: call-site interception for the GIL stepper.

The interpreter (:func:`repro.gil.semantics.step`) consults an attached
:class:`SummaryEngine` when the current command is a ``Call``.
:meth:`SummaryEngine.try_call` answers with the call's successor
configurations and finals (a *replay*), or ``None`` to fall back to
ordinary inline descent.

Replay is sound because a recorded path's values and memory never
depend on the caller's path condition π — π only gates feasibility.  A
summary is recorded from an entry condition of ``true``; at a call site
each recorded path's delta is re-checked against the *caller's* π
(batched, through the state model's UNKNOWN policy, exactly like
``branch_on``), so the feasible subset replayed equals the subset
inline execution would have kept.  The differential fuzz arm asserts
the resulting finals multiset is identical summaries-on vs -off across
all worker counts.

Safety gates: summaries require the stock symbolic state model, and an
explorer with an installed fault injector never constructs an engine —
injected faults could corrupt a recorded summary and then replay the
corruption everywhere.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType
from typing import List, Optional, Tuple

from repro.engine.events import SummaryHit, SummaryMiss, SummaryReplay
from repro.gil.ops import EvalError
from repro.gil.semantics import Config, Final, OutcomeKind, TopFrame
from repro.gil.syntax import Call, Proc, Prog
from repro.logic.expr import FALSE, TRUE, Expr, Lit, substitute_lvars
from repro.logic.pathcond import PathCondition
from repro.specs.cache import SummaryCache
from repro.specs.summary import (
    SPEC_ARG_PREFIX,
    Summary,
    SummaryPath,
    classify_pure,
    engine_salt,
    exact_key,
    proc_hash,
    pure_key,
    spec_arg,
    static_callee,
)
from repro.state.symbolic import SymbolicState

_NO_CONFIGS: tuple = ()
_NO_FINALS: tuple = ()


@dataclass
class SummaryCounters:
    """Running summary-activity counters for one engine.

    The explorer snapshots these per drive (like the solver stats and
    degradation counters) and folds the delta into
    :class:`~repro.engine.results.ExecutionStats`.
    """

    hits: int = 0
    misses: int = 0
    replays: int = 0
    commands_saved: int = 0
    build_commands: int = 0
    corrupt_evictions: int = 0

    def snapshot(self) -> Tuple[int, int, int, int, int]:
        """The stats-visible counters as one comparable tuple."""
        return (
            self.hits,
            self.misses,
            self.replays,
            self.commands_saved,
            self.build_commands,
        )


class SummaryEngine:
    """Summarises procedures on first call and replays them thereafter.

    One engine serves one ``(prog, state model, config)`` triple; the
    summaries themselves live in the process-wide content-addressed
    cache (plus the optional disk store), so engines of a test suite
    warm each other.
    """

    def __init__(self, prog: Prog, sm, config, events=None) -> None:
        """Build the engine; see :func:`make_summary_engine` for gating."""
        self.prog = prog
        self.sm = sm
        self.config = config
        self.events = events
        self.mode = getattr(config, "summary_mode", "verify")
        self.counters = SummaryCounters()
        self._pure = classify_pure(prog)
        self._hash_memo: dict = {}
        self._salt = engine_salt(sm, config)
        self._in_progress: set = set()
        self._cache = SummaryCache(
            getattr(config, "summary_dir", None), on_corrupt=self._on_corrupt
        )

    # -- cache plumbing ------------------------------------------------------

    def _on_corrupt(self, key: str, reason: str) -> None:
        """A damaged disk entry was evicted (it will be recomputed)."""
        self.counters.corrupt_evictions += 1

    # -- the interception point ---------------------------------------------

    def try_call(self, state, stack, idx: int, cmd: Call):
        """Serve a ``Call`` from a summary, or ``None`` to run it inline.

        Returns ``(configs, finals)`` shaped exactly like a stepper's
        result: one successor configuration per feasible normal path
        (caller store intact, return variable bound, post memory and
        allocation record applied) and one final per feasible error
        path.
        """
        sm = self.sm
        name = static_callee(cmd)
        if name is None:
            try:
                callee = sm.eval_expr(state, cmd.callee)
            except EvalError:
                return None
            if isinstance(callee, Lit) and isinstance(callee.value, str):
                name = callee.value
            elif isinstance(callee, str):
                name = callee
            else:
                return None
        proc = self.prog.get(name)
        if proc is None or len(cmd.args) != len(proc.params):
            return None  # inline descent reports the error final
        if name in self._in_progress:
            self._miss(name, "recursive")
            return None
        try:
            args = [sm.eval_expr(state, a) for a in cmd.args]
        except EvalError:
            return None

        phash = proc_hash(self.prog, name, self._hash_memo)
        if self._pure.get(name, False):
            tier = "pure"
            key = pure_key(phash, self._salt)
        else:
            tier = "exact"
            try:
                key = exact_key(phash, args, state.memory, state.alloc, self._salt)
            except Exception:
                return None  # unhashable pre-state: run inline
        source = self._cache.source_of(key)
        summary = self._cache.get(key)
        if summary is not None and not summary.usable(self.mode):
            self._miss(name, "incomplete")
            return None
        if summary is None:
            self._miss(name, "cold" if source == "cold" else "corrupt")
            summary = self._summarize(name, proc, tier, key, args, state)
            if summary is None or not summary.usable(self.mode):
                return None
        else:
            self.counters.hits += 1
            if self.events:
                self.events.emit(
                    SummaryHit(name, tier, source, len(summary.paths))
                )
        return self._replay(summary, state, stack, idx, cmd.target, args)

    def _miss(self, name: str, reason: str) -> None:
        """Count and report one unanswered call site."""
        self.counters.misses += 1
        if self.events:
            self.events.emit(SummaryMiss(name, reason))

    # -- summarisation -------------------------------------------------------

    def _sub_explorer(self):
        """A bounded explorer for one summarisation run.

        The sub-run shares this engine (nested calls replay from the
        cache; direct recursion is broken by the in-progress guard) but
        runs under the summarisation budgets, sequentially, with faults
        and the outer deadline stripped.
        """
        from repro.engine.explorer import Explorer

        cfg = dataclasses.replace(
            self.config,
            summaries=False,
            fault_plan=None,
            fault_worker=None,
            fault_attempt=0,
            workers=1,
            deadline=None,
            max_paths=getattr(self.config, "summary_max_paths", 512),
            max_total_steps=getattr(self.config, "summary_max_commands", 100_000),
        )
        explorer = Explorer(self.prog, self.sm, cfg)
        explorer._summaries = self
        return explorer

    def _summarize(
        self, name: str, proc: Proc, tier: str, key: str, args: List, state
    ) -> Optional[Summary]:
        """Execute ``proc`` once from a ``π = true`` pre-state and record it.

        Pure tier: fresh canonical logical variables as arguments, empty
        memory, fresh allocation record — the summary is pre-state
        independent.  Exact tier: the caller's memory and allocation
        record with the actual arguments — the recorded post-states are
        the very objects inline execution would produce, which is what
        keeps finals digests bit-identical.
        """
        sm = self.sm
        if tier == "pure":
            entry = sm.initial_state()
            binding = {p: spec_arg(i) for i, p in enumerate(proc.params)}
        else:
            entry = SymbolicState(
                state.memory, MappingProxyType({}), state.alloc, PathCondition.true()
            )
            binding = dict(zip(proc.params, args))
        entry = sm.set_store(entry, binding)
        self._in_progress.add(name)
        try:
            result = self._sub_explorer().explore(
                [Config(entry, (TopFrame(name),), 0)]
            )
        finally:
            self._in_progress.discard(name)
        self.counters.build_commands += result.stats.commands_executed

        paths = []
        for fin in result.finals:
            final_state = fin.state
            if tier == "pure":
                paths.append(
                    SummaryPath(fin.kind, fin.value, final_state.pc.conjuncts)
                )
            else:
                paths.append(
                    SummaryPath(
                        fin.kind,
                        fin.value,
                        final_state.pc.conjuncts,
                        final_state.memory,
                        final_state.alloc,
                        tuple(sorted(final_state.store.items())),
                    )
                )
        summary = Summary(
            proc=name,
            tier=tier,
            params=proc.params,
            paths=tuple(paths),
            # Complete = the sub-run drained with *every* path recorded:
            # no budget stop, no degraded solver decision, and no path
            # dropped (a max-paths eviction can drain the worklist and
            # still report "exhausted").
            complete=result.stats.stop_reason == "exhausted"
            and result.stats.incompleteness.clean
            and result.stats.paths_dropped == 0,
            commands=result.stats.commands_executed,
        )
        self._cache.put(key, summary)
        return summary

    # -- replay --------------------------------------------------------------

    def _replay(self, summary: Summary, state, stack, idx: int, ret_var: str, args):
        """Branch the caller on the summary's feasible paths.

        Staging substitutes arguments (pure tier) and conjoins each
        path's delta onto the caller's π; admission then feasibility-
        checks the extended conditions in one batched solver pass under
        the state model's UNKNOWN policy — the same flow as
        ``branch_on``, so degraded decisions count identically.
        """
        sm = self.sm
        staged = []  # (path, value, new_pc)
        pending: List[PathCondition] = []
        try:
            if summary.tier == "pure":
                env = {
                    f"{SPEC_ARG_PREFIX}{i}": arg for i, arg in enumerate(args)
                }
                simplify = sm.simplifier.simplify
                for path in summary.paths:
                    conjuncts = []
                    dead = False
                    for c in path.pc_delta:
                        s = simplify(substitute_lvars(c, env))
                        if s == FALSE:
                            dead = True
                            break
                        if s == TRUE:
                            continue
                        conjuncts.append(s)
                    if dead:
                        continue
                    value = path.value
                    if isinstance(value, Expr):
                        value = simplify(substitute_lvars(value, env))
                    new_pc = state.pc.conjoin_all(conjuncts)
                    if new_pc is not state.pc:
                        pending.append(new_pc)
                    staged.append((path, value, new_pc))
            else:
                for path in summary.paths:
                    new_pc = state.pc.conjoin_all(path.pc_delta)
                    if new_pc is not state.pc:
                        pending.append(new_pc)
                    staged.append((path, path.value, new_pc))
        except EvalError:
            return None  # ill-typed substitution: let inline execution report

        verdicts = iter(sm.solver.check_batch(pending))
        configs: List[Config] = []
        finals: List[Final] = []
        for path, value, new_pc in staged:
            if new_pc is not state.pc:
                verdict, timed_out = next(verdicts)
                if not sm._admit_verdict(new_pc, verdict, timed_out):
                    continue
            if summary.tier == "pure":
                post = state.with_pc(new_pc)
                if path.kind is OutcomeKind.NORMAL:
                    configs.append(
                        Config(post.bind(ret_var, value), stack, idx + 1)
                    )
                else:
                    finals.append(Final(post, OutcomeKind.ERROR, value))
            else:
                if path.kind is OutcomeKind.NORMAL:
                    post = SymbolicState(
                        path.memory, state.store, path.alloc, new_pc
                    ).bind(ret_var, value)
                    configs.append(Config(post, stack, idx + 1))
                else:
                    err_state = SymbolicState(
                        path.memory,
                        MappingProxyType(dict(path.store)),
                        path.alloc,
                        new_pc,
                    )
                    finals.append(Final(err_state, OutcomeKind.ERROR, value))
        self.counters.replays += 1
        self.counters.commands_saved += summary.commands
        if self.events:
            self.events.emit(
                SummaryReplay(
                    summary.proc,
                    len(summary.paths),
                    len(configs) + len(finals),
                    summary.commands,
                )
            )
        return tuple(configs), tuple(finals)


def make_summary_engine(prog: Prog, sm, config, events=None) -> Optional[SummaryEngine]:
    """A :class:`SummaryEngine` for ``sm``, or None when unsupported.

    Summaries cover exactly the stock symbolic state model: subclasses
    may override proper actions in ways a recorded summary would bypass,
    and concrete runs never branch, so inline execution is already
    optimal there.
    """
    from repro.state.symbolic import SymbolicStateModel

    if type(sm) is not SymbolicStateModel:
        return None
    return SummaryEngine(prog, sm, config, events=events)
