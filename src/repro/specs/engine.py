"""The summary engine: call-site interception for the GIL stepper.

The interpreter (:func:`repro.gil.semantics.step`) consults an attached
:class:`SummaryEngine` when the current command is a ``Call``.
:meth:`SummaryEngine.try_call` answers with the call's successor
configurations and finals (a *replay*), or ``None`` to fall back to
ordinary inline descent.  Only pure procedures are summarised; a call
to any other procedure is inline descent after one memoised purity
lookup, with no key, counter or event.

Replay is sound because a pure procedure's recorded values and deltas
depend only on its arguments, never on the caller's path condition π —
π only gates feasibility.  A summary is recorded from an entry
condition of ``true``; at a call site each recorded path's delta, with
the actual arguments substituted, is re-checked against the *caller's*
π (batched, through the state model's UNKNOWN policy, exactly like
``branch_on``), so the feasible subset replayed equals the subset
inline execution would have kept.  The differential fuzz arm asserts
the resulting finals multiset is identical summaries-on vs -off across
all worker counts.

Safety gates: summaries require the stock symbolic state model, and an
explorer with an installed fault injector never constructs an engine —
injected faults could corrupt a recorded summary and then replay the
corruption everywhere.  Both refusals emit a ``SummariesDisabled``
event.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.events import (
    SummariesDisabled,
    SummaryHit,
    SummaryMiss,
    SummaryReplay,
)
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
    engine_salt,
    is_pure,
    proc_hash,
    pure_key,
    spec_arg,
    static_callee,
)


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
    """Summarises pure procedures on first call and replays them thereafter.

    One engine serves one ``(prog, state model, config)`` triple; the
    summaries themselves live in the process-wide content-addressed
    cache (plus the optional disk store), so engines of a test suite
    warm each other.  Facts about the program are derived lazily, for
    the procedures a run actually calls, and memoised for the engine's
    life: transitive body hashes, purity verdicts, and the sub-run
    configuration.
    """

    def __init__(self, prog: Prog, sm, config, events=None) -> None:
        """Build the engine; see :func:`make_summary_engine` for gating."""
        self.prog = prog
        self.sm = sm
        self.config = config
        self.events = events
        self.mode = config.summary_mode
        self.counters = SummaryCounters()
        self._pure: dict = {}
        self._hash_memo: dict = {}
        self._sub_config = None
        self._salt = engine_salt(sm, config)
        self._cache = SummaryCache(config.summary_dir, on_corrupt=self._on_corrupt)

    # -- cache plumbing ------------------------------------------------------

    def _on_corrupt(self, key: str, reason: str) -> None:
        """A damaged disk entry was evicted (it will be recomputed)."""
        self.counters.corrupt_evictions += 1

    # -- the interception point ---------------------------------------------

    def try_call(self, state, stack, idx: int, cmd: Call):
        """Serve a ``Call`` from a summary, or ``None`` to run it inline.

        Returns ``(configs, finals)`` shaped exactly like a stepper's
        result: one successor configuration per feasible normal path
        (caller memory, allocation record and store intact, return
        variable bound) and one final per feasible error path.
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
        if not is_pure(self.prog, name, self._pure):
            return None  # impure: plain inline descent
        try:
            args = [sm.eval_expr(state, a) for a in cmd.args]
        except EvalError:
            return None

        key = pure_key(proc_hash(self.prog, name, self._hash_memo), self._salt)
        source = self._cache.source_of(key)
        summary = self._cache.get(key)
        if summary is not None and not summary.usable(self.mode):
            self._miss(name, "incomplete")
            return None
        if summary is None:
            self._miss(name, "cold" if source == "cold" else "corrupt")
            summary = self._summarize(name, proc, key)
            if not summary.usable(self.mode):
                return None
        else:
            self.counters.hits += 1
            if self.events:
                self.events.emit(SummaryHit(name, source, len(summary.paths)))
        return self._replay(summary, state, stack, idx, cmd.target, args)

    def _miss(self, name: str, reason: str) -> None:
        """Count and report one unanswered call site."""
        self.counters.misses += 1
        if self.events:
            self.events.emit(SummaryMiss(name, reason))

    # -- summarisation -------------------------------------------------------

    def _sub_explorer(self):
        """A bounded explorer for one summarisation run.

        The sub-run shares this engine (nested calls, all to pure
        procedures, replay from the cache; a pure procedure is never on
        a call cycle, so no run re-enters itself) but runs under the
        summarisation budgets, sequentially, with faults and the outer
        deadline stripped.  That configuration is built on the engine's
        first summarisation and reused for the rest.
        """
        from repro.engine.explorer import Explorer

        cfg = self._sub_config
        if cfg is None:
            cfg = self._sub_config = dataclasses.replace(
                self.config,
                summaries=False,
                fault_plan=None,
                fault_worker=None,
                fault_attempt=0,
                workers=1,
                deadline=None,
                max_paths=self.config.summary_max_paths,
                max_total_steps=self.config.summary_max_commands,
            )
        explorer = Explorer(self.prog, self.sm, cfg)
        explorer._summaries = self
        return explorer

    def _summarize(self, name: str, proc: Proc, key: str) -> Summary:
        """Execute ``proc`` once from a ``π = true`` pre-state and record it.

        The arguments are fresh canonical logical variables and the
        memory is empty, so the summary is independent of any caller's
        pre-state.
        """
        sm = self.sm
        binding = {p: spec_arg(i) for i, p in enumerate(proc.params)}
        entry = sm.set_store(sm.initial_state(), binding)
        result = self._sub_explorer().explore([Config(entry, (TopFrame(name),), 0)])
        self.counters.build_commands += result.stats.commands_executed
        summary = Summary(
            proc=name,
            params=proc.params,
            paths=tuple(
                SummaryPath(fin.kind, fin.value, fin.state.pc.conjuncts)
                for fin in result.finals
            ),
            # Complete = the sub-run drained with *every* path recorded:
            # no budget stop, no degraded solver decision, and no path
            # dropped (a path dropped at the depth bound still ends the
            # run "exhausted").
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

        Staging substitutes the arguments and conjoins each path's delta
        onto the caller's π; admission then feasibility-checks the
        extended conditions in one batched solver pass under the state
        model's UNKNOWN policy — the same flow as ``branch_on``, so
        degraded decisions count identically.
        """
        sm = self.sm
        env = {f"{SPEC_ARG_PREFIX}{i}": arg for i, arg in enumerate(args)}
        simplify = sm.simplifier.simplify
        staged = []  # (path, value, new_pc)
        pending: List[PathCondition] = []
        try:
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
            post = state.with_pc(new_pc)
            if path.kind is OutcomeKind.NORMAL:
                configs.append(Config(post.bind(ret_var, value), stack, idx + 1))
            else:
                finals.append(Final(post, OutcomeKind.ERROR, value))
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
    may override proper actions in ways a recorded summary would bypass
    (refused with a :class:`~repro.engine.events.SummariesDisabled`
    event), and concrete runs never branch, so inline execution is
    already optimal there (refused silently).
    """
    from repro.state.symbolic import SymbolicStateModel

    if type(sm) is not SymbolicStateModel:
        if events and isinstance(sm, SymbolicStateModel):
            events.emit(SummariesDisabled(f"state-model:{type(sm).__name__}"))
        return None
    return SummaryEngine(prog, sm, config, events=events)
