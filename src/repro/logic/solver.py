"""Gillian's first-order solver.

The OCaml Gillian discharges path conditions to Z3.  Z3 is not available in
this environment, so this module implements a from-scratch decision
procedure for the fragment the three instantiations generate:

* boolean structure (conjunction, disjunction, negation) — handled by
  NNF conversion and DPLL-style case splitting;
* equality and disequality over uninterpreted symbols, strings, booleans,
  numbers, and lists — handled by congruence closure (union-find);
* linear arithmetic over numeric logical variables — handled by exact,
  int-first interval propagation: linear forms, constants, interval
  endpoints, Fourier–Motzkin scales and difference-graph weights are
  ``int`` values whenever they are integral, because every quotient goes
  through one exact-quotient helper (:func:`_div`) that yields a
  ``Fraction`` only when the quotient is not integral; an unbounded
  interval endpoint is ``None``, never a large finite stand-in;
* everything else — handled by bounded, type-directed model search with
  *verification*: a model is only reported after every conjunct
  concretely evaluates to ``true`` under it.  The search assigns one
  variable per depth and checks each literal once, at the depth that
  assigns its last variable.

The solver is deliberately three-valued (:class:`SatResult`): ``SAT`` is
only returned with a verified model, and ``UNSAT`` only with a proof:

* a conjunct that simplifies to ``false``;
* a type conflict;
* a congruence contradiction;
* an empty interval;
* a difference-graph cycle of negative weight (or of zero weight through
  a strict edge);
* a disequality contradicting an equality the difference graph forces;
* a ground contradiction derived by a Fourier–Motzkin round;
* a disequality against a point interval;
* an integral atom whose finite domain the disequalities exhaust;
* a delta conjunct whose negation the prefix already holds (the
  incremental layer's ¬g shortcut).

``UNKNOWN`` is treated as "possibly satisfiable" by the engine when
filtering paths — which can at worst keep an infeasible path alive — and
as "no counter-model" by the bug reporter, preserving the paper's
no-false-positives guarantee (Theorem 3.6).

The solver cache (keyed by the frozenset of conjuncts) is the second of
the two engine improvements the paper credits for the 2× speed-up of
Gillian-JS over JaVerT 2.0 (§4.1); the ablation benchmark toggles it.

Incremental layer (this module's third speed lever)
---------------------------------------------------

Path conditions arrive as persistent prefix chains
(:class:`repro.logic.pathcond.PathCondition`): a child path is its parent
plus a handful of ``added`` conjuncts.  When ``incremental`` is enabled
the solver maintains a :class:`SolverContext` per prefix, carrying the
normalized conjunct list, the congruence-closure union-find, the variable
type bindings, and the last verified model *of that prefix*.  Checking a
child then costs only its delta:

* the delta conjuncts alone are simplified/flattened/deduplicated;
* an UNSAT parent makes every extension UNSAT (monotonicity of ∧);
* if the parent's verified model also satisfies the delta (after filling
  fresh variables with type-appropriate defaults), the child is SAT with
  that model — no search;
* otherwise the parent's union-find is cloned and only the delta literals
  are merged, the type environment is extended (not re-derived), and the
  remaining phases run over the combined literal list;
* any delta that would require case splitting (a disjunction) falls back
  to the monolithic solve, for that prefix and its descendants.

Prefix chains are cached in two maps: per prefix identity
(``PathCondition.uid``) and per (parent-context, added-conjuncts) pair,
so sibling paths re-deriving the same guard hit.  Conjunct lists — the
monolithic path of :meth:`Solver.entails`, counter-model enumeration,
concolic branch flips and the ``solver_incremental=False`` ablation —
are cached in one map, the frozenset cache keyed by the normalized
conjunct set, which the incremental layer neither reads nor writes.
Soundness is unchanged: UNSAT is still only produced with one of the
proofs above and SAT only with a model verified against every conjunct.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.gil.ops import EvalError, evaluate
from repro.gil.values import GilType, Symbol, Value
from repro.logic.expr import (
    FALSE,
    TRUE,
    BinOp,
    BinOpExpr,
    EList,
    Expr,
    Lit,
    LVar,
    UnOp,
    UnOpExpr,
    free_lvars,
    walk,
)
from repro.logic.pathcond import PathCondition
from repro.logic.simplify import Simplifier, shared_simplifier
from repro.logic.types import TypeConflict, collect_var_types


class SatResult(enum.Enum):
    """Three-valued verdict of a satisfiability query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class UnknownAbort(RuntimeError):
    """Raised by the engine when a branch's feasibility came back UNKNOWN
    under ``unknown_policy="abort"``.

    The exception is engine control flow, not an error: the scheduler
    catches it and ends the run with stop reason ``"unknown-abort"``.
    Defined here because the solver's three-valued verdict is what the
    policy interprets.
    """


class _OutOfGas(Exception):
    """Internal: the per-query step budget ran out mid-solve."""


@dataclass(frozen=True)
class SolverSnapshot:
    """An immutable capture of the attribution-relevant solver counters.

    Engine runs attribute solver work to themselves by snapshotting
    around each step and folding the delta into their own
    :class:`~repro.engine.results.ExecutionStats` — correct even when
    several explorers interleave over one shared solver, which the old
    run-level base-counter subtraction was not.
    """

    queries: int = 0
    cache_hits: int = 0
    prefix_hits: int = 0
    model_reuse_hits: int = 0
    solve_time: float = 0.0
    timeouts: int = 0
    #: per-phase wall clock (zero unless ``Solver(profile_phases=True)``)
    split_time: float = 0.0
    propagation_time: float = 0.0
    search_time: float = 0.0


@dataclass
class SolverStats:
    """Counters surfaced by the benchmark harness."""

    queries: int = 0
    #: list queries answered from the frozenset cache
    cache_hits: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    search_nodes: int = 0
    #: incremental-layer counters ------------------------------------------
    #: hits on an already-solved prefix (by uid or (parent, delta) key)
    prefix_hits: int = 0
    #: extensions decided by re-verifying the parent's model on the delta
    model_reuse_hits: int = 0
    #: extensions decided by UNSAT inheritance from the parent
    unsat_inherited: int = 0
    #: extensions solved by the delta (cloned union-find) pipeline
    incremental_solves: int = 0
    #: extensions that fell back to the monolithic pipeline
    monolithic_solves: int = 0
    #: :meth:`Solver.check_batch` invocations (sibling branch points
    #: decided in one pass).  Deliberately *not* part of
    #: :class:`SolverSnapshot`: how queries are grouped into batches
    #: depends on frontier partitioning, so folding it into per-run
    #: attribution would break worker-count invariance of merged stats.
    batch_calls: int = 0
    #: total wall time spent inside solve entry points, seconds
    solve_time: float = 0.0
    #: queries that exhausted the per-query step budget (or hit an
    #: injected timeout fault) and degraded to UNKNOWN
    timeouts: int = 0
    #: internal degradations survived with a fallback (e.g. a type
    #: conflict while completing a model over eliminated variables)
    degraded: int = 0
    #: per-phase wall clock inside the solve pipeline, seconds — boolean
    #: case splitting, interval propagation, and model search.  All zero
    #: unless the solver was built with ``profile_phases=True``; the
    #: three phases do not sum to ``solve_time`` (normalization, theory
    #: extension, and caching live outside them)
    split_time: float = 0.0
    propagation_time: float = 0.0
    search_time: float = 0.0

    def snapshot(self) -> SolverSnapshot:
        """The attribution counters, frozen at this instant."""
        return SolverSnapshot(
            queries=self.queries,
            cache_hits=self.cache_hits,
            prefix_hits=self.prefix_hits,
            model_reuse_hits=self.model_reuse_hits,
            solve_time=self.solve_time,
            timeouts=self.timeouts,
            split_time=self.split_time,
            propagation_time=self.propagation_time,
            search_time=self.search_time,
        )

    def delta(self, since: SolverSnapshot) -> SolverSnapshot:
        """Counter growth since an earlier :meth:`snapshot`."""
        return SolverSnapshot(
            queries=self.queries - since.queries,
            cache_hits=self.cache_hits - since.cache_hits,
            prefix_hits=self.prefix_hits - since.prefix_hits,
            model_reuse_hits=self.model_reuse_hits - since.model_reuse_hits,
            solve_time=self.solve_time - since.solve_time,
            timeouts=self.timeouts - since.timeouts,
            split_time=self.split_time - since.split_time,
            propagation_time=self.propagation_time - since.propagation_time,
            search_time=self.search_time - since.search_time,
        )


Model = Dict[str, Value]

_SPLIT_LIMIT = 256
_SEARCH_NODE_LIMIT = 20_000
_PROPAGATION_ROUNDS = 30


@dataclass
class SolverContext:
    """Solver state carried along one path-condition prefix.

    ``norm`` is the simplified/flattened/deduplicated conjunct tuple of the
    whole prefix (what the monolithic pipeline would have produced for it);
    ``literals`` / ``cc`` / ``var_types`` are the split-free theory state
    used to extend by a delta, or ``None`` once a prefix needed case
    splitting (from then on the chain solves monolithically).  ``model`` is
    a model verified against every conjunct of the prefix, kept so child
    extensions can try it on their delta first.
    """

    uid: int
    result: "SatResult"
    model: Optional[Model]
    norm: Tuple[Expr, ...] = ()
    norm_set: frozenset = frozenset()
    literals: Optional[Tuple[Expr, ...]] = None
    cc: Optional["_CongruenceClosure"] = None
    var_types: Optional[Dict[str, GilType]] = None
    #: True iff ``result`` is UNKNOWN *because* the step budget (or an
    #: injected fault) cut the solve short — preserved through the prefix
    #: cache so re-checks of the same prefix report the same provenance
    timed_out: bool = False


#: an exact number of the theory pass: an ``int`` whenever the value is
#: integral, a ``Fraction`` only when it is not
Num = Union[int, Fraction]


#: a linear literal ``coef·var + Σ others + const ⋈ 0`` as model search
#: uses it for ``var``: ``(forced, coef, const, others)``, where ``forced``
#: marks a positive equality
_Derivation = Tuple[bool, Num, Num, Tuple[Tuple[Expr, Num], ...]]


def _div(a: Num, b: Num) -> Num:
    """The exact quotient ``a / b``: an ``int`` when it is integral, else a
    ``Fraction`` (``int / int`` would round to a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def _exact(v: Union[int, float]) -> Num:
    """A GIL number as an exact :data:`Num` (floats to within 10⁻⁹)."""
    if type(v) is int:
        return v
    q = Fraction(v).limit_denominator(10**9)
    return q.numerator if q.denominator == 1 else q


@dataclass
class _Interval:
    """Bounds of one numeric atom; a ``None`` endpoint is unbounded."""

    lo: Optional[Num] = None
    hi: Optional[Num] = None
    lo_strict: bool = False
    hi_strict: bool = False

    def empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_strict or self.hi_strict)

    def tighten_lo(self, x: Num, strict: bool = False) -> bool:
        if self.lo is None or x > self.lo:
            self.lo, self.lo_strict = x, strict
            return True
        if x == self.lo and strict and not self.lo_strict:
            self.lo_strict = True
            return True
        return False

    def tighten_hi(self, x: Num, strict: bool = False) -> bool:
        if self.hi is None or x < self.hi:
            self.hi, self.hi_strict = x, strict
            return True
        if x == self.hi and strict and not self.hi_strict:
            self.hi_strict = True
            return True
        return False


class Solver:
    """Satisfiability of path conditions, with model finding.

    Parameters mirror the engine ablation: ``simplifier`` may be a disabled
    :class:`Simplifier` and ``cache_enabled`` toggles result caching.
    Engine entry points build theirs with :meth:`from_config`.
    """

    def __init__(
        self,
        simplifier: Optional[Simplifier] = None,
        cache_enabled: bool = True,
        incremental: bool = True,
        step_budget: Optional[int] = None,
        profile_phases: bool = False,
    ) -> None:
        self.simplifier = simplifier if simplifier is not None else Simplifier()
        self.cache_enabled = cache_enabled
        self.incremental = incremental
        #: per-query work budget in solver steps (split branches,
        #: propagation passes, model-search nodes); step-counted rather
        #: than wall-clock so budgeted runs stay deterministic.  None:
        #: unbounded (every answer is exactly as before the budget
        #: existed).  A query that runs out answers UNKNOWN and counts a
        #: timeout — the from-scratch analogue of Z3's per-query timeout
        #: and ``Unknown`` verdict.
        self.step_budget = step_budget
        self.stats = SolverStats()
        #: optional :class:`repro.engine.events.EventBus`; when truthy,
        #: every answered query emits a ``SolverQueryEvent``
        self.events = None
        #: optional :class:`repro.testing.faults.FaultInjector`; when set,
        #: consulted once per solved query to force deterministic timeouts
        self.faults = None
        #: remaining gas for the query in flight (None: unbudgeted)
        self._gas: Optional[int] = None
        #: whether the query in flight degraded via budget/fault timeout
        self._timed_out = False
        #: provenance of the last :meth:`check` answer: True iff it was
        #: UNKNOWN *because* the step budget (or an injected fault) cut
        #: the solve short, as opposed to the baseline incomplete-search
        #: UNKNOWN that exists without any budget.  Callers degrading
        #: their behaviour on timeouts (e.g. the state model's
        #: ``unknown_assumed`` accounting) read this right after check().
        self.last_timed_out = False
        #: list-query results by normalized conjunct set (the monolithic
        #: path only; prefix chains use the two maps below)
        self._cache: Dict[frozenset, Tuple[SatResult, Optional[Model]]] = {}
        #: conjunct-set keys whose cached UNKNOWN came from a timeout, so
        #: cache hits report the same provenance as the original solve
        self._timeout_keys: set = set()
        #: prefix contexts by PathCondition.uid
        self._contexts: Dict[int, SolverContext] = {}
        #: prefix contexts by (parent context uid, added conjunct tuple)
        self._prefix_cache: Dict[tuple, SolverContext] = {}
        self._root_context = SolverContext(
            uid=0,
            result=SatResult.SAT,
            model={},
            norm=(),
            norm_set=frozenset(),
            literals=(),
            cc=_CongruenceClosure(),
            var_types={},
        )
        #: attribute solve time to pipeline phases (split / propagation /
        #: search) in :class:`SolverStats` — off by default so the default
        #: path pays zero extra ``perf_counter`` calls.  Enabled by
        #: wrapping the phase entry points on *this instance*, which keeps
        #: every call site (monolithic and incremental) covered without
        #: per-call flag checks.
        self.profile_phases = profile_phases
        if profile_phases:
            self._split = self._timed_phase_gen(self._split, "split_time")
            self._propagate_intervals = self._timed_phase(
                self._propagate_intervals, "propagation_time"
            )
            self._search_model = self._timed_phase(
                self._search_model, "search_time"
            )

    @classmethod
    def from_config(cls, config) -> "Solver":
        """The solver an :class:`~repro.engine.config.EngineConfig`
        describes: every solver field honoured, on the process-wide
        simplifier of the configured flavour (pure, so its memo stays
        warm across the runs that share it)."""
        return cls(
            simplifier=shared_simplifier(True, config.simplifier_memoisation),
            cache_enabled=config.solver_cache,
            incremental=config.solver_incremental,
            step_budget=config.solver_step_budget,
            profile_phases=config.profile_solver_phases,
        )

    def _timed_phase(self, func, attr: str):
        """``func`` wrapped to accrue its wall time into ``stats.<attr>``."""

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                setattr(
                    self.stats,
                    attr,
                    getattr(self.stats, attr) + time.perf_counter() - start,
                )

        return timed

    def _timed_phase_gen(self, func, attr: str):
        """Like :meth:`_timed_phase` for a generator: only time actually
        spent producing items is charged, not the consumer's work between
        ``next`` calls (``_solve`` interleaves splitting with solving)."""

        def timed(*args, **kwargs):
            it = func(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    setattr(
                        self.stats,
                        attr,
                        getattr(self.stats, attr) + time.perf_counter() - start,
                    )
                yield item

        return timed

    # -- public API --------------------------------------------------------

    def check(self, pc: Union[PathCondition, Iterable[Expr]]) -> SatResult:
        """Three-valued satisfiability of the conjunction of ``pc``.

        A :class:`PathCondition` argument is solved through the incremental
        prefix-context layer (when enabled); any other iterable of
        conjuncts goes through the monolithic pipeline.
        """
        if self.incremental and isinstance(pc, PathCondition):
            ctx = self._ensure_context(pc)
            self.last_timed_out = ctx.timed_out
            return ctx.result
        result, _ = self._check_with_model(pc, want_model=False)
        self.last_timed_out = result is SatResult.UNKNOWN and self._timed_out
        return result

    def check_batch(
        self, pcs: Sequence[Union[PathCondition, Iterable[Expr]]]
    ) -> List[Tuple[SatResult, bool]]:
        """Feasibility of N sibling path conditions from one branch point.

        Every element of ``pcs`` extends the same parent (the branching
        state's path condition), so the shared parent prefix is resolved
        once up front and each sibling is then decided as a single delta
        extension of that context — one incremental pass over the branch
        point instead of N independent chain walks.

        Attribution is identical to N sequential :meth:`check` calls:
        each sibling emits its own ``SolverQueryEvent``, lands in the
        same stats tiers, and consumes fault/budget state in the same
        order.  The shared parent resolution neither emits events nor
        counts a prefix hit (matching the silent ancestor rebuilds of
        :meth:`_ensure_context`), so merged counters stay invariant in
        both batching and worker count.

        Returns ``(verdict, timed_out)`` per sibling; the flag carries
        the per-query provenance that :attr:`last_timed_out` would hold
        right after the corresponding sequential check.
        """
        if not pcs:
            return []
        self.stats.batch_calls += 1
        if self.incremental:
            for pc in pcs:
                if isinstance(pc, PathCondition) and pc.parent is not None:
                    if pc.parent.uid not in self._contexts:
                        self._ensure_context(pc.parent, emit=False)
                    break
        out: List[Tuple[SatResult, bool]] = []
        for pc in pcs:
            verdict = self.check(pc)
            out.append((verdict, self.last_timed_out))
        return out

    def is_sat(self, pc: Union[PathCondition, Iterable[Expr]]) -> bool:
        """Over-approximate satisfiability: UNKNOWN counts as SAT.

        This is the query the symbolic ``assume`` uses (paper Def. 2.6):
        keeping a path whose feasibility we cannot decide is sound for
        bug-finding because every reported bug is separately verified by a
        concrete counter-model.
        """
        return self.check(pc) is not SatResult.UNSAT

    def get_model(
        self, pc: Union[PathCondition, Iterable[Expr]]
    ) -> Optional[Model]:
        """A *verified* logical environment ε satisfying ``pc``, or None."""
        if self.incremental and isinstance(pc, PathCondition):
            ctx = self._ensure_context(pc)
            if ctx.result is not SatResult.SAT:
                return None
            if ctx.model is not None:
                # The context model covers the *normalised* conjuncts;
                # extend it over variables the simplifier eliminated from
                # the originals (and re-verify against them).
                completed = self._complete_model(
                    dict(ctx.model), list(pc.conjuncts)
                )
                if completed is not None:
                    return completed
            # SAT recorded without a usable model: retry monolithically
            # (mirrors the frozenset cache's want_model bypass).
            pc = pc.conjuncts
        result, model = self._check_with_model(pc, want_model=True)
        if result is SatResult.SAT:
            return model
        return None

    def entails(self, pc: Iterable[Expr], goal: Expr) -> bool:
        """``π ⊢ goal``: does the path condition entail the formula?

        Decided as UNSAT(π ∧ ¬goal); UNKNOWN means "not provably entailed".
        """
        conjuncts = list(pc) + [UnOpExpr(UnOp.NOT, goal)]
        return self.check(conjuncts) is SatResult.UNSAT

    # -- per-query work budget ----------------------------------------------

    def _begin_query(self) -> None:
        """Arm the step budget for one freshly-solved query."""
        self._gas = self.step_budget
        self._timed_out = False

    def _forced_timeout(self) -> bool:
        """True when fault injection demands this query time out."""
        return self.faults is not None and self.faults.solver_timeout()

    def _charge(self, amount: int = 1) -> None:
        """Spend budgeted solver work; deterministic because the units
        are solver steps (branches, propagation passes, search nodes),
        never wall clock."""
        if self._gas is None:
            return
        self._gas -= amount
        if self._gas < 0:
            raise _OutOfGas()

    def _emit_unknown(self, conjuncts: int, reason: Optional[str] = None) -> None:
        """Emit a ``SolverUnknownEvent`` for a freshly-degraded query."""
        if not self.events:
            return
        from repro.engine.events import SolverUnknownEvent

        self.events.emit(
            SolverUnknownEvent(
                reason=reason
                or ("timeout" if self._timed_out else "incomplete-search"),
                conjuncts=conjuncts,
                timed_out=self._timed_out,
            )
        )

    # -- incremental prefix contexts ----------------------------------------

    def _ensure_context(
        self, pc: PathCondition, emit: bool = True
    ) -> SolverContext:
        """The solved context of ``pc``, building missing ancestors first.

        ``emit=False`` suppresses the requested node's own event too —
        used when resolving a shared batch prefix, which must stay as
        invisible as the silent ancestor rebuilds below.
        """
        ctx = self._contexts.get(pc.uid)
        if ctx is not None:
            self.stats.prefix_hits += 1
            if self.events and emit:
                self._emit_query(ctx.result, len(ctx.norm), True, 0.0)
            return ctx
        # Walk up to the nearest solved ancestor (iterative: chains can be
        # as deep as the per-path step bound).
        chain: List[PathCondition] = []
        node: Optional[PathCondition] = pc
        ctx = None
        while node is not None:
            existing = self._contexts.get(node.uid)
            if existing is not None:
                ctx = existing
                break
            chain.append(node)
            node = node.parent
        if ctx is None:
            ctx = self._root_context
        # Only the *requested* node emits a SolverQueryEvent.  Ancestors
        # rebuilt along the way (a parallel worker re-solving the prefix
        # chain of a restored frontier item) are implementation detail:
        # emitting them would make event counts depend on how the frontier
        # was partitioned, breaking the one-event-per-check determinism
        # that metric aggregation across worker counts relies on.  Their
        # work still lands in ``stats`` (queries, solve_time).
        for n in reversed(chain):
            ctx = self._extend_context(ctx, n, emit=emit and n is pc)
        return ctx

    def _extend_context(
        self, parent: SolverContext, pc: PathCondition, emit: bool = True
    ) -> SolverContext:
        key = (parent.uid, pc.added)
        ctx = self._prefix_cache.get(key) if self.cache_enabled else None
        if ctx is not None:
            self.stats.prefix_hits += 1
            cached, elapsed = True, 0.0
        else:
            start = time.perf_counter()
            self._begin_query()
            try:
                ctx = self._solve_extension(parent, pc)
            finally:
                elapsed = time.perf_counter() - start
                self.stats.solve_time += elapsed
            cached = False
            if self.cache_enabled:
                self._prefix_cache[key] = ctx
        self._contexts[pc.uid] = ctx
        if emit and self.events:
            self._emit_query(ctx.result, len(ctx.norm), cached, elapsed)
            if ctx.result is SatResult.UNKNOWN and not cached:
                self._emit_unknown(len(ctx.norm))
        return ctx

    def _timeout_context(
        self, pc, norm, norm_set, live=(None, None, None)
    ) -> SolverContext:
        """The UNKNOWN context of a query that ran out of budget (or hit
        an injected timeout).  Theory state built before the timeout
        (``live``: literals, union-find, types) is kept so descendants
        can still extend incrementally."""
        self.stats.unknown += 1
        self.stats.timeouts += 1
        self._timed_out = True
        return SolverContext(
            pc.uid, SatResult.UNKNOWN, None, norm, norm_set, *live,
            timed_out=True,
        )

    def _solve_extension(
        self, parent: SolverContext, pc: PathCondition
    ) -> SolverContext:
        """Solve one chain extension: ``parent`` plus ``pc.added``."""
        # UNSAT is inherited: conjoining cannot recover satisfiability.
        if parent.result is SatResult.UNSAT:
            self.stats.queries += 1
            self.stats.unsat += 1
            self.stats.unsat_inherited += 1
            return SolverContext(
                uid=pc.uid, result=SatResult.UNSAT, model=None,
                norm=parent.norm, norm_set=parent.norm_set,
            )

        # 1. Normalize only the delta (simplify, flatten ∧, dedup against
        # the parent's normalized set).
        delta: List[Expr] = []
        seen: set = set()
        stack = list(pc.added)
        stack.reverse()
        while stack:
            e = self.simplifier.simplify(stack.pop())
            if e == TRUE:
                continue
            if e == FALSE:
                self.stats.queries += 1
                self.stats.unsat += 1
                return SolverContext(
                    uid=pc.uid, result=SatResult.UNSAT, model=None,
                    norm=parent.norm, norm_set=parent.norm_set,
                )
            if isinstance(e, BinOpExpr) and e.op is BinOp.AND:
                stack.append(e.right)
                stack.append(e.left)
                continue
            if e not in parent.norm_set and e not in seen:
                seen.add(e)
                delta.append(e)
        if not delta:
            # Nothing new: the child shares the parent's context outright.
            self.stats.prefix_hits += 1
            return parent

        self.stats.queries += 1
        norm = parent.norm + tuple(delta)
        norm_set = parent.norm_set | seen

        # Injected timeout: degrade before solving, like a Z3 deadline
        # firing on arrival.  Checked only for queries with real work —
        # trivial extensions (empty delta, inherited UNSAT) never consume
        # the fault's query counter.
        if self._forced_timeout():
            return self._timeout_context(pc, norm, norm_set)

        # Fast UNSAT: a delta conjunct whose negation is already in the
        # conjunction is an immediate contradiction — the shape every
        # re-branch on an already-decided guard produces (the path holds
        # ``g``, the false arm asks about ``¬g``).  O(delta) set probes
        # instead of a theory solve, and strictly more precise than the
        # search pipeline, which can time out into UNKNOWN on the same
        # pair.
        for d in delta:
            if type(d) is UnOpExpr and d.op is UnOp.NOT:
                neg = d.operand
            else:
                neg = self.simplifier.simplify(UnOpExpr(UnOp.NOT, d))
            if neg in norm_set:
                self.stats.unsat += 1
                self.stats.incremental_solves += 1
                return SolverContext(
                    uid=pc.uid, result=SatResult.UNSAT, model=None,
                    norm=norm, norm_set=norm_set,
                )

        # 2. Extend the split-free theory state by the delta (cloned
        # union-find, merged type bindings).  ``None`` means the chain
        # needs case splitting and solves monolithically from here on.
        theory = self._extend_theory(parent, delta)
        if theory is not None and theory[3]:
            # Type conflict or congruence contradiction: an UNSAT proof.
            self.stats.unsat += 1
            self.stats.incremental_solves += 1
            return SolverContext(
                uid=pc.uid, result=SatResult.UNSAT, model=None,
                norm=norm, norm_set=norm_set,
            )

        # 3. Model reuse: if the parent's verified model also satisfies the
        # delta (extending it over fresh variables), the child is SAT.
        live = theory[:3] if theory is not None else (None, None, None)
        model = self._reuse_model(parent, delta, theory)
        if model is not None:
            self.stats.sat += 1
            self.stats.model_reuse_hits += 1
            return SolverContext(
                pc.uid, SatResult.SAT, model, norm, norm_set, *live
            )

        # 4. Solve: delta pipeline over the combined literal list when the
        # chain is split-free, else the monolithic pipeline.
        try:
            if theory is not None:
                literals, cc, var_types, _ = theory
                result, model = self._solve_theory_literals(
                    list(literals), list(norm), var_types, cc
                )
                self.stats.incremental_solves += 1
            else:
                result, model = self._solve(list(norm))
                self.stats.monolithic_solves += 1
        except _OutOfGas:
            return self._timeout_context(pc, norm, norm_set, live)
        if result is SatResult.SAT and model is not None:
            model = self._complete_model(model, list(norm))
        if result is SatResult.SAT:
            self.stats.sat += 1
        elif result is SatResult.UNSAT:
            self.stats.unsat += 1
        else:
            self.stats.unknown += 1
        return SolverContext(pc.uid, result, model, norm, norm_set, *live)

    def _extend_theory(self, parent: SolverContext, delta: List[Expr]):
        """Extend the parent's theory state by the delta conjuncts.

        Returns ``(literals, cc, var_types, unsat)`` — with ``unsat`` True
        when the extension itself proves a contradiction — or ``None`` when
        the parent has no live theory state or a delta conjunct requires
        case splitting.
        """
        if parent.literals is None:
            return None
        delta_lits: List[Expr] = []
        for c in delta:
            lits = self._literals_of(c)
            if lits is None:
                return None
            delta_lits.extend(lits)
        literals = parent.literals + tuple(delta_lits)
        if any(lit == FALSE for lit in delta_lits):
            return (literals, None, None, True)
        try:
            var_types = collect_var_types(
                delta_lits, env=dict(parent.var_types)
            )
        except TypeConflict:
            return (literals, None, None, True)
        cc = parent.cc.clone()
        for lit in delta_lits:
            if isinstance(lit, BinOpExpr) and lit.op is BinOp.EQ:
                cc.merge(lit.left, lit.right)
            elif (
                isinstance(lit, UnOpExpr)
                and lit.op is UnOp.NOT
                and isinstance(lit.operand, BinOpExpr)
                and lit.operand.op is BinOp.EQ
            ):
                cc.assert_distinct(lit.operand.left, lit.operand.right)
        if not cc.consistent():
            return (literals, cc, var_types, True)
        return (literals, cc, var_types, False)

    def _reuse_model(
        self, parent: SolverContext, delta: List[Expr], theory
    ) -> Optional[Model]:
        """The parent's model extended over the delta, if it satisfies it.

        Fresh variables (mentioned by the delta but absent from the model)
        get type-appropriate defaults; they cannot occur in the parent's
        conjuncts, so the extension stays a verified model of the whole
        prefix whenever every delta conjunct evaluates to true.
        """
        if parent.model is None:
            return None
        missing: set = set()
        for c in delta:
            missing |= free_lvars(c)
        missing -= parent.model.keys()
        model = parent.model
        if missing:
            var_types = theory[2] if theory is not None else None
            if var_types is None:
                try:
                    var_types = collect_var_types(delta)
                except TypeConflict:
                    # Ill-typed delta: fall back to untyped defaults; the
                    # candidate model is still verified against every
                    # conjunct below, so this only costs precision.
                    self.stats.degraded += 1
                    self._emit_unknown(len(delta), reason="model-completion")
                    var_types = {}
            defaults = {
                GilType.NUMBER: 0,
                GilType.STRING: "",
                GilType.BOOLEAN: True,
                GilType.LIST: (0, 0, 0),
                GilType.SYMBOL: Symbol("fresh_default"),
            }
            model = dict(model)
            for name in missing:
                model[name] = defaults.get(
                    var_types.get(name, GilType.NUMBER), 0
                )
        for c in delta:
            try:
                if evaluate(c, lvar_env=model) is not True:
                    return None
            except EvalError:
                return None
        return model

    def _literals_of(self, e: Expr) -> Optional[List[Expr]]:
        """The theory literals of a split-free conjunct, or None.

        Mirrors exactly what :meth:`_split` does to a conjunct on the
        single branch it produces when no disjunction is present, so the
        incremental literal list matches the monolithic one.
        """
        out: List[Expr] = []
        pending = [e]
        while pending:
            x = self.simplifier.simplify(pending.pop())
            if x == TRUE:
                continue
            if x == FALSE:
                out.append(FALSE)
                continue
            if isinstance(x, BinOpExpr) and x.op is BinOp.AND:
                pending.append(x.right)
                pending.append(x.left)
                continue
            if isinstance(x, BinOpExpr) and x.op is BinOp.OR:
                return None
            if isinstance(x, UnOpExpr) and x.op is UnOp.NOT:
                inner = self.simplifier.simplify(x.operand)
                if isinstance(inner, BinOpExpr) and inner.op is BinOp.AND:
                    return None  # ¬(a ∧ b) is a disjunction
                if isinstance(inner, BinOpExpr) and inner.op is BinOp.OR:
                    pending.append(UnOpExpr(UnOp.NOT, inner.right))
                    pending.append(UnOpExpr(UnOp.NOT, inner.left))
                    continue
                if isinstance(inner, UnOpExpr) and inner.op is UnOp.NOT:
                    pending.append(inner.operand)
                    continue
                if isinstance(inner, LVar):
                    out.append(BinOpExpr(BinOp.EQ, inner, FALSE))
                    continue
                out.append(UnOpExpr(UnOp.NOT, inner))
                continue
            if isinstance(x, LVar):
                out.append(BinOpExpr(BinOp.EQ, x, TRUE))
                continue
            if isinstance(x, BinOpExpr) and x.op is BinOp.EQ:
                reduced = self._reduce_bool_eq(x)
                if reduced is not None:
                    pending.append(reduced)
                    continue
            out.append(x)
        return out

    def _solve_theory_literals(
        self,
        literals: List[Expr],
        norm: List[Expr],
        var_types: Dict[str, GilType],
        cc: "_CongruenceClosure",
    ) -> Tuple[SatResult, Optional[Model]]:
        """Phases 3–4 of :meth:`_solve_literals` on pre-extended state."""
        intervals = self._propagate_intervals(literals, cc)
        if intervals is None:
            return SatResult.UNSAT, None
        if self._diseq_point_conflict(literals, intervals):
            return SatResult.UNSAT, None
        if self._integral_domain_exhausted(literals, intervals):
            return SatResult.UNSAT, None
        model = self._search_model(literals, norm, var_types, cc, intervals)
        if model is not None:
            return SatResult.SAT, model
        return SatResult.UNKNOWN, None

    # -- core ---------------------------------------------------------------

    def _emit_query(
        self, result: SatResult, conjuncts: int, cached: bool, elapsed: float
    ) -> None:
        from repro.engine.events import SolverQueryEvent

        self.events.emit(
            SolverQueryEvent(
                result=result.name,
                conjuncts=conjuncts,
                cached=cached,
                time=elapsed,
            )
        )

    def _check_with_model(
        self, pc: Iterable[Expr], want_model: bool
    ) -> Tuple[SatResult, Optional[Model]]:
        pc = list(pc)
        start = time.perf_counter()
        hits_before = self.stats.cache_hits
        try:
            result, model = self._check_with_model_timed(pc, want_model)
        finally:
            elapsed = time.perf_counter() - start
            self.stats.solve_time += elapsed
        cached = self.stats.cache_hits > hits_before
        if self.events:
            self._emit_query(result, len(pc), cached, elapsed)
            if result is SatResult.UNKNOWN and not cached:
                self._emit_unknown(len(pc))
        return result, model

    def _check_with_model_timed(
        self, pc: Iterable[Expr], want_model: bool
    ) -> Tuple[SatResult, Optional[Model]]:
        self._timed_out = False
        original = list(pc)
        conjuncts = self._normalise(original)
        if conjuncts is None:
            return SatResult.UNSAT, None
        self.stats.queries += 1
        key = frozenset(conjuncts)
        if self.cache_enabled:
            cached = self._cache.get(key)
            if cached is not None and (cached[1] is not None or not want_model):
                self.stats.cache_hits += 1
                self._timed_out = key in self._timeout_keys
                return cached
        self._begin_query()
        try:
            if self._forced_timeout():
                raise _OutOfGas()
            result, model = self._solve(conjuncts)
        except _OutOfGas:
            self.stats.unknown += 1
            self.stats.timeouts += 1
            self._timed_out = True
            if self.cache_enabled:
                self._cache[key] = (SatResult.UNKNOWN, None)
                self._timeout_keys.add(key)
            return SatResult.UNKNOWN, None
        if result is SatResult.SAT and model is not None:
            model = self._complete_model(model, original)
        if result is SatResult.SAT:
            self.stats.sat += 1
        elif result is SatResult.UNSAT:
            self.stats.unsat += 1
        else:
            self.stats.unknown += 1
        if self.cache_enabled:
            self._cache[key] = (result, model)
        return result, model

    def _complete_model(self, model: Model, original: List[Expr]) -> Optional[Model]:
        """Extend ``model`` over every variable of the *original* conjuncts.

        Simplification may eliminate variables (e.g. ``x ≤ x``); the model
        is extended with type-appropriate defaults — sound because an
        eliminated variable cannot affect the truth of the simplified
        (equivalent) conjuncts — and then re-verified against the original
        conjuncts.  Returns None (no usable model) if verification fails.
        """
        missing = set()
        for c in original:
            missing |= free_lvars(c)
        missing -= model.keys()
        if missing:
            from repro.logic.types import collect_var_types

            try:
                var_types = collect_var_types(original)
            except TypeConflict:
                # Ill-typed originals: untyped defaults, then re-verify —
                # degraded (the model may fail verification) but never
                # silent and never unsound.
                self.stats.degraded += 1
                self._emit_unknown(len(original), reason="model-completion")
                var_types = {}
            defaults = {
                GilType.NUMBER: 0,
                GilType.STRING: "",
                GilType.BOOLEAN: True,
                GilType.LIST: (0, 0, 0),
                GilType.SYMBOL: Symbol("fresh_default"),
            }
            model = dict(model)
            for name in missing:
                model[name] = defaults.get(var_types.get(name, GilType.NUMBER), 0)
        return model if self._verify(original, model) else None

    def _normalise(self, pc: Iterable[Expr]) -> Optional[List[Expr]]:
        """Simplify and flatten (in conjunct order); None means a literal
        ``false`` appeared."""
        out: List[Expr] = []
        stack = list(pc)
        stack.reverse()
        while stack:
            e = self.simplifier.simplify(stack.pop())
            if e == TRUE:
                continue
            if e == FALSE:
                return None
            if isinstance(e, BinOpExpr) and e.op is BinOp.AND:
                stack.append(e.right)
                stack.append(e.left)
                continue
            out.append(e)
        # Deduplicate, preserving order.
        seen = set()
        unique = []
        for e in out:
            if e not in seen:
                seen.add(e)
                unique.append(e)
        return unique

    def _solve(
        self, conjuncts: List[Expr]
    ) -> Tuple[SatResult, Optional[Model]]:
        if not conjuncts:
            return SatResult.SAT, {}
        saw_unknown = False
        for literals in self._split(conjuncts, _SPLIT_LIMIT):
            result, model = self._solve_literals(literals, conjuncts)
            if result is SatResult.SAT:
                return SatResult.SAT, model
            if result is SatResult.UNKNOWN:
                saw_unknown = True
        if saw_unknown:
            return SatResult.UNKNOWN, None
        return SatResult.UNSAT, None

    # -- boolean structure --------------------------------------------------

    def _split(
        self, conjuncts: Sequence[Expr], limit: int
    ) -> Iterable[List[Expr]]:
        """Lazy DNF: yield lists of theory literals covering ``conjuncts``.

        Conjuncts are processed in order (the pending list is a stack of
        the *reversed* remainder), so on a split-free input the single
        branch's literals line up with what the incremental layer builds
        by concatenating per-conjunct :meth:`_literals_of` results.
        """
        branches: List[Tuple[List[Expr], List[Expr]]] = [
            ([], list(reversed(list(conjuncts))))
        ]
        produced = 0
        while branches:
            literals, pending = branches.pop()
            dead = False
            while pending:
                e = self.simplifier.simplify(pending.pop())
                if e == TRUE:
                    continue
                if e == FALSE:
                    dead = True
                    break
                if isinstance(e, BinOpExpr) and e.op is BinOp.AND:
                    pending.append(e.right)
                    pending.append(e.left)
                    continue
                if isinstance(e, BinOpExpr) and e.op is BinOp.OR:
                    if produced + len(branches) >= limit:
                        # Give up splitting: keep as opaque literal; the
                        # model search still evaluates it faithfully.
                        literals.append(e)
                        continue
                    self._charge()
                    branches.append((list(literals), pending + [e.right]))
                    pending.append(e.left)
                    continue
                if isinstance(e, UnOpExpr) and e.op is UnOp.NOT:
                    inner = self.simplifier.simplify(e.operand)
                    if isinstance(inner, BinOpExpr) and inner.op is BinOp.AND:
                        pending.append(
                            BinOpExpr(
                                BinOp.OR,
                                UnOpExpr(UnOp.NOT, inner.left),
                                UnOpExpr(UnOp.NOT, inner.right),
                            )
                        )
                        continue
                    if isinstance(inner, BinOpExpr) and inner.op is BinOp.OR:
                        pending.append(UnOpExpr(UnOp.NOT, inner.right))
                        pending.append(UnOpExpr(UnOp.NOT, inner.left))
                        continue
                    if isinstance(inner, UnOpExpr) and inner.op is UnOp.NOT:
                        pending.append(inner.operand)
                        continue
                    if isinstance(inner, LVar):
                        literals.append(BinOpExpr(BinOp.EQ, inner, FALSE))
                        continue
                    literals.append(UnOpExpr(UnOp.NOT, inner))
                    continue
                if isinstance(e, LVar):
                    literals.append(BinOpExpr(BinOp.EQ, e, TRUE))
                    continue
                if isinstance(e, BinOpExpr) and e.op is BinOp.EQ:
                    reduced = self._reduce_bool_eq(e)
                    if reduced is not None:
                        pending.append(reduced)
                        continue
                literals.append(e)
            if not dead:
                produced += 1
                yield literals

    @staticmethod
    def _reduce_bool_eq(e: BinOpExpr) -> Optional[Expr]:
        """Rewrite ``φ = true`` / ``φ = false`` when φ is boolean-structured."""
        def is_formula(x: Expr) -> bool:
            return (
                isinstance(x, UnOpExpr)
                and x.op is UnOp.NOT
                or isinstance(x, BinOpExpr)
                and x.op in (BinOp.AND, BinOp.OR, BinOp.LT, BinOp.LEQ, BinOp.EQ)
            )

        for side, other in ((e.left, e.right), (e.right, e.left)):
            if isinstance(other, Lit) and other.value is True and is_formula(side):
                return side
            if isinstance(other, Lit) and other.value is False and is_formula(side):
                return UnOpExpr(UnOp.NOT, side)
        return None

    # -- theory reasoning on a literal set ----------------------------------

    def _solve_literals(
        self, literals: List[Expr], original: List[Expr]
    ) -> Tuple[SatResult, Optional[Model]]:
        # 1. Typing: a conflict proves UNSAT of this branch.
        try:
            var_types = collect_var_types(literals)
        except TypeConflict:
            return SatResult.UNSAT, None

        # 2. Congruence closure over equalities/disequalities.
        cc = _CongruenceClosure()
        for lit in literals:
            if isinstance(lit, BinOpExpr) and lit.op is BinOp.EQ:
                cc.merge(lit.left, lit.right)
            elif (
                isinstance(lit, UnOpExpr)
                and lit.op is UnOp.NOT
                and isinstance(lit.operand, BinOpExpr)
                and lit.operand.op is BinOp.EQ
            ):
                cc.assert_distinct(lit.operand.left, lit.operand.right)
        if not cc.consistent():
            return SatResult.UNSAT, None

        # 3. Interval propagation over the numeric atoms.
        intervals = self._propagate_intervals(literals, cc)
        if intervals is None:
            return SatResult.UNSAT, None

        # 3b. Disequalities against point intervals: ``x ≠ e`` is refuted
        # when the propagated interval of (x - e) is the single point 0.
        if self._diseq_point_conflict(literals, intervals):
            return SatResult.UNSAT, None

        # 3c. Integral domain exhaustion: an integer-valued atom whose
        # finite interval is fully excluded by disequalities has no value.
        if self._integral_domain_exhausted(literals, intervals):
            return SatResult.UNSAT, None

        # 4. Model search, verified against the *original* conjuncts.
        model = self._search_model(literals, original, var_types, cc, intervals)
        if model is not None:
            return SatResult.SAT, model
        return SatResult.UNKNOWN, None

    @staticmethod
    def _integral_atoms(literals: List[Expr], atoms) -> set:
        """Atoms known to take integer values.

        ``floor(x) = x`` (the idiom behind ``symb_int()`` / ``is_int``),
        string/list lengths, and ``floor``/``mod`` applications are
        integral; their interval bounds may be rounded inward.
        """
        integral = set()
        for atom in atoms:
            if isinstance(atom, UnOpExpr) and atom.op in (
                UnOp.STRLEN,
                UnOp.LSTLEN,
                UnOp.FLOOR,
            ):
                integral.add(atom)
            if isinstance(atom, BinOpExpr) and atom.op is BinOp.MOD:
                integral.add(atom)
        for lit in literals:
            if isinstance(lit, BinOpExpr) and lit.op is BinOp.EQ:
                for a, b in ((lit.left, lit.right), (lit.right, lit.left)):
                    if (
                        isinstance(a, UnOpExpr)
                        and a.op is UnOp.FLOOR
                        and a.operand == b
                    ):
                        integral.add(b)
        return integral

    @staticmethod
    def _tighten_integral(iv: _Interval) -> bool:
        """Round an integral atom's bounds inward; strict becomes closed."""
        changed = False
        if iv.lo is not None:
            new_lo = _ceil(iv.lo)
            if iv.lo_strict and new_lo == iv.lo:
                new_lo += 1
            if new_lo != iv.lo or iv.lo_strict:
                iv.lo, iv.lo_strict = new_lo, False
                changed = True
        if iv.hi is not None:
            new_hi = _floor(iv.hi)
            if iv.hi_strict and new_hi == iv.hi:
                new_hi -= 1
            if new_hi != iv.hi or iv.hi_strict:
                iv.hi, iv.hi_strict = new_hi, False
                changed = True
        return changed

    def _integral_domain_exhausted(
        self, literals: List[Expr], intervals: Dict[Expr, _Interval]
    ) -> bool:
        integral = self._integral_atoms(literals, set(intervals))
        if not integral:
            return False
        # Excluded concrete values per atom, from ``¬(x = c)`` literals.
        excluded: Dict[Expr, set] = {}
        for lit in literals:
            if not (
                isinstance(lit, UnOpExpr)
                and lit.op is UnOp.NOT
                and isinstance(lit.operand, BinOpExpr)
                and lit.operand.op is BinOp.EQ
            ):
                continue
            lf = _linear_form(
                BinOpExpr(BinOp.SUB, lit.operand.left, lit.operand.right)
            )
            if lf is None:
                continue
            coefs, const = lf
            if len(coefs) != 1:
                continue
            ((atom, coef),) = coefs.items()
            excluded.setdefault(atom, set()).add(_div(-const, coef))
        for atom in integral:
            iv = intervals.get(atom)
            if iv is None or iv.lo is None or iv.hi is None:
                continue
            lo, hi = _ceil(iv.lo), _floor(iv.hi)
            if hi - lo > 64:
                continue
            banned = excluded.get(atom, set())
            if all(k in banned for k in range(lo, hi + 1)):
                return True
        return False

    @staticmethod
    def _diseq_point_conflict(
        literals: List[Expr], intervals: Dict[Expr, _Interval]
    ) -> bool:
        for lit in literals:
            if not (
                isinstance(lit, UnOpExpr)
                and lit.op is UnOp.NOT
                and isinstance(lit.operand, BinOpExpr)
                and lit.operand.op is BinOp.EQ
            ):
                continue
            lf = _linear_form(
                BinOpExpr(BinOp.SUB, lit.operand.left, lit.operand.right)
            )
            if lf is None:
                continue
            coefs, const = lf
            lo = hi = const
            determinate = True
            for atom, c in coefs.items():
                iv = intervals.get(atom)
                if (
                    iv is None
                    or iv.lo is None
                    or iv.lo != iv.hi
                    or iv.lo_strict
                    or iv.hi_strict
                ):
                    determinate = False
                    break
                lo += c * iv.lo
                hi += c * iv.hi
            if determinate and lo == 0 and hi == 0:
                return True
        return False

    # -- linear arithmetic ---------------------------------------------------

    def _propagate_intervals(
        self, literals: List[Expr], cc: "_CongruenceClosure"
    ) -> Optional[Dict[Expr, _Interval]]:
        constraints: List[Tuple[Dict[Expr, Num], str, Num]] = []

        def add(e: Expr, op: str) -> None:
            lf = _linear_form(e)
            if lf is None:
                return
            coefs, const = lf
            if not coefs:
                # Ground: check immediately.
                ok = {
                    "<=": const <= 0,
                    "<": const < 0,
                    "==": const == 0,
                }[op]
                if not ok:
                    constraints.append(({}, "unsat", 0))
                return
            constraints.append((coefs, op, -const))

        for lit in literals:
            if isinstance(lit, BinOpExpr):
                if lit.op is BinOp.LT:
                    add(BinOpExpr(BinOp.SUB, lit.left, lit.right), "<")
                elif lit.op is BinOp.LEQ:
                    add(BinOpExpr(BinOp.SUB, lit.left, lit.right), "<=")
                elif lit.op is BinOp.EQ:
                    lf = _linear_form(BinOpExpr(BinOp.SUB, lit.left, lit.right))
                    if lf is not None:
                        coefs, const = lf
                        if coefs:
                            constraints.append((coefs, "==", -const))
                        elif const != 0:
                            return None

        # Atoms mentioned only in *disequalities* still need intervals and
        # built-in facts (the domain-exhaustion check relies on them).
        diseq_atoms = set()
        for lit in literals:
            if (
                isinstance(lit, UnOpExpr)
                and lit.op is UnOp.NOT
                and isinstance(lit.operand, BinOpExpr)
                and lit.operand.op is BinOp.EQ
            ):
                lf = _linear_form(
                    BinOpExpr(BinOp.SUB, lit.operand.left, lit.operand.right)
                )
                if lf is not None:
                    diseq_atoms |= set(lf[0])

        # Non-negative built-ins: lengths are ≥ 0; ``x % n`` with a literal
        # positive modulus lies in [0, n-1].
        atoms = {a for coefs, _, _ in constraints for a in coefs} | diseq_atoms
        for atom in atoms:
            if isinstance(atom, UnOpExpr) and atom.op in (UnOp.STRLEN, UnOp.LSTLEN):
                constraints.append(({atom: -1}, "<=", 0))
            if (
                isinstance(atom, BinOpExpr)
                and atom.op is BinOp.MOD
                and isinstance(atom.right, Lit)
                and isinstance(atom.right.value, (int, float))
                and not isinstance(atom.right.value, bool)
                and atom.right.value > 0
            ):
                n = int(atom.right.value)
                constraints.append(({atom: -1}, "<=", 0))
                constraints.append(({atom: 1}, "<=", n - 1))
                # Relate the remainder to its operand through the integral
                # quotient: m = x - n·⌊x/n⌋.  This is what lets interval
                # reasoning see through circular-buffer indexing.
                left_form = _linear_form(atom.left)
                if left_form is not None:
                    quotient = UnOpExpr(
                        UnOp.FLOOR, BinOpExpr(BinOp.DIV, atom.left, atom.right)
                    )
                    coefs: Dict[Expr, Num] = {atom: 1}
                    coefs[quotient] = coefs.get(quotient, 0) + n
                    for a, c in left_form[0].items():
                        coefs[a] = coefs.get(a, 0) - c
                        if coefs[a] == 0:
                            del coefs[a]
                    constraints.append((coefs, "==", left_form[1]))

        # Seed with values the congruence closure has already pinned down:
        # e.g. ``x = y ∧ y = 5`` makes the interval of x the point [5, 5].
        for atom in list(atoms):
            known = cc.known_value(atom)
            if (
                known is not None
                and isinstance(known, (int, float))
                and not isinstance(known, bool)
            ):
                constraints.append(({atom: 1}, "==", _exact(known)))

        if any(op == "unsat" for _, op, _ in constraints):
            return None

        if _difference_analysis_unsat(constraints, literals):
            return None

        # One bounded Fourier–Motzkin round: combining constraint pairs
        # that cancel a variable derives bounds interval propagation can
        # use (e.g. ``x = 2y ∧ x - y ≥ 11`` yields ``y ≥ 11``).
        constraints.extend(_fourier_motzkin_round(constraints))
        if any(op == "unsat" for _, op, _ in constraints):
            return None

        # Derived constraints (mod/quotient relations) introduce new atoms.
        atoms = {a for coefs, _, _ in constraints for a in coefs}
        integral = self._integral_atoms(literals, atoms)

        intervals: Dict[Expr, _Interval] = {a: _Interval() for a in atoms}
        for _ in range(_PROPAGATION_ROUNDS):
            # One propagation pass over every constraint is one budget
            # step per constraint (bounded, deterministic work units).
            self._charge(len(constraints) + 1)
            changed = False
            for atom in integral:
                iv = intervals.get(atom)
                if iv is not None and self._tighten_integral(iv):
                    changed = True
                if iv is not None and iv.empty():
                    return None
            for coefs, op, rhs in constraints:
                for target, ct in coefs.items():
                    # ct * target ⋈ rhs - Σ_{a≠target} ca * a; a residual
                    # bound fed by an unbounded endpoint is itself
                    # unbounded (None)
                    residual_lo = residual_hi = rhs
                    for a, ca in coefs.items():
                        if a is target:
                            continue
                        iv = intervals[a]
                        lo, hi = (iv.lo, iv.hi) if ca > 0 else (iv.hi, iv.lo)
                        if residual_lo is not None:
                            residual_lo = None if hi is None else residual_lo - ca * hi
                        if residual_hi is not None:
                            residual_hi = None if lo is None else residual_hi - ca * lo
                    iv = intervals[target]
                    if residual_hi is not None:
                        # ct * target <= residual_hi
                        strict = op == "<"
                        if ct > 0:
                            changed |= iv.tighten_hi(_div(residual_hi, ct), strict)
                        else:
                            changed |= iv.tighten_lo(_div(residual_hi, ct), strict)
                    if op == "==" and residual_lo is not None:
                        # ct * target >= residual_lo
                        if ct > 0:
                            changed |= iv.tighten_lo(_div(residual_lo, ct))
                        else:
                            changed |= iv.tighten_hi(_div(residual_lo, ct))
                    if iv.empty():
                        return None
            if not changed:
                break

        # Strict-inequality refutation on integral single-variable bounds is
        # subsumed by the model search; interval emptiness is what proves
        # UNSAT here.
        return intervals

    # -- model search --------------------------------------------------------

    def _search_model(
        self,
        literals: List[Expr],
        original: List[Expr],
        var_types: Dict[str, GilType],
        cc: "_CongruenceClosure",
        intervals: Dict[Expr, _Interval],
    ) -> Optional[Model]:
        free = [free_lvars(e) for e in literals]
        variables = sorted(set().union(*free))
        if not variables:
            env: Model = {}
            return env if self._verify(original, env) else None

        seeds = _literal_seeds(literals)
        # Each variable's candidates, keyed by type and repr as the
        # per-node deduplication against derived values needs them.
        keyed = {
            name: [
                ((type(v).__name__, repr(v)), v)
                for v in self._candidates(name, var_types, cc, intervals, seeds)
            ]
            for name in variables
        }
        # Assign most-constrained variables first.
        variables.sort(key=lambda name: len(keyed[name]))
        depth = {name: i for i, name in enumerate(variables)}
        # The schedule: each literal is checked once, at the depth that
        # assigns its last variable (ground literals at depth 0) — the
        # literals of earlier depths already held under the same values.
        checks: List[List[Expr]] = [[] for _ in variables]
        for lit, names in zip(literals, free):
            checks[max((depth[n] for n in names), default=0)].append(lit)
        derivations = _derivations(literals, depth)

        budget = [_SEARCH_NODE_LIMIT]

        def dfs(idx: int, env: Model) -> Optional[Model]:
            if budget[0] <= 0:
                return None
            if idx == len(variables):
                return dict(env) if self._verify(original, env) else None
            name = variables[idx]
            # Derived candidates first: values forced or bounded by linear
            # literals whose other atoms are already assigned (unit
            # propagation) — this is what solves ``x = 2y ∧ x - y > 10``.
            options = self._derived_candidates(derivations.get(name, ()), env)
            seen_opts = {(type(v).__name__, repr(v)) for v in options}
            for k, value in keyed[name]:
                if k not in seen_opts:
                    seen_opts.add(k)
                    options.append(value)
            for value in options:
                budget[0] -= 1
                self.stats.search_nodes += 1
                self._charge()
                env[name] = value
                if self._verify(checks[idx], env):
                    found = dfs(idx + 1, env)
                    if found is not None:
                        return found
                del env[name]
                if budget[0] <= 0:
                    return None
            return None

        return dfs(0, {})

    @staticmethod
    def _derived_candidates(
        derivations: Sequence[_Derivation], env: Model
    ) -> List[Value]:
        """Values for a variable forced/bounded by literals over assigned vars.

        For each of the variable's :func:`_derivations` whose remaining
        atoms all evaluate under the partial assignment, compute the
        implied value (an equality) or the values around the bound.
        """
        out: List[Value] = []
        for forced, coef, const, others in derivations:
            residual = const
            for atom, c in others:
                try:
                    value = evaluate(atom, lvar_env=env)
                except EvalError:
                    break
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    break
                residual += c * _exact(value)
            else:
                # coef*var + residual ⋈ 0  →  boundary value:
                boundary = _div(-residual, coef)
                as_num = boundary if type(boundary) is int else float(boundary)
                if forced:
                    out.append(as_num)
                elif type(boundary) is int:
                    out.extend([as_num + 1, as_num - 1, as_num])
                else:
                    out.extend([as_num, _ceil(boundary), _floor(boundary)])
        return out

    def _candidates(
        self,
        name: str,
        var_types: Dict[str, GilType],
        cc: "_CongruenceClosure",
        intervals: Dict[Expr, _Interval],
        seeds: Tuple[Dict[str, List[Union[int, float]]], List[str], List[Symbol]],
    ) -> List[Value]:
        var = LVar(name)
        out: List[Value] = []
        near, strings, symbols = seeds

        # Values this variable is equated to (directly or via closure).
        forced = cc.known_value(var)
        if forced is not None:
            return [forced]
        out.extend(cc.equal_literals(var))

        vtype = var_types.get(name)
        iv = intervals.get(var)

        if vtype in (None, GilType.NUMBER):
            nums: List[Value] = []
            if iv is not None:
                lo_int = _ceil(iv.lo) if iv.lo is not None else None
                hi_int = _floor(iv.hi) if iv.hi is not None else None
                if lo_int is not None:
                    nums.extend([lo_int, lo_int + 1, lo_int + 2])
                if hi_int is not None:
                    nums.extend([hi_int, hi_int - 1])
                if lo_int is not None and hi_int is not None and lo_int <= hi_int:
                    nums.append((lo_int + hi_int) // 2)
                if (
                    not iv.empty()
                    and (iv.lo is None or iv.lo <= 0)
                    and (iv.hi is None or 0 <= iv.hi)
                ):
                    nums.append(0)
                # Open/real intervals may exclude every integer: offer the
                # exact midpoint too (e.g. 0 < x < 1 → 1/2).
                if iv.lo is not None and iv.hi is not None and iv.lo < iv.hi:
                    nums.append(_div(iv.lo + iv.hi, 2))
            else:
                nums.extend([0, 1, 2, -1, 3, 7])
            # Literals compared against the variable are good seeds.
            for v in map(int, near.get(name, ())):
                nums.extend([v, v - 1, v + 1])
            seen = set()
            for n in nums:
                if isinstance(n, Fraction):
                    n = float(n)
                if n not in seen:
                    seen.add(n)
                    out.append(n)
            if not out:
                out.append(0)
        if vtype in (None, GilType.BOOLEAN):
            out.extend([True, False])
        if vtype in (None, GilType.STRING):
            out.extend(["", f"str_{name}", "a"])
            out.extend(strings)
        if vtype in (None, GilType.SYMBOL):
            out.append(Symbol(f"fresh_{name}"))
            out.extend(symbols)
        if vtype in (None, GilType.LIST):
            out.extend([(), (0,), (0, 0), (0, 0, 0)])

        # Deduplicate preserving order.
        deduped: List[Value] = []
        seen_repr = set()
        for v in out:
            k = (type(v).__name__, repr(v))
            if k not in seen_repr:
                seen_repr.add(k)
                deduped.append(v)
        return deduped

    @staticmethod
    def _verify(conjuncts: List[Expr], env: Model) -> bool:
        """Every conjunct holds under ``env`` (an evaluation error is a
        failure): the final check of a model, and the per-depth check of
        model search."""
        for c in conjuncts:
            try:
                if evaluate(c, lvar_env=env) is not True:
                    return False
            except EvalError:
                return False
        return True


def _fourier_motzkin_round(
    constraints: List[Tuple[Dict[Expr, Num], str, Num]],
    cap: int = 64,
) -> List[Tuple[Dict[Expr, Num], str, Num]]:
    """One round of Fourier–Motzkin elimination, bounded.

    Normalises every constraint to ``Σ c·a ≤ rhs`` (equalities become two
    inequalities), then combines pairs with opposite signs on a shared
    variable, keeping only derived constraints over at most two atoms.
    """
    ineqs: List[Tuple[Dict[Expr, Num], bool, Num]] = []
    for coefs, op, rhs in constraints:
        if op == "==":
            ineqs.append((coefs, False, rhs))
            ineqs.append(({a: -c for a, c in coefs.items()}, False, -rhs))
        elif op in ("<", "<="):
            ineqs.append((coefs, op == "<", rhs))

    atoms = sorted({a for coefs, _, _ in ineqs for a in coefs}, key=repr)
    derived: List[Tuple[Dict[Expr, Num], str, Num]] = []
    seen: set = set()
    for var in atoms:
        pos = [c for c in ineqs if c[0].get(var, 0) > 0]
        neg = [c for c in ineqs if c[0].get(var, 0) < 0]
        if len(pos) * len(neg) > 16:
            continue
        for p_coefs, p_strict, p_rhs in pos:
            for n_coefs, n_strict, n_rhs in neg:
                # p/p[var] + n/|n[var]|, cross-multiplied over one
                # positive common denominator
                scale_p, scale_n = -n_coefs[var], p_coefs[var]
                den = scale_p * scale_n
                combined: Dict[Expr, Num] = {}
                for a, c in p_coefs.items():
                    combined[a] = combined.get(a, 0) + c * scale_p
                for a, c in n_coefs.items():
                    combined[a] = combined.get(a, 0) + c * scale_n
                combined = {a: c for a, c in combined.items() if c != 0}
                if len(combined) > 2:
                    continue
                rhs = p_rhs * scale_p + n_rhs * scale_n
                strict = p_strict or n_strict
                if not combined:
                    # Ground consequence: 0 ⋈ rhs must hold.
                    feasible = (0 < rhs) if strict else (0 <= rhs)
                    if not feasible:
                        return [({}, "unsat", 0)]
                    continue
                if den != 1:
                    combined = {a: _div(c, den) for a, c in combined.items()}
                    rhs = _div(rhs, den)
                key = (
                    tuple(sorted(((repr(a), c) for a, c in combined.items()))),
                    strict,
                    rhs,
                )
                if key in seen:
                    continue
                seen.add(key)
                derived.append((combined, "<" if strict else "<=", rhs))
                if len(derived) >= cap:
                    return derived
    return derived


# -- difference constraints ---------------------------------------------------


def _difference_analysis_unsat(
    constraints: List[Tuple[Dict[Expr, Num], str, Num]],
    literals: List[Expr],
) -> bool:
    """Difference-constraint reasoning: cycles and forced equalities.

    Constraints of the shape ``x - y ≤ c`` (possibly strict, possibly an
    equality) form a graph with an edge ``y → x`` of weight ``c``.  Two
    refutations:

    * a cycle of negative total weight — or zero weight containing a
      strict edge — is a contradiction (``x < y ∧ y < x``);
    * a disequality ``x ≠ y + c`` is refuted when the shortest paths force
      ``x - y = c`` exactly (antisymmetry: ``x ≤ y ∧ y ≤ x ∧ x ≠ y``).

    Interval propagation alone sees neither, since individual intervals
    can stay unbounded.
    """
    edges: Dict[Tuple[Expr, Expr], Tuple[Num, bool]] = {}

    def add_edge(src: Expr, dst: Expr, weight: Num, strict: bool) -> None:
        prior = edges.get((src, dst))
        if prior is None or (weight, not strict) < (prior[0], not prior[1]):
            edges[(src, dst)] = (weight, strict)

    for coefs, op, rhs in constraints:
        if len(coefs) != 2 or op == "unsat":
            continue
        (a1, c1), (a2, c2) = coefs.items()
        if c1 + c2 != 0:
            continue
        # Normalise to  pos - neg ≤ rhs / |c|.
        scale = abs(c1)
        pos, neg = (a1, a2) if c1 > 0 else (a2, a1)
        bound = _div(rhs, scale)
        if op in ("<=", "<"):
            add_edge(neg, pos, bound, op == "<")
        elif op == "==":
            add_edge(neg, pos, bound, False)
            add_edge(pos, neg, -bound, False)

    if not edges:
        return False

    nodes = sorted({n for pair in edges for n in pair}, key=repr)
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    dist: List[List[Optional[Tuple[Num, bool]]]] = [
        [None] * n for _ in range(n)
    ]
    for (src, dst), (w, s) in edges.items():
        i, j = index[src], index[dst]
        cur = dist[i][j]
        if cur is None or (w, not s) < (cur[0], not cur[1]):
            dist[i][j] = (w, s)
    for k in range(n):
        for i in range(n):
            ik = dist[i][k]
            if ik is None:
                continue
            for j in range(n):
                kj = dist[k][j]
                if kj is None:
                    continue
                cand = (ik[0] + kj[0], ik[1] or kj[1])
                cur = dist[i][j]
                if cur is None or (cand[0], not cand[1]) < (cur[0], not cur[1]):
                    dist[i][j] = cand
    for i in range(n):
        d = dist[i][i]
        if d is not None and (d[0] < 0 or (d[0] == 0 and d[1])):
            return True

    # Forced-equality refutation of disequalities.
    for lit in literals:
        if not (
            isinstance(lit, UnOpExpr)
            and lit.op is UnOp.NOT
            and isinstance(lit.operand, BinOpExpr)
            and lit.operand.op is BinOp.EQ
        ):
            continue
        lf = _linear_form(BinOpExpr(BinOp.SUB, lit.operand.left, lit.operand.right))
        if lf is None:
            continue
        coefs, const = lf
        if len(coefs) != 2:
            continue
        (a1, c1), (a2, c2) = coefs.items()
        if c1 + c2 != 0 or abs(c1) != 1:
            continue
        pos, neg = (a1, a2) if c1 > 0 else (a2, a1)
        if pos not in index or neg not in index:
            continue
        i, j = index[pos], index[neg]
        # lit says pos - neg + const ≠ 0, i.e. pos - neg ≠ -const.
        fwd = dist[j][i]  # pos - neg ≤ fwd
        bwd = dist[i][j]  # neg - pos ≤ bwd
        if (
            fwd is not None
            and bwd is not None
            and not fwd[1]
            and not bwd[1]
            and fwd[0] == -const
            and bwd[0] == const
        ):
            return True
    return False


# -- linear forms ------------------------------------------------------------

_MISSING = object()
_linear_cache: Dict[Expr, Optional[Tuple[Dict[Expr, Num], Num]]] = {}


def _linear_form(e: Expr) -> Optional[Tuple[Dict[Expr, Num], Num]]:
    """Memoising wrapper around :func:`_linear_form_impl`.

    Hash-consed expressions make the memo global and cheap: the same atom
    reappears at every branch point of a path, and across paths sharing a
    prefix, so parsing each linear form once per process is the right
    amortization.  Cached results are shared — callers must treat the
    coefficient dict as read-only (they all do: combination steps copy).
    """
    cached = _linear_cache.get(e, _MISSING)
    if cached is not _MISSING:
        return cached
    result = _linear_form_impl(e)
    _linear_cache[e] = result
    return result


def _linear_form_impl(
    e: Expr,
) -> Optional[Tuple[Dict[Expr, Num], Num]]:
    """``e`` as (coefficients over numeric atoms, constant), or None.

    Atoms are logical variables and opaque numeric terms (list lengths,
    non-linear products); the decomposition is exact (:data:`Num`).
    """
    if isinstance(e, Lit):
        v = e.value
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return None
        return {}, _exact(v)
    if isinstance(e, LVar):
        return {e: 1}, 0
    if isinstance(e, UnOpExpr):
        if e.op is UnOp.NEG:
            sub = _linear_form(e.operand)
            if sub is None:
                return None
            coefs, const = sub
            return {a: -c for a, c in coefs.items()}, -const
        if e.op in (UnOp.STRLEN, UnOp.LSTLEN, UnOp.FLOOR, UnOp.TONUMBER):
            return {e: 1}, 0
        return None
    if isinstance(e, BinOpExpr):
        if e.op in (BinOp.ADD, BinOp.SUB):
            left = _linear_form(e.left)
            right = _linear_form(e.right)
            if left is None or right is None:
                return None
            sign = 1 if e.op is BinOp.ADD else -1
            coefs = dict(left[0])
            for a, c in right[0].items():
                coefs[a] = coefs.get(a, 0) + sign * c
                if coefs[a] == 0:
                    del coefs[a]
            return coefs, left[1] + sign * right[1]
        if e.op is BinOp.MUL:
            left = _linear_form(e.left)
            right = _linear_form(e.right)
            if left is None or right is None:
                return {e: 1}, 0
            if not left[0]:
                k = left[1]
                return {a: k * c for a, c in right[0].items() if k * c != 0}, k * right[1]
            if not right[0]:
                k = right[1]
                return {a: k * c for a, c in left[0].items() if k * c != 0}, k * left[1]
            return {e: 1}, 0  # non-linear: opaque atom
        if e.op is BinOp.DIV:
            left = _linear_form(e.left)
            right = _linear_form(e.right)
            if left is not None and right is not None and not right[0] and right[1] != 0:
                k = right[1]
                return {a: _div(c, k) for a, c in left[0].items()}, _div(left[1], k)
            return {e: 1}, 0
        if e.op in (BinOp.MOD, BinOp.LNTH, BinOp.MIN, BinOp.MAX):
            return {e: 1}, 0  # opaque numeric atom
        return None
    return None


def _ceil(x: Num) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Num) -> int:
    return x.numerator // x.denominator


def _derivations(
    literals: List[Expr], depth: Dict[str, int]
) -> Dict[str, List[_Derivation]]:
    """Per variable, the linear literals that can bound it in model search.

    Each (dis)equality or inequality literal with a linear form gives every
    variable it mentions a :data:`_Derivation`, in literal order.  An entry
    with a variable atom assigned no earlier than ``var`` (``depth``) is
    left out: that atom is unbound whenever ``var``'s candidates are
    derived.
    """
    out: Dict[str, List[_Derivation]] = {}
    for lit in literals:
        negated = False
        body = lit
        if isinstance(body, UnOpExpr) and body.op is UnOp.NOT:
            negated = True
            body = body.operand
        if not isinstance(body, BinOpExpr) or body.op not in (
            BinOp.EQ, BinOp.LT, BinOp.LEQ,
        ):
            continue
        lf = _linear_form(BinOpExpr(BinOp.SUB, body.left, body.right))
        if lf is None:
            continue
        coefs, const = lf
        forced = body.op is BinOp.EQ and not negated
        for var, coef in coefs.items():
            if not isinstance(var, LVar):
                continue
            others = tuple((a, c) for a, c in coefs.items() if a != var)
            if any(
                isinstance(a, LVar) and depth[a.name] >= depth[var.name]
                for a, _ in others
            ):
                continue
            out.setdefault(var.name, []).append((forced, coef, const, others))
    return out


def _literal_seeds(
    literals: List[Expr],
) -> Tuple[Dict[str, List[Union[int, float]]], List[str], List[Symbol]]:
    """Seed values for :meth:`Solver._candidates`, scanned once per search:
    the numeric literals compared against each variable (by name), then
    every string and every symbol literal, all in literal order."""
    near: Dict[str, List[Union[int, float]]] = {}
    strings: List[str] = []
    symbols: List[Symbol] = []

    def visit(node: Expr) -> None:
        if isinstance(node, BinOpExpr):
            if node.op in (BinOp.EQ, BinOp.LT, BinOp.LEQ):
                for a, b in ((node.left, node.right), (node.right, node.left)):
                    if isinstance(a, LVar) and isinstance(b, Lit):
                        v = b.value
                        if isinstance(v, (int, float)) and not isinstance(v, bool):
                            near.setdefault(a.name, []).append(v)
            visit(node.left)
            visit(node.right)
        elif isinstance(node, UnOpExpr):
            visit(node.operand)
        elif isinstance(node, EList):
            for item in node.items:
                visit(item)

    for lit in literals:
        visit(lit)
        for node in walk(lit):
            if isinstance(node, Lit):
                if isinstance(node.value, str):
                    strings.append(node.value)
                elif isinstance(node.value, Symbol):
                    symbols.append(node.value)
    return near, strings, symbols


# -- congruence closure -------------------------------------------------------


class _CongruenceClosure:
    """Union-find over terms with literal-consistency and congruence.

    Supports: merge on asserted equalities, explicit disequalities, and a
    consistency check — two distinct literal values (or two distinct
    uninterpreted symbols) in the same class is a contradiction, as is an
    asserted disequality whose two sides were merged.
    """

    def __init__(self) -> None:
        self._parent: Dict[Expr, Expr] = {}
        self._literal: Dict[Expr, Value] = {}
        self._diseqs: List[Tuple[Expr, Expr]] = []
        self._contradiction = False
        self._members: Dict[Expr, List[Expr]] = {}

    def clone(self) -> "_CongruenceClosure":
        """An independent copy (for extending a solved prefix by a delta).

        Replaying only the delta's merges on a clone yields exactly the
        state a from-scratch build over (prefix literals + delta literals)
        would reach: the merge/assert sequence is identical, since delta
        literals are appended after the prefix's.
        """
        other = _CongruenceClosure.__new__(_CongruenceClosure)
        other._parent = dict(self._parent)
        other._literal = dict(self._literal)
        other._diseqs = list(self._diseqs)
        other._contradiction = self._contradiction
        other._members = {k: list(v) for k, v in self._members.items()}
        return other

    def _find(self, t: Expr) -> Expr:
        if t not in self._parent:
            self._parent[t] = t
            self._members[t] = [t]
            if isinstance(t, Lit):
                self._literal[t] = t.value
        root = t
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[t] != root:
            self._parent[t], t = root, self._parent[t]
        return root

    def merge(self, a: Expr, b: Expr) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        la, lb = self._literal.get(ra), self._literal.get(rb)
        if la is not None and lb is not None:
            from repro.gil.values import values_equal

            if not values_equal(la, lb):
                self._contradiction = True
                return
        self._parent[ra] = rb
        self._members[rb].extend(self._members.pop(ra, []))
        if lb is None and la is not None:
            self._literal[rb] = la
        # Congruence propagation: merge applications with merged children.
        self._propagate_congruence()

    def _propagate_congruence(self) -> None:
        # One bounded pass: group composite known terms by (shape, child roots).
        groups: Dict[tuple, Expr] = {}
        pending: List[Tuple[Expr, Expr]] = []
        for t in list(self._parent):
            key = self._shape_key(t)
            if key is None:
                continue
            other = groups.get(key)
            if other is None:
                groups[key] = t
            elif self._find(other) != self._find(t):
                pending.append((other, t))
        for a, b in pending:
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                continue
            la, lb = self._literal.get(ra), self._literal.get(rb)
            if la is not None and lb is not None:
                from repro.gil.values import values_equal

                if not values_equal(la, lb):
                    self._contradiction = True
                    return
            self._parent[ra] = rb
            self._members[rb].extend(self._members.pop(ra, []))
            if lb is None and la is not None:
                self._literal[rb] = la

    def _shape_key(self, t: Expr):
        if isinstance(t, UnOpExpr):
            return ("un", t.op, self._find(t.operand))
        if isinstance(t, BinOpExpr) and t.op not in (BinOp.AND, BinOp.OR):
            return ("bin", t.op, self._find(t.left), self._find(t.right))
        return None

    def assert_distinct(self, a: Expr, b: Expr) -> None:
        self._diseqs.append((a, b))
        self._find(a)
        self._find(b)

    def consistent(self) -> bool:
        if self._contradiction:
            return False
        for a, b in self._diseqs:
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                return False
            la, lb = self._literal.get(ra), self._literal.get(rb)
            if la is not None and lb is not None:
                from repro.gil.values import values_equal

                if values_equal(la, lb):
                    return False
        return True

    def known_value(self, t: Expr) -> Optional[Value]:
        """The literal value ``t`` is forced to equal, if any."""
        return self._literal.get(self._find(t))

    def equal_literals(self, t: Expr) -> List[Value]:
        root = self._find(t)
        v = self._literal.get(root)
        return [v] if v is not None else []
