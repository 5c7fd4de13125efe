"""Summary records, purity classification, and cache keys.

A :class:`Summary` is the recorded behaviour of one *pure* procedure
(the paper's abstract summaries, arXiv 2001.05059): the procedure
touches no memory and allocates no symbols, so it is summarised once
against fresh canonical logical variables (``spec_arg_0``, …) and
replayed at *any* call site by substituting the actual arguments into
the recorded values and deltas.  Each non-vanishing path of that run is
one :class:`SummaryPath`: the outcome kind and value, and the
path-condition *delta* learned along the path (the pre-state starts at
``π = true``, so the final path condition's conjuncts *are* the delta).
Every other procedure runs inline.

Keys are content-addressed (§cache keying in ``docs/summaries.md``): a
procedure's hash covers its own body *and* its transitive static
callees, so editing a helper invalidates every summary whose behaviour
could change, with no invalidation protocol.

A procedure's own body is scanned once per :class:`Proc` (it is
frozen), and pickled and hashed once, when a summary key first needs
it; these memos hold their objects weakly, so an entry dies with its
program.  The transitive walks that depend on the rest of the program —
the body hash and purity — stay per engine, so a replaced procedure
never reuses a stale verdict.
"""

from __future__ import annotations

import hashlib
import pickle
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.gil.semantics import OutcomeKind
from repro.gil.syntax import ActionCall, Call, ISym, Proc, Prog, USym
from repro.logic.expr import Lit

#: bump when the record shape or replay semantics change incompatibly;
#: part of every cache key, so stale on-disk summaries simply miss
SUMMARY_FORMAT_VERSION = 2

#: namespace of the canonical argument logical variables a pure summary
#: is recorded over — distinct from the allocator's ``val_``/``loc_``
#: namespaces, so substituting caller expressions can never capture
SPEC_ARG_PREFIX = "spec_arg_"

#: pickle protocol pinned for key stability across interpreter versions
_PICKLE_PROTOCOL = 4


@dataclass(frozen=True)
class SummaryPath:
    """One recorded path of a summarised procedure.

    ``value`` and ``pc_delta`` (the tuple of conjuncts the path added
    over the ``true`` entry condition) are expressions over the
    canonical argument variables; a pure body leaves memory, allocation
    record and the caller's store untouched, so nothing else is kept.
    """

    kind: OutcomeKind
    value: object
    pc_delta: Tuple[object, ...]


@dataclass(frozen=True)
class Summary:
    """The recorded behaviour of one pure procedure over symbolic arguments."""

    proc: str
    #: parameter names, positionally matching ``spec_arg_<i>``
    params: Tuple[str, ...]
    paths: Tuple[SummaryPath, ...]
    #: True iff the summarisation run explored every path to its final
    #: (stop reason ``exhausted``).  Verify mode refuses incomplete
    #: summaries; incorrectness mode may use them (drop paths freely,
    #: never widen — arXiv 2407.10838)
    complete: bool
    #: GIL commands the summarisation run executed — the per-replay
    #: saving reported in ``ExecutionStats.summary_commands_saved``
    commands: int
    format_version: int = SUMMARY_FORMAT_VERSION

    def usable(self, mode: str) -> bool:
        """Whether this summary may be replayed under ``mode``.

        ``"verify"`` demands completeness (replay must preserve the
        whole path set); ``"incorrectness"`` under-approximates, so any
        recorded subset of paths is fair game.
        """
        if self.format_version != SUMMARY_FORMAT_VERSION:
            return False
        return self.complete or mode == "incorrectness"


def spec_arg(i: int):
    """The canonical logical variable a pure summary binds parameter ``i`` to."""
    from repro.logic.expr import LVar

    return LVar(f"{SPEC_ARG_PREFIX}{i}")


def static_callee(cmd: Call) -> Optional[str]:
    """The callee name of a statically-resolvable call, else None."""
    callee = cmd.callee
    if isinstance(callee, Lit) and isinstance(callee.value, str):
        return callee.value
    return None


class _MemoEntry(weakref.ref):
    """A weak reference to a memoised object, carrying its value."""

    __slots__ = ("key", "value")

    def __new__(cls, obj, callback, key: int, value):
        self = super().__new__(cls, obj, callback)
        self.key = key
        self.value = value
        return self

    def __init__(self, obj, callback, key: int, value) -> None:
        super().__init__(obj, callback)


class _ObjectMemo:
    """``fn(obj)`` computed once per object, for immutable objects.

    Entries are keyed by identity and hold their object weakly: an entry
    is dropped when its object is collected, so a recycled ``id`` never
    serves a stale value and the memo never keeps a program or a state
    alive.  Objects that cannot be weakly referenced (plain dicts,
    ``None``) are recomputed on every call.
    """

    __slots__ = ("_fn", "_entries")

    def __init__(self, fn: Callable[[object], object]) -> None:
        self._fn = fn
        self._entries: Dict[int, _MemoEntry] = {}

    def __call__(self, obj):
        """``fn(obj)``, from the memo when ``obj`` was seen before."""
        entry = self._entries.get(id(obj))
        if entry is not None and entry() is obj:
            return entry.value
        value = self._fn(obj)
        try:
            self._entries[id(obj)] = _MemoEntry(obj, self._drop, id(obj), value)
        except TypeError:
            pass  # not weakly referenceable: never memoised
        return value

    def _drop(self, entry: _MemoEntry) -> None:
        """``entry``'s object died: forget it (unless since replaced)."""
        if self._entries.get(entry.key) is entry:
            del self._entries[entry.key]


@dataclass(frozen=True)
class _BodyFacts:
    """What a procedure's own body says, whatever program holds it."""

    #: static callee names in body order, repeats kept
    callees: Tuple[str, ...]
    #: no memory action, fresh-symbol command or dynamic call
    local_pure: bool


def _body_facts(proc: Proc) -> _BodyFacts:
    """Scan ``proc``'s body once for its static callees and own purity."""
    callees: List[str] = []
    local_pure = True
    for cmd in proc.body:
        if isinstance(cmd, (ActionCall, USym, ISym)):
            local_pure = False
        elif isinstance(cmd, Call):
            callee = static_callee(cmd)
            if callee is None:
                local_pure = False
            else:
                callees.append(callee)
    return _BodyFacts(tuple(callees), local_pure)


def _body_digest(proc: Proc, name: Optional[str] = None):
    """SHA-256 state after ``proc``'s pickled ``(name, params, body)``,
    registered under ``name``; :func:`proc_hash` copies it, then feeds
    it the callee hashes.

    The name is pickled as the string object a call site names it by,
    the value of the interned ``Lit(name)``: pickle shares repeated
    objects, so a recursive body's own call names it by reference, and
    the bytes must not depend on which equal string the caller held.
    """
    name = Lit(proc.name if name is None else name).value
    return hashlib.sha256(
        pickle.dumps((name, proc.params, proc.body), protocol=_PICKLE_PROTOCOL)
    )


#: per :class:`Proc` object (frozen), the facts of its body.  Purity
#: reads only these, so deciding that a call runs inline hashes nothing
_BODY_FACTS = _ObjectMemo(_body_facts)

#: per :class:`Proc` object, the digest of its body under its own name
_BODY_DIGESTS = _ObjectMemo(_body_digest)


def classify_pure(prog: Prog) -> Dict[str, bool]:
    """Which procedures are *transitively pure* (summarisable).

    A procedure is pure iff its body contains no memory action, no
    fresh-symbol command, and no call other than a static call to a
    pure procedure.  ``fail``/``vanish`` are allowed — a pure body may
    still end paths.  Cycles (recursion) classify as impure: replaying
    a recursive summary would need a fixpoint this layer does not take.

    This walks every procedure's body directly; the engine asks
    :func:`is_pure` for the procedures a run actually calls, and the
    tests hold the two to the same verdicts.
    """
    verdicts: Dict[str, bool] = {}
    in_flight: Set[str] = set()

    def visit(name: str) -> bool:
        """Purity of ``name``, memoised; cycles conservatively impure."""
        known = verdicts.get(name)
        if known is not None:
            return known
        if name in in_flight:
            return False
        proc = prog.get(name)
        if proc is None:
            return False
        in_flight.add(name)
        pure = True
        for cmd in proc.body:
            if isinstance(cmd, (ActionCall, USym, ISym)):
                pure = False
                break
            if isinstance(cmd, Call):
                callee = static_callee(cmd)
                if callee is None or not visit(callee):
                    pure = False
                    break
        in_flight.discard(name)
        verdicts[name] = pure
        return pure

    for name in prog.procs:
        visit(name)
    return verdicts


def is_pure(prog: Prog, name: str, verdicts: Dict[str, bool]) -> bool:
    """:func:`classify_pure`'s verdict for ``name`` alone, walking only
    what ``name`` reaches.

    ``verdicts`` memoises across calls on the same program.  Verdicts
    do not depend on visit order: a walk that re-enters a procedure
    still in flight has found a cycle through every procedure on the
    way back, and each of those is impure whichever one the walk began
    at.
    """
    known = verdicts.get(name)
    if known is not None:
        return known
    in_flight: Set[str] = set()

    def visit(pname: str) -> bool:
        """Purity of ``pname``, memoised; cycles conservatively impure."""
        known = verdicts.get(pname)
        if known is not None:
            return known
        if pname in in_flight:
            return False
        proc = prog.get(pname)
        if proc is None:
            return False
        facts = _BODY_FACTS(proc)
        in_flight.add(pname)
        pure = facts.local_pure and all(visit(c) for c in facts.callees)
        in_flight.discard(pname)
        verdicts[pname] = pure
        return pure

    return visit(name)


def proc_hash(prog: Prog, name: str, memo: Optional[Dict[str, str]] = None) -> str:
    """Content hash of ``name`` covering its transitive static callees.

    The hash digests the procedure's parameters and body (via their
    stable pickled form — commands and expressions define structural
    ``__reduce__``) plus the hash of every statically-called procedure,
    so any edit anywhere in the call tree changes the key.  Recursive
    cycles are broken by hashing the callee's *name* on re-entry, which
    keeps the hash well-defined (cycle members still cover each other's
    bodies through the non-cyclic part of the walk).

    Each body is pickled once per :class:`Proc` object; ``memo`` holds
    the transitive hashes of one program (one engine's).
    """
    if memo is None:
        memo = {}

    def visit(pname: str, in_flight: Set[str]) -> str:
        """The memoised transitive hash of one procedure."""
        known = memo.get(pname)
        if known is not None:
            return known
        if pname in in_flight:
            return "cycle:" + pname
        proc = prog.get(pname)
        if proc is None:
            return "missing:" + pname
        in_flight.add(pname)
        if proc.name == pname:
            digest = _BODY_DIGESTS(proc).copy()
        else:  # registered under a foreign key
            digest = _body_digest(proc, pname)
        for callee in _BODY_FACTS(proc).callees:
            digest.update(visit(callee, in_flight).encode())
        in_flight.discard(pname)
        result = digest.hexdigest()
        memo[pname] = result
        return result

    return visit(name, set())


def pure_key(phash: str, salt: str) -> str:
    """Cache key for a summary: proc hash + engine salt."""
    return hashlib.sha256(f"pure:{phash}:{salt}".encode()).hexdigest()


def engine_salt(sm, config) -> str:
    """The engine-identity component of every summary key.

    Anything that can change a summarisation run's *recorded content*
    must be in the key: the memory model (pickled — parametric memlib
    compositions with the same class name differ structurally), the
    allocator namespace (it prefixes fresh-symbol names), the UNKNOWN
    policy and solver step budget (they decide which paths survive),
    and the summarisation budgets (they decide where a partial summary
    was cut).
    """
    try:
        model = hashlib.sha256(
            pickle.dumps(sm.memory_model, protocol=_PICKLE_PROTOCOL)
        ).hexdigest()
    except Exception:  # unpicklable custom model: key on its repr
        model = repr(sm.memory_model)
    return ":".join(
        str(part)
        for part in (
            SUMMARY_FORMAT_VERSION,
            model,
            getattr(sm.allocator, "namespace", ""),
            sm.unknown_policy,
            config.solver_step_budget,
            config.summary_max_commands,
            config.summary_max_paths,
        )
    )

