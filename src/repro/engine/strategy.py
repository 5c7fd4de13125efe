"""Search strategies: the exploration-order policy of the scheduler.

The paper's engine (§2.1, Fig. 1) is a worklist over GIL configurations;
*which* pending configuration is stepped next is a policy choice that the
semantics leaves open.  For exhaustive runs the choice cannot change the
set of final outcomes — every pending configuration is eventually stepped
and branching is path-local — but it changes memory footprint, time to
first bug, and which paths survive a budget cut, which is why the
follow-up journal paper (Maksimović et al.) and Soteria both treat
exploration order as central to engine performance.

A :class:`SearchStrategy` owns the worklist.  Items are ``(Config,
depth)`` pairs; the scheduler only ever calls :meth:`push`, :meth:`pop`,
:meth:`evict` and ``len``.  Eviction (the ``max_paths`` budget cut) is a
strategy decision too: each strategy discards the items it would have
scheduled *last*, deterministically, so a budget-capped run under a
strategy is a prefix of the uncapped run under the same strategy.

Implemented policies:

* :class:`DFSStrategy` — LIFO stack; the classic depth-first engine loop.
* :class:`BFSStrategy` — FIFO queue; breadth-first, finds shallow bugs
  first.
* :class:`CoverageGuidedStrategy` — prefers configurations at the
  least-visited ``(proc, command-index)`` site (visit counts are bumped as
  items are popped), breaking ties FIFO; a greedy novelty search.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, Tuple, Union

from repro.gil.semantics import Config

#: A scheduled unit of work: a configuration and its depth (steps taken
#: along its path so far).
WorkItem = Tuple[Config, int]

#: The site of a work item, for coverage accounting.
Site = Tuple[str, int]


def _site(item: WorkItem) -> Site:
    cfg = item[0]
    return (cfg.proc, cfg.idx)


class SearchStrategy:
    """The worklist policy interface the scheduler drives.

    Subclasses must keep :meth:`pop` and :meth:`evict` deterministic:
    given the same sequence of pushes, the same items come out in the
    same order.
    """

    #: short policy name, reported in benchmark output
    name: str = "abstract"

    def push(self, item: WorkItem) -> None:
        raise NotImplementedError

    def pop(self) -> WorkItem:
        """Remove and return the next item to step. Undefined when empty."""
        raise NotImplementedError

    def evict(self, count: int) -> List[WorkItem]:
        """Remove and return up to ``count`` lowest-priority items.

        "Lowest priority" means the items this strategy would otherwise
        have scheduled last; the scheduler counts them as dropped paths.
        """
        raise NotImplementedError

    def snapshot(self) -> Tuple[WorkItem, ...]:
        """The pending items, *without* removing them.

        Used by checkpointing (:mod:`repro.service.checkpoint`): the
        returned tuple, pushed in order into a fresh strategy of the
        same type, reproduces the same worklist contents.  For DFS and
        BFS the rebuilt schedule is byte-identical; for the coverage
        policy (whose visit counts are not saved) only the *item set* is
        preserved — which is all outcome determinism needs,
        since exhaustive exploration is schedule-independent.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def extend(self, items: Iterable[WorkItem]) -> None:
        for item in items:
            self.push(item)


class DFSStrategy(SearchStrategy):
    """Depth-first: LIFO stack.

    Eviction discards from the *bottom* of the stack — the oldest pending
    branch alternatives, which DFS would have reached last — never the
    deep frontier it is about to extend.
    """

    name = "dfs"

    def __init__(self) -> None:
        self._stack: List[WorkItem] = []

    def push(self, item: WorkItem) -> None:
        self._stack.append(item)

    def pop(self) -> WorkItem:
        return self._stack.pop()

    def evict(self, count: int) -> List[WorkItem]:
        count = min(count, len(self._stack))
        evicted = self._stack[:count]
        del self._stack[:count]
        return evicted

    def snapshot(self) -> Tuple[WorkItem, ...]:
        """Stack bottom-to-top: re-pushing in order rebuilds it exactly."""
        return tuple(self._stack)

    def __len__(self) -> int:
        return len(self._stack)


class BFSStrategy(SearchStrategy):
    """Breadth-first: FIFO queue.

    Eviction discards from the *back* of the queue — the most recently
    scheduled (deepest) items, which BFS would have reached last.
    """

    name = "bfs"

    def __init__(self) -> None:
        self._queue: deque = deque()

    def push(self, item: WorkItem) -> None:
        self._queue.append(item)

    def pop(self) -> WorkItem:
        return self._queue.popleft()

    def evict(self, count: int) -> List[WorkItem]:
        count = min(count, len(self._queue))
        evicted = [self._queue.pop() for _ in range(count)]
        evicted.reverse()
        return evicted

    def snapshot(self) -> Tuple[WorkItem, ...]:
        """Queue front-to-back: re-pushing in order rebuilds it exactly."""
        return tuple(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class CoverageGuidedStrategy(SearchStrategy):
    """Prefer configurations at the least-visited ``(proc, idx)`` site.

    A lazily re-prioritised heap: items enter keyed by the current visit
    count of their site (FIFO tie-break); when an item surfaces with a
    stale key its priority is refreshed and it is re-queued.  Visit
    counts are bumped on ``pop`` — the popped configuration's site is
    about to be executed — so the policy continuously steers towards
    novel program points.
    """

    name = "coverage"

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, WorkItem]] = []
        self._visits: Dict[Site, int] = {}
        self._seq = 0  # FIFO tie-break; also makes heap entries comparable

    def _priority(self, item: WorkItem) -> int:
        return self._visits.get(_site(item), 0)

    def push(self, item: WorkItem) -> None:
        heapq.heappush(self._heap, (self._priority(item), self._seq, item))
        self._seq += 1

    def pop(self) -> WorkItem:
        while True:
            priority, seq, item = heapq.heappop(self._heap)
            current = self._priority(item)
            if current != priority:
                # Stale priority: the site has been visited since the
                # item was queued; re-queue at its true rank (the
                # original sequence number keeps the FIFO tie-break).
                heapq.heappush(self._heap, (current, seq, item))
                continue
            site = _site(item)
            self._visits[site] = self._visits.get(site, 0) + 1
            return item

    def evict(self, count: int) -> List[WorkItem]:
        count = min(count, len(self._heap))
        if not count:
            return []
        # Most-visited sites first (the least novel work); among equals,
        # the most recently queued goes first — both total orders, so the
        # cut is deterministic.
        ranked = sorted(
            self._heap, key=lambda e: (self._priority(e[2]), e[1]), reverse=True
        )
        victims = ranked[:count]
        victim_keys = {(e[1]) for e in victims}
        self._heap = [e for e in self._heap if e[1] not in victim_keys]
        heapq.heapify(self._heap)
        return [e[2] for e in victims]

    def snapshot(self) -> Tuple[WorkItem, ...]:
        """Pending items in (priority, seq) order (visit counts excluded)."""
        return tuple(e[2] for e in sorted(self._heap, key=lambda e: (e[0], e[1])))

    def __len__(self) -> int:
        return len(self._heap)


#: Specs accepted anywhere a strategy is configurable: a policy name, or
#: an instance passed through as-is.
StrategySpec = Union[str, SearchStrategy, None]

_FACTORIES = {
    "dfs": DFSStrategy,
    "bfs": BFSStrategy,
    "coverage": CoverageGuidedStrategy,
}


def strategy_names() -> List[str]:
    return sorted(_FACTORIES)


def make_strategy(spec: StrategySpec = None) -> SearchStrategy:
    """Build a fresh strategy from a spec.

    ``spec`` may be None (DFS, the historical default), a name from
    :func:`strategy_names` (case and surrounding whitespace ignored), or
    an already-built :class:`SearchStrategy`, which is returned
    unchanged.
    """
    if isinstance(spec, SearchStrategy):
        return spec
    if spec is None:
        spec = "dfs"
    if not isinstance(spec, str):
        raise ValueError(
            f"strategy spec must be a name string or a SearchStrategy, "
            f"got {type(spec).__name__}: {spec!r}"
        )
    factory = _FACTORIES.get(spec.strip().lower())
    if factory is None:
        raise ValueError(
            f"unknown search strategy {spec!r} (known: {', '.join(strategy_names())})"
        )
    return factory()
