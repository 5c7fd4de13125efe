"""Outside-in layer tracing for the traced benchmark pass.

:func:`install` wraps the public entry points of each layer of the
program from the benchmark's side: it replaces class attributes and
module-level names, so the program's own code is untouched and the
untraced passes run exactly the code a user runs.  Every wrapped call
records one span ``[name, start, end, parent, verdict]`` in memory;
:meth:`Tracer.report` turns them into per-layer self times.  A span's
self time is its duration minus the durations of its direct children,
so the self times of all spans inside a verdict partition its wall time.

Calls made inside the parallel explorer's worker processes are out of
reach: workers record into their own copy of the tracer, which is lost
when they exit.  The ``deep-paths`` traced run therefore also makes a
sequential pass, from which its layer times are taken.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import defaultdict
from typing import Callable, Dict, List

import repro.engine.explorer as explorer_mod
import repro.engine.parallel as parallel_mod
import repro.engine.results as results_mod
import repro.gil.semantics as semantics_mod
import repro.service.runner as runner_mod
import repro.testing.io as io_mod
from repro.engine.explorer import Explorer
from repro.engine.parallel import ParallelExplorer
from repro.gil.compile import CompiledProg
from repro.logic.simplify import Simplifier
from repro.logic.solver import Solver
from repro.memlib.blockoffset import BlockOffset
from repro.memlib.core import ProductPart, RenamedPart
from repro.memlib.freeable import Freeable, RecordProduct
from repro.memlib.metadata import MetadataTable
from repro.memlib.permissions import Permissions
from repro.memlib.proptable import PropTable
from repro.service.checkpoint import CheckpointManager
from repro.service.queue import DurableQueue
from repro.service.runner import JobRunner
from repro.service.store import GilStore, ResultStore
from repro.specs.engine import SummaryEngine
from repro.state.symbolic import SymbolicStateModel
from repro.targets.c_like import MiniCLanguage
from repro.targets.js_like import MiniJSLanguage
from repro.targets.rust_like import MiniRustLanguage
from repro.targets.rust_like.memory import OwnerTable
from repro.testing.harness import SymbolicTester

#: span name -> layer whose self time it counts towards
LAYER_OF = {
    "frontend.compile": "frontend",
    "gil.step": "gil",
    "state.execute_action": "state",
    "memlib.blockoffset": "memlib.blockoffset",
    "memlib.freeable": "memlib.freeable",
    # The Rust owner table is the record part of a Freeable store.
    "memlib.ownertable": "memlib.freeable",
    "memlib.proptable": "memlib.proptable",
    "memlib.metadata": "memlib.metadata",
    "memlib.permissions": "memlib.permissions",
    "memlib.combinators": "memlib.combinators",
    "logic.simplify": "logic.simplify",
    "solver.check": "logic.solver",
    "solver.check_batch": "logic.solver",
    "solver.get_model": "logic.solver",
    "engine.explore": "engine",
    "engine.explore_frontier": "engine",
    "parallel.explore": "engine.parallel",
    "parallel.wait": "engine.parallel",
    "parallel.merge": "engine.parallel",
    "specs.try_call": "specs",
    "specs.build": "specs",
    "specs.replay": "specs",
    "harness.run_test": "harness",
    "soundness.replay": "soundness",
    "service.queue": "service.queue",
    "service.gil_store": "service.gil_store",
    "service.result_store": "service.result_store",
    "service.checkpoint": "service.checkpoint",
    "service.runner": "service.runner",
}

#: the benchmark's own root span around one request and its verdict
VERDICT = "verdict"


class Tracer:
    """In-memory span recorder plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: id of the verdict in flight; -1 outside any request (set-up)
        self.verdict = -1
        self.fsyncs = 0
        self.bytes_written = 0
        self.task_bytes = 0
        self.gil_cmds = 0

    def wrap(self, fn: Callable, name: str, outermost: bool = False) -> Callable:
        """``fn`` recording one span per call.  With ``outermost``, calls
        nested inside another call of the same wrapper (recursion) run
        unrecorded, so the span covers the whole outer call once."""
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter
        depth = [0]

        def traced(*args, **kwargs):
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.verdict]
            stack.append(len(spans))
            spans.append(rec)
            depth[0] += 1
            rec[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                depth[0] -= 1
                stack.pop()

        return traced

    def begin_verdict(self, vid: int) -> list:
        """Open the root span of request ``vid``; spans recorded until
        :meth:`end_verdict` carry its id."""
        rec = [VERDICT, time.perf_counter(), 0.0, -1, vid]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.verdict = vid
        return rec

    def end_verdict(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()
        self.verdict = -1

    def _self_times(self) -> List[float]:
        """Each span's duration minus the durations of its children."""
        spans = self.spans
        own = [rec[2] - rec[1] for rec in spans]
        for rec in spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total`` (inclusive seconds) and
        ``self`` (seconds not covered by child spans), plus the same for
        the spans whose parent is a given span name, under
        ``"<name>/under:<parent name>"`` (used to split parallel seeding
        from sequential exploration)."""
        spans = self.spans
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total": 0.0, "self": 0.0}
        )
        for rec, own in zip(spans, self._self_times()):
            keys = [rec[0]]
            if rec[3] >= 0:
                keys.append(f"{rec[0]}/under:{spans[rec[3]][0]}")
            for key in keys:
                agg = out[key]
                agg["count"] += 1
                agg["total"] += rec[2] - rec[1]
                agg["self"] += own
        return dict(out)

    def coverage(self) -> float:
        """The share of verdict wall time spent inside a wrapped layer
        entry point: all but the verdict spans' own self time."""
        in_verdicts = attributed = 0.0
        for rec, own in zip(self.spans, self._self_times()):
            if rec[4] < 0:
                continue
            if rec[0] == VERDICT:
                in_verdicts += rec[2] - rec[1]
            else:
                attributed += own
        return attributed / in_verdicts if in_verdicts else 0.0


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point, for the rest of the process.

    Call it before any work, so that closures the program builds lazily
    (compiled steps, bound solver and memory methods) capture the
    wrappers.
    """
    wrap = tracer.wrap

    def method(cls, attr: str, name: str, outermost: bool = False) -> None:
        setattr(cls, attr, wrap(getattr(cls, attr), name, outermost))

    for lang in (MiniJSLanguage, MiniCLanguage, MiniRustLanguage):
        compile_fn = wrap(lang.compile, "frontend.compile")

        def counted_compile(self, source, _compile=compile_fn):
            prog = _compile(self, source)
            tracer.gil_cmds += sum(len(p.body) for p in prog.procs.values())
            return prog

        lang.compile = counted_compile

    method(CompiledProg, "step", "gil.step")
    traced_step = wrap(semantics_mod.step, "gil.step")
    semantics_mod.step = traced_step
    explorer_mod.step = traced_step

    method(SymbolicStateModel, "execute_action", "state.execute_action")
    for cls, name in (
        (BlockOffset, "memlib.blockoffset"),
        (Freeable, "memlib.freeable"),
        (OwnerTable, "memlib.ownertable"),
        (PropTable, "memlib.proptable"),
        (MetadataTable, "memlib.metadata"),
        (Permissions, "memlib.permissions"),
        (RecordProduct, "memlib.combinators"),
        (ProductPart, "memlib.combinators"),
        (RenamedPart, "memlib.combinators"),
    ):
        method(cls, "execute_symbolic", name)

    method(Simplifier, "simplify", "logic.simplify", outermost=True)
    method(Solver, "check", "solver.check")
    method(Solver, "check_batch", "solver.check_batch")
    method(Solver, "get_model", "solver.get_model")

    method(Explorer, "explore", "engine.explore")
    method(Explorer, "explore_frontier", "engine.explore_frontier")
    method(ParallelExplorer, "explore", "parallel.explore")
    method(ParallelExplorer, "_run_shards", "parallel.wait")
    traced_merge = wrap(results_mod.merge_results, "parallel.merge")
    for mod in (results_mod, parallel_mod, runner_mod):
        mod.merge_results = traced_merge

    class _CountingPickle:
        """``pickle`` as the parallel explorer sees it, counting the
        bytes of every task blob it ships to a worker."""

        loads = staticmethod(pickle.loads)

        @staticmethod
        def dumps(obj, *args, **kwargs):
            blob = pickle.dumps(obj, *args, **kwargs)
            if isinstance(obj, parallel_mod._WorkerTask):
                tracer.task_bytes += len(blob)
            return blob

    parallel_mod.pickle = _CountingPickle

    method(SummaryEngine, "try_call", "specs.try_call")
    method(SummaryEngine, "_summarize", "specs.build", outermost=True)
    method(SummaryEngine, "_replay", "specs.replay")
    method(SymbolicTester, "run_test", "harness.run_test")
    method(SymbolicTester, "replay_model", "soundness.replay")

    for attr in ("submit", "claim", "ack"):
        method(DurableQueue, attr, "service.queue")
    for attr in ("get", "put"):
        method(GilStore, attr, "service.gil_store")
        method(ResultStore, attr, "service.result_store")
    method(CheckpointManager, "save", "service.checkpoint")
    method(JobRunner, "run", "service.runner")

    real_fsync = os.fsync
    real_write = io_mod.atomic_write_bytes

    def counted_fsync(fd):
        tracer.fsyncs += 1
        return real_fsync(fd)

    def counted_write(path, data, fsync=True):
        tracer.bytes_written += len(data)
        return real_write(path, data, fsync=fsync)

    os.fsync = counted_fsync
    io_mod.atomic_write_bytes = counted_write
