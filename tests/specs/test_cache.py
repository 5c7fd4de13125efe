"""Tests for the two-level summary cache and its integrity story
(repro.specs.cache): memory/disk levels, promotion, and corrupt-entry
eviction — a damaged summary is recomputed, reported, and never served.

Mirrors the tests/service/test_store.py corruption suite at the summary
layer: the disk level reuses the same checked-frame machinery.
"""

import glob
import os

from repro.engine.config import EngineConfig
from repro.engine.events import EventBus, SummaryHit, SummaryMiss
from repro.engine.explorer import Explorer
from repro.engine.results import final_sort_key
from repro.gil.syntax import Call, IfGoto, ISym, Proc, Prog, Return
from repro.logic.expr import Lit, PVar
from repro.specs.cache import SummaryCache, clear_summary_cache
from repro.specs.summary import Summary
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import WhileSymbolicMemory

KEY = "a" * 64

SUMMARY = Summary(proc="f", params=("a",), paths=(), complete=True, commands=5)


def prog_of(*procs):
    p = Prog()
    for proc in procs:
        p.add(proc)
    return p


PROG = prog_of(
    Proc("helper", ("a",), (
        IfGoto(PVar("a").lt(Lit(2)), 2),
        Return(PVar("a") * Lit(10)),
        Return(PVar("a") + Lit(1)),
    )),
    Proc("main", (), (
        ISym("x", "s0"),
        Call("r", Lit("helper"), (PVar("x"),)),
        Return(PVar("r")),
    )),
)


def digest(result):
    return sorted(final_sort_key(f) for f in result.finals)


def run(events=None, **overrides):
    cfg = EngineConfig(summaries=True, **overrides)
    sm = SymbolicStateModel(WhileSymbolicMemory())
    return Explorer(PROG, sm, cfg, events=events).run("main")


class TestLevels:
    def test_memory_level_is_process_wide(self):
        SummaryCache().put(KEY, SUMMARY)
        assert SummaryCache().get(KEY) is SUMMARY
        assert SummaryCache().source_of(KEY) == "memory"
        clear_summary_cache()
        assert SummaryCache().get(KEY) is None
        assert SummaryCache().source_of(KEY) == "cold"

    def test_disk_roundtrip_and_promotion(self, tmp_path):
        SummaryCache(str(tmp_path)).put(KEY, SUMMARY)
        clear_summary_cache()
        cache = SummaryCache(str(tmp_path))
        assert cache.source_of(KEY) == "disk"
        loaded = cache.get(KEY)
        assert loaded == SUMMARY
        # The disk hit was promoted into the memory level.
        assert cache.source_of(KEY) == "memory"

    def test_memoryless_cache_misses_after_clear(self):
        SummaryCache().put(KEY, SUMMARY)
        clear_summary_cache()
        assert SummaryCache().get(KEY) is None

    def test_foreign_payload_deleted(self, tmp_path):
        from repro.service.store import SummaryStore

        SummaryStore(str(tmp_path)).put(KEY, {"not": "a summary"})
        cache = SummaryCache(str(tmp_path))
        assert cache.get(KEY) is None
        assert not SummaryStore(str(tmp_path)).contains(KEY)


def _corrupt_entries(root):
    """Flip one byte in every stored summary frame under ``root``."""
    paths = glob.glob(os.path.join(root, "*.bin"))
    assert paths, "expected at least one persisted summary"
    for path in paths:
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        open(path, "wb").write(bytes(blob))
    return paths


class TestCorruption:
    def test_torn_frame_evicted_and_reported(self, tmp_path):
        seen = []
        cache = SummaryCache(
            str(tmp_path), on_corrupt=lambda k, r: seen.append((k, r))
        )
        cache.put(KEY, SUMMARY)
        clear_summary_cache()
        _corrupt_entries(str(tmp_path))

        assert cache.get(KEY) is None                      # never served
        assert cache.source_of(KEY) == "cold"              # evicted
        assert len(seen) == 1 and seen[0][0] == KEY

    def test_engine_recomputes_after_corruption(self, tmp_path):
        base = digest(run(summary_dir=str(tmp_path)))
        clear_summary_cache()
        _corrupt_entries(str(tmp_path))

        bus = EventBus()
        events = []
        bus.subscribe(events.append, kinds=(SummaryHit, SummaryMiss))
        again = run(events=bus, summary_dir=str(tmp_path))

        # The damaged entry was detected on read, reported as a
        # "corrupt" miss on the bus, and the summary recomputed —
        # results unchanged, nothing served from the torn frame.
        assert digest(again) == base
        reasons = [e.reason for e in events if isinstance(e, SummaryMiss)]
        assert "corrupt" in reasons
        assert not any(isinstance(e, SummaryHit) for e in events)

        # The recompute re-put a valid entry: a third run (cold memory)
        # hits disk.
        clear_summary_cache()
        bus2 = EventBus()
        hits = []
        bus2.subscribe(hits.append, kinds=(SummaryHit,))
        third = run(events=bus2, summary_dir=str(tmp_path))
        assert digest(third) == base
        assert hits and hits[0].source == "disk"

    def test_corruption_counted_on_engine(self, tmp_path):
        run(summary_dir=str(tmp_path))
        clear_summary_cache()
        _corrupt_entries(str(tmp_path))
        cfg = EngineConfig(summaries=True, summary_dir=str(tmp_path))
        sm = SymbolicStateModel(WhileSymbolicMemory())
        explorer = Explorer(PROG, sm, cfg)
        explorer.run("main")
        assert explorer._summaries.counters.corrupt_evictions >= 1
