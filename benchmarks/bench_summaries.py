"""Compositional-execution benchmark: function summaries on real suites.

Runs the Table 1 (Buckets-style MiniJS) and Table 2 (Collections-C-style
MiniC) symbolic-testing workloads through the summary engine
(:mod:`repro.specs`) and reports, per suite and per table:

* **call-site reduction** — the commands an inline descent of every
  summarised call would have executed (the summary's recorded build
  cost, accumulated per replay) versus the commands replay actually
  executed (one per served call).  This is the compositional win: the
  ≥10× acceptance gate is on this ratio, aggregated per table;
* **whole-run reduction** — total commands executed by the warm run
  (including any residual build cost) versus the summaries-off run.
  Smaller, since entry-procedure commands are never summarised;
* **cold vs warm** — the first summaries-on pass pays the one-time
  summarisation cost (``summary_build_commands``); the second pass must
  replay everything from the process-wide cache with **zero** build
  commands;
* a **correctness grid** — summaries-on/off × workers 1/2/4 must agree
  on the per-test multiset of final outcomes (digested via
  :func:`repro.engine.results.final_sort_key`).  The grid runs on the
  smoke subset (the full-suite identity is additionally checked
  sequentially in full mode);
* an **incorrectness section** — :func:`repro.specs.find_bugs` hunts
  the first suite of each table with under-approximate summaries; every
  reported bug must be confirmed true-positive by concrete
  counter-model replay (no false positives, per the ISL reading).

Emits ``BENCH_summaries.json`` next to the repository root.  The
``--smoke`` mode runs a subset (first two suites per table), performs
the same grid/identity assertions with a lower reduction floor, and
writes nothing — it is the CI guard wired into ``make verify``.

Run with::

    PYTHONPATH=src:. python benchmarks/bench_summaries.py [--smoke]
"""

from __future__ import annotations

import itertools
import os
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.engine.config import EngineConfig, gillian
from repro.engine.explorer import Explorer
from repro.engine.parallel import ParallelExplorer
from repro.engine.results import final_sort_key
from repro.logic.simplify import shared_simplifier
from repro.logic.solver import Solver
from repro.specs import find_bugs
from repro.specs.cache import clear_summary_cache
from repro.state.symbolic import SymbolicStateModel
from repro.testing.io import atomic_write_json

from benchmarks.bench_strategies import workloads
from benchmarks.tables import bench_meta

OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_summaries.json",
)

#: the acceptance gate: commands an inline descent of every summarised
#: call would execute, per command replay actually executed, aggregated
#: per table.  Command counts are deterministic, so this is exact, not
#: a timing measurement.
FULL_CALLSITE_REDUCTION_FLOOR = 10.0

#: the smoke subset (two suites per table) reaches less reuse depth than
#: the full tables; the gate there is a tripwire for a disengaged
#: engine, not the headline number.
SMOKE_CALLSITE_REDUCTION_FLOOR = 3.0


def _state_model(language, config: EngineConfig) -> SymbolicStateModel:
    """A fresh stock symbolic state model, mirroring the test harness."""
    simplifier = shared_simplifier(
        enabled=True, memoise=config.simplifier_memoisation
    )
    solver = Solver(
        simplifier=simplifier,
        cache_enabled=config.solver_cache,
        incremental=config.solver_incremental,
        step_budget=config.solver_step_budget,
    )
    return SymbolicStateModel(
        language.symbolic_memory(),
        solver=solver,
        unknown_policy=config.unknown_policy,
    )


def run_pass(
    suites: List[tuple], config: EngineConfig, workers: int = 1
) -> Tuple[Dict[str, list], Dict[str, int]]:
    """One pass of every suite test under ``config``.

    Returns per-test finals digests (keyed ``suite::test``) and the
    aggregated command/summary counters.
    """
    digests: Dict[str, list] = {}
    agg = {
        "commands": 0,
        "build_commands": 0,
        "hits": 0,
        "misses": 0,
        "replays": 0,
        "commands_saved": 0,
        "paths": 0,
    }
    for language, name, prog, tests in suites:
        for entry in tests:
            sm = _state_model(language, config)
            if workers > 1:
                explorer = ParallelExplorer(
                    prog, sm, config, workers=workers
                )
            else:
                explorer = Explorer(prog, sm, config)
            result = explorer.run(entry)
            digests[f"{name}::{entry}"] = sorted(
                final_sort_key(f) for f in result.finals
            )
            stats = result.stats
            agg["commands"] += stats.commands_executed
            agg["build_commands"] += stats.summary_build_commands
            agg["hits"] += stats.summary_hits
            agg["misses"] += stats.summary_misses
            agg["replays"] += stats.summary_replays
            agg["commands_saved"] += stats.summary_commands_saved
            agg["paths"] += stats.paths_finished
    return digests, agg


def _reductions(off: Dict[str, int], warm: Dict[str, int]) -> Dict[str, float]:
    """The two reduction ratios for one off/warm measurement pair."""
    replays = max(warm["replays"], 1)
    return {
        "callsite_reduction": round(
            (warm["commands_saved"] + warm["replays"]) / replays, 2
        ),
        "whole_run_reduction": round(
            off["commands"]
            / max(warm["commands"] + warm["build_commands"], 1),
            2,
        ),
    }


def measure_tables(suites: List[tuple]) -> Tuple[Dict, bool]:
    """off/cold/warm command counts per suite, aggregated per table.

    The summaries-off and warm digests must agree per test (the finals
    identity for the sequential run over the *whole* workload,
    not just the grid subset).
    """
    per_suite: Dict[str, Dict] = {}
    tables: Dict[str, Dict[str, Dict[str, int]]] = {}
    identical = True
    for suite in suites:
        _, name, _, _ = suite
        off_digests, off = run_pass([suite], gillian(summaries=False))
        clear_summary_cache()
        _, cold = run_pass([suite], gillian(summaries=True))
        warm_digests, warm = run_pass([suite], gillian(summaries=True))
        clear_summary_cache()
        if off_digests != warm_digests:
            identical = False
        per_suite[name] = {
            "tests": len(off_digests),
            "off_commands": off["commands"],
            "cold_commands": cold["commands"],
            "cold_build_commands": cold["build_commands"],
            "warm_commands": warm["commands"],
            "warm_build_commands": warm["build_commands"],
            "warm_replays": warm["replays"],
            "warm_commands_saved": warm["commands_saved"],
            "paths": off["paths"],
            **_reductions(off, warm),
        }
        table = name.split("/", 1)[0]
        bucket = tables.setdefault(
            table, {"off": {"commands": 0, "paths": 0},
                    "warm": {"commands": 0, "build_commands": 0,
                             "replays": 0, "commands_saved": 0}}
        )
        bucket["off"]["commands"] += off["commands"]
        bucket["off"]["paths"] += off["paths"]
        for key in bucket["warm"]:
            bucket["warm"][key] += warm[key]
    per_table = {
        table: {
            "off_commands": b["off"]["commands"],
            "warm_commands": b["warm"]["commands"],
            "warm_replays": b["warm"]["replays"],
            "warm_commands_saved": b["warm"]["commands_saved"],
            **_reductions(b["off"], b["warm"]),
        }
        for table, b in tables.items()
    }
    return {
        "suites": per_suite,
        "tables": per_table,
        "digests_identical": identical,
    }, identical


def digest_grid(suites: List[tuple]) -> Tuple[Dict, bool]:
    """Finals identity across summaries on/off × workers 1/2/4.

    Every arm runs the same workload; the per-test digests must be one
    multiset, whatever the cache state or worker count.
    """
    arms = []
    reference = None
    identical = True
    for summaries, workers in itertools.product((True, False), (1, 2, 4)):
        clear_summary_cache()
        config = gillian(summaries=summaries)
        digests, _ = run_pass(suites, config, workers=workers)
        label = f"summaries={'on' if summaries else 'off'}/workers={workers}"
        if reference is None:
            reference = digests
        elif digests != reference:
            identical = False
        arms.append(label)
    clear_summary_cache()
    return {
        "arms": arms,
        "tests": len(reference or {}),
        "identical": identical,
    }, identical


def incorrectness_section(suites: List[tuple]) -> Tuple[Dict, bool]:
    """Bug hunting with under-approximate summaries, first suite per table.

    Every bug the incorrectness arm reports must carry a concrete
    counter-model whose replay reproduces the error — the no-false-
    positives half of the ISL contract.
    """
    first_per_table: Dict[str, tuple] = {}
    for suite in suites:
        table = suite[1].split("/", 1)[0]
        first_per_table.setdefault(table, suite)
    section: Dict[str, Dict] = {}
    all_confirmed = True
    for table, (language, name, prog, tests) in first_per_table.items():
        clear_summary_cache()
        bugs = confirmed = replays = 0
        for entry in tests:
            report = find_bugs(language, prog, entry)
            bugs += len(report.bugs)
            confirmed += len(report.confirmed)
            replays += report.stats.summary_replays
            if not report.all_confirmed:
                all_confirmed = False
        section[name] = {
            "tests": len(tests),
            "bugs": bugs,
            "confirmed": confirmed,
            "summary_replays": replays,
            "all_confirmed": bugs == confirmed,
        }
    clear_summary_cache()
    return section, all_confirmed


def main(argv: List[str]) -> int:
    """Entry point: measure, assert the gates, emit the JSON report."""
    smoke = "--smoke" in argv
    floor = (
        SMOKE_CALLSITE_REDUCTION_FLOOR if smoke
        else FULL_CALLSITE_REDUCTION_FLOOR
    )
    suites = [
        (language, name, language.compile(source), tests)
        for language, name, source, tests in workloads(smoke)
    ]
    grid_suites = suites if smoke else [
        (language, name, prog, tests)
        for language, name, prog, tests in suites
        if name.endswith(("/array", "/bag", "/deque"))
    ]

    measurement, seq_identical = measure_tables(suites)
    grid, grid_identical = digest_grid(grid_suites)
    incorrectness, all_confirmed = incorrectness_section(suites)

    floors_ok = True
    for table, row in measurement["tables"].items():
        ok = row["callsite_reduction"] >= floor
        floors_ok = floors_ok and ok
        print(
            f"{table}: call-site reduction {row['callsite_reduction']}x "
            f"(floor {floor}x: {'ok' if ok else 'FAILED'}), "
            f"whole-run {row['whole_run_reduction']}x"
        )
    print(f"finals identity (sequential, full workload): "
          f"{'ok' if seq_identical else 'FAILED'}")
    print(f"finals identity (grid, {len(grid['arms'])} arms): "
          f"{'ok' if grid_identical else 'FAILED'}")
    print(f"incorrectness bugs all confirmed: "
          f"{'ok' if all_confirmed else 'FAILED'}")

    passed = floors_ok and seq_identical and grid_identical and all_confirmed
    if not smoke:
        report = {
            "benchmark": "bench_summaries",
            "meta": bench_meta(),
            "workload": "table1 (MiniJS/Buckets) + table2 (MiniC/Collections)",
            "measurement": measurement,
            "grid": grid,
            "incorrectness": incorrectness,
            "acceptance": {
                "target": (
                    f"call-site reduction >= {floor}x per table; identical "
                    f"finals digests across summaries-on/off x "
                    f"workers 1/2/4; every "
                    f"incorrectness bug confirmed by concrete replay"
                ),
                "passed": passed,
            },
        }
        atomic_write_json(OUT_PATH, report, indent=2)
        print(f"wrote {OUT_PATH}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
