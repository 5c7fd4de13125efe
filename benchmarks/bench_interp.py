"""Interpreter benchmark: throughput of the GIL stepper on Tables 1/2.

Runs the Table 1 (Buckets-style MiniJS) and Table 2 (Collections-C-style
MiniC) symbolic-testing workloads through the engine's one stepper, the
tree-walking interpreter (:func:`repro.gil.semantics.step`), and
reports:

* throughput (paths/sec and commands/sec over engine wall time), the
  median over repeats, with every repeat's wall time and the spread;
* a **repeat identity check**: every repeat must finish the same number
  of paths and execute the same number of commands on every suite (a
  cheap determinism tripwire; the bit-exact finals comparisons live in
  the differential fuzz suites).

An untimed first pass warms the simplifier memos, so the repeats measure
the steady state.

A full run writes ``BENCH_interp.json`` next to the repository root.
``--smoke`` runs a reduced workload (first two suites per table, one
repeat), prints the same figures and writes nothing; ``make bench-gate``
/ ``make verify`` use it.  ``--gate`` fails the run if throughput falls
below :data:`SMOKE_PATHS_PER_SEC_FLOOR`.

Run with::

    PYTHONPATH=src:. python benchmarks/bench_interp.py [--smoke] [--gate]
"""

from __future__ import annotations

import os
import statistics
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.engine.config import gillian
from repro.testing.io import atomic_write_json
from repro.testing.harness import SymbolicTester

from benchmarks.bench_strategies import workloads
from benchmarks.tables import bench_meta

OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_interp.json",
)

#: paths/sec the workload must sustain for ``--gate`` to pass.
#: Deliberately far below typical throughput (hundreds of paths/sec on
#: an idle machine): the gate is a tripwire for order-of-magnitude
#: regressions — an accidentally quadratic hot path, a disabled cache —
#: not a micro-benchmark; shared CI machines routinely show 2×
#: wall-clock swings between consecutive runs.
SMOKE_PATHS_PER_SEC_FLOOR = 40.0

FULL_REPEATS = 3


def compiled_workloads(smoke: bool) -> List[tuple]:
    """(language, suite name, prog, tests) with each program compiled
    once, outside the timed passes."""
    return [
        (language, name, language.compile(source), tests)
        for language, name, source, tests in workloads(smoke)
    ]


def run_pass(suites: List[tuple]) -> Dict:
    """One pass of every workload suite; engine wall time and counts."""
    config = gillian()
    agg = {"paths": 0, "commands": 0, "wall_time": 0.0, "suites": {}}
    for language, name, prog, tests in suites:
        tester = SymbolicTester(language, config=config, replay=False)
        suite = {"paths": 0, "commands": 0}
        for test in tests:
            stats = tester.run_test(prog, test).stats
            agg["wall_time"] += stats.wall_time
            suite["paths"] += stats.paths_finished
            suite["commands"] += stats.commands_executed
        agg["paths"] += suite["paths"]
        agg["commands"] += suite["commands"]
        agg["suites"][name] = suite
    return agg


def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    gate = "--gate" in argv
    mode = "smoke" if smoke else "full"
    repeats = 1 if smoke else FULL_REPEATS
    print(f"== bench_interp ({mode}) ==")

    suites = compiled_workloads(smoke)
    run_pass(suites)  # untimed warm-up
    runs = [run_pass(suites) for _ in range(repeats)]

    first = runs[0]
    identical = all(r["suites"] == first["suites"] for r in runs)
    walls = [r["wall_time"] for r in runs]
    wall = statistics.median(walls)
    paths_per_sec = round(first["paths"] / wall, 1) if wall else 0.0
    commands_per_sec = round(first["commands"] / wall, 1) if wall else 0.0
    spread = round((max(walls) - min(walls)) / wall, 4) if wall else 0.0
    floor_met = paths_per_sec >= SMOKE_PATHS_PER_SEC_FLOOR
    print(
        f"paths/sec={paths_per_sec:8.1f} commands/sec={commands_per_sec:10.1f} "
        f"median wall={wall:.3f}s spread={spread:.1%} over {repeats} repeat(s)"
    )
    if not identical:
        print("!! repeats finished different paths/commands per suite")

    if not smoke:
        report = {
            "benchmark": "bench_interp",
            "meta": bench_meta(),
            "mode": mode,
            "workload": "table1 (MiniJS/Buckets) + table2 (MiniC/Collections)",
            "paths": first["paths"],
            "commands": first["commands"],
            "suites": first["suites"],
            "repeats": repeats,
            "wall_time_s": [round(w, 4) for w in walls],
            "paths_per_sec": paths_per_sec,
            "commands_per_sec": commands_per_sec,
            "spread": spread,
            "repeats_identical": identical,
            "gate": {
                "smoke_paths_per_sec_floor": SMOKE_PATHS_PER_SEC_FLOOR,
                "floor_met": floor_met,
            },
            "acceptance": {
                "target": "identical paths/commands per suite on every "
                f"repeat; >= {SMOKE_PATHS_PER_SEC_FLOOR:.0f} paths/sec",
                "passed": identical and floor_met,
            },
        }
        atomic_write_json(OUT_PATH, report, indent=2)
        print(f"wrote {OUT_PATH}")
    if not identical:
        return 1
    if gate and not floor_met:
        print(
            f"bench-gate: throughput {paths_per_sec:.1f} paths/sec is below "
            f"the recorded floor {SMOKE_PATHS_PER_SEC_FLOOR:.1f}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
