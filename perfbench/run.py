"""Verdict-level benchmark of the symbolic execution engine.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: a request (one symbolic
test, or one job submitted to the analysis daemon) is sent, and the
next is sent only after its verdict arrives.

* ``tables``: the paper's Table 1/2/3 corpus (74 MiniJS Buckets, 161
  MiniC Collections and 18 MiniRust tests, 10 of them known bugs) with
  function summaries off: many small verdicts.
* ``tables-summaries``: the same 253 tests with summaries on, in verify
  mode; the only workload where the summary layer does work.
* ``deep-paths``: a seeded corpus (``deepgen.py``) over the MiniC
  Collections library run with 2 explorer workers: few large verdicts on
  deep path conditions; the only workload using the parallel explorer.
* ``service``: the 253 table tests submitted as jobs to one warm
  analysis daemon, a seeded third resubmitted after their verdict.

Every sweep starts in a fresh interpreter (``sweep.py``), so it pays
what a user's run pays: imports, building the corpus, compiling every
program (for ``service``: opening the daemon; jobs compile inside).  The
runner starts sweeps until ``--seconds`` have passed, then starts
set-up-only probes until it holds enough set-up samples.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
over sweeps and probes.  Every sweep of a run sends the same requests in
the same order, so the latency figures start from each request's fastest
latency over the sweeps: ``verdict_p50_ms`` and ``verdict_p95_ms`` are
quantiles of these, and ``verdicts_per_s`` is the requests of a sweep
divided by their sum.  These three are scaled to a fixed host speed: a
fixed pure-Python loop with no program code in it is timed between
requests throughout the run, and every latency is multiplied by
``REFERENCE_PROBE_S`` over the fastest tenth of those loop times.  A
change to the program moves them exactly as it moves wall time; a host
that runs everything slower for a while moves them much less.  The
unscaled figures are on the diagnostics line.  ``peak_rss_mb`` is the
largest resident set of the runner and every process it started,
explorer workers included.
``--trace 1`` pairs an untraced sweep with a traced one (``spans.py``)
until ``--seconds`` have passed and prints per-layer metrics: medians
over the traced sweeps for times, exact values for counts.

Every verdict is checked against its known answer.  The count-type
figures (GIL steps, solver queries and cache-tier hits, paths, summary
hits and misses, counter-model replays, memory actions, fsyncs) must
repeat exactly across the sweeps of a run, which use different
``PYTHONHASHSEED`` values; a difference makes the run incorrect.  A
fixed pure-Python loop is timed at the start and end of every run and
reported as ``host.ref_ms``, to tell a slow host from a regression.

The last line of standard output is the JSON result.  The script exits
with status 2, printing no result, when the checkout holds no program
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from sweep import reference_loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("tables", "tables-summaries", "deep-paths", "service")

#: set-up samples a run collects (sweeps first, then probes)
SETUP_SAMPLES = 7

#: no sweep may run longer than this many seconds
SWEEP_TIMEOUT = 150.0

#: the whole run stays under this many seconds
RUN_LIMIT = 170.0

#: explorer workers of the deep-paths workload
DEEP_WORKERS = 2

#: Verdict timings are reported as they would read on a host where one
#: host-speed reading (``sweep.PROBE_TURNS`` turns of the reference loop)
#: takes this long: about its fastest tenth on a shared 2-vCPU Xeon host
#: with little other load, when the 200,000-turn ``host.ref_ms`` read
#: 17.1-18.6 ms.
REFERENCE_PROBE_S = 1.8e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: units of the per-layer figures that are not seconds
LAYER_UNITS = {
    "frontend.gil_cmds": "count",
    "gil.steps": "count",
    "gil.fast_lane_share": "ratio",
    "state.actions": "count",
    "logic.simplify.calls": "count",
    "logic.solver.queries": "count",
    "logic.solver.cache_hits": "count",
    "logic.solver.prefix_hits": "count",
    "logic.solver.model_reuse": "count",
    "logic.solver.hit_rate": "ratio",
    "logic.solver.timeouts": "count",
    "engine.paths": "count",
    "engine.paths_dropped": "count",
    "engine.parallel.task_bytes": "bytes",
    "engine.parallel.requeries": "count",
    "specs.hits": "count",
    "specs.misses": "count",
    "specs.hit_rate": "ratio",
    "specs.build_commands": "count",
    "soundness.replays": "count",
    "soundness.confirmed_share": "ratio",
    "service.fsyncs": "count",
    "service.bytes_written": "bytes",
    "service.gil_hit_rate": "ratio",
    "service.result_hit_rate": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "host.ref_ms": "ms",
}


def reference_ms() -> float:
    """Median time of a fixed pure-Python loop that runs no program
    code: a host-speed reading taken beside every run."""
    return statistics.median(reference_loop(200_000) for _ in range(5)) * 1e3


class Runner:
    """Starts sweep processes and keeps what they report."""

    def __init__(self, workload: str, seed: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.spawned = 0
        self.errors: List[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT - (time.monotonic() - self.started)

    def sweep(self, *flags: str) -> List[dict]:
        """Run ``sweep.py`` once; returns its JSON records ([] on error)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + HERE
        # Every sweep hashes strings differently, so a count that depends
        # on hash order shows up as a tripwire difference.
        env["PYTHONHASHSEED"] = str(self.spawned)
        self.spawned += 1
        cmd = [
            sys.executable, os.path.join(HERE, "sweep.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--work", self.work, "--t0", repr(time.monotonic()), *flags,
        ]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(
                timeout=max(1.0, min(SWEEP_TIMEOUT, self.remaining()))
            )
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.errors.append(f"sweep {' '.join(flags)} timed out")
            return []
        finally:
            # The sweep's own workers are in its process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-3:]
            self.errors.append(f"sweep exited {proc.returncode}: {' | '.join(tail)}")
            return []
        return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def exact_counts_agree(counts: List[dict], what: str, errors: List[str]) -> None:
    """The tripwire: every sweep reported the same ``counts``."""
    for other in counts[1:]:
        diff = {
            k: (counts[0].get(k), other.get(k))
            for k in set(counts[0]) | set(other)
            if counts[0].get(k) != other.get(k)
        }
        if diff:
            errors.append(f"{what} differ between sweeps: {diff}")
            return


def fastest_latencies(sweeps: List[dict]) -> List[float]:
    """Each request's fastest latency over the run's sweeps.

    Every sweep of a run sends the same requests in the same order and
    does the same work (the tripwire checks it), so the i-th latency of
    each sweep times the same verdict.  Other load on a shared host only
    ever adds time to a verdict, and it comes in bursts of a second or
    so; the fastest repeat of a request is the one least disturbed.  On
    a shared 2-vCPU host, ten 20-s runs of the 253 table tests with
    summaries off gave verdicts_per_s an interquartile spread of 0.16 of
    the median from per-request medians and 0.03 from these minima.
    """
    return [min(column) for column in zip(*(s["latencies"] for s in sweeps))]


def sweeps_of(records: List[dict]) -> List[dict]:
    """The sweep records among a process's output (not set-up lines)."""
    return [r for r in records if "latencies" in r]


def time_left(runner: Runner, seconds: float, last: float) -> bool:
    """Whether another step of ``last`` seconds should start: the run
    then ends within half a step of ``seconds``."""
    return time.monotonic() - runner.started + last / 2 < seconds


def measure(runner: Runner, seconds: float) -> Optional[dict]:
    """Untraced sweeps for ``seconds``, then set-up probes."""
    setups: List[float] = []
    sweeps: List[dict] = []
    flags = ["--workers", str(DEEP_WORKERS)]
    if runner.workload == "service":
        budget = seconds - (time.monotonic() - runner.started)
        records = runner.sweep(*flags, "--until", repr(budget))
        setups += [r["setup_s"] for r in records if "setup_s" in r]
        sweeps += sweeps_of(records)
    else:
        last = 0.0
        while not sweeps or time_left(runner, seconds, last):
            began = time.monotonic()
            # Summaries-on sweeps are checked once per run against the
            # summaries-off verdicts (after the timed part).
            reference = runner.workload == "tables-summaries" and not sweeps
            records = runner.sweep(*flags, *(["--reference"] if reference else []))
            if not records:
                break
            setups.append(records[0]["setup_s"])
            sweeps.append(records[0])
            last = time.monotonic() - began
    if not sweeps:
        return None
    while len(setups) < SETUP_SAMPLES and runner.remaining() > 30:
        records = runner.sweep(*flags, "--probe")
        if not records:
            break
        setups.append(records[0]["setup_s"])

    exact_counts_agree([s["counts"] for s in sweeps], "counts", runner.errors)
    fastest = fastest_latencies(sweeps)
    probe_s = host_speed(sweeps)
    latencies = [t * REFERENCE_PROBE_S / probe_s for t in fastest]
    metrics = {
        "setup_s": statistics.median(setups),
        **verdict_figures(latencies),
        "peak_rss_mb": peak_rss_kb() / 1024.0,
    }
    return {
        "metrics": metrics,
        "sweeps": sweeps,
        "diagnostics": {
            "sweeps": len(sweeps),
            "requests_per_sweep": len(latencies),
            "sweep_measured_s": [s["measured_s"] for s in sweeps],
            "setup_samples": len(setups),
            "host_probe_ms": probe_s * 1e3,
            "host_probes": sum(len(s["host"]) for s in sweeps),
            "unscaled": verdict_figures(fastest),
        },
    }


def verdict_figures(latencies: List[float]) -> Dict[str, float]:
    """Throughput and latency quantiles of one latency per request."""
    return {
        "verdicts_per_s": len(latencies) / sum(latencies),
        "verdict_p50_ms": statistics.median(latencies) * 1e3,
        # Inclusive quantiles never reach past the slowest request, which
        # matters on deep-paths, where a sweep holds only 10 verdicts.
        "verdict_p95_ms": statistics.quantiles(latencies, n=20, method="inclusive")[18] * 1e3,
    }


def host_speed(sweeps: List[dict]) -> float:
    """The run's host-speed reading: the fastest tenth of the reference
    loop times taken between its requests.

    The host also slows down for a minute or more at a time, so some runs
    find no undisturbed moment for most requests; their fastest repeats
    are slow, and so are the loop times taken beside them.  A request's
    fastest of about ten repeats sits near the fastest tenth of its
    times, which is why the loop is read at the same fraction.
    """
    return statistics.quantiles(
        [t for s in sweeps for t in s["host"]], n=10, method="inclusive"
    )[0]


#: layer counts taken from spans, which must agree between traced sweeps
EXACT_LAYER = (
    "frontend.gil_cmds",
    "state.actions",
    "logic.simplify.calls",
    "soundness.replays",
    "service.fsyncs",
)

#: layer figures measured on the parallel pass of deep-paths
PARALLEL_LAYER = (
    "engine.parallel.seed_s",
    "engine.parallel.wait_s",
    "engine.parallel.merge_s",
    "engine.parallel.task_bytes",
)


def trace(runner: Runner, seconds: float) -> Optional[dict]:
    """Untraced/traced sweep pairs for ``seconds`` (at least one pair).

    ``deep-paths`` adds a traced sequential sweep to each pair: its
    parallel workers are out of the wrappers' reach, so the layer times
    and span counts come from the sequential sweep, the parallel figures
    and engine counters from the traced parallel one.
    """
    untraced: List[dict] = []
    traced: List[dict] = []
    sequential: List[dict] = []
    flags = ["--workers", str(DEEP_WORKERS)]
    if runner.workload == "service":
        flags += ["--until", "0"]
    last = 0.0
    while not traced or time_left(runner, seconds, last):
        began = time.monotonic()
        reference = runner.workload == "tables-summaries" and not untraced
        plain = sweeps_of(runner.sweep(*flags, *(["--reference"] if reference else [])))
        spans = sweeps_of(runner.sweep(*flags, "--trace"))
        if not plain or not spans:
            break
        if runner.workload == "deep-paths":
            seq = sweeps_of(runner.sweep("--workers", "1", "--trace"))
            if not seq:
                break
            sequential += seq
        untraced += plain
        traced += spans
        last = time.monotonic() - began
    if not traced:
        return None
    errors = runner.errors
    exact_counts_agree([r["counts"] for r in untraced + traced], "counts", errors)
    layered = sequential or traced
    exact_counts_agree(
        [{k: r["layers"][k] for k in EXACT_LAYER} for r in layered], "span counts", errors
    )
    metrics: Dict[str, float] = {}
    for key, value in traced[0]["layers"].items():
        if LAYER_UNITS.get(key) in ("count", "ratio", "bytes"):
            metrics[key] = value
        else:
            metrics[key] = statistics.median(r["layers"][key] for r in layered)
    for key in EXACT_LAYER:
        metrics[key] = layered[0]["layers"][key]
    metrics["trace.coverage"] = statistics.median(
        r["layers"]["trace.coverage"] for r in layered
    )
    metrics["engine.parallel.requeries"] = 0
    if sequential:
        for key in PARALLEL_LAYER:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        metrics["engine.parallel.requeries"] = (
            traced[0]["counts"]["solver_queries"]
            - sequential[0]["counts"]["solver_queries"]
        )

    def rate(runs: List[dict]) -> float:
        return statistics.median(len(r["latencies"]) / r["measured_s"] for r in runs)

    metrics["trace.overhead"] = rate(untraced) / rate(traced)
    return {
        "metrics": metrics,
        "sweeps": untraced + traced + sequential,
        "diagnostics": {"pairs": len(traced)},
    }


def peak_rss_kb() -> int:
    """Largest resident set of this process and every process it
    started (the kernel folds reaped grandchildren in)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"no program sources under {SRC}; run from a checkout\n")
        return 2

    ref_start = reference_ms()
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    runner = Runner(args.workload, args.seed, work)
    try:
        if args.trace:
            outcome = trace(runner, args.seconds)
        else:
            outcome = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if outcome is None:
        sys.stderr.write("no sweep completed:\n" + "\n".join(runner.errors) + "\n")
        return 1
    ref_end = reference_ms()

    sweeps = outcome["sweeps"]
    failures = [f for s in sweeps for f in s["failures"]]
    attempted = sum(s["attempted"] for s in sweeps)
    metrics = outcome["metrics"]
    if args.trace:
        metrics["host.ref_ms"] = (ref_start + ref_end) / 2
        units = {k: LAYER_UNITS.get(k, "s") for k in metrics}
    else:
        units = END_TO_END_UNITS
    diagnostics = dict(outcome["diagnostics"])
    diagnostics.update({
        "host.ref_ms": (ref_start + ref_end) / 2,
        "host.ref_ms_start": ref_start,
        "host.ref_ms_end": ref_end,
        "errors": runner.errors,
        "failures": failures[:20],
    })
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": not failures and not runner.errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
