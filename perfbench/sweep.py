"""One sweep of one benchmark workload, in a fresh interpreter.

The runner (``run.py``) starts this script once per sweep, so every
sweep begins where a user's run begins: nothing imported, nothing
compiled, empty process-wide simplifier and summary caches.  Set-up is
timed from the runner's clock reading just before the interpreter was
started (``--t0``, a ``time.monotonic`` value, which is system-wide on
Linux) until the first request is ready.  The sweep then sends one
request at a time and waits for its verdict (a closed loop with one
client), checks every verdict against its known answer, and prints one
JSON line per sweep.  Between requests, at most every ``PROBE_EVERY_S``,
it times a fixed pure-Python loop that runs no program code; the runner
scales the verdict timings by these host-speed readings.

``service`` is the exception to one-sweep-per-interpreter: one warm
daemon process runs sweeps until ``--until`` seconds have passed, each
sweep against a fresh service root.

With ``--trace`` the layer wrappers of ``spans.py`` are installed before
any work and the sweep also reports per-layer figures.  With
``--probe`` the script stops once set-up is done.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time
from typing import Dict, List, Tuple

BUG = "bug"
CLEAN = "bounded-verified"

#: (service language name, suites module, language class name); the
#: paper's Table 1 (MiniJS Buckets), Table 2 (MiniC Collections) and
#: Table 3 (MiniRust) corpora
TABLES = (
    ("minijs", "repro.targets.js_like.buckets.suites", "MiniJSLanguage"),
    ("minic", "repro.targets.c_like.collections.suites", "MiniCLanguage"),
    ("rust", "repro.targets.rust_like.collections.suites", "MiniRustLanguage"),
)


def table_corpus(seed: int) -> List[Tuple[str, str, List[Tuple[str, str]]]]:
    """The 253 table tests as suites ``(language, source, [(entry,
    expected verdict)])``.  The seed shuffles the suite order and the test
    order inside each suite, the way a randomising test runner would."""
    import importlib

    rng = random.Random(seed)
    suites = []
    for language, module_name, _ in TABLES:
        module = importlib.import_module(module_name)
        for name in module.suite_names():
            source, tests = module.suite(name)
            expected = [
                (t, BUG if t in module.KNOWN_BUG_TESTS else CLEAN) for t in tests
            ]
            rng.shuffle(expected)
            suites.append((language, source, expected))
    rng.shuffle(suites)
    return suites


def _language(name: str):
    import repro

    return getattr(repro, dict((t[0], t[2]) for t in TABLES)[name])()


#: turns of the reference loop in one host-speed reading
PROBE_TURNS = 20_000

#: a host-speed reading is taken between requests at most this often (s)
PROBE_EVERY_S = 0.1


def reference_loop(turns: int) -> float:
    """Seconds a fixed pure-Python loop, which runs no program code,
    takes on this host now."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(turns):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - start


class Sweep:
    """Timings, counts and oracle failures of one sweep."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.counts: Dict[str, int] = {}
        #: (entry, verdict, finished paths) per request, in request order
        #: (test names repeat across suites, so position identifies a test)
        self.outcomes: List[Tuple[str, str, int]] = []
        self.measured_s = 0.0
        #: host-speed readings taken between the requests
        self.host: List[float] = []
        self._next_probe = 0.0

    def probe_host(self) -> None:
        """Time the reference loop between two requests, at most every
        ``PROBE_EVERY_S``: the host's speed at the moments requests ran."""
        if time.perf_counter() >= self._next_probe:
            self.host.append(reference_loop(PROBE_TURNS))
            self._next_probe = time.perf_counter() + PROBE_EVERY_S

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def add_stats(self, stats: dict) -> None:
        """Fold one verdict's ``ExecutionStats.to_dict()`` into the
        exact counts (the tripwire compares them across sweeps)."""
        for key in (
            "commands_executed",
            "fast_lane_steps",
            "paths_finished",
            "paths_dropped",
            "solver_queries",
            "solver_cache_hits",
            "solver_prefix_hits",
            "solver_model_reuse",
            "summary_hits",
            "summary_misses",
            "summary_build_commands",
        ):
            self.add(key, stats[key])
        self.add("solver_timeouts", stats["incompleteness"]["solver_timeouts"])

    def check(self, name: str, got: str, expected: str) -> None:
        if got != expected:
            self.failures.append(f"{name}: verdict {got}, expected {expected}")

    def as_dict(self) -> dict:
        return {
            "latencies": self.latencies,
            "measured_s": self.measured_s,
            "attempted": len(self.latencies),
            "failures": self.failures,
            "counts": self.counts,
            "host": self.host,
        }


# -- in-process workloads: tables, tables-summaries, deep-paths ---------------


def prepare_tables(seed: int, summaries: bool):
    """Compile every table suite and build one tester per suite."""
    from repro.engine.config import EngineConfig
    from repro.testing.harness import SymbolicTester

    requests = []
    for language, source, expected in table_corpus(seed):
        lang = _language(language)
        prog = lang.compile(source)
        tester = SymbolicTester(lang, config=EngineConfig(summaries=summaries))
        requests += [(tester, prog, entry, want) for entry, want in expected]
    return requests


def prepare_deep(seed: int, workers: int):
    """Compile the Collections library with the generated tests."""
    import deepgen
    from repro.engine.config import EngineConfig
    from repro.targets.c_like import MiniCLanguage
    from repro.targets.c_like.collections.library import full_library
    from repro.testing.harness import SymbolicTester

    tests_source, expected = deepgen.generate(seed)
    lang = MiniCLanguage()
    prog = lang.compile(full_library() + "\n" + tests_source)
    tester = SymbolicTester(lang, config=EngineConfig(workers=workers))
    return [(tester, prog, entry, want) for entry, want in expected]


def run_requests(requests, tracer=None) -> Sweep:
    """The closed loop: one ``run_test`` at a time, each checked."""
    perf = time.perf_counter
    sweep = Sweep()
    start = perf()
    for vid, (tester, prog, entry, want) in enumerate(requests):
        span = tracer.begin_verdict(vid) if tracer is not None else None
        t = perf()
        try:
            result = tester.run_test(prog, entry)
        except Exception as exc:  # a crashed verdict is a failed one
            result = exc
        sweep.latencies.append(perf() - t)
        if span is not None:
            tracer.end_verdict(span)
        sweep.probe_host()
        if isinstance(result, Exception):
            sweep.failures.append(f"{entry}: {type(result).__name__}: {result}")
            sweep.outcomes.append((entry, type(result).__name__, -1))
            continue
        sweep.check(entry, result.verdict, want)
        sweep.outcomes.append((entry, result.verdict, result.paths))
        sweep.add_stats(result.stats.to_dict())
        replays = [b for b in result.bugs if b.model is not None]
        sweep.add("replays", len(replays))
        sweep.add("confirmed", sum(1 for b in replays if b.confirmed))
    sweep.measured_s = perf() - start
    return sweep


def compare_reference(sweep: Sweep, seed: int) -> None:
    """Verify mode promises identical finals: a summaries-on sweep must
    give every test the verdict and finished-path count of the same test
    with summaries off.  Runs the summaries-off pass (untimed) and records
    every difference as a failure."""
    reference = run_requests(prepare_tables(seed, summaries=False))
    if len(reference.outcomes) != len(sweep.outcomes):
        sweep.failures.append("summaries on and off ran different test lists")
    for on, off in zip(sweep.outcomes, reference.outcomes):
        if on != off:
            sweep.failures.append(
                f"{on[0]}: summaries on gave {on[1]}/{on[2]} paths, "
                f"off gave {off[1]}/{off[2]}"
            )


# -- the service workload -----------------------------------------------------


def service_jobs(seed: int):
    """The table tests as ``JobSpec``s, with a seeded third marked for
    resubmission after their verdict."""
    from repro.service.jobs import JobSpec

    jobs = []
    for language, source, expected in table_corpus(seed):
        for entry, want in expected:
            jobs.append([JobSpec(language=language, source=source, entry=entry), want, False])
    rng = random.Random(seed + 1)
    for index in rng.sample(range(len(jobs)), len(jobs) // 3):
        jobs[index][2] = True
    return jobs


def run_service(service, jobs, tracer=None) -> Sweep:
    """The closed loop against the daemon: submit, let the daemon process
    the job, read the verdict from the result store; resubmit the marked
    jobs, which the result store serves."""
    from repro.service.queue import QueueFull

    perf = time.perf_counter
    sweep = Sweep()
    start = perf()
    vid = 0

    def request(spec, want, served: bool) -> None:
        nonlocal vid
        span = tracer.begin_verdict(vid) if tracer is not None else None
        vid += 1
        t = perf()
        try:
            job_id, result = service.submit(spec)
            if result is None:
                disposition = service.process_one()
                if disposition != "completed":
                    raise RuntimeError(f"job {job_id} {disposition}")
                result = service.result_for(spec.key())
        except (QueueFull, RuntimeError, OSError) as exc:  # refused or lost
            result = exc
        sweep.latencies.append(perf() - t)
        if span is not None:
            tracer.end_verdict(span)
        sweep.probe_host()
        if isinstance(result, Exception):
            sweep.failures.append(f"{spec.entry}: {type(result).__name__}: {result}")
            return
        sweep.check(spec.entry, result.verdict, want)
        if served:
            sweep.add("served", 1)
        else:
            sweep.add_stats(result.stats)

    for spec, want, resubmit in jobs:
        request(spec, want, served=False)
        if resubmit:
            request(spec, want, served=True)
    sweep.measured_s = perf() - start
    metrics = service.metrics.as_dict()
    for key in (
        "service.jobs_submitted",
        "service.jobs_completed",
        "service.cache_hit_result",
        "service.cache_hit_gil",
        "service.cache_miss",
    ):
        sweep.add(key, int(metrics.get(key, 0)))
    if sweep.counts.get("served", 0) != sweep.counts.get("service.cache_hit_result", 0):
        sweep.failures.append("a resubmitted job was not served from the result store")
    return sweep


# -- per-layer figures from a traced sweep ------------------------------------


def layer_metrics(tracer, sweep: Sweep) -> Dict[str, float]:
    """Per-layer figures of one traced sweep (seconds are per sweep)."""
    from spans import LAYER_OF

    report = tracer.report()

    def get(name: str, field: str) -> float:
        return report.get(name, {}).get(field, 0.0)

    self_by_layer: Dict[str, float] = {}
    for name, layer in LAYER_OF.items():
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + get(name, "self")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = sweep.counts
    tier_hits = c["solver_cache_hits"] + c["solver_prefix_hits"] + c["solver_model_reuse"]
    replays = int(get("soundness.replay", "count"))
    submissions = c.get("service.jobs_submitted", 0) + c.get("service.cache_hit_result", 0)
    gil_lookups = c.get("service.cache_hit_gil", 0) + c.get("service.cache_miss", 0)
    return {
        "frontend.compile_s": get("frontend.compile", "total"),
        "frontend.gil_cmds": tracer.gil_cmds,
        "gil.steps": c["commands_executed"],
        "gil.fast_lane_share": ratio(c["fast_lane_steps"], c["commands_executed"]),
        "gil.self_s": self_by_layer["gil"],
        "state.actions": int(get("state.execute_action", "count")),
        "state.self_s": self_by_layer["state"],
        **{
            f"{part}.self_s": self_by_layer[part]
            for part in (
                "memlib.blockoffset",
                "memlib.freeable",
                "memlib.proptable",
                "memlib.metadata",
                "memlib.permissions",
                "memlib.combinators",
            )
        },
        "logic.simplify.calls": int(get("logic.simplify", "count")),
        "logic.simplify.self_s": self_by_layer["logic.simplify"],
        "logic.solver.queries": c["solver_queries"],
        "logic.solver.self_s": self_by_layer["logic.solver"],
        "logic.solver.cache_hits": c["solver_cache_hits"],
        "logic.solver.prefix_hits": c["solver_prefix_hits"],
        "logic.solver.model_reuse": c["solver_model_reuse"],
        "logic.solver.hit_rate": ratio(tier_hits, c["solver_queries"]),
        "logic.solver.timeouts": c["solver_timeouts"],
        "logic.solver.get_model_s": get("solver.get_model", "total"),
        "engine.paths": c["paths_finished"],
        "engine.paths_dropped": c["paths_dropped"],
        "engine.self_s": self_by_layer["engine"],
        "engine.parallel.seed_s": get("engine.explore_frontier/under:parallel.explore", "total"),
        "engine.parallel.wait_s": get("parallel.wait", "total"),
        "engine.parallel.merge_s": get("parallel.merge/under:parallel.explore", "total"),
        "engine.parallel.task_bytes": tracer.task_bytes,
        "specs.hits": c["summary_hits"],
        "specs.misses": c["summary_misses"],
        "specs.hit_rate": ratio(c["summary_hits"], c["summary_hits"] + c["summary_misses"]),
        "specs.build_commands": c["summary_build_commands"],
        "specs.build_s": get("specs.build", "total"),
        "specs.replay_s": get("specs.replay", "total"),
        "harness.self_s": self_by_layer["harness"],
        "soundness.replays": replays,
        "soundness.confirmed_share": ratio(c.get("confirmed", 0), replays),
        "soundness.replay_s": get("soundness.replay", "total"),
        "service.queue_s": self_by_layer["service.queue"],
        "service.gil_store_s": self_by_layer["service.gil_store"],
        "service.result_store_s": self_by_layer["service.result_store"],
        "service.checkpoint_s": self_by_layer["service.checkpoint"],
        "service.runner_s": self_by_layer["service.runner"],
        "service.fsyncs": tracer.fsyncs,
        "service.bytes_written": tracer.bytes_written,
        "service.gil_hit_rate": ratio(c.get("service.cache_hit_gil", 0), gil_lookups),
        "service.result_hit_rate": ratio(c.get("service.cache_hit_result", 0), submissions),
        "trace.coverage": tracer.coverage(),
    }


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--until", type=float, default=0.0)
    parser.add_argument("--work", default="")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    if args.workload == "service":
        return service_main(args, tracer)

    if args.workload in ("tables", "tables-summaries"):
        requests = prepare_tables(args.seed, args.workload == "tables-summaries")
    elif args.workload == "deep-paths":
        requests = prepare_deep(args.seed, args.workers)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    setup_s = time.monotonic() - args.t0
    if args.probe:
        emit({"setup_s": setup_s})
        return 0
    sweep = run_requests(requests, tracer)
    if args.reference:
        compare_reference(sweep, args.seed)
    record = sweep.as_dict()
    record["setup_s"] = setup_s
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, sweep)
    emit(record)
    return 0


def service_main(args, tracer) -> int:
    """Set up the daemon once, then run sweeps (at least one) until the
    next would end more than half a sweep past ``--until`` seconds after
    the daemon was ready, each against a fresh service root under
    ``--work``."""
    from repro.service.daemon import AnalysisService

    jobs = service_jobs(args.seed)
    sweep_no = 0
    root = os.path.join(args.work, f"root{sweep_no}")
    service = AnalysisService(root)
    ready = time.monotonic()
    emit({"setup_s": ready - args.t0})
    if args.probe:
        shutil.rmtree(root, ignore_errors=True)
        return 0
    while True:
        sweep = run_service(service, jobs, tracer)
        record = sweep.as_dict()
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, sweep)
        emit(record)
        shutil.rmtree(root, ignore_errors=True)
        elapsed = time.monotonic() - ready
        if tracer is not None or elapsed + sweep.measured_s / 2 >= args.until:
            return 0
        sweep_no += 1
        root = os.path.join(args.work, f"root{sweep_no}")
        service = AnalysisService(root)


if __name__ == "__main__":
    code = main()
    # Skip interpreter teardown (freeing every expression node and
    # state of the sweep): it measures nothing, and every record has been
    # flushed.  All worker processes have already been joined.
    os._exit(code)
