"""End-to-end tests for the analysis daemon (repro.service.daemon):
submit/process/ack, idempotent replay from the result cache, degraded
admission under memory pressure, poison-job quarantine, cache integrity
on the obs bus, and the CLI."""

import json
import os

import pytest

from repro.engine.backoff import BackoffPolicy
from repro.engine.events import EventBus, MetricSample
from repro.service import (
    AnalysisService,
    DegradationPolicy,
    JobSpec,
    QueueFull,
)

BUGGY = """
proc main() {
  x := symb_int();
  assume(0 <= x and x <= 20);
  if (x < 10) { r := 1; } else { r := 2; }
  assert(not (x = 13));
  return r;
}
"""

CLEAN = """
proc main() {
  x := symb_int();
  assume(0 <= x and x <= 8);
  s := 0;
  i := 0;
  while (i < 4) {
    if (x < i) { s := s + 2; } else { s := s + 1; }
    i := i + 1;
  }
  assert(s <= 8);
  return s;
}
"""


def svc_for(tmp_path, **kw):
    return AnalysisService(str(tmp_path), **kw)


class TestEndToEnd:
    def test_submit_process_verdicts(self, tmp_path):
        svc = svc_for(tmp_path)
        buggy = JobSpec(language="while", source=BUGGY)
        clean = JobSpec(language="while", source=CLEAN)
        for spec in (buggy, clean):
            job_id, cached = svc.submit(spec)
            assert job_id is not None and cached is None
        assert svc.run_until_idle() == 2

        bug = svc.result_for(buggy.key())
        assert bug.verdict == "bug" and bug.bugs == 1
        ok = svc.result_for(clean.key())
        assert ok.verdict == "bounded-verified" and ok.bugs == 0
        assert len(svc.queue.done_ids()) == 2
        assert svc.queue.pending_ids() == [] and svc.queue.active_ids() == []

    def test_identical_resubmission_served_from_cache(self, tmp_path):
        svc = svc_for(tmp_path)
        spec = JobSpec(language="while", source=BUGGY)
        svc.submit(spec)
        svc.run_until_idle()
        job_id, cached = svc.submit(spec)
        assert job_id is None
        assert cached is not None and cached.verdict == "bug"
        counters = svc.metrics.as_dict()
        assert counters["service.cache_hit_result"] == 1
        # Nothing re-ran: one compile-tier miss total.
        assert counters["service.cache_miss"] == 1

    def test_redelivered_job_served_from_cache(self, tmp_path):
        # At-least-once delivery: the same spec queued twice runs once.
        svc = svc_for(tmp_path)
        spec = JobSpec(language="while", source=BUGGY)
        svc.queue.submit(spec)
        svc.queue.submit(spec)
        assert svc.process_one() == "completed"
        assert svc.process_one() == "cached"
        assert len(svc.queue.done_ids()) == 2
        digests = {
            svc.queue.load_done(j)["result"]["finals_digest"]
            for j in svc.queue.done_ids()
        }
        assert len(digests) == 1

    def test_gil_cache_shared_across_entry_points(self, tmp_path):
        src = BUGGY + "\nproc other() { return 0; }\n"
        svc = svc_for(tmp_path)
        svc.submit(JobSpec(language="while", source=src, entry="main"))
        svc.submit(JobSpec(language="while", source=src, entry="other"))
        svc.run_until_idle()
        counters = svc.metrics.as_dict()
        assert counters["service.cache_miss"] == 1
        assert counters["service.cache_hit_gil"] == 1

    def test_entry_point_burst_unpickles_the_program_at_most_once(
        self, tmp_path, monkeypatch
    ):
        import pickle

        from repro.gil.syntax import Prog
        from repro.service.jobs import finals_digest
        from repro.service.runner import JobRunner

        src = BUGGY + CLEAN.replace("proc main()", "proc clean()") + (
            "\nproc other() { return 0; }\n"
        )
        specs = [
            JobSpec(language="while", source=src, entry=entry)
            for entry in ("main", "clean", "other", "main")
        ]
        specs[3] = JobSpec(language="while", source=src, max_paths=77)
        decoded = []
        real = pickle.loads

        def counting(data, *args, **kwargs):
            value = real(data, *args, **kwargs)
            if isinstance(value, Prog):
                decoded.append(value)
            return value

        monkeypatch.setattr(pickle, "loads", counting)
        svc = svc_for(tmp_path)
        svc.submit(specs[0])
        assert svc.run_until_idle() == 1  # compiles and writes the entry
        # A new incarnation opens the store cold and drains the rest.
        svc = svc_for(tmp_path)
        for spec in specs[1:]:
            svc.submit(spec)
        assert svc.run_until_idle() == 3
        assert svc.metrics.as_dict()["service.cache_hit_gil"] == 3
        assert len(decoded) == 1  # the cold store's first read
        for spec in specs:
            fresh = JobRunner().run(spec).result  # compiles afresh
            assert svc.result_for(spec.key()).finals_digest == finals_digest(
                fresh.finals
            )

    def test_queue_capacity_backpressure(self, tmp_path):
        svc = svc_for(tmp_path, capacity=1)
        svc.submit(JobSpec(language="while", source=BUGGY))
        with pytest.raises(QueueFull):
            svc.submit(JobSpec(language="while", source=CLEAN))


def fail_runs_of(svc, spec):
    """Make every run of ``spec`` raise a ``RuntimeError``, which is not a
    front-end error, so the service retries it."""
    run = svc.runner.run

    def failing_run(job, **kw):
        if job.key() == spec.key():
            raise RuntimeError("runner failed")
        return run(job, **kw)

    svc.runner.run = failing_run


class TestQuarantine:
    def test_poison_job_quarantined_with_structured_failure(self, tmp_path):
        svc = svc_for(
            tmp_path,
            max_attempts=2,
            backoff=BackoffPolicy(base=0.0),
        )
        poison = JobSpec(language="while", source="not a program at all")
        fail_runs_of(svc, poison)
        svc.submit(poison)
        healthy = JobSpec(language="while", source=BUGGY)
        svc.submit(healthy)
        processed = svc.run_until_idle()
        assert processed == 3  # poison retried + quarantined, healthy once
        assert len(svc.queue.quarantined_ids()) == 1
        failure = svc.queue.load_quarantined(svc.queue.quarantined_ids()[0])
        assert failure.attempts == 2
        assert "Error" in failure.error or "error" in failure.error
        # The poison job never wedged the queue: the healthy one finished.
        assert svc.result_for(healthy.key()).verdict == "bug"
        counters = svc.metrics.as_dict()
        assert counters["service.jobs_retried"] == 1
        assert counters["service.jobs_quarantined"] == 1

    @pytest.mark.parametrize(
        "language,source,error",
        [
            ("minijs", "function main() { return 1.2.3; }", "LexError"),
            ("while", "not a program at all", "ParseError"),
            ("minijs", "function main() { break; }", "CompileError"),
            ("minic", "int main() { int *p = (int *) malloc(1, 2); return 0; }",
             "CompileError"),
            ("rust", "fn main() -> i64 { let n = len(); return n; }", "CompileError"),
            ("minijs", "function main() { return floor(1, 2); }", "CompileError"),
            ("minic", "int main() { return sizeof(struct Foo); }", "CompileError"),
        ],
    )
    def test_front_end_error_quarantined_on_first_attempt(
        self, tmp_path, language, source, error
    ):
        svc = svc_for(tmp_path, max_attempts=3, backoff=BackoffPolicy(base=0.0))
        svc.submit(JobSpec(language=language, source=source))
        assert svc.process_one() == "quarantined"
        failure = svc.queue.load_quarantined(svc.queue.quarantined_ids()[0])
        assert failure.attempts == 1
        assert error in failure.error
        counters = svc.metrics.as_dict()
        assert counters.get("service.jobs_retried", 0) == 0
        assert counters["service.jobs_quarantined"] == 1

    @pytest.mark.parametrize(
        "spec,message",
        [
            (JobSpec(language="cobol", source="IDENTIFICATION DIVISION."),
             "unknown language 'cobol'"),
            (JobSpec(language="while", source="proc main() { return 1; }",
                     entry="nope"),
             "unknown entry procedure 'nope'"),
        ],
    )
    def test_unrunnable_spec_quarantined_on_first_attempt(
        self, tmp_path, spec, message
    ):
        svc = svc_for(tmp_path, max_attempts=3, backoff=BackoffPolicy(base=0.0))
        svc.submit(spec)
        assert svc.process_one() == "quarantined"
        failure = svc.queue.load_quarantined(svc.queue.quarantined_ids()[0])
        assert failure.attempts == 1
        assert "InvalidJob" in failure.error and message in failure.error
        assert svc.metrics.as_dict().get("service.jobs_retried", 0) == 0

    def test_other_runtime_error_still_retried(self, tmp_path):
        # A GilRuntimeError that is not a missing entry keeps the ladder.
        svc = svc_for(tmp_path, max_attempts=3, backoff=BackoffPolicy(base=0.0))
        svc.submit(JobSpec(language="while", source="proc main(a) { return a; }"))
        assert svc.process_one() == "retried"
        assert "GilRuntimeError" in svc.queue.claim().record["last_error"]

    def test_unknown_language_is_poison_not_crash(self, tmp_path):
        svc = svc_for(
            tmp_path, max_attempts=1, backoff=BackoffPolicy(base=0.0)
        )
        svc.submit(JobSpec(language="cobol", source="IDENTIFICATION DIVISION."))
        svc.run_until_idle()
        assert len(svc.queue.quarantined_ids()) == 1


class TestDegradation:
    def test_soft_watermark_scales_budget_and_prunes(self, tmp_path):
        mem = [0]
        policy = DegradationPolicy(
            soft_bytes=100, hard_bytes=1000, memory_bytes=lambda: mem[0]
        )
        svc = svc_for(tmp_path, degradation=policy)
        spec = JobSpec(language="while", source=BUGGY, max_paths=40)
        mem[0] = 500  # above soft, below hard
        svc.submit(spec)
        svc.run_until_idle()
        res = svc.result_for(spec.key())
        assert res.degraded_level == 1
        assert not res.reusable
        assert svc.metrics.as_dict()["service.jobs_degraded"] == 1

    def test_degraded_result_not_served_for_resubmission(self, tmp_path):
        mem = [500]
        policy = DegradationPolicy(soft_bytes=100, memory_bytes=lambda: mem[0])
        svc = svc_for(tmp_path, degradation=policy)
        spec = JobSpec(language="while", source=BUGGY)
        svc.submit(spec)
        svc.run_until_idle()
        # Pressure subsides; the same spec must re-run at full budget.
        mem[0] = 0
        job_id, cached = svc.submit(spec)
        assert job_id is not None and cached is None
        svc.run_until_idle()
        res = svc.result_for(spec.key())
        assert res.degraded_level == 0 and res.reusable

    def test_admission_levels(self):
        mem = [0]
        policy = DegradationPolicy(
            soft_bytes=100, hard_bytes=200, memory_bytes=lambda: mem[0]
        )
        from repro.engine.budget import Budget

        budget = Budget(max_paths=1000, max_total_steps=10_000)
        assert policy.admit(budget, "assume-sat")[0] == 0
        mem[0] = 150
        level, scaled, pol = policy.admit(budget, "assume-sat")
        assert level == 1 and pol == "prune"
        assert scaled.max_paths == 250
        mem[0] = 250
        level, scaled, pol = policy.admit(budget, "assume-sat")
        assert level == 2 and pol == "prune"
        assert scaled.max_paths == 50

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(soft_bytes=200, hard_bytes=100)


class TestIntegrityOnBus:
    def test_corrupt_cache_entry_recomputed_and_counted(self, tmp_path):
        samples = []
        bus = EventBus()
        bus.subscribe(
            lambda ev: samples.append(ev) if isinstance(ev, MetricSample) else None
        )
        svc = svc_for(tmp_path, events=bus)
        spec = JobSpec(language="while", source=BUGGY)
        svc.submit(spec)
        svc.run_until_idle()
        good = svc.result_for(spec.key())

        # Flip a bit in the stored result entry.
        path = os.path.join(str(tmp_path), "results", spec.key() + ".bin")
        blob = bytearray(open(path, "rb").read())
        blob[-5] ^= 0x10
        open(path, "wb").write(bytes(blob))

        # Resubmission must NOT be served the damaged entry: it re-runs.
        job_id, cached = svc.submit(spec)
        assert cached is None and job_id is not None
        svc.run_until_idle()
        again = svc.result_for(spec.key())
        assert again.finals_digest == good.finals_digest
        assert svc.metrics.as_dict()["service.degraded"] == 1
        degraded = [
            s for s in samples if s.name == "service.degraded" and s.value >= 1
        ]
        assert degraded  # the eviction reached the obs bus

    def test_truncated_gil_entry_recompiled(self, tmp_path):
        svc = svc_for(tmp_path)
        spec = JobSpec(language="while", source=BUGGY)
        svc.submit(spec)
        svc.run_until_idle()
        path = os.path.join(str(tmp_path), "gil", spec.source_key() + ".bin")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])

        other = JobSpec(language="while", source=BUGGY, entry="main", max_paths=77)
        svc.submit(other)
        svc.run_until_idle()
        assert svc.result_for(other.key()).verdict == "bug"
        counters = svc.metrics.as_dict()
        assert counters["service.degraded"] == 1
        assert counters["service.cache_miss"] == 2  # recompiled, not served


class TestMetricsSurface:
    def test_flush_emits_samples(self, tmp_path):
        svc = svc_for(tmp_path)
        svc.submit(JobSpec(language="while", source=BUGGY))
        svc.run_until_idle()
        bus = EventBus()
        seen = []
        bus.subscribe(lambda ev: seen.append(ev))
        emitted = svc.metrics.flush(bus)
        assert emitted == len(seen) > 0
        names = {s.name for s in seen}
        assert {"service.jobs_submitted", "service.jobs_completed",
                "service.queue_depth"} <= names


class TestRecoveryAcrossIncarnations:
    def test_new_incarnation_recovers_active_jobs(self, tmp_path):
        svc = svc_for(tmp_path)
        spec = JobSpec(language="while", source=BUGGY)
        svc.submit(spec)
        lease = svc.queue.claim()  # claimed, then the daemon "dies"
        assert lease is not None

        svc2 = svc_for(tmp_path)
        assert svc2.recovered == 1
        svc2.run_until_idle()
        assert svc2.result_for(spec.key()).verdict == "bug"


class TestCli:
    def test_submit_and_until_idle(self, tmp_path, capsys):
        from repro.service.daemon import main

        spec_path = str(tmp_path / "job.json")
        spec = JobSpec(language="while", source=BUGGY)
        with open(spec_path, "w") as fh:
            json.dump(spec.to_dict(), fh)
        root = str(tmp_path / "root")
        assert main(["--root", root, "--submit", spec_path, "--until-idle"]) == 0
        out = capsys.readouterr().out
        assert "processed 1 job(s)" in out
        assert "service.jobs_completed" in out
