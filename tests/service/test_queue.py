"""Tests for the durable job queue (repro.service.queue): lifecycle
renames, backpressure, retry scheduling, quarantine, crash recovery,
and poison-file handling."""

import hashlib
import json
import os

import pytest

from repro.engine.results import Incompleteness, RunReport
from repro.service.jobs import JobResult, JobSpec
from repro.service.queue import DurableQueue, QueueFull


def spec(n=0):
    return JobSpec(language="while", source=f"proc main() {{ return {n}; }}")


def result_for(lease):
    return JobResult(
        key=lease.key,
        verdict="bounded-verified",
        bugs=0,
        paths=1,
        report=RunReport("exhausted", Incompleteness()),
        stats={},
    )


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestLifecycle:
    def test_submit_claim_ack(self, tmp_path):
        q = DurableQueue(str(tmp_path))
        job_id = q.submit(spec())
        assert q.pending_ids() == [job_id]
        lease = q.claim()
        assert lease.job_id == job_id
        assert lease.attempts == 1
        assert q.pending_ids() == [] and q.active_ids() == [job_id]
        q.ack(lease, result_for(lease))
        assert q.active_ids() == []
        assert q.done_ids() == [job_id]
        record = q.load_done(job_id)
        assert record["result"]["verdict"] == "bounded-verified"

    def test_fifo_order(self, tmp_path):
        q = DurableQueue(str(tmp_path))
        ids = [q.submit(spec(i)) for i in range(3)]
        claimed = [q.claim().job_id for _ in range(3)]
        assert claimed == ids

    def test_claim_empty_returns_none(self, tmp_path):
        assert DurableQueue(str(tmp_path)).claim() is None

    def test_depth_tracks_pending(self, tmp_path):
        q = DurableQueue(str(tmp_path))
        assert q.depth == 0
        q.submit(spec(1))
        q.submit(spec(2))
        assert q.depth == 2
        q.claim()
        assert q.depth == 1


class TestBackpressure:
    def test_capacity_rejects_overflow(self, tmp_path):
        q = DurableQueue(str(tmp_path), capacity=2)
        q.submit(spec(1))
        q.submit(spec(2))
        with pytest.raises(QueueFull):
            q.submit(spec(3))
        # Draining makes room again.
        q.claim()
        q.submit(spec(3))


class TestRetry:
    def test_retry_respects_backoff_window(self, tmp_path):
        clock = FakeClock()
        q = DurableQueue(str(tmp_path), clock=clock)
        q.submit(spec())
        lease = q.claim()
        q.retry(lease, "transient", delay=5.0)
        assert q.active_ids() == []
        assert q.claim() is None  # still inside the window
        clock.now += 5.0
        again = q.claim()
        assert again is not None
        assert again.attempts == 2
        assert again.record["last_error"] == "transient"

    def test_quarantine_parks_structured_failure(self, tmp_path):
        q = DurableQueue(str(tmp_path))
        q.submit(spec())
        lease = q.claim()
        failure = q.quarantine(lease, "poison: boom")
        assert q.pending_ids() == [] and q.active_ids() == []
        assert q.quarantined_ids() == [lease.job_id]
        loaded = q.load_quarantined(lease.job_id)
        assert loaded == failure
        assert loaded.error == "poison: boom"
        assert loaded.attempts == 1
        assert loaded.spec["language"] == "while"
        # The queue keeps serving other work.
        other = q.submit(spec(7))
        assert q.claim().job_id == other


class TestRecovery:
    def test_recover_redelivers_active_jobs(self, tmp_path):
        q = DurableQueue(str(tmp_path))
        job_id = q.submit(spec())
        q.claim()
        assert q.active_ids() == [job_id]
        # Simulate the daemon dying and a fresh incarnation starting.
        q2 = DurableQueue(str(tmp_path))
        assert q2.recover() == 1
        assert q2.active_ids() == [] and q2.pending_ids() == [job_id]
        lease = q2.claim()
        # The claim-time bump survived, so crash-loops converge on the
        # quarantine threshold.
        assert lease.attempts == 2

    def test_recover_empty_is_noop(self, tmp_path):
        assert DurableQueue(str(tmp_path)).recover() == 0


class TestPoisonFiles:
    def test_torn_record_is_quarantined_not_served(self, tmp_path):
        q = DurableQueue(str(tmp_path))
        good = q.submit(spec(1))
        bad = q.submit(spec(2))
        path = os.path.join(str(tmp_path), "pending", bad + ".json")
        blob = open(path).read()
        open(path, "w").write(blob[: len(blob) // 2])  # torn write
        lease = q.claim()
        assert lease.job_id == good
        # The scan reaches the torn record on the next claim: it is
        # parked, not served, and not left to wedge the queue.
        assert q.claim() is None
        assert q.quarantined_ids() == [bad]

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        q = DurableQueue(str(tmp_path))
        bad = q.submit(spec())
        path = os.path.join(str(tmp_path), "pending", bad + ".json")
        blob = open(path).read().replace("while", "whale", 1)
        open(path, "w").write(blob)
        assert q.claim() is None
        assert q.quarantined_ids() == [bad]


def write_parent_layout(path, record):
    """Write ``record`` as the indented layout older releases wrote."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w") as fh:
        fh.write(
            json.dumps({"body": record, "sha256": digest}, indent=1, sort_keys=True)
            + "\n"
        )


class TestRecordLayout:
    def test_record_is_one_line_over_its_hashed_body(self, tmp_path):
        q = DurableQueue(str(tmp_path))
        job_id = q.submit(spec())
        text = open(os.path.join(str(tmp_path), "pending", job_id + ".json")).read()
        assert text.endswith("\n") and text.count("\n") == 1
        prefix, suffix = '{"body":', ',"sha256":"'
        assert text.startswith(prefix)
        body, digest = text[len(prefix):].rsplit(suffix, 1)
        assert digest == hashlib.sha256(body.encode("utf-8")).hexdigest() + '"}\n'
        record = json.loads(body)
        assert record["id"] == job_id
        assert body == json.dumps(record, sort_keys=True, separators=(",", ":"))

    def test_parent_layout_pending_record_claimed_run_and_acked(self, tmp_path):
        from repro.service import AnalysisService

        job = spec(5)
        record = {
            "id": "00000000000000000001-1-000000-" + job.key()[:8],
            "key": job.key(),
            "spec": job.to_dict(),
            "attempts": 0,
            "not_before": 0.0,
            "submitted_at": 1.0,
        }
        svc = AnalysisService(str(tmp_path))
        write_parent_layout(svc.queue._path("pending", record["id"]), record)
        assert svc.process_one() == "completed"
        assert svc.queue.done_ids() == [record["id"]]
        done = svc.queue.load_done(record["id"])
        assert done["attempts"] == 1
        assert done["result"]["verdict"] == "bounded-verified"

    def test_parent_root_recovers_after_upgrade(self, tmp_path):
        from repro.service import AnalysisService

        jobs = [spec(1), spec(2), spec(3)]
        q = DurableQueue(os.path.join(str(tmp_path), "queue"))
        ids = [q.submit(job) for job in jobs]
        active = q.claim()
        done = q.claim()
        q.ack(done, result_for(done))
        # Rewrite every record as the older release left it: one pending,
        # one active (a claim whose daemon died), one done.
        for state, job_id in (("pending", ids[2]), ("active", active.job_id),
                              ("done", done.job_id)):
            path = q._path(state, job_id)
            with open(path) as fh:
                record = json.loads(fh.read())["body"]
            write_parent_layout(path, record)

        svc = AnalysisService(str(tmp_path))
        assert svc.recovered == 1
        assert svc.run_until_idle() == 2
        assert svc.queue.done_ids() == sorted(ids)
        assert svc.queue.quarantined_ids() == []
        assert svc.queue.load_done(active.job_id)["attempts"] == 2
        assert svc.queue.load_done(done.job_id)["result"]["verdict"] == "bounded-verified"
