"""Retry/backoff timing tests: the BackoffPolicy schedule is asserted
exactly — base, factor, cap, and seeded jitter — through injectable fake
clocks, for both the service's job retries and the parallel explorer's
shard-retry backoff.  No test here sleeps for real."""

import pytest

from repro.engine.backoff import BackoffPolicy
from repro.engine.config import EngineConfig
from repro.engine.parallel import ParallelExplorer
from repro.gil.syntax import Fail, IfGoto, ISym, Proc, Prog, Return
from repro.logic.expr import Lit, PVar
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import WhileSymbolicMemory
from repro.testing.faults import FaultPlan, WorkerKill


class TestSchedule:
    def test_exponential_growth_from_base(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=100.0)
        assert policy.schedule(5) == [0.1, 0.2, 0.4, 0.8, 1.6]

    def test_cap_clamps_late_attempts(self):
        policy = BackoffPolicy(base=1.0, factor=10.0, cap=50.0)
        assert policy.schedule(4) == [1.0, 10.0, 50.0, 50.0]

    def test_zero_base_disables_backoff(self):
        assert BackoffPolicy(base=0.0).schedule(3) == [0.0, 0.0, 0.0]

    def test_jitter_is_seed_deterministic_and_bounded(self):
        a = BackoffPolicy(base=1.0, jitter=0.5, jitter_seed=7)
        b = BackoffPolicy(base=1.0, jitter=0.5, jitter_seed=7)
        c = BackoffPolicy(base=1.0, jitter=0.5, jitter_seed=8)
        assert a.schedule(6) == b.schedule(6)      # pure in (seed, attempt)
        assert a.schedule(6) != c.schedule(6)      # seed actually matters
        for attempt, delay in enumerate(a.schedule(6)):
            raw = min(1.0 * 2.0 ** attempt, 30.0)
            assert raw * 0.75 <= delay <= raw * 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)


class TestServiceRetryTiming:
    def test_retry_delays_follow_policy_exactly(self, tmp_path):
        """Drive a poison job through every retry on a fake clock and
        assert the queue's not_before schedule equals the policy's."""
        from repro.service.daemon import AnalysisService
        from repro.service.jobs import JobSpec
        from tests.service.test_service import fail_runs_of

        policy = BackoffPolicy(base=2.0, factor=3.0, cap=10.0)
        now = [1000.0]
        slept = []

        def clock():
            return now[0]

        def sleep(seconds):
            slept.append(seconds)
            now[0] += seconds

        svc = AnalysisService(
            str(tmp_path),
            max_attempts=4,
            backoff=policy,
            clock=clock,
            sleep=sleep,
        )
        poison = JobSpec(language="while", source="this is not a program")
        fail_runs_of(svc, poison)
        svc.submit(poison)

        not_befores = []
        dispositions = []
        while True:
            before = now[0]
            disposition = svc.process_one()
            if disposition is None:
                if not svc.queue.pending_ids():
                    break
                sleep(svc.poll_interval)
                continue
            dispositions.append(disposition)
            if disposition == "retried":
                import json

                job_id = svc.queue.pending_ids()[0]
                path = svc.queue._path("pending", job_id)
                body = json.loads(open(path).read())["body"]
                not_befores.append(body["not_before"] - before)

        assert dispositions == ["retried", "retried", "retried", "quarantined"]
        # Attempt k's requeue delay is exactly policy.delay(k): 2, 6, 10.
        assert not_befores == pytest.approx([2.0, 6.0, 10.0])
        # The loop only slept through backoff windows, never spun past one.
        assert now[0] - 1000.0 >= sum(not_befores)


class TestShardRetryTiming:
    def _crashy_explorer(self, sleeps, base):
        prog = Prog()
        prog.add(
            Proc(
                "main",
                (),
                (
                    ISym("a", 0),
                    ISym("b", 1),
                    ISym("c", 2),
                    IfGoto(PVar("a").lt(Lit(0)), 6),
                    IfGoto(PVar("b").lt(Lit(0)), 6),
                    IfGoto(PVar("c").lt(Lit(0)), 6),
                    Return(Lit("ok")),
                    Fail(Lit("neg")),
                ),
            )
        )
        sm = SymbolicStateModel(WhileSymbolicMemory())
        config = EngineConfig(
            shard_retry_backoff=base,
            max_shard_retries=3,
            fault_plan=FaultPlan(kills=(WorkerKill(0, 0, mode="raise"),)),
        )
        pex = ParallelExplorer(prog, sm, config, workers=2, seed_factor=1)
        pex._sleep = sleeps.append
        return pex

    def test_shard_retry_sleeps_match_policy(self):
        sleeps = []
        pex = self._crashy_explorer(sleeps, base=0.25)
        result = pex.run("main")
        # One crash on attempt 0 -> exactly one backoff sleep of base*2^0;
        # the retry succeeds (fault is transient), so no further delays.
        assert sleeps == [0.25]
        assert result.stats.incompleteness.shards_retried == 1
        assert result.stats.stop_reason == "exhausted"

    def test_shard_backoff_disabled_when_base_zero(self):
        sleeps = []
        pex = self._crashy_explorer(sleeps, base=0.0)
        pex.run("main")
        assert sleeps == []

    def test_policy_object_mirrors_config(self):
        sleeps = []
        pex = self._crashy_explorer(sleeps, base=0.125)
        assert pex.backoff == BackoffPolicy(base=0.125)
        assert pex.backoff.schedule(3) == [0.125, 0.25, 0.5]
