"""Tests for the job vocabulary (repro.service.jobs): content-hash keys,
serialization roundtrips, and the order-independent finals digest."""

from dataclasses import replace

from repro.engine.results import Incompleteness, RunReport
from repro.service.jobs import JobFailure, JobResult, JobSpec, finals_digest


def spec(**kw):
    base = dict(language="while", source="proc main() { return 1; }")
    base.update(kw)
    return JobSpec(**base)


class TestJobSpecKey:
    def test_identical_specs_share_a_key(self):
        assert spec().key() == spec().key()

    def test_key_covers_program_and_budget(self):
        base = spec().key()
        assert spec(source="proc main() { return 2; }").key() != base
        assert spec(entry="other").key() != base
        assert spec(max_paths=7).key() != base
        assert spec(max_total_steps=7).key() != base
        assert spec(max_steps_per_path=7).key() != base
        assert spec(unknown_policy="prune").key() != base
        assert spec(workers=4).key() != base

    def test_timeout_excluded_from_key(self):
        # A deadline changes when a run is cut, not what the program
        # means; reusability is policed by JobResult.reusable instead.
        assert spec(timeout=1.5).key() == spec().key()

    def test_source_key_narrower_than_job_key(self):
        a, b = spec(), spec(entry="other", max_paths=3)
        assert a.key() != b.key()
        assert a.source_key() == b.source_key()

    def test_roundtrip(self):
        s = spec(workers=2, timeout=0.5)
        assert JobSpec.from_dict(s.to_dict()) == s

    def test_key_computed_once_per_spec(self):
        s = spec()
        assert s.key() is s.key()

    def test_replace_yields_a_fresh_key(self):
        s = spec()
        s.key()
        other = replace(s, entry="other")
        assert other.key() != s.key()
        assert other.key() == spec(entry="other").key()

    def test_pickled_roundtrip_keeps_an_equal_key(self):
        import pickle

        s = spec(max_paths=9)
        for warm in (False, True):
            if warm:
                s.key()
            back = pickle.loads(pickle.dumps(s))
            assert back == s and back.key() == s.key()


class TestJobResult:
    def make(self, **kw):
        base = dict(
            key="k" * 64,
            verdict="bounded-verified",
            bugs=0,
            paths=3,
            report=RunReport("exhausted", Incompleteness()),
            stats={"paths_finished": 3},
        )
        base.update(kw)
        return JobResult(**base)

    def test_roundtrip(self):
        r = self.make(degraded_level=1, finals_digest="ab", attempts=2)
        back = JobResult.from_dict(r.to_dict())
        assert back == r
        assert back.report.stop_reason == "exhausted"

    def test_reusable_only_at_full_budget(self):
        assert self.make().reusable
        assert not self.make(degraded_level=1).reusable
        assert not self.make(
            report=RunReport("deadline", Incompleteness())
        ).reusable


class TestFinalsDigest:
    def test_order_independent(self):
        class Kind:
            def __init__(self, name):
                self.name = name

        class Fin:
            def __init__(self, kind, value):
                self.kind, self.value = Kind(kind), value

        a = [Fin("RET", 1), Fin("ERR", "x"), Fin("RET", 2)]
        b = [a[2], a[0], a[1]]
        assert finals_digest(a) == finals_digest(b)
        assert finals_digest(a) != finals_digest(a[:2])


class TestJobFailure:
    def test_roundtrip(self):
        f = JobFailure(key="k", error="boom", attempts=3, spec={"language": "while"})
        assert JobFailure.from_dict(f.to_dict()) == f
