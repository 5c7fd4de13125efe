"""The job runner (repro.service.runner): each parallel round's budget
is what the seed and every earlier round left of the job's, and a job's
verdict is the one the testing harness would give."""

from repro.engine.parallel import ParallelExplorer
from repro.service import JobRunner, JobSpec


def slow_program(branches: int = 9, turns: int = 40) -> str:
    """``2**branches`` paths, each running a ``turns``-step loop after
    every branch: far more work than a sub-second timeout allows."""
    body = ["n := 0;"]
    for k in range(branches):
        body += [
            f"x{k} := symb_int();",
            f"if (x{k} < 0) {{ n := n + 1; }} else {{ n := n + 2; }}",
            f"i := 0; while (i < {turns}) {{ i := i + 1; }}",
        ]
    return "proc main() {\n" + "\n".join(body) + "\nreturn n;\n}\n"


class TestRoundDeadlines:
    def test_deadline_is_charged_across_rounds(self, monkeypatch):
        deadlines = []
        real = ParallelExplorer._run_shards

        def recording(self, shards, slice_budget, factory):
            deadlines.append(slice_budget.deadline)
            return real(self, shards, slice_budget, factory)

        monkeypatch.setattr(ParallelExplorer, "_run_shards", recording)
        # Long enough for every round to run: the 8-item frontier is dealt
        # in 4 rounds of 2.
        timeout = 60.0
        spec = JobSpec(
            language="while", source=slow_program(branches=5), workers=2,
            timeout=timeout,
        )
        result = JobRunner(round_items=2).run(spec).result

        assert result.stats.stop_reason == "exhausted"
        assert len(deadlines) == 4
        assert all(d < timeout for d in deadlines)
        # Each round's deadline is what the seed and the rounds before it
        # left, so it falls round by round.
        assert all(b < a for a, b in zip(deadlines, deadlines[1:]))


class TestVerdicts:
    def test_unreplayed_error_is_a_potential_bug(self):
        spec = JobSpec(
            language="while",
            source="""
            proc main() {
              x := symb_number();
              if (x * x = 2) { assert(false); }
              return x;
            }""",
        )
        outcome = JobRunner().run(spec)
        assert len(outcome.bugs) == 1 and outcome.bugs[0].model is None
        assert outcome.verdict == "potential-bug"

    def test_replayed_error_is_a_bug(self):
        spec = JobSpec(
            language="while",
            source="""
            proc main() {
              n := symb_int();
              assume(0 <= n and n <= 2);
              assert(n != 2);
            }""",
        )
        outcome = JobRunner().run(spec)
        assert [b.model for b in outcome.bugs] == [{"val_0_0": 2}]
        assert outcome.bugs[0].confirmed
        assert outcome.verdict == "bug"
