"""The job runner's parallel rounds (repro.service.runner): each round's
budget is what the seed and every earlier round left of the job's."""

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
        timeout = 0.5
        spec = JobSpec(
            language="while", source=slow_program(), workers=2, timeout=timeout
        )
        result = JobRunner(round_items=2).run(spec).result

        assert result.stats.stop_reason == "deadline"
        assert len(deadlines) > 1
        assert all(d < timeout for d in deadlines)
        # Strictly lower than the last while any time is left.
        assert all(b < a for a, b in zip(deadlines, deadlines[1:]) if a > 0)
