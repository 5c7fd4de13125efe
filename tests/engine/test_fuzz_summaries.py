"""Differential fuzzing of compositional execution (repro.specs).

A seeded call-heavy generator (:func:`repro.testing.genprog.
generate_call_program`) builds multi-procedure GIL programs — pure
helpers with branching arithmetic and nested static calls, impure
helpers that allocate and mutate objects, a ``main`` mixing repeated
calls between ordinary statements — and every seed is cross-checked:

* **summaries-on vs -off** — the multiset of finals must be identical
  with ``summaries=True``, sequentially and under ``workers=2``:
  replaying a recorded summary at a call site must be observationally
  equal to inline descent (``docs/summaries.md`` §replay soundness);
* **engagement** — across the corpus, summaries must actually fire
  (cached-call replays, not silent inline fallback), so the equality
  above tests the replay path rather than an idle engine;
* **incorrectness mode** — error finals found with under-approximate
  summaries must be a submultiset of the fault-free finals (drop paths
  freely, never widen).

Every comparison is restricted to exhaustive runs: a budget-cut run's
final set depends on exploration order, which summaries legitimately
change.  The generator is sized so all seeds explore exhaustively; the
assertion below enforces it rather than assuming it.

Seeds are fixed; reproduce any failure with the seed in its message.
"""

import dataclasses

import pytest

from repro.engine.explorer import Explorer
from repro.engine.parallel import ParallelExplorer
from repro.engine.results import final_sort_key
from repro.specs.cache import clear_summary_cache
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import WhileSymbolicMemory
from repro.testing.genprog import (
    CONFIG,
    LONG_SEEDS,
    QUICK_SEEDS,
    generate_call_program,
)

SUMMARY_CONFIG = dataclasses.replace(CONFIG, summaries=True)


def _finals_multiset(result):
    return sorted(final_sort_key(f) for f in result.finals)


def _run(prog, config, workers=1):
    """One cold-cache exploration of ``prog`` under ``config``."""
    clear_summary_cache()
    sm = SymbolicStateModel(WhileSymbolicMemory())
    if workers == 1:
        return Explorer(prog, sm, config).run("main")
    return ParallelExplorer(
        prog, sm, config, workers=workers, seed_factor=1
    ).run("main")


def assert_summaries_match(seed: int) -> int:
    """On/off equality; returns the replay count."""
    prog = generate_call_program(seed)
    base = _run(prog, CONFIG)
    assert base.stats.stop_reason == "exhausted", (
        f"seed {seed}: baseline not exhaustive "
        f"({base.stats.stop_reason}); shrink the generator"
    )
    result = _run(prog, SUMMARY_CONFIG)
    assert result.stats.stop_reason == "exhausted", (
        f"seed {seed}: summaries-on not exhaustive"
    )
    assert _finals_multiset(result) == _finals_multiset(base), (
        f"seed {seed}: summaries-on finals differ\nprogram:\n{prog!r}"
    )
    return result.stats.summary_replays


def assert_parallel_matches(seed: int) -> None:
    prog = generate_call_program(seed)
    base = _run(prog, CONFIG)
    par = _run(prog, SUMMARY_CONFIG, workers=2)
    assert _finals_multiset(par) == _finals_multiset(base), (
        f"seed {seed}: workers=2 summaries-on finals differ\n"
        f"program:\n{prog!r}"
    )
    assert par.stats.stop_reason == base.stats.stop_reason


def assert_incorrectness_narrows(seed: int) -> None:
    """Under-approximate runs drop paths but never invent them."""
    prog = generate_call_program(seed)
    base = _run(prog, CONFIG)
    assert base.stats.stop_reason == "exhausted", f"seed {seed}"
    partial_config = dataclasses.replace(
        SUMMARY_CONFIG, summary_mode="incorrectness", summary_max_paths=2
    )
    partial = _run(prog, partial_config)
    remaining = _finals_multiset(base)
    for entry in _finals_multiset(partial):
        assert entry in remaining, (
            f"seed {seed}: incorrectness mode widened the path set "
            f"(extra final {entry!r})\nprogram:\n{prog!r}"
        )
        remaining.remove(entry)


class TestSummariesFuzz:
    def test_on_off_equality_and_engagement(self):
        total_replays = 0
        for seed in QUICK_SEEDS:
            total_replays += assert_summaries_match(seed)
        # The corpus as a whole must exercise replay, or the equality
        # checks above were vacuous.
        assert total_replays > len(list(QUICK_SEEDS)), (
            f"only {total_replays} replays across the corpus — "
            f"the generator stopped producing summarisable calls"
        )

    @pytest.mark.parametrize("seed", list(QUICK_SEEDS)[::10])
    def test_parallel_matches(self, seed):
        assert_parallel_matches(seed)

    @pytest.mark.parametrize("seed", list(QUICK_SEEDS)[::5])
    def test_incorrectness_never_widens(self, seed):
        assert_incorrectness_narrows(seed)


@pytest.mark.slow
class TestSummariesFuzzLong:
    """The soak ranges (``make fuzz-summaries`` / ``pytest -m slow``)."""

    @pytest.mark.parametrize("seed", LONG_SEEDS)
    def test_on_off_equality(self, seed):
        assert_summaries_match(seed)

    @pytest.mark.parametrize("seed", list(LONG_SEEDS)[::16])
    def test_parallel_matches(self, seed):
        assert_parallel_matches(seed)

    @pytest.mark.parametrize("seed", list(LONG_SEEDS)[::8])
    def test_incorrectness_never_widens(self, seed):
        assert_incorrectness_narrows(seed)
