"""Cross-target differential fuzzing (the four-instantiation oracle).

One seeded, target-agnostic program shape per seed is lowered to
MiniWhile, MiniJS, MiniC and MiniRust sources with equivalent semantics
(:mod:`repro.testing.genprog`), then cross-checked four ways:

* **across targets** — the concrete outcome class (returned value,
  assertion failure, memory fault, or vanish) must be identical for all
  four lowerings on *every* input tuple of the bounded grid.  Each
  target runs the shape through its own parser, compiler and memory
  model, so agreement here exercises the full front-end stack of every
  instantiation against the other three;
* **across worker counts** — for every target, the symbolic finals at
  ``workers=2`` and ``workers=4`` must equal the sequential run's;
* **across solver configurations** — for every target, the Gillian
  configuration and the uncached JaVerT 2.0 baseline must produce the
  same finals and execute the same number of commands;
* **under faults** — a seeded transient fault plan (worker kills +
  injected action errors) must recover to the fault-free finals, per
  target;
* **bug hunting** — the incorrectness arm (:func:`repro.specs.find_bugs`)
  must report bugs on every target, each confirmed by concrete
  counter-model replay.

Every failure message carries the seed and a one-liner that reprints
the offending lowering, so failures reproduce from the terminal.
"""

import dataclasses

import pytest

from repro.engine.explorer import Explorer
from repro.engine.parallel import ParallelExplorer, SymbolicModelFactory
from repro.engine.results import final_sort_key
from repro.specs import find_bugs
from repro.state.symbolic import SymbolicStateModel
from repro.testing.faults import FaultPlan
from repro.testing.genprog import (
    BASELINE_CONFIG,
    CONFIG,
    CROSS_QUICK_SEEDS,
    CROSS_TARGETS,
    concrete_outcome,
    cross_languages,
    generate_cross_program,
    input_grid,
)

LANGS = cross_languages()

#: fault shapes whose recovery must be exact (no solver timeouts)
EXACT_FAULT_KINDS = ("kill-raise", "kill-exit", "action")


def _compiled(seed):
    cp = generate_cross_program(seed)
    return cp, {t: LANGS[t].compile(cp.sources[t]) for t in CROSS_TARGETS}


def _finals(result):
    return sorted(final_sort_key(f) for f in result.finals)


def _sequential(target, prog, config=CONFIG):
    # The model's solver follows the config, so BASELINE_CONFIG runs
    # without the simplifier memo, the solver caches and incrementality.
    model = SymbolicModelFactory(LANGS[target].symbolic_memory(), config)()
    return Explorer(prog, model, config).run("main")


def _parallel(target, prog, workers, config=CONFIG):
    model = SymbolicStateModel(LANGS[target].symbolic_memory())
    return ParallelExplorer(
        prog, model, config, workers=workers, seed_factor=1
    ).run("main")


class TestCrossGenerator:
    def test_same_seed_same_sources(self):
        assert generate_cross_program(11).sources == generate_cross_program(11).sources

    def test_seeds_vary(self):
        assert len({generate_cross_program(s).sources["rust"] for s in range(10)}) > 1

    def test_all_targets_compile_every_quick_seed(self):
        for seed in CROSS_QUICK_SEEDS:
            cp = generate_cross_program(seed)
            for target in CROSS_TARGETS:
                LANGS[target].compile(cp.sources[target])


class TestCrossTargetAgreement:
    @pytest.mark.parametrize("seed", CROSS_QUICK_SEEDS)
    def test_concrete_grid_agrees(self, seed):
        cp, progs = _compiled(seed)
        for values in input_grid(cp.num_inputs):
            outcomes = {
                t: concrete_outcome(LANGS[t], progs[t], values)
                for t in CROSS_TARGETS
            }
            assert len(set(outcomes.values())) == 1, (
                f"seed {seed}: targets disagree on inputs {values}: "
                f"{outcomes}\nreproduce each lowering with e.g.\n  "
                + "\n  ".join(cp.repro(t) for t in CROSS_TARGETS)
            )


class TestPerTargetEngineArms:
    @pytest.mark.parametrize("seed", CROSS_QUICK_SEEDS)
    @pytest.mark.parametrize("target", CROSS_TARGETS)
    def test_workers_parity(self, seed, target):
        cp, progs = _compiled(seed)
        reference = _finals(_sequential(target, progs[target]))
        for workers in (2, 4):
            par = _parallel(target, progs[target], workers)
            assert _finals(par) == reference, (
                f"seed {seed} [{target}]: workers={workers} finals differ "
                f"from sequential\nreproduce: {cp.repro(target)}"
            )

    @pytest.mark.parametrize("seed", CROSS_QUICK_SEEDS)
    @pytest.mark.parametrize("target", CROSS_TARGETS)
    def test_cached_vs_uncached(self, seed, target):
        cp, progs = _compiled(seed)
        cached = _sequential(target, progs[target])
        uncached = _sequential(target, progs[target], BASELINE_CONFIG)
        assert _finals(cached) == _finals(uncached), (
            f"seed {seed} [{target}]: cached finals differ from "
            f"uncached\nreproduce: {cp.repro(target)}"
        )
        assert (
            cached.stats.commands_executed == uncached.stats.commands_executed
        ), f"seed {seed} [{target}]: command counts differ"

    @pytest.mark.parametrize("seed", CROSS_QUICK_SEEDS)
    @pytest.mark.parametrize("target", CROSS_TARGETS)
    def test_transient_fault_recovers(self, seed, target):
        cp, progs = _compiled(seed)
        reference = _finals(_parallel(target, progs[target], 2))
        plan = FaultPlan.random(
            seed, workers=2, max_step=12, kinds=EXACT_FAULT_KINDS
        )
        faulted = dataclasses.replace(
            CONFIG, fault_plan=plan, shard_retry_backoff=0.0
        )
        recovered = _parallel(target, progs[target], 2, faulted)
        assert recovered.report.complete, (
            f"seed {seed} [{target}]: transient fault not recovered "
            f"({recovered.report.summary()})\nplan: {plan!r}\n"
            f"reproduce: {cp.repro(target)}"
        )
        assert _finals(recovered) == reference, (
            f"seed {seed} [{target}]: recovered finals differ from "
            f"fault-free run\nplan: {plan!r}\nreproduce: {cp.repro(target)}"
        )


class TestIncorrectnessArm:
    @pytest.mark.parametrize("target", CROSS_TARGETS)
    def test_every_reported_bug_is_confirmed(self, target):
        # Under-approximate summaries may drop bugs but never invent
        # them (arXiv 2407.10838): every report replays concretely.
        bugs = 0
        for seed in CROSS_QUICK_SEEDS:
            cp, progs = _compiled(seed)
            report = find_bugs(LANGS[target], progs[target], "main", CONFIG)
            assert report.all_confirmed, (
                f"seed {seed} [{target}]: unconfirmed bug reports "
                f"{[bug.detail for bug in report.bugs if not bug.confirmed]}"
                f"\nreproduce: {cp.repro(target)}"
            )
            bugs += len(report.bugs)
        assert bugs >= 1, f"[{target}]: no bug found over the quick seeds"
