"""Differential fuzzing of the whole engine (paper Thm. 3.6, E6).

A seeded random generator builds small GIL programs over the While memory
model — interpreted-symbol inputs, bounded integer arithmetic, forward
branches, bounded loops, object allocation/mutation/lookup/dispose — and
every generated program is cross-checked four ways:

* **concrete vs symbolic** — :func:`check_trace_soundness` symbolically
  executes the program, asks the solver for a model ε of every final's
  path condition, replays ε concretely through the scripted allocator,
  and demands the concrete outcome match (the operational reading of
  Theorem 3.6's no-false-positive guarantee);
* **parallel vs sequential** — the multiset of finals from a
  ``workers=2`` :class:`ParallelExplorer` run must equal the sequential
  run's, exercising the pickle layer (expression re-interning,
  path-condition re-linking, state serialization) on arbitrary program
  shapes rather than hand-picked ones;
* **cached vs uncached** — the Gillian configuration (memoised
  simplifier, solver result and prefix caches, incremental solving)
  against the JaVerT 2.0 baseline (``javert2_baseline``: the same
  simplification rules, nothing memoised or cached) must produce the
  same multiset of finals *and* the same exploration counters (command
  counts, path tallies, stop reason, degradation ledger), with and
  without fault injection: caching may change how fast a query is
  answered, never its answer (paper §4.1);
* **faulted vs fault-free** — the same programs run again under a
  seeded random :class:`FaultPlan` (worker kills by raise and by
  ``os._exit``, injected action errors).  A *transient* fault must be
  recovered by re-sharding to the bit-exact fault-free multiset; a
  *permanent* kill must downgrade to an ``incomplete`` run whose
  salvaged finals plus re-explored ``lost_frontier`` reconstitute the
  fault-free multiset, with :class:`Incompleteness` accounting for
  every item lost.  Solver timeouts are excluded from these exactness
  arms: an assumed-SAT branch may legitimately add finals.

Seeds are fixed, so every failure is reproducible: re-run with the seed
from the failure message.  The default run covers ``QUICK_SEEDS``; the
``slow``-marked long mode widens to ``LONG_SEEDS`` for soak runs
(``make fuzz`` / ``pytest -m slow``).
"""

import dataclasses
import random

import pytest

from repro.engine.explorer import Explorer
from repro.engine.parallel import ParallelExplorer, SymbolicModelFactory
from repro.engine.results import final_sort_key
from repro.soundness.differential import check_trace_soundness
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang import WhileLanguage
from repro.targets.while_lang.memory import WhileSymbolicMemory
from repro.testing.faults import FaultPlan, WorkerKill

# The generator lives in repro.testing.genprog (promoted from this
# module); these re-exports keep the historical import surface —
# tools/fingerprint.py and other tests import from here.
from repro.testing.genprog import (  # noqa: F401  (re-exported API)
    BASELINE_CONFIG,
    CONFIG,
    LONG_SEEDS,
    MAX_INPUTS,
    MAX_LOOP_ITERS,
    MAX_STMTS,
    QUICK_SEEDS,
    ProgramBuilder,
    generate_program,
)

LANG = WhileLanguage()

#: historical alias from before the generator was promoted to src
_ProgramBuilder = ProgramBuilder


# -- the checks ---------------------------------------------------------------


def assert_differential(seed: int) -> None:
    prog = generate_program(seed)
    report = check_trace_soundness(LANG, prog, "main", CONFIG)
    bad = [c for c in report.checks if not c.ok]
    assert not bad, (
        f"seed {seed}: {len(bad)} final(s) failed concrete replay; "
        f"first: {bad[0].detail!r}\nprogram:\n{prog!r}"
    )
    assert report.replayed > 0, f"seed {seed}: nothing was replayable"


def assert_parallel_matches(seed: int) -> None:
    prog = generate_program(seed)
    seq = Explorer(
        prog, SymbolicStateModel(WhileSymbolicMemory()), CONFIG
    ).run("main")
    par = ParallelExplorer(
        prog, SymbolicStateModel(WhileSymbolicMemory()), CONFIG,
        workers=2, seed_factor=1,
    ).run("main")
    assert sorted(final_sort_key(f) for f in par.finals) == sorted(
        final_sort_key(f) for f in seq.finals
    ), f"seed {seed}: parallel finals differ from sequential\nprogram:\n{prog!r}"
    assert par.stats.stop_reason == seq.stats.stop_reason


def _finals_multiset(result):
    return sorted(final_sort_key(f) for f in result.finals)


#: fault shapes whose recovery must be *exact*; solver timeouts are
#: excluded because an assumed-SAT branch may legitimately add finals
EXACT_FAULT_KINDS = ("kill-raise", "kill-exit", "action")


def _exploration_key(stats):
    """Every run counter except timing and the solver's query tallies —
    the fields the caching layers must leave unchanged.  How many
    queries reach the solver, and at which cache tier they are answered,
    is exactly what those layers change."""
    return (
        stats.commands_executed,
        stats.paths_finished,
        stats.paths_vanished,
        stats.paths_dropped,
        stats.stop_reason,
        stats.incompleteness,
    )


def _model(config):
    """A stock symbolic While model whose solver follows ``config``."""
    return SymbolicModelFactory(WhileSymbolicMemory(), config)()


def _parallel_run(prog, config):
    return ParallelExplorer(
        prog, _model(config), config, workers=2, seed_factor=1,
    ).run("main")


def assert_cached_matches(seed: int) -> None:
    """Gillian's caching layers vs the uncached JaVerT 2.0 baseline.

    Both the multiset of finals *and* every exploration counter must be
    identical: the memoised simplifier, the solver caches and
    incremental solving may change how fast a path condition is
    decided, never the decision (paper §4.1: the baseline has
    "identical precision").
    """
    prog = generate_program(seed)
    cached = Explorer(prog, _model(CONFIG), CONFIG).run("main")
    uncached = Explorer(
        prog, _model(BASELINE_CONFIG), BASELINE_CONFIG
    ).run("main")
    assert _finals_multiset(cached) == _finals_multiset(uncached), (
        f"seed {seed}: cached finals differ from uncached\n"
        f"program:\n{prog!r}"
    )
    assert _exploration_key(cached.stats) == _exploration_key(uncached.stats), (
        f"seed {seed}: cached counters diverge from uncached\n"
        f"cached:   {_exploration_key(cached.stats)}\n"
        f"uncached: {_exploration_key(uncached.stats)}\nprogram:\n{prog!r}"
    )


def assert_cached_matches_under_faults(seed: int) -> None:
    """The cached/uncached identity must survive fault injection.

    The same seeded fault plan runs under both configurations: injected
    action errors and worker kills trigger at the same steps either way
    (both execute the same command sequence), so recovery must land on
    the same finals and the same merged counters.
    """
    prog = generate_program(seed)
    plan = FaultPlan.random(seed, workers=2, max_step=12, kinds=EXACT_FAULT_KINDS)

    def faulted(base):
        return dataclasses.replace(base, fault_plan=plan, shard_retry_backoff=0.0)

    cached = _parallel_run(prog, faulted(CONFIG))
    uncached = _parallel_run(prog, faulted(BASELINE_CONFIG))
    assert _finals_multiset(cached) == _finals_multiset(uncached), (
        f"seed {seed}: cached finals differ from uncached under faults\n"
        f"plan: {plan!r}\nprogram:\n{prog!r}"
    )
    assert _exploration_key(cached.stats) == _exploration_key(uncached.stats), (
        f"seed {seed}: cached counters diverge under faults\n"
        f"cached:   {_exploration_key(cached.stats)}\n"
        f"uncached: {_exploration_key(uncached.stats)}\n"
        f"plan: {plan!r}\nprogram:\n{prog!r}"
    )


def assert_fault_recovery(seed: int) -> None:
    """A transient random fault must be retried away to the exact result.

    The plan is seeded alongside the program, so a failing seed pins
    down both the program *and* the fault that broke recovery.  Faults
    whose trigger never fires (e.g. a kill step beyond the shard's run)
    degrade to the zero-fault case, which must also be exact.
    """
    prog = generate_program(seed)
    reference = _parallel_run(prog, CONFIG)
    plan = FaultPlan.random(seed, workers=2, max_step=12, kinds=EXACT_FAULT_KINDS)
    faulted_config = dataclasses.replace(
        CONFIG, fault_plan=plan, shard_retry_backoff=0.0
    )
    recovered = _parallel_run(prog, faulted_config)
    assert recovered.report.complete, (
        f"seed {seed}: transient fault not recovered "
        f"({recovered.report.summary()})\nplan: {plan!r}\nprogram:\n{prog!r}"
    )
    assert _finals_multiset(recovered) == _finals_multiset(reference), (
        f"seed {seed}: recovered finals differ from fault-free run\n"
        f"plan: {plan!r}\nprogram:\n{prog!r}"
    )


def assert_incompleteness_accounts_exactly(seed: int) -> None:
    """A permanent kill must lose *exactly* the frontier it reports.

    Salvaged finals from healthy shards plus a sequential re-exploration
    of ``lost_frontier`` must reconstitute the fault-free multiset — the
    ``incomplete`` downgrade may not silently drop or duplicate paths.
    """
    prog = generate_program(seed)
    reference = _parallel_run(prog, CONFIG)
    doomed = random.Random(seed).randrange(2)
    plan = FaultPlan(kills=(WorkerKill(doomed, at_step=0, attempts=99),))
    partial_config = dataclasses.replace(
        CONFIG, fault_plan=plan, max_shard_retries=0, shard_retry_backoff=0.0
    )
    partial = _parallel_run(prog, partial_config)
    inc = partial.stats.incompleteness
    if not partial.lost_frontier:
        # The doomed worker drew an empty shard: nothing fired, so the
        # run must be clean and already exact.
        assert partial.report.complete, f"seed {seed}: {partial.report.summary()}"
        assert _finals_multiset(partial) == _finals_multiset(reference)
        return
    assert partial.stats.stop_reason == "incomplete", f"seed {seed}"
    assert inc.shards_lost >= 1, f"seed {seed}"
    assert inc.frontier_lost == len(partial.lost_frontier), f"seed {seed}"
    configs = [cfg for cfg, _ in partial.lost_frontier]
    depths = [depth for _, depth in partial.lost_frontier]
    rest = Explorer(
        prog, SymbolicStateModel(WhileSymbolicMemory()), CONFIG
    ).explore(configs, depths=depths)
    combined = sorted(_finals_multiset(partial) + _finals_multiset(rest))
    assert combined == _finals_multiset(reference), (
        f"seed {seed}: salvaged + re-explored finals differ from the "
        f"fault-free run\nprogram:\n{prog!r}"
    )


class TestGenerator:
    def test_same_seed_same_program(self):
        assert repr(generate_program(7)) == repr(generate_program(7))

    def test_seeds_vary(self):
        assert len({repr(generate_program(s)) for s in range(10)}) > 1

    def test_generated_programs_terminate(self):
        for seed in range(10):
            result = Explorer(
                generate_program(seed),
                SymbolicStateModel(WhileSymbolicMemory()),
                CONFIG,
            ).run("main")
            assert result.stats.stop_reason == "exhausted", f"seed {seed}"


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_concrete_vs_symbolic(self, seed):
        assert_differential(seed)

    @pytest.mark.parametrize("seed", list(QUICK_SEEDS)[::4])
    def test_parallel_vs_sequential(self, seed):
        assert_parallel_matches(seed)

    @pytest.mark.parametrize("seed", QUICK_SEEDS)
    def test_cached_vs_uncached(self, seed):
        assert_cached_matches(seed)


class TestFaultInjectionFuzz:
    """The fault-injecting arm (``make fuzz-faults`` runs just this)."""

    @pytest.mark.parametrize("seed", list(QUICK_SEEDS)[::6])
    def test_transient_fault_recovers_exactly(self, seed):
        assert_fault_recovery(seed)

    @pytest.mark.parametrize("seed", list(QUICK_SEEDS)[3::12])
    def test_permanent_fault_accounts_exactly(self, seed):
        assert_incompleteness_accounts_exactly(seed)

    @pytest.mark.parametrize("seed", list(QUICK_SEEDS)[1::6])
    def test_cached_vs_uncached_under_faults(self, seed):
        assert_cached_matches_under_faults(seed)


@pytest.mark.slow
class TestDifferentialFuzzLong:
    """Soak mode: the full seed range (run via ``make fuzz``)."""

    @pytest.mark.parametrize("seed", LONG_SEEDS)
    def test_concrete_vs_symbolic_long(self, seed):
        assert_differential(seed)

    @pytest.mark.parametrize("seed", list(LONG_SEEDS)[::8])
    def test_parallel_vs_sequential_long(self, seed):
        assert_parallel_matches(seed)

    @pytest.mark.parametrize("seed", list(LONG_SEEDS)[::10])
    def test_transient_fault_recovers_exactly_long(self, seed):
        assert_fault_recovery(seed)

    @pytest.mark.parametrize("seed", list(LONG_SEEDS)[5::20])
    def test_permanent_fault_accounts_exactly_long(self, seed):
        assert_incompleteness_accounts_exactly(seed)

    @pytest.mark.parametrize("seed", LONG_SEEDS)
    def test_cached_vs_uncached_long(self, seed):
        assert_cached_matches(seed)

    @pytest.mark.parametrize("seed", list(LONG_SEEDS)[7::16])
    def test_cached_vs_uncached_under_faults_long(self, seed):
        assert_cached_matches_under_faults(seed)
