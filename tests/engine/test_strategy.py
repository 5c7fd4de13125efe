"""Tests for search strategies (repro.engine.strategy)."""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.engine.strategy import (
    BFSStrategy,
    CoverageGuidedStrategy,
    DFSStrategy,
    SearchStrategy,
    make_strategy,
    strategy_names,
)
from repro.gil.semantics import Config, TopFrame
from repro.gil.syntax import IfGoto, ISym, Proc, Prog, Return
from repro.logic.expr import Lit, PVar
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import WhileSymbolicMemory


def item(proc: str, idx: int, depth: int = 0):
    """A WorkItem with a distinguishable configuration."""
    return (Config(None, (TopFrame(proc),), idx), depth)


class TestFactory:
    def test_names(self):
        assert strategy_names() == ["bfs", "coverage", "dfs"]

    def test_default_is_dfs(self):
        assert isinstance(make_strategy(None), DFSStrategy)
        assert isinstance(make_strategy("dfs"), DFSStrategy)

    def test_each_name_builds(self):
        for name in strategy_names():
            strat = make_strategy(name)
            assert isinstance(strat, SearchStrategy)
            assert strat.name == name

    def test_instance_passthrough(self):
        strat = BFSStrategy()
        assert make_strategy(strat) is strat

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("astar")

    def test_argument_on_argless_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("dfs:3")


class TestOrdering:
    def test_dfs_is_lifo(self):
        strat = DFSStrategy()
        for i in range(3):
            strat.push(item("p", i))
        assert [strat.pop()[0].idx for _ in range(3)] == [2, 1, 0]

    def test_bfs_is_fifo(self):
        strat = BFSStrategy()
        for i in range(3):
            strat.push(item("p", i))
        assert [strat.pop()[0].idx for _ in range(3)] == [0, 1, 2]

    def test_coverage_prefers_least_visited_site(self):
        strat = CoverageGuidedStrategy()
        # Two items at site (p, 0), one at (p, 1).  After popping one
        # (p, 0) item, the (p, 1) site is less visited and must win even
        # though the second (p, 0) item was queued earlier.
        strat.push(item("p", 0))
        strat.push(item("p", 0))
        strat.push(item("p", 1))
        assert strat.pop()[0].idx == 0
        assert strat.pop()[0].idx == 1
        assert strat.pop()[0].idx == 0

    def test_coverage_fifo_tiebreak(self):
        strat = CoverageGuidedStrategy()
        strat.push(item("a", 0))
        strat.push(item("b", 0))
        assert strat.pop()[0].proc == "a"
        assert strat.pop()[0].proc == "b"


class TestEviction:
    def test_dfs_evicts_oldest(self):
        strat = DFSStrategy()
        for i in range(5):
            strat.push(item("p", i))
        evicted = strat.evict(2)
        # Bottom of the stack: what DFS would have explored last.
        assert [it[0].idx for it in evicted] == [0, 1]
        assert strat.pop()[0].idx == 4

    def test_bfs_evicts_newest(self):
        strat = BFSStrategy()
        for i in range(5):
            strat.push(item("p", i))
        evicted = strat.evict(2)
        assert [it[0].idx for it in evicted] == [3, 4]
        assert strat.pop()[0].idx == 0

    def test_coverage_evicts_most_visited(self):
        strat = CoverageGuidedStrategy()
        strat.push(item("p", 0))
        strat.push(item("p", 1))
        strat.pop()  # visits (p, 0)
        strat.push(item("p", 0))
        strat.push(item("p", 2))
        # Pending: (p,1) unvisited, (p,0) visited once, (p,2) unvisited.
        evicted = strat.evict(1)
        assert [it[0].idx for it in evicted] == [0]

    def test_evict_caps_at_length(self):
        for spec in strategy_names():
            strat = make_strategy(spec)
            strat.push(item("p", 0))
            assert len(strat.evict(10)) == 1
            assert len(strat) == 0


class TestExplorationInvariance:
    """All strategies find the same multiset of finals on exhaustive runs."""

    def _branching_prog(self, n=4):
        body = tuple(ISym(f"b{i}", i) for i in range(n))
        for i in range(n):
            body += (IfGoto(PVar(f"b{i}").eq(Lit(True)), len(body) + 1),)
        body += (Return(Lit("done")),)
        prog = Prog()
        prog.add(Proc("main", (), body))
        return prog

    def _finals_multiset(self, strategy):
        sm = SymbolicStateModel(WhileSymbolicMemory())
        result = Explorer(self._branching_prog(), sm, strategy=strategy).run("main")
        assert result.stats.stop_reason == "exhausted"
        finals = sorted((f.kind.name, repr(f.value)) for f in result.finals)
        return finals, result.stats.paths_finished

    def test_identical_finals_across_strategies(self):
        reference = self._finals_multiset("dfs")
        for spec in ("bfs", "coverage"):
            assert self._finals_multiset(spec) == reference

    def test_config_strategy_field_selects_policy(self):
        config = EngineConfig(strategy="bfs")
        sm = SymbolicStateModel(WhileSymbolicMemory())
        explorer = Explorer(self._branching_prog(), sm, config)
        assert isinstance(explorer._make_strategy(), BFSStrategy)

    def test_explicit_strategy_overrides_config(self):
        config = EngineConfig(strategy="bfs")
        sm = SymbolicStateModel(WhileSymbolicMemory())
        explorer = Explorer(self._branching_prog(), sm, config, strategy="coverage")
        assert isinstance(explorer._make_strategy(), CoverageGuidedStrategy)


class TestMalformedSpecs:
    """make_strategy must reject malformed specs with a clear ValueError,
    not silently fall back to a default policy."""

    # A spec is a bare policy name: no form of "random", with or without
    # a seed, names one, and the error lists the names that do.
    UNKNOWN = r"unknown search strategy.*\(known: bfs, coverage, dfs\)"

    def test_random_is_unknown(self):
        for spec in ("random", "random:7"):
            with pytest.raises(ValueError, match=self.UNKNOWN):
                make_strategy(spec)

    def test_random_with_empty_seed(self):
        with pytest.raises(ValueError, match=self.UNKNOWN):
            make_strategy("random:")

    def test_random_with_non_integer_seed(self):
        with pytest.raises(ValueError, match=r"'random:notanint'.*\(known: bfs, coverage, dfs\)"):
            make_strategy("random:notanint")

    def test_random_with_float_seed(self):
        with pytest.raises(ValueError, match=self.UNKNOWN):
            make_strategy("random:1.5")

    def test_random_with_whitespace_seed_accepted(self):
        # The padded spec is accepted as a name string (no type error) and
        # reaches the name lookup, which rejects it quoting the spec as given.
        with pytest.raises(ValueError, match=r"'random: 42 '.*\(known: bfs, coverage, dfs\)"):
            make_strategy("random: 42 ")

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ValueError, match="bfs.*coverage.*dfs"):
            make_strategy("montecarlo")

    def test_unknown_name_with_argument(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            make_strategy("astar:4")

    def test_non_string_non_strategy_rejected(self):
        for bad in (7, 1.5, ["dfs"], {"name": "dfs"}):
            with pytest.raises(ValueError, match="name string or a SearchStrategy"):
                make_strategy(bad)

    def test_case_and_whitespace_normalised(self):
        assert isinstance(make_strategy("  BFS "), BFSStrategy)


class TestCoverageEvictionTies:
    def test_tied_sites_evict_most_recent_first(self):
        # Four pending items at two never-visited sites: all priorities
        # tie at 0, so eviction must fall back to recency — the most
        # recently queued goes first, deterministically.
        strat = CoverageGuidedStrategy()
        strat.push(item("p", 0, depth=0))
        strat.push(item("q", 0, depth=1))
        strat.push(item("p", 0, depth=2))
        strat.push(item("q", 0, depth=3))
        evicted = strat.evict(2)
        assert [it[1] for it in evicted] == [3, 2]
        assert len(strat) == 2

    def test_tie_break_is_reproducible(self):
        def run():
            strat = CoverageGuidedStrategy()
            for i in range(6):
                strat.push(item("p" if i % 2 else "q", 0, depth=i))
            return [it[1] for it in strat.evict(4)]

        assert run() == run()

    def test_visited_site_beats_tied_fresh_sites(self):
        strat = CoverageGuidedStrategy()
        strat.push(item("p", 0, depth=0))
        strat.pop()  # (p, 0) now visited once
        strat.push(item("p", 0, depth=1))  # same site: priority 1
        strat.push(item("q", 0, depth=2))  # fresh: priority 0
        strat.push(item("r", 0, depth=3))  # fresh: priority 0
        # The single eviction victim must be the visited site's item even
        # though the fresh items were queued later.
        assert [it[1] for it in strat.evict(1)] == [1]
