"""Tests for the incremental path-condition solving layer.

The incremental layer (per-prefix :class:`SolverContext`, delta-only
normalisation, parent-model reuse, prefix caching) must be a
pure performance optimisation: every verdict it produces must agree with
the monolithic from-scratch solve.  The only permitted divergence is
precision *gain* — the model-reuse fast path may answer SAT (with a
verified witness) where the bounded monolithic search gives up with
UNKNOWN.  It must never flip SAT/UNSAT, and never answer UNSAT unless the
monolithic solve does.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gil.ops import evaluate
from repro.logic.expr import FALSE, Lit, LVar
from repro.logic.pathcond import PathCondition
from repro.logic.simplify import Simplifier
from repro.logic.solver import SatResult, Solver

x, y, z = LVar("x"), LVar("y"), LVar("z")


def chain_of(conjuncts):
    """Build a path condition one conjoin at a time (a prefix chain)."""
    pc = PathCondition.true()
    for c in conjuncts:
        pc = pc.conjoin(c)
    return pc


class TestPrefixCaching:
    def test_same_query_twice_hits_context(self):
        s = Solver()
        pc = chain_of([Lit(0).leq(x), x.lt(Lit(5))])
        assert s.check(pc) is SatResult.SAT
        before = s.stats.prefix_hits
        assert s.check(pc) is SatResult.SAT
        assert s.stats.prefix_hits == before + 1

    def test_sibling_shares_solved_prefix(self):
        s = Solver()
        parent = chain_of([Lit(0).leq(x), x.lt(Lit(10))])
        assert s.check(parent) is SatResult.SAT
        solves = s.stats.incremental_solves + s.stats.monolithic_solves
        # Two children of the same parent: each solves only its delta.
        assert s.check(parent.conjoin(x.lt(Lit(5)))) is SatResult.SAT
        assert s.check(parent.conjoin(Lit(5).leq(x))) is SatResult.SAT
        new_solves = (
            s.stats.incremental_solves + s.stats.monolithic_solves - solves
        )
        assert new_solves <= 2  # never re-solved the shared prefix

    def test_same_delta_from_same_parent_cached(self):
        s = Solver()
        parent = chain_of([Lit(0).leq(x)])
        assert s.check(parent) is SatResult.SAT
        delta = x.lt(Lit(3))
        # Two *distinct* child nodes with the same (parent, delta): the
        # second is answered from the (parent uid, added) prefix cache.
        c1, c2 = parent.conjoin(delta), parent.conjoin(delta)
        assert c1 is not c2
        assert s.check(c1) is SatResult.SAT
        before = s.stats.prefix_hits
        assert s.check(c2) is SatResult.SAT
        assert s.stats.prefix_hits == before + 1

    def test_double_negated_extension_gets_same_sat_verdict(self):
        # A conjunct and its double negation: the (parent, added) prefix
        # cache keys on the raw ``added`` tuple, so the second child
        # misses it and is re-decided — with the same verdict, and a
        # model that verifies against every conjunct it was phrased with.
        s = Solver()
        parent = chain_of([Lit(0).leq(x)])
        assert s.check(parent) is SatResult.SAT
        a, b = x.lt(Lit(7)), y.eq(x)
        plain = parent.conjoin_all((a, b))
        negated = parent.conjoin_all((a.not_().not_(), b))
        assert s.check(plain) is SatResult.SAT
        assert s.check(negated) is SatResult.SAT
        for pc in (plain, negated):
            model = s.get_model(pc)
            assert model is not None
            for c in pc.conjuncts:
                assert evaluate(c, lvar_env=model) is True

    def test_double_negated_extension_gets_same_unsat_verdict(self):
        s = Solver()
        parent = chain_of([Lit(0).leq(x)])
        assert s.check(parent) is SatResult.SAT
        a, b = x.lt(Lit(3)), Lit(5).lt(x)
        assert s.check(parent.conjoin_all((a, b))) is SatResult.UNSAT
        assert s.check(parent.conjoin_all((a.not_().not_(), b))) is SatResult.UNSAT
        assert s.get_model(parent.conjoin_all((a.not_().not_(), b))) is None

    def test_permuted_chain_gets_same_verdict(self):
        s = Solver()
        sat = [Lit(0).leq(x), x.lt(y), y.lt(Lit(9))]
        unsat = [Lit(0).leq(x), x.lt(y), y.lt(x)]
        for conjuncts, verdict in ((sat, SatResult.SAT), (unsat, SatResult.UNSAT)):
            assert s.check(chain_of(conjuncts)) is verdict
            assert s.check(chain_of(reversed(conjuncts))) is verdict

    def test_prefix_queries_leave_list_cache_empty(self):
        # Prefix chains are cached by uid and (parent, added) only; the
        # frozenset cache belongs to list queries, where a repeat hits.
        s = Solver()
        conjuncts = [Lit(0).leq(x), x.lt(y), y.lt(Lit(9))]
        assert s.check(chain_of(conjuncts)) is SatResult.SAT
        assert s.get_model(chain_of(reversed(conjuncts))) is not None
        assert s._cache == {}
        assert s.stats.cache_hits == 0
        assert s.check(conjuncts) is SatResult.SAT
        assert s.check(list(reversed(conjuncts))) is SatResult.SAT
        assert s.stats.cache_hits == 1
        assert len(s._cache) == 1

    def test_unsat_inherited_by_children(self):
        s = Solver()
        pc = chain_of([x.lt(Lit(0)), Lit(0).lt(x)])
        assert s.check(pc) is SatResult.UNSAT
        before = s.stats.unsat_inherited
        child = pc.conjoin(y.eq(Lit(1)))
        assert s.check(child) is SatResult.UNSAT
        assert s.stats.unsat_inherited == before + 1

    def test_false_delta_is_unsat(self):
        s = Solver()
        pc = chain_of([Lit(0).leq(x)])
        assert s.check(pc) is SatResult.SAT
        assert s.check(pc.conjoin(FALSE)) is SatResult.UNSAT

    def test_get_model_from_context(self):
        s = Solver()
        pc = chain_of([Lit(3).lt(x), x.lt(Lit(6)), y.eq(x)])
        model = s.get_model(pc)
        assert model is not None
        for c in pc:
            assert evaluate(c, lvar_env=model) is True


_atoms = st.one_of(
    st.integers(-4, 4).map(Lit),
    st.sampled_from([LVar("x"), LVar("y"), LVar("z")]),
)


@st.composite
def _constraints(draw):
    out = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(_atoms), draw(_atoms)
        kind = draw(st.sampled_from(["lt", "leq", "eq", "neq"]))
        c = getattr(a, kind)(b)
        if draw(st.booleans()):
            d = getattr(draw(_atoms), draw(st.sampled_from(["lt", "eq"])))(
                draw(_atoms)
            )
            c = c.or_(d)
        out.append(c)
    return out


def _fresh_pair():
    incremental = Solver(incremental=True)
    monolithic = Solver(
        simplifier=Simplifier(memoise=False),
        cache_enabled=False,
        incremental=False,
    )
    return incremental, monolithic


def _assert_agreement(r_inc, r_mono, conjuncts):
    if r_inc is not r_mono:
        # Precision gain only: a verified model where the bounded
        # monolithic search returned UNKNOWN.
        assert r_inc is SatResult.SAT and r_mono is SatResult.UNKNOWN, (
            r_inc,
            r_mono,
            conjuncts,
        )


@given(conjuncts=_constraints(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_incremental_agrees_with_monolithic(conjuncts, seed):
    """Randomised conjunct sequences: grow a chain one conjunct at a time
    (in a random order) and compare every intermediate verdict against a
    from-scratch monolithic solve of the same conjunction."""
    order = list(conjuncts)
    random.Random(seed).shuffle(order)
    incremental, monolithic = _fresh_pair()
    pc = PathCondition.true()
    for c in order:
        pc = pc.conjoin(c)
        r_inc = incremental.check(pc)
        r_mono = monolithic.check(list(pc.conjuncts))
        _assert_agreement(r_inc, r_mono, pc.conjuncts)
        model = incremental.get_model(pc)
        if model is not None:
            for conjunct in pc.conjuncts:
                assert evaluate(conjunct, lvar_env=model) is True


@given(conjuncts=_constraints())
@settings(max_examples=100, deadline=None)
def test_branching_chains_agree(conjuncts):
    """Sibling extensions of a shared prefix (the explorer's workload):
    each branch point queries both children; verdicts must match the
    monolithic solve for every node of the tree."""
    incremental, monolithic = _fresh_pair()
    mid = len(conjuncts) // 2
    parent = chain_of(conjuncts[:mid])
    incremental.check(parent)
    for tail in (conjuncts[mid:], list(reversed(conjuncts[mid:]))):
        pc = parent
        for c in tail:
            pc = pc.conjoin(c)
            _assert_agreement(
                incremental.check(pc),
                monolithic.check(list(pc.conjuncts)),
                pc.conjuncts,
            )
