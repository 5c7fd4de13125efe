"""Tests for the first-order solver (repro.logic.solver)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gil.ops import evaluate
from repro.gil.values import GilType, Symbol
from repro.logic.expr import FALSE, TRUE, Lit, LVar, UnOp, UnOpExpr, lst
from repro.logic.pathcond import PathCondition
from repro.logic.simplify import Simplifier
from repro.logic.solver import SatResult, Solver

x, y, z = LVar("x"), LVar("y"), LVar("z")


def fresh_solver(**kw):
    return Solver(**kw)


class TestBasicSat:
    def test_empty_is_sat(self):
        assert fresh_solver().check([]) is SatResult.SAT

    def test_true_is_sat(self):
        assert fresh_solver().check([TRUE]) is SatResult.SAT

    def test_false_is_unsat(self):
        assert fresh_solver().check([FALSE]) is SatResult.UNSAT

    def test_simple_bounds(self):
        s = fresh_solver()
        assert s.check([Lit(0).leq(x), x.lt(Lit(3))]) is SatResult.SAT

    def test_contradictory_bounds(self):
        s = fresh_solver()
        assert s.check([Lit(3).lt(x), x.lt(Lit(2))]) is SatResult.UNSAT

    def test_point_interval_strict(self):
        s = fresh_solver()
        assert s.check([x.eq(Lit(5)), x.lt(Lit(5))]) is SatResult.UNSAT

    def test_difference_cycle(self):
        assert fresh_solver().check([x.lt(y), y.lt(x)]) is SatResult.UNSAT

    def test_three_way_cycle(self):
        s = fresh_solver()
        assert s.check([x.lt(y), y.leq(z), z.lt(x)]) is SatResult.UNSAT

    def test_nonstrict_cycle_is_sat(self):
        s = fresh_solver()
        assert s.check([x.leq(y), y.leq(x)]) is SatResult.SAT

    def test_equality_propagates(self):
        s = fresh_solver()
        assert s.check([x.eq(y), y.eq(Lit(5)), x.lt(Lit(5))]) is SatResult.UNSAT

    def test_transitive_equalities(self):
        s = fresh_solver()
        assert s.check([x.eq(y), y.eq(z), x.neq(z)]) is SatResult.UNSAT


class TestDiseqPointConflict:
    """Disequalities against a point interval: the only UNSAT proof of
    these conjunctions, which fall to UNKNOWN without it."""

    ROWS = {
        "point": [Lit(2).leq(x), x.leq(Lit(2)), x.neq(Lit(2))],
        "sum-of-points": [
            Lit(1).leq(x), x.leq(Lit(1)), Lit(2).leq(y), y.leq(Lit(2)),
            (x + y).neq(Lit(3)),
        ],
        "scaled": [x.leq(Lit(3)), Lit(3).leq(x), y.eq(Lit(2) * x), y.neq(Lit(6))],
        "three-points": [
            Lit(1).leq(x), x.leq(Lit(1)), Lit(2).leq(y), y.leq(Lit(2)),
            Lit(3).leq(z), z.leq(Lit(3)), (x + y + z).neq(Lit(6)),
        ],
    }

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_monolithic_pipeline_refutes(self, name):
        assert fresh_solver().check(self.ROWS[name]) is SatResult.UNSAT

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_incremental_pipeline_refutes(self, name):
        pc = PathCondition.of()
        for conjunct in self.ROWS[name]:
            pc = pc.conjoin(conjunct)
        assert fresh_solver().check(pc) is SatResult.UNSAT


class TestSymbols:
    def test_distinct_symbols_unequal(self):
        s = fresh_solver()
        pc = [x.eq(Lit(Symbol("a"))), x.eq(Lit(Symbol("b")))]
        assert s.check(pc) is SatResult.UNSAT

    def test_symbol_disequality_sat(self):
        s = fresh_solver()
        pc = [x.eq(Lit(Symbol("a"))), x.neq(Lit(Symbol("b")))]
        assert s.check(pc) is SatResult.SAT

    def test_symbol_model(self):
        s = fresh_solver()
        model = s.get_model([x.neq(Lit(Symbol("a")))])
        assert model is not None


class TestStringsAndLists:
    def test_string_equality(self):
        s = fresh_solver()
        model = s.get_model([x.eq(Lit("hello"))])
        assert model == {"x": "hello"}

    def test_string_disequality(self):
        s = fresh_solver()
        model = s.get_model([x.typeof().eq(Lit(GilType.STRING)), x.neq(Lit(""))])
        assert model is not None and model["x"] != ""

    def test_strlen_constraint(self):
        s = fresh_solver()
        pc = [UnOpExpr(UnOp.STRLEN, x).lt(Lit(0))]
        assert s.check(pc) is SatResult.UNSAT

    def test_list_equality_model(self):
        s = fresh_solver()
        model = s.get_model([x.eq(lst(1, 2))])
        assert model == {"x": (1, 2)}


class TestBooleanStructure:
    def test_disjunction_both_branches(self):
        s = fresh_solver()
        pc = [x.eq(Lit(1)).or_(x.eq(Lit(2))), x.neq(Lit(1))]
        model = s.get_model(pc)
        assert model == {"x": 2}

    def test_nested_negation(self):
        s = fresh_solver()
        pc = [x.eq(Lit(1)).or_(x.eq(Lit(2))).not_()]
        model = s.get_model(pc)
        assert model is not None and model["x"] not in (1, 2)

    def test_negated_conjunction(self):
        s = fresh_solver()
        pc = [(x.eq(Lit(1)).and_(y.eq(Lit(2)))).not_(), x.eq(Lit(1))]
        model = s.get_model(pc)
        assert model is not None and model["y"] != 2

    def test_boolean_variable_atom(self):
        s = fresh_solver()
        model = s.get_model([x, x.typeof().eq(Lit(GilType.BOOLEAN))])
        assert model is not None and model["x"] is True

    def test_unsat_disjunction(self):
        s = fresh_solver()
        pc = [x.eq(Lit(1)).or_(x.eq(Lit(2))), x.neq(Lit(1)), x.neq(Lit(2))]
        assert s.check(pc) is SatResult.UNSAT


class TestTypeConflicts:
    def test_type_conflict_unsat(self):
        # x used both as a number and as a string.
        pc = [x.lt(Lit(3)), x.eq(Lit("s"))]
        assert fresh_solver().check(pc) is SatResult.UNSAT

    def test_typeof_constraint_model(self):
        s = fresh_solver()
        model = s.get_model([x.typeof().eq(Lit(GilType.NUMBER)), Lit(5).lt(x)])
        assert model is not None and model["x"] > 5


class TestEntailment:
    def test_entails_weaker_bound(self):
        s = fresh_solver()
        assert s.entails([x.eq(Lit(3))], x.lt(Lit(4)))

    def test_does_not_entail(self):
        s = fresh_solver()
        assert not s.entails([x.lt(Lit(3))], x.lt(Lit(2)))

    def test_entails_from_equalities(self):
        s = fresh_solver()
        assert s.entails([x.eq(y), y.eq(Lit(1))], x.eq(Lit(1)))


class TestModelsAreVerified:
    def test_model_satisfies_all_conjuncts(self):
        s = fresh_solver()
        pc = [Lit(0).leq(x), x.lt(y), y.leq(Lit(4)), x.neq(Lit(1))]
        model = s.get_model(pc)
        assert model is not None
        for c in pc:
            assert evaluate(c, lvar_env=model) is True

    def test_arith_combination(self):
        s = fresh_solver()
        pc = [(x + y).eq(Lit(10)), x.lt(y), Lit(0).leq(x)]
        model = s.get_model(pc)
        assert model is not None
        assert model["x"] + model["y"] == 10 and model["x"] < model["y"]


class TestCaching:
    def test_cache_hits_counted(self):
        s = fresh_solver(cache_enabled=True)
        pc = [x.lt(Lit(3))]
        s.check(pc)
        s.check(pc)
        assert s.stats.cache_hits >= 1

    def test_cache_disabled(self):
        s = fresh_solver(cache_enabled=False)
        pc = [x.lt(Lit(3))]
        s.check(pc)
        s.check(pc)
        assert s.stats.cache_hits == 0

    def test_model_request_after_plain_check(self):
        s = fresh_solver(cache_enabled=True)
        pc = [x.lt(Lit(3))]
        assert s.check(pc) is SatResult.SAT
        assert s.get_model(pc) is not None


class TestPathCondition:
    def test_conjoin_flattens_and_dedupes(self):
        pc = PathCondition.of(x.lt(y))
        pc2 = pc.conjoin(x.lt(y).and_(y.lt(z)))
        assert len(pc2) == 2

    def test_extend_is_restriction(self):
        pc1 = PathCondition.of(x.lt(y))
        pc2 = PathCondition.of(y.lt(z))
        merged = pc1.extend(pc2)
        assert set(merged.conjuncts) == {x.lt(y), y.lt(z)}

    def test_implies_syntactically(self):
        pc1 = PathCondition.of(x.lt(y), y.lt(z))
        pc2 = PathCondition.of(x.lt(y))
        assert pc1.implies_syntactically(pc2)
        assert not pc2.implies_syntactically(pc1)


# -- property-based: solver soundness ------------------------------------------

_num_atoms = st.one_of(
    st.integers(-5, 5).map(Lit),
    st.sampled_from([LVar("x"), LVar("y")]),
    # Scaled, divided and summed terms and a fractional literal reach
    # non-integral quotients in the theory pass.
    st.sampled_from([Lit(2) * x, x / 3, x + y, Lit(0.5)]),
)


@st.composite
def _constraints(draw):
    n = draw(st.integers(1, 4))
    out = []
    for _ in range(n):
        a = draw(_num_atoms)
        b = draw(_num_atoms)
        kind = draw(st.sampled_from(["lt", "leq", "eq", "neq"]))
        out.append(getattr(a, kind)(b))
    return out


@given(pc=_constraints())
@settings(max_examples=200, deadline=None)
def test_sat_models_verify_and_unsat_has_no_small_model(pc):
    s = Solver()
    result, = (s.check(pc),)
    if result is SatResult.SAT:
        model = s.get_model(pc)
        assert model is not None
        for c in pc:
            assert evaluate(c, lvar_env=model) is True
    elif result is SatResult.UNSAT:
        # Exhaustive small-domain refutation: no assignment in [-6, 6]².
        for xv in range(-6, 7):
            for yv in range(-6, 7):
                env = {"x": xv, "y": yv}
                if all(evaluate(c, lvar_env=env) is True for c in pc):
                    raise AssertionError(f"UNSAT but model {env} satisfies {pc}")
