"""Solver regression corpus.

Every case here once returned the wrong (or an unnecessarily weak) answer
during development; each is pinned with the mechanism that now decides it.
"""

import pytest

from repro.gil.ops import evaluate
from repro.gil.values import GilType, Symbol
from repro.logic.expr import (
    BinOp,
    BinOpExpr,
    Lit,
    LVar,
    UnOp,
    UnOpExpr,
    lst,
)
from repro.logic.solver import SatResult, Solver

x, y, z = LVar("x"), LVar("y"), LVar("z")
i = LVar("i")


def _int(v):
    return UnOpExpr(UnOp.FLOOR, v).eq(v)


class TestStrictBounds:
    """Strict endpoints: point interval + strict inequality."""

    def test_eq_and_strict_lt(self):
        assert Solver().check([x.eq(Lit(5)), x.lt(Lit(5))]) is SatResult.UNSAT

    def test_propagated_point_and_strict(self):
        pc = [x.eq(y), y.eq(Lit(5)), x.lt(Lit(5))]
        assert Solver().check(pc) is SatResult.UNSAT


class TestDifferenceCycles:
    """x < y < x style cycles (Bellman/Floyd over difference constraints)."""

    def test_two_cycle(self):
        assert Solver().check([x.lt(y), y.lt(x)]) is SatResult.UNSAT

    def test_three_cycle_with_leq(self):
        assert Solver().check([x.lt(y), y.leq(z), z.lt(x)]) is SatResult.UNSAT

    def test_antisymmetry_with_diseq(self):
        # x ≤ y ∧ y ≤ x forces x = y; a disequality then contradicts.
        pc = [x.leq(y), y.leq(x), x.neq(y)]
        assert Solver().check(pc) is SatResult.UNSAT

    def test_antisymmetry_with_offset(self):
        pc = [x.leq(y + 3), (y + 3).leq(x), x.neq(y + 3)]
        assert Solver().check(pc) is SatResult.UNSAT


class TestIntegrality:
    """floor(x) = x marks integrality; bounds round inward."""

    def test_open_unit_interval_empty_for_ints(self):
        pc = [_int(x), Lit(0).lt(x), x.lt(Lit(1))]
        assert Solver().check(pc) is SatResult.UNSAT

    def test_domain_exhaustion(self):
        pc = [_int(x), Lit(0).leq(x), x.leq(Lit(1)), x.neq(Lit(0)), x.neq(Lit(1))]
        assert Solver().check(pc) is SatResult.UNSAT

    def test_real_valued_stays_sat(self):
        # Without integrality, 0 < x < 1 has models.
        pc = [Lit(0).lt(x), x.lt(Lit(1))]
        model = Solver().get_model(pc)
        assert model is not None and 0 < model["x"] < 1


class TestModQuotientRelation:
    """m = x - n·⌊x/n⌋ links remainders to their operands."""

    def _mod(self, e, n):
        return BinOpExpr(BinOp.MOD, e, Lit(n))

    def test_mod_determined_by_small_range(self):
        pc = [_int(i), Lit(0).leq(i), i.lt(Lit(3)), (self._mod(i, 4) * 4).eq(Lit(12))]
        assert Solver().check(pc) is SatResult.UNSAT

    def test_mod_domain_exhaustion(self):
        pc = [_int(i), Lit(0).leq(i), i.lt(Lit(3))]
        pc += [(self._mod(i, 4) * 4).neq(Lit(k)) for k in (0, 4, 8, 12)]
        assert Solver().check(pc) is SatResult.UNSAT

    def test_mod_model_found(self):
        pc = [_int(i), Lit(0).leq(i), i.lt(Lit(4)), self._mod(i, 4).eq(Lit(2))]
        model = Solver().get_model(pc)
        assert model == {"i": 2}


class TestFourierMotzkin:
    """Cross-constraint bounds (x = 2y ∧ x - y > 10 ⟹ y > 10)."""

    def test_dart_equation(self):
        model = Solver().get_model([x.eq(y * 2), Lit(10).lt(x - y)])
        assert model is not None
        assert model["x"] == 2 * model["y"] and model["x"] - model["y"] > 10

    def test_sum_and_difference(self):
        model = Solver().get_model([(x + y).eq(Lit(10)), (x - y).eq(Lit(4))])
        assert model == {"x": 7, "y": 3}

    def test_derived_contradiction(self):
        # x = 2y ∧ x < y ∧ y > 0: eliminating x yields y < 0.
        pc = [x.eq(y * 2), x.lt(y), Lit(0).lt(y)]
        assert Solver().check(pc) is SatResult.UNSAT


class TestUnboundedEndpoints:
    """An unbounded endpoint is unbounded, not a large finite number: a
    bound past ±10¹² once made these satisfiable guards UNSAT."""

    @pytest.mark.parametrize(
        "pc",
        [
            [Lit(2 * 10**12).lt(x)],
            [x.lt(Lit(-2 * 10**12))],
            [x.eq(Lit(3 * 10**12))],
        ],
        ids=["above-2e12", "below-minus-2e12", "equals-3e12"],
    )
    def test_large_bound_is_sat(self, pc):
        s = Solver()
        assert s.check(pc) is SatResult.SAT
        model = s.get_model(pc)
        assert model is not None
        assert all(evaluate(c, lvar_env=model) is True for c in pc)


class TestTypeAwareness:
    """0/False and 1/True must never be conflated."""

    def test_bool_number_literals_distinct(self):
        assert Solver().check([Lit(0).eq(Lit(False))]) is SatResult.UNSAT
        assert Solver().check([Lit(1).eq(Lit(True))]) is SatResult.UNSAT

    def test_typeof_folds_on_compound(self):
        # typeof(#n + 1) is statically Num: the Str branch must die.
        pc = [(x + 1).typeof().eq(Lit(GilType.STRING))]
        assert Solver().check(pc) is SatResult.UNSAT


class TestStringPrefix:
    """Dictionary-style '$'-prefixed keys (Buckets.js idiom)."""

    def test_prefix_cancellation(self):
        a, b = LVar("a"), LVar("b")
        prefix = BinOpExpr(BinOp.SCONCAT, Lit("$"), a)
        other = BinOpExpr(BinOp.SCONCAT, Lit("$"), b)
        model = Solver().get_model([prefix.eq(other), a.neq(Lit(""))])
        assert model is not None and model["a"] == model["b"]

    def test_prefix_vs_literal(self):
        a = LVar("a")
        prefix = BinOpExpr(BinOp.SCONCAT, Lit("$"), a)
        model = Solver().get_model([prefix.eq(Lit("$secret"))])
        assert model == {"a": "secret"}

    def test_prefix_mismatch_unsat(self):
        a = LVar("a")
        prefix = BinOpExpr(BinOp.SCONCAT, Lit("$"), a)
        assert Solver().check([prefix.eq(Lit("nope"))]) is SatResult.UNSAT


class TestLengthReasoning:
    def test_strlen_concat_distributes(self):
        s = LVar("s")
        t = BinOpExpr(BinOp.SCONCAT, s, Lit("!"))
        pc = [
            UnOpExpr(UnOp.STRLEN, t).neq(UnOpExpr(UnOp.STRLEN, s) + 1)
        ]
        assert Solver().check(pc) is SatResult.UNSAT

    def test_lengths_nonnegative(self):
        s = LVar("s")
        assert Solver().check([UnOpExpr(UnOp.STRLEN, s).lt(Lit(0))]) is SatResult.UNSAT
        assert Solver().check([UnOpExpr(UnOp.LSTLEN, s).lt(Lit(0))]) is SatResult.UNSAT


class TestModelCompletion:
    """Variables eliminated by simplification still get model values."""

    def test_tautology_var_gets_default(self):
        model = Solver().get_model([x.leq(x)])
        assert model is not None and "x" in model

    def test_mixed_eliminated_and_constrained(self):
        model = Solver().get_model([x.leq(x), y.eq(Lit(3))])
        assert model is not None and model["y"] == 3 and "x" in model
