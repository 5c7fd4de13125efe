"""Tests for GIL values and concrete operator semantics.

:class:`TestEvaluatorAgreement` pins the contract between the concrete
evaluator (:func:`repro.gil.ops.evaluate`) and the symbolic route
(simplify ∘ substitute, what ``SymbolicStateModel.eval_expr`` computes
on an all-literal store): when the concrete evaluator *succeeds*, the
symbolic route must produce the same literal with the same runtime
type.  Counter-model replay (Thm. 3.6) compares concrete outcomes with
symbolic finals, so it relies on this agreement.
:class:`TestEndToEnd` checks the same contract on whole programs: the
interpreter over the symbolic state model against the interpreter over
the concrete one.  The awkward corners exercised:

* division and modulo by zero;
* exact-integer division results (``10/2`` is ``5``, not ``5.0``);
* short-circuit ``and``/``or`` (a false left arm must hide an erroring
  right arm, matching the simplifier's annihilator rules);
* mixed-type comparisons (number/string orderings error, ``==`` never
  does, booleans are not numbers, ``10 == 10.0`` holds).
"""

import math

import pytest

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.gil.ops import EvalError, apply_binop, apply_unop, evaluate
from repro.gil.semantics import OutcomeKind
from repro.gil.syntax import Assignment, Proc, Prog, Return
from repro.gil.values import (
    NULL,
    GilType,
    Symbol,
    is_value,
    pp_value,
    type_of,
    values_equal,
)
from repro.logic.expr import (
    BinOp,
    BinOpExpr,
    Expr,
    Lit,
    LVar,
    PVar,
    UnOp,
    lst,
    substitute_pvars,
)
from repro.logic.simplify import Simplifier
from repro.state.concrete import ConcreteStateModel
from repro.state.symbolic import SymbolicStateModel
from repro.targets.while_lang.memory import (
    WhileConcreteMemory,
    WhileSymbolicMemory,
)


class TestValues:
    def test_type_of_bool_is_not_number(self):
        assert type_of(True) is GilType.BOOLEAN
        assert type_of(1) is GilType.NUMBER

    def test_type_of_all_kinds(self):
        assert type_of(1.5) is GilType.NUMBER
        assert type_of("s") is GilType.STRING
        assert type_of(Symbol("l")) is GilType.SYMBOL
        assert type_of(GilType.NUMBER) is GilType.TYPE
        assert type_of((1, 2)) is GilType.LIST
        assert type_of(NULL) is GilType.NONE

    def test_values_equal_distinguishes_bool_and_number(self):
        assert not values_equal(True, 1)
        assert not values_equal(0, False)

    def test_values_equal_identifies_int_and_float(self):
        assert values_equal(1, 1.0)

    def test_values_equal_lists_recursive(self):
        assert values_equal((1, (2, "a")), (1.0, (2.0, "a")))
        assert not values_equal((1, 2), (1, 2, 3))

    def test_is_value(self):
        assert is_value((1, "a", Symbol("x"), (True,)))
        assert not is_value(object())

    def test_pp_value(self):
        assert pp_value(True) == "true"
        assert pp_value(3.0) == "3"
        assert pp_value((1, 2)) == "[1, 2]"


class TestUnaryOps:
    def test_not(self):
        assert apply_unop(UnOp.NOT, True) is False

    def test_not_requires_bool(self):
        with pytest.raises(EvalError):
            apply_unop(UnOp.NOT, 1)

    def test_neg(self):
        assert apply_unop(UnOp.NEG, 5) == -5

    def test_typeof(self):
        assert apply_unop(UnOp.TYPEOF, "s") is GilType.STRING

    def test_strlen_and_lstlen(self):
        assert apply_unop(UnOp.STRLEN, "abc") == 3
        assert apply_unop(UnOp.LSTLEN, (1, 2)) == 2

    def test_head_tail(self):
        assert apply_unop(UnOp.HEAD, (1, 2, 3)) == 1
        assert apply_unop(UnOp.TAIL, (1, 2, 3)) == (2, 3)

    def test_head_empty_errors(self):
        with pytest.raises(EvalError):
            apply_unop(UnOp.HEAD, ())

    def test_tostring_tonumber_roundtrip(self):
        assert apply_unop(UnOp.TOSTRING, 42) == "42"
        assert apply_unop(UnOp.TONUMBER, "42") == 42

    def test_tonumber_bad_string(self):
        with pytest.raises(EvalError):
            apply_unop(UnOp.TONUMBER, "xyz")

    def test_floor(self):
        assert apply_unop(UnOp.FLOOR, 3.7) == 3


class TestBinaryOps:
    def test_arith(self):
        assert apply_binop(BinOp.ADD, 2, 3) == 5
        assert apply_binop(BinOp.SUB, 2, 3) == -1
        assert apply_binop(BinOp.MUL, 2, 3) == 6

    def test_div_exact_stays_int(self):
        assert apply_binop(BinOp.DIV, 6, 3) == 2
        assert isinstance(apply_binop(BinOp.DIV, 6, 3), int)

    def test_div_by_zero_errors(self):
        with pytest.raises(EvalError):
            apply_binop(BinOp.DIV, 1, 0)

    def test_mod(self):
        assert apply_binop(BinOp.MOD, 7, 3) == 1

    def test_eq_uses_gil_equality(self):
        assert apply_binop(BinOp.EQ, 1, 1.0) is True
        assert apply_binop(BinOp.EQ, True, 1) is False

    def test_comparisons_numbers(self):
        assert apply_binop(BinOp.LT, 1, 2) is True
        assert apply_binop(BinOp.LEQ, 2, 2) is True

    def test_comparisons_strings(self):
        assert apply_binop(BinOp.LT, "a", "b") is True

    def test_comparisons_mixed_types_error(self):
        with pytest.raises(EvalError):
            apply_binop(BinOp.LT, "a", 1)

    def test_string_ops(self):
        assert apply_binop(BinOp.SCONCAT, "ab", "cd") == "abcd"
        assert apply_binop(BinOp.SNTH, "abc", 1) == "b"

    def test_snth_out_of_range(self):
        with pytest.raises(EvalError):
            apply_binop(BinOp.SNTH, "abc", 3)

    def test_list_ops(self):
        assert apply_binop(BinOp.LCONCAT, (1,), (2,)) == (1, 2)
        assert apply_binop(BinOp.LNTH, (1, 2), 1) == 2
        assert apply_binop(BinOp.LCONS, 0, (1,)) == (0, 1)

    def test_lnth_out_of_range(self):
        with pytest.raises(EvalError):
            apply_binop(BinOp.LNTH, (1,), 5)

    def test_min_max(self):
        assert apply_binop(BinOp.MIN, 1, 2) == 1
        assert apply_binop(BinOp.MAX, 1, 2) == 2


class TestEvaluate:
    def test_pvar_lookup(self):
        assert evaluate(PVar("x") + 1, pvar_env={"x": 2}) == 3

    def test_lvar_lookup(self):
        assert evaluate(LVar("x") + 1, lvar_env={"x": 2}) == 3

    def test_unbound_raises(self):
        with pytest.raises(EvalError):
            evaluate(PVar("x"), pvar_env={})

    def test_elist(self):
        assert evaluate(lst(1, PVar("x")), pvar_env={"x": 2}) == (1, 2)

    def test_and_short_circuits(self):
        # Right operand would error, but left is false.
        e = Lit(False).and_(Lit(1).lt(Lit("a")))
        assert evaluate(e) is False

    def test_or_short_circuits(self):
        e = Lit(True).or_(Lit(1).lt(Lit("a")))
        assert evaluate(e) is True


#: the literal store every agreement case runs under — one binding per
#: type so expressions read variables instead of being literal-only
STORE = {
    "n": Lit(10),
    "z": Lit(0),
    "f": Lit(2.5),
    "s": Lit("abc"),
    "t": Lit(True),
    "nil": Lit(False),
}


def _div(a: Expr, b: Expr) -> Expr:
    return BinOpExpr(BinOp.DIV, a, b)


def _mod(a: Expr, b: Expr) -> Expr:
    return BinOpExpr(BinOp.MOD, a, b)


n, z, f, s, t, nil = (PVar(name) for name in ("n", "z", "f", "s", "t", "nil"))

#: (label, expression) — every operator corner the two routes must match
EDGE_CASES = [
    ("div-by-zero", _div(n, z)),
    ("mod-by-zero", _mod(n, z)),
    ("div-exact-int", _div(n, Lit(2))),
    ("div-inexact", _div(Lit(7), Lit(2)).eq(Lit(3.5))),
    ("div-float", _div(f, Lit(0.5))),
    ("mod-negative", _mod(Lit(-7), Lit(3))),
    ("and-short-circuit-hides-error", nil.and_(_div(n, z).lt(Lit(1)))),
    ("or-short-circuit-hides-error", t.or_(_div(n, z).lt(Lit(1)))),
    ("and-right-error-surfaces", t.and_(_div(n, z).lt(Lit(1)))),
    ("and-non-bool-left", n.and_(t)),
    ("lt-mixed-number-string", n.lt(s)),
    ("lt-string-string", s.lt(Lit("abd"))),
    ("lt-bool-is-not-number", t.lt(Lit(2))),
    ("leq-int-float", n.leq(Lit(10.0))),
    ("eq-mixed-types-is-false", n.eq(s)),
    ("eq-int-float", n.eq(Lit(10.0))),
    ("eq-bool-vs-int", t.eq(Lit(1))),
]


def symbolic_eval(e: Expr):
    """The symbolic route on a literal store: simplify(subst(e))."""
    return Simplifier().simplify(substitute_pvars(e, STORE))


class TestEvaluatorAgreement:
    """Expression level: concrete evaluate vs simplified substitution."""

    @pytest.mark.parametrize(
        "label,expr", EDGE_CASES, ids=[c[0] for c in EDGE_CASES]
    )
    def test_concrete_and_symbolic_agree(self, label, expr):
        env = {name: lit.value for name, lit in STORE.items()}
        try:
            concrete = evaluate(expr, pvar_env=env)
        except EvalError:
            concrete = EvalError
        try:
            sym = symbolic_eval(expr)
        except TypeError:
            sym = TypeError
        if concrete is EvalError:
            # A concrete rejection imposes no agreement obligation: the
            # symbolic route may error (TypeError) or keep a residual
            # expression.
            return
        # A concrete success is the direction that must agree: the
        # symbolic route must produce the same literal — never an
        # error, never a residual, and with the exact runtime type (Lit
        # equality coerces, Lit(1) == Lit(1.0)).
        assert sym is not TypeError, (
            f"{label}: concrete returns {concrete!r}, symbolic raises"
        )
        assert sym == Lit(concrete), (
            f"{label}: concrete={concrete!r} symbolic={sym!r}"
        )
        assert type(sym.value) is type(concrete), label


def edge_prog(expr: Expr) -> Prog:
    """``main`` binds the literal store, computes ``expr``, returns it."""
    body = tuple(
        Assignment(name, lit) for name, lit in STORE.items()
    ) + (Assignment("out", expr), Return(PVar("out")))
    prog = Prog()
    prog.add(Proc("main", (), body))
    return prog


def run_edge(expr: Expr, state_model):
    return Explorer(edge_prog(expr), state_model, EngineConfig()).run("main")


class TestEndToEnd:
    """Whole-program level: symbolic run vs concrete run of one program."""

    @pytest.mark.parametrize(
        "label,expr", EDGE_CASES, ids=[c[0] for c in EDGE_CASES]
    )
    def test_symbolic_run_matches_concrete_run(self, label, expr):
        concrete = run_edge(expr, ConcreteStateModel(WhileConcreteMemory()))
        symbolic = run_edge(expr, SymbolicStateModel(WhileSymbolicMemory()))
        c_out, s_out = concrete.sole_outcome, symbolic.sole_outcome
        if c_out.kind is OutcomeKind.ERROR:
            # The concrete evaluator rejected the expression: the
            # symbolic run may keep a residual or fail, but it must
            # never fabricate a literal result.
            assert not (
                s_out.kind is OutcomeKind.NORMAL and isinstance(s_out.value, Lit)
            ), f"{label}: concrete {c_out.value!r}, symbolic {s_out.value!r}"
            return
        assert s_out.kind is OutcomeKind.NORMAL, label
        assert s_out.value == Lit(c_out.value), (
            f"{label}: concrete={c_out.value!r} symbolic={s_out.value!r}"
        )
        assert type(s_out.value.value) is type(c_out.value), label
        assert (
            symbolic.stats.commands_executed == concrete.stats.commands_executed
        ), label

    def test_literal_store_needs_no_solver(self):
        # On an all-literal store every case folds through the
        # simplifier alone: one path, no branch, no solver query.
        for label, expr in EDGE_CASES:
            stats = run_edge(expr, SymbolicStateModel(WhileSymbolicMemory())).stats
            assert stats.paths_finished == 1, label
            assert stats.solver_queries == 0, label
