"""Seeded program generators for differential fuzzing.

Two generators live here, both deterministic per seed:

* :class:`ProgramBuilder` / :func:`generate_program` — the original
  GIL-level generator (promoted verbatim from the engine fuzz suite):
  small While-memory GIL programs with interpreted-symbol inputs,
  bounded arithmetic, forward branches, bounded loops and object
  lifecycle actions, used by the concrete-vs-symbolic /
  parallel-vs-sequential / cached-vs-uncached / fault-recovery arms in
  ``tests/engine/test_fuzz_differential.py``.

* :class:`CrossProgram` / :func:`generate_cross_program` — the
  cross-target corpus: one *target-agnostic* program shape per seed,
  lowered to equivalent MiniWhile, MiniJS, MiniC and MiniRust sources.
  The shape sticks to the semantic intersection of the four targets —
  bounded integer arithmetic (no division), comparisons, ``if``/bounded
  ``while``, one- or two-field objects (record props ``p``/``q`` in
  While/JS, word cells ``0``/``1`` in C/Rust), explicit disposal and
  optional use-after-dispose reads, ``assume``/``assert`` — so every
  lowering must produce the *same* normalised outcome for the same
  inputs.  :func:`concrete_outcome` runs one lowering concretely on a
  scripted input tuple and :func:`input_grid` enumerates the whole
  (small) input space, giving the cross-target oracle in
  ``tests/engine/test_fuzz_cross.py`` something exhaustive to compare.

Seed ranges are overridable via the ``REPRO_FUZZ_SEEDS`` environment
variable: ``REPRO_FUZZ_SEEDS=20`` shrinks the quick range to 20 seeds
(long defaults to 4x quick), ``REPRO_FUZZ_SEEDS=20:100`` pins both.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.engine.config import EngineConfig, javert2_baseline
from repro.engine.explorer import Explorer
from repro.gil.semantics import OutcomeKind
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Fail,
    Goto,
    IfGoto,
    ISym,
    Proc,
    Prog,
    Return,
    USym,
)
from repro.logic.expr import Expr, Lit, PVar, lst
from repro.state.allocator import ConcreteAllocator, isym_name
from repro.state.concrete import ConcreteStateModel
from repro.targets.language import Language

#: bounds keeping every generated program's path count small enough to
#: explore exhaustively (inputs and branches both split paths)
MAX_INPUTS = 3
MAX_STMTS = 8
MAX_LOOP_ITERS = 3

#: engine configuration shared by all fuzz arms
CONFIG = EngineConfig(max_paths=2_000, max_total_steps=50_000)

#: the JaVerT 2.0 baseline flavour of :data:`CONFIG` (paper §4.1): the
#: same bounds and simplification rules, with nothing memoised, cached
#: or solved incrementally, so it must explore exactly what ``CONFIG``
#: explores
BASELINE_CONFIG = javert2_baseline(
    max_paths=CONFIG.max_paths, max_total_steps=CONFIG.max_total_steps
)


def _parse_count(token: str, raw: str) -> int:
    """One seed-count token as a non-negative int, with a clear error.

    The environment variable is typed by humans in CI configs; a typo
    must name the bad token and the expected shape, not surface as a
    bare ``ValueError: invalid literal`` at import time.
    """
    try:
        count = int(token, 10)
    except ValueError:
        raise ValueError(
            f"REPRO_FUZZ_SEEDS={raw!r}: bad count {token!r} "
            f"(expected 'N' or 'N:M' with decimal integers, e.g. '20' or '20:100')"
        ) from None
    if count < 0:
        raise ValueError(
            f"REPRO_FUZZ_SEEDS={raw!r}: count {token!r} must be >= 0"
        )
    return count


def _seed_counts() -> Tuple[int, int]:
    """The (quick, long) seed counts, honouring ``REPRO_FUZZ_SEEDS``.

    Accepted shapes: ``"N"`` (quick = N, long = 4N) and ``"N:M"``
    (both pinned); an empty token keeps that position's default.
    Anything else — extra colons, non-integers, negatives — raises a
    ``ValueError`` naming the offending token.
    """
    raw = os.environ.get("REPRO_FUZZ_SEEDS", "").strip()
    if not raw:
        return 50, 200
    parts = raw.split(":")
    if len(parts) > 2:
        raise ValueError(
            f"REPRO_FUZZ_SEEDS={raw!r}: too many ':' separators "
            f"(expected 'N' or 'N:M')"
        )
    quick = _parse_count(parts[0], raw) if parts[0] else 50
    if len(parts) > 1 and parts[1]:
        long_ = _parse_count(parts[1], raw)
    else:
        long_ = quick * 4
    return quick, max(long_, quick)


_QUICK_COUNT, _LONG_COUNT = _seed_counts()

QUICK_SEEDS = range(_QUICK_COUNT)
LONG_SEEDS = range(_LONG_COUNT)

#: cross-target seeds: each costs 4 targets x (grid + engine arms), so
#: the corpus runs an eighth of the quick range (at least 4 seeds)
CROSS_QUICK_SEEDS = range(max(_QUICK_COUNT // 8, 4))


# -- the GIL-level generator ---------------------------------------------------


class ProgramBuilder:
    """Emits one random-but-seeded GIL ``main`` procedure.

    Commands are appended linearly; branch targets are backpatched, and
    every jump except the bounded-loop back-edge goes forward, so all
    generated programs terminate.
    """

    def __init__(self, rng: random.Random) -> None:
        """Wrap the seeded ``rng`` driving every generation choice."""
        self.rng = rng
        self.cmds = []
        self.int_vars = []
        self.loc_vars = []
        self.site = 0
        self.tmp = 0

    def fresh_site(self) -> int:
        """The next allocation-site number."""
        self.site += 1
        return self.site - 1

    def fresh_var(self, prefix: str) -> str:
        """A fresh program variable name."""
        self.tmp += 1
        return f"{prefix}{self.tmp}"

    def int_expr(self, depth: int = 0) -> Expr:
        """A random bounded integer expression over the usable vars."""
        roll = self.rng.random()
        if roll < 0.35 or depth >= 2 or not self.int_vars:
            return Lit(self.rng.randint(-10, 10))
        if roll < 0.7:
            return PVar(self.rng.choice(self.int_vars))
        op = self.rng.choice(["+", "-", "*"])
        left, right = self.int_expr(depth + 1), self.int_expr(depth + 1)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        return left * right

    def condition(self) -> Expr:
        """A random comparison between two integer expressions."""
        kind = self.rng.choice(["lt", "eq", "neq"])
        left, right = self.int_expr(), self.int_expr()
        return getattr(left, kind)(right)

    # -- statement emitters (each appends commands; jumps backpatched) ----

    def emit_input(self) -> None:
        """An interpreted-symbol input."""
        var = self.fresh_var("in")
        self.cmds.append(ISym(var, self.fresh_site()))
        self.int_vars.append(var)

    def emit_assign(self) -> None:
        """A fresh integer assignment."""
        var = self.fresh_var("v")
        self.cmds.append(Assignment(var, self.int_expr()))
        self.int_vars.append(var)

    def emit_alloc(self) -> None:
        """Allocate an object and initialise property ``p``."""
        var = self.fresh_var("obj")
        self.cmds.append(USym(var, self.fresh_site()))
        self.loc_vars.append(var)
        # Initialise a property so later lookups can succeed.
        self.cmds.append(
            ActionCall(
                self.fresh_var("t"), "mutate",
                lst(PVar(var), "p", self.int_expr()),
            )
        )

    def emit_memory_op(self) -> None:
        """A random lookup/mutate/dispose on a live object."""
        if not self.loc_vars:
            self.emit_alloc()
            return
        loc = PVar(self.rng.choice(self.loc_vars))
        action = self.rng.choice(["lookup", "mutate", "dispose"])
        prop = self.rng.choice(["p", "q"])  # "q" lookups may legitimately err
        if action == "lookup":
            var = self.fresh_var("r")
            self.cmds.append(ActionCall(var, "lookup", lst(loc, prop)))
            self.int_vars.append(var)
        elif action == "mutate":
            self.cmds.append(
                ActionCall(self.fresh_var("t"), "mutate", lst(loc, prop, self.int_expr()))
            )
        else:
            self.cmds.append(ActionCall(self.fresh_var("t"), "dispose", lst(loc)))

    def scoped_block(self, depth: int, allow_loops: bool = True) -> None:
        """Emit a block whose new variables stay local to the block.

        Straight-line GIL fails loudly on use of an unassigned variable,
        so names introduced on only one side of a branch (or inside a
        loop body) must not leak into the enclosing scope's usable-vars
        lists.
        """
        ints, locs = len(self.int_vars), len(self.loc_vars)
        self.emit_block(depth, allow_loops=allow_loops)
        del self.int_vars[ints:]
        del self.loc_vars[locs:]

    def emit_if(self, depth: int) -> None:
        """A two-armed forward branch."""
        # ifgoto cond THEN; <else>; goto END; <then>; END:
        cond_at = len(self.cmds)
        self.cmds.append(None)  # placeholder IfGoto
        cond = self.condition()
        self.scoped_block(depth + 1)
        goto_at = len(self.cmds)
        self.cmds.append(None)  # placeholder Goto
        then_at = len(self.cmds)
        self.scoped_block(depth + 1)
        end = len(self.cmds)
        self.cmds[cond_at] = IfGoto(cond, then_at)
        self.cmds[goto_at] = Goto(end)

    def emit_loop(self, depth: int) -> None:
        """A bounded counter loop."""
        # i := 0; HEAD: ifgoto i >= k END via (k <= i) ... body; i++; goto HEAD
        counter = self.fresh_var("i")
        bound = self.rng.randint(1, MAX_LOOP_ITERS)
        self.cmds.append(Assignment(counter, Lit(0)))
        head = len(self.cmds)
        exit_at = len(self.cmds)
        self.cmds.append(None)  # placeholder exit IfGoto
        self.scoped_block(depth + 1, allow_loops=False)
        self.cmds.append(Assignment(counter, PVar(counter) + Lit(1)))
        self.cmds.append(Goto(head))
        end = len(self.cmds)
        # exit when NOT (counter < bound): ifgoto (bound <= counter) end,
        # expressed as bound - 1 < counter.
        self.cmds[exit_at] = IfGoto(Lit(bound - 1).lt(PVar(counter)), end)
        self.int_vars.append(counter)

    def emit_check(self) -> None:
        """A fallible assertion: fail on one side of a random condition."""
        cond_at = len(self.cmds)
        self.cmds.append(None)
        self.cmds.append(Fail(lst("violation", self.int_expr())))
        self.cmds[cond_at] = IfGoto(self.condition(), len(self.cmds))

    def emit_block(self, depth: int, allow_loops: bool = True) -> None:
        """A run of random statements at ``depth``."""
        emitters = [self.emit_assign, self.emit_assign, self.emit_memory_op]
        if depth < 2:
            emitters.append(self.emit_if)
            if allow_loops:
                emitters.append(self.emit_loop)
        for _ in range(self.rng.randint(1, 2 if depth else MAX_STMTS)):
            emitter = self.rng.choice(emitters)
            if emitter in (self.emit_if, self.emit_loop):
                emitter(depth)
            else:
                emitter()

    def build(self) -> Prog:
        """Assemble the whole seeded ``main`` program."""
        for _ in range(self.rng.randint(1, MAX_INPUTS)):
            self.emit_input()
        self.emit_alloc()
        self.emit_block(0)
        if self.rng.random() < 0.7:
            self.emit_check()
        self.cmds.append(Return(self.int_expr()))
        prog = Prog()
        prog.add(Proc("main", (), tuple(self.cmds)))
        return prog


def generate_program(seed: int) -> Prog:
    """The fixed program for ``seed`` — same seed, same program, always."""
    return ProgramBuilder(random.Random(seed)).build()


# -- the call-heavy generator (summary fuzzing) --------------------------------


class CallProgramBuilder:
    """Emits a seeded multi-procedure program for the summary fuzz arm.

    The shape is chosen to exercise summary replay and the inline
    fallback: a layer of *pure* helpers (branching arithmetic over their
    parameters, optional nested static calls to earlier pure helpers,
    optional ``fail`` guards — summarised and replayed), a layer of
    *impure* helpers (allocate and mutate an object, optionally read it
    back — always run inline), and a ``main`` that mixes repeated calls
    to both layers between ordinary statements.  Branch counts are deliberately
    small (at most two symbolic inputs, shallow helper bodies) so every
    seed explores exhaustively under the shared fuzz ``CONFIG`` — the
    on/off digest comparison is only meaningful for exhaustive runs.
    """

    def __init__(self, rng: random.Random) -> None:
        """Wrap the seeded ``rng`` driving every generation choice."""
        self.rng = rng
        self.pure_procs: List[Tuple[str, int]] = []    # (name, arity)
        self.impure_procs: List[Tuple[str, int]] = []  # (name, arity)
        self.procs: List[Proc] = []

    def _helper_call(self, b: ProgramBuilder, pool: List[Tuple[str, int]]) -> None:
        """Append a static call to a random helper from ``pool``."""
        name, arity = self.rng.choice(pool)
        var = b.fresh_var("c")
        b.cmds.append(
            Call(var, Lit(name), tuple(b.int_expr() for _ in range(arity)))
        )
        b.int_vars.append(var)

    def _build_pure(self, index: int) -> None:
        """One pure helper: params-only arithmetic with a branch."""
        name = f"pure{index}"
        arity = self.rng.randint(1, 2)
        params = tuple(f"p{i}" for i in range(arity))
        b = ProgramBuilder(self.rng)
        b.int_vars.extend(params)
        b.emit_assign()
        if self.pure_procs and self.rng.random() < 0.6:
            self._helper_call(b, self.pure_procs)
        if self.rng.random() < 0.3:
            # A fallible guard: fail on one side of a condition.
            guard_at = len(b.cmds)
            b.cmds.append(None)
            b.cmds.append(Fail(lst("helper-violation", b.int_expr())))
            b.cmds[guard_at] = IfGoto(b.condition(), len(b.cmds))
        # A two-way return diamond keeps every helper multi-path.
        cond_at = len(b.cmds)
        b.cmds.append(None)
        b.cmds.append(Return(b.int_expr()))
        b.cmds[cond_at] = IfGoto(b.condition(), len(b.cmds))
        b.cmds.append(Return(b.int_expr()))
        self.procs.append(Proc(name, params, tuple(b.cmds)))
        self.pure_procs.append((name, arity))

    def _build_impure(self, index: int) -> None:
        """One impure helper: allocates, writes, reads back."""
        name = f"heap{index}"
        params = ("p0",)
        b = ProgramBuilder(self.rng)
        b.int_vars.extend(params)
        b.emit_alloc()
        if self.pure_procs and self.rng.random() < 0.5:
            self._helper_call(b, self.pure_procs)
        obj = b.loc_vars[-1]
        # A read of "q" may legitimately error (missing property).
        prop = self.rng.choice(["p", "p", "q"])
        out = b.fresh_var("r")
        b.cmds.append(ActionCall(out, "lookup", lst(PVar(obj), prop)))
        b.int_vars.append(out)
        b.cmds.append(Return(b.int_expr()))
        self.procs.append(Proc(name, params, tuple(b.cmds)))
        self.impure_procs.append((name, 1))

    def build(self) -> Prog:
        """Assemble the whole seeded multi-procedure program."""
        for i in range(self.rng.randint(1, 3)):
            self._build_pure(i)
        for i in range(self.rng.randint(0, 2)):
            self._build_impure(i)
        main = ProgramBuilder(self.rng)
        for _ in range(self.rng.randint(1, 2)):
            main.emit_input()
        pools = [self.pure_procs] * 2 + (
            [self.impure_procs] if self.impure_procs else []
        )
        for _ in range(self.rng.randint(2, 5)):
            roll = self.rng.random()
            if roll < 0.6:
                self._helper_call(main, self.rng.choice(pools))
            elif roll < 0.8:
                main.emit_assign()
            else:
                main.emit_memory_op()
        if self.rng.random() < 0.5:
            main.emit_check()
        main.cmds.append(Return(main.int_expr()))
        prog = Prog()
        prog.add(Proc("main", (), tuple(main.cmds)))
        for proc in self.procs:
            prog.add(proc)
        return prog


def generate_call_program(seed: int) -> Prog:
    """The fixed call-heavy program for ``seed`` — deterministic."""
    return CallProgramBuilder(random.Random(seed ^ 0x5E0C)).build()


# -- the cross-target corpus ---------------------------------------------------

#: the target names a cross program is lowered to, in display order
CROSS_TARGETS = ("while", "js", "c", "rust")

#: every symbolic input is assumed into ``[0, INPUT_BOUND]``, so the
#: whole input space is ``(INPUT_BOUND+1)^n`` tuples (at most 64)
INPUT_BOUND = 3

#: size bounds for cross shapes (smaller than the GIL generator: every
#: seed runs 4 targets x an exhaustive concrete grid x engine arms)
CROSS_MAX_STMTS = 6
CROSS_MAX_LOOP_ITERS = 2


@dataclass(frozen=True)
class CrossProgram:
    """One seed's target-agnostic shape, lowered to all four targets."""

    seed: int
    num_inputs: int
    sources: Dict[str, str]

    def repro(self, target: str) -> str:
        """A one-liner reproducing this lowering for a failure message."""
        return (
            f"python -c \"import sys; from repro.testing.genprog import "
            f"generate_cross_program; sys.stdout.write("
            f"generate_cross_program({self.seed}).sources[{target!r}])\""
        )


class _ShapeBuilder:
    """Builds one target-agnostic statement tree from a seeded rng.

    Statements and expressions are plain tuples (a tiny IR) that the
    per-target lowering renders to concrete syntax.  Objects are
    allocated with both fields initialised, disposed only at top level,
    and read after disposal only deliberately — so the outcome class of
    every path is target-independent by construction.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.int_vars: List[str] = []
        self.objs: List[str] = []
        self.disposed: List[str] = []
        self.tmp = 0
        self.num_inputs = 0

    def fresh(self, prefix: str) -> str:
        self.tmp += 1
        return f"{prefix}{self.tmp}"

    def int_expr(self, depth: int = 0) -> tuple:
        roll = self.rng.random()
        if roll < 0.35 or depth >= 2 or not self.int_vars:
            return ("lit", self.rng.randint(-4, 4))
        if roll < 0.7:
            return ("var", self.rng.choice(self.int_vars))
        op = self.rng.choice(["+", "-", "*"])
        return ("bin", op, self.int_expr(depth + 1), self.int_expr(depth + 1))

    def cond(self) -> tuple:
        op = self.rng.choice(["<", "<=", "==", "!="])
        return ("cmp", op, self.int_expr(), self.int_expr())

    # -- statement emitters ----------------------------------------------------

    def emit_input(self, out: List[tuple]) -> None:
        var = self.fresh("in")
        out.append(("input", var))
        out.append(("assume", ("cmp", "<=", ("lit", 0), ("var", var))))
        out.append(("assume", ("cmp", "<=", ("var", var), ("lit", INPUT_BOUND))))
        self.int_vars.append(var)
        self.num_inputs += 1

    def emit_let(self, out: List[tuple]) -> None:
        var = self.fresh("v")
        out.append(("let", var, self.int_expr()))
        self.int_vars.append(var)

    def emit_set(self, out: List[tuple]) -> None:
        if not self.int_vars:
            self.emit_let(out)
            return
        out.append(("set", self.rng.choice(self.int_vars), self.int_expr()))

    def emit_alloc(self, out: List[tuple]) -> None:
        obj = self.fresh("o")
        out.append(("alloc", obj, self.int_expr(), self.int_expr()))
        self.objs.append(obj)

    def emit_obj_op(self, out: List[tuple]) -> None:
        if not self.objs:
            self.emit_alloc(out)
            return
        obj = self.rng.choice(self.objs)
        idx = self.rng.randrange(2)
        if self.rng.random() < 0.5:
            var = self.fresh("r")
            out.append(("read", var, obj, idx))
            self.int_vars.append(var)
        else:
            out.append(("write", obj, idx, self.int_expr()))

    def emit_if(self, out: List[tuple], depth: int) -> None:
        cond = self.cond()
        then_body = self.block(depth + 1)
        else_body = self.block(depth + 1)
        out.append(("if", cond, then_body, else_body))

    def emit_loop(self, out: List[tuple], depth: int) -> None:
        counter = self.fresh("i")
        bound = self.rng.randint(1, CROSS_MAX_LOOP_ITERS)
        body = self.block(depth + 1, allow_loops=False)
        out.append(("loop", counter, bound, body))
        self.int_vars.append(counter)

    def emit_assert(self, out: List[tuple]) -> None:
        out.append(("assert", self.cond()))

    def block(self, depth: int, allow_loops: bool = True) -> List[tuple]:
        """A nested block; its new names stay local to the block."""
        ints, objs = len(self.int_vars), len(self.objs)
        out: List[tuple] = []
        emitters = ["let", "let", "set", "obj"]
        if depth < 2:
            emitters.append("if")
            if allow_loops:
                emitters.append("loop")
        for _ in range(self.rng.randint(1, 2)):
            choice = self.rng.choice(emitters)
            if choice == "let":
                self.emit_let(out)
            elif choice == "set":
                self.emit_set(out)
            elif choice == "obj":
                self.emit_obj_op(out)
            elif choice == "if":
                self.emit_if(out, depth)
            else:
                self.emit_loop(out, depth)
        del self.int_vars[ints:]
        del self.objs[objs:]
        return out

    def build(self) -> Tuple[List[tuple], int]:
        """The whole top-level statement list plus the input count."""
        out: List[tuple] = []
        for _ in range(self.rng.randint(1, MAX_INPUTS)):
            self.emit_input(out)
        self.emit_alloc(out)
        for _ in range(self.rng.randint(2, CROSS_MAX_STMTS)):
            choice = self.rng.choice(["let", "set", "obj", "obj", "if", "loop"])
            if choice == "let":
                self.emit_let(out)
            elif choice == "set":
                self.emit_set(out)
            elif choice == "obj":
                self.emit_obj_op(out)
            elif choice == "if":
                self.emit_if(out, 1)
            else:
                self.emit_loop(out, 1)
        if self.objs and self.rng.random() < 0.6:
            obj = self.objs.pop(self.rng.randrange(len(self.objs)))
            out.append(("dispose", obj))
            self.disposed.append(obj)
            if self.rng.random() < 0.5:
                # A deliberate use-after-dispose: every target must
                # fault here, each through its own memory model.
                var = self.fresh("r")
                out.append(("read", var, obj, self.rng.randrange(2)))
                self.int_vars.append(var)
        if self.rng.random() < 0.7:
            self.emit_assert(out)
        out.append(("return", self.int_expr()))
        return out, self.num_inputs


# -- lowering ------------------------------------------------------------------

_CMP_OPS = {
    "while": {"<": "<", "<=": "<=", "==": "=", "!=": "!="},
    "js": {"<": "<", "<=": "<=", "==": "===", "!=": "!=="},
    "c": {"<": "<", "<=": "<=", "==": "==", "!=": "!="},
    "rust": {"<": "<", "<=": "<=", "==": "==", "!=": "!="},
}

_FIELDS = ("p", "q")


def _expr_src(e: tuple, target: str) -> str:
    """Render an integer expression for ``target``."""
    if e[0] == "lit":
        n = e[1]
        return str(n) if n >= 0 else f"(0 - {-n})"
    if e[0] == "var":
        return e[1]
    _, op, left, right = e
    return f"({_expr_src(left, target)} {op} {_expr_src(right, target)})"


def _cond_src(c: tuple, target: str) -> str:
    """Render a comparison for ``target``."""
    _, op, left, right = c
    return (
        f"({_expr_src(left, target)} {_CMP_OPS[target][op]} "
        f"{_expr_src(right, target)})"
    )


def _stmt_lines(stmt: tuple, target: str, ind: str) -> List[str]:
    """Render one IR statement to ``target`` source lines."""
    kind = stmt[0]
    if kind == "input":
        name = stmt[1]
        return {
            "while": [f"{ind}{name} := symb_int();"],
            "js": [f"{ind}var {name} = symb_int();"],
            "c": [f"{ind}int {name} = symb_int();"],
            "rust": [f"{ind}let mut {name} = symb_int();"],
        }[target]
    if kind == "let":
        name, e = stmt[1], _expr_src(stmt[2], target)
        return {
            "while": [f"{ind}{name} := {e};"],
            "js": [f"{ind}var {name} = {e};"],
            "c": [f"{ind}int {name} = {e};"],
            "rust": [f"{ind}let mut {name} = {e};"],
        }[target]
    if kind == "set":
        name, e = stmt[1], _expr_src(stmt[2], target)
        if target == "while":
            return [f"{ind}{name} := {e};"]
        return [f"{ind}{name} = {e};"]
    if kind == "alloc":
        obj = stmt[1]
        ep, eq = _expr_src(stmt[2], target), _expr_src(stmt[3], target)
        return {
            "while": [f"{ind}{obj} := {{ p: {ep}, q: {eq} }};"],
            "js": [f"{ind}var {obj} = {{ p: {ep}, q: {eq} }};"],
            "c": [
                f"{ind}int *{obj} = (int *) malloc(2 * sizeof(int));",
                f"{ind}{obj}[0] = {ep};",
                f"{ind}{obj}[1] = {eq};",
            ],
            "rust": [f"{ind}let mut {obj} = [{ep}, {eq}];"],
        }[target]
    if kind == "write":
        obj, idx, e = stmt[1], stmt[2], _expr_src(stmt[3], target)
        if target == "while":
            return [f"{ind}{obj}.{_FIELDS[idx]} := {e};"]
        if target == "js":
            return [f"{ind}{obj}.{_FIELDS[idx]} = {e};"]
        return [f"{ind}{obj}[{idx}] = {e};"]
    if kind == "read":
        name, obj, idx = stmt[1], stmt[2], stmt[3]
        return {
            "while": [f"{ind}{name} := {obj}.{_FIELDS[idx]};"],
            "js": [f"{ind}var {name} = {obj}.{_FIELDS[idx]};"],
            "c": [f"{ind}int {name} = {obj}[{idx}];"],
            "rust": [f"{ind}let mut {name} = {obj}[{idx}];"],
        }[target]
    if kind == "dispose":
        obj = stmt[1]
        return {
            "while": [f"{ind}dispose({obj});"],
            "js": [f"{ind}dispose({obj});"],
            "c": [f"{ind}free({obj});"],
            "rust": [f"{ind}drop({obj});"],
        }[target]
    if kind == "if":
        cond = _cond_src(stmt[1], target)
        head = f"{ind}if {cond} {{" if target == "rust" else f"{ind}if ({cond}) {{"
        lines = [head]
        for s in stmt[2]:
            lines.extend(_stmt_lines(s, target, ind + "  "))
        lines.append(f"{ind}}} else {{")
        for s in stmt[3]:
            lines.extend(_stmt_lines(s, target, ind + "  "))
        lines.append(f"{ind}}}")
        return lines
    if kind == "loop":
        counter, bound, body = stmt[1], stmt[2], stmt[3]
        cond = _cond_src(("cmp", "<", ("var", counter), ("lit", bound)), target)
        lines = _stmt_lines(("let", counter, ("lit", 0)), target, ind)
        head = (
            f"{ind}while {cond} {{" if target == "rust"
            else f"{ind}while ({cond}) {{"
        )
        lines.append(head)
        for s in body:
            lines.extend(_stmt_lines(s, target, ind + "  "))
        bump = ("set", counter, ("bin", "+", ("var", counter), ("lit", 1)))
        lines.extend(_stmt_lines(bump, target, ind + "  "))
        lines.append(f"{ind}}}")
        return lines
    if kind == "assume":
        return [f"{ind}assume({_cond_src(stmt[1], target)});"]
    if kind == "assert":
        cond = _cond_src(stmt[1], target)
        if target == "rust":
            return [f"{ind}assert!({cond});"]
        return [f"{ind}assert({cond});"]
    if kind == "return":
        return [f"{ind}return {_expr_src(stmt[1], target)};"]
    raise ValueError(f"unknown IR statement {stmt!r}")


_HEADERS = {
    "while": "proc main() {",
    "js": "function main() {",
    "c": "int main() {",
    "rust": "fn main() -> i64 {",
}


def _lower(stmts: List[tuple], target: str) -> str:
    """Render a whole shape to one target's concrete syntax."""
    lines = [_HEADERS[target]]
    for stmt in stmts:
        lines.extend(_stmt_lines(stmt, target, "  "))
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate_cross_program(seed: int) -> CrossProgram:
    """The fixed cross-target program for ``seed`` — deterministic."""
    stmts, num_inputs = _ShapeBuilder(random.Random(seed ^ 0xC805)).build()
    sources = {target: _lower(stmts, target) for target in CROSS_TARGETS}
    return CrossProgram(seed=seed, num_inputs=num_inputs, sources=sources)


# -- the concrete cross-target oracle ------------------------------------------


def cross_languages() -> Dict[str, Language]:
    """Fresh language instantiations for every cross target."""
    from repro.targets.c_like import MiniCLanguage
    from repro.targets.js_like import MiniJSLanguage
    from repro.targets.rust_like import MiniRustLanguage
    from repro.targets.while_lang import WhileLanguage

    return {
        "while": WhileLanguage(),
        "js": MiniJSLanguage(),
        "c": MiniCLanguage(),
        "rust": MiniRustLanguage(),
    }


def input_grid(num_inputs: int) -> Iterator[Tuple[int, ...]]:
    """Every input tuple in ``[0, INPUT_BOUND]^num_inputs`` (<= 64)."""
    return itertools.product(range(INPUT_BOUND + 1), repeat=num_inputs)


def isym_sites(prog: Prog) -> List[int]:
    """The program's interpreted-symbol sites, in allocation order."""
    return sorted(
        cmd.site
        for proc in prog.procs.values()
        for cmd in proc.body
        if isinstance(cmd, ISym)
    )


def concrete_outcome(
    language: Language, prog: Prog, values: Tuple[int, ...]
) -> tuple:
    """Run ``prog`` concretely on one input tuple; normalise the outcome.

    Returns ``("vanish",)``, ``("return", value)``, or
    ``("error", "assert" | "memory")`` — the target-independent outcome
    class every lowering of the same shape must agree on.
    """
    script = {isym_name(s, 0): v for s, v in zip(isym_sites(prog), values)}
    model = ConcreteStateModel(
        language.concrete_memory(), ConcreteAllocator(script=script)
    )
    result = Explorer(prog, model, CONFIG).run("main")
    if not result.finals:
        return ("vanish",)
    outcome = result.sole_outcome
    if outcome.kind is OutcomeKind.NORMAL:
        value = outcome.value
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return ("return", value)
    tag = "assert" if "assertion-failure" in str(outcome.value) else "memory"
    return ("error", tag)
