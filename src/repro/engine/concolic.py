"""Concolic execution on top of the parametric engine (paper §6).

The paper's conclusions: "we also plan to extend Gillian with ...
additional forms of analysis, such as concolic execution; Gillian's
modular design lends itself well to these extensions."  This module is
that extension: a DART-style concolic driver built *entirely out of the
platform's existing pieces* — the concrete state model executes, while a
shadow symbolic run over the same scripted inputs collects the path
condition; negating branch suffixes and solving yields the next input
vector.

The design exploits two platform properties:

* the scripted :class:`~repro.state.allocator.ConcreteAllocator` makes a
  concrete run follow any chosen input vector deterministically, and
* allocators name the logical variables of ``iSym`` sites
  deterministically (``val_site_idx``), so the symbolic shadow run's path
  condition speaks about exactly the inputs the driver controls.

One concolic iteration = one concrete path.  The driver maintains the
classic worklist of unexplored branch negations with a depth bound, and
reports the same confirmed-bug objects as the symbolic tester.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.gil.semantics import Final, OutcomeKind
from repro.gil.syntax import Prog
from repro.gil.values import Value, value_key
from repro.logic.expr import Expr, UnOp, UnOpExpr
from repro.logic.pathcond import PathCondition
from repro.logic.solver import Solver
from repro.state.allocator import ConcreteAllocator
from repro.state.concrete import ConcreteStateModel
from repro.state.symbolic import SymbolicStateModel
from repro.targets.language import Language


@dataclass
class ConcolicBug:
    """An error path hit by a concrete run (inherently confirmed)."""

    value: object
    inputs: Dict[str, Value]


@dataclass
class ConcolicReport:
    """Summary of a concolic run: iterations, paths, bugs, inputs tried."""

    iterations: int
    paths_explored: int
    bugs: List[ConcolicBug] = field(default_factory=list)
    input_vectors: List[Dict[str, Value]] = field(default_factory=list)

    @property
    def found_bug(self) -> bool:
        return bool(self.bugs)


class _DirectedSymbolicModel(SymbolicStateModel):
    """A symbolic state model whose branching follows a concrete oracle.

    ``branch_on`` keeps only the branch the concrete run took (decided by
    evaluating the condition under the input vector), so the shadow run
    explores exactly one path and its path condition is that path's.
    """

    def __init__(
        self, memory_model, solver, inputs: Dict[str, Value], unknown_policy: str
    ) -> None:
        super().__init__(
            memory_model, solver=solver, unknown_policy=unknown_policy
        )
        self.inputs = inputs

    def branch_on(self, state, cond):
        from repro.gil.ops import EvalError, evaluate

        try:
            taken = evaluate(cond, lvar_env=self.inputs) is True
        except EvalError:
            # Can't decide concretely (input-independent symbol, etc.):
            # fall back to the first satisfiable branch.
            branches = super().branch_on(state, cond)
            return branches[:1]
        guard = cond if taken else UnOpExpr(UnOp.NOT, cond)
        out = []
        for st in self.assume(state, guard):
            out.append((st, taken))
        return out

    def execute_action(self, state, action, arg):
        branches = super().execute_action(state, action, arg)
        if len(branches) <= 1:
            return branches
        # Keep the branch consistent with the oracle inputs.
        from repro.gil.ops import EvalError, evaluate

        for branch in branches:
            conds = branch.state.pc.conjuncts[len(state.pc.conjuncts):]
            try:
                if all(evaluate(c, lvar_env=self.inputs) is True for c in conds):
                    return [branch]
            except EvalError:
                continue
        return branches[:1]


class ConcolicTester:
    """DART-style directed testing for any Gillian instantiation."""

    def __init__(
        self,
        language: Language,
        config: Optional[EngineConfig] = None,
        max_iterations: int = 64,
        strategy=None,
        events=None,
    ) -> None:
        self.language = language
        self.config = config if config is not None else EngineConfig()
        self.max_iterations = max_iterations
        #: scheduler knobs, handed to every Explorer this driver builds —
        #: the concrete run and the shadow symbolic run both go through
        #: the shared scheduler loop (strategy, budget, events included)
        self.strategy = strategy
        self.events = events

    def run(self, prog: Prog, entry: str) -> ConcolicReport:
        solver = Solver.from_config(self.config)
        seen_inputs: Set[tuple] = set()
        # Worklist of candidate input vectors; start unconstrained.
        worklist: List[Dict[str, Value]] = [{}]
        report = ConcolicReport(iterations=0, paths_explored=0)
        seen_paths: Set[tuple] = set()
        seen_values: Dict[str, List[Value]] = {}

        def input_key(vector: Dict[str, Value]) -> tuple:
            # Type-aware: Python's ``True == 1`` must not collapse inputs.
            return tuple(
                (name, value_key(value))
                for name, value in sorted(vector.items(), key=lambda kv: kv[0])
            )

        while worklist and report.iterations < self.max_iterations:
            inputs = worklist.pop(0)
            key = input_key(inputs)
            if key in seen_inputs:
                continue
            seen_inputs.add(key)
            report.iterations += 1
            report.input_vectors.append(inputs)

            final, pc = self._execute(prog, entry, inputs, solver)
            if pc is None:
                continue
            path_key = pc.conjuncts
            if path_key not in seen_paths:
                seen_paths.add(path_key)
                report.paths_explored += 1
            if final is not None and final.kind is OutcomeKind.ERROR:
                report.bugs.append(ConcolicBug(final.value, inputs))

            for name, value in inputs.items():
                seen_values.setdefault(name, []).append(value)

            # Flip each branch suffix to schedule new paths (DART).
            conjuncts = list(pc.conjuncts)
            for i in range(len(conjuncts)):
                flipped = conjuncts[:i] + [UnOpExpr(UnOp.NOT, conjuncts[i])]
                model = solver.get_model(flipped)
                if model is None:
                    continue
                candidate = {
                    name: value
                    for name, value in model.items()
                    if name.startswith("val_")
                }
                ckey = input_key(candidate)
                if ckey in seen_inputs:
                    # Ask for a *fresh* model: exclude the already-tried
                    # values of the variables the flipped conjunct reads.
                    model = self._fresh_model(
                        solver, flipped, conjuncts[i], seen_values
                    )
                    if model is None:
                        continue
                    candidate = {
                        name: value
                        for name, value in model.items()
                        if name.startswith("val_")
                    }
                    ckey = input_key(candidate)
                if ckey not in seen_inputs:
                    worklist.append(candidate)
        return report

    @staticmethod
    def _fresh_model(solver, flipped, pivot, seen_values):
        from repro.gil.values import is_value
        from repro.logic.expr import Lit, LVar, free_lvars

        extra = list(flipped)
        for name in free_lvars(pivot):
            for value in seen_values.get(name, []):
                if is_value(value):
                    extra.append(LVar(name).neq(Lit(value)))
        return solver.get_model(extra)

    # -- one concolic iteration ------------------------------------------------

    def _execute(
        self, prog: Prog, entry: str, inputs: Dict[str, Value], solver: Solver
    ) -> Tuple[Optional[Final], Optional[PathCondition]]:
        # Concrete run, scripted by the inputs.
        conc_sm = ConcreteStateModel(
            self.language.concrete_memory(), ConcreteAllocator(script=dict(inputs))
        )
        conc_result = Explorer(
            prog, conc_sm, self.config,
            strategy=self.strategy, events=self.events,
        ).run(entry)
        finals = [
            f for f in conc_result.finals if f.kind is not OutcomeKind.VANISH
        ]
        conc_final = finals[0] if finals else None

        # Shadow symbolic run along the same path, via the directed model.
        # Defaults for iSym sites the script does not cover mirror the
        # concrete allocator's default.
        oracle = _InputOracle(inputs, default=0)
        sym_sm = _DirectedSymbolicModel(
            self.language.symbolic_memory(), solver, oracle,
            self.config.unknown_policy,
        )
        sym_result = Explorer(
            prog, sym_sm, self.config,
            strategy=self.strategy, events=self.events,
        ).explore([self._initial_config(sym_sm, prog, entry)])
        all_finals = sym_result.finals
        if not all_finals:
            return conc_final, None
        return conc_final, all_finals[0].state.pc

    @staticmethod
    def _initial_config(sm, prog: Prog, entry: str):
        from repro.gil.semantics import make_call_config

        return make_call_config(sm, sm.initial_state(), prog, entry, [])


class _InputOracle(dict):
    """Input vector with the concrete allocator's default for new sites."""

    def __init__(self, inputs: Dict[str, Value], default: Value) -> None:
        super().__init__(inputs)
        self._default = default

    def __missing__(self, key: str) -> Value:
        if key.startswith("val_"):
            return self._default
        raise KeyError(key)

    def __contains__(self, key) -> bool:  # evaluate() checks membership
        return isinstance(key, str) and (
            super().__contains__(key) or key.startswith("val_")
        )
