"""Trace-level differential soundness harness (paper Theorem 3.6, E6).

Theorem 3.6 says: restrict the initial symbolic configuration with the
*final* one, pick any concrete configuration it over-approximates, run
concretely — the concrete final configuration is over-approximated by the
symbolic final one (restricted soundness), and at least one concrete
trace exists (restricted completeness).

Operationally, for programs whose non-determinism comes entirely from
``iSym`` (all our symbolic tests): a model ε of the final path condition
fixes every symbolic choice, the scripted concrete allocator replays
those choices, and the concrete run must land on the same outcome with
``⟦v̂⟧ε = v``.  :func:`check_trace_soundness` runs this for *every* final
of a symbolic execution, which is how the test suite validates the whole
engine — GIL semantics, state constructors, allocators, memory models,
and solver — in one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.engine.parallel import SymbolicModelFactory
from repro.gil.ops import EvalError, evaluate
from repro.gil.semantics import Final, OutcomeKind
from repro.gil.syntax import Prog
from repro.gil.values import Value, values_equal
from repro.logic.expr import Expr
from repro.logic.solver import Solver
from repro.state.allocator import ConcreteAllocator
from repro.state.concrete import ConcreteStateModel
from repro.targets.language import Language


@dataclass
class TraceCheck:
    """The verdict for one symbolic final configuration."""

    kind: OutcomeKind
    model: Optional[Dict[str, Value]]
    replayed: bool          # a concrete trace exists (MA-RC analogue)
    outcome_matches: bool   # concrete outcome over-approximated (MA-RS)
    detail: str = ""

    @property
    def ok(self) -> bool:
        # A final whose path condition has no verified model is skipped
        # (replayed=False with empty detail), not a failure.
        return self.outcome_matches


@dataclass
class DifferentialReport:
    """All trace checks from one differential (symbolic vs concrete) run."""

    checks: List[TraceCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def replayed(self) -> int:
        return sum(1 for c in self.checks if c.replayed)


def check_trace_soundness(
    language: Language,
    prog: Prog,
    entry: str,
    config: Optional[EngineConfig] = None,
) -> DifferentialReport:
    """Symbolically execute ``entry``; replay every final concretely.

    The symbolic side's solver and state model follow ``config`` (step
    budget, UNKNOWN policy, cache flags, phase profiling), so the
    report checks exactly the finals an :class:`Explorer` built from
    the same configuration produces.
    """
    config = config if config is not None else EngineConfig()
    sym_sm = SymbolicModelFactory(language.symbolic_memory(), config)()
    sym_result = Explorer(prog, sym_sm, config).run(entry)

    report = DifferentialReport()
    for fin in sym_result.finals:
        if fin.kind is OutcomeKind.VANISH:
            continue
        report.checks.append(
            check_final(language, prog, entry, fin, sym_sm.solver, config)
        )
    return report


def check_final(
    language: Language,
    prog: Prog,
    entry: str,
    fin: Final,
    solver: Solver,
    config: EngineConfig,
) -> TraceCheck:
    """Replay one symbolic final concretely (Thm. 3.6 for a single trace).

    Exposed on its own so other confirmers — notably the incorrectness
    arm's true-positive discharge (:func:`repro.specs.incorrectness.find_bugs`)
    — can validate individual finals without re-running the whole
    symbolic side.
    """
    # Pass the PathCondition itself, as the test harness does: the
    # final's prefix context is already solved, and its model is
    # re-verified against every conjunct before it is returned.
    model = solver.get_model(fin.state.pc)
    if model is None:
        return TraceCheck(fin.kind, None, False, True, "no verified model")

    allocator = ConcreteAllocator(script=dict(model))
    conc_sm = ConcreteStateModel(language.concrete_memory(), allocator)
    try:
        conc_result = Explorer(prog, conc_sm, config).run(entry)
    except Exception as exc:
        return TraceCheck(fin.kind, model, False, False, f"replay crashed: {exc}")

    finals = [f for f in conc_result.finals if f.kind is not OutcomeKind.VANISH]
    if len(finals) != 1:
        return TraceCheck(
            fin.kind, model, False, False,
            f"expected one concrete outcome, got {len(finals)}",
        )
    conc = finals[0]
    if conc.kind is not fin.kind:
        return TraceCheck(
            fin.kind, model, True, False,
            f"outcome kind mismatch: symbolic {fin.kind} vs concrete {conc.kind}",
        )
    matches, detail = _values_match(fin.value, conc.value, model)
    return TraceCheck(fin.kind, model, True, matches, detail)


def _values_match(sym_value, conc_value, model: Dict[str, Value]):
    """⟦v̂⟧ε = v, up to the error values the interpreter synthesises."""
    if isinstance(sym_value, Expr):
        # ε only constrains variables the path condition mentions; inputs
        # the path left unconstrained were replayed with the scripted
        # allocator's default (0), so the interpretation must pick the
        # same arbitrary value (Thm. 3.6 allows any concrete choice).
        from repro.logic.expr import free_lvars

        env = dict(model)
        for name in free_lvars(sym_value):
            env.setdefault(name, 0)
        try:
            interpreted = evaluate(sym_value, lvar_env=env)
        except EvalError as exc:
            return False, f"symbolic outcome value uninterpretable: {exc}"
        if isinstance(conc_value, str) and not isinstance(interpreted, str):
            # Interpreter-synthesised error messages (eval errors) are
            # compared by kind only.
            return True, "error message (kind-level match)"
        if not _loose_equal(interpreted, conc_value):
            return False, f"outcome value mismatch: {interpreted!r} vs {conc_value!r}"
        return True, ""
    # Plain values (e.g. interpreter-made error strings): compare loosely.
    if isinstance(sym_value, str) and isinstance(conc_value, str):
        return True, "error message (kind-level match)"
    return _loose_equal(sym_value, conc_value), ""


def _loose_equal(a, b) -> bool:
    try:
        return values_equal(a, b)
    except TypeError:
        return a == b
