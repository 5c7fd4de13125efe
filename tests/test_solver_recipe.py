"""Every entry point builds its solver from its configuration one way.

:meth:`repro.logic.solver.Solver.from_config` is the only place where an
:class:`~repro.engine.config.EngineConfig` becomes a solver, so a config
knob means the same thing at every entry point.  The only other
``Solver`` constructions under ``src/repro`` are the no-argument
defaults of callers that were handed no solver at all.
"""

import ast
import pathlib

import repro
from repro.engine.config import EngineConfig
from repro.engine.parallel import SymbolicModelFactory
from repro.logic.simplify import shared_simplifier
from repro.logic.solver import Solver
from repro.targets.while_lang import WhileLanguage
from repro.testing.harness import SymbolicTester

SRC = pathlib.Path(repro.__file__).parent

#: (module path, enclosing scope) of the permitted default constructions
DEFAULTS = {
    ("state/symbolic.py", "SymbolicStateModel.__init__"),
    ("soundness/interpretation.py", "check_action"),
}


class _SolverCalls(ast.NodeVisitor):
    """Collects ``(scope, call)`` for every call constructing a Solver."""

    def __init__(self) -> None:
        self.scope = []
        self.found = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "Solver":
            self.found.append((".".join(self.scope), node))
        self.generic_visit(node)


def solver_constructions():
    """Every ``Solver(...)`` call under ``src/repro`` outside the solver."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "logic/solver.py":
            continue
        visitor = _SolverCalls()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        out.extend((rel, scope, call) for scope, call in visitor.found)
    return out


def test_only_argument_free_defaults_construct_a_solver():
    found = solver_constructions()
    assert {(rel, scope) for rel, scope, _ in found} == DEFAULTS
    for rel, scope, call in found:
        assert not call.args and not call.keywords, (rel, scope)


def test_from_config_honours_every_solver_field():
    config = EngineConfig(
        simplifier_memoisation=False,
        solver_cache=False,
        solver_incremental=False,
        solver_step_budget=7,
        profile_solver_phases=True,
    )
    solver = Solver.from_config(config)
    assert solver.simplifier is shared_simplifier(True, False)
    assert not solver.cache_enabled
    assert not solver.incremental
    assert solver.step_budget == 7
    assert solver.profile_phases


def test_entry_points_agree_on_the_recipe():
    config = EngineConfig(solver_cache=False, solver_step_budget=3)
    built = [
        SymbolicModelFactory(WhileLanguage().symbolic_memory(), config)().solver,
        SymbolicTester(WhileLanguage(), config=config).make_solver(),
    ]
    for solver in built:
        assert solver.simplifier is shared_simplifier(True, True)
        assert (solver.cache_enabled, solver.incremental, solver.step_budget) == (
            False, True, 3,
        )
