"""A reference big-step interpreter for MiniJS (conformance oracle, E5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gil.values import GilType, Symbol, Value, type_of, values_equal
from repro.targets.js_like import ast
from repro.targets.js_like.memory import JSNULL, UNDEFINED


@dataclass
class InterpResult:
    """Final outcome of a concrete MiniJS run."""

    kind: str  # "normal" | "error" | "vanish"
    value: Value = UNDEFINED


class JSError(Exception):
    """Raised by the concrete interpreter for a thrown JS error value."""

    def __init__(self, value) -> None:
        self.value = value


class _Return(Exception):
    def __init__(self, value: Value) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Vanish(Exception):
    pass


@dataclass
class _Object:
    metadata: Value
    props: List[Tuple[Value, Value]] = field(default_factory=list)
    alive: bool = True

    def get(self, key: Value) -> Optional[Value]:
        for k, v in self.props:
            if values_equal(k, key):
                return v
        return None

    def set(self, key: Value, value: Value) -> None:
        for i, (k, _) in enumerate(self.props):
            if values_equal(k, key):
                self.props[i] = (k, value)
                return
        self.props.append((key, value))

    def delete(self, key: Value) -> None:
        self.props = [(k, v) for k, v in self.props if not values_equal(k, key)]


class JSInterpreter:
    """Direct interpreter over the MiniJS AST."""

    def __init__(self, symb_values: Optional[Sequence[Value]] = None) -> None:
        self._symb_values: List[Value] = list(symb_values or [])
        self._heap: Dict[Symbol, _Object] = {}
        self._alloc_count = 0

    def run(self, program: ast.Program, entry: str, args: Sequence[Value] = ()) -> InterpResult:
        functions = {f.name: f for f in program.functions}
        if entry not in functions:
            raise ValueError(f"unknown function {entry!r}")
        try:
            value = self._call_function(functions, functions[entry], list(args))
        except JSError as exc:
            return InterpResult("error", exc.value)
        except _Vanish:
            return InterpResult("vanish")
        return InterpResult("normal", value)

    # -- helpers -----------------------------------------------------------

    def _alloc(self, metadata: Value) -> Symbol:
        loc = Symbol(f"jsobj_{self._alloc_count}")
        self._alloc_count += 1
        self._heap[loc] = _Object(metadata)
        return loc

    def _object(self, value: Value) -> _Object:
        if not isinstance(value, Symbol) or value not in self._heap:
            raise JSError(("type-error-not-an-object", value))
        obj = self._heap[value]
        if not obj.alive:
            raise JSError(("use-after-dispose", value))
        return obj

    def _call_function(self, functions, func: ast.FunctionDef, args: List[Value]) -> Value:
        if len(args) != len(func.params):
            raise JSError(f"{func.name}: arity mismatch")
        env: Dict[str, Value] = dict(zip(func.params, args))
        try:
            for stmt in func.body:
                self._stmt(functions, env, stmt)
        except _Return as ret:
            return ret.value
        return UNDEFINED

    # -- statements ----------------------------------------------------------

    def _stmt(self, functions, env: Dict[str, Value], stmt: ast.Statement) -> None:
        if isinstance(stmt, ast.VarDecl):
            env[stmt.name] = (
                self._expr(functions, env, stmt.init)
                if stmt.init is not None
                else UNDEFINED
            )
            return
        if isinstance(stmt, ast.AssignVar):
            env[stmt.name] = self._expr(functions, env, stmt.value)
            return
        if isinstance(stmt, ast.AssignMember):
            obj = self._object(self._expr(functions, env, stmt.obj))
            key = self._expr(functions, env, stmt.prop)
            obj.set(key, self._expr(functions, env, stmt.value))
            return
        if isinstance(stmt, ast.DeleteStmt):
            obj = self._object(self._expr(functions, env, stmt.obj))
            obj.delete(self._expr(functions, env, stmt.prop))
            return
        if isinstance(stmt, ast.ExprStmt):
            self._expr(functions, env, stmt.expr)
            return
        if isinstance(stmt, ast.IfStmt):
            cond = self._bool(self._expr(functions, env, stmt.cond), "if")
            for s in stmt.then_body if cond else stmt.else_body:
                self._stmt(functions, env, s)
            return
        if isinstance(stmt, ast.WhileStmt):
            while self._bool(self._expr(functions, env, stmt.cond), "while"):
                try:
                    for s in stmt.body:
                        self._stmt(functions, env, s)
                except _Break:
                    return
                except _Continue:
                    continue
            return
        if isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self._stmt(functions, env, stmt.init)
            while (
                stmt.cond is None
                or self._bool(self._expr(functions, env, stmt.cond), "for")
            ):
                try:
                    for s in stmt.body:
                        self._stmt(functions, env, s)
                except _Break:
                    return
                except _Continue:
                    pass
                if stmt.step is not None:
                    self._stmt(functions, env, stmt.step)
            return
        if isinstance(stmt, ast.ReturnStmt):
            raise _Return(
                self._expr(functions, env, stmt.expr)
                if stmt.expr is not None
                else UNDEFINED
            )
        if isinstance(stmt, ast.BreakStmt):
            raise _Break()
        if isinstance(stmt, ast.ContinueStmt):
            raise _Continue()
        if isinstance(stmt, ast.AssumeStmt):
            if self._expr(functions, env, stmt.expr) is not True:
                raise _Vanish()
            return
        if isinstance(stmt, ast.AssertStmt):
            if self._expr(functions, env, stmt.expr) is not True:
                raise JSError(("assertion-failure", repr(stmt.expr)))
            return
        raise TypeError(f"unknown statement {stmt!r}")

    # -- expressions -----------------------------------------------------------

    def _expr(self, functions, env: Dict[str, Value], e: ast.Expression) -> Value:
        if isinstance(e, ast.Literal):
            return e.value
        if isinstance(e, ast.Undefined):
            return UNDEFINED
        if isinstance(e, ast.NullLit):
            return JSNULL
        if isinstance(e, ast.Var):
            if e.name in env:
                return env[e.name]
            if e.name in functions:
                return e.name
            raise JSError(f"unknown identifier {e.name!r}")
        if isinstance(e, ast.ObjectLit):
            loc = self._alloc("Object")
            for prop, value in e.props:
                self._heap[loc].set(prop, self._expr(functions, env, value))
            return loc
        if isinstance(e, ast.ArrayLit):
            loc = self._alloc("Array")
            for i, item in enumerate(e.items):
                self._heap[loc].set(i, self._expr(functions, env, item))
            self._heap[loc].set("length", len(e.items))
            return loc
        if isinstance(e, ast.Member):
            obj = self._object(self._expr(functions, env, e.obj))
            found = obj.get(self._expr(functions, env, e.prop))
            return found if found is not None else UNDEFINED
        if isinstance(e, ast.CallExpr):
            return self._call_expr(functions, env, e)
        if isinstance(e, ast.Unary):
            return self._unary(functions, env, e)
        if isinstance(e, ast.Binary):
            return self._binary(functions, env, e)
        if isinstance(e, ast.Conditional):
            if self._bool(self._expr(functions, env, e.cond), "?:"):
                return self._expr(functions, env, e.then_expr)
            return self._expr(functions, env, e.else_expr)
        if isinstance(e, ast.SymbolicExpr):
            return self._symbolic(e)
        raise TypeError(f"unknown expression {e!r}")

    def _call_expr(self, functions, env, e: ast.CallExpr) -> Value:
        import math

        if isinstance(e.callee, ast.Var) and e.callee.name not in env:
            name = e.callee.name
            args = [self._expr(functions, env, a) for a in e.args]
            if name == "floor":
                return math.floor(self._num(args[0], "floor"))
            if name == "strlen":
                return len(self._str(args[0], "strlen"))
            if name == "str_of":
                n = self._num(args[0], "str_of")
                return str(int(n)) if float(n).is_integer() else str(n)
            if name == "num_of":
                s = self._str(args[0], "num_of")
                try:
                    return float(s) if "." in s else int(s)
                except ValueError:
                    raise JSError(f"num_of: {s!r}")
            if name == "char_at":
                s = self._str(args[0], "char_at")
                i = int(self._num(args[1], "char_at"))
                if not 0 <= i < len(s):
                    raise JSError(f"char_at: index {i} out of range")
                return s[i]
            if name in ("min_of", "max_of"):
                a, b = self._num(args[0], name), self._num(args[1], name)
                return min(a, b) if name == "min_of" else max(a, b)
            if name == "dispose":
                obj = self._object(args[0])
                obj.alive = False
                return UNDEFINED
            if name == "has_prop":
                obj = self._object(args[0])
                return obj.get(args[1]) is not None
            if name in functions:
                return self._call_function(functions, functions[name], args)
            raise JSError(f"unknown function {name!r}")
        callee = self._expr(functions, env, e.callee)
        args = [self._expr(functions, env, a) for a in e.args]
        if not isinstance(callee, str) or callee not in functions:
            raise JSError(("type-error-not-a-function", callee))
        return self._call_function(functions, functions[callee], args)

    def _unary(self, functions, env, e: ast.Unary) -> Value:
        operand = self._expr(functions, env, e.operand)
        if e.op == "-":
            return -self._num(operand, "-")
        if e.op == "!":
            return not self._bool(operand, "!")
        if e.op == "typeof":
            t = type_of(operand) if not isinstance(operand, Symbol) else None
            if isinstance(operand, Symbol):
                return "undefined" if operand == UNDEFINED else "object"
            return {
                GilType.NUMBER: "number",
                GilType.STRING: "string",
                GilType.BOOLEAN: "boolean",
            }.get(t, "object")
        raise JSError(f"unknown unary {e.op!r}")

    def _binary(self, functions, env, e: ast.Binary) -> Value:
        if e.op == "&&":
            left = self._bool(self._expr(functions, env, e.left), "&&")
            if not left:
                return False
            return self._bool(self._expr(functions, env, e.right), "&&")
        if e.op == "||":
            left = self._bool(self._expr(functions, env, e.left), "||")
            if left:
                return True
            return self._bool(self._expr(functions, env, e.right), "||")
        left = self._expr(functions, env, e.left)
        right = self._expr(functions, env, e.right)
        if e.op == "+":
            if isinstance(left, str):
                return left + self._str(right, "+")
            return self._norm(self._num(left, "+") + self._num(right, "+"))
        if e.op == "-":
            return self._norm(self._num(left, "-") - self._num(right, "-"))
        if e.op == "*":
            return self._norm(self._num(left, "*") * self._num(right, "*"))
        if e.op == "/":
            d = self._num(right, "/")
            if d == 0:
                raise JSError("/: division by zero")
            n = self._num(left, "/")
            if isinstance(n, int) and isinstance(d, int) and n % d == 0:
                return n // d
            return self._norm(n / d)
        if e.op == "%":
            d = int(self._num(right, "%"))
            if d == 0:
                raise JSError("%: modulo by zero")
            return int(self._num(left, "%")) % d
        if e.op == "===":
            return values_equal(left, right)
        if e.op == "!==":
            return not values_equal(left, right)
        if e.op in ("<", "<=", ">", ">="):
            ln, rn = self._comparable(left, right, e.op)
            return {"<": ln < rn, "<=": ln <= rn, ">": ln > rn, ">=": ln >= rn}[e.op]
        raise JSError(f"unknown binary {e.op!r}")

    def _symbolic(self, e: ast.SymbolicExpr) -> Value:
        if not self._symb_values:
            raise ValueError("interpreter ran out of symb() input values")
        value = self._symb_values.pop(0)
        if e.type_name is not None:
            expected = {
                "number": GilType.NUMBER,
                "int": GilType.NUMBER,
                "string": GilType.STRING,
                "bool": GilType.BOOLEAN,
            }[e.type_name]
            if type_of(value) is not expected:
                raise _Vanish()
            if e.type_name == "int" and float(value) != int(value):
                raise _Vanish()
        return value

    # -- coercion guards -------------------------------------------------------

    @staticmethod
    def _norm(x):
        if isinstance(x, float) and x.is_integer() and abs(x) < 2**53:
            return int(x)
        return x

    @staticmethod
    def _num(v: Value, op: str):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise JSError(f"eval-error: {op}: expected a number, got {v!r}")
        return v

    @staticmethod
    def _str(v: Value, op: str) -> str:
        if not isinstance(v, str):
            raise JSError(f"eval-error: {op}: expected a string, got {v!r}")
        return v

    @staticmethod
    def _bool(v: Value, op: str) -> bool:
        if not isinstance(v, bool):
            raise JSError(f"eval-error: {op}: expected a boolean, got {v!r}")
        return v

    def _comparable(self, left: Value, right: Value, op: str):
        if isinstance(left, str) and isinstance(right, str):
            return left, right
        return self._num(left, op), self._num(right, op)
