"""MiniJS compiler conformance (E5): compiled GIL vs reference interpreter."""

import pytest

from repro.engine.explorer import Explorer
from repro.gil.semantics import OutcomeKind
from repro.gil.values import Symbol, values_equal
from repro.state.allocator import ConcreteAllocator, isym_name
from repro.state.concrete import ConcreteStateModel
from repro.targets.js_like import MiniJSLanguage
from repro.targets.js_like.interpreter import JSInterpreter
from repro.targets.js_like.parser import parse_program

LANG = MiniJSLanguage()

_KIND = {"normal": OutcomeKind.NORMAL, "error": OutcomeKind.ERROR}


def run_both(source: str, entry: str = "main", symb_values=()):
    program = parse_program(source)
    ref = JSInterpreter(symb_values=list(symb_values)).run(program, entry)

    prog = LANG.compile(source)
    allocator = ConcreteAllocator()
    if symb_values:
        from repro.gil.syntax import ISym

        sites = sorted(
            cmd.site
            for proc in prog.procs.values()
            for cmd in proc.body
            if isinstance(cmd, ISym)
        )
        script = {isym_name(s, 0): v for s, v in zip(sites, symb_values)}
        allocator = ConcreteAllocator(script=script)
    sm = ConcreteStateModel(LANG.concrete_memory(), allocator)
    gil_result = Explorer(prog, sm).run(entry)
    return ref, gil_result


def assert_agree(source: str, symb_values=()):
    ref, gil_result = run_both(source, symb_values=symb_values)
    if ref.kind == "vanish":
        assert gil_result.finals == []
        return
    out = gil_result.sole_outcome
    assert out.kind is _KIND[ref.kind], (ref, out)
    if ref.kind == "normal":
        if isinstance(ref.value, Symbol) and ref.value.name.startswith("jsobj"):
            assert isinstance(out.value, Symbol)
        else:
            assert values_equal(out.value, ref.value), (ref.value, out.value)


CORPUS = {
    "arith": "function main() { return 2 + 3 * 4; }",
    "string_plus": 'function main() { return "a" + "b" + "c"; }',
    "mixed_plus_dispatch": 'function main() { var n = 1 + 2; var s = "n=" + "3"; return s; }',
    "strict_equality": "function main() { return 1 === 1; }",
    "undefined_null_distinct": "function main() { return undefined === null; }",
    "object_props": """
        function main() {
          var o = { a: 1, b: 2 };
          o.c = o.a + o.b;
          return o.c;
        }""",
    "dynamic_props": """
        function main() {
          var o = {};
          var k = "key";
          o[k] = 10;
          return o["k" + "ey"];
        }""",
    "absent_prop_undefined": """
        function main() { var o = {}; return o.missing === undefined; }""",
    "delete_prop": """
        function main() {
          var o = { a: 1 };
          delete o.a;
          return o.a === undefined;
        }""",
    "arrays": """
        function main() {
          var a = [10, 20, 30];
          a[3] = 40;
          a.length = 4;
          var total = 0;
          for (var i = 0; i < a.length; i++) { total = total + a[i]; }
          return total;
        }""",
    "while_loop": """
        function main() {
          var i = 0; var total = 0;
          while (i < 5) { total = total + i; i = i + 1; }
          return total;
        }""",
    "for_with_break_continue": """
        function main() {
          var total = 0;
          for (var i = 0; i < 10; i++) {
            if (i === 3) continue;
            if (i === 6) break;
            total = total + i;
          }
          return total;
        }""",
    "function_calls": """
        function add(a, b) { return a + b; }
        function main() { return add(add(1, 2), 3); }""",
    "function_as_value": """
        function inc(x) { return x + 1; }
        function apply(f, v) { return f(v); }
        function main() { return apply(inc, 41); }""",
    "function_in_property": """
        function double(x) { return x * 2; }
        function main() {
          var o = { op: double };
          var f = o.op;
          return f(21);
        }""",
    "recursion": """
        function fact(n) { if (n <= 1) return 1; return n * fact(n - 1); }
        function main() { return fact(6); }""",
    "conditional_expr": """
        function main() { var x = 5; return x < 3 ? "small" : "big"; }""",
    "short_circuit_and": """
        function check(o) { return o !== null && o.v === 1; }
        function main() { return check(null); }""",
    "typeof": """
        function main() {
          var parts = typeof 1 + typeof "s" + typeof true + typeof undefined;
          return parts;
        }""",
    "null_property_access_errors": """
        function main() { var o = null; return o.x; }""",
    "assert_failure": "function main() { assert(1 === 2); }",
    "missing_return_is_undefined": """
        function noop() {}
        function main() { return noop() === undefined; }""",
    "nested_objects": """
        function main() {
          var o = { inner: { v: 7 } };
          return o.inner.v;
        }""",
    "numeric_keys_distinct_from_strings": """
        function main() {
          var o = {};
          o[1] = "num";
          o["x"] = "str";
          return o[1];
        }""",
    "inline_builtins": """
        function main() {
          var c = char_at("abc", 1);
          var m = min_of(3, 4) * 10 + max_of(5, 6);
          return c === "b" ? m : 0;
        }""",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_conformance(name):
    assert_agree(CORPUS[name])


class TestWithSymbolicInputs:
    def test_scripted_number(self):
        source = """
        function main() {
          var n = symb_number();
          if (n < 0) { return -n; }
          return n;
        }"""
        for value in (-7, 0, 3.5):
            assert_agree(source, symb_values=[value])

    def test_wrong_type_vanishes(self):
        assert_agree(
            "function main() { var n = symb_number(); return n; }",
            symb_values=["oops"],
        )

    def test_scripted_string_key(self):
        source = """
        function main() {
          var k = symb_string();
          var o = { a: 1 };
          o[k] = 2;
          return o.a;
        }"""
        for key in ("a", "b"):
            assert_agree(source, symb_values=[key])
