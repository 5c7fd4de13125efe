"""While compiler conformance (E5): compiled GIL vs reference interpreter.

The paper establishes compiler trustworthiness by differential testing
(Test262 for Gillian-JS, §4.1).  Here every program in the corpus is run
both through the reference source-level interpreter and through concrete
GIL execution of the compiled program; outcomes must agree.
"""

import pytest

from repro.engine.explorer import Explorer
from repro.gil.semantics import OutcomeKind
from repro.gil.values import NULL
from repro.state.allocator import ConcreteAllocator
from repro.state.concrete import ConcreteStateModel
from repro.targets.while_lang import WhileLanguage
from repro.targets.while_lang.interpreter import WhileInterpreter
from repro.targets.while_lang.parser import parse_program

LANG = WhileLanguage()

_KIND = {
    "normal": OutcomeKind.NORMAL,
    "error": OutcomeKind.ERROR,
}


def run_both(source: str, entry: str = "main", symb_values=()):
    """Run via reference interpreter and via compiled GIL; return both."""
    program = parse_program(source)
    ref = WhileInterpreter(symb_values=list(symb_values)).run(program, entry)

    prog = LANG.compile(source)
    script = {}
    # Scripted iSym values follow allocation-site order of compilation.
    sm = ConcreteStateModel(LANG.concrete_memory(), ConcreteAllocator())
    if symb_values:
        # Discover iSym sites in program order and map the values onto them.
        from repro.gil.syntax import ISym
        from repro.state.allocator import isym_name

        sites = [
            cmd.site
            for proc in prog.procs.values()
            for cmd in proc.body
            if isinstance(cmd, ISym)
        ]
        for site, value in zip(sorted(sites), symb_values):
            script[isym_name(site, 0)] = value
        sm = ConcreteStateModel(
            LANG.concrete_memory(), ConcreteAllocator(script=script)
        )
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
        from repro.gil.values import Symbol, values_equal

        if isinstance(ref.value, Symbol):
            # Locations are allocator-named differently; kind match suffices.
            assert isinstance(out.value, Symbol)
        else:
            assert values_equal(out.value, ref.value), (ref.value, out.value)


CORPUS = {
    "arith": "proc main() { x := 2 + 3 * 4; return x; }",
    "div": "proc main() { return 7 / 2; }",
    "string": 'proc main() { s := "ab" ++ "cd"; return slen(s); }',
    "if_true": "proc main() { if (1 < 2) { return 10; } else { return 20; } }",
    "if_false": "proc main() { if (2 < 1) { return 10; } else { return 20; } }",
    "nested_if": """
        proc main() {
          x := 5;
          if (x < 3) { r := 1; } else { if (x < 7) { r := 2; } else { r := 3; } }
          return r;
        }""",
    "while_sum": """
        proc main() {
          i := 0; total := 0;
          while (i < 10) { total := total + i; i := i + 1; }
          return total;
        }""",
    "while_zero_iterations": """
        proc main() { i := 0; while (false) { i := 99; } return i; }""",
    "call": """
        proc add(a, b) { return a + b; }
        proc main() { r := add(2, 40); return r; }""",
    "recursion": """
        proc fib(n) {
          if (n < 2) { return n; }
          a := fib(n - 1); b := fib(n - 2);
          return a + b;
        }
        proc main() { r := fib(10); return r; }""",
    "object_roundtrip": """
        proc main() {
          o := { a: 1, b: 2 };
          t := bump_a(o);
          o.a := t;
          x := o.a; y := o.b;
          return x + y;
        }
        proc bump_a(o) { v := o.a; return v + 10; }""",
    "object_mutate_new_prop": """
        proc main() { o := {}; o.fresh := 42; v := o.fresh; return v; }""",
    "dispose_then_use_errors": """
        proc main() { o := { a: 1 }; dispose(o); x := o.a; return x; }""",
    "missing_property_errors": """
        proc main() { o := { a: 1 }; x := o.b; return x; }""",
    "dispose_missing_errors": """
        proc main() { o := { a: 1 }; dispose(o); dispose(o); return 0; }""",
    "assert_pass": "proc main() { assert(1 < 2); return 0; }",
    "assert_fail": "proc main() { assert(2 < 1); return 0; }",
    "assume_false_vanishes": "proc main() { assume(false); return 0; }",
    "division_by_zero_errors": "proc main() { x := 0; return 1 / x; }",
    "list_ops": """
        proc main() {
          xs := [1, 2, 3];
          ys := cons(0, xs);
          return len(ys) + nth(ys, 0) + nth(ys, 3);
        }""",
    "falls_off_end_returns_null": "proc main() { x := 1; }",
    "fresh_objects_distinct": """
        proc main() { a := {}; b := {}; return a = b; }""",
    "shadowing_call_params": """
        proc f(x) { x := x + 1; return x; }
        proc main() { x := 10; r := f(1); return x + r; }""",
    "skip": "proc main() { skip; x := 1; return x; }",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_conformance(name):
    assert_agree(CORPUS[name])


class TestConformanceWithInputs:
    def test_symbolic_input_scripted(self):
        source = """
        proc main() {
          n := symb_number();
          if (n < 0) { return -n; } else { return n; }
        }"""
        for value in (-5, 0, 7):
            assert_agree(source, symb_values=[value])

    def test_typed_input_filters_wrong_type(self):
        source = "proc main() { n := symb_number(); return n; }"
        assert_agree(source, symb_values=["not-a-number"])
