"""MiniRust compiler conformance: compiled GIL vs reference interpreter.

Every program runs twice — once through ``RustInterpreter`` (a direct
tree-walker over the same memory model) and once compiled to GIL and
driven by the concrete ``Explorer`` — and the final outcome classes
must agree.  Error programs additionally pin the *fault tag* on both
sides, so the ownership diagnostics stay distinguishable end to end.
"""

import pytest

from repro.engine.explorer import Explorer
from repro.gil.semantics import OutcomeKind
from repro.gil.syntax import ISym
from repro.gil.values import values_equal
from repro.state.allocator import ConcreteAllocator, isym_name
from repro.state.concrete import ConcreteStateModel
from repro.targets.rust_like import MiniRustLanguage
from repro.targets.rust_like.interpreter import RustInterpreter
from repro.targets.rust_like.parser import parse_program

LANG = MiniRustLanguage()
_KIND = {"normal": OutcomeKind.NORMAL, "error": OutcomeKind.ERROR}


def run_both(source: str, entry: str = "main", symb_values=()):
    program = parse_program(source)
    ref = RustInterpreter(symb_values=list(symb_values)).run(program, entry)

    prog = LANG.compile(source)
    allocator = ConcreteAllocator()
    if symb_values:
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
        return ref, None
    out = gil_result.sole_outcome
    assert out.kind is _KIND[ref.kind], (ref, out)
    if ref.kind == "normal" and isinstance(ref.value, (int, float)):
        assert values_equal(out.value, ref.value), (ref.value, out.value)
    return ref, out


def assert_fault(source: str, tag: str):
    """Both sides fail, and both report the same ownership fault tag."""
    ref, out = assert_agree(source)
    assert ref.kind == "error", ref
    assert ref.value[0] == tag, ref.value
    assert out.value[0] == tag, out.value


CORPUS = {
    "arith": "fn main() -> i64 { return (2 + 3) * 4 - 20 / 4; }",
    "box_roundtrip": """
        fn main() -> i64 {
          let b = Box::new(21);
          let v = *b * 2;
          drop(b);
          return v;
        }""",
    "array_sum": """
        fn main() -> i64 {
          let a = [1, 2, 3, 4];
          let mut i = 0;
          let mut total = 0;
          while i < len(a) { total = total + a[i]; i = i + 1; }
          drop(a);
          return total;
        }""",
    "shared_borrow_read": """
        fn main() -> i64 {
          let a = [5, 6];
          let r = &a;
          let v = r[0] + r[1];
          drop(r);
          drop(a);
          return v;
        }""",
    "mut_borrow_write": """
        fn main() -> i64 {
          let mut a = [0, 0];
          let m = &mut a;
          m[0] = 4;
          m[1] = 5;
          drop(m);
          let v = a[0] * 10 + a[1];
          drop(a);
          return v;
        }""",
    "move_transfers_ownership": """
        fn main() -> i64 {
          let b = Box::new(9);
          let c = b;
          let v = *c;
          drop(c);
          return v;
        }""",
    "call_by_reference": """
        fn sum(v: &[i64]) -> i64 {
          let mut i = 0;
          let mut total = 0;
          while i < len(v) { total = total + v[i]; i = i + 1; }
          return total;
        }
        fn main() -> i64 {
          let a = [2, 4, 8];
          let t = sum(&a);
          drop(a);
          return t;
        }""",
    "builder_idiom_returns_handle": """
        fn bump(b: Box, by: i64) -> Box {
          b[0] = b[0] + by;
          return b;
        }
        fn main() -> i64 {
          let mut b = Box::new(1);
          b = bump(b, 2);
          b = bump(b, 3);
          let v = *b;
          drop(b);
          return v;
        }""",
    "recursion": """
        fn fib(n: i64) -> i64 {
          if n < 2 { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        fn main() -> i64 { return fib(10); }""",
    "while_break_continue": """
        fn main() -> i64 {
          let mut total = 0;
          let mut i = 0;
          while true {
            i = i + 1;
            if i == 3 { continue; }
            if i > 6 { break; }
            total = total + i;
          }
          return total;
        }""",
    "booleans_as_values": """
        fn main() -> i64 {
          let mut r = 0;
          if 1 < 2 && !(2 < 1) { r = 1; }
          return r;
        }""",
    "assert_failure": "fn main() -> i64 { assert!(1 == 2); return 0; }",
    "operators_builtins_and_unit_return": """
        fn set(b: &mut Box, v: i64) {
          *b = v;
          return;
        }
        fn main() -> i64 {
          let mut b = Box::new(1);
          set(&mut b, 5);
          let n = -(*b);
          let t = !(n >= 0);
          let u = t && n < 0;
          let w = false || t;
          let a = alloc(3);
          let k = len(&a);
          drop(a);
          let v = *b;
          drop(b);
          return v * 1000 + n + t * 100 + u * 10 + w + k;
        }""",
}

FAULTS = {
    "use_after_move": (
        """
        fn main() -> i64 {
          let b = Box::new(1);
          let c = b;
          let v = *b;
          drop(c);
          return v;
        }""",
        "use-after-move",
    ),
    "double_mut_borrow": (
        """
        fn main() -> i64 {
          let mut a = [0];
          let m = &mut a;
          let n = &mut a;
          return 0;
        }""",
        "already-mutably-borrowed",
    ),
    "mut_borrow_under_shared": (
        """
        fn main() -> i64 {
          let mut a = [0];
          let r = &a;
          let m = &mut a;
          return 0;
        }""",
        "already-borrowed",
    ),
    "move_while_borrowed": (
        """
        fn main() -> i64 {
          let a = [1];
          let r = &a;
          let b = a;
          return 0;
        }""",
        "move-while-borrowed",
    ),
    "drop_while_borrowed": (
        """
        fn main() -> i64 {
          let a = [1];
          let r = &a;
          drop(a);
          return 0;
        }""",
        "drop-while-borrowed",
    ),
    "use_after_free": (
        """
        fn main() -> i64 {
          let b = Box::new(1);
          drop(b);
          let v = *b;
          return v;
        }""",
        "use-after-free",
    ),
    "buffer_overflow": (
        """
        fn main() -> i64 {
          let a = [1, 2];
          let v = a[2];
          drop(a);
          return v;
        }""",
        "buffer-overflow",
    ),
    "write_through_shared_ref": (
        """
        fn main() -> i64 {
          let mut a = [0];
          let r = &a;
          let m = &mut a;
          m[0] = 1;
          return 0;
        }""",
        "already-borrowed",
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_conformance(name):
    assert_agree(CORPUS[name])


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_tags_agree(name):
    source, tag = FAULTS[name]
    assert_fault(source, tag)


class TestWithSymbolicInputs:
    def test_scripted_int(self):
        source = """
        fn main() -> i64 {
          let x = symb_int();
          if x < 0 { return 0 - x; }
          return x;
        }"""
        for value in (-5, 0, 9):
            assert_agree(source, symb_values=[value])

    def test_scripted_bool_guards_drop(self):
        source = """
        fn main() -> i64 {
          let b = Box::new(3);
          let flag = symb_bool();
          if flag == 1 { drop(b); }
          let v = *b;
          return v;
        }"""
        ref, out = assert_agree(source, symb_values=[1])
        assert ref.kind == "error" and ref.value[0] == "use-after-free"
        assert_agree(source, symb_values=[0])
