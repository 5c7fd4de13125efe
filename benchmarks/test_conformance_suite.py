"""E5 — compiler trustworthiness: differential conformance throughput.

The paper's compilers are "trusted" because they are differentially
tested (Test262 for Gillian-JS; CompCert's own verification for C).  The
conformance corpora live in ``tests/targets/*/test_conformance.py``; this
benchmark measures how fast a representative concrete differential run
is for each instantiation — concrete GIL execution of the compiled
program vs the source-level reference interpreter.
"""

import pytest

from repro.engine.explorer import Explorer
from repro.state.concrete import ConcreteStateModel


def _run_while():
    from repro.targets.while_lang import WhileLanguage
    from repro.targets.while_lang.interpreter import WhileInterpreter
    from repro.targets.while_lang.parser import parse_program

    source = """
    proc fib(n) {
      if (n < 2) { return n; }
      a := fib(n - 1); b := fib(n - 2);
      return a + b;
    }
    proc main() {
      o := { memo: 0 };
      r := fib(12);
      o.memo := r;
      v := o.memo;
      return v;
    }
    """
    language = WhileLanguage()
    ref = WhileInterpreter().run(parse_program(source), "main")
    prog = language.compile(source)
    sm = ConcreteStateModel(language.concrete_memory())
    out = Explorer(prog, sm).run("main").sole_outcome
    assert ref.value == out.value == 144
    return out.value


def _run_minijs():
    from repro.targets.js_like import MiniJSLanguage
    from repro.targets.js_like.interpreter import JSInterpreter
    from repro.targets.js_like.parser import parse_program

    source = """
    function sum_array(a) {
      var total = 0;
      for (var i = 0; i < a.length; i++) { total = total + a[i]; }
      return total;
    }
    function main() {
      var a = [1, 2, 3, 4, 5];
      a[5] = 6; a.length = 6;
      return sum_array(a);
    }
    """
    language = MiniJSLanguage()
    ref = JSInterpreter().run(parse_program(source), "main")
    prog = language.compile(source)
    sm = ConcreteStateModel(language.concrete_memory())
    out = Explorer(prog, sm).run("main").sole_outcome
    assert ref.value == out.value == 21
    return out.value


def _run_minic():
    from repro.targets.c_like import RUNTIME, MiniCLanguage
    from repro.targets.c_like.interpreter import CInterpreter
    from repro.targets.c_like.parser import parse_program

    source = """
    struct Node { int value; struct Node *next; };
    int main() {
      struct Node *head = NULL;
      for (int i = 0; i < 10; i++) {
        struct Node *n = (struct Node *) malloc(sizeof(struct Node));
        n->value = i;
        n->next = head;
        head = n;
      }
      int total = 0;
      struct Node *cur = head;
      while (cur != NULL) {
        total = total + cur->value;
        cur = cur->next;
      }
      return total;
    }
    """
    language = MiniCLanguage()
    ref = CInterpreter().run(parse_program(RUNTIME + source), "main")
    prog = language.compile(source)
    sm = ConcreteStateModel(language.concrete_memory())
    out = Explorer(prog, sm).run("main").sole_outcome
    assert ref.value == out.value == 45
    return out.value


def _run_minirust():
    from repro.targets.rust_like import MiniRustLanguage
    from repro.targets.rust_like.interpreter import RustInterpreter
    from repro.targets.rust_like.parser import parse_program

    source = """
    fn sum(v: &[i64]) -> i64 {
      let mut i = 0;
      let mut total = 0;
      while i < len(v) { total = total + v[i]; i = i + 1; }
      return total;
    }
    fn main() -> i64 {
      let mut a = alloc(10);
      let mut i = 0;
      while i < 10 { a[i] = i; i = i + 1; }
      let b = Box::new(sum(&a));
      drop(a);
      let v = *b;
      drop(b);
      return v;
    }
    """
    language = MiniRustLanguage()
    ref = RustInterpreter().run(parse_program(source), "main")
    prog = language.compile(source)
    sm = ConcreteStateModel(language.concrete_memory())
    out = Explorer(prog, sm).run("main").sole_outcome
    assert ref.value == out.value == 45
    return out.value


@pytest.mark.parametrize(
    "runner", [_run_while, _run_minijs, _run_minic, _run_minirust],
    ids=["while", "minijs", "minic", "minirust"],
)
def test_conformance_throughput(runner, benchmark):
    benchmark(runner)
