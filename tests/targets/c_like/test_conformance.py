"""MiniC compiler conformance (E5): compiled GIL vs reference interpreter."""

import pytest

from repro.engine.explorer import Explorer
from repro.gil.semantics import OutcomeKind
from repro.gil.values import values_equal
from repro.state.allocator import ConcreteAllocator, isym_name
from repro.state.concrete import ConcreteStateModel
from repro.targets.c_like import RUNTIME, MiniCLanguage
from repro.targets.c_like.interpreter import CInterpreter
from repro.targets.c_like.parser import parse_program

LANG = MiniCLanguage()
_KIND = {"normal": OutcomeKind.NORMAL, "error": OutcomeKind.ERROR}


def run_both(source: str, entry: str = "main", symb_values=()):
    program = parse_program(RUNTIME + source)
    ref = CInterpreter(symb_values=list(symb_values)).run(program, entry)

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
    if ref.kind == "normal" and isinstance(ref.value, (int, float)):
        assert values_equal(out.value, ref.value), (ref.value, out.value)


CORPUS = {
    "arith": "int main() { return (2 + 3) * 4 - 20 / 4; }",
    "int_division_floors": "int main() { return 7 / 2 + 9 % 4; }",
    "struct_roundtrip": """
        struct Point { int x; int y; };
        int main() {
          struct Point *p = (struct Point *) malloc(sizeof(struct Point));
          p->x = 3;
          p->y = 4;
          int r = p->x * p->x + p->y * p->y;
          free(p);
          return r;
        }""",
    "struct_with_padding": """
        struct Mixed { char c; int n; char d; };
        int main() {
          struct Mixed *m = (struct Mixed *) malloc(sizeof(struct Mixed));
          m->c = 'a';
          m->n = 100;
          m->d = 'z';
          int r = m->n + m->c + m->d;
          free(m);
          return r;
        }""",
    "linked_structs": """
        struct Node { int value; struct Node *next; };
        int main() {
          struct Node *a = (struct Node *) malloc(sizeof(struct Node));
          struct Node *b = (struct Node *) malloc(sizeof(struct Node));
          a->value = 1; a->next = b;
          b->value = 2; b->next = NULL;
          int total = a->value + a->next->value;
          free(a); free(b);
          return total;
        }""",
    "stack_array": """
        int main() {
          int a[4];
          for (int i = 0; i < 4; i++) { a[i] = i * i; }
          return a[0] + a[1] + a[2] + a[3];
        }""",
    "pointer_arith": """
        int main() {
          int *a = (int *) malloc(3 * sizeof(int));
          *a = 1;
          *(a + 1) = 2;
          *(a + 2) = 3;
          int *p = a + 2;
          int r = *p + *(p - 1);
          free(a);
          return r;
        }""",
    "pointer_difference": """
        int main() {
          int *a = (int *) malloc(4 * sizeof(int));
          int *p = a + 3;
          int d = p - a;
          free(a);
          return d;
        }""",
    "address_of_local": """
        void set(int *out) { *out = 42; }
        int main() {
          int v = 0;
          set(&v);
          return v;
        }""",
    "calloc_zeroes": """
        int main() {
          int *a = (int *) calloc(4, sizeof(int));
          int total = a[0] + a[1] + a[2] + a[3];
          free(a);
          return total;
        }""",
    "memcpy_copies": """
        int main() {
          int *a = (int *) malloc(8);
          a[0] = 5; a[1] = 6;
          int *b = (int *) malloc(8);
          memcpy(b, a, 8);
          int r = b[0] + b[1];
          free(a); free(b);
          return r;
        }""",
    "memset_bytes": """
        int main() {
          char *s = (char *) malloc(4);
          memset(s, 7, 4);
          int r = s[0] + s[3];
          free(s);
          return r;
        }""",
    "strings": """
        int main() {
          char *s = "abc";
          return strlen(s) + s[0];
        }""",
    "strcmp_orders": """
        int main() {
          int a = strcmp("abc", "abd");
          int b = strcmp("b", "a");
          int c = strcmp("same", "same");
          return a * 100 + b * 10 + c;
        }""",
    "function_calls": """
        int square(int x) { return x * x; }
        int main() { return square(square(2)); }""",
    "recursion": """
        int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        int main() { return fib(10); }""",
    "while_break_continue": """
        int main() {
          int total = 0;
          int i = 0;
          while (1) {
            i++;
            if (i == 3) { continue; }
            if (i > 6) { break; }
            total = total + i;
          }
          return total;
        }""",
    "comparisons_as_values": """
        int main() {
          int a = (1 < 2);
          int b = (2 < 1);
          return a * 10 + b;
        }""",
    "null_deref_errors": "int main() { int *p = NULL; return *p; }",
    "use_after_free_errors": """
        int main() {
          int *p = (int *) malloc(4);
          *p = 1;
          free(p);
          return *p;
        }""",
    "double_free_errors": """
        int main() {
          int *p = (int *) malloc(4);
          free(p);
          free(p);
          return 0;
        }""",
    "overflow_errors": """
        int main() {
          int *a = (int *) malloc(8);
          a[2] = 1;
          return 0;
        }""",
    "uninitialised_read_errors": """
        int main() {
          int *a = (int *) malloc(4);
          return a[0];
        }""",
    "ub_cross_block_relational_errors": """
        int main() {
          int *a = (int *) malloc(4);
          int *b = (int *) malloc(4);
          if (a < b) { return 1; }
          return 0;
        }""",
    "assert_failure": "int main() { assert(1 == 2); return 0; }",
    "same_block_relational_ok": """
        int main() {
          int *a = (int *) malloc(8);
          int *p = a + 1;
          int r = 0;
          if (a < p) { r = 1; }
          free(a);
          return r;
        }""",
    "pointer_equality_null": """
        int main() {
          int *p = NULL;
          int r = 0;
          if (p == NULL) { r = 1; }
          int *q = (int *) malloc(4);
          if (q != NULL) { r = r + 2; }
          free(q);
          return r;
        }""",
    "addressed_parameter": """
        int bump(int x) {
          int *p = &x;
          *p = *p + 1;
          return x;
        }
        int main() { return bump(41); }""",
    "declarations_without_initialiser": """
        void set(int *out) { *out = 7; }
        int main() {
          int a;
          int b;
          set(&b);
          a = b + 1;
          return a;
        }""",
    "nested_struct_and_array_fields": """
        struct Inner { int x; int items[3]; };
        struct Outer { int k; struct Inner in; };
        int main() {
          struct Outer *o = (struct Outer *) malloc(sizeof(struct Outer));
          o->in.x = 5;
          (*o).k = 2;
          int *items = o->in.items;
          items[1] = 4;
          struct Inner *q = o->in;
          int r = q->x + o->in.items[1] + o->k;
          free(o);
          return r;
        }""",
    "logical_operators_as_values": """
        int main() {
          int t = 1;
          int f = 0;
          int a = !f;
          int b = t && f;
          int c = f || t;
          int d = !(t < f);
          return a * 1000 + b * 100 + c * 10 + d;
        }""",
    "pointer_as_condition": """
        int main() {
          int *p = (int *) malloc(4);
          int *q = NULL;
          int r = 0;
          if (p) { r = r + 1; }
          if (q) { r = r + 10; }
          free(p);
          return r;
        }""",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_conformance(name):
    assert_agree(CORPUS[name])


class TestWithSymbolicInputs:
    def test_scripted_int(self):
        source = """
        int main() {
          int x = symb_int();
          if (x < 0) { return -x; }
          return x;
        }"""
        for value in (-5, 0, 9):
            assert_agree(source, symb_values=[value])

    def test_scripted_char_range(self):
        source = "int main() { int c = symb_char(); return c; }"
        assert_agree(source, symb_values=[65])
        assert_agree(source, symb_values=[300])  # out of char range: vanish
