"""The operator grammar of the four TL parsers, pinned independently of
their operator tables.

Each language's binary operators and levels are written out here from
its grammar (a higher level binds tighter; all are left-associative).
For every ordered pair of operators (703 pairs: While has 14
operators, the others 13 each), ``a OP1 b OP2 c`` must parse to
``(a OP1 b) OP2 c`` when OP1's level is at least OP2's, and otherwise to
``a OP1 (b OP2 c)``.  Prefix operators bind tighter than any binary
one, and MiniJS's ``?:`` sits below ``||``.  Malformed expressions and
lists raise the same ``ParseError`` messages, at the same positions, as
the hand-written precedence ladders and list loops did.
"""

import itertools

import pytest

from repro.frontend import ParseError
from repro.gil.text import parse_prog
from repro.targets.c_like.parser import parse_program as parse_c
from repro.targets.js_like.parser import parse_program as parse_js
from repro.targets.rust_like.parser import parse_program as parse_rust
from repro.targets.while_lang.parser import parse_program as parse_while


def _levels(*groups):
    return {op: level for level, ops in enumerate(groups) for op in ops.split()}


WHILE_LEVELS = _levels("or", "and", "= != <= < >= >", "++ + -", "* / %")
JS_LEVELS = _levels("||", "&&", "=== !==", "< <= > >=", "+ -", "* / %")
C_LEVELS = _levels("||", "&&", "== !=", "< <= > >=", "+ -", "* / %")

#: language -> (parse, wrap an expression into a program, operator levels)
LANGUAGES = {
    "while": (parse_while, "proc main() {{ x := {}; }}", WHILE_LEVELS),
    "minijs": (parse_js, "function main() {{ return {}; }}", JS_LEVELS),
    "minic": (parse_c, "int main() {{ return {}; }}", C_LEVELS),
    "rust": (parse_rust, "fn main() -> i64 {{ return {}; }}", C_LEVELS),
}


def _parse(language, expr):
    parse, wrap, _ = LANGUAGES[language]
    return parse(wrap.format(expr))


def _pairs():
    for language, (_, _, levels) in LANGUAGES.items():
        for op1, op2 in itertools.product(levels, repeat=2):
            yield pytest.param(language, op1, op2, id=f"{language}: a {op1} b {op2} c")


@pytest.mark.parametrize("language,op1,op2", _pairs())
def test_operator_pair_groups_by_level(language, op1, op2):
    levels = LANGUAGES[language][2]
    left = f"(a {op1} b) {op2} c"
    right = f"a {op1} (b {op2} c)"
    expected, other = (left, right) if levels[op1] >= levels[op2] else (right, left)
    parsed = _parse(language, f"a {op1} b {op2} c")
    assert parsed == _parse(language, expected)
    assert parsed != _parse(language, other)


@pytest.mark.parametrize(
    "language,source,grouped",
    [
        ("while", "-a * b", "(-a) * b"),
        ("while", "not a and b", "(not a) and b"),
        ("while", "- a - b", "(- a) - b"),
        ("minijs", "-a * b", "(-a) * b"),
        ("minijs", "!a || b", "(!a) || b"),
        ("minijs", "typeof a === b", "(typeof a) === b"),
        ("minijs", "a || b ? c : d", "(a || b) ? c : d"),
        ("minijs", "a ? b : c || d", "a ? b : (c || d)"),
        ("minijs", "a ? b : c ? d : e", "a ? b : (c ? d : e)"),
        ("minijs", "a.p * b[0] + f(c)", "((a.p) * (b[0])) + (f(c))"),
        ("minic", "-a * b", "(-a) * b"),
        ("minic", "*p * q", "(*p) * q"),
        ("minic", "(int) a + b", "((int) a) + b"),
        ("minic", "&a == p", "(&a) == p"),
        ("rust", "-a * b", "(-a) * b"),
        ("rust", "*r + 1", "(*r) + 1"),
        ("rust", "&mut a == b", "(&mut a) == b"),
        ("rust", "!a && b", "(!a) && b"),
    ],
)
def test_prefix_and_conditional_grouping(language, source, grouped):
    assert _parse(language, source) == _parse(language, grouped)


PARSERS = {
    "while": parse_while,
    "minijs": parse_js,
    "minic": parse_c,
    "rust": parse_rust,
    "gil": parse_prog,
}


@pytest.mark.parametrize(
    "language,source,message,line,col",
    [
        ("while", "proc main() { x := a * ; }", "unexpected token ';'", 1, 24),
        ("while", "proc main() { x := a or ; }", "unexpected token ';'", 1, 25),
        ("while", "proc main() { x := a >= ; }", "unexpected token ';'", 1, 25),
        ("while", "proc main() {\n  x := a + (b ;\n}", "expected ')', found ';' (punct)", 2, 15),
        ("while", "proc main() { x := [a, ]; }", "unexpected token ']'", 1, 24),
        ("while", "proc main() { x := [a b]; }", "expected ']', found 'b' (ident)", 1, 23),
        ("while", "proc f(a, ) { }", "expected ident, found ')'", 1, 11),
        ("while", "proc main() { x := f(a,, b); }", "unexpected token ','", 1, 24),
        ("while", "proc main() { x := {p: 1, }; }", "expected a property name", 1, 27),
        ("while", 'proc main() { x := a "and" b; }', "expected ';', found 'and' (string)", 1, 22),
        ("while", "proc main() {\n  skip;", "unexpected token ''", 2, 8),
        ("minijs", "function main() { return a * ; }", "unexpected token ';'", 1, 30),
        ("minijs", "function main() { return a || ; }", "unexpected token ';'", 1, 31),
        ("minijs", "function main() { return a === ; }", "unexpected token ';'", 1, 32),
        ("minijs", "function main() { return a ? b ; }", "expected ':', found ';' (punct)", 1, 32),
        ("minijs", "function main() { return f(a, ; }", "unexpected token ';'", 1, 31),
        ("minijs", "function main() {\n  return [1, 2,];\n}", "unexpected token ']'", 2, 16),
        ("minijs", "function main() { var o = {a: 1 b: 2}; }", "expected '}', found 'b' (ident)", 1, 33),
        ("minijs", "function f(a b) { }", "expected ')', found 'b' (ident)", 1, 14),
        ("minijs", 'function main() { return a "+" b; }', "expected ';', found '+' (string)", 1, 28),
        ("minijs", "function main() { if (a) { return 1; ", "unexpected token ''", 1, 38),
        ("minic", "int main() { return a * ; }", "unexpected token ';'", 1, 25),
        ("minic", "int main() { return a && ; }", "unexpected token ';'", 1, 26),
        ("minic", "int main() { return a >= ; }", "unexpected token ';'", 1, 26),
        ("minic", "int main() { return f(a b); }", "expected ')', found 'b' (ident)", 1, 25),
        ("minic", "int f(int a, ) { return a; }", "expected a type, found ')'", 1, 14),
        ("minic", "int f(void, int a) { return 0; }", "expected ident, found ','", 1, 11),
        ("minic", "struct S { int a; ", "expected a type, found ''", 1, 19),
        ("minic", 'int main() { return a "==" b; }', "expected ';', found '==' (string)", 1, 23),
        ("minic", "int main() {\n  while (a) { a = a - 1; ", "unexpected token ''", 2, 26),
        ("rust", "fn main() -> i64 { return a * ; }", "unexpected token ';'", 1, 31),
        ("rust", "fn main() -> i64 { return a <= ; }", "unexpected token ';'", 1, 32),
        ("rust", "fn main() -> i64 { return a || ; }", "unexpected token ';'", 1, 32),
        ("rust", "fn main() -> i64 { let v = [1, 2; return 0; }", "expected ']', found ';' (punct)", 1, 33),
        ("rust", "fn main() -> i64 {\n  let v = [];\n  return 0;\n}", "empty array literal", 2, 11),
        ("rust", "fn f(a: i64,) -> i64 { return a; }", "expected ident, found ')'", 1, 13),
        ("rust", "fn main() -> i64 { return f(a,); }", "unexpected token ')'", 1, 31),
        ("rust", "fn main() -> i64 { if a { return 1; } else { return 2; ", "unexpected token ''", 1, 56),
        ("gil", "proc f(a,) {\n}", "expected ident, found ')'", 1, 10),
        ("gil", "proc main() {\n  0: x := call f(1, )\n}", "expected ident, found ')'", 2, 21),
        ("gil", "proc main() {\n  0: x := call f(1 2)\n}", "expected ')', found '2' (number)", 2, 20),
        ("gil", "proc main() {\n  0: x := [1 2]\n}", "expected ']', found '2' (number)", 2, 14),
        ("gil", "proc main() {\n  0: x := {{1, }}\n}", "expected a value, found '}}'", 2, 16),
        ("gil", "proc main() {\n  0: x := (1 foo 2)\n}", "unknown operator 'foo'", 2, 14),
        ("gil", "proc main() {\n  1: x := 1\n}", "command index 1 out of order", 2, 3),
    ],
)
def test_parse_errors_keep_message_and_position(language, source, message, line, col):
    with pytest.raises(ParseError) as info:
        PARSERS[language](source)
    assert str(info.value) == f"{message} at line {line}, column {col}"
    assert (info.value.token.line, info.value.token.col) == (line, col)
