"""A shared tokenizer for the target-language front ends.

The four TL parsers (While, MiniJS, MiniC, MiniRust) and the GIL text
parser consume the same token stream.  The lexical grammar, tried in
this order at each position (the first rule that matches wins):

* skipped: the whitespace characters space, tab, ``\\r`` and ``\\n``;
  ``//`` to end of line; ``/* ... */``, which does not nest.
* ``ident``: a letter (``str.isalpha``) or ``_``, then letters, digits
  (``str.isalnum``) and ``_``.
* ``number``: a decimal digit, or ``.`` then a decimal digit, then
  digits and dots, then optionally ``e``/``E``, a sign and digits; the
  literal must read as an int or a float (``1.``, ``.5``, ``1e5``,
  ``007`` do; ``1.2.3``, ``1..2`` and ``1e`` do not).
* ``string`` (``char`` for single quotes when ``char_literals`` is set):
  text between matching ``"`` or ``'``, where ``\\n``, ``\\t``, ``\\r``
  and ``\\0`` stand for their control characters and ``\\`` before any
  other character stands for that character.
* ``punct``: the longest operator of the set that matches.

``LexError`` is raised, at the offending position, for an unterminated
block comment or string literal (at its start), a malformed number
literal (at its start), and any other character: one no rule accepts, a
non-decimal digit such as ``²`` or a number sign such as ``½``.

Parsers walk the tokens with a :class:`TokenStream`, whose three grammar
helpers each call their ``parse`` or ``operand`` argument with the
stream:

* ``binary(levels, operand)`` parses left-associative binary operators
  by precedence climbing.  ``levels`` is the language's table, mapping
  an operator's text to ``(level, kind, build)``: a token is that
  operator only if its kind is ``kind`` too (While's ``and`` is an
  ``ident``; a ``string`` token ``"+"`` is no operator), a higher level
  binds tighter, and ``build(left, right)`` makes the node.  After each
  operand, an operator whose level is at least the floor (0 at the
  start) is consumed and its right operand climbed with the floor one
  above its level; any other token ends the climb.  So ``a - b - c`` is
  ``(a - b) - c`` and ``a + b * c`` is ``a + (b * c)``.  Prefix
  operators belong to ``operand`` and bind tighter than any binary one.
* ``items(parse, close)`` parses ``parse (',' parse)*``, or nothing when
  the next token is ``close``, then consumes ``close``; it returns a
  tuple.
* ``block(parse)`` parses ``'{' parse* '}'`` into a tuple.
"""

from __future__ import annotations

import re
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Pattern, Sequence, Tuple,
)


class Token(NamedTuple):
    """One lexed token with its source position."""

    kind: str       # "ident" | "number" | "string" | "char" | "punct" | "eof"
    text: str
    line: int
    col: int

    @property
    def number_value(self):
        if "." in self.text or "e" in self.text or "E" in self.text:
            return float(self.text)
        return int(self.text)


class LexError(Exception):
    """Raised on an unlexable character sequence."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


_DEFAULT_PUNCT = (
    "<<=", ">>=", "===", "!==",
    "==", "!=", "<=", ">=", "&&", "||", ":=", "++", "--", "->", "+=", "-=",
    "*=", "/=", "%=", "<<", ">>",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "?",
)

# One alternative per rule of the grammar, in its order, then ``other``
# for any character no rule takes.  The lookahead after its mantissa keeps
# ``number`` from settling for a prefix of a run of digits and dots, so a
# number it refuses is taken whole by ``bad_number``.  ``[^\W\d]`` also
# admits number signs such as ``½`` and ``²``, so ``ident`` is ASCII and
# ``other_ident`` checks its first character.
_RULES = r"""(?s)
 (?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/) | (?P<open_comment>/\*)
|(?P<ident>[A-Za-z_]\w*) | (?P<other_ident>[^\W\d\x00-\x7f]\w*)
|(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?![\d.])(?:[eE][+-]?\d+|(?![eE])))
|(?P<bad_number>\.?\d[\d.]*(?:[eE][+-]?\d*)?)
|(?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*') | (?P<open_string>["'])
|(?P<punct>{ops}) | (?P<other>.)"""

_PATTERNS: Dict[Tuple[str, ...], Pattern[str]] = {}

_ESCAPE = re.compile(r"\\(.)", re.S)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0"}
_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "bad_number": "malformed number {!r}",
}


def _pattern(ops: Tuple[str, ...]) -> Pattern[str]:
    pattern = _PATTERNS.get(ops)
    if pattern is None:
        alternatives = "|".join(map(re.escape, sorted(ops, key=len, reverse=True)))
        pattern = re.compile(_RULES.replace("{ops}", alternatives), re.X)
        _PATTERNS[ops] = pattern
    return pattern


def tokenize(
    source: str,
    punct: Optional[Sequence[str]] = None,
    char_literals: bool = False,
) -> List[Token]:
    """Tokenize ``source``; the result always ends with an ``eof`` token.

    With ``char_literals=True`` (MiniC), single-quoted literals produce
    tokens of kind ``"char"`` instead of ``"string"``.
    """
    match = _pattern(_DEFAULT_PUNCT if punct is None else tuple(punct)).match
    tokens: List[Token] = []
    append, new = tokens.append, tuple.__new__  # skips Token's Python __new__
    pos, n, line, line_start = 0, len(source), 1, 0
    while pos < n:
        m = match(source, pos)
        kind = m.lastgroup
        if kind == "punct" or kind == "ident" or kind == "number":
            append(new(Token, (kind, m.group(), line, pos - line_start + 1)))
        elif kind == "string":
            text = m.group()
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body)
            char = char_literals and text[0] == "'"
            append(new(Token, ("char" if char else kind, body, line, pos - line_start + 1)))
        elif kind == "other_ident" and m.group()[0].isalpha():
            append(new(Token, ("ident", m.group(), line, pos - line_start + 1)))
        elif kind != "skip":
            culprit = m.group() if kind == "bad_number" else source[pos]
            message = _ERRORS.get(kind, "unexpected character {!r}").format(culprit)
            raise LexError(message, line, pos - line_start + 1)
        end = m.end()
        if kind == "skip" or kind == "string":
            last = source.rfind("\n", pos, end)
            if last >= 0:
                line += source.count("\n", pos, last + 1)
                line_start = last + 1
        pos = end
    tokens.append(Token("eof", "", line, n - line_start + 1))
    return tokens


class TokenStream:
    """A cursor over a token list with the usual parser conveniences."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def at(self, text: str, kind: str = "punct") -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str, kind: str = "punct") -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.text != text or tok.kind != kind:
            return None
        if kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str, kind: str = "punct") -> Token:
        tok = self.current
        if tok.kind != kind or tok.text != text:
            raise ParseError(
                f"expected {text!r}, found {tok.text!r} ({tok.kind})", tok
            )
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        tok = self.current
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok)
        return self.advance()

    def binary(
        self,
        levels: Mapping[str, Tuple[int, str, Callable[[Any, Any], Any]]],
        operand: Callable[["TokenStream"], Any],
        floor: int = 0,
    ) -> Any:
        """Operands joined by the operators of ``levels`` at or above
        ``floor``, by precedence climbing (see the module docstring)."""
        left = operand(self)
        while True:
            tok = self.tokens[self.pos]
            entry = levels.get(tok.text)
            if entry is None or entry[0] < floor or entry[1] != tok.kind:
                return left
            self.pos += 1
            left = entry[2](left, self.binary(levels, operand, entry[0] + 1))

    def items(self, parse: Callable[["TokenStream"], Any], close: str) -> Tuple[Any, ...]:
        """A comma-separated, possibly empty list ended by ``close``."""
        parsed = []
        if not self.at(close):
            parsed.append(parse(self))
            while self.accept(","):
                parsed.append(parse(self))
        self.expect(close)
        return tuple(parsed)

    def block(self, parse: Callable[["TokenStream"], Any]) -> Tuple[Any, ...]:
        """A braced sequence: ``'{' parse* '}'``."""
        self.expect("{")
        parsed = []
        while not self.at("}"):
            parsed.append(parse(self))
        self.expect("}")
        return tuple(parsed)


class ParseError(Exception):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{message} at line {token.line}, column {token.col}")
        self.token = token
