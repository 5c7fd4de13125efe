"""The per-character tokenizer the front ends used before the lexer
became one compiled regular expression, kept unchanged as the reference
``tests/gil/test_lexer_parity.py`` checks ``repro.frontend.lexer.tokenize``
against.

It builds the same ``Token``s and raises the same ``LexError``s; the one
intended difference is that this version accepts a malformed number
literal (``1.2.3``, ``1e``, ``3²``) as a ``number`` token, whose
``number_value`` then fails with a bare ``ValueError``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.frontend.lexer import _DEFAULT_PUNCT, LexError, Token


def tokenize(
    source: str,
    punct: Optional[Sequence[str]] = None,
    char_literals: bool = False,
) -> List[Token]:
    """Tokenize ``source``; the result always ends with an ``eof`` token.

    With ``char_literals=True`` (MiniC), single-quoted literals produce
    tokens of kind ``"char"`` instead of ``"string"``.
    """
    ops = sorted(punct if punct is not None else _DEFAULT_PUNCT, key=len, reverse=True)
    tokens: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise LexError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        if ch.isalpha() or ch == "_":
            start, start_line, start_col = i, line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            tokens.append(Token("ident", source[start:i], start_line, start_col))
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and source[i + 1].isdigit()
        ):
            start, start_line, start_col = i, line, col
            while i < n and (source[i].isdigit() or source[i] == "."):
                advance(1)
            if i < n and source[i] in "eE":
                advance(1)
                if i < n and source[i] in "+-":
                    advance(1)
                while i < n and source[i].isdigit():
                    advance(1)
            tokens.append(Token("number", source[start:i], start_line, start_col))
            continue
        if ch in "\"'":
            quote = ch
            start_line, start_col = line, col
            advance(1)
            chars: List[str] = []
            while i < n and source[i] != quote:
                if source[i] == "\\":
                    advance(1)
                    if i >= n:
                        break
                    esc = source[i]
                    chars.append(
                        {"n": "\n", "t": "\t", "r": "\r", "0": "\0"}.get(esc, esc)
                    )
                    advance(1)
                else:
                    chars.append(source[i])
                    advance(1)
            if i >= n:
                raise LexError("unterminated string literal", start_line, start_col)
            advance(1)
            kind = "char" if char_literals and quote == "'" else "string"
            tokens.append(Token(kind, "".join(chars), start_line, start_col))
            continue
        for op in ops:
            if source.startswith(op, i):
                tokens.append(Token("punct", op, line, col))
                advance(len(op))
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
