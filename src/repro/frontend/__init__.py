"""Shared front-end utilities: lexer, grammar helpers and label-resolving GIL emitter."""

from repro.frontend.emitter import CompileError, Emitter, Label
from repro.frontend.lexer import LexError, ParseError, Token, TokenStream, tokenize

__all__ = [
    "CompileError", "Emitter", "Label", "LexError", "ParseError", "Token", "TokenStream",
    "tokenize",
]
