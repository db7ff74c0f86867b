"""Tiny shared lexer for the SQL, handler-DSL, schema, and constraint grammars."""

from __future__ import annotations

import re
import string
from functools import partial
from typing import NamedTuple


class SourceError(Exception):
    """Syntax or static error carrying a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int


# One match per token: the whitespace and comments before it, then the
# token, a lone character no token starts with, or the end of the text.
_TOKEN_RE = re.compile(
    r"""
    ((?:\s+|\#[^\n]*|--[^\n]*)*)
    ( '(?:[^'\\]|\\.)*' | "(?:[^"\\]|\\.)*"
    | \d+
    | [A-Za-z_][A-Za-z0-9_]*
    | <>|<=|>=|!=|->|[(){}*,.;:=<>?!+/-]
    | (.)
    | \Z )
    """,
    re.VERBOSE,
)
# A token's kind follows from its first character; `\d` also matches
# non-ASCII digits, so any other first character starts an int.
_KINDS = {**dict.fromkeys("'\"", "string"), **dict.fromkeys(string.ascii_letters + "_", "ident"),
          **dict.fromkeys("(){}*,.;:=<>?!+/-", "punct")}
_token = partial(tuple.__new__, Token)  # skips NamedTuple's Python-level __new__


def tokenize(text: str) -> list[Token]:
    """Split `text` into tokens, tracking 1-based line/column positions."""
    tokens: list[Token] = []
    append = tokens.append
    pos = 0  # where the last token ended
    line = 1
    line_start = 0
    for skipped, tok, bad in _TOKEN_RE.findall(text):
        start = pos + len(skipped)
        if "\n" in skipped:
            line += skipped.count("\n")
            line_start = pos + skipped.rindex("\n") + 1
        if bad:
            raise SourceError(f"unexpected character {bad!r}", line, start - line_start + 1)
        if not tok:
            break
        append(_token((_KINDS.get(tok[0], "int"), tok, line, start - line_start + 1)))
        pos = start + len(tok)
        if "\n" in tok:  # a quoted string may span lines
            line += tok.count("\n")
            line_start = start + tok.rindex("\n") + 1
    append(_token(("eof", "", line, len(text) - line_start + 1)))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.words = [tok.text.upper() if tok.kind == "ident" else "" for tok in tokens]  # for keyword tests
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:  # `next()` never moves past the final "eof" token
            return self.tokens[self.i]
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        return self.words[self.i] in words

    def accept_keyword(self, *words: str) -> Token | None:
        if self.words[self.i] in words:
            return self.next()
        return None

    def expect_keyword(self, word: str) -> Token:
        tok = self.accept_keyword(word)
        if tok is None:
            got = self.peek()
            raise SourceError(f"expected {word}, got {got.text!r}", got.line, got.col)
        return tok

    def accept_punct(self, text: str) -> Token | None:
        tok = self.tokens[self.i]
        if tok.text == text and tok.kind == "punct":
            self.i += 1
            return tok
        return None

    def expect_punct(self, text: str) -> Token:
        tok = self.accept_punct(text)
        if tok is None:
            got = self.peek()
            raise SourceError(f"expected {text!r}, got {got.text!r}", got.line, got.col)
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise SourceError(f"expected {what}, got {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect_int(self) -> Token:
        tok = self.peek()
        if tok.kind != "int":
            raise SourceError(f"expected integer, got {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise SourceError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)


def unquote(text: str) -> str:
    """Strip quotes from a lexed string token and undo backslash escapes."""
    body = text[1:-1]
    return re.sub(r"\\(.)", r"\1", body)
