"""Tiny shared lexer for the SQL, handler-DSL, schema, and constraint grammars."""

from __future__ import annotations

import re
from dataclasses import dataclass


class SourceError(Exception):
    """Syntax or static error carrying a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*|--[^\n]*)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct><>|<=|>=|!=|->|[(){}*,.;:=<>?!+/-])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Split `text` into tokens, tracking 1-based line/column positions."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SourceError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        tok_text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, tok_text, line, pos - line_start + 1))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + tok_text.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, n - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
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
        tok = self.tokens[self.i]
        return tok.kind == "ident" and tok.text.upper() in words

    def accept_keyword(self, *words: str) -> Token | None:
        if self.at_keyword(*words):
            return self.next()
        return None

    def expect_keyword(self, word: str) -> Token:
        tok = self.accept_keyword(word)
        if tok is None:
            got = self.peek()
            raise SourceError(f"expected {word}, got {got.text!r}", got.line, got.col)
        return tok

    def accept_punct(self, text: str) -> Token | None:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            return self.next()
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
