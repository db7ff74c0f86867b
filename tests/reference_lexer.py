"""Reference tokenizer for the differential lexer test.

This is the straightforward lexer `lexutil.tokenize` replaced: anchor the
token pattern at the current position, skip whitespace and comment
matches one by one, and count newlines in every matched text.  It is
slow and obviously right, so the one-pass lexer must agree with it token
for token and error for error.
"""

from __future__ import annotations

import re

from polex.lexutil import SourceError

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


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Split `text` into `(kind, text, line, col)` tuples, ending with "eof"."""
    tokens = []
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
            tokens.append((kind, tok_text, line, pos - line_start + 1))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + tok_text.rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, n - line_start + 1))
    return tokens
