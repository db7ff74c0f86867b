"""The one-pass lexer agrees with the reference lexer token for token.

Both lexers must give equal `(kind, text, line, col)` for every token and
equal `(message, line, col)` for every `SourceError`, on every corpus file,
on the `synth-front` corpora of seeds 1 to 5, and on seeded random strings
built from the characters where the two could part: quotes, backslashes,
newlines, carriage returns, comment starts, punctuation, non-ASCII digits
and whitespace, and characters no token starts with.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import reference_lexer
from polex.lexutil import SourceError, TokenStream, tokenize

ROOT = Path(__file__).resolve().parent.parent

# Pieces of the random strings: single characters and short runs that
# start comments, strings and multi-character operators.
_PIECES = (
    list("'\"\\\n\r\t #-")
    + list("(){}*,.;:=<>?!+/")
    + ["--", "<>", "<=", ">=", "!=", "->", "\\'", '\\"', "\\\n"]
    + list("aZ_x0 9")
    + ["SELECT", "let", "12"]
    + ["@", "$", "~", "`", "\x00", "é", "٣", " ", "\x0b"]
)


def _outcome(lex, text):
    try:
        return [tuple(tok) for tok in lex(text)]
    except SourceError as e:
        return ("error", e.message, e.line, e.col)


def _assert_same(text):
    assert _outcome(tokenize, text) == _outcome(reference_lexer.tokenize, text), repr(text)


def _corpus_texts():
    return [p for p in sorted((ROOT / "corpus").rglob("*")) if p.is_file()]


@pytest.mark.parametrize("path", _corpus_texts(), ids=lambda p: str(p.relative_to(ROOT / "corpus")))
def test_corpus_files_lex_alike(path):
    _assert_same(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_synth_front_corpora_lex_alike(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import synth

    schema_text, handlers, _ = synth.generate(seed)
    for text in (schema_text, *handlers.values()):
        _assert_same(text)


def test_random_strings_lex_alike():
    rng = random.Random(20261019)
    errors = 0
    for _ in range(20_000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(1, 24)))
        _assert_same(text)
        errors += isinstance(_outcome(tokenize, text), tuple)
    # Both outcomes occur often enough for the comparison to mean something.
    assert 2_000 < errors < 18_000


def test_keywords_match_in_any_case():
    ts = TokenStream(tokenize("Select 'select' from"))
    assert ts.accept_keyword("SELECT").text == "Select"
    assert not ts.at_keyword("SELECT")  # a quoted string is not a keyword
    ts.next()
    assert ts.at_keyword("WHERE", "FROM")
