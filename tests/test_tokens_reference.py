"""tokenize against a character-loop reference lexer kept here.

The reference steps through the text one character at a time, the way the
lexer did before it became a single regex scan, with one fix: every newline
inside a string or char literal counts, escaped or not. Both must give the
same (kind, text, line) list, or the same ParseError line and message, on
the fixtures, on seeded random strings and on token-mutated fixtures.
"""

import random
from pathlib import Path

import pytest

from classaudit.errors import ParseError
from classaudit.javamodel.tokens import (
    CHAR, IDENT, NUMBER, OP, STRING, tokenize,
)

FIXTURES = sorted(Path(__file__).parent.joinpath("fixtures").rglob("*.java"))
TWO_CHAR_OPS = frozenset(
    ["&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
     "%=", "&=", "|=", "^=", "->", "::", "++", "--"]
)
RANDOM_PIECES = list("ab1_$ .\n\t\r\x0c\"'\\/*{}()<>=&|+-;:é9") + ["/*", "*/", '"""', "//"]
MUTATION_INSERTS = ["{", "}", "(", ")", ";", '"', "'", "/*", "*/", '"""', "//", "\\"]


def reference_tokenize(text, file_id="<memory>"):
    tokens = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    raise ParseError(file_id, line, "unterminated block comment")
                line += text.count("\n", i, j)
                i = j + 2
                continue
        if ch == '"':
            if text.startswith('"""', i):
                j = text.find('"""', i + 3)
                if j < 0:
                    raise ParseError(file_id, line, "unterminated text block")
                start_line = line
                line += text.count("\n", i, j)
                tokens.append((STRING, text[i:j + 3], start_line))
                i = j + 3
                continue
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    raise ParseError(file_id, line, "unterminated string literal")
                j += 1
            if j >= n:
                raise ParseError(file_id, line, "unterminated string literal")
            tokens.append((STRING, text[i:j + 1], line))
            line += text.count("\n", i, j)  # the line fix: escaped newlines count
            i = j + 1
            continue
        if ch == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "'":
                    break
                if text[j] == "\n":
                    raise ParseError(file_id, line, "unterminated char literal")
                j += 1
            if j >= n:
                raise ParseError(file_id, line, "unterminated char literal")
            tokens.append((CHAR, text[i:j + 1], line))
            line += text.count("\n", i, j)  # the line fix
            i = j + 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n:
                c = text[j]
                if c.isalnum() or c == "_":
                    j += 1
                elif c == "." and j + 1 < n and text[j + 1].isdigit():
                    j += 1
                else:
                    break
            tokens.append((NUMBER, text[i:j], line))
            i = j
            continue
        if ch.isalpha() or ch in "_$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            tokens.append((IDENT, text[i:j], line))
            i = j
            continue
        if text.startswith("...", i):
            tokens.append((OP, "...", line))
            i += 3
            continue
        two = text[i:i + 2]
        if two in TWO_CHAR_OPS:
            tokens.append((OP, two, line))
            i += 2
            continue
        tokens.append((OP, ch, line))
        i += 1
    return tokens


def triples(text, file_id):
    toks = tokenize(text, file_id)
    return list(zip(toks.kinds, toks.texts, toks.lines))


def outcome(lex, text):
    try:
        return lex(text, "F.java")
    except ParseError as exc:
        return ("ParseError", exc.line, exc.message)


def assert_same(text):
    assert outcome(triples, text) == outcome(reference_tokenize, text), repr(text)


EDGE_CASES = {
    "text block then later lines": 'a\n"""\n x\n y\n""" b\nc\n\nd',
    "backslash-newline string then tokens": '"ab\\\ncd" e\nf',
    "block comment spanning lines": "a /* x\n\n y */ b\n/**\n * doc\n */ c",
    "empty text": "",
    "whitespace only": " \t\n\r\n  \x0c",
    "no final newline": "a b",
    "one final newline": "a b\n",
    "two final newlines": "a b\n\n",
    "line comment on an unterminated last line": "a\nb // c",
    "unterminated block comment after a text block": 'a\n"""\nx\n"""\nb /* c\n d',
}


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_cases_equal_reference(text):
    assert_same(text)


def test_edge_cases_pin_the_recount_and_the_sentinel():
    # Lines after a token that holds a newline count it; a text ending in
    # skipped text gives two end matches, and only one sentinel stays.
    for name in ("text block then later lines", "backslash-newline string then tokens"):
        lines = tokenize(EDGE_CASES[name]).lines
        assert lines[-1] > lines[0] + 1, name
    assert tokenize(EDGE_CASES["two final newlines"]).texts == ["a", "b", ""]


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_fixture_tokens_equal_reference(path):
    text = path.read_text(encoding="utf-8")
    assert_same(text)
    assert_same(text.replace("\n", "\r\n"))


@pytest.mark.parametrize("seed", range(10))
def test_random_strings_equal_reference(seed):
    rng = random.Random(seed)
    for _ in range(500):
        assert_same("".join(rng.choices(RANDOM_PIECES, k=rng.randint(0, 40))))


@pytest.mark.parametrize("seed", range(10))
def test_token_mutated_fixtures_equal_reference(seed):
    rng = random.Random(seed)
    for path in FIXTURES:
        texts = [text for _, text, _ in reference_tokenize(path.read_text(encoding="utf-8"))]
        for _ in range(3):
            mutated = list(texts)
            for _ in range(rng.randint(1, 4)):
                k = rng.randrange(len(mutated) + 1)
                op = rng.randrange(4)
                if op == 0 and k < len(mutated):
                    del mutated[k]
                elif op == 1 and k < len(mutated):
                    mutated.insert(k, mutated[k])
                elif op == 2 and k + 1 < len(mutated):
                    mutated[k], mutated[k + 1] = mutated[k + 1], mutated[k]
                else:
                    mutated.insert(k, rng.choice(MUTATION_INSERTS))
            assert_same("".join(t + rng.choice(" \n\t") for t in mutated))
