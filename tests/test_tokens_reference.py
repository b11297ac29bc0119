"""tokenize against a character-loop reference lexer kept here.

The reference steps through the text one character at a time, the way the
lexer did before it became a single regex scan, with one fix: every newline
inside a string or char literal counts, escaped or not. Both must give the
same (identifier mark, text, line) list and the same bracket partners, the
reference's found by level counting, or the same ParseError line and
message, on the fixtures, on seeded random strings and on token-mutated
fixtures. On the same texts, ``Tokens.line`` must give every token the line
one plus the newlines before it, asked for in any order.
"""

import random
from pathlib import Path

import pytest

from test_brackets import reference_partners

from classaudit.errors import ParseError
from classaudit.javamodel.tokens import tokenize

FIXTURES = sorted(Path(__file__).parent.joinpath("fixtures").rglob("*.java"))
TWO_CHAR_OPS = frozenset(
    ["&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
     "%=", "&=", "|=", "^=", "->", "::", "++", "--"]
)
RANDOM_PIECES = (list("ab1_$ .\n\t\r\x0b\x0c\x1c\x1f\"'\\/*{}()<>=&|+-;:é9")
                 + ["/*", "*/", '"""', "//"])
MUTATION_INSERTS = ["{", "}", "(", ")", ";", '"', "'", "/*", "*/", '"""', "//", "\\"]
IDENT, NUMBER, STRING, CHAR, OP = "ident", "number", "string", "char", "op"


def unterminated(file_id, line, message, offset):
    """The reference's ParseError, which also tells where the token starts."""
    exc = ParseError(file_id, line, message)
    exc.offset = offset
    return exc


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
                    raise unterminated(file_id, line, "unterminated block comment", i)
                line += text.count("\n", i, j)
                i = j + 2
                continue
        if ch == '"':
            if text.startswith('"""', i):
                j = text.find('"""', i + 3)
                if j < 0:
                    raise unterminated(file_id, line, "unterminated text block", i)
                start_line = line
                line += text.count("\n", i, j)
                tokens.append((STRING, text[i:j + 3], start_line, i))
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
                    raise unterminated(file_id, line, "unterminated string literal", i)
                j += 1
            if j >= n:
                raise unterminated(file_id, line, "unterminated string literal", i)
            tokens.append((STRING, text[i:j + 1], line, i))
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
                    raise unterminated(file_id, line, "unterminated char literal", i)
                j += 1
            if j >= n:
                raise unterminated(file_id, line, "unterminated char literal", i)
            tokens.append((CHAR, text[i:j + 1], line, i))
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
            tokens.append((NUMBER, text[i:j], line, i))
            i = j
            continue
        if ch.isalpha() or ch in "_$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            tokens.append((IDENT, text[i:j], line, i))
            i = j
            continue
        if text.startswith("...", i):
            tokens.append((OP, "...", line, i))
            i += 3
            continue
        two = text[i:i + 2]
        if two in TWO_CHAR_OPS:
            tokens.append((OP, two, line, i))
            i += 2
            continue
        tokens.append((OP, ch, line, i))
        i += 1
    return tokens


def stream(text, file_id):
    """tokenize's (identifier mark, text, line) list and partners."""
    toks = tokenize(text, file_id)
    n = len(toks)
    assert (toks.texts[n], toks.idents[n]) == ("", None)
    return [(toks.idents[i], toks.texts[i], toks.line(i)) for i in range(n)], toks.match[:n]


def reference_stream(text, file_id):
    tokens = reference_tokenize(text, file_id)
    triples = [(t[0] if kind == IDENT else None, t, line) for kind, t, line, _ in tokens]
    return triples, reference_partners([t for _, t, _ in triples])


def outcome(lex, text):
    try:
        return lex(text, "F.java")
    except ParseError as exc:
        return ("ParseError", exc.line, exc.message)


def assert_same(text):
    assert outcome(stream, text) == outcome(reference_stream, text), repr(text)
    assert_lines_in_any_order(text)


def assert_lines_in_any_order(text):
    """``Tokens.line`` of every token and the sentinel, asked for forward,
    backward and in a seeded order on one stream, is one plus the newlines
    before the token; a ParseError's line, before the unterminated one.
    Returns the ParseError's line, or None."""
    try:
        offsets = [at for *_, at in reference_tokenize(text)] + [len(text)]
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert err.value.line == 1 + text.count("\n", 0, exc.offset), repr(text)
        return err.value.line
    toks = tokenize(text)
    want = [1 + text.count("\n", 0, at) for at in offsets]
    order = list(range(len(want)))
    random.Random(len(text)).shuffle(order)
    assert [toks.line(i) for i in range(len(want))] == want, repr(text)
    assert [toks.line(i) for i in reversed(range(len(want)))] == want[::-1], repr(text)
    assert [toks.line(i) for i in order] == [want[i] for i in order], repr(text)
    return None


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
        toks = tokenize(EDGE_CASES[name])
        assert toks.line(len(toks) - 1) > toks.line(0) + 1, name
    assert tokenize(EDGE_CASES["two final newlines"]).texts == ["a", "b", ""]


@pytest.mark.parametrize("text, error_line", [
    ('a\n"""\n x\n"""\nb "c\\\nd" e\n\nf', None),
    ("a\n'\\\n' b\n/* c\n d */ e", None),
    ('a\n"""\nx\n"""\nb\n"open', 6),
    ("a\nb /* never\n closed", 2),
], ids=["text_block_and_escaped_newline", "escaped_newline_in_a_char_and_a_comment",
        "unterminated_string_after_a_text_block", "unterminated_comment"])
def test_lines_on_demand_are_one_plus_the_newlines_before(text, error_line):
    assert assert_lines_in_any_order(text) == error_line


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
        texts = [text for _, text, _, _ in reference_tokenize(path.read_text(encoding="utf-8"))]
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
