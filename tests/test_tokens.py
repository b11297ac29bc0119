import random
from pathlib import Path

import pytest

from classaudit.errors import ParseError
from classaudit.javamodel import tokens
from classaudit.javamodel.tokens import tokenize

FIXTURES = sorted(Path(__file__).parent.joinpath("fixtures").rglob("*.java"))
# Operators, brackets, identifier and number characters, the three quote
# kinds, a backslash, the comment marks, and every ASCII whitespace and control
# character.
ASCII_PIECES = (list("=+-*/%&|^!<>:.;,(){}[]ab1_$ \"'\\") + ["//", "/*", "*/", '"""']
                + [chr(c) for c in (*range(0x20), 0x7f)])


def triples(code):
    """(identifier mark, text, line) of each token."""
    toks = tokenize(code)
    return [(toks.idents[i], toks.texts[i], toks.line(i)) for i in range(len(toks))]


def texts(code):
    return [text for _, text, _ in triples(code)]


def test_stream_is_parallel_lists_ending_in_one_sentinel():
    toks = tokenize("f(x)\n;")
    assert len(toks) == 5
    assert toks.texts == ["f", "(", "x", ")", ";", ""]
    assert toks.idents == ["f", None, "x", None, None, None]
    assert toks.skipped == ["", "", "", "", "\n", ""]
    assert [toks.line(i) for i in range(6)] == [1, 1, 1, 1, 2, 2]
    assert toks.match == [-1, 3, -1, 1, -1, -1]


def test_identifiers_are_marked_by_their_first_character():
    toks = tokenize("if ($x1 == _y) return é.b2 + 1a;")
    marked = [(mark, text) for mark, text in zip(toks.idents, toks.texts) if mark]
    assert marked == [("i", "if"), ("$", "$x1"), ("_", "_y"), ("r", "return"),
                      ("é", "é"), ("b", "b2")]


def test_comments_and_whitespace_are_dropped():
    code = "int x; // trailing\n/* block\n comment */ int y;"
    assert texts(code) == ["int", "x", ";", "int", "y", ";"]


def test_string_literals_are_single_tokens():
    toks = triples('String s = "a { b // } c";')
    assert (None, '"a { b // } c"', 1) in toks
    assert sum(1 for _, text, _ in toks if text == "{") == 0


def test_escaped_quote_inside_string():
    assert texts(r's = "a\"b";') == ["s", "=", r'"a\"b"', ";"]


def test_char_literals():
    toks = triples(r"char c = '\''; char d = 'x';")
    chars = [(mark, text) for mark, text, _ in toks if text.startswith("'")]
    assert chars == [(None, r"'\''"), (None, "'x'")]


def test_text_block_spans_lines():
    code = 'String s = """\nline1\nline2\n""";\nint z;'
    z = [line for _, text, line in triples(code) if text == "z"][0]
    assert z == 5


def test_line_numbers():
    toks = triples("a\nb\n\nc")
    assert [(text, line) for _, text, line in toks] == [("a", 1), ("b", 2), ("c", 4)]


def test_closing_angles_never_fuse():
    assert texts("List<List<String>> x;") == [
        "List", "<", "List", "<", "String", ">", ">", "x", ";"
    ]


def test_short_circuit_ops_are_single_tokens():
    assert texts("a && b || c & d | e") == ["a", "&&", "b", "||", "c", "&", "d", "|", "e"]


def test_arrow_coloncolon_varargs():
    assert texts("x -> Foo::bar(String... a)") == [
        "x", "->", "Foo", "::", "bar", "(", "String", "...", "a", ")"
    ]


@pytest.mark.parametrize(
    "bad",
    ['"unterminated', "'x", "/* never closed", '"""\nstill open'],
)
def test_unterminated_lexemes_raise(bad):
    with pytest.raises(ParseError):
        tokenize(bad, "Bad.java")


def test_numbers_with_suffixes_and_separators():
    assert texts("1_000 0x1F 2.5f 1e9") == ["1_000", "0x1F", "2.5f", "1e9"]


def test_escaped_newline_in_string_counts_as_a_line():
    toks = triples('"a\\\nb" x')
    assert [(text, line) for _, text, line in toks] == [('"a\\\nb"', 1), ("x", 2)]
    with pytest.raises(ParseError) as err:
        tokenize('"a\\\nb"\nint y;\n"open', "Bad.java")
    assert (err.value.line, err.value.message) == (4, "unterminated string literal")


@pytest.mark.parametrize("text, line, message", [
    ('"\\' * 200_000, 1, "unterminated string literal"),
    ("/* " * 200_000, 1, "unterminated block comment"),
    ("int x;\n" * 100_000 + '"', 100_001, "unterminated string literal"),
], ids=["escapes", "comment_openers", "quote_at_end"])
def test_long_unterminated_inputs_raise_at_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        tokenize(text, "Bad.java")
    assert (err.value.line, err.value.message) == (line, message)


@pytest.mark.parametrize("text", [
    "x /* a */ // b // c",
    "x // a /* b */ // c\t",
    "x" + " \t" * 200_000,
], ids=["comments", "nested_openers", "blanks"])
def test_skipped_text_at_the_end_yields_no_tokens(text):
    assert texts(text) == ["x"]


@pytest.mark.parametrize("text, last", [
    ('x = "a"', '"a"'),
    ("x = 'a'", "'a'"),
    ('x = """\na\n"""', '"""\na\n"""'),
    ("x /* a\n */", "x"),
], ids=["string", "char", "text_block", "block_comment"])
def test_closed_literal_or_comment_at_the_end_is_not_unterminated(text, last):
    assert texts(text)[-1] == last


@pytest.mark.parametrize("text, expected", [
    # '½' is neither a letter nor a decimal digit, yet continues a lexeme.
    ("½x", [(None, "½x", 1)]),
    # '²' is a digit but not a decimal one, so '.' does not join it.
    ("1.²", [(None, "1", 1), (None, ".", 1), (None, "²", 1)]),
])
def test_non_decimal_numeric_characters_split_as_pinned(text, expected):
    assert triples(text) == expected


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_ascii_pattern_splits_fixtures_as_the_unicode_one(path):
    text = path.read_text(encoding="utf-8")
    assert text.isascii()
    assert tokens._LEXEME.split(text) == tokens._unicode_lexeme().split(text)


@pytest.mark.parametrize("seed", range(10))
def test_ascii_pattern_splits_random_strings_as_the_unicode_one(seed):
    rng = random.Random(seed)
    unicode_lexeme = tokens._unicode_lexeme()
    for _ in range(1000):
        text = "".join(rng.choices(ASCII_PIECES, k=rng.randint(0, 40)))
        assert tokens._LEXEME.split(text) == unicode_lexeme.split(text), repr(text)


@pytest.mark.parametrize("text, unicode", [
    ("½x", True), ("int é;", True), ("1.²", True), ("int x;", False),
])
def test_only_text_that_is_not_ascii_takes_the_unicode_pattern(monkeypatch, text, unicode):
    calls = []
    unicode_lexeme = tokens._unicode_lexeme
    monkeypatch.setattr(tokens, "_unicode_lexeme", lambda: calls.append(text) or unicode_lexeme())
    tokenize(text)
    assert calls == ([text] if unicode else [])
