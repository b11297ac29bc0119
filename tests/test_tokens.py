import pytest

from classaudit.errors import ParseError
from classaudit.javamodel.tokens import tokenize


def triples(code):
    toks = tokenize(code)
    return list(zip(toks.kinds, toks.texts, toks.lines))


def texts(code):
    return [text for _, text, _ in triples(code)]


def test_stream_is_parallel_lists_ending_in_one_sentinel():
    toks = tokenize("f(x)\n;")
    assert len(toks) == 5
    assert toks.texts == ["f", "(", "x", ")", ";", ""]
    assert toks.kinds == ["ident", "op", "ident", "op", "op", ""]
    assert toks.lines == [1, 1, 1, 1, 2]
    assert toks.match == [-1, 3, -1, 1, -1, -1]


def test_comments_and_whitespace_are_dropped():
    code = "int x; // trailing\n/* block\n comment */ int y;"
    assert texts(code) == ["int", "x", ";", "int", "y", ";"]


def test_string_literals_are_single_tokens():
    toks = triples('String s = "a { b // } c";')
    kinds = [(kind, text) for kind, text, _ in toks]
    assert ("string", '"a { b // } c"') in kinds
    assert sum(1 for _, text, _ in toks if text == "{") == 0


def test_escaped_quote_inside_string():
    toks = triples(r's = "a\"b";')
    assert any(kind == "string" and text == r'"a\"b"' for kind, text, _ in toks)


def test_char_literals():
    toks = triples(r"char c = '\''; char d = 'x';")
    chars = [text for kind, text, _ in toks if kind == "char"]
    assert chars == [r"'\''", "'x'"]


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
    ("½x", [("op", "½x", 1)]),
    # '²' is a digit but not a decimal one, so '.' does not join it.
    ("1.²", [("number", "1", 1), ("op", ".", 1), ("number", "²", 1)]),
])
def test_non_decimal_numeric_characters_split_as_pinned(text, expected):
    assert triples(text) == expected
