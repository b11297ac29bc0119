"""match_brackets against a naive per-kind level-counting reference, the
whole-file table restricted to a range against the range's own table, and
where the parser reports a bracket that never closes.

The scans that read extents from the table, ``Tokens.split_commas`` and the
parser's initializer skip, are checked against the level counters they
replaced, on sequences whose brackets nest properly; on malformed input
they follow the policy in the ``tokens`` docstring instead."""

import random

import pytest

from classaudit.javamodel import parse_compilation_unit
from classaudit.javamodel.parser import _UnitParser
from classaudit.javamodel.tokens import IDENT, match_brackets, tokenize
from classaudit.pipeline import Diagnostics, ingest_sources

PAIRS = {"(": ")", "[": "]", "{": "}"}
ALPHABET = ["(", ")", "[", "]", "{", "}", ";", "a", "b"]


def reference_partners(texts):
    """From each opener, count its own kind forward until the level is 0."""
    partner = [-1] * len(texts)
    for i, t in enumerate(texts):
        if t not in PAIRS:
            continue
        level = 0
        for j in range(i, len(texts)):
            if texts[j] == t:
                level += 1
            elif texts[j] == PAIRS[t]:
                level -= 1
                if level == 0:
                    partner[i] = j
                    partner[j] = i
                    break
    return partner


@pytest.mark.parametrize("seed", range(200))
def test_match_brackets_equals_level_counting(seed):
    rng = random.Random(seed)
    texts = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 40))]
    full = match_brackets(texts)
    assert full == reference_partners(texts)
    # The body walker reads the file's table over a method body's range, a
    # partner outside it as -1; that must be the range's own table.
    for _ in range(20):
        lo = rng.randint(0, len(texts))
        hi = rng.randint(lo, len(texts))
        restricted = [j - lo if lo <= j < hi else -1 for j in full[lo:hi]]
        assert restricted == match_brackets(texts[lo:hi]), (texts, lo, hi)


def test_match_brackets_pairs_each_kind_on_its_own():
    texts = ["(", "{", ")", "}", "]", "["]
    assert match_brackets(texts) == [2, 3, 0, 1, -1, -1]


@pytest.mark.parametrize("source, line, reason", [
    ("class A {\n  void f(int x {\n  }\n}\n", 2, "unbalanced ()"),
    ("package p;\n\nclass A {\n  void f() {\n  }\n", 3, "unbalanced {}"),
])
def test_unpaired_opener_is_skipped_at_its_line(tmp_path, source, line, reason):
    path = tmp_path / "A.java"
    path.write_text(source)
    diag = Diagnostics()
    assert list(ingest_sources([tmp_path], diagnostics=diag)) == []
    assert diag.lines == [f"SKIP {path}:{line} {reason}"]


# ---- split_commas and the initializer skip against the old level counters -----

def reference_param_split(texts, lo, hi):
    """The parameter-list split the parser used: '(' and '[' counted in one
    level, '<' and '>' in a depth floored at 0."""
    items = []
    seg_start = lo
    level = 0
    angle = 0
    for j in range(lo, hi):
        t = texts[j]
        if t in ("(", "["):
            level += 1
        elif t in (")", "]"):
            level -= 1
        elif t == "<":
            angle += 1
        elif t == ">":
            angle = max(0, angle - 1)
        elif t == "," and level == 0 and angle == 0:
            items.append(range(seg_start, j))
            seg_start = j + 1
    items.append(range(seg_start, hi))
    return items


def reference_lambda_params(texts, kinds, lo, hi):
    """The lambda-parameter split the walker used: the last identifier of
    each segment, with the parser's levels."""
    params = []
    depth_par = 0
    depth_angle = 0
    seg_last_ident = None
    for j in range(lo, hi):
        t = texts[j]
        if t in ("(", "["):
            depth_par += 1
        elif t in (")", "]"):
            depth_par -= 1
        elif t == "<":
            depth_angle += 1
        elif t == ">":
            depth_angle = max(0, depth_angle - 1)
        elif t == "," and depth_par == 0 and depth_angle == 0:
            if seg_last_ident:
                params.append(seg_last_ident)
            seg_last_ident = None
        elif kinds[j] == IDENT:
            seg_last_ident = t
    if seg_last_ident:
        params.append(seg_last_ident)
    return params


def reference_skip_initializer(texts, i, end):
    """The initializer skip the parser used: one level over all three
    bracket kinds."""
    level = 0
    while i < end:
        t = texts[i]
        if t in ("(", "[", "{"):
            level += 1
        elif t in (")", "]", "}"):
            level -= 1
        elif level == 0 and t in (",", ";"):
            return i
        i += 1
    return i


CLOSER = {"(": ")", "[": "]", "{": "}", "<": ">"}
ATOMS = [",", ",", ";", "=", "a", "b"]


def nested(rng, openers, depth=0):
    """Tokens whose brackets nest properly, '<>' too except for strays at
    the top level. The old list splitters did not count '{', so braces are
    drawn only inside a group when ``openers`` lacks them, as in Java
    parameter lists."""
    out = []
    for _ in range(rng.randint(0, 5)):
        if depth < 4 and rng.random() < 0.35:
            opener = rng.choice(openers if depth == 0 else "([{<")
            out += [opener, *nested(rng, openers, depth + 1), CLOSER[opener]]
        else:
            out.append(rng.choice(ATOMS + ["<", ">"] if depth == 0 else ATOMS))
    return out


def tokens_of(texts):
    toks = tokenize(" ".join(texts))
    assert toks.texts[:-1] == texts
    return toks


@pytest.mark.parametrize("seed", range(200))
def test_split_commas_equals_the_old_level_counters(seed):
    rng = random.Random(seed)
    texts = nested(rng, "([<")
    toks = tokens_of(texts)
    # A cut end leaves groups whose partner lies past it.
    for hi in {len(texts), rng.randint(0, len(texts))}:
        items = toks.split_commas(0, hi)
        assert items == reference_param_split(texts, 0, hi), (texts, hi)
        last_idents = [[j for j in item if toks.kinds[j] == IDENT][-1:] for item in items]
        assert [texts[j] for found in last_idents for j in found] == \
            reference_lambda_params(texts, toks.kinds, 0, hi), (texts, hi)


@pytest.mark.parametrize("seed", range(200))
def test_initializer_skip_equals_the_old_level_counter(seed):
    rng = random.Random(seed)
    texts = nested(rng, "([{<")
    toks = tokens_of(texts)
    parser = _UnitParser(toks, " ".join(texts), "<memory>")
    for end in {len(texts), rng.randint(0, len(texts))}:
        assert parser._skip_initializer(0, end) == reference_skip_initializer(texts, 0, end), \
            (texts, end)


def test_split_commas_jumps_groups_and_angles_but_not_unpaired_brackets():
    toks = tokenize("a { b , c } , m < k , v > , ( x ] , y")
    items = [" ".join(toks.texts[j] for j in item) for item in toks.split_commas(0, len(toks))]
    # A '{}' group keeps its commas like any group; the unpaired '(' and
    # ']' are ordinary tokens.
    assert items == ["a { b , c }", "m < k , v >", "( x ]", "y"]


def test_unpaired_bracket_in_a_parameter_list_is_an_ordinary_token():
    (cls,) = parse_compilation_unit("class A { int m(int a ], int b) { return b; } }")
    assert cls.methods[0].parameter_types == ["int"]  # "int a ]" has no name


def test_unpaired_bracket_in_lambda_parameters_is_an_ordinary_token():
    source = "class A { int x, y; void m() { f((x ], y) -> x + y); } }"
    (cls,) = parse_compilation_unit(source)
    assert cls.methods[0].accessed_attributes == set()  # x and y are parameters


def test_unpaired_bracket_in_an_initializer_is_an_ordinary_token():
    (cls,) = parse_compilation_unit("class A { int a = ( 1, b; }")
    assert cls.attributes == ["a", "b"]


@pytest.mark.parametrize("member, methods", [
    ("public <K, V extends Comparable<V>> java.util.Map<K, V> index(K k, V v) { return null; }",
     [("index", ["K", "V"])]),
    ("<T> A(T t) { }", []),  # a generic constructor stays a constructor
])
def test_generic_method_and_constructor(member, methods):
    (cls,) = parse_compilation_unit("class A { " + member + " }")
    assert [(m.name, m.parameter_types) for m in cls.methods] == methods
