"""match_brackets against a naive per-kind level-counting reference, and
where the parser reports a bracket that never closes."""

import random

import pytest

from classaudit.javamodel.tokens import IDENT, OP, Token, match_brackets
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


def as_tokens(texts):
    return [Token(IDENT if t.isalpha() else OP, t, 1) for t in texts]


@pytest.mark.parametrize("seed", range(200))
def test_match_brackets_equals_level_counting(seed):
    rng = random.Random(seed)
    texts = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 40))]
    assert match_brackets(as_tokens(texts)) == reference_partners(texts)


def test_match_brackets_pairs_each_kind_on_its_own():
    texts = ["(", "{", ")", "}", "]", "["]
    assert match_brackets(as_tokens(texts)) == [2, 3, 0, 1, -1, -1]


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
