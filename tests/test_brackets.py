"""match_brackets against a naive per-kind level-counting reference, the
whole-file table restricted to a range against the range's own table, and
where the parser reports a bracket that never closes."""

import random

import pytest

from classaudit.javamodel.tokens import match_brackets
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
