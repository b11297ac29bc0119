"""Whole-pipeline token-mutation fuzz over the fixtures.

Each fixture's tokens get a few seeded edits (delete, duplicate or swap a
token, or inject a bracket), and separately every prefix and suffix of its
tokens is taken, so that the parser's look-ahead and look-behind meet the
ends of the stream. Each result goes through `parse_compilation_unit` and
`class_metrics`. It must either parse, with every class's metrics inside
their theoretical ranges, or raise `ParseError` or `RecursionError`, which
ingest reports as SKIP lines. Any other exception is a failure. The fuzz
runs in a subprocess with a timeout, because a hang is a failure too.

Run as a script, ``python tests/test_fuzz_pipeline.py SEED`` prints the
failures of one seed's mutants as a JSON list, and
``python tests/test_fuzz_pipeline.py cuts`` those of the prefixes and
suffixes.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

FIXTURES = sorted(Path(__file__).resolve().parent.joinpath("fixtures").rglob("*.java"))
SEEDS = range(10)
MUTANTS_PER_FIXTURE = 5
BRACKETS = ["{", "}", "(", ")", "[", "]"]


def mutate(texts, rng):
    """1 to 4 seeded token edits of a token-text list, joined as source."""
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
            mutated.insert(k, rng.choice(BRACKETS))
    return " ".join(mutated)


def out_of_range(m):
    """The metric ranges a parsed class violates, by name."""
    bad = []
    if m.lcom5 is not None and not 0 <= m.lcom5 <= m.k / (m.k - 1):
        bad.append(f"LCOM5 {m.lcom5} with k={m.k}")
    if m.nhd is not None and not 0 <= m.nhd <= 1:
        bad.append(f"NHD {m.nhd}")
    if m.cc_total < m.k:
        bad.append(f"CC {m.cc_total} < k={m.k}")
    if m.coco_total < 0 or (m.coco_min is not None and m.coco_min < 0):
        bad.append(f"CoCo total {m.coco_total}, min {m.coco_min}")
    if m.k and not m.coco_min <= m.coco_avg <= m.coco_max:
        bad.append(f"ACoCo {m.coco_avg} outside [{m.coco_min}, {m.coco_max}]")
    return bad


def sources(which):
    """(fixture name, source) pairs: the mutants of seed ``which``, or with
    ``"cuts"`` every token prefix and suffix of every fixture."""
    from classaudit.javamodel import tokenize

    rng = random.Random(which)
    for path in FIXTURES:
        texts = tokenize(path.read_text(encoding="utf-8")).texts[:-1]
        if which == "cuts":
            for cut in range(len(texts) + 1):
                yield path.name, " ".join(texts[:cut])
                yield path.name, " ".join(texts[cut:])
        else:
            for _ in range(MUTANTS_PER_FIXTURE):
                yield path.name, mutate(texts, rng)


def fuzz(which):
    from classaudit.errors import ParseError
    from classaudit.javamodel import parse_compilation_unit
    from classaudit.metrics import class_metrics

    failures = []
    for name, source in sources(which):
        try:
            pending = parse_compilation_unit(source, name)
            while pending:
                cls = pending.pop()
                pending.extend(cls.nested)
                for problem in out_of_range(class_metrics(cls)):
                    failures.append(f"{name} {cls.qualified_name}: {problem}\n{source}")
        except (ParseError, RecursionError):
            continue
        except Exception as exc:  # every other exception is a finding
            failures.append(f"{name}: {type(exc).__name__}: {exc}\n{source}")
    return failures


def run_fuzz(which):
    result = subprocess.run(
        [sys.executable, __file__, which],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_fixtures_parse_or_skip_with_metrics_in_range(seed):
    assert run_fuzz(str(seed)) == []


def test_every_prefix_and_suffix_of_a_fixture_parses_or_skips():
    assert run_fuzz("cuts") == []


if __name__ == "__main__":
    which = sys.argv[1]
    print(json.dumps(fuzz(which if which == "cuts" else int(which))))
