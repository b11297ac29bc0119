"""Whole-pipeline token-mutation fuzz over the fixtures.

Each fixture's tokens get a few seeded edits (delete, duplicate or swap a
token, or inject one token of an alphabet: the brackets, or the brackets
plus the ``< > @ . , ?`` that type arguments and annotations are read
from), and separately every prefix and suffix of its tokens is taken, so
that the parser's look-ahead and look-behind meet the ends of the stream.
Each result goes through `parse_compilation_unit` and `class_metrics`. It
must either parse, with every class's metrics inside their theoretical
ranges, or raise `ParseError` or `RecursionError`, which ingest reports as
SKIP lines. Any other exception is a failure. The fuzz runs in a
subprocess with a timeout, because a hang is a failure too.

Run as a script, ``python tests/test_fuzz_pipeline.py SEED [ALPHABET]``
prints the failures of one seed's mutants as a JSON list (``ALPHABET`` is
``brackets``, the default, or ``tokens``), and
``python tests/test_fuzz_pipeline.py cuts`` those of the prefixes and
suffixes. ``python tests/test_fuzz_pipeline.py dump SEEDS`` prints one line
per input instead, the fixtures, their cuts and both alphabets' mutants of
seeds 0 to SEEDS - 1: its label, then its classes' parse and metrics, or
the exception raised. ``diff`` of two checkouts' dumps shows every change
of behaviour between them.
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
ALPHABETS = {"brackets": BRACKETS, "tokens": BRACKETS + ["<", ">", "@", ".", ",", "?"]}


def mutate(texts, rng, alphabet=BRACKETS):
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
            mutated.insert(k, rng.choice(alphabet))
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


def sources(which, alphabet="brackets"):
    """(label, source) pairs, each label starting with the fixture's name:
    the mutants of seed ``which`` over an alphabet of ``ALPHABETS``, with
    ``"cuts"`` every token prefix and suffix of every fixture, or with
    ``"fixtures"`` each fixture whole."""
    from classaudit.javamodel import tokenize

    rng = random.Random(which)
    for path in FIXTURES:
        name = path.name
        if which == "fixtures":
            yield name, path.read_text(encoding="utf-8")
            continue
        texts = tokenize(path.read_text(encoding="utf-8")).texts[:-1]
        if which == "cuts":
            for cut in range(len(texts) + 1):
                yield f"{name} prefix {cut}", " ".join(texts[:cut])
                yield f"{name} suffix {cut}", " ".join(texts[cut:])
        else:
            for k in range(MUTANTS_PER_FIXTURE):
                yield f"{name} {alphabet} {which}.{k}", mutate(texts, rng, ALPHABETS[alphabet])


def walk_classes(name, source):
    """Every class parsed from ``source``, nested ones included."""
    from classaudit.javamodel import parse_compilation_unit

    pending = parse_compilation_unit(source, name)
    while pending:
        cls = pending.pop()
        pending.extend(cls.nested)
        yield cls


def fuzz(which, alphabet="brackets"):
    from classaudit.errors import ParseError
    from classaudit.metrics import class_metrics

    failures = []
    for label, source in sources(which, alphabet):
        name = label.split()[0]
        try:
            for cls in walk_classes(name, source):
                for problem in out_of_range(class_metrics(cls)):
                    failures.append(f"{name} {cls.qualified_name}: {problem}\n{source}")
        except (ParseError, RecursionError):
            continue
        except Exception as exc:  # every other exception is a finding
            failures.append(f"{name}: {type(exc).__name__}: {exc}\n{source}")
    return failures


def dump(seeds):
    """One line per input: its label, then the classes' normalized parse
    and metrics, or the exception raised, as JSON."""
    from classaudit.metrics import class_metrics

    inputs = [sources("fixtures"), sources("cuts")]
    inputs += [sources(seed, alphabet) for alphabet in ALPHABETS for seed in range(seeds)]
    for group in inputs:
        for label, source in group:
            try:
                result = [
                    [cls.qualified_name, cls.line_span, cls.loc, cls.blank_lines,
                     cls.has_static_member, cls.attributes,
                     [[m.name, m.parameter_types, sorted(m.accessed_attributes), m.events]
                      for m in cls.methods],
                     repr(class_metrics(cls))]
                    for cls in walk_classes(label.split()[0], source)
                ]
            except Exception as exc:
                result = f"{type(exc).__name__}: {exc}"
            print(label, json.dumps(result))


def run_fuzz(*which):
    result = subprocess.run(
        [sys.executable, __file__, *which],
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


@pytest.mark.parametrize("seed", SEEDS)
def test_token_mutated_fixtures_parse_or_skip_with_metrics_in_range(seed):
    assert run_fuzz(str(seed), "tokens") == []


def test_every_prefix_and_suffix_of_a_fixture_parses_or_skips():
    assert run_fuzz("cuts") == []


if __name__ == "__main__":
    which = sys.argv[1]
    if which == "dump":
        dump(int(sys.argv[2]))
    else:
        print(json.dumps(fuzz(which if which == "cuts" else int(which), *sys.argv[2:])))
