"""The body walker reads only its own span's tokens.

The parser hands `analyze_body` the whole file's token stream and a span
ending at the body's closing `}`. Every span it passes, over the fixtures
and seeded token mutants of them, must give the same result as the same
span over the stream cut at `span.stop`: there the token at `span.stop`
reads as the `""` sentinel and nothing follows it.
"""

import random

import pytest

from classaudit.errors import ParseError
from classaudit.javamodel import analyze_body, parse_compilation_unit, parser, tokenize
from classaudit.javamodel.tokens import Tokens

from test_fuzz_pipeline import FIXTURES, MUTANTS_PER_FIXTURE, mutate


def sources(seed):
    """The fixtures as written, or with a seed their token mutants."""
    rng = random.Random(seed)
    for path in FIXTURES:
        text = path.read_text(encoding="utf-8")
        if seed is None:
            yield text
        else:
            texts = tokenize(text).texts[:-1]
            for _ in range(MUTANTS_PER_FIXTURE):
                yield mutate(texts, rng)


def recorded_calls(seed, monkeypatch):
    """Each analyze_body call the parser makes, with its result."""
    calls = []

    def record(span, tokens, attr_names, param_names, method_name):
        result = analyze_body(span, tokens, attr_names, param_names, method_name)
        calls.append((span, tokens, set(attr_names), list(param_names), method_name, result))
        return result

    monkeypatch.setattr(parser, "analyze_body", record)
    for source in sources(seed):
        try:
            parse_compilation_unit(source, "Mutant.java")
        except (ParseError, RecursionError):
            continue
    return calls


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_walk_equals_walk_over_stream_cut_at_span_stop(seed, monkeypatch):
    calls = recorded_calls(seed, monkeypatch)
    assert calls
    for span, tokens, attr_names, param_names, method_name, result in calls:
        stop = span.stop
        assert tokens.texts[stop] == "}"
        cut = Tokens(tokens.texts[:stop] + [""], tokens.kinds[:stop] + [""], tokens.lines[:stop])
        assert analyze_body(span, cut, attr_names, param_names, method_name) == result


@pytest.mark.parametrize("span", [range(1, 3), range(1, 9), range(-1, 5), range(6, 5)])
def test_span_not_ending_at_a_close_brace_or_the_end_is_refused(span):
    tokens = tokenize("{ x = y ; }")  # '}' at 5, sentinel at 6
    assert analyze_body(range(1, 5), tokens, {"x"}, (), "m") == ({"x"}, [])
    assert analyze_body(range(0, 6), tokens, {"x"}, (), "m") == ({"x"}, [])
    with pytest.raises(ValueError):
        analyze_body(span, tokens, {"x"}, (), "m")
