"""The benchmark's per-layer tracer (`perfbench/spans.py`) rebinds module
attributes of classaudit from outside. A rename of any of them would make
`--trace 1` fail, so every bound name must resolve to a callable, and the
counts it takes from their arguments and results must stay what they
measure."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_binding_resolves():
    spans = load_spans()
    assert spans._BINDINGS
    unresolved = [
        (module, attr)
        for module, attr, *_ in spans._BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []


def test_tracer_counts_tokens_and_bodies_on_the_fixtures():
    from classaudit import pipeline

    tracer = load_spans().Tracer()
    with tracer.install():
        list(pipeline.ingest_sources([FIXTURES]))
    counts = {name: tracer.counts[name] for name in
              ("tokens.calls", "tokens.tokens", "body.calls", "body.tokens_in")}
    assert counts == {"tokens.calls": 21, "tokens.tokens": 1837,
                      "body.calls": 52, "body.tokens_in": 909}
