"""The benchmark's per-layer tracer (`perfbench/spans.py`) rebinds module
attributes of classaudit from outside. A rename of any of them would make
`--trace 1` fail, so every bound name must resolve to a callable."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans._BINDINGS
    unresolved = [
        (module, attr)
        for module, attr, *_ in spans._BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []
