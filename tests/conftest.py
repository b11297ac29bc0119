import json
import os
import sys
from pathlib import Path

import pytest

from classaudit._record import Record

FIXTURES = Path(__file__).parent / "fixtures"


def child_env(**extra: str) -> dict:
    """The minimal environment of a child Python that tests start: ``PATH``,
    ``PYTHONPATH`` set to the directory holding the classaudit this process
    imported (src/ in a checkout, site-packages in an install), ``extra``,
    and ``PYTHONDONTWRITEBYTECODE`` when this process was given it, so that
    a run asked to write no bytecode caches writes none through a child."""
    import classaudit

    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(classaudit.__file__).resolve().parent.parent),
        **extra,
    }
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def work(fn, *args) -> int:
    """The call, line and return events of one run of ``fn(*args)``, counted
    by a ``sys.settrace`` hook: a measure of the Python code it runs that
    no clock and no load on the host moves. A ratio of two counts holds
    across Python 3.10 to 3.13, where a count itself may differ by a few.

    Blind spot: work inside a C call is no event, so growth that hides in
    one is not seen, such as a ``str.join`` of a slice of tokens, a list
    slice, ``map`` over a C function (the blank-line count ``str.strip``s
    every line) or a regex (the tokenizer is one ``Pattern.split``)."""
    count = 0
    counted = frozenset({"call", "line", "return"})

    def tracer(frame, event, arg):
        nonlocal count
        if event in counted:
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def copy_with(record, **changes):
    """A copy of a record with some fields changed: every constructor takes
    its fields as keywords named as in ``__slots__``."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def field_view(value):
    """A record as a dict of its fields in slot order, nested records,
    lists, tuples and dicts converted the same way all the way down."""
    if isinstance(value, Record):
        return {name: field_view(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, (list, tuple)):
        return type(value)(field_view(v) for v in value)
    if isinstance(value, dict):
        return {k: field_view(v) for k, v in value.items()}
    return value


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def metrics_dir() -> Path:
    return FIXTURES / "metrics"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return FIXTURES / "corpus" / "src"


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return FIXTURES / "golden"


@pytest.fixture(scope="session")
def expected_metrics() -> dict:
    return json.loads((FIXTURES / "metrics" / "expected_metrics.json").read_text())


@pytest.fixture(scope="session")
def expected_corpus() -> dict:
    return json.loads((FIXTURES / "corpus" / "expected_corpus.json").read_text())
