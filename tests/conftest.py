import errno
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


def refuse_listing(monkeypatch, directory):
    """Make ``os.scandir`` fail on ``directory`` as it does on one without
    read permission, which ``chmod`` cannot set up for a test run as root."""
    scandir = os.scandir
    path = os.fspath(directory)

    def guarded(top="."):
        if os.fspath(top) == path:
            raise PermissionError(errno.EACCES, "Permission denied", path)
        return scandir(top)

    monkeypatch.setattr(os, "scandir", guarded)


def fixture_copies(directory, count):
    """Write ``count`` copies of the fixtures' .java files to ``directory``,
    taken in turn and numbered so that they list in the order written."""
    sources = sorted(FIXTURES.rglob("*.java"))
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        source = sources[i % len(sources)]
        (directory / f"{i:04d}{source.name}").write_bytes(source.read_bytes())


def count_forks(monkeypatch) -> list:
    """Record each ``os.fork`` call in the returned list, and give the run two
    CPUs, so that a large enough ingest forks on any host."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return forks


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process, running or a zombie."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({pid or 'still running'})")


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
