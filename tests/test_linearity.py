"""Growth per doubling of the work a parse does, counted in Python events by
`conftest.work`, so no clock is read: every shape is audited (parsed, and
each class's metrics taken) at N and 2N units, and its count may grow at
most 2.5 times. Linear code grows about 2 times, quadratic code about 4
times, at N in the low hundreds already. A count misses the work done
inside C calls; see `work`.

The shapes: a run of each token of the fuzz's `tokens` alphabet and of a
few more tokens and phrases, in a class body and in a method body; nested
classes; the benchmark's five `shapes` generators, loaded from
`perfbench/workloads.py` by path; fields, parameters and locals of
annotated generic types; constructors with annotated `throws` clauses,
member record heads, one field of many declarators, and one initializer
of many unclosed `.<` type argument lists.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import work
from test_fuzz_pipeline import ALPHABETS

from classaudit.errors import ParseError
from classaudit.javamodel import parse_compilation_unit
from classaudit.metrics import class_metrics

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
MAX_GROWTH = 2.5

RUNS = ALPHABETS["tokens"] + ["->", "::", "=", "x", "a .", "x <", "int < x ;", ";"]


def audit(source):
    """Parse ``source`` and take every class's metrics; a ParseError or a
    RecursionError ends it, as one ends a file's ingest with a SKIP line."""
    try:
        pending = parse_compilation_unit(source)
        while pending:
            cls = pending.pop()
            pending.extend(cls.nested)
            class_metrics(cls)
    except (ParseError, RecursionError):
        pass


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def in_class_body(run):
    return lambda n: "class A { " + (run + " ") * n + "}"


def in_method_body(run):
    return lambda n: "class A { int x; void f() { " + (run + " ") * n + "} }"


def nested_classes(n):
    opening = "".join(f"class C{i} {{\n\n    int f{i};\n" for i in range(n))
    return opening + "}\n" * n


def members(member):
    return lambda n: "class A {\n" + "".join(member.format(i=i) for i in range(n)) + "}\n"


def workload_shape(name):
    def source(n):
        lines, _ = load_workloads()._SHAPES[name](n)
        return "\n".join(lines) + "\n"
    return source


SHAPES = {
    **{f"class body: {run}": (in_class_body(run), 200) for run in RUNS},
    **{f"method body: {run}": (in_method_body(run), 200) for run in RUNS},
    "nested classes": (nested_classes, 100),
    "shapes: classes_per_file": (workload_shape("classes_per_file"), 100),
    "shapes: fields_per_class": (workload_shape("fields_per_class"), 200),
    "shapes: paren_depth": (workload_shape("paren_depth"), 100),
    "shapes: if_depth": (workload_shape("if_depth"), 60),
    "shapes: method_length": (workload_shape("method_length"), 200),
    "fields": (members(
        "    java.util.@NonNull Map<@A String, List<int @B []>> f{i} = null, g{i}[];\n"), 200),
    "parameters": (members(
        "    void m{i}(final @A java.util.@B List<@C String> a, int @D [] b, String... c) {{ }}\n"),
        200),
    "methods of distinct parameter types": (members("    void m{i}(T{i} a) {{ }}\n"), 200),
    "locals": (members(
        "    void m{i}() {{ Outer<T>.Inner x = null; java.util.@N List y = x; f = y; }}\n"), 200),
    "constructors with annotated throws clauses": (members(
        "    A(T{i} a) throws @X E{i}, F {{ }}\n"), 200),
    "member record heads": (members(
        "    record R{i}(int a, int b) implements I {{ }}\n"), 200),
    "one field of N declarators": (
        lambda n: "class A { int " + ", ".join(f"a{i}[] = f({i}, {i})" for i in range(n)) + "; }",
        200),
    "an initializer of N unclosed type argument lists": (
        lambda n: "class A { int x = a" + ".<b" * n + "; int y; }", 200),
}


@pytest.mark.parametrize("name", SHAPES)
def test_work_grows_linearly(name):
    source, n = SHAPES[name]
    small, large = work(audit, source(n)), work(audit, source(2 * n))
    assert large / small <= MAX_GROWTH, (small, large)
