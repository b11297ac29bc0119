import subprocess
import sys

import pytest

from conftest import child_env

from classaudit.errors import ParseError, SpanOutOfBounds
from classaudit.javamodel import count_loc_and_blank, parse_compilation_unit
from classaudit.metrics import class_metrics


def parse(code, file_id="Test.java"):
    return parse_compilation_unit(code, file_id)


def flat(classes):
    out = []
    stack = list(classes)
    while stack:
        c = stack.pop(0)
        out.append(c)
        stack.extend(c.nested)
    return out


def test_minimal_class():
    classes = parse("class A { int x; void f(){x=1;} }")
    assert len(classes) == 1
    a = classes[0]
    assert a.name == "A"
    assert a.attributes == ["x"]
    assert [m.name for m in a.methods] == ["f"]
    assert a.methods[0].accessed_attributes == {"x"}


def test_interface_produces_no_unit():
    assert parse("interface I { void f(); }") == []


def test_enum_record_annotation_produce_no_unit():
    assert parse("enum E { A, B }") == []
    assert parse("record P(int x, int y) { }") == []
    assert parse("@interface Marker { int value() default 1; }") == []


def test_nested_classes_are_independent():
    classes = flat(parse("class A { class B { int y; } int x; }"))
    names = {c.name: c for c in classes}
    assert set(names) == {"A", "B"}
    assert names["A"].attributes == ["x"]
    assert names["B"].attributes == ["y"]


def test_class_nested_in_interface_is_a_unit():
    classes = flat(parse("interface I { class Impl { int z; } }"))
    assert [c.name for c in classes] == ["Impl"]
    assert classes[0].qualified_name == "I.Impl"


def test_qualified_names_include_package_and_enclosing():
    code = "package a.b;\nclass Outer { class Inner {} }"
    classes = flat(parse(code))
    assert {c.qualified_name for c in classes} == {"a.b.Outer", "a.b.Outer.Inner"}


def test_anonymous_class_is_not_a_unit():
    code = """
class A {
    Runnable r() {
        return new Runnable() { public void run() {} };
    }
}
"""
    assert [c.name for c in flat(parse(code))] == ["A"]


def test_local_class_inside_method_is_not_a_unit():
    code = "class A { void f() { class Local { int q; } } }"
    assert [c.name for c in flat(parse(code))] == ["A"]


def test_constructor_excluded_from_methods():
    code = "class A { int x; A(int x) { this.x = x; } int get() { return x; } }"
    a = parse(code)[0]
    assert [m.name for m in a.methods] == ["get"]


def test_factory_method_named_like_class_with_return_type_is_a_method():
    code = "class A { static A A() { return null; } }"
    a = parse(code)[0]
    assert [m.name for m in a.methods] == ["A"]


def test_static_member_detection():
    assert parse("class A { static int x; }")[0].has_static_member
    assert parse("class A { static void f() {} }")[0].has_static_member
    assert not parse("class A { int x; void f() {} }")[0].has_static_member
    # initializer blocks are neither methods nor attributes
    assert not parse("class A { static { } int x; }")[0].has_static_member


def test_parameter_type_normalization():
    code = """
class A {
    void a(List< String > x) {}
    void b(List<Integer> x) {}
    void c(String[] x) {}
    void d(String x[]) {}
    void e(int... x) {}
    void f(java.util.Map<String, int[]> x) {}
}
"""
    a = parse(code)[0]
    types = {m.name: m.parameter_types for m in a.methods}
    assert types["a"] == ["List<String>"]
    assert types["b"] == ["List<Integer>"]
    assert types["c"] == ["String[]"]
    assert types["d"] == ["String[]"]
    assert types["e"] == ["int..."]
    assert types["f"] == ["java.util.Map<String,int[]>"]


@pytest.mark.parametrize("declared, expected", [
    ("java.util.@NonNull List", "java.util.List"),
    ("List<@NonNull String>", "List<String>"),
    ("@A final java.util.@B Map<@C String, @D List<int @E []>>",
     "java.util.Map<String,List<int[]>>"),
    ("int @A []", "int[]"),
    ("String @A ...", "String..."),
], ids=["qualified", "type_argument", "everywhere", "array", "varargs"])
def test_parameter_type_drops_type_use_annotations(declared, expected):
    (a,) = parse(f"class A {{ void f({declared} x) {{}} }}")
    assert a.methods[0].parameter_types == [expected]


def test_annotated_array_type_declares_a_field():
    (a,) = parse("class A { int @A [] x; void f(int @A [] y) { x = y; } }")
    assert a.attributes == ["x"]
    assert a.methods[0].parameter_types == ["int[]"]
    assert a.methods[0].accessed_attributes == {"x"}


def test_varargs_and_array_parameters_are_different_types():
    (a,) = parse("class A { void f(String... a) {} void g(String[] a) {} }")
    assert [m.parameter_types for m in a.methods] == [["String..."], ["String[]"]]
    assert class_metrics(a).l_types == 2


def test_multi_declarator_fields_and_initializers():
    code = "class A { int a = 1, b, c = f(1, 2); Runnable r = () -> {}; }"
    a = parse(code)[0]
    assert a.attributes == ["a", "b", "c", "r"]


def test_field_with_anonymous_class_initializer():
    code = "class A { Runnable r = new Runnable() { public void run() {} }; int z; }"
    a = parse(code)[0]
    assert a.attributes == ["r", "z"]


def test_abstract_method_counts_with_empty_body():
    code = "abstract class A { abstract int f(int x); }"
    a = parse(code)[0]
    assert [m.name for m in a.methods] == ["f"]
    assert a.methods[0].events == []


def test_generic_method_declaration():
    code = "class A { <T> T pick(java.util.List<T> xs) { return xs.get(0); } }"
    a = parse(code)[0]
    assert [m.name for m in a.methods] == ["pick"]
    assert a.methods[0].parameter_types == ["java.util.List<T>"]


def test_line_span_and_loc(metrics_dir):
    src = (metrics_dir / "PerfectCohesion.java").read_text()
    a = parse(src)[0]
    assert a.line_span == (1, 11)
    assert a.loc == 11
    assert a.blank_lines == 2


def test_count_loc_and_blank_examples():
    # the running blank counts of "class A {", "", "int x;", "  ", "int y;", "}"
    blank_before = [0, 0, 1, 1, 2, 2, 2]
    assert count_loc_and_blank(blank_before, (1, 6)) == (6, 2)
    assert count_loc_and_blank(blank_before, (2, 4)) == (3, 2)
    assert count_loc_and_blank(blank_before, (5, 6)) == (2, 0)
    assert count_loc_and_blank([0, 0], (1, 1)) == (1, 0)  # "class A {}"


def test_tab_and_space_only_lines_are_blank():
    a = parse("class A {\n\t\nint x;\n   \t \n}")[0]
    assert (a.loc, a.blank_lines) == (5, 2)


def test_count_loc_span_out_of_bounds():
    two_lines = [0, 0, 0]
    with pytest.raises(SpanOutOfBounds):
        count_loc_and_blank(two_lines, (1, 3))
    with pytest.raises(SpanOutOfBounds):
        count_loc_and_blank(two_lines, (0, 1))


def test_form_feed_does_not_split_a_line():
    # the tokenizer numbers lines by "\n" alone; a form-feed-only line is
    # one blank line, not two
    a = parse("class A {\n\x0c\nint x;\n}\n")[0]
    assert a.line_span == (1, 4)
    assert (a.loc, a.blank_lines) == (4, 1)


def test_unbalanced_braces_raise_parse_error():
    with pytest.raises(ParseError):
        parse("class A { void f() { }")


def test_parse_is_deterministic():
    code = open(__file__.replace("test_parser.py", "fixtures/metrics/BranchCascade.java")).read()
    first = parse(code)
    second = parse(code)
    assert repr(first) == repr(second)


def test_sibling_class_loc_sum_within_file(corpus_dir):
    # nesting-free file: per-class spans cannot overlap, sum stays in bounds
    text = (corpus_dir / "Palette.java").read_text()
    classes = parse(text)
    total_lines = len(text.splitlines())
    assert sum(c.loc for c in classes) <= total_lines


def test_nested_span_included_in_enclosing(corpus_dir):
    text = (corpus_dir / "Invoice.java").read_text()
    outer = parse(text)[0]
    inner = outer.nested[0]
    assert outer.line_span[0] <= inner.line_span[0] <= inner.line_span[1] <= outer.line_span[1]


def test_accessed_attributes_always_subset(metrics_dir, corpus_dir):
    for directory in (metrics_dir, corpus_dir):
        for path in sorted(directory.glob("*.java")):
            for cls in flat(parse(path.read_text(), str(path))):
                names = set(cls.attributes)
                for m in cls.methods:
                    assert m.accessed_attributes <= names, (path, cls.name, m.name)


def test_annotated_class_span_starts_at_annotation():
    code = "@Deprecated\nclass A {\n int x;\n}\n"
    a = parse(code)[0]
    assert a.line_span == (1, 4)


@pytest.mark.parametrize("annotation", [
    "@Deprecated",
    "@java.lang.Deprecated",
    '@SuppressWarnings("x")',
    '@java.lang.SuppressWarnings("x")',
])
@pytest.mark.parametrize("head, tail", [
    ("", ""),
    ("class A {\n", "}\n"),
    ("interface I {\n", "}\n"),
], ids=["top_level", "in_class", "in_interface"])
def test_class_span_starts_at_its_annotation_however_named(annotation, head, tail):
    code = f"package p;\n{head}{annotation}\nclass C {{\n int x;\n}}\n{tail}"
    (cls,) = [c for c in flat(parse(code)) if c.name == "C"]
    first = 2 + head.count("\n")
    assert cls.line_span == (first, first + 3)
    assert cls.loc == 4


@pytest.mark.parametrize("outer", ["class A {", "interface A {", "enum A { X;"],
                         ids=["class", "interface", "enum"])
def test_class_in_a_record_is_qualified_by_the_record(outer):
    code = "package p; " + outer + " record R(int x) { class C { } } }"
    assert [c.qualified_name for c in flat(parse(code)) if c.name == "C"] == ["p.A.R.C"]


@pytest.mark.parametrize("head, tail, qualified", [
    ("", "", "p.M.C"),
    ("@Deprecated ", "", "p.M.C"),
    ("class A { ", " }", "p.A.M.C"),
    ("interface I { ", " }", "p.I.M.C"),
], ids=["top_level", "annotated", "in_class", "in_interface"])
def test_class_in_an_annotation_type_is_qualified_by_it(head, tail, qualified):
    code = f"package p; {head}@interface M {{ class C {{ }} }}{tail}"
    assert [c.qualified_name for c in flat(parse(code)) if c.name == "C"] == [qualified]


@pytest.mark.parametrize("keyword", ["sealed class", "interface", "enum"])
def test_type_keyword_without_a_name_is_no_field(keyword):
    (a,) = parse(f"class A {{ {keyword} ; Line {{ int y; }} int x; }}")
    assert a.attributes == ["x"]


def test_member_scan_after_an_unclosed_angle_is_linear():
    # Each `int < x ;` starts a member scan that meets a `<` never closed.
    # Scanning such a `<` to the end of the class body for every token
    # took time quadratic in the body's length. `int < x` is no readable
    # type, so no member is read.
    script = (
        "from classaudit.javamodel import parse_compilation_unit\n"
        "(cls,) = parse_compilation_unit('class A { ' + 'int < x ; ' * 16000 + '}')\n"
        "print(cls.attributes)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]"]


def test_two_top_level_classes():
    classes = parse("class A { }\nclass B { }")
    assert [c.name for c in classes] == ["A", "B"]
