"""Attribute-access resolution: shadowing, qualification, call targets."""

import pytest

from classaudit.javamodel import analyze_body, parse_compilation_unit, tokenize
from classaudit.metrics import class_metrics


def accesses(body, attrs, params=(), method="m"):
    toks = tokenize("{" + body + "}")
    found, _ = analyze_body(range(1, len(toks) - 1), toks, set(attrs), list(params), method)
    return found


def test_read_and_write_both_count():
    assert accesses("x = y + 1;", {"x", "y"}) == {"x", "y"}


def test_local_declared_before_use_shadows():
    assert accesses("int x = 0; x++;", {"x"}) == set()


def test_this_bypasses_parameter_shadowing():
    assert accesses("this.x = x;", {"x"}, params=["x"]) == {"x"}


def test_local_declared_after_use_does_not_shadow():
    assert accesses("x = 1; int x = 2;", {"x"}) == {"x"}


def test_parameter_shadows_everywhere():
    assert accesses("return x;", {"x"}, params=["x"]) == set()


def test_unknown_identifiers_are_not_accesses():
    assert accesses("foo = bar;", {"x"}) == set()


def test_qualified_field_of_other_object_not_counted():
    assert accesses("other.x = 1;", {"x"}) == set()


def test_qualifier_itself_counts():
    assert accesses("items.add(v);", {"items"}, params=["v"]) == {"items"}


def test_method_call_with_attribute_name_not_counted():
    # fields and methods live in different namespaces
    assert accesses("x();", {"x"}) == set()


def test_this_method_call_not_an_access():
    assert accesses("this.x();", {"x"}) == set()


def test_array_index_write_counts():
    assert accesses("x[0] = 1;", {"x"}) == {"x"}


def test_block_scope_expires():
    assert accesses("{ int x = 0; } x = 1;", {"x"}) == {"x"}


def test_for_loop_variable_scope_expires_after_loop():
    assert accesses("for (int x = 0; x < 3; x++) { } x = 5;", {"x"}) == {"x"}


def test_enhanced_for_variable_shadows_in_body():
    assert accesses("for (int x : xs) { use(x); }", {"x"}, params=["xs"]) == set()


def test_lambda_parameter_shadows_in_body_only():
    assert accesses("f(x -> g(x)); x = 1;", {"x"}) == {"x"}
    assert accesses("f(x -> g(x));", {"x"}) == set()


def test_typed_lambda_parameters_shadow():
    assert accesses("f((String x, int y) -> g(x, y));", {"x", "y"}) == set()
    assert accesses("f((@A(1) String x, int y) -> g(x, y));", {"x", "y"}) == set()


def test_catch_parameter_shadows():
    assert accesses("try { } catch (Exception e) { log(e); }", {"e"}) == set()
    body = 'try { } catch (@SuppressWarnings("x") final Exception e) { log(e); }'
    assert accesses(body, {"e"}) == set()


def test_try_resource_shadows():
    assert accesses("try (Stream s = open()) { s.read(); }", {"s"}) == set()


@pytest.mark.parametrize("body", [
    "try { int x = 1; } finally { } x++;",
    "try { } finally { int x = 1; } x++;",
], ids=["try", "finally"])
def test_try_and_finally_locals_end_at_their_brace(body):
    assert accesses(body, {"x"}) == {"x"}


def test_identifier_case_label_counts_in_arrow_and_colon_form():
    assert accesses("switch (k) { case RED -> { k++; } }", {"RED"}) == {"RED"}
    assert accesses("switch (k) { case RED: k++; }", {"RED"}) == {"RED"}
    body = "switch (k) { case RED, GREEN -> f(); case Color.BLUE: g(); }"
    assert accesses(body, {"RED", "GREEN", "Color"}) == {"RED", "GREEN", "Color"}
    assert accesses("switch (k) { case null, default -> f(x); }", {"x"}) == {"x"}
    body = "switch (s) { case Circle c when flag -> { f(); } }"
    assert accesses(body, {"flag"}) == {"flag"}


def test_arrow_case_label_access_enters_lcom5():
    source = ("class Light { int RED; int x;"
              " void a(int k) { switch (k) { case RED -> { k++; } } }"
              " void b() { RED = x; } }")
    (cls,) = parse_compilation_unit(source)
    assert class_metrics(cls).lcom5 == 0.5


def test_labels_and_label_jumps_not_accesses():
    body = "outer: for (int i = 0; i < 3; i++) { break outer; }"
    assert accesses(body, {"outer"}) == set()


def test_static_attribute_access_counts():
    assert accesses("COUNT++;", {"COUNT"}) == {"COUNT"}


def test_new_type_named_like_attribute_not_counted():
    assert accesses("f(new x());", {"x"}) == set()


def test_instanceof_pattern_variable_shadows():
    assert accesses("if (o instanceof String x) { use(x); }", {"x"}, params=["o"]) == set()


def test_case_type_pattern_binds_in_its_own_arm_only():
    assert accesses("switch (s) { case Circle c -> { c.draw(); } }", {"c"}) == set()
    assert accesses("switch (s) { case Circle c: c.draw(); }", {"c"}) == set()
    assert accesses("switch (s) { case Circle c -> f(); case Square q -> c.g(); }", {"c"}) == {"c"}
    assert accesses("switch (s) { case Circle c: f(); break; case Square q: c.g(); }", {"c"}) == {"c"}
    assert accesses("switch (s) { case Circle c -> f(); default -> c.g(); }", {"c"}) == {"c"}


def test_case_guard_sees_the_label_binding():
    body = "switch (s) { case Circle c when c.r > 0 -> f(); }"
    assert accesses(body, {"c"}) == set()
    body = "switch (s) { case Circle c when c.r > 0: f(); }"
    assert accesses(body, {"c"}) == set()


def test_colon_arm_local_still_reaches_later_arms():
    body = "switch (k) { case Circle c: int x = 0; break; case Square q: x = 1; }"
    assert accesses(body, {"x"}) == set()


def test_record_pattern_binds_its_components():
    attrs = {"x", "y"}
    assert accesses("if (o instanceof Point(int x, int y)) { f(x); }", attrs) == set()
    assert accesses("switch (o) { case Point(int x, int y) -> f(x); }", attrs) == set()
    assert accesses("switch (o) { case Point(int x, int y): f(y); }", attrs) == set()
    assert accesses("switch (o) { case Point(var x, var y) when x > y -> f(); }", attrs) == set()
    assert accesses("switch (o) { case Point(int x, int y) -> f(); default -> g(x); }", attrs) == {"x"}
    # A component's annotation arguments are no nested record pattern.
    assert accesses("if (o instanceof Point(@A(1) int x, int y)) { f(x); }", attrs) == set()
    assert accesses("switch (o) { case Point(@A(1) int x, int y) -> f(x); }", attrs) == set()


def test_nested_record_pattern_binds_every_component():
    body = "if (o instanceof Line(Point(var a, var b), Point p) && a > p.x) { f(b); }"
    assert accesses(body, {"a", "b", "p"}) == set()
    body = "switch (o) { case Line(Point(var a, var b), Point<T> p) -> f(a, b, p); }"
    assert accesses(body, {"a", "b", "p"}) == set()


def test_parenthesis_after_instanceof_without_a_type_is_an_expression():
    assert accesses("if (o instanceof (x)) { }", {"x"}) == {"x"}


def test_shadowing_is_per_method_not_global():
    # second statement list simulates a different method: fresh walker
    assert accesses("int x = 0;", {"x"}) == set()
    assert accesses("x = 0;", {"x"}) == {"x"}


def test_multi_declarator_locals_shadow():
    assert accesses("int a = 1, b = 2; a = b; y = 1;", {"a", "b", "y"}) == {"y"}


def test_access_inside_anonymous_class_counts_lexically():
    body = "return new Runnable() { public void run() { x = 1; } };"
    assert accesses(body, {"x"}) == {"x"}


def test_stray_close_brace_is_stepped_over():
    assert accesses("x = 1; } y = 2;", {"x", "y"}) == {"x", "y"}


def test_local_record_head_left_open_ends_the_body():
    assert accesses("record R(int a { } x = 1;", {"x"}) == set()


def test_paren_left_open_in_a_body_stays_open_there():
    # The for's '(' pairs with the ')' in g in the file's table; within f it
    # is open, so f holds no ';' after it, the loop is an enhanced for and
    # its x is a local, not the attribute.
    source = ("class A { int x; void f(java.util.List<Integer> xs) {"
              " for (int x : xs } int y; void g() { ) } }")
    (cls,) = parse_compilation_unit(source)
    assert [m.accessed_attributes for m in cls.methods] == [set(), set()]


def test_annotation_arguments_in_a_body_are_not_accesses():
    for annotation in ("@C(x)", "@a.b.C(x)"):
        source = "class A { int x; void f() { " + annotation + " int z = 1; } }"
        (cls,) = parse_compilation_unit(source)
        assert cls.methods[0].accessed_attributes == set(), annotation
    assert accesses("for (@a.b.C(x) int z : zs) { }", {"x"}) == set()


@pytest.mark.parametrize("body", [
    "java.util.@NonNull List x = null; x.size();",
    "Outer<T>.Inner x = null; x++;",
    "final @A int @B [] x = null; x[0]++;",
], ids=["annotated_qualified", "inner_of_generic", "annotated_array"])
def test_local_of_an_annotated_or_inner_type_shadows(body):
    assert accesses(body, {"x"}) == set()


@pytest.mark.parametrize("label", ["java.util.@NonNull List x", "Outer<T>.Inner x"],
                         ids=["annotated_qualified", "inner_of_generic"])
def test_pattern_of_an_annotated_or_inner_type_binds(label):
    assert accesses(f"if (o instanceof {label}) {{ x.f(); }}", {"x"}) == set()
    assert accesses(f"switch (o) {{ case {label} -> x.f(); default -> x.f(); }}",
                    {"x"}) == {"x"}  # bound in its own arm only


def test_this_alone_is_no_access():
    assert accesses("g(this, x); return this;", {"x"}) == {"x"}
    assert accesses("return this == x ? this : x;", {"x"}) == {"x"}


def test_a_field_and_a_recursive_call_share_the_method_name():
    (cls,) = parse_compilation_unit("class A { int f; int f() { return f() + f; } }")
    assert cls.methods[0].accessed_attributes == {"f"}
    assert ("recursion", 0) in cls.methods[0].events
    assert accesses("return f();", {"f"}, method="f") == set()
    assert accesses("return f;", {"f"}, method="f") == {"f"}
    (cls,) = parse_compilation_unit("class A { int f; int f() { return f + f(); } }")
    assert ("recursion", 0) in cls.methods[0].events  # after the access, too


SYNCHRONIZED = "class A { Object lock; int n; void f() { synchronized (lock) { if (n > 0) { n--; } } } }"


def test_synchronized_lock_and_block_are_read():
    (cls,) = parse_compilation_unit(SYNCHRONIZED)
    (f,) = cls.methods
    assert f.accessed_attributes == {"lock", "n"}


def test_a_type_after_instanceof_is_never_an_access():
    attrs = {"o", "b", "List"}
    assert accesses("b = o instanceof List;", attrs) == {"b", "o"}
    assert accesses("b = o instanceof java.util.List && List > 0;", attrs) == {"List", "b", "o"}
