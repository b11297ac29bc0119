"""Decision events from method bodies."""

from collections import Counter

from classaudit.javamodel import analyze_body, parse_compilation_unit, tokenize
from classaudit.metrics import class_metrics


def analyze(body, attrs=(), params=(), method="m"):
    toks = tokenize("{" + body + "}")
    _, events = analyze_body(range(1, len(toks) - 1), toks, set(attrs), list(params), method)
    return Counter(kind for kind, _ in events), events


def test_straight_line_body():
    kinds, events = analyze("a = 1; b = f(a);")
    assert not kinds
    assert events == []


def test_if_with_short_circuit():
    kinds, events = analyze("if (a && b) { }")
    assert kinds["if"] == 1
    assert kinds["bool_run"] + kinds["bool_op"] == 1
    assert ("if", 0) in events
    assert ("bool_run", 0) in events


def test_if_inside_for():
    kinds, events = analyze("for (int i = 0; i < n; i++) { if (c) { } }", params=["n", "c"])
    assert kinds["loop"] == 1
    assert kinds["if"] == 1
    assert events == [("loop", 0), ("if", 1)]


def test_else_if_chain_counts_every_if_but_flattens_events():
    kinds, events = analyze("if (a) {} else if (b) {} else {}")
    assert kinds["if"] + kinds["else_if"] == 2
    assert events == [("if", 0), ("else_if", 0), ("else", 0)]


def test_long_else_if_chain_is_walked_without_recursion():
    # Every link is flat, so a chain far past the recursion limit parses.
    links = 5000
    chain = "if (c) {}" + " else if (c) {}" * links
    (cls,) = parse_compilation_unit("class A { void m(boolean c) { " + chain + " } }")
    metrics = class_metrics(cls)
    assert (metrics.cc_total, metrics.coco_total) == (links + 2, links + 1)


def test_nesting_depth_if_for_for_if():
    body = "if (a) { for (X r : xs) { for (Y c : r) { if (b) { } } } }"
    _, events = analyze(body)
    assert events == [("if", 0), ("loop", 1), ("loop", 2), ("if", 3)]


def test_do_while_tail_not_double_counted():
    kinds, events = analyze("do { x++; } while (x > 0);", attrs=["x"])
    assert kinds["loop"] == 1
    assert events == [("loop", 0)]


def test_braceless_do_while():
    kinds, _ = analyze("do x++; while (x > 0);", attrs=["x"])
    assert kinds["loop"] == 1


def test_while_true_counts_as_loop():
    kinds, _ = analyze("while (true) { step(); }")
    assert kinds["loop"] == 1


def test_switch_cases_count_for_cc_not_coco():
    body = "switch (t) { case 1: a(); break; case 2: b(); break; default: c(); }"
    kinds, events = analyze(body, params=["t"])
    assert kinds["case"] == 2
    assert events == [("switch", 0), ("case", 0), ("case", 0)]


def test_switch_arrow_form():
    body = "switch (t) { case 1 -> a(); case 2 -> { b(); } default -> c(); }"
    kinds, events = analyze(body, params=["t"])
    assert kinds["case"] == 2
    assert events == [("switch", 0), ("case", 0), ("case", 0)]


def test_identifier_arrow_label_is_a_label_not_a_lambda():
    # Read as a lambda, `A -> { ... }` made the next `case` part of its body.
    body = "switch (k) { case A -> { foo(); } case B -> { bar(); } default -> { baz(); } }"
    _, events = analyze(body)
    assert events == [("switch", 0), ("case", 0), ("case", 0)]
    (cls,) = parse_compilation_unit("class S { void m(int k) { " + body + " } }")
    assert class_metrics(cls).cc_total == 3


def test_guarded_and_parenthesized_arrow_labels_are_labels():
    guarded = "switch (s) { case Circle c when flag -> { f(); } case Square q when flag -> { g(); } }"
    parenthesized = "switch (k) { case (1) -> { f(); } case (2) -> { g(); } }"
    for body in (guarded, parenthesized):
        _, events = analyze(body)
        assert events == [("switch", 0), ("case", 0), ("case", 0)], body


def test_lambda_in_an_arrow_arm_is_still_a_lambda():
    body = "switch (k) { case A -> run(x -> { if (x) { } }); case B -> y -> y; }"
    _, events = analyze(body)
    assert events == [("switch", 0), ("case", 0), ("if", 2), ("case", 0)]


def test_multi_label_case_counts_once():
    kinds, _ = analyze("switch (t) { case 1, 2: a(); }", params=["t"])
    assert kinds["case"] == 1


def test_statements_inside_switch_nest():
    body = "switch (t) { case 1: if (a) { } break; }"
    _, events = analyze(body, params=["t"])
    assert events == [("switch", 0), ("case", 0), ("if", 1)]


def test_catch_clauses_count_each():
    body = "try { f(); } catch (A e) { } catch (B e) { } finally { g(); }"
    kinds, events = analyze(body)
    assert kinds["catch"] == 2
    assert events == [("catch", 0), ("catch", 0)]


def test_multi_catch_is_one_clause():
    kinds, _ = analyze("try { f(); } catch (A | B e) { }")
    assert kinds["catch"] == 1
    assert kinds["bool_run"] + kinds["bool_op"] == 0  # single '|' is not short-circuit


def test_try_block_does_not_nest_but_catch_body_does():
    body = "try { if (a) { } } catch (E e) { if (b) { } }"
    _, events = analyze(body)
    assert events == [("if", 0), ("catch", 0), ("if", 1)]


def test_ternary_counts_and_nests():
    kinds, events = analyze("r = a ? 1 : b ? 2 : 3;")
    assert kinds["ternary"] == 2
    assert events == [("ternary", 0), ("ternary", 1)]


def test_ternary_chain_resumes_its_enclosing_expression_at_a_comma():
    _, events = analyze("f(a ? 1 : b ? 2 : c && d, e ? 3 : 4 || g);")
    assert events == [("ternary", 0), ("ternary", 1), ("bool_run", 2),
                      ("ternary", 0), ("bool_run", 1)]
    _, events = analyze("int x = a ? 1 : b ? 2 : 3, y = c && d;")
    assert events == [("ternary", 0), ("ternary", 1), ("bool_run", 0)]


def test_long_ternary_chain_is_walked_without_recursion():
    # Each link's last operand is one level deeper but needs no new frame.
    links = 5000
    chain = "".join(f"c{k} ? {k} : " for k in range(links)) + f"{links}"
    (cls,) = parse_compilation_unit("class A { int m() { return " + chain + "; } }")
    metrics = class_metrics(cls)
    assert (metrics.cc_total, metrics.coco_total) == (links + 1, links * (links + 1) // 2)


def test_generic_wildcard_is_not_a_ternary():
    kinds, _ = analyze("Map<?, ? extends Foo> m = get();")
    assert kinds["ternary"] == 0


def test_boolean_runs_alternation():
    _, events = analyze("if (a && b && c || d || e && f) { }")
    runs = [e for e in events if e[0] == "bool_run"]
    assert len(runs) == 3


def test_boolean_runs_reset_across_statements():
    _, events = analyze("x = a && b; y = c && d;", params=["a", "b", "c", "d"])
    runs = [e for e in events if e[0] == "bool_run"]
    assert len(runs) == 2


def test_boolean_runs_parenthesized_subexpressions():
    _, events = analyze("v = !(a && b) || (c || d) && e;")
    runs = [e for e in events if e[0] == "bool_run"]
    assert len(runs) == 4


def test_boolean_run_inside_call_arguments_are_separate():
    _, events = analyze("f(a && b, c && d);")
    runs = [e for e in events if e[0] == "bool_run"]
    assert len(runs) == 2


def test_short_circuit_token_count_is_raw():
    kinds, events = analyze("if (a && b && c) { }")
    assert kinds["bool_run"] + kinds["bool_op"] == 2
    assert events == [("if", 0), ("bool_run", 0), ("bool_op", 0)]


def test_direct_recursion_event():
    _, events = analyze("return m(n - 1);", params=["n"], method="m")
    assert ("recursion", 0) in events


def test_this_qualified_recursion():
    _, events = analyze("return this.m(n - 1);", params=["n"], method="m")
    assert ("recursion", 0) in events


def test_other_object_call_is_not_recursion():
    _, events = analyze("return peer.m(n);", params=["peer", "n"], method="m")
    assert all(e[0] != "recursion" for e in events)


def test_lambda_body_nests():
    body = "r = () -> { if (a) { } };"
    _, events = analyze(body)
    assert events == [("if", 1)]


def test_anonymous_class_body_nests():
    body = "r = new Runnable() { public void run() { if (a) { } } };"
    _, events = analyze(body)
    assert [e for e in events if e[0] == "if"] == [("if", 2)]


def test_condition_evaluates_at_construct_depth():
    # ternary inside an if condition is at the if's own depth
    _, events = analyze("if (a ? b : c) { }")
    assert ("if", 0) in events
    assert ("ternary", 0) in events


def test_nested_events_strictly_deeper():
    body = "if (a) { while (b) { switch (t) { case 1: try { f(); } catch (E e) { g(); } } } }"
    _, events = analyze(body, params=["t"])
    order = [e for e in events if e[0] in ("if", "loop", "switch", "catch")]
    depths = [d for _, d in order]
    assert depths == sorted(depths) and len(set(depths)) == len(depths)


def test_labeled_statement_parses():
    kinds, _ = analyze("outer: for (int i = 0; i < 3; i++) { continue outer; }")
    assert kinds["loop"] == 1
