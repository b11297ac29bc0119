"""Formula-level tests for the metrics engine, plus invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from classaudit.javamodel import parse_compilation_unit
from classaudit.javamodel.model import MethodView, SourceClass
from classaudit.metrics import class_metrics, lcom5, method_cc, method_coco, nhd


def make_class(n_attrs, accesses, param_types=None):
    """Synthetic class: accesses[i] = attribute-index set of method i."""
    attrs = [f"a{i}" for i in range(n_attrs)]
    param_types = param_types or [[] for _ in accesses]
    methods = [
        MethodView(
            name=f"m{i}",
            parameter_types=list(types),
            accessed_attributes={f"a{j}" for j in used},
            events=[],
        )
        for i, (used, types) in enumerate(zip(accesses, param_types))
    ]
    return SourceClass(
        name="S", qualified_name="S", attributes=attrs, methods=methods,
        has_static_member=False, line_span=(1, 1), loc=1, blank_lines=0,
    )


# ---- LCOM5 ------------------------------------------------------------------

def test_lcom5_perfect_cohesion_is_zero():
    cls = make_class(1, [{0}, {0}])
    assert lcom5(cls) == 0.0


def test_lcom5_one_attribute_per_method_is_one():
    cls = make_class(2, [{0}, {1}])
    assert lcom5(cls) == 1.0


def test_lcom5_untouched_attribute_hits_upper_bound():
    cls = make_class(1, [set(), set()])
    k = 2
    assert lcom5(cls) == k / (k - 1) == 2.0


def test_lcom5_undefined_cases():
    assert lcom5(make_class(0, [{0}, {0}])) is None  # l = 0
    assert lcom5(make_class(2, [{0}])) is None  # k = 1
    assert lcom5(make_class(2, [])) is None  # k = 0


def test_lcom5_counts_no_field_from_an_initializer_type_argument():
    (cls,) = parse_compilation_unit(
        "class Tally {\n"
        "    Map<String, Integer> counts = new HashMap<String, Integer>();\n"
        "    int total;\n"
        "    void add(String k) { counts.put(k, 1); total++; }\n"
        "    int size() { return total; }\n"
        "}\n")
    assert cls.attributes == ["counts", "total"]
    assert lcom5(cls) == 0.5  # (k - sum a(m) / l) / (k - 1) = (2 - 3/2) / 1


def test_lcom5_never_negative_zero():
    value = lcom5(make_class(1, [{0}, {0}]))
    assert math.copysign(1.0, value) == 1.0


# ---- NHD --------------------------------------------------------------------

def test_nhd_identical_signatures_is_one():
    cls = make_class(0, [set(), set()], [["int"], ["int"]])
    assert nhd(cls) == 1.0


def test_nhd_disjoint_signatures_is_zero():
    cls = make_class(0, [set(), set()], [["A"], ["B"]])
    assert nhd(cls) == 0.0


def test_nhd_mixed_is_one_third():
    cls = make_class(0, [set()] * 3, [["int"], ["int"], ["String"]])
    assert abs(nhd(cls) - 1.0 / 3.0) <= 1e-12


def test_nhd_undefined_cases():
    assert nhd(make_class(0, [set()], [["int"]])) is None  # k < 2
    assert nhd(make_class(0, [set(), set()], [[], []])) is None  # l = 0


def test_nhd_duplicate_types_in_one_method_count_once():
    cls = make_class(0, [set(), set()], [["int", "int"], ["int"]])
    assert nhd(cls) == 1.0


# ---- CC / CoCo --------------------------------------------------------------

def method_with(events=None):
    return MethodView(
        name="m", parameter_types=[],
        accessed_attributes=set(),
        events=events or [],
    )


def test_method_cc_straight_line():
    assert method_cc(method_with()) == 1


def test_method_cc_one_if():
    assert method_cc(method_with([("if", 0)])) == 2


def test_method_cc_compound():
    events = [("loop", 0), ("if", 1), ("bool_run", 1)]
    assert method_cc(method_with(events)) == 4


def test_method_cc_counts_every_decision_kind_once_regardless_of_depth():
    events = [("if", 3), ("else_if", 3), ("loop", 0), ("case", 1), ("catch", 2),
              ("ternary", 4), ("bool_run", 0), ("bool_op", 5)]
    assert method_cc(method_with(events)) == 1 + 8


def test_method_cc_ignores_switch_else_and_recursion():
    events = [("switch", 0), ("else", 1), ("recursion", 2)]
    assert method_cc(method_with(events)) == 1


def test_method_coco_straight_line():
    assert method_coco(method_with()) == 0


def test_method_coco_single_if():
    assert method_coco(method_with(events=[("if", 0)])) == 1


def test_method_coco_nesting_sum():
    events = [("if", 0), ("loop", 1), ("if", 2)]
    assert method_coco(method_with(events=events)) == 1 + 2 + 3


def test_method_coco_flat_kinds_score_one():
    events = [("else_if", 3), ("else", 2), ("bool_run", 5), ("recursion", 4)]
    assert method_coco(method_with(events=events)) == 4


def test_method_coco_case_and_continued_operator_score_zero():
    events = [("switch", 1), ("case", 1), ("case", 1), ("bool_run", 0), ("bool_op", 0)]
    assert method_coco(method_with(events=events)) == 2 + 1


# ---- class_metrics ------------------------------------------------------------

def test_class_metrics_aggregation():
    cls = make_class(1, [{0}, {0}])
    cls.methods[0].events = []
    cls.methods[1].events = [("if", 0), ("loop", 1)]
    m = class_metrics(cls)
    assert m.coco_total == 3
    assert m.coco_avg == 1.5
    assert m.coco_min == 0
    assert m.coco_max == 3


def test_class_metrics_empty_class_undefined():
    cls = make_class(1, [])
    m = class_metrics(cls)
    assert m.lcom5 is None and m.nhd is None
    assert m.coco_avg is None and m.coco_min is None and m.coco_max is None
    assert m.cc_total == 0 and m.coco_total == 0
    assert m.has_undefined()


def test_constructor_contributes_nothing():
    code = "class A { int x; A() { if (true) { x = 1; } } int f() { return x; } }"
    cls = parse_compilation_unit(code)[0]
    m = class_metrics(cls)
    assert m.k == 1
    assert m.cc_total == 1
    assert m.coco_total == 0


# ---- invariants -----------------------------------------------------------------

@given(
    k=st.integers(min_value=2, max_value=6),
    l=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_lcom5_bounds(k, l, data):
    accesses = [
        data.draw(st.sets(st.integers(min_value=0, max_value=l - 1), max_size=l))
        for _ in range(k)
    ]
    value = lcom5(make_class(l, accesses))
    assert value is not None
    assert -1e-12 <= value <= k / (k - 1) + 1e-12


@given(
    k=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_nhd_in_unit_interval(k, data):
    pool = ["int", "long", "String", "Foo", "Bar"]
    param_types = [
        data.draw(st.lists(st.sampled_from(pool), max_size=3)) for _ in range(k)
    ]
    cls = make_class(0, [set() for _ in range(k)], param_types)
    value = nhd(cls)
    if value is not None:
        assert -1e-12 <= value <= 1 + 1e-12


def test_all_methods_touch_all_attributes_gives_zero():
    cls = make_class(3, [{0, 1, 2}, {0, 1, 2}, {0, 1, 2}])
    assert lcom5(cls) == 0.0


def test_adding_an_if_raises_cc_by_one_and_coco_by_depth_plus_one():
    base = "class A { int x; void f() { for (int i = 0; i < 9; i++) { x++; } } }"
    more = "class A { int x; void f() { for (int i = 0; i < 9; i++) { if (x > 2) { x++; } } } }"
    mb = class_metrics(parse_compilation_unit(base)[0])
    mm = class_metrics(parse_compilation_unit(more)[0])
    assert mm.cc_total == mb.cc_total + 1
    assert mm.coco_total == mb.coco_total + 1 + 1  # if sits at depth 1


def test_classmetrics_invariants_hold_on_every_fixture(metrics_dir, corpus_dir):
    for directory in (metrics_dir, corpus_dir):
        for path in sorted(directory.glob("*.java")):
            stack = list(parse_compilation_unit(path.read_text(), str(path)))
            while stack:
                cls = stack.pop()
                stack.extend(cls.nested)
                m = class_metrics(cls)
                assert m.cc_total >= m.k
                if m.lcom5 is not None:
                    assert -1e-12 <= m.lcom5 <= m.k / (m.k - 1) + 1e-12
                if m.nhd is not None:
                    assert -1e-12 <= m.nhd <= 1 + 1e-12
                if m.coco_avg is not None:
                    assert m.coco_min <= m.coco_avg <= m.coco_max
                    assert abs(m.coco_avg * m.k - m.coco_total) <= 1e-9


def test_analyze_body_reports_accesses_and_events():
    from classaudit.javamodel import analyze_body, tokenize

    toks = tokenize("if (a && b) { x = 1; } int y = 0; y++;")
    accessed, events = analyze_body(range(len(toks)), toks, {"x", "y"}, (), "")
    assert accessed == {"x"}
    assert events == [("if", 0), ("bool_run", 0)]


def test_metrics_invariant_under_renaming_and_reformatting():
    original = """
class A {
    int count;
    int limit;
    void bump(int step) {
        if (step > 0 && count + step <= limit) { count += step; }
    }
    int room() { return limit - count; }
}
"""
    renamed = (
        original.replace("count", "qqq")
        .replace("limit", "zzz")
        .replace("bump", "poke")
        .replace("step", "delta")
        .replace("room", "gap")
        .replace("A", "B")
    )
    squashed = " ".join(renamed.split())
    m1 = class_metrics(parse_compilation_unit(original)[0])
    m2 = class_metrics(parse_compilation_unit(squashed)[0])
    assert (m1.lcom5, m1.nhd, m1.cc_total, m1.coco_total) == (
        m2.lcom5, m2.nhd, m2.cc_total, m2.coco_total,
    )
    assert (m1.coco_avg, m1.coco_min, m1.coco_max) == (m2.coco_avg, m2.coco_min, m2.coco_max)
