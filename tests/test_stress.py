"""One gnarly compilation unit exercising the lexer and parser together:
text blocks, switch expressions, multi-label arrow cases, try-with-resources,
multi-catch with pattern ternary, lambdas (bare and typed), anonymous
classes, labeled jumps, static/instance initializers, generic methods,
enum constant bodies, and classes nested in enums. Expected numbers were
worked out by hand from the source."""

from collections import Counter
from pathlib import Path

from classaudit.javamodel import parse_compilation_unit
from classaudit.metrics import method_cc, method_coco

SRC = (Path(__file__).parent / "fixtures" / "KitchenSink.java").read_text()


def flat(classes):
    out = []
    stack = list(classes)
    while stack:
        c = stack.pop(0)
        out.append(c)
        stack.extend(c.nested)
    return out


def test_units_found():
    names = {c.qualified_name for c in flat(parse_compilation_unit(SRC))}
    assert names == {
        "stress.test.KitchenSink",
        "stress.test.KitchenSink.Nested",
        "stress.test.Flavor.Hidden",  # enum itself is not a unit
    }


def test_kitchen_sink_members():
    ks = parse_compilation_unit(SRC)[0]
    assert ks.attributes == [
        "BANNER", "counter", "table", "sizes", "a", "b", "c", "armed"
    ]
    assert ks.has_static_member
    assert [m.name for m in ks.methods] == ["transform", "churn", "iterator"]


def test_churn_profile_hand_counted():
    ks = parse_compilation_unit(SRC)[0]
    churn = next(m for m in ks.methods if m.name == "churn")
    kinds = Counter(kind for kind, _ in churn.events)
    assert kinds["if"] + kinds["else_if"] == 3      # if, else-if, if-in-lambda
    assert kinds["loop"] == 4       # for, while, do, for-in-lambda
    assert kinds["case"] == 3       # `case 1, 2` counts once; defaults never
    assert kinds["catch"] == 2
    assert kinds["ternary"] == 2    # instanceof-guard ternary + return ternary
    assert kinds["bool_run"] + kinds["bool_op"] == 3
    assert method_cc(churn) == 18
    assert method_coco(churn) == 26
    assert churn.accessed_attributes == {"armed", "counter"}
    assert churn.parameter_types == ["int", "String..."]


def test_varargs_and_wildcard_types():
    ks = parse_compilation_unit(SRC)[0]
    transform = next(m for m in ks.methods if m.name == "transform")
    assert transform.parameter_types == [
        "java.util.function.Function<?superT,?extendsR>", "T"
    ]


def test_text_block_does_not_break_structure():
    ks = parse_compilation_unit(SRC)[0]
    assert ks.line_span[0] == 6  # @Deprecated line
    assert ks.attributes[0] == "BANNER"
