"""Structural view of Java classes: just the facts the metrics consume.

Only ``class`` declarations (top-level and named nested, wherever they sit)
become units; interfaces, enums, records, annotation types, and anonymous
classes do not. That scope is a modeling decision, not something the input
format dictates: it keeps the attribute-based cohesion metrics well defined.
Constructors are excluded from the method list everywhere.

Each method carries a single list of ``(kind, depth)`` events from the body
walker, one per decision construct; cyclomatic and cognitive complexity are
both folds over that list (see ``metrics``).
"""

from dataclasses import dataclass, field
from typing import List, Set, Tuple


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    is_static: bool = False


# Event kinds, one per decision construct the body walker meets. CC counts
# the CC kinds; CoCo scores NESTING kinds 1 + depth, FLAT kinds 1, and the
# rest (case, bool_op) 0.
EVENT_IF = "if"
EVENT_LOOP = "loop"
EVENT_SWITCH = "switch"
EVENT_CASE = "case"
EVENT_CATCH = "catch"
EVENT_TERNARY = "ternary"
EVENT_ELSE_IF = "else_if"
EVENT_ELSE = "else"
EVENT_BOOL_RUN = "bool_run"  # `&&`/`||` that starts a run of one operator
EVENT_BOOL_OP = "bool_op"  # `&&`/`||` that continues the run
EVENT_RECURSION = "recursion"

CC_EVENT_KINDS = frozenset(
    {EVENT_IF, EVENT_ELSE_IF, EVENT_LOOP, EVENT_CASE, EVENT_CATCH,
     EVENT_TERNARY, EVENT_BOOL_RUN, EVENT_BOOL_OP}
)
NESTING_EVENT_KINDS = frozenset(
    {EVENT_IF, EVENT_LOOP, EVENT_SWITCH, EVENT_CATCH, EVENT_TERNARY}
)
FLAT_EVENT_KINDS = frozenset(
    {EVENT_ELSE_IF, EVENT_ELSE, EVENT_BOOL_RUN, EVENT_RECURSION}
)

Event = Tuple[str, int]  # (kind, structural nesting depth)


@dataclass
class MethodView:
    name: str
    is_static: bool
    parameter_types: List[str]
    accessed_attributes: Set[str]
    events: List[Event]  # in source order


@dataclass
class SourceClass:
    name: str
    qualified_name: str
    attributes: List[AttributeDecl]
    methods: List[MethodView]
    has_static_member: bool
    line_span: Tuple[int, int]  # 1-based inclusive
    loc: int
    blank_lines: int
    nested: List["SourceClass"] = field(default_factory=list)

    def attribute_names(self) -> Set[str]:
        return {a.name for a in self.attributes}
