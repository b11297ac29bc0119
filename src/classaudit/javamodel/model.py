"""Structural view of Java classes: just the facts the metrics consume.

Only ``class`` declarations at the top level or among the members of a
type (a class, interface, enum, record or annotation type) become units;
interfaces, enums, records, annotation types, and local and anonymous
classes do not. That scope is a modeling decision, not something the input
format dictates: it keeps the attribute-based cohesion metrics well defined.
Constructors are excluded from the method list everywhere.

Each method carries a single list of ``(kind, depth)`` events from the body
walker, one per decision construct; cyclomatic and cognitive complexity are
both folds over that list (see ``metrics``).
"""

from typing import List, Optional, Tuple

from .._record import Record

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


class MethodView(Record):
    """A method's name, its list of parameter type names, the set of
    attribute names it accesses, and its list of Events in source order."""

    __slots__ = ("name", "parameter_types", "accessed_attributes", "events")


class SourceClass(Record):
    __slots__ = ("name", "qualified_name", "attributes", "methods", "has_static_member",
                 "line_span", "loc", "blank_lines", "nested")

    def __init__(self, name: str, qualified_name: str, attributes: List[str],
                 methods: List[MethodView], has_static_member: bool,
                 line_span: Tuple[int, int], loc: int, blank_lines: int,
                 nested: Optional[List["SourceClass"]] = None):
        self.name = name
        self.qualified_name = qualified_name
        self.attributes = attributes  # field names, in declaration order
        self.methods = methods
        self.has_static_member = has_static_member
        self.line_span = line_span  # 1-based inclusive
        self.loc = loc
        self.blank_lines = blank_lines
        self.nested = [] if nested is None else nested
