"""Structural model of Java source: classes, members, control-flow facts."""

from .body import analyze_body
from .model import MethodView, SourceClass
from .parser import count_loc_and_blank, parse_compilation_unit
from .tokens import tokenize

__all__ = [
    "MethodView",
    "SourceClass",
    "analyze_body",
    "count_loc_and_blank",
    "parse_compilation_unit",
    "tokenize",
]
