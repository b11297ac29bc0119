"""Structural model of Java source: classes, members, control-flow facts."""

from .body import analyze_body
from .model import AttributeDecl, MethodView, SourceClass
from .parser import count_loc_and_blank, parse_compilation_unit
from .tokens import Token, tokenize

__all__ = [
    "AttributeDecl",
    "MethodView",
    "SourceClass",
    "Token",
    "analyze_body",
    "count_loc_and_blank",
    "parse_compilation_unit",
    "tokenize",
]
