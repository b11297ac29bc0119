"""classaudit: cohesion/complexity audit of Java classes by naming group.

The library parses Java source (or ingests a pre-computed metrics CSV),
computes LCOM5, NHD, cyclomatic and cognitive complexity per class, splits
classes into naming groups (agent-noun -er/-or, *Utils, rest), applies
outlier filtering, and aggregates per-group statistics with table and
bar-chart rendering. See README.md for the CLI and demos.
"""

from .classify import SuffixRules, classify
from .javamodel import parse_compilation_unit
from .metrics import class_metrics
from .pipeline import aggregate_groups, filter_records
from .report import emit_chart_data, render_tables

__version__ = "0.1.0"

__all__ = [
    "SuffixRules",
    "aggregate_groups",
    "class_metrics",
    "classify",
    "emit_chart_data",
    "filter_records",
    "parse_compilation_unit",
    "render_tables",
]
