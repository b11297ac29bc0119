"""classaudit: cohesion/complexity audit of Java classes by naming group.

The library parses Java source (or ingests a pre-computed metrics CSV),
computes LCOM5, NHD, cyclomatic and cognitive complexity per class, splits
classes into naming groups (agent-noun -er/-or, *Utils, rest), applies
outlier filtering, and aggregates per-group statistics with table and
bar-chart rendering. See README.md for the CLI and demos.
"""

from .classify import GroupKind, GroupLabel, SuffixRules, classify, has_exclusion_suffix
from .errors import (
    AuditError,
    ConfigError,
    EmptyInput,
    MissingColumn,
    ParseError,
    RowParseError,
    SpanOutOfBounds,
)
from .javamodel import (
    AttributeDecl,
    MethodView,
    SourceClass,
    count_loc_and_blank,
    parse_compilation_unit,
)
from .metrics import ClassMetrics, class_metrics, lcom5, method_cc, method_coco, nhd
from .pipeline import (
    ClassRecord,
    Diagnostics,
    FilterOutcome,
    GroupSummary,
    aggregate_groups,
    filter_records,
    ingest_cam_csv,
    ingest_sources,
    quantile,
)
from .report import emit_chart_data, render_tables

__version__ = "0.1.0"

__all__ = [
    "AttributeDecl",
    "AuditError",
    "ClassMetrics",
    "ClassRecord",
    "ConfigError",
    "Diagnostics",
    "EmptyInput",
    "FilterOutcome",
    "GroupKind",
    "GroupLabel",
    "GroupSummary",
    "MethodView",
    "MissingColumn",
    "ParseError",
    "RowParseError",
    "SourceClass",
    "SpanOutOfBounds",
    "SuffixRules",
    "aggregate_groups",
    "class_metrics",
    "classify",
    "count_loc_and_blank",
    "emit_chart_data",
    "filter_records",
    "has_exclusion_suffix",
    "ingest_cam_csv",
    "ingest_sources",
    "lcom5",
    "method_cc",
    "method_coco",
    "nhd",
    "parse_compilation_unit",
    "quantile",
    "render_tables",
]
