"""`audit` command line: run the pipeline and print the report tables.

Exit codes: 0 success, 1 fatal configuration or I/O problem, 2 success but
more than 10% of the inputs had to be skipped.
"""

import argparse
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, TextIO

from ._record import Record
from .classify import EXCLUDED_TO_DROP, EXCLUDED_TO_REST, SuffixRules, load_rules
from .errors import AuditError, ConfigError
from .pipeline import (
    CAM_REQUIRED_KEYS,
    DEFAULT_CAM_COLUMN_MAP,
    Diagnostics,
    aggregate_groups,
    filter_records,
    ingest_cam_csv,
    ingest_sources,
)
from .report import emit_chart_data, render_tables

SKIP_RATE_EXIT_THRESHOLD = 0.10


class RunConfig(Record):
    __slots__ = ("mode", "inputs", "cam_map_path", "rules_path", "q_low", "q_high",
                 "excluded_to", "output_format", "charts_dir", "diagnostics_path")

    def __init__(
        self,
        mode: str,  # "source" | "cam"
        inputs: List[str],
        cam_map_path: Optional[str] = None,
        rules_path: Optional[str] = None,
        q_low: Fraction = Fraction(1, 100),
        q_high: Fraction = Fraction(99, 100),
        excluded_to: str = EXCLUDED_TO_REST,
        output_format: str = "text",
        charts_dir: Optional[str] = None,
        diagnostics_path: Optional[str] = None,
    ):
        self.mode = mode
        self.inputs = inputs
        self.cam_map_path = cam_map_path
        self.rules_path = rules_path
        self.q_low = q_low
        self.q_high = q_high
        self.excluded_to = excluded_to
        self.output_format = output_format
        self.charts_dir = charts_dir
        self.diagnostics_path = diagnostics_path

    def validate(self):
        if self.mode not in ("source", "cam"):
            raise ConfigError(f"unknown mode: {self.mode}")
        if not self.inputs:
            raise ConfigError("at least one --input is required")
        if not (0 <= self.q_low < self.q_high <= 1):
            raise ConfigError("quantile bounds must satisfy 0 <= q-low < q-high <= 1")
        if self.excluded_to not in (EXCLUDED_TO_REST, EXCLUDED_TO_DROP):
            raise ConfigError(f"unknown --excluded-to policy: {self.excluded_to}")
        if self.output_format not in ("text", "csv", "json"):
            raise ConfigError(f"unknown --format: {self.output_format}")


def run(config: RunConfig, out: TextIO = None, err: TextIO = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        config.validate()
        rules = load_rules(config.rules_path) if config.rules_path else SuffixRules()
        diag = Diagnostics()
        if config.mode == "source":
            records = list(
                ingest_sources(config.inputs, rules, config.excluded_to, diag)
            )
        else:
            column_map = _cam_column_map(config.cam_map_path)
            records = []
            for path in config.inputs:
                records.extend(
                    ingest_cam_csv(path, column_map, rules, config.excluded_to, diag)
                )
        outcome = filter_records(records, config.q_low, config.q_high)
        summaries = aggregate_groups(outcome.kept)
        style = (
            config.output_format == "text"
            and not os.environ.get("AUDIT_NO_COLOR")
            and hasattr(out, "isatty")
            and out.isatty()
        )
        out.write(
            render_tables(
                summaries,
                format=config.output_format,
                pipeline=outcome,
                skipped=diag.skipped,
                style=style,
            )
        )
        if config.charts_dir is not None:
            written = emit_chart_data(summaries, config.charts_dir)
            if not written:
                err.write("WARN no chart data: every group is empty\n")
        if config.diagnostics_path:
            with open(config.diagnostics_path, "w", encoding="utf-8") as fh:
                diag.write(fh)
        else:
            diag.write(err)
        if diag.skip_rate() > SKIP_RATE_EXIT_THRESHOLD:
            return 2
        return 0
    except (AuditError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1


def _cam_column_map(path: Optional[str]) -> Dict[str, str]:
    """The default CAM column map, updated from the `--cam-map` file at
    ``path`` if given. The file must be UTF-8 JSON holding one object that
    maps keys of CAM_REQUIRED_KEYS or `static` to column names; anything
    else raises ConfigError."""
    column_map = dict(DEFAULT_CAM_COLUMN_MAP)
    if path:
        import json  # only a --cam-map run reads JSON

        with open(path, "r", encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ConfigError(f"{path}: {exc}") from None
        if not (isinstance(overrides, dict)
                and all(isinstance(v, str) for v in overrides.values())):
            raise ConfigError(f"{path}: --cam-map must be a JSON object of column names")
        for key in overrides:
            if key not in CAM_REQUIRED_KEYS and key != "static":
                raise ConfigError(f"{path}: unknown --cam-map key {key!r}; the keys are "
                                  f"{', '.join(CAM_REQUIRED_KEYS)} and static")
        column_map.update(overrides)
    return column_map


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as `ConfigError` (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="audit",
        description="Cohesion/complexity audit of Java classes grouped by naming convention.",
    )
    parser.add_argument("--mode", required=True, choices=["source", "cam"],
                        help="analyze Java source trees or a pre-computed metrics CSV")
    parser.add_argument("--input", required=True, action="append", metavar="PATH",
                        dest="inputs",
                        help="source root (source mode) or CSV file (cam mode); repeatable")
    parser.add_argument("--cam-map", metavar="FILE", dest="cam_map_path",
                        help="JSON file mapping logical keys to CSV column names")
    parser.add_argument("--rules", metavar="FILE", dest="rules_path",
                        help="suffix rules file ([utils] / [exclude] sections)")
    parser.add_argument("--q-low", default="0.01", metavar="Q",
                        help="lower outlier quantile (default 0.01)")
    parser.add_argument("--q-high", default="0.99", metavar="Q",
                        help="upper outlier quantile (default 0.99)")
    parser.add_argument("--excluded-to", default=EXCLUDED_TO_REST,
                        choices=[EXCLUDED_TO_REST, EXCLUDED_TO_DROP],
                        help="where exclusion-suffixed names go (default rest)")
    parser.add_argument("--format", default="text", choices=["text", "csv", "json"],
                        dest="output_format")
    parser.add_argument("--charts", metavar="DIR", dest="charts_dir",
                        help="emit SVG bar charts plus their CSV data here")
    parser.add_argument("--diagnostics", metavar="FILE", dest="diagnostics_path",
                        help="write SKIP/WARN lines here instead of stderr")
    return parser


def config_from_args(argv: List[str]) -> RunConfig:
    fields = vars(build_arg_parser().parse_args(argv))
    try:
        q_low, q_high = Fraction(fields["q_low"]), Fraction(fields["q_high"])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"bad quantile value: --q-low={fields['q_low']} --q-high={fields['q_high']}"
        )
    fields.update(q_low=q_low, q_high=q_high)
    return RunConfig(**fields)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = config_from_args(argv)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
