"""`audit` command line: run the pipeline and print the report tables.

A run is configured by the argument parser's namespace
(`config_from_args`); `pipeline.load_cam_map` reads a `--cam-map` file.

Exit codes: 0 success, 1 fatal configuration or I/O problem, 2 success but
more than 10% of the inputs had to be skipped.
"""

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional, TextIO

from .classify import EXCLUDED_TO_DROP, EXCLUDED_TO_REST, SuffixRules, load_rules
from .errors import AuditError, ConfigError
from .pipeline import (
    Diagnostics,
    aggregate_groups,
    filter_records,
    ingest_cam_csv,
    ingest_sources,
    load_cam_map,
)
from .report import emit_chart_data, render_tables

SKIP_RATE_EXIT_THRESHOLD = 0.10


def run(config: argparse.Namespace, out: TextIO = None, err: TextIO = None) -> int:
    """One audit configured by ``config``, a `config_from_args` namespace."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        if not (0 <= config.q_low < config.q_high <= 1):
            raise ConfigError("quantile bounds must satisfy 0 <= q-low < q-high <= 1")
        _check_distinct(config.inputs)
        rules = load_rules(config.rules_path) if config.rules_path else SuffixRules()
        diag = Diagnostics()
        if config.mode == "source":
            records = list(
                ingest_sources(config.inputs, rules, config.excluded_to, diag)
            )
        else:
            column_map = load_cam_map(config.cam_map_path)
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


def _check_distinct(inputs: List[str]):
    """Raise ConfigError if an input, resolved with ``os.path.realpath``,
    is another input or lies inside one: its files would count twice.
    Roots are resolved, not the files under them."""
    resolved = []
    for given in inputs:
        real = os.path.realpath(given)
        for other, other_real in resolved:
            if real == other_real:
                raise ConfigError(f"--input {given} names the same path as --input {other}")
            if real.startswith(os.path.join(other_real, "")):
                raise ConfigError(f"--input {given} lies inside --input {other}")
            if other_real.startswith(os.path.join(real, "")):
                raise ConfigError(f"--input {other} lies inside --input {given}")
        resolved.append((given, real))


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


def config_from_args(argv: List[str]) -> argparse.Namespace:
    """The parsed arguments, with the quantile bounds as Fractions."""
    config = build_arg_parser().parse_args(argv)
    try:
        config.q_low, config.q_high = Fraction(config.q_low), Fraction(config.q_high)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad quantile value: --q-low={config.q_low} --q-high={config.q_high}")
    return config


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
