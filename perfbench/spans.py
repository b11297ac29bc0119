"""Spans around classaudit's layer boundaries, recorded from outside.

`Tracer.install()` rebinds the module attributes through which one layer
calls the next (for example ``classaudit.pipeline.parse_compilation_unit``)
to wrappers that record a span per call, and restores them on exit; the
program's own files are not changed. Spans stay in memory as
``[name, start, end, parent]`` and are written out once, at the end.
"""

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from typing import Dict, List

# The attribute through which each layer is called, its span name, and
# what to count when the call returns.
_BINDINGS = (
    ("classaudit.javamodel.parser", "tokenize", "tokens", "tokens"),
    ("classaudit.javamodel.parser", "analyze_body", "body", "body_tokens"),
    ("classaudit.javamodel.parser", "count_loc_and_blank", "parser.loc", None),
    ("classaudit.pipeline", "parse_compilation_unit", "parser", "classes"),
    ("classaudit.pipeline", "class_metrics", "metrics", None),
    ("classaudit.pipeline", "classify", "classify", None),
    ("classaudit.pipeline", "ingest_sources", "pipeline.ingest", "records"),
    ("classaudit.cli", "ingest_sources", "pipeline.ingest", "records"),
    ("classaudit.cli", "ingest_cam_csv", "pipeline.ingest", "records"),
    ("classaudit.cli", "filter_records", "pipeline.filter", "filter"),
    ("classaudit.cli", "aggregate_groups", "pipeline.aggregate", None),
    ("classaudit.cli", "render_tables", "report.render", "rendered"),
    ("classaudit.cli", "emit_chart_data", "report.charts", "charts"),
)


def _count_classes(classes) -> int:
    return sum(1 + _count_classes(c.nested) for c in classes)


def _diagnostics(args, kwargs):
    from classaudit.pipeline import Diagnostics

    for value in list(args) + list(kwargs.values()):
        if isinstance(value, Diagnostics):
            return value
    return None


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def reset(self):
        self.spans = []
        self.counts.clear()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, what):
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if what == "tokens":
                counts["tokens.tokens"] += len(result)
            elif what == "body_tokens":
                counts["body.tokens_in"] += len(args[0])
            elif what == "classes":
                counts["parser.classes"] += _count_classes(result)
            elif what == "filter":
                counts["pipeline.kept"] += result.output_count
                counts["pipeline.dropped_metric"] += result.dropped_by_metric
                counts["pipeline.dropped_quantile"] += result.dropped_by_quantile
                counts["pipeline.dropped_label"] += result.dropped_by_label
            elif what == "rendered":
                counts["report.bytes_out"] += len(result.encode("utf-8"))
            elif what == "charts":
                counts["report.bytes_out"] += sum(os.path.getsize(p) for p in result)
            return result

        def traced_generator(*args, **kwargs):
            diag = _diagnostics(args, kwargs)
            skipped_before = diag.skipped if diag is not None else 0
            counts[name + ".calls"] += 1
            span = self._open(name)
            records = 0
            try:
                for record in fn(*args, **kwargs):
                    records += 1
                    yield record
            finally:
                self._close(span)
                counts["pipeline.records"] += records
                if diag is not None:
                    counts["pipeline.skipped"] += diag.skipped - skipped_before

        # ingest_* are generators: their span lasts while they are consumed
        return traced_generator if name == "pipeline.ingest" else traced

    @contextmanager
    def install(self):
        """Rebind every layer boundary to a tracing wrapper while inside."""
        import importlib

        saved = []
        try:
            for module_name, attr, name, what in _BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, what))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_times(self, wall: float) -> Dict[str, float]:
        """Busy and self seconds per span name for the spans recorded since
        the last reset, plus ``cli.self_s``: the wall time no span covers."""
        busy: Counter = Counter()
        child: Counter = Counter()
        roots = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            busy[name] += duration
            if parent < 0:
                roots += duration
            else:
                child[parent] += duration
        own: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            own_time = (end - start) - child[index]
            if own_time < -1e-6:
                raise RuntimeError(f"span {index} ({name}) is shorter than its children")
            own[name] += own_time
        times = {f"{name}.busy": busy[name] for name in busy}
        times.update({f"{name}.self": own[name] for name in own})
        times["cli.self"] = wall - roots
        if times["cli.self"] < -1e-6:
            raise RuntimeError("spans cover more than the traced wall time")
        return times


def write_spans(spans: List[list], path: str):
    """Write spans as JSON lines, times relative to the first span."""
    base = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, round(start - base, 9), round(end - base, 9), parent]) + "\n")


class Laps:
    """Calibration slices inside an untraced `audit` run.

    `install()` rebinds ``classaudit.cli.ingest_sources`` and
    ``.ingest_cam_csv`` to a pass-through that calls `on_lap` when ingest
    starts and after every `every` records, so that the host's speed is
    sampled all through the run (see calibrate.py).
    """

    def __init__(self, every: int, on_lap):
        self.every = every
        self.on_lap = on_lap

    def _wrap(self, fn):
        every, on_lap = self.every, self.on_lap

        def lapped(*args, **kwargs):
            records = iter(fn(*args, **kwargs))
            while True:
                on_lap()
                chunk = list(islice(records, every))
                if not chunk:
                    return
                yield from chunk

        return lapped

    @contextmanager
    def install(self):
        from classaudit import cli

        saved = [(attr, getattr(cli, attr)) for attr in ("ingest_sources", "ingest_cam_csv")]
        try:
            for attr, original in saved:
                setattr(cli, attr, self._wrap(original))
            yield self
        finally:
            for attr, original in saved:
                setattr(cli, attr, original)
