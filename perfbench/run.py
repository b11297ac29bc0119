"""classaudit benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a classaudit checkout; the program is imported from
its ``src`` directory and driven through its public entry points
(``cli.run`` and ``pipeline.ingest_sources``). Every run is a closed loop in
one process: one pass over the workload's inputs at a time, no threads.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See NOTES.md for
why each workload exists.
"""

import argparse
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
WORK = os.path.join(ROOT, ".perfbench_work")

import calibrate  # noqa: E402  (sibling modules; HERE is sys.path[0])
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Laps, Tracer, write_spans  # noqa: E402

WORKLOADS = ("corpus", "shapes", "cam")
FULL_SIZE = {"corpus": 3000, "cam": 40_000, "shapes": 1.0}
SMOKE_SIZE = {"corpus": 40, "cam": 400, "shapes": 0.05}
MIN_PASSES = 3
# Records between two calibration slices of an untraced `audit` run:
# about 20 slices per pass.
LAP_RECORDS = {"corpus": 200, "cam": 2000}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "output_ok": "bool",
}
PER_LAYER_UNITS = {
    "tokens.busy_s": "s", "tokens.calls": "count", "tokens.tokens": "count",
    "tokens.tokens_per_s": "1/s",
    "parser.self_s": "s", "parser.calls": "count", "parser.classes": "count",
    "parser.loc_s": "s", "parser.loc_calls": "count",
    "body.busy_s": "s", "body.calls": "count", "body.tokens_in": "count",
    "metrics.busy_s": "s", "metrics.calls": "count",
    "classify.busy_s": "s", "classify.calls": "count",
    "pipeline.ingest_self_s": "s", "pipeline.records": "count", "pipeline.skipped": "count",
    "pipeline.filter_s": "s", "pipeline.aggregate_s": "s", "pipeline.kept": "count",
    "pipeline.dropped_metric": "count", "pipeline.dropped_quantile": "count",
    "pipeline.dropped_label": "count",
    "report.render_s": "s", "report.charts_s": "s", "report.bytes_out": "bytes",
    "cli.self_s": "s", "trace.overhead_share": "share",
    "growth.classes_per_file": "ratio", "growth.fields_per_class": "ratio",
    "growth.paren_depth": "ratio", "growth.if_depth": "ratio",
    "growth.method_length": "ratio",
}
# Per-layer times: metric name -> key of Tracer.layer_times().
_LAYER_TIMES = {
    "tokens.busy_s": "tokens.busy",
    "parser.self_s": "parser.self",
    "parser.loc_s": "parser.loc.busy",
    "body.busy_s": "body.busy",
    "metrics.busy_s": "metrics.busy",
    "classify.busy_s": "classify.busy",
    "pipeline.ingest_self_s": "pipeline.ingest.self",
    "pipeline.filter_s": "pipeline.filter.busy",
    "pipeline.aggregate_s": "pipeline.aggregate.busy",
    "report.render_s": "report.render.busy",
    "report.charts_s": "report.charts.busy",
    "cli.self_s": "cli.self",
}
# Per-layer counts: metric name -> Tracer.counts key.
_LAYER_COUNTS = {
    "tokens.calls": "tokens.calls", "tokens.tokens": "tokens.tokens",
    "parser.calls": "parser.calls", "parser.classes": "parser.classes",
    "parser.loc_calls": "parser.loc.calls",
    "body.calls": "body.calls", "body.tokens_in": "body.tokens_in",
    "metrics.calls": "metrics.calls", "classify.calls": "classify.calls",
    "pipeline.records": "pipeline.records", "pipeline.skipped": "pipeline.skipped",
    "pipeline.kept": "pipeline.kept", "pipeline.dropped_metric": "pipeline.dropped_metric",
    "pipeline.dropped_quantile": "pipeline.dropped_quantile",
    "pipeline.dropped_label": "pipeline.dropped_label",
    "report.bytes_out": "report.bytes_out",
}


class Unrunnable(Exception):
    """The benchmark cannot run here (for example, no classaudit sources)."""


@dataclass
class PassResult:
    wall: float
    records: int
    failed: int
    problems: List[str]
    probe_times: Dict[str, float] = field(default_factory=dict)
    # Mean seconds per calibration unit during the pass; 0 when the pass
    # ran no calibration slices (traced passes do not).
    unit_s: float = 0.0


# ---- inputs and passes --------------------------------------------------------


def generate(workload: str, seed: int, out: str, size) -> workloads.Inputs:
    if workload == "corpus":
        return workloads.make_corpus(out, seed, size, FIXTURES)
    if workload == "shapes":
        return workloads.make_shapes(out, seed, size)
    return workloads.make_cam(out, seed, size)


def _cli_argv(inputs: workloads.Inputs, chart_dir: str) -> List[str]:
    if inputs.workload == "corpus":
        return ["--mode=source", f"--input={inputs.root}", "--format=json", f"--charts={chart_dir}"]
    return ["--mode=cam", f"--input={inputs.cam_csv}", f"--cam-map={inputs.cam_map}",
            "--format=json"]


def cli_pass(inputs: workloads.Inputs, chart_dir: str, expected: Optional[dict],
             calibrated: bool) -> PassResult:
    """One `audit` run through cli.run; checked when `expected` is given.
    When `calibrated`, calibration slices run during ingest and after the
    run, and `wall` excludes them."""
    from classaudit import cli

    shutil.rmtree(chart_dir, ignore_errors=True)
    config = cli.config_from_args(_cli_argv(inputs, chart_dir))
    out, err = io.StringIO(), io.StringIO()
    calibration = calibrate.Calibration()
    laps = Laps(LAP_RECORDS[inputs.workload], calibration.slice)
    error = None
    with (laps.install() if calibrated else nullcontext()):
        start = time.perf_counter()
        try:
            code = cli.run(config, out=out, err=err)
        except Exception as exc:  # an escaping error fails every operation
            error = exc
        wall = time.perf_counter() - start - calibration.seconds
    unit_s = 0.0
    if calibrated:
        calibration.slice()  # the host's speed during the run's tail, too
        unit_s = calibration.unit_s()
    if error is not None:
        return PassResult(wall, 0, inputs.operations, [f"audit raised {error!r}"], {}, unit_s)
    skips = sum(1 for line in err.getvalue().splitlines() if line.startswith("SKIP "))
    problems = [] if code == 0 else [f"audit exited {code}"]
    problems += [f"diagnostics: {line}" for line in err.getvalue().splitlines()[:5]]
    try:
        printed = json.loads(out.getvalue())
        records = printed["pipeline"]["input"]
    except (ValueError, KeyError, TypeError) as exc:
        return PassResult(wall, 0, skips, problems + [f"unreadable report: {exc!r}"], {}, unit_s)
    if expected is not None:
        problems += reference.report_mismatches(expected, printed, "report")
        if inputs.workload == "corpus":
            problems += reference.chart_mismatches(expected, chart_dir)
    return PassResult(wall, records, skips, problems, {}, unit_s)


def shapes_pass(inputs: workloads.Inputs, check: bool, calibrated: bool) -> PassResult:
    """Every probe through ingest_sources, one at a time. When
    `calibrated`, a calibration slice runs before each probe and after the
    last; `wall` is the probes' time alone."""
    from classaudit import pipeline

    outcomes = []
    probe_times = {}
    calibration = calibrate.Calibration()
    for probe in inputs.probes:
        if calibrated:
            calibration.slice()
        diag = pipeline.Diagnostics()
        t0 = time.perf_counter()
        try:
            records = list(pipeline.ingest_sources([probe.path], diagnostics=diag))
            error = None
        except Exception as exc:  # a crash probe's RecursionError lands here
            records, error = [], exc
        probe_times[f"{probe.shape}:{probe.size}:{probe.crash_probe}"] = time.perf_counter() - t0
        outcomes.append((probe, records, error, diag.skipped))
    wall = sum(probe_times.values())
    if calibrated:
        calibration.slice()
    failed = 0
    problems: List[str] = []
    for probe, records, error, skipped in outcomes:
        if error is not None or skipped:
            failed += 1
            continue
        if check:
            if len(records) != len(probe.classes):
                problems.append(f"{probe.path}: {len(records)} records, expected {len(probe.classes)}")
                continue
            for want, got in zip(probe.classes, records):
                problems += reference.record_mismatches(want, got)
    return PassResult(wall, sum(len(r) for _, r, _, _ in outcomes), failed, problems, probe_times,
                      calibration.unit_s() if calibrated else 0.0)


def one_pass(inputs: workloads.Inputs, chart_dir: str, expected,
             calibrated: bool = False) -> PassResult:
    """One pass over the inputs; checked unless `expected` is None, and
    with calibration slices when `calibrated`."""
    if inputs.workload == "shapes":
        return shapes_pass(inputs, expected is not None, calibrated)
    return cli_pass(inputs, chart_dir, expected, calibrated)


# ---- measurements -------------------------------------------------------------


def time_setup() -> float:
    """Wall time for a fresh interpreter to import classaudit.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import classaudit.cli"],
                   env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_peak_rss(workload: str, inputs_root: str, chart_dir: str) -> float:
    """Peak resident MB of one pass in a fresh interpreter, so earlier
    passes in this process cannot inflate it."""
    command = [sys.executable, os.path.join(HERE, "rss_pass.py"), workload, inputs_root, chart_dir]
    done = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
    return float(done.stdout.strip().splitlines()[-1])


def _growth(probe_times: List[Dict[str, float]], inputs: workloads.Inputs) -> Dict[str, float]:
    """Each shape's time ratio between its two largest sizes, each size
    timed by its fastest pass."""
    growth = {}
    for shape in workloads.SHAPE_SIZES:
        sizes = sorted({p.size for p in inputs.probes if p.shape == shape and not p.crash_probe})
        times = [min(t[f"{shape}:{s}:False"] for t in probe_times) for s in sizes[-2:]]
        growth[f"growth.{shape}"] = times[1] / times[0] if len(times) == 2 and times[0] else 0.0
    return growth


def calibrated_wall(passes: List[PassResult]) -> float:
    """A pass's wall time at the reference host's speed: the median over
    passes of the pass's time in calibration units, times the unit's
    reference time."""
    return statistics.median(p.wall / p.unit_s for p in passes) * calibrate.UNIT_S


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, size) -> dict:
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, size, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, size, run_dir) -> dict:
    inputs = generate(workload, seed, os.path.join(run_dir, "inputs"), size)
    chart_dir = os.path.join(run_dir, "charts")
    print(f"inputs {workload} seed={seed} sha256={workloads.content_hash(inputs.root)}",
          file=sys.stderr)
    # What a checked pass compares against: the report table, or for
    # shapes the probes' stated classes.
    expected = inputs.probes if workload == "shapes" else reference.expected_report(inputs.classes)

    problems: List[str] = []
    failed = 0
    metrics: Dict[str, float] = {}
    setup_times: List[float] = []
    if not trace:
        time_setup()  # writes the bytecode caches, which later `audit` calls reuse

    def measured(result: PassResult):
        nonlocal failed
        problems.extend(result.problems)
        failed = max(failed, result.failed)
        return result

    gc.collect()
    measured(one_pass(inputs, chart_dir, expected))  # warm-up, checked
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    counts_seen: List[dict] = []
    tracer = Tracer()
    fastest_traced = None  # (pass, its layer times, its spans)
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(untraced) < MIN_PASSES
           or (trace and len(traced) < MIN_PASSES)):
        gc.collect()
        untraced.append(measured(one_pass(inputs, chart_dir, expected, calibrated=True)))
        if not trace:
            # one set-up sample per pass spreads them over the whole run
            setup_times.append(time_setup())
        else:
            tracer.reset()
            gc.collect()
            with tracer.install():
                result = measured(one_pass(inputs, chart_dir, expected))
            traced.append(result)
            counts_seen.append(dict(tracer.counts))
            times = tracer.layer_times(result.wall)
            if fastest_traced is None or result.wall < fastest_traced[0].wall:
                fastest_traced = (result, times, tracer.spans)

    fastest = min(untraced, key=lambda r: r.wall)
    if trace:
        if any(c != counts_seen[0] for c in counts_seen):
            problems.append("per-layer counts differ between identical passes")
        result, times, spans = fastest_traced
        for name, key in _LAYER_TIMES.items():
            metrics[name] = times.get(key, 0.0)
        for name, key in _LAYER_COUNTS.items():
            metrics[name] = counts_seen[-1].get(key, 0)
        tokens_busy = times.get("tokens.busy", 0.0)
        metrics["tokens.tokens_per_s"] = metrics["tokens.tokens"] / tokens_busy if tokens_busy else 0.0
        metrics["trace.overhead_share"] = result.wall / fastest.wall - 1.0
        growth = dict.fromkeys((n for n in PER_LAYER_UNITS if n.startswith("growth.")), 0.0)
        if workload == "shapes":
            growth.update(_growth([r.probe_times for r in untraced], inputs))
        metrics.update(growth)
        write_spans(spans, os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl"))
        units = PER_LAYER_UNITS
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["wall_s"] = calibrated_wall(untraced)
        metrics["records_per_s"] = untraced[-1].records / metrics["wall_s"]
        metrics["peak_rss_mb"] = measure_peak_rss(workload, inputs.root, chart_dir)
        metrics["ok_share"] = 1.0 - failed / inputs.operations
        metrics["output_ok"] = 0 if problems else 1
        units = END_TO_END_UNITS
    for line in problems[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    in_units = [r.wall / r.unit_s for r in untraced]
    print(f"passes untraced={len(untraced)} traced={len(traced)}"
          f" fastest={fastest.wall:.4f}s median={statistics.median(r.wall for r in untraced):.4f}s"
          f" units min={min(in_units):.1f} median={statistics.median(in_units):.1f}"
          f" unit_s median={statistics.median(r.unit_s for r in untraced) * 1e3:.3f}ms",
          file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": inputs.operations,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


# ---- smoke mode -----------------------------------------------------------------


def smoke() -> List[str]:
    """Tiny run of every workload in both modes, plus the generator check.

    Prints every metric of every run with its unit, and returns the
    problems found; empty means the smoke run passed.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = generator_check()
    for entry in spec["workloads"]:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_benchmark(entry["name"], 1, 0, trace, SMOKE_SIZE[entry["name"]])
            label = f"{entry['name']} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{label}: outputs incorrect")
            printed = result["metrics"]
            for name, metric in printed.items():
                print(f"{label} {name} = {metric['value']:.6g} {metric['unit']}")
            extra = set(printed) - {metric["name"] for metric in spec[section]}
            if extra:
                problems.append(f"{label}: printed metrics not in BENCHMARK.json: {sorted(extra)}")
            for metric in spec[section]:
                got = printed.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} [{metric['unit']}] printed as {got}")
    return problems


def generator_check() -> List[str]:
    """Same seed -> byte-identical inputs; another seed -> different ones."""
    problems = []
    base = os.path.join(WORK, f"gencheck-{os.getpid()}")
    try:
        for workload in WORKLOADS:
            hashes = []
            for copy, seed in enumerate((7, 7, 8)):
                out = os.path.join(base, f"{workload}-{copy}")
                generate(workload, seed, out, SMOKE_SIZE[workload])
                hashes.append(workloads.content_hash(out))
            if hashes[0] != hashes[1]:
                problems.append(f"{workload}: seed 7 gave two different input sets")
            if hashes[0] == hashes[2]:
                problems.append(f"{workload}: seeds 7 and 8 gave identical inputs")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return problems


# ---- entry point ------------------------------------------------------------------


def check_checkout():
    for path in (os.path.join(SRC, "classaudit", "cli.py"), FIXTURES):
        if not os.path.exists(path):
            raise Unrunnable(f"not a classaudit checkout: {path} is missing")
    sys.path.insert(0, SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks every metric is printed")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        check_checkout()
    except Unrunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        problems = smoke()
        for line in problems:
            print(f"SMOKE {line}", file=sys.stderr)
        print("smoke: " + ("FAIL" if problems else "ok"))
        return 1 if problems else 0
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           FULL_SIZE[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
