"""Acceptance gate: one test per criterion, one printed line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line per
criterion (pytest -v alone also shows one line per criterion by test name).
Criterion 6 needs the full CAM 2023-10-22 dataset and self-skips when it is
not present (CAM_DATASET_CSV env var or tests/data/cam-2023-10-22.csv).
"""

import io
import json
import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from classaudit.classify import (
    DEFAULT_EXCLUSION_SUFFIXES,
    DEFAULT_UTILS_SUFFIXES,
    GroupKind,
    GroupLabel,
    SuffixRules,
    classify,
)
from classaudit.cli import RunConfig, run
from classaudit.javamodel import parse_compilation_unit
from classaudit.metrics import ClassMetrics, class_metrics, method_cc
from classaudit.pipeline import (
    ClassRecord,
    DEFAULT_CAM_COLUMN_MAP,
    aggregate_groups,
    filter_records,
    ingest_cam_csv,
)
from classaudit.report import render_tables

from cfg_oracle import DoWhile, Foreach, If, Stmt, Switch, Try, While, oracle_cc

FIXTURES = Path(__file__).parent / "fixtures"


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _close(got, want, tol=1e-12):
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= tol


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_metric_oracle_suite(expected_metrics, metrics_dir):
    started = time.perf_counter()
    entries = expected_metrics["classes"]
    assert len(entries) >= 12
    mismatches = []
    for exp in entries:
        source = (metrics_dir / exp["file"]).read_text()
        units = {c.name: c for c in parse_compilation_unit(source, exp["file"])}
        cls = units[exp["class"]]
        m = class_metrics(cls)
        pairs = [
            ("lcom5", m.lcom5, exp["lcom5"]),
            ("nhd", m.nhd, exp["nhd"]),
            ("cc_total", m.cc_total, exp["cc_total"]),
            ("coco_total", m.coco_total, exp["coco_total"]),
            ("coco_avg", m.coco_avg, exp["coco_avg"]),
            ("coco_min", m.coco_min, exp["coco_min"]),
            ("coco_max", m.coco_max, exp["coco_max"]),
        ]
        for field, got, want in pairs:
            if isinstance(want, float) or isinstance(got, float):
                ok = _close(got, want)
            else:
                ok = got == want
            if not ok:
                mismatches.append(f"{exp['class']}.{field}: got {got!r} want {want!r}")
    elapsed = time.perf_counter() - started
    report(
        1,
        not mismatches and elapsed < 1.0,
        f"{len(entries)} fixture classes match hand oracle to 1e-12 in {elapsed:.3f}s"
        + ("" if not mismatches else f"; mismatches: {mismatches}"),
    )


# ---------------------------------------------------------------- criterion 2

# Hand-built control-flow models mirroring each fixture method's source.
ORACLE_MODELS = {
    ("PerfectCohesion", "raise"): [Stmt()],
    ("PerfectCohesion", "read"): [Stmt()],
    ("SplitPair", "setLeft"): [Stmt()],
    ("SplitPair", "setRight"): [Stmt()],
    ("NoTouch", "one"): [Stmt()],
    ("NoTouch", "two"): [Stmt()],
    ("DisjointTypes", "acceptName"): [],
    ("DisjointTypes", "acceptCount"): [],
    ("MixedThirds", "add"): [Stmt()],
    ("MixedThirds", "subtract"): [Stmt()],
    ("MixedThirds", "rename"): [Stmt()],
    # if (step > 0 && count + step <= limit) -> two decomposed atoms
    ("GuardedCounter", "bump"): [If(2, [Stmt()])],
    # one ternary in the return expression
    ("GuardedCounter", "remaining"): [Stmt(preds=1)],
    ("NestedLoops", "sweep"): [
        Stmt(),
        If(1, [Foreach([Foreach([If(1, [Stmt()])])])]),
        Stmt(),
    ],
    ("BranchCascade", "describe"): [
        If(1, [Stmt()], els=[If(1, [Stmt()], els=[Stmt()])])
    ],
    ("BranchCascade", "weight"): [
        Switch(groups=[[Stmt()], [Stmt()]], has_default=True, default_body=[Stmt()])
    ],
    # recursion is an ordinary call node: no extra branch
    ("RetryHandler", "retry"): [If(1, [Stmt()]), Stmt(), Stmt()],
    ("RetryHandler", "drain"): [While(1, [Try([Stmt()], handlers=[[Stmt()]])])],
    ("StaticRegistry", "population"): [Stmt()],
    ("StaticRegistry", "tag"): [Stmt()],
    ("ShadowScope", "localWins"): [Stmt(), Stmt(), Stmt()],
    ("ShadowScope", "paramWins"): [Stmt()],
    ("ShadowScope", "lateLocal"): [Stmt(), Stmt(), Stmt()],
    # lambda body inlined into the enclosing method's flow
    ("LambdaNesting", "pruner"): [Foreach([If(1, [Stmt()])]), Stmt()],
    # armed && a && b || c || d && live -> five boolean operators
    ("OperatorRuns", "admit"): [Stmt(preds=5)],
    # !(a && b) || (armed || live) && a -> four boolean operators
    ("OperatorRuns", "reject"): [Stmt(preds=4)],
    ("PulseMeter", "throb"): [DoWhile([Stmt(), Stmt()])],
    # nested ternary: two predicate atoms
    ("PulseMeter", "gauge"): [Stmt(preds=2)],
}


def test_criterion_2_cc_brute_force_equivalence(metrics_dir):
    methods = {}
    for path in sorted(metrics_dir.glob("*.java")):
        for cls in parse_compilation_unit(path.read_text(), str(path)):
            for m in cls.methods:
                methods[(cls.name, m.name)] = m
    assert len(ORACLE_MODELS) >= 20
    mismatches = []
    for key, model in ORACLE_MODELS.items():
        got = method_cc(methods[key])
        want = oracle_cc(model)
        if got != want:
            mismatches.append(f"{key[0]}.{key[1]}: decision-count {got} != graph {want}")
    report(
        2,
        not mismatches,
        f"decision-count CC equals E-N+2 on {len(ORACLE_MODELS)} hand-built CFGs"
        + ("" if not mismatches else f"; mismatches: {mismatches}"),
    )


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_formula_edge_cases(metrics_dir):
    def metrics_of(filename, name):
        units = parse_compilation_unit((metrics_dir / filename).read_text(), filename)
        return class_metrics({c.name: c for c in units}[name])

    checks = []
    m = metrics_of("PerfectCohesion.java", "PerfectCohesion")
    checks.append(("lcom5=0", m.lcom5 == 0.0))
    m = metrics_of("SplitPair.java", "SplitPair")
    checks.append(("lcom5=1", m.lcom5 == 1.0))
    checks.append(("nhd=1", m.nhd == 1.0))
    m = metrics_of("NoTouch.java", "NoTouch")
    checks.append(("lcom5=k/(k-1)", m.lcom5 == 2.0))
    m = metrics_of("DisjointTypes.java", "DisjointTypes")
    checks.append(("nhd=0", m.nhd == 0.0))
    checks.append(("lcom5 undefined when l=0", m.lcom5 is None))
    m = metrics_of("NestedLoops.java", "NestedLoops")
    checks.append(("lcom5 undefined when k<=1", m.lcom5 is None))
    checks.append(("nhd undefined when k<2", m.nhd is None))
    m = metrics_of("PerfectCohesion.java", "PerfectCohesion")
    checks.append(("nhd undefined when l_types=0", m.nhd is None))
    bad = [label for label, ok in checks if not ok]
    report(3, not bad, f"{len(checks)} formula edge cases exact"
           + ("" if not bad else f"; failed: {bad}"))


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_classifier_exhaustive_and_fuzz():
    rules = SuffixRules()
    problems = []
    for word in DEFAULT_EXCLUSION_SUFFIXES:
        if classify(word, False, rules).kind is GroupKind.EROR:
            problems.append(f"{word} classified ErOr")
    for word in DEFAULT_UTILS_SUFFIXES:
        if classify(word, False, rules).kind is not GroupKind.UTILS:
            problems.append(f"{word} not Utils")

    def independent(name, static):
        if any(name.endswith(s) for s in DEFAULT_UTILS_SUFFIXES):
            return GroupKind.UTILS
        if (name.endswith("er") or name.endswith("or")) and len(name) > 2:
            if not any(name.endswith(s) for s in DEFAULT_EXCLUSION_SUFFIXES):
                return GroupKind.EROR
        return GroupKind.DROPPED if static else GroupKind.REST

    rng = random.Random(977)
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$"
    tails = ("", "er", "or", "Er", "Or") + DEFAULT_UTILS_SUFFIXES + DEFAULT_EXCLUSION_SUFFIXES
    violations = 0
    for _ in range(10_000):
        stem = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        name = stem + rng.choice(tails)
        static = rng.random() < 0.4
        label = classify(name, static, rules)
        one_label = isinstance(label, GroupLabel) and label.kind in GroupKind
        if not one_label or label.kind is not independent(name, static):
            violations += 1
    report(
        4,
        not problems and violations == 0,
        "41 exclusion words non-ErOr, 4 utils suffixes Utils, "
        f"10000-name fuzz partition violations={violations}"
        + ("" if not problems else f"; {problems}"),
    )


# ---------------------------------------------------------------- criterion 5

def _synthetic_record(i, ncloc, kind):
    return ClassRecord(
        qualified_name=f"p.C{i}",
        origin="synthetic",
        metrics=ClassMetrics(
            lcom5=(i % 7) / 7.0, nhd=(i % 5) / 5.0, cc_total=1 + i % 9,
            coco_total=i % 13, coco_avg=(i % 13) / 2.0,
            coco_min=i % 3, coco_max=i % 13, k=2, l_attr=1, l_types=1,
        ),
        loc=ncloc + 2,
        blank_lines=2,
        label=GroupLabel(kind),
    )


def test_criterion_5_pipeline_conservation_and_determinism():
    rng = random.Random(515)
    kinds = [GroupKind.EROR, GroupKind.UTILS, GroupKind.REST]
    nclocs = rng.sample(range(1, 50_001), 1000)  # distinct by construction
    records = [
        _synthetic_record(i, ncloc, kinds[i % 3]) for i, ncloc in enumerate(nclocs)
    ]
    outcome = filter_records(records)

    conserved = (
        outcome.input_count
        == outcome.output_count
        + outcome.dropped_by_metric
        + outcome.dropped_by_quantile
        + outcome.dropped_by_label
    )

    # independent enumeration of the nearest-rank boundary drops
    values = sorted(nclocs)
    n = len(values)
    lo = values[min(max(math.ceil(Fraction(1, 100) * n) - 1, 0), n - 1)]
    hi = values[min(max(math.ceil(Fraction(99, 100) * n) - 1, 0), n - 1)]
    expected_dropped = {r.qualified_name for r in records if r.ncloc < lo or r.ncloc > hi}
    actually_dropped = {r.qualified_name for r in records} - {
        r.qualified_name for r in outcome.kept
    }
    exact = actually_dropped == expected_dropped and outcome.dropped_by_metric == 0

    def full_report(rs):
        out = filter_records(rs)
        summaries = aggregate_groups(out.kept)
        return (
            render_tables(summaries, format="text", pipeline=out)
            + render_tables(summaries, format="csv", pipeline=out)
            + render_tables(summaries, format="json", pipeline=out)
        )

    shuffled = list(records)
    rng.shuffle(shuffled)
    deterministic = full_report(records) == full_report(shuffled)

    report(
        5,
        conserved and exact and deterministic,
        f"conservation {outcome.input_count}={outcome.output_count}+"
        f"{outcome.dropped_by_metric}+{outcome.dropped_by_quantile}+"
        f"{outcome.dropped_by_label}, boundary drops exactly enumerated "
        f"({len(expected_dropped)}), shuffled reports byte-identical",
    )


# ---------------------------------------------------------------- criterion 6

CAM_PATH = os.environ.get(
    "CAM_DATASET_CSV", str(Path(__file__).parent / "data" / "cam-2023-10-22.csv")
)

EXPECTED_COHESION = {  # group -> (lcom5, nhd)
    GroupKind.EROR: (0.835, 0.533),
    GroupKind.UTILS: (0.810, 0.566),
    GroupKind.REST: (0.704, 0.562),
}
EXPECTED_COMPLEXITY = {  # group -> (cc, coco, acoco, mxcoco, mncoco)
    GroupKind.EROR: (14.26, 20.106, 3.790, 9.327, 1.867),
    GroupKind.UTILS: (15.444, 20.931, 3.514, 8.194, 1.583),
    GroupKind.REST: (5.983, 7.731, 1.876, 3.627, 1.218),
}
EXPECTED_SIZES = {GroupKind.EROR: 5610, GroupKind.UTILS: 72, GroupKind.REST: 8179}


@pytest.mark.skipif(
    not os.path.exists(CAM_PATH),
    reason="CAM 2023-10-22 dataset not present (set CAM_DATASET_CSV); "
    "criteria 1-5 are the standing gate",
)
def test_criterion_6_cam_replication():
    column_map = dict(DEFAULT_CAM_COLUMN_MAP)
    map_override = os.environ.get("CAM_COLUMN_MAP")
    if map_override:
        column_map.update(json.loads(Path(map_override).read_text()))
    records = list(ingest_cam_csv(CAM_PATH, column_map))
    outcome = filter_records(records)
    summaries = {s.label: s for s in aggregate_groups(outcome.kept)}

    problems = []
    for kind, want in EXPECTED_SIZES.items():
        got = summaries[kind].class_count
        if got != want:
            problems.append(f"{kind.value} size {got} != {want}")
    for kind, (want_lcom5, want_nhd) in EXPECTED_COHESION.items():
        s = summaries[kind]
        if abs(s.lcom5_mean - want_lcom5) > 0.005:
            problems.append(f"{kind.value} lcom5 {s.lcom5_mean:.3f} != {want_lcom5}")
        if abs(s.nhd_mean - want_nhd) > 0.005:
            problems.append(f"{kind.value} nhd {s.nhd_mean:.3f} != {want_nhd}")
    for kind, wants in EXPECTED_COMPLEXITY.items():
        s = summaries[kind]
        gots = (s.cc_mean, s.coco_mean, s.acoco_mean, s.mxcoco_mean, s.mncoco_mean)
        for label, got, want in zip(("cc", "coco", "acoco", "mxcoco", "mncoco"), gots, wants):
            if abs(got - want) > 0.005:
                problems.append(f"{kind.value} {label} {got:.3f} != {want}")

    rest = summaries[GroupKind.REST]
    for kind in (GroupKind.EROR, GroupKind.UTILS):
        s = summaries[kind]
        if not (s.cc_mean >= 2.5 * rest.cc_mean and s.coco_mean >= 2.5 * rest.coco_mean):
            problems.append(f"{kind.value} complexity not 2.5x Rest")

    report(6, not problems, "large-corpus replication matches the reference values within 0.005"
           + ("" if not problems else f"; {problems}"))


# ---------------------------------------------------------------- criterion 7

class _Terminal(io.StringIO):
    """An output stream that says it is a terminal, as a styled run needs."""

    def isatty(self):
        return True


def test_criterion_7_golden_end_to_end(corpus_dir, golden_dir, tmp_path, monkeypatch):
    monkeypatch.delenv("AUDIT_NO_COLOR", raising=False)
    started = time.perf_counter()
    results = {}
    for fmt in ("text", "csv", "json"):
        out, err = io.StringIO(), io.StringIO()
        config = RunConfig(
            mode="source",
            inputs=[str(corpus_dir)],
            output_format=fmt,
            charts_dir=str(tmp_path / "charts") if fmt == "text" else None,
        )
        code = run(config, out=out, err=err)
        assert code == 0
        results[fmt] = out.getvalue()
    styled = _Terminal()
    assert run(RunConfig(mode="source", inputs=[str(corpus_dir)]),
               out=styled, err=io.StringIO()) == 0
    results["styled"] = styled.getvalue()
    elapsed = time.perf_counter() - started

    mismatches = []
    for key, name in (("text", "tables.txt"), ("csv", "tables.csv"),
                      ("json", "tables.json"), ("styled", "tables_styled.txt")):
        if results[key] != (golden_dir / name).read_text():
            mismatches.append(name)
    for stem in ("lcom5", "nhd", "coco", "cc"):
        for ext in ("csv", "svg"):
            got = (tmp_path / "charts" / f"{stem}.{ext}").read_bytes()
            want = (golden_dir / "charts" / f"{stem}.{ext}").read_bytes()
            if got != want:
                mismatches.append(f"charts/{stem}.{ext}")

    report(
        7,
        not mismatches and elapsed < 2.0,
        f"golden tables (plain and styled), chart CSVs and SVGs byte-identical in {elapsed:.3f}s"
        + ("" if not mismatches else f"; mismatches: {mismatches}"),
    )
