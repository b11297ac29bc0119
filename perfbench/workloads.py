"""Seeded input generators for the three benchmark workloads.

Every generator writes files under a directory it is given and returns a
description of what it wrote, including the expected outcome of each
operation computed from the generator's own knowledge of the input, never
from classaudit. The same seed always gives byte-identical files.

* ``corpus``: a tree of small files copied from the 20 hand-oracled
  fixtures, type names prefixed so the naming label is kept.
* ``shapes``: one probe directory per input, five shapes at three doubling
  sizes plus the two nesting-crash reproductions.
* ``cam``: one metrics CSV with a column map, names drawn from pools whose
  labels are stated by hand.
"""

import csv
import hashlib
import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

@dataclass
class ExpectedClass:
    """Stated outcome for one class; a metric of None means undefined."""

    name: str
    label: str  # "ErOr" | "Utils" | "Rest" | "Dropped"
    loc: int
    blank_lines: int
    metrics: Dict[str, Optional[float]]


@dataclass
class Probe:
    """One shapes operation: a directory holding exactly one .java file."""

    shape: str
    size: int
    path: str
    classes: List[ExpectedClass]
    crash_probe: bool = False


@dataclass
class Inputs:
    workload: str
    root: str
    operations: int
    classes: List[ExpectedClass] = field(default_factory=list)
    probes: List[Probe] = field(default_factory=list)
    cam_csv: str = ""
    cam_map: str = ""


METRIC_KEYS = ("lcom5", "nhd", "cc_total", "coco_total", "coco_avg", "coco_min", "coco_max")


def content_hash(root: str) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---- corpus ------------------------------------------------------------------

# Labels of the metric fixtures, worked out by hand from the naming rules
# (Utils suffix, then a lowercase er/or tail unless an excluded word, else
# Rest; Rest with a static member is Dropped). The corpus fixtures carry
# their labels in expected_corpus.json.
METRIC_FIXTURE_LABELS = {
    "PerfectCohesion": "Rest",
    "SplitPair": "Rest",
    "NoTouch": "Rest",
    "DisjointTypes": "Rest",
    "MixedThirds": "Rest",
    "GuardedCounter": "ErOr",
    "NestedLoops": "Rest",
    "BranchCascade": "Rest",
    "RetryHandler": "ErOr",
    "StaticRegistry": "Dropped",  # Rest name with a static member
    "ShadowScope": "Rest",
    "LambdaNesting": "Rest",
    "OperatorRuns": "Rest",
    "PulseMeter": "Rest",  # "Meter" is an excluded word
}

_TYPE_DECL = re.compile(r"\b(?:class|interface|enum|record)\s+([A-Za-z_]\w*)")
# Prefixes end in a digit, so a prefixed name keeps exactly the suffix, and
# therefore the label, of the original name.
_PREFIX_WORDS = ("Acme", "Core", "Data", "Net", "Io", "Ui", "App", "Svc")


def _oracle_classes(fixtures: str) -> Dict[str, List[dict]]:
    """Fixture file (relative to tests/fixtures) -> its oracle class entries."""
    by_file: Dict[str, List[dict]] = {}
    with open(os.path.join(fixtures, "metrics", "expected_metrics.json"), encoding="utf-8") as fh:
        for entry in json.load(fh)["classes"]:
            entry = dict(entry, label=METRIC_FIXTURE_LABELS[entry["class"]])
            by_file.setdefault("metrics/" + entry["file"], []).append(entry)
    with open(os.path.join(fixtures, "corpus", "expected_corpus.json"), encoding="utf-8") as fh:
        for entry in json.load(fh)["classes"]:
            by_file.setdefault("corpus/src/" + entry["file"], []).append(entry)
    return by_file


def _expected_from_oracle(entry: dict, name: str) -> ExpectedClass:
    return ExpectedClass(
        name=name,
        label=entry["label"],
        loc=entry["loc"],
        blank_lines=entry["blank_lines"],
        metrics={k: entry[k] for k in METRIC_KEYS},
    )


def make_corpus(out: str, seed: int, files: int, fixtures: str) -> Inputs:
    rng = random.Random(f"corpus:{seed}")
    oracle = _oracle_classes(fixtures)
    sources = {}
    for rel in sorted(oracle):
        with open(os.path.join(fixtures, rel), encoding="utf-8") as fh:
            sources[rel] = fh.read()
    # Every fixture is drawn equally often, so seeds differ in names, order
    # and layout but not in the work a pass does.
    picks = list(itertools.islice(itertools.cycle(sorted(sources)), files))
    rng.shuffle(picks)
    dirs = [f"mod{m:02d}/pkg{p}" for m in range(24) for p in range(4)]
    inputs = Inputs("corpus", out, operations=files)
    for i, rel in enumerate(picks):
        prefix = f"{rng.choice(_PREFIX_WORDS)}{i}"
        text = sources[rel]
        declared = sorted(set(_TYPE_DECL.findall(text)))
        pattern = re.compile(r"\b(" + "|".join(map(re.escape, declared)) + r")\b")
        text = pattern.sub(lambda m: prefix + m.group(1), text)
        stem = os.path.splitext(os.path.basename(rel))[0]
        _write(os.path.join(out, rng.choice(dirs), f"{prefix}{stem}.java"), text)
        for entry in oracle[rel]:
            inputs.classes.append(_expected_from_oracle(entry, prefix + entry["class"]))
    return inputs


# ---- shapes ------------------------------------------------------------------

# Doubling sizes per shape. The largest nesting sizes stay below the depth
# at which the body walker exhausts the interpreter stack (about 246 nested
# ifs, 987 parens) with room for the harness and tracing frames.
SHAPE_SIZES = {
    "classes_per_file": (150, 300, 600),
    "fields_per_class": (500, 1000, 2000),
    "paren_depth": (100, 200, 400),
    "if_depth": (40, 80, 160),
    "method_length": (1000, 2000, 4000),
}
# The two crash reproductions, each a class with one such method: 300
# nested ifs, and a 1000-paren expression. Both exceed the recursion limit
# today.
CRASH_PROBES = (("if_depth", 300), ("paren_depth", 1000))
NEST_METHODS = 8  # nesting methods per class, to lift probe times above noise


def _span(lines: List[str]):
    return len(lines), sum(1 for ln in lines if ln.strip() == "")


def _shape_classes_per_file(n: int):
    lines: List[str] = []
    classes = []
    for i in range(n):
        body = [
            f"class Probe{i}Handler {{",
            "    int a;",
            "    int b;",
            "    void set(int v) { a = v; }",
            "    int sum(int w) { if (w > 0) { return a + b; } return w; }",
            "}",
        ]
        loc, blank = _span(body)
        # k=2, l=2, a = 1 + 2 -> (3-4)/(2-4); both methods take int -> NHD 1;
        # CC 1 + (1 + if); CoCo one if at depth 0.
        classes.append(ExpectedClass(
            f"Probe{i}Handler", "ErOr", loc, blank,
            dict(lcom5=0.5, nhd=1.0, cc_total=3, coco_total=1, coco_avg=0.5,
                 coco_min=0, coco_max=1)))
        lines += body + [""]
    return lines, classes


def _shape_fields_per_class(n: int):
    body = ["class FieldHolder {"]
    body += [f"    int f{i} = {i};" for i in range(n)]
    body += [
        "",
        "    int first() {",
        "        return f0;",
        "    }",
        "",
        "    void second(int v) {",
        "        f1 = v;",
        "    }",
        "}",
    ]
    loc, blank = _span(body)
    # k=2, l=n, a=2 -> (2 - 2n)/(n - 2n); one of two methods takes int -> NHD 0.
    cls = ExpectedClass("FieldHolder", "ErOr", loc, blank,
                        dict(lcom5=(2 - 2 * n) / (n - 2 * n), nhd=0.0, cc_total=2,
                             coco_total=0, coco_avg=0.0, coco_min=0, coco_max=0))
    return body, [cls]


def _nest_class(name: str, methods: List[List[str]], per_method_cc: int, per_method_coco: int):
    """A class with `methods` (each reading x and taking one int) plus a
    parameterless reader of y; metrics follow from the per-method scores."""
    body = [f"class {name} {{", "    int x;", "    int y;"]
    for m in methods:
        body += [""] + m
    body += ["", "    int read() {", "        return y;", "    }", "}"]
    loc, blank = _span(body)
    m = len(methods)
    k = m + 1
    # l=2; every nest method touches x only, read touches y only -> a = k.
    # Parameter type int is used by m of k methods -> sigma = m * (k - m).
    coco_total = m * per_method_coco
    metrics = dict(
        lcom5=(k - k * 2) / (2 - k * 2),
        nhd=1.0 - (2.0 / (1 * k * (k - 1))) * (m * (k - m)),
        cc_total=m * per_method_cc + 1,
        coco_total=coco_total,
        coco_avg=coco_total / k,
        coco_min=0,
        coco_max=per_method_coco,
    )
    return body, [ExpectedClass(name, "Rest", loc, blank, metrics)]


def _shape_paren_depth(d: int, count: int = NEST_METHODS):
    bodies = [
        [f"    void deep{j}(int v) {{", "        x = " + "(" * d + "v" + ")" * d + ";", "    }"]
        for j in range(count)
    ]
    return _nest_class("ParenProbe", bodies, per_method_cc=1, per_method_coco=0)


def _shape_if_depth(d: int, count: int = NEST_METHODS):
    bodies = []
    for j in range(count):
        m = [f"    void nest{j}(int v) {{"]
        m += ["    " * (2 + i) + f"if (v > {i}) {{" for i in range(d)]
        m.append("    " * (2 + d) + "x = v;")
        m += ["    " * (2 + i) + "}" for i in reversed(range(d))]
        m.append("    }")
        bodies.append(m)
    # each if adds 1 to CC and 1 + depth to CoCo, depths 0..d-1
    return _nest_class("IfProbe", bodies, per_method_cc=1 + d, per_method_coco=d * (d + 1) // 2)


def _shape_method_length(n: int):
    m = ["    void longRun(int v) {"]
    ifs = 0
    for i in range(n):
        if i % 8 == 7:
            m += [f"        if (v > {i}) {{", "            x = x - 1;", "        }"]
            ifs += 1
        else:
            m.append(f"        x = x + v * {i};")
    m.append("    }")
    return _nest_class("LongMethod", [m], per_method_cc=1 + ifs, per_method_coco=ifs)


_SHAPES = {
    "classes_per_file": _shape_classes_per_file,
    "fields_per_class": _shape_fields_per_class,
    "paren_depth": _shape_paren_depth,
    "if_depth": _shape_if_depth,
    "method_length": _shape_method_length,
}


def make_shapes(out: str, seed: int, scale: float = 1.0) -> Inputs:
    """Probe files are fixed by shape and size; the seed only orders them.

    `scale` shrinks every size (smoke runs); the crash probes keep their
    stated sizes at every scale.
    """
    rng = random.Random(f"shapes:{seed}")
    plan = [(shape, max(2, int(size * scale)), False)
            for shape, sizes in SHAPE_SIZES.items() for size in sizes]
    plan += [(shape, size, True) for shape, size in CRASH_PROBES]
    order = list(range(len(plan)))
    rng.shuffle(order)
    inputs = Inputs("shapes", out, operations=len(plan))
    for slot, idx in enumerate(order):
        shape, size, crash = plan[idx]
        lines, classes = _SHAPES[shape](size, 1) if crash else _SHAPES[shape](size)
        probe_dir = os.path.join(out, f"probe{slot:02d}-{shape}-{size}")
        _write(os.path.join(probe_dir, "Probe.java"), "\n".join(lines) + "\n")
        inputs.probes.append(Probe(shape, size, probe_dir, classes, crash))
    return inputs


# ---- cam ---------------------------------------------------------------------

# (pool word, label without static member, label with one), stated by hand
# from the naming rules. Names are "<prefix><digits><word>", so the word
# alone fixes the suffix.
CAM_POOL = (
    ("Manager", "ErOr", "ErOr"),
    ("Handler", "ErOr", "ErOr"),
    ("Parser", "ErOr", "ErOr"),
    ("Builder", "ErOr", "ErOr"),
    ("Visitor", "ErOr", "ErOr"),
    ("Processor", "ErOr", "ErOr"),
    ("Controller", "ErOr", "ErOr"),
    ("StringUtils", "Utils", "Utils"),
    ("FileUtil", "Utils", "Utils"),
    ("MathUtilities", "Utils", "Utils"),
    ("Logger", "Rest", "Dropped"),  # excluded words fall to the Rest rules
    ("Color", "Rest", "Dropped"),
    ("Calculator", "Rest", "Dropped"),
    ("Customer", "Rest", "Dropped"),
    ("Invoice", "Rest", "Dropped"),
    ("Session", "Rest", "Dropped"),
    ("Matrix", "Rest", "Dropped"),
    ("Request", "Rest", "Dropped"),
)
CAM_COLUMNS = {
    "name": "fqcn", "lcom5": "lcom", "nhd": "nhd_score", "cc": "cyclo",
    "coco": "cog_total", "acoco": "cog_avg", "mxcoco": "cog_max",
    "mncoco": "cog_min", "loc": "lines", "blank": "blank_lines",
    "static": "has_static",
}
_TRUE_CELLS = ("1", "true", "yes", "Y")
_FALSE_CELLS = ("0", "false", "no", "")
EMPTY_CELL_SHARE = 0.04


def make_cam(out: str, seed: int, rows: int) -> Inputs:
    rng = random.Random(f"cam:{seed}")
    os.makedirs(out, exist_ok=True)
    inputs = inputs_at("cam", out)
    inputs.operations = rows
    _write(inputs.cam_map, json.dumps(CAM_COLUMNS, indent=2, sort_keys=True) + "\n")
    header = [CAM_COLUMNS[k] for k in (
        "name", "lcom5", "nhd", "cc", "coco", "acoco", "mxcoco", "mncoco",
        "loc", "blank", "static")]
    with open(inputs.cam_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(rows):
            word, plain_label, static_label = rng.choice(CAM_POOL)
            simple = f"{rng.choice(_PREFIX_WORDS)}{i}{word}"
            if rng.random() < 0.1:  # nested: the label comes from after '$'
                name = f"org.p{rng.randrange(50)}.Outer{i}Manager${simple}"
            else:
                name = f"org.p{rng.randrange(50)}.{simple}"
            static = rng.random() < 0.15
            k = rng.randint(1, 12)
            coco_min = rng.randint(0, 3)
            coco_max = coco_min + rng.randint(0, 9)
            metrics = dict(
                lcom5=round(rng.uniform(0.0, 1.5), 6),
                nhd=round(rng.random(), 6),
                cc_total=k + rng.randint(0, 30),
                coco_total=coco_min + coco_max + rng.randint(0, 20),
                coco_avg=round(rng.uniform(coco_min, coco_max), 4),
                coco_min=coco_min,
                coco_max=coco_max,
            )
            if rng.random() < EMPTY_CELL_SHARE:
                metrics[rng.choice(METRIC_KEYS)] = None
            loc = 5 + int(rng.lognormvariate(3.0, 0.8))
            blank = rng.randint(0, loc // 5)
            writer.writerow([
                name,
                *("" if metrics[key] is None else repr(metrics[key]) for key in (
                    "lcom5", "nhd", "cc_total", "coco_total", "coco_avg",
                    "coco_max", "coco_min")),
                loc, blank,
                rng.choice(_TRUE_CELLS if static else _FALSE_CELLS),
            ])
            inputs.classes.append(ExpectedClass(
                name, static_label if static else plain_label, loc, blank, metrics))
    return inputs


def inputs_at(workload: str, root: str) -> Inputs:
    """The inputs a generator wrote under `root`, without expectations."""
    if workload == "cam":
        return Inputs("cam", root, 0, cam_csv=os.path.join(root, "metrics.csv"),
                      cam_map=os.path.join(root, "map.json"))
    if workload == "shapes":
        probes = [Probe(name, 0, os.path.join(root, name), []) for name in sorted(os.listdir(root))]
        return Inputs("shapes", root, len(probes), probes=probes)
    return Inputs(workload, root, 0)
