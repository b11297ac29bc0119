"""Per-class cohesion and complexity metrics.

Six quantities per class, constructors excluded throughout:

* LCOM5 = (a - k*l) / (l - k*l), with l attributes, k methods, and a the
  summed count of distinct attributes each method accesses. Higher means
  less cohesive; undefined when l = 0 or k <= 1.
* NHD = 1 - 2/(l*k*(k-1)) * sum_j x_j*(k - x_j), with l distinct parameter
  types across the class, k methods, and x_j the number of methods with at
  least one parameter of type j. Higher means more cohesive; undefined when
  k < 2 or l = 0.
* Total cyclomatic complexity: 1 per method plus one per decision point
  (if, loop, case label, catch, ternary, short-circuit operator), that is,
  1 plus the method's events whose kind is in ``CC_EVENT_KINDS``. On
  structured control flow this equals E - N + 2 of the per-method graph
  with compound predicates decomposed.
* Cognitive complexity total / average / min / max over methods: a fold
  over the same events, scoring nesting kinds 1 + depth and flat kinds 1,
  with the nesting convention documented in `javamodel.body`.

Undefined is a value here (None), never an error; dropping such classes is
the pipeline's job.
"""

import math
from typing import Optional

from ._record import Record
from .javamodel.model import (
    CC_EVENT_KINDS,
    FLAT_EVENT_KINDS,
    MethodView,
    NESTING_EVENT_KINDS,
    SourceClass,
)


class ClassMetrics(Record):
    __slots__ = ("lcom5", "nhd", "cc_total", "coco_total", "coco_avg", "coco_min",
                 "coco_max", "k", "l_attr", "l_types")

    def __init__(self, lcom5: Optional[float], nhd: Optional[float], cc_total: Optional[int],
                 coco_total: Optional[int], coco_avg: Optional[float], coco_min: Optional[int],
                 coco_max: Optional[int], k: int, l_attr: int, l_types: int):
        self.lcom5 = lcom5
        self.nhd = nhd
        self.cc_total = cc_total
        self.coco_total = coco_total
        self.coco_avg = coco_avg
        self.coco_min = coco_min
        self.coco_max = coco_max
        self.k = k
        self.l_attr = l_attr
        self.l_types = l_types

    def has_undefined(self) -> bool:
        return (
            self.lcom5 is None
            or self.nhd is None
            or self.cc_total is None
            or self.coco_total is None
            or self.coco_avg is None
            or self.coco_min is None
            or self.coco_max is None
        )


def lcom5(cls: SourceClass) -> Optional[float]:
    k = len(cls.methods)
    l = len(cls.attributes)
    if l == 0 or k <= 1:
        return None
    a = sum(len(m.accessed_attributes) for m in cls.methods)
    return (a - k * l) / (l - k * l) + 0.0  # + 0.0 normalizes -0.0


def nhd(cls: SourceClass) -> Optional[float]:
    k = len(cls.methods)
    types = _distinct_parameter_types(cls)
    l = len(types)
    if k < 2 or l == 0:
        return None
    sigma = 0
    for t in types:
        x = sum(1 for m in cls.methods if t in m.parameter_types)
        sigma += x * (k - x)
    return 1.0 - (2.0 / (l * k * (k - 1))) * sigma + 0.0


def _distinct_parameter_types(cls: SourceClass):
    seen = set()
    for m in cls.methods:
        seen.update(m.parameter_types)
    return seen


def method_cc(method: MethodView) -> int:
    return 1 + sum(1 for kind, _ in method.events if kind in CC_EVENT_KINDS)


def method_coco(method: MethodView) -> int:
    score = 0
    for kind, depth in method.events:
        if kind in NESTING_EVENT_KINDS:
            score += 1 + depth
        elif kind in FLAT_EVENT_KINDS:
            score += 1
    return score


def class_metrics(cls: SourceClass) -> ClassMetrics:
    k = len(cls.methods)
    ccs = [method_cc(m) for m in cls.methods]
    cocos = [method_coco(m) for m in cls.methods]
    if k == 0:
        coco_avg = coco_min = coco_max = None
    else:
        coco_avg = math.fsum(cocos) / k
        coco_min = min(cocos)
        coco_max = max(cocos)
    return ClassMetrics(
        lcom5=lcom5(cls),
        nhd=nhd(cls),
        cc_total=sum(ccs),
        coco_total=sum(cocos),
        coco_avg=coco_avg,
        coco_min=coco_min,
        coco_max=coco_max,
        k=k,
        l_attr=len(cls.attributes),
        l_types=len(_distinct_parameter_types(cls)),
    )
