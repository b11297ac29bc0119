"""Walk one Java class through every metric, step by step.

Run:  python demos/metrics_tour.py
"""

from classaudit import class_metrics, parse_compilation_unit
from classaudit.javamodel.model import CC_EVENT_KINDS
from classaudit.metrics import method_cc, method_coco

SOURCE = """
class OrderBook {
    int depth;
    int spread;

    void place(int size) {
        if (size > 0 && size <= depth) {
            depth -= size;
        }
    }

    int quote(int side) {
        for (int i = 0; i < depth; i++) {
            if (i % 2 == side) {
                spread++;
            }
        }
        return spread > 10 ? 10 : spread;
    }
}
"""

cls = parse_compilation_unit(SOURCE, "OrderBook.java")[0]

print(f"class {cls.name}")
print(f"  attributes: {cls.attributes}")
print(f"  line span {cls.line_span}, {cls.loc} lines, {cls.blank_lines} blank")
print()

# Per-method facts feed the class-level formulas. One event list, in source
# order, drives both complexity metrics.
for m in cls.methods:
    n = sum(1 for kind, _ in m.events if kind in CC_EVENT_KINDS)
    print(f"method {m.name}({', '.join(m.parameter_types)})")
    print(f"  touches attributes: {sorted(m.accessed_attributes)}")
    print(f"  events (kind, depth): {m.events}")
    print(f"  CC = 1 + {n} decision events = {method_cc(m)}")
    print(f"  CoCo = {method_coco(m)}")
    print()

m = class_metrics(cls)
k, l = m.k, m.l_attr
a = sum(len(x.accessed_attributes) for x in cls.methods)
print(f"LCOM5 = (a - k*l) / (l - k*l) = ({a} - {k}*{l}) / ({l} - {k}*{l}) = {m.lcom5}")
print(f"NHD over {m.l_types} distinct parameter type(s) = {m.nhd}")
print(f"CC total = {m.cc_total}")
print(f"CoCo total/avg/min/max = {m.coco_total}/{m.coco_avg}/{m.coco_min}/{m.coco_max}")
