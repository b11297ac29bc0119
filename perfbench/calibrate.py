"""How fast the host runs Python at the moment, from a fixed workload.

The benchmark's host is a few vCPUs of a shared machine whose speed
swings by a quarter or more over seconds to minutes, for every process
alike. An untraced pass therefore runs short calibration slices between
its segments, and `wall_s` is the pass's time measured in calibration
units (see NOTES.md). `unit()` never changes with the program: it uses
only the standard library, in the manner of a tokenizer and a metrics
pass (regex scanning, small tuples, dict counting, float sums).
"""

import re
import time

# A round figure near the seconds one unit() takes on the reference host
# (2-vCPU Intel Xeon Linux VM, Python 3.11.7) when it is quiet: 1.5-2 ms.
# wall_s is a pass's time in units times this.
UNIT_S = 0.002

_TEXT = "class Foo { int x; void bar(int y) { if (x > y) { x = y * 2 + 1; } else { x--; } } }\n" * 60
_TOKEN = re.compile(r"\s+|[A-Za-z_]\w*|\d+|\S")


def unit():
    """One fixed unit of pure-Python work."""
    counts = {}
    tokens = []
    for match in _TOKEN.finditer(_TEXT):
        text = match.group()
        if not text.isspace():
            tokens.append((text, match.start()))
            counts[text] = counts.get(text, 0) + 1
    depth = deepest = 0
    for text, _ in tokens:
        if text == "{":
            depth += 1
            deepest = max(deepest, depth)
        elif text == "}":
            depth -= 1
    return len(tokens), deepest, sum(v / (i + 1) for i, v in enumerate(sorted(counts.values())))


class Calibration:
    """Calibration slices run during one pass, and the time they took."""

    def __init__(self, units_per_slice: int = 1):
        self.units_per_slice = units_per_slice
        self.units = 0
        self.seconds = 0.0

    def slice(self):
        start = time.perf_counter()
        for _ in range(self.units_per_slice):
            unit()
        self.seconds += time.perf_counter() - start
        self.units += self.units_per_slice

    def unit_s(self) -> float:
        """Mean seconds per unit over the pass's slices."""
        return self.seconds / self.units
