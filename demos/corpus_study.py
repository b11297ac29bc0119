"""Full pipeline over the bundled fixture corpus: ingest, filter,
aggregate, render tables, and emit bar charts.

Run:  python demos/corpus_study.py [output_dir]

Without an output_dir the charts go to a temporary directory that is
removed when the demo ends.
"""

import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

from classaudit import aggregate_groups, emit_chart_data, filter_records, render_tables
from classaudit.pipeline import Diagnostics, ingest_sources

corpus = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "corpus" / "src"

diag = Diagnostics()
records = list(ingest_sources([corpus], diagnostics=diag))
print(f"ingested {len(records)} classes from {diag.files_seen} files "
      f"({diag.skipped} skipped)\n")

for r in records:
    m = r.metrics
    print(f"  {r.qualified_name:<35} {r.label.kind.value:<8} "
          f"ncloc={r.ncloc:<4} lcom5={m.lcom5} nhd={m.nhd} cc={m.cc_total} coco={m.coco_total}")
print()

# Availability filter, then 0.01/0.99 nearest-rank outlier cut, then the
# dropped-label sweep; the tallies always add back up to the input count.
outcome = filter_records(records)
print(f"filter: kept {outcome.output_count} of {outcome.input_count} "
      f"(metric drops {outcome.dropped_by_metric}, "
      f"outlier drops {outcome.dropped_by_quantile}, "
      f"label drops {outcome.dropped_by_label}); "
      f"ncloc bounds [{outcome.q_low_value}, {outcome.q_high_value}]\n")

summaries = aggregate_groups(outcome.kept)
print(render_tables(summaries, format="text", pipeline=outcome, skipped=diag.skipped))

charts_dir = (nullcontext(sys.argv[1]) if len(sys.argv) > 1
              else tempfile.TemporaryDirectory(prefix="classaudit_charts_"))
with charts_dir as out_dir:
    written = emit_chart_data(summaries, out_dir)
    print(f"wrote {len(written)} chart files to {out_dir}:")
    for path in written:
        print(f"  {path}")
