"""One unchecked pass in a fresh interpreter; prints its peak RSS in MB.

    python3 perfbench/rss_pass.py <workload> <inputs-dir> <chart-dir>
"""

import resource
import sys

import run
import workloads

if __name__ == "__main__":
    workload, root, chart_dir = sys.argv[1:4]
    run.check_checkout()
    run.one_pass(workloads.inputs_at(workload, root), chart_dir, None)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
