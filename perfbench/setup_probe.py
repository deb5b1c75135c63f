"""Time one fresh-interpreter set-up: ``import u2metrics`` plus building a
workload's inputs, from this script's first statement.  Prints seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""
import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import u2metrics  # noqa: E402,F401

import workloads  # noqa: E402

workloads.build_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(f"{time.perf_counter() - t0!r}")
