"""A traced ``u2metrics`` CLI process for the cli workload's traced run.

    python3 perfbench/cli_child.py <spawn time> <stats.json> <cli arguments...>

``spawn time`` is the parent's ``time.time()`` just before it started this
process; ``import_ms`` runs from then until ``import u2metrics.cli`` returns.
The per-layer aggregates and spans of the command go to ``stats.json``.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import u2metrics.cli  # noqa: E402

import_ms = (time.time() - float(sys.argv[1])) * 1000.0

import json  # noqa: E402

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.begin_op(0, "cli")
status = "raised"
try:
    code = u2metrics.cli.main(sys.argv[3:])
    status = "ok"
finally:
    tracer.end_op(status)
    tracer.uninstall()
    with open(sys.argv[2], "w") as handle:
        json.dump({"import_ms": import_ms, "totals": tracer.totals(), "spans": tracer.spans}, handle)
sys.exit(code)
