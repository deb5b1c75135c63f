"""Machine-speed calibration.

The benchmark's machine (a two-vCPU virtual machine on a shared host) runs
the same code up to 2-3x slower for spells that last from seconds to
minutes (CPU time shows the same spells as wall time).  A fixed reference
kernel that does not touch u2metrics is timed next to every measurement, and
the measurement is scaled by ``nominal time / kernel time``: the time it
would have taken at the machine's reference speed.

Two kernels, because process start-up does not slow like computation:

- ``speed_factor`` (in-process work): small numpy array updates plus
  interpreted float work and object construction, the mix the program
  spends its time on.
- ``spawn_factor`` (child processes and set-up probes): a fresh
  ``python -c "import numpy"``.

Every run's ``detail`` line keeps the unscaled ``measured_wall_s`` and
``measured_op_p50_ms`` and the range of the speed factor next to the scaled
figures.  ``results/tenseed.jsonl`` holds the ten-seed runs the bounds in
``BENCHMARK.json`` were checked against; ``python3 perfbench/spread.py
--report perfbench/results/tenseed.jsonl`` prints the spread of each figure
scaled and unscaled over those runs.
"""
from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# Kernel times measured on the reference machine (2-vCPU Intel Xeon,
# Python 3.11, numpy 2.4) in a fast spell; fixed scales, never re-tuned.
NOMINAL_S = 5.8e-4
SPAWN_NOMINAL_S = 0.13


@dataclass(frozen=True)
class _State:
    a: float
    b: float
    c: float
    d: float


def kernel() -> np.ndarray:
    """Stage sums over small arrays, a frozen dataclass built from numpy
    scalars and an array built from floats: an explicit ODE step's mix."""
    y = np.linspace(0.0, 1.0, 8)
    ks = (y, y, y)
    for _ in range(60):
        yi = y + 0.01 * sum(c * k for c, k in zip((0.1, 0.2, 0.3), ks))
        st = _State(*(float(v) for v in yi[:4]))
        y = np.array([st.a, st.b, st.c, st.d, st.a, st.b, st.c, st.d]) * 0.999
    return y


def speed_factor() -> float:
    """Kernel time over its nominal time (best of five runs); > 1 is slow."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best / NOMINAL_S


def spawn_factor() -> float:
    """Time of a fresh ``python -c "import numpy"`` over its nominal time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) / SPAWN_NOMINAL_S
