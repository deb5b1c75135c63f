"""Output checks: each returns None when the output is right, else a reason.

References and goldens live in ``perfbench/data``: ``reference.json`` holds
end distances computed independently with mpmath (``gen_reference.py``);
``sweep_goldens.json`` and ``cli_goldens.json`` hold outputs recorded from
the seed program (``record_goldens.py``).
"""
from __future__ import annotations

import json
import math
import os
import re

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

DISTANCE_RTOL = 1e-6
CLI_RTOL = 1e-7
CLI_ATOL = 1e-9
BT_DRIFT_CAP = 1e-7
BT_RESIDUAL_FLOOR = 1e-6
BT_RK4_RTOL = 1e-6
BT_RK4_MAX_STEP = 2e-3


def load(name: str) -> dict:
    with open(os.path.join(DATA, name)) as handle:
        return json.load(handle)


# ------------------------------------------------------------ catalog sweep
def summarize_bolts(bolts) -> dict:
    return {"count": len(bolts), "slopes": [round(float(b.slope), 6) + 0.0 for b in bolts]}


def summarize_end(rep) -> dict:
    return {"kind": rep.kind, "self_intersection": rep.self_intersection}


def check_classify(report, golden: dict, with_t: bool):
    missing = sorted(set(golden["expected_tags"]) - set(report.tags()))
    if missing:
        return f"missing expected tags {missing}"
    if with_t:
        got = report.verdict("bt_flat") if "bt_flat" in report.entries else None
        if got != golden["bt_flat"]:
            return f"bt_flat verdict {got!r}, golden {golden['bt_flat']!r}"
    return None


def check_bolts(bolts, golden: dict):
    got = summarize_bolts(bolts)
    if got != golden["bolts"]:
        return f"bolts {got}, golden {golden['bolts']}"
    return None


def check_distance(got: float, want) -> str | None:
    """``want`` is a float or the string "inf"; relative tolerance 1e-6."""
    if want == "inf":
        return None if got == math.inf else f"distance {got!r}, reference inf"
    if not math.isfinite(got) or abs(got - want) > DISTANCE_RTOL * abs(want):
        return f"distance {got!r}, reference {want!r}"
    return None


def check_end(rep, golden: dict, reference):
    got = summarize_end(rep)
    if got != golden[rep.side]:
        return f"end {got}, golden {golden[rep.side]}"
    return check_distance(rep.diagnostics.get("distance_to_end", math.nan), reference)


# ---------------------------------------------------------------- bt search
def extremality_residual(traj) -> float:
    """max |¼F⁗ − 5/4 F″ + F − 1| over the samples, recomputed here."""
    return max(abs(0.25 * s.F4d - 1.25 * s.state.F2d + s.state.F - 1.0) for s in traj.samples)


def rk4_residual(traj, t: float) -> float:
    """The extremality residual at the trajectory's sample points, from a
    fixed-step RK4 over ``bt_rhs`` started at the first sample."""
    from u2metrics.btflat import BtState, bt_rhs

    def f(z, y):
        return bt_rhs(BtState.from_vector(z, y), t)[0]

    zs = [s.state.z for s in traj.samples]
    y = traj.samples[0].state.vector()
    worst = 0.0
    for i, z in enumerate(zs):
        if i:
            a = zs[i - 1]
            n = max(1, math.ceil(abs(z - a) / BT_RK4_MAX_STEP))
            h = (z - a) / n
            for j in range(n):
                zj = a + j * h
                k1 = f(zj, y)
                k2 = f(zj + h / 2, y + h / 2 * k1)
                k3 = f(zj + h / 2, y + h / 2 * k2)
                k4 = f(zj + h, y + h * k3)
                y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        _, f4d, _ = bt_rhs(BtState.from_vector(z, y), t)
        worst = max(worst, abs(0.25 * f4d - 1.25 * y[2] + y[0] - 1.0))
    return worst


def check_bt_search(result, t: float):
    traj, reported = result
    if traj.truncated:
        return f"best trajectory truncated: {traj.truncation_reason}"
    if not traj.max_T_drift <= BT_DRIFT_CAP:
        return f"max_T_drift {traj.max_T_drift:g} above {BT_DRIFT_CAP:g}"
    recomputed = extremality_residual(traj)
    if abs(recomputed - reported) > 1e-12 * max(1.0, abs(reported)):
        return f"reported residual {reported!r}, recomputed {recomputed!r}"
    if not reported > BT_RESIDUAL_FLOOR:
        return f"residual {reported!r} not above {BT_RESIDUAL_FLOOR:g}"
    rk4 = rk4_residual(traj, t)
    if abs(rk4 - reported) > BT_RK4_RTOL * abs(reported):
        return f"residual {reported!r}, fixed-step RK4 gives {rk4!r}"
    return None


# ---------------------------------------------------------------------- cli
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\binf\b|\bnan\b)")


def compare_text(got: str, want: str, rtol: float = CLI_RTOL, atol: float = CLI_ATOL):
    """Token-by-token comparison; numbers within |a−b| ≤ rtol·max(|a|,|b|) + atol."""
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return f"{(len(g) - 1) // 2} numbers, golden has {(len(w) - 1) // 2}"
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2 == 0:
            if a.split() != b.split():
                return f"text {a.strip()[:40]!r}, golden {b.strip()[:40]!r}"
            continue
        x, y = float(a), float(b)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not abs(x - y) <= rtol * max(abs(x), abs(y)) + atol:
            return f"number {a}, golden {b}"
    return None


def check_cli(returncode: int, stdout: str, out_text, golden: dict):
    """Exit code 0, and stdout and the --out file (if any) match the goldens."""
    if returncode != 0:
        return f"exit code {returncode}"
    reason = compare_text(stdout, golden["stdout"])
    if reason:
        return f"stdout: {reason}"
    if "out" in golden:
        if out_text is None:
            return "--out file missing"
        reason = compare_text(out_text, golden["out"])
        if reason:
            return f"--out file: {reason}"
    return None
