"""The three workloads: inputs built from the workload seed, and their operations.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished (the machine this was tuned on has two
cores, and the benchmark process is the only client).

catalog-sweep
    All 18 catalog entries at default parameters; per entry ``classify(m)``,
    ``classify(m, t=1.0)``, ``find_bolts(m)`` and ``classify_end`` on both
    sides, in an order shuffled by the seed.  It loads the symbolic stack
    (``ExpPoly.eval`` → jets → ``curvature_sample`` → ``classify``), the
    B^t grid residual, and ``distance`` → ``adaptive_simpson``; it never
    calls the B^t flow integrator.
bt-search
    ``bt_nonextremal_search(t, trials=32, seed=s)`` for every t in
    {-1, 0.5, 1, 2} and search seed s in {1, 2}, in an order shuffled by the
    workload seed.  All of its work is in ``btflat`` (``bt_rhs``, the
    DP5(4) step, seeding, ``tval``); it never touches ``ExpPoly``, curvature
    or geometry.  The (t, s) set is fixed because a search's run time is set
    mostly by s (s fixes the 32 initial conditions, and so how many trials
    are skipped, truncated or integrated in full: over twelve seeds it ranged
    0.7-2.0 s, alike for every t).  Drawing the s values or the (t, s)
    pairing per run moved the batch time and the median search latency by
    7-15% from one workload seed to the next.
cli
    The README command sequence, each command a fresh
    ``python -m u2metrics.cli`` process, in an order shuffled by the seed.
    It is the only workload that pays interpreter start and import on every
    query, and the only one that runs the metric-file parser and emitter and
    the ``--out`` write path.
"""
from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import checks

CATALOG_T = 1.0
BT_TS = (-1.0, 0.5, 1.0, 2.0)
BT_SEARCH_SEEDS = (1, 2)
BT_TRIALS = 32

# (name, argv with {in}/{out} placeholders, file written by --out or None)
CLI_COMMANDS = (
    ("catalog-list", ("catalog", "list"), None),
    ("catalog-emit-tn", ("catalog", "emit", "taub-nut", "--param", "m=2", "--out", "{out}/tn.txt"), "tn.txt"),
    ("classify-t", ("classify", "{in}/tn.txt", "--t", "1.0"), None),
    ("curvature-grid", ("curvature", "{in}/tn.txt", "--grid", "0.5:4.0:50", "--out", "{out}/curv.tsv"), "curv.tsv"),
    ("ends", ("ends", "{in}/tn.txt"), None),
    ("catalog-emit-mtn", ("catalog", "emit", "modified-taub-nut-2", "--out", "{out}/mtn.txt"), "mtn.txt"),
    ("transform", ("transform", "{in}/mtn.txt"), None),
    ("bt-residuals", ("bt", "residuals", "{in}/tn.txt", "--t", "1", "--s", "const:0", "--grid", "0.5:2.0:10"), None),
    (
        "bt-integrate",
        ("bt", "integrate", "--t", "1", "--init", "{in}/seed.txt", "--span", "0:0.8", "--out", "{out}/traj.tsv"),
        "traj.tsv",
    ),
    ("bt-search", ("bt", "search", "--t", "1", "--trials", "32"), None),
    ("roots-page", ("roots", "page"), None),
)
# The CSC seed state that ``bt integrate`` reads (solved for F‴ at t = 1).
CLI_SEED_STATE = dict(F=1.5, F1d=0.3, F2d=-0.2, C=1.2, C1d=0.1, s=0.5, t=1.0)


@dataclass
class Op:
    """One operation: ``call`` runs it, ``check`` returns None or a reason."""

    kind: str
    label: str
    call: Optional[Callable] = None
    check: Optional[Callable] = None
    argv: Optional[tuple] = None  # cli only: arguments after ``python -m u2metrics.cli``
    out_file: Optional[str] = None  # cli only: the file written by --out


@dataclass
class Workload:
    deadline_s: float  # per operation; far above the slowest passing one
    pass_s: float  # nominal time of one pass on the seed, sets the pass count
    in_process: bool


WORKLOADS = {
    "catalog-sweep": Workload(deadline_s=1.5, pass_s=12.5, in_process=True),
    "bt-search": Workload(deadline_s=10.0, pass_s=9.0, in_process=True),
    "cli": Workload(deadline_s=20.0, pass_s=9.5, in_process=False),
}


# ------------------------------------------------------------------- inputs
def build_inputs(name: str, seed: int, workdir: str):
    """The workload's inputs; this is the set-up that ``setup_s`` times."""
    rng = random.Random(seed)
    if name == "catalog-sweep":
        from u2metrics.catalog import catalog_get, catalog_names

        names = list(catalog_names())
        return {"metrics": {n: catalog_get(n) for n in names}, "order": _shuffled(rng, names, 5)}
    if name == "bt-search":
        return {"pairs": _shuffled(rng, BT_TS, len(BT_SEARCH_SEEDS))}
    if name == "cli":
        return {"dirs": write_cli_inputs(workdir), "order": _shuffled(rng, [c[0] for c in CLI_COMMANDS], 1)}
    raise KeyError(name)


def _shuffled(rng, items, copies):
    order = [(item, k) for item in items for k in range(copies)]
    rng.shuffle(order)
    return order


def write_cli_inputs(workdir: str) -> dict:
    from u2metrics.btflat import STATE_FIELDS, bt_csc_seed
    from u2metrics.catalog import catalog_get
    from u2metrics.metricfile import emit_metric

    dirs = {"in": os.path.join(workdir, "in"), "out": os.path.join(workdir, "out")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    files = {
        "tn.txt": emit_metric(catalog_get("taub-nut", {"m": 2.0})),
        "mtn.txt": emit_metric(catalog_get("modified-taub-nut-2")),
    }
    state = bt_csc_seed(**CLI_SEED_STATE)
    files["seed.txt"] = "".join(f"{k} {getattr(state, k)!r}\n" for k in ("z",) + STATE_FIELDS)
    for fname, text in files.items():
        with open(os.path.join(dirs["in"], fname), "w") as handle:
            handle.write(text)
    return dirs


# --------------------------------------------------------------- operations
def operations(name: str, inputs) -> list:
    if name == "catalog-sweep":
        return _sweep_ops(inputs)
    if name == "bt-search":
        return [_bt_op(t, BT_SEARCH_SEEDS[k]) for t, k in inputs["pairs"]]
    if name == "cli":
        by_name = {c[0]: c for c in CLI_COMMANDS}
        ops = []
        for cmd, _ in inputs["order"]:
            _, argv, out_file = by_name[cmd]
            argv = tuple(a.format(**inputs["dirs"]) for a in argv)
            ops.append(Op(kind="cli", label=cmd, argv=argv, out_file=out_file))
        return ops
    raise KeyError(name)


def _sweep_ops(inputs) -> list:
    import u2metrics as u

    goldens = checks.load("sweep_goldens.json")
    reference = checks.load("reference.json")["distance"]
    ops = []
    for entry, k in inputs["order"]:
        m = inputs["metrics"][entry]
        g = goldens[entry]
        if k == 0:
            ops.append(Op("classify", f"classify {entry}", lambda m=m: u.classify(m),
                          lambda r, g=g: checks.check_classify(r, g, with_t=False)))
        elif k == 1:
            ops.append(Op("classify_t", f"classify {entry} t={CATALOG_T:g}", lambda m=m: u.classify(m, t=CATALOG_T),
                          lambda r, g=g: checks.check_classify(r, g, with_t=True)))
        elif k == 2:
            ops.append(Op("bolts", f"find_bolts {entry}", lambda m=m: u.find_bolts(m),
                          lambda r, g=g: checks.check_bolts(r, g)))
        else:
            side = "lower" if k == 3 else "upper"
            ref = reference[f"{entry}/{side}"]
            ops.append(Op("ends", f"classify_end {entry} {side}", lambda m=m, side=side: u.classify_end(m, side),
                          lambda r, g=g, ref=ref: checks.check_end(r, g, ref)))
    return ops


def _bt_op(t: float, s: int) -> Op:
    import u2metrics as u

    return Op(
        "search",
        f"bt_nonextremal_search t={t:g} seed={s}",
        lambda: u.bt_nonextremal_search(t, trials=BT_TRIALS, seed=s),
        lambda r: checks.check_bt_search(r, t),
    )


def cli_env(root: str) -> dict:
    """Child environment: the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def cli_argv(op: Op, traced_stats: Optional[str] = None, spawn_time: float = 0.0) -> list:
    if traced_stats is None:
        return [sys.executable, "-m", "u2metrics.cli", *op.argv]
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
    return [sys.executable, child, repr(spawn_time), traced_stats, *op.argv]
