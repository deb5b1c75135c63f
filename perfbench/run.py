"""Benchmark runner for u2metrics.

One run of one workload (the last stdout line is the result object; the
line before it, ``detail {...}``, carries the rest):

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs one traced
pass and reports the per-layer metrics.  Every workload, untraced and
traced, with a table of all metrics and a results file with metadata:

    python3 perfbench/run.py --all --seed 1 --seconds 25 --out perfbench/results/baseline.json
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_PROBES = 7


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    library (which catches ArithmeticError/ValueError) can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(fn, seconds: float):
    """Run ``fn()``; raise DeadlineExceeded if it is still running after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_program():
    """Import u2metrics from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import u2metrics
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import u2metrics from {SRC}: {exc}") from None
    if not os.path.abspath(u2metrics.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: u2metrics imported from {u2metrics.__file__}, not {SRC}")
    return u2metrics


# ----------------------------------------------------------------- statistics
def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it — the 11th largest — or the maximum when there are fewer than
    20 samples, where the 11th largest would sit at or below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------- operations
def run_in_process(op, deadline: float, tracer=None, op_id=None) -> dict:
    if tracer is not None:
        tracer.begin_op(op_id, op.kind)
    status, reason, result = "ok", None, None
    t0 = time.perf_counter()
    try:
        result = call_with_deadline(op.call, deadline)
    except DeadlineExceeded:
        status, reason = "deadline", f"still running after {deadline:.3g} s"
    except Exception as exc:  # any raise is a failed operation, recorded with its reason
        status, reason = "raised", f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op(status)
    if status == "ok":
        reason = op.check(result)
        if reason is not None:
            status = "wrong"
    if tracer is not None:
        tracer.ops[op_id]["status"] = status
    return _record(op, status, reason, latency)


def run_child(op, deadline: float, golden: dict, workdir: str, env: dict, traced_stats=None) -> dict:
    """One CLI command in a fresh process; killed at the deadline."""
    out_dir = os.path.join(workdir, "out")
    if op.out_file:
        try:
            os.remove(os.path.join(out_dir, op.out_file))
        except FileNotFoundError:
            pass
    stdout_path = os.path.join(workdir, "stdout.txt")
    with open(stdout_path, "wb") as out, open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        spawn = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            workloads.cli_argv(op, traced_stats, spawn), stdout=out, stderr=err, env=env, cwd=ROOT
        )
        killer = threading.Timer(deadline, proc.kill)
        killer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    rec_status, reason = "ok", None
    if proc.returncode == -signal.SIGKILL and latency >= deadline:
        rec_status, reason = "deadline", f"killed after {deadline:.3g} s"
    else:
        with open(stdout_path) as handle:
            stdout = handle.read()
        out_text = None
        if op.out_file and os.path.exists(os.path.join(out_dir, op.out_file)):
            with open(os.path.join(out_dir, op.out_file)) as handle:
                out_text = handle.read()
        reason = checks.check_cli(proc.returncode, stdout, out_text, golden)
        if reason is not None:
            rec_status = "wrong" if proc.returncode == 0 else "raised"
    rec = _record(op, rec_status, reason, latency)
    rec["rss_mb"] = usage.ru_maxrss / 1024.0
    return rec


def _record(op, status, reason, latency) -> dict:
    return {"kind": op.kind, "label": op.label, "status": status, "reason": reason, "measured_s": latency}


def _scale(rec: dict, speed: float, deadline: float):
    """Latency at reference machine speed; a failed operation enters the time
    and latency figures at the deadline."""
    rec["speed_factor"] = speed
    rec["latency_s"] = rec["measured_s"] / speed if rec["status"] == "ok" else deadline


# ------------------------------------------------------------------- set-up
def setup_times(workload: str, seed: int) -> list:
    """Fresh-interpreter ``import u2metrics`` plus input building, timed in
    the child from its first statement; several probes, each as (seconds at
    reference speed, measured seconds), scaled by the process start-up
    kernel run around each probe."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    speed = calibrate.spawn_factor()
    for i in range(SETUP_PROBES):
        workdir = os.path.join(WORK, f"probe-{os.getpid()}-{i}")
        out = subprocess.run(
            [sys.executable, probe, workload, str(seed), workdir],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        _rmtree(workdir)
        if out.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {out.stderr.strip()}")
        measured = float(out.stdout.split()[-1])
        speed_after = calibrate.spawn_factor()
        times.append((measured / (0.5 * (speed + speed_after)), measured))
        speed = speed_after
    return times


def _rmtree(path):
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------- workloads
def run(workload: str, seed: int, seconds: float, trace: bool):
    wl = workloads.WORKLOADS[workload]
    import_program()
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setups = [] if trace else setup_times(workload, seed)

    tracer = None
    if trace and wl.in_process:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_op("setup", "setup")
    inputs = workloads.build_inputs(workload, seed, workdir)
    if tracer is not None:
        tracer.end_op("ok")
    ops = workloads.operations(workload, inputs)

    passes = 1 if trace else max(1, round(seconds / wl.pass_s))
    records, pass_walls = [], []
    child_stats = []
    golden = checks.load("cli_goldens.json") if not wl.in_process else None
    env = workloads.cli_env(ROOT)
    factor = calibrate.speed_factor if wl.in_process else calibrate.spawn_factor
    t_start = time.perf_counter()
    speed = factor()
    for p in range(passes):
        wall = 0.0
        for i, op in enumerate(ops):
            # the deadline is in reference-speed seconds like every reported
            # time, so a slow spell of the machine does not fail an operation
            limit = wl.deadline_s * max(1.0, speed)
            if wl.in_process:
                rec = run_in_process(op, limit, tracer, op_id=f"{p}.{i}")
            else:
                stats = os.path.join(workdir, f"trace-{p}.{i}.json") if trace else None
                rec = run_child(op, limit, golden[op.label], workdir, env, stats)
                if stats is not None and os.path.exists(stats):
                    with open(stats) as handle:
                        child_stats.append(json.load(handle))
            speed_after = factor()
            _scale(rec, 0.5 * (speed + speed_after), wl.deadline_s)
            speed = speed_after
            records.append(rec)
            wall += rec["latency_s"]
        pass_walls.append(wall)
    elapsed = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()

    # one pass of the batch, each operation at its median over the passes:
    # slow spells of the machine last seconds, so this filters them better
    # than the median of whole passes
    op_median = [statistics.median(r["latency_s"] for r in records[i :: len(ops)]) for i in range(len(ops))]
    lat_ms = [r["latency_s"] * 1000.0 for r in records]
    tail_ms, tail_pct = tail(lat_ms)
    speeds = [r["speed_factor"] for r in records]
    failures = [
        {"label": r["label"], "status": r["status"], "reason": r["reason"]} for r in records if r["status"] != "ok"
    ]
    if wl.in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mb = max(r["rss_mb"] for r in records)
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "operations_per_pass": len(ops),
        "elapsed_s": elapsed,
        "deadline_s": wl.deadline_s,
        "wall_s_per_pass": pass_walls,
        "op_median_s": {op.label: t for op, t in zip(ops, op_median)},
        "slowest_ok": max(
            ([r["label"], r["measured_s"], r["latency_s"]] for r in records if r["status"] == "ok"),
            key=lambda x: x[2], default=None,
        ),
        "op_samples": len(lat_ms),
        "op_tail_percentile": tail_pct,
        "setup_s_probes": setups,
        "speed_factor": [min(speeds), statistics.median(speeds), max(speeds)],
        "measured_wall_s": sum(
            statistics.median(r["measured_s"] if r["status"] == "ok" else wl.deadline_s for r in records[i :: len(ops)])
            for i in range(len(ops))
        ),
        "measured_op_p50_ms": 1000.0 * statistics.median(r["measured_s"] for r in records),
        "fail_frac": len(failures) / len(records),
        "failures": failures,
    }
    e2e = {
        "setup_s": (statistics.median(t for t, _ in setups) if setups else 0.0, "s"),
        "wall_s": (sum(op_median), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if workload == "catalog-sweep":
        for kind in ("classify", "classify_t", "bolts", "ends"):
            detail[f"{kind}_s"] = sum(t for t, op in zip(op_median, ops) if op.kind == kind)
    if trace:
        from tracer import layer_metrics, merge_totals

        trace_path = os.path.join(WORK, f"trace-{workload}-seed{seed}.json")
        if tracer is not None:
            totals = tracer.totals()
            per_op = _per_op_calls(tracer.ops)
            tracer.dump(trace_path)
        else:
            totals = merge_totals([c["totals"] for c in child_stats])
            per_op = {}
            with open(trace_path, "w") as handle:
                json.dump(child_stats, handle)
        metrics = layer_metrics(totals)
        import_ms = [c["import_ms"] for c in child_stats]
        metrics["cli.import_ms"] = (statistics.median(import_ms) if import_ms else 0.0, "ms")
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
        detail["calls_per_op"] = per_op
        detail["end_to_end_traced"] = {k: v[0] for k, v in e2e.items() if k != "setup_s"}
    else:
        metrics = e2e
    _rmtree(workdir)
    wrong = [f for f in failures if f["status"] == "wrong"]
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


def _per_op_calls(ops: dict) -> dict:
    """{op kind: {label: sorted distinct call counts per operation}}."""
    out = {}
    for op in ops.values():
        kind = out.setdefault(op["name"], {})
        for label, (calls, _, _) in op["agg"].items():
            if not label.startswith("op:"):
                kind.setdefault(label, set()).add(calls)
        for label, n in op["count"].items():
            kind.setdefault(label, set()).add(n)
    return {k: {label: sorted(v) for label, v in d.items()} for k, d in out.items()}


# ------------------------------------------------------------------- --all
def metadata(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    pkg = os.path.join(SRC, "u2metrics")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as handle:
                src_lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload_seed": seed,
        "src_lines": src_lines,
    }


def run_all(seed: int, seconds: float, out_path) -> int:
    meta = metadata(seed)
    results = {"metadata": meta, "workloads": {}}
    ok = True
    for name in workloads.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            detail = json.loads(lines[-2][len("detail "):])
            result = json.loads(lines[-1])
            entry["traced" if trace else "untraced"] = {"detail": detail, "result": result}
            ok = ok and result["correct"]
        untraced, traced = entry["untraced"], entry["traced"]
        entry["tracing_overhead"] = (
            traced["detail"]["end_to_end_traced"]["wall_s"] / untraced["result"]["metrics"]["wall_s"]["value"]
        )
        results["workloads"][name] = entry
        _print_workload(name, entry)
    meta["tracing_overhead"] = {n: e["tracing_overhead"] for n, e in results["workloads"].items()}
    print("metadata " + json.dumps(meta))
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


def _print_workload(name: str, entry: dict):
    u, t = entry["untraced"], entry["traced"]
    d, r = u["detail"], u["result"]
    verdict = "correct" if r["correct"] else "WRONG OUTPUT"
    print(f"== {name}: {verdict}; {r['failed']}/{r['attempted']} operations failed "
          f"(fail_frac {d['fail_frac']:.4f}); {d['passes']} pass(es) of {d['operations_per_pass']} operations")
    for key, m in r["metrics"].items():
        note = ""
        if key == "op_tail_ms":
            note = f"  (p{d['op_tail_percentile']:.1f} of {d['op_samples']} samples)"
        print(f"   {key:34s} {m['value']:14.6g} {m['unit']}{note}")
    for key in ("classify_s", "classify_t_s", "bolts_s", "ends_s"):
        if key in d:
            print(f"   {key:34s} {d[key]:14.6g} s")
    print(f"   {'fail_frac':34s} {d['fail_frac']:14.6g} ratio")
    lo, mid, hi = d["speed_factor"]
    print(f"   unscaled: wall_s {d['measured_wall_s']:.4g} s, op_p50_ms {d['measured_op_p50_ms']:.4g} ms; "
          f"speed factor {lo:.2f}/{mid:.2f}/{hi:.2f} (min/median/max)")
    for f in d["failures"]:
        print(f"     failed: {f['label']} [{f['status']}] {f['reason']}")
    print(f"   tracing overhead (traced/untraced wall_s) {entry['tracing_overhead']:.3f}")
    for key, m in t["result"]["metrics"].items():
        print(f"   {key:34s} {m['value']:14.6g} {m['unit']}")


# ---------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--out", help="with --all: write the results file here")
    args = parser.parse_args(argv)
    if args.all:
        import_program()
        return run_all(args.seed, args.seconds, args.out)
    if args.workload is None:
        parser.error("--workload or --all is required")
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
