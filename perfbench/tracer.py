"""Spans and counters around u2metrics' public functions, installed from outside.

The tracer replaces functions by timing wrappers in every ``u2metrics``
module that holds them, so a name bound with ``from .x import f`` (for
example ``classify.curvature_sample`` or ``btflat.jet_F``) is wrapped where it
is looked up; methods are wrapped on their class.  Nothing under ``src/`` is
edited.

Every wrapped call is timed and its self time (duration minus the time
covered by wrapped calls nested inside it) is aggregated per operation.  Calls
at the public boundaries (``SPANS``) are additionally kept as individual
spans; hot leaf functions (``COUNTED``) are only aggregated, which keeps
memory bounded.  Calls made while no operation is open are not traced.
"""
from __future__ import annotations

import importlib
import json
import pkgutil
import time

# label -> (module, attribute); "Class.method" wraps the method on the class.
SPANS = {
    "classify.classify": ("u2metrics.classify", "classify"),
    "curvature.curvature_sample": ("u2metrics.curvature", "curvature_sample"),
    "geometry.find_bolts": ("u2metrics.geometry", "find_bolts"),
    "geometry.distance": ("u2metrics.geometry", "distance"),
    "geometry.classify_end": ("u2metrics.geometry", "classify_end"),
    "numerics.adaptive_simpson": ("u2metrics.numerics", "adaptive_simpson"),
    "btflat.bt_integrate": ("u2metrics.btflat", "bt_integrate"),
    "btflat.bt_nonextremal_search": ("u2metrics.btflat", "bt_nonextremal_search"),
    "btflat.bt_grid_residual": ("u2metrics.btflat", "bt_grid_residual"),
    "metricfile.parse_metric": ("u2metrics.metricfile", "parse_metric"),
    "metricfile.emit_metric": ("u2metrics.metricfile", "emit_metric"),
    "catalog.catalog_get": ("u2metrics.catalog", "catalog_get"),
    "cli.main": ("u2metrics.cli", "main"),
}
COUNTED = {
    "exppoly.eval": ("u2metrics.exppoly", "ExpPoly.eval"),
    "profiles.jet_F": ("u2metrics.profiles", "jet_F"),
    "profiles.jet_C": ("u2metrics.profiles", "jet_C"),
    "profiles.conformal_value": ("u2metrics.profiles", "conformal_value"),
    "numerics.series_mul": ("u2metrics.numerics", "series_mul"),
    "numerics.series_div": ("u2metrics.numerics", "series_div"),
    "numerics.series_pow": ("u2metrics.numerics", "series_pow"),
    "numerics.safeguarded_newton": ("u2metrics.numerics", "safeguarded_newton"),
    "curvature.scalar_curvature": ("u2metrics.curvature", "scalar_curvature"),
    "btflat.bt_rhs": ("u2metrics.btflat", "bt_rhs"),
    "btflat.tval": ("u2metrics.btflat", "tval"),
    "btflat.state_from_metric": ("u2metrics.btflat", "state_from_metric"),
    "operators.b_op_jet": ("u2metrics.operators", "b_op_jet"),
}


class Tracer:
    """Per-operation spans and aggregates for one traced run."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, op_id, name, start, end)
        self.ops = {}  # op_id -> {"name", "status", "agg": {label: [calls, total_s, self_s]}, "count": {}}
        self._stack = []  # open frames: [label, start, child_s, span_id]
        self._op = None
        self._op_id = None
        self._next_span = 0
        self._restore = []

    # ---------------------------------------------------------- operations
    def begin_op(self, op_id, name: str):
        self._op = {"name": name, "status": None, "agg": {}, "count": {}}
        self.ops[op_id] = self._op
        self._op_id = op_id
        self._stack = []
        self._op_frame = self._enter(f"op:{name}", span=True)
        self._op["span_id"] = self._op_frame[3]

    def end_op(self, status: str):
        """Close the operation, and any frame an interrupted call left open."""
        while self._stack and self._stack[-1] is not self._op_frame:
            self._stack.pop()
        if self._stack:
            self._exit(self._op_frame, span=True)
        self._op["status"] = status
        self._op = None
        self._op_id = None
        self._stack = []

    def count(self, key: str, n: int = 1):
        if self._op is not None:
            c = self._op["count"]
            c[key] = c.get(key, 0) + n

    # -------------------------------------------------------------- frames
    def _enter(self, label: str, span: bool):
        span_id = None
        if span:
            span_id = self._next_span
            self._next_span += 1
        frame = [label, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, span: bool):
        end = time.perf_counter()
        stack = self._stack
        while stack and stack[-1] is not frame:  # unwound by an exception mid-wrapper
            stack.pop()
        if not stack:
            return
        stack.pop()
        dur = end - frame[1]
        if stack:
            stack[-1][2] += dur
        agg = self._op["agg"]
        rec = agg.get(frame[0])
        if rec is None:
            rec = agg[frame[0]] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]
        if span:
            parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
            self.spans.append((frame[3], parent, self._op_id, frame[0], frame[1], end))

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn, label: str, span: bool):
        tracer = self

        if label == "numerics.adaptive_simpson":

            def wrapper(f, *args, **kwargs):
                if tracer._op is None:
                    return fn(f, *args, **kwargs)

                def counted(z):
                    tracer.count("numerics.adaptive_simpson.evals")
                    return f(z)

                frame = tracer._enter(label, span)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._exit(frame, span)

        elif label == "btflat.bt_integrate":

            def wrapper(*args, **kwargs):
                if tracer._op is None:
                    return fn(*args, **kwargs)
                frame = tracer._enter(label, span)
                try:
                    traj = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame, span)
                tracer.count("btflat.steps_accepted", traj.steps_accepted)
                tracer.count("btflat.steps_rejected", traj.steps_rejected)
                tracer.count("btflat.untruncated", 0 if traj.truncated else 1)
                return traj

        else:

            def wrapper(*args, **kwargs):
                if tracer._op is None:
                    return fn(*args, **kwargs)
                frame = tracer._enter(label, span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame, span)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every loaded u2metrics module that binds it."""
        import u2metrics

        modules = [u2metrics] + [
            importlib.import_module(f"u2metrics.{info.name}") for info in pkgutil.iter_modules(u2metrics.__path__)
        ]
        for table, span in ((SPANS, True), (COUNTED, False)):
            for label, (mod_name, attr) in table.items():
                mod = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(original, label, span))
                    self._restore.append((cls, meth, original))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(original, label, span)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapper)
                            self._restore.append((m, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    # ------------------------------------------------------------- results
    def totals(self) -> dict:
        """{"agg": {label: [calls, total_s, self_s]}, "count": {...}} over all operations."""
        return merge_totals(self.ops.values())

    def dump(self, path: str):
        """Write every span and per-operation aggregate as JSON."""
        doc = {"spans": self.spans, "ops": {str(k): op for k, op in self.ops.items()}}
        with open(path, "w") as handle:
            json.dump(doc, handle)


def merge_totals(parts) -> dict:
    """Sum aggregates and counters over operations or ``Tracer.totals()`` results."""
    agg, count = {}, {}
    for part in parts:
        for label, (calls, total, self_s) in part["agg"].items():
            rec = agg.setdefault(label, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for k, v in part["count"].items():
            count[k] = count.get(k, 0) + v
    return {"agg": agg, "count": count}


def layer_metrics(totals: dict) -> dict:
    """The per-layer metrics, by name, from summed aggregates and counters."""
    agg, count = totals["agg"], totals["count"]

    def calls(label):
        return agg.get(label, [0, 0.0, 0.0])[0]

    def total(label):
        return agg.get(label, [0, 0.0, 0.0])[1]

    def self_s(*labels):
        return sum(agg.get(label, [0, 0.0, 0.0])[2] for label in labels)

    rhs = calls("btflat.bt_rhs")
    accepted = count.get("btflat.steps_accepted", 0)
    integrations = calls("btflat.bt_integrate")
    return {
        "exppoly.eval.calls": (calls("exppoly.eval"), "count"),
        "exppoly.eval.self_s": (self_s("exppoly.eval"), "s"),
        "profiles.jet_F.calls": (calls("profiles.jet_F"), "count"),
        "profiles.jet_C.calls": (calls("profiles.jet_C"), "count"),
        "profiles.jets.self_s": (self_s("profiles.jet_F", "profiles.jet_C"), "s"),
        "profiles.conformal_value.calls": (calls("profiles.conformal_value"), "count"),
        "numerics.series.self_s": (
            self_s("numerics.series_mul", "numerics.series_div", "numerics.series_pow"),
            "s",
        ),
        "numerics.safeguarded_newton.calls": (calls("numerics.safeguarded_newton"), "count"),
        "numerics.adaptive_simpson.calls": (calls("numerics.adaptive_simpson"), "count"),
        "numerics.adaptive_simpson.evals": (count.get("numerics.adaptive_simpson.evals", 0), "count"),
        "numerics.adaptive_simpson.self_s": (self_s("numerics.adaptive_simpson"), "s"),
        "curvature.curvature_sample.calls": (calls("curvature.curvature_sample"), "count"),
        "curvature.curvature_sample.self_s": (self_s("curvature.curvature_sample"), "s"),
        "curvature.scalar_curvature.calls": (calls("curvature.scalar_curvature"), "count"),
        "curvature.scalar_curvature.self_s": (self_s("curvature.scalar_curvature"), "s"),
        "classify.classify.self_s": (self_s("classify.classify"), "s"),
        "btflat.bt_grid_residual.self_s": (self_s("btflat.bt_grid_residual"), "s"),
        "btflat.state_from_metric.calls": (calls("btflat.state_from_metric"), "count"),
        "btflat.bt_rhs.calls": (rhs, "count"),
        "btflat.bt_rhs.self_s": (self_s("btflat.bt_rhs"), "s"),
        "btflat.bt_integrate.self_s": (self_s("btflat.bt_integrate"), "s"),
        "btflat.steps_accepted": (accepted, "count"),
        "btflat.steps_rejected": (count.get("btflat.steps_rejected", 0), "count"),
        "btflat.rhs_per_step": (rhs / accepted if accepted else 0.0, "ratio"),
        "btflat.usable_frac": (count.get("btflat.untruncated", 0) / integrations if integrations else 0.0, "ratio"),
        "btflat.tval.calls": (calls("btflat.tval"), "count"),
        "operators.b_op_jet.calls": (calls("operators.b_op_jet"), "count"),
        "geometry.find_bolts.self_s": (self_s("geometry.find_bolts"), "s"),
        "geometry.distance.calls": (calls("geometry.distance"), "count"),
        "geometry.distance.self_s": (self_s("geometry.distance"), "s"),
        "geometry.classify_end.self_s": (self_s("geometry.classify_end"), "s"),
        "catalog.catalog_get.total_s": (total("catalog.catalog_get"), "s"),
        "metricfile.parse_metric.self_s": (self_s("metricfile.parse_metric"), "s"),
        "metricfile.emit_metric.self_s": (self_s("metricfile.emit_metric"), "s"),
        "cli.main.total_s": (total("cli.main"), "s"),
    }
