"""Command-line front end.

Data goes to files or standard output; diagnostics go to standard error.
Exit codes: 0 success, 1 usage error, 2 metric-file parse error, 3 numeric or
singularity failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import Optional, Sequence

from . import __version__
from .btflat import (
    STATE_FIELDS,
    BtState,
    SearchFailure,
    SeedError,
    bt_integrate,
    bt_nonextremal_search,
    bt_residuals,
    state_from_metric,
)
from .catalog import CatalogError, catalog_get, catalog_list, page_constants
from .classify import classify
from .curvature import curvature_sample
from .geometry import ambikahler_transform, classify_end, find_bolts
from .metricfile import MetricFileError, emit_metric, parse_metric
from .profiles import NotKahlerError, OutOfDomainError

__all__ = ["main"]

# ArithmeticError covers the numeric errors of the library (QuadratureError,
# SingularConformalFactorError, SingularSystemError, EvalOverflowError) and a
# non-finite curvature field
_NUMERIC_ERRORS = (ArithmeticError, SeedError, SearchFailure, OutOfDomainError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _atomic_write(path: str, content: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(content: str, out: Optional[str]):
    if out:
        _atomic_write(out, content)
    else:
        sys.stdout.write(content)


def _parse_range(spec: str, flag: str, shape: str) -> tuple:
    """(a, b) of an ``a:b`` ``shape``, or (a, b, n) of an ``a:b:n`` one; a and b must be finite."""
    parts = spec.split(":")
    if len(parts) != len(shape.split(":")):
        raise _UsageError(f"{flag} must be {shape}, got {spec!r}")
    try:
        values = (float(parts[0]), float(parts[1]), *(int(p) for p in parts[2:]))
    except ValueError as exc:
        raise _UsageError(f"bad {flag} {spec!r}: {exc}") from None
    if not (math.isfinite(values[0]) and math.isfinite(values[1])):
        raise _UsageError(f"{flag} endpoints must be finite, got {spec!r}")
    return values


def _parse_grid(spec: str):
    import numpy as np
    a, b, n = _parse_range(spec, "--grid", "a:b:n")
    if n < 1:
        raise _UsageError("--grid needs n >= 1")
    return np.array([a] if n == 1 else [a + (b - a) * i / (n - 1) for i in range(n)])


def _read(path: str) -> str:
    try:
        with open(path, "r") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _load_metric(path: str):
    return parse_metric(_read(path))


def _load_state(path: str) -> BtState:
    values = {}
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise MetricFileError(lineno, f"state file needs 'key value' lines, got {raw!r}")
        try:
            value = float(toks[1])
        except ValueError:
            raise MetricFileError(lineno, f"bad number {toks[1]!r}") from None
        if not math.isfinite(value):
            raise MetricFileError(lineno, f"{toks[0]} must be finite, got {toks[1]!r}")
        values[toks[0]] = value
    missing = [k for k in ("z",) + STATE_FIELDS if k not in values]
    if missing:
        raise MetricFileError(None, f"state file missing fields: {', '.join(missing)}")
    return BtState(values["z"], *(values[k] for k in STATE_FIELDS))


def _tsv(columns: Sequence[str], rows) -> str:
    header = "# " + "\t".join(columns) + f"\tu2metrics={__version__}"
    lines = [header]
    for row in rows:
        lines.append("\t".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ commands
def _cmd_classify(args) -> int:
    m = _load_metric(args.file)
    if not 0.0 < args.tol < math.inf:
        raise _UsageError(f"--tol must be positive and finite, got {args.tol!r}")
    report = classify(m, tol=args.tol, t=args.t)
    sys.stdout.write(report.text() + "\n")
    return 0


# each curvature TSV column and the CurvatureSample field it reads
_CURVATURE_COLUMNS = {
    "z": "z", "F": "F", "C": "C", "s": "s", "ric0_a": "ric0_a", "ric0_b": "ric0_b", "w_plus": "w_plus",
    "w_minus": "w_minus", "B1": "bach_B1", "B2": "bach_B2", "P_plus": "delW_plus_pot", "P_minus": "delW_minus_pot",
}


def _cmd_curvature(args) -> int:
    m = _load_metric(args.file)
    cs = curvature_sample(m, _parse_grid(args.grid))
    values = (getattr(cs, field).tolist() for field in _CURVATURE_COLUMNS.values())
    _emit(_tsv(tuple(_CURVATURE_COLUMNS), zip(*values)), args.out)
    return 0


def _cmd_ends(args) -> int:
    m = _load_metric(args.file)
    lines = []
    for bolt in find_bolts(m):
        extra = " degenerate" if bolt.degenerate else ""
        si = bolt.self_intersection
        si_text = f" self_intersection={si}" if si is not None else ""
        lines.append(f"bolt z0={bolt.z0:.12g} slope={bolt.slope:.12g}{si_text}{extra}")
    reps = [classify_end(m, side) for side in ("lower", "upper")]
    for rep in reps:
        line = f"end {rep.side} kind={rep.kind} complete={'yes' if rep.complete else 'no'}"
        if rep.self_intersection is not None:
            line += f" self_intersection={rep.self_intersection}"
        if rep.cone_angle is not None:
            line += f" cone_angle={rep.cone_angle:.12g}"
        dist = rep.diagnostics.get("distance_to_end")
        if dist is not None:
            line += f" distance={dist:.12g}"
        lines.append(line)
    sys.stdout.write("\n".join(lines) + "\n")
    errors = [rep.diagnostics["distance_error"] for rep in reps if "distance_error" in rep.diagnostics]
    for text in errors:
        print(f"numeric error: {text}", file=sys.stderr)
    return 3 if errors else 0


def _cmd_transform(args) -> int:
    _emit(emit_metric(ambikahler_transform(_load_metric(args.file))), args.out)
    return 0


def _cmd_catalog_list(args) -> int:
    sys.stdout.write(catalog_list() + "\n")
    return 0


def _cmd_catalog_emit(args) -> int:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise _UsageError(f"--param needs k=v, got {item!r}")
        key, value = item.split("=", 1)
        if key in params:
            raise _UsageError(f"--param {key} given twice")
        try:
            params[key] = float(value)
        except ValueError:
            raise _UsageError(f"bad --param value {item!r}") from None
    m = catalog_get(args.name, params)
    _emit(emit_metric(m), args.out)
    return 0


def _cmd_bt_residuals(args) -> int:
    m = _load_metric(args.file)
    s_const = None
    if args.s is not None:
        if not args.s.startswith("const:"):
            raise _UsageError(f"--s must be const:<value>, got {args.s!r}")
        try:
            s_const = float(args.s[len("const:") :])
        except ValueError:
            raise _UsageError(f"bad --s value {args.s!r}") from None
        if not math.isfinite(s_const):
            raise _UsageError(f"--s value must be finite, got {args.s!r}")
    state, f4d, c2d = state_from_metric(m, _parse_grid(args.grid), s_const)
    rows = zip(state.z.tolist(), *(r.tolist() for r in bt_residuals(state, args.t, f4d, c2d)))
    _emit(_tsv(("z", "F1res", "F2res", "Tval"), rows), args.out)
    return 0


_TRAJ_COLUMNS = ("z", "F", "F1d", "F2d", "F3d", "C", "C1d", "s", "K", "Tval", "F1res", "F2res")


def _traj_tsv(traj) -> str:
    # F1res/F2res: the residuals of each sample's own F⁗ and C″ (round-off)
    import numpy as np
    if not traj.samples:
        return _tsv(_TRAJ_COLUMNS, [])
    cols = np.array([(*smp.state, smp.F4d, smp.C2d) for smp in traj.samples]).T
    f1res, f2res, _ = bt_residuals(BtState(*cols[:9]), traj.t, cols[9], cols[10])
    rows = zip(traj.samples, f1res.tolist(), f2res.tolist())
    return _tsv(_TRAJ_COLUMNS, [(*smp.state, smp.Tval, r1, r2) for smp, r1, r2 in rows])


def _cmd_bt_integrate(args) -> int:
    init = _load_state(args.init)
    span = _parse_range(args.span, "--span", "a:b")
    if not 0.0 < args.tol < math.inf:
        raise _UsageError(f"--tol must be positive and finite, got {args.tol!r}")
    traj = bt_integrate(init, args.t, span, tol=args.tol)
    _emit(_traj_tsv(traj), args.out)
    print(
        f"steps accepted={traj.steps_accepted} rejected={traj.steps_rejected} "
        f"T_drift={traj.max_T_drift:.6g} truncated={'yes' if traj.truncated else 'no'}"
        + (f" ({traj.truncation_reason})" if traj.truncation_reason else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_bt_search(args) -> int:
    if args.t == 0.0:
        raise _UsageError("--t must be nonzero")
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    traj, residual = bt_nonextremal_search(args.t, trials=args.trials, seed=args.seed)
    if args.out:
        _emit(_traj_tsv(traj), args.out)
    init = traj.samples[0].state
    lines = [f"extremality_residual {residual:.12g}", f"T_drift {traj.max_T_drift:.6g}"]
    lines.append("seed_state " + " ".join(f"{k}={getattr(init, k):.12g}" for k in ("z",) + STATE_FIELDS))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_roots_page(args) -> int:
    nu, z0, coeff = page_constants()
    sys.stdout.write(f"nu {nu:.15g}\nz0 {z0:.15g}\ncoeff {coeff:.15g}\n")
    return 0


# ------------------------------------------------------------------- parser
def _build_parser() -> _Parser:
    parser = _Parser(prog="u2metrics", description="U(2)-invariant 4-metric toolkit")
    parser.add_argument("--version", action="version", version=f"u2metrics {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="evaluate the predicate taxonomy on a metric file")
    p.add_argument("file")
    p.add_argument("--t", type=float, default=None, help="enable the B^t-flat predicate at this t")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("curvature", help="sample curvature quantities on a grid, as TSV")
    p.add_argument("file")
    p.add_argument("--grid", required=True, help="a:b:n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("ends", help="bolts and end classification")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ends)

    p = sub.add_parser("transform", help="emit the ambiKähler partner metric")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("catalog", help="list or emit the classic metrics")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    pl = csub.add_parser("list")
    pl.set_defaults(func=_cmd_catalog_list)
    pe = csub.add_parser("emit")
    pe.add_argument("name")
    pe.add_argument("--param", action="append", help="k=v (repeatable)")
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=_cmd_catalog_emit)

    p = sub.add_parser("bt", help="the B^t-flat system")
    bsub = p.add_subparsers(dest="bt_command", required=True)
    pr = bsub.add_parser("residuals")
    pr.add_argument("file")
    pr.add_argument("--t", type=float, required=True)
    pr.add_argument("--s", default=None, help="const:<v> to pin scalar curvature")
    pr.add_argument("--grid", required=True, help="a:b:n")
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=_cmd_bt_residuals)
    pi = bsub.add_parser("integrate")
    pi.add_argument("--t", type=float, required=True)
    pi.add_argument("--init", required=True, help="state file: key value lines for z and the 8 fields")
    pi.add_argument("--span", required=True, help="a:b")
    pi.add_argument("--tol", type=float, default=1e-10)
    pi.add_argument("--out", default=None)
    pi.set_defaults(func=_cmd_bt_integrate)
    ps = bsub.add_parser("search")
    ps.add_argument("--t", type=float, required=True)
    ps.add_argument("--trials", type=int, default=32)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_bt_search)

    p = sub.add_parser("roots", help="special constants")
    rsub = p.add_subparsers(dest="roots_command", required=True)
    rp = rsub.add_parser("page")
    rp.set_defaults(func=_cmd_roots_page)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not math.isfinite(getattr(args, "t", None) or 0.0):  # classify's --t (None: unset) and bt's
            raise _UsageError(f"--t must be finite, got {args.t!r}")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CatalogError, NotKahlerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MetricFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --version / --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
