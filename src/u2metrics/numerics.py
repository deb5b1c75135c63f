"""Shared numerical kernels: adaptive quadrature and truncated Taylor-series
arithmetic.

The series functions take coefficients that are floats or 1-D float64
arrays over a grid (one formula for both: an array coefficient is the same
arithmetic at every point), and ``adaptive_quad`` (Gauss–Kronrod G7K15)
takes an integrand of an array of nodes, never evaluated at the ends.
``series_pow`` is J. C. P. Miller's recurrence for a power of a series, run on
a/a[0]: ten products give C^{1/2}, C^{−1/2}, … to fourth order.

The rest of the package builds on these primitives and keeps their rule for
numpy: a function that makes an array imports numpy itself, and one that takes
a float or an array tests it with :func:`is_array`, which never imports numpy.

``adaptive_simpson`` (an alias of ``adaptive_quad``), ``series_mul`` and
``safeguarded_newton`` (with the ``BracketError`` it raises) have no caller in
the package: they stay only because ``perfbench/tracer.py`` wraps them by name.
"""
from __future__ import annotations

import math
import sys
from functools import cache

__all__ = [
    "QuadratureError",
    "BracketError",
    "adaptive_quad",
    "at_first",
    "is_array",
    "safeguarded_newton",
    "series_mul",
    "series_div",
    "series_pow",
    "jet_to_series",
    "series_to_jet",
]

SERIES_LEN = 5  # value + 4 derivatives

_FACTORIALS = (1.0, 1.0, 2.0, 6.0, 24.0)


class QuadratureError(ArithmeticError):
    """Quadrature failed: a non-finite integrand, or panels that reached the
    depth cap or the panel budget before meeting the tolerance or noise test
    while the whole-interval error estimate was still above the tolerance.

    In the second case ``estimate`` is the integral summed over all panels
    and ``error`` the accumulated Gauss–Kronrod difference |K15 − G7| of
    those panels; both are None in the first.
    """

    def __init__(self, message: str, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class BracketError(ArithmeticError):
    """Root finding could not maintain a sign-change bracket."""


@cache
def _gauss_kronrod() -> tuple:
    # G7K15 on [−1, 1] (Piessens et al., QUADPACK, 1983), outermost node first: Kronrod nodes, their
    # weights, and Gauss weights (0 on the Kronrod-only nodes), mirrored below onto all 15 nodes
    import numpy as np
    gk = np.array([
        [0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
         0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0],
        [0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
         0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782],
        [0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0, 0.4179591836734694],
    ])
    return np.concatenate([-gk[0, :-1], gk[0, ::-1]]), np.concatenate([gk[1:, :-1], gk[1:, ::-1]], axis=1)


def is_array(z) -> bool:
    """True if z is a numpy array; never imports numpy (no array exists before it is imported)."""
    return not isinstance(z, float) and "numpy" in sys.modules and isinstance(z, sys.modules["numpy"].ndarray)


def at_first(bad, *values):
    """The ``values`` at the first point where ``bad`` holds, or None if it holds nowhere.

    ``bad`` is a bool with float ``values``, which are returned as they are,
    or a bool array with 1-D arrays of its length, which are read at its
    first true entry as Python scalars.
    """
    if not is_array(bad):
        return values if bad else None
    if not bad.any():
        return None
    i = bad.argmax()  # the first true entry
    return tuple(v[i].item() for v in values)


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 40) -> float:
    """Adaptive Gauss–Kronrod G7K15 quadrature of ``f`` over ``[a, b]``.

    ``f`` maps a 1-D float64 array of nodes to their values and is never
    called at ``a`` or ``b``.  Each bisection level makes one call with the
    15 nodes of every open panel.  A panel is accepted when |K15 − G7| is
    within tol·width/|b − a| or within 1e-14 of |K15| (round-off), and every
    open panel is accepted once Σ|K15 − G7| over the accepted and the open
    panels is within tol (QUADPACK's global test); the accepted K15 values
    are summed with ``math.fsum``.  Bisection stops at ``max_depth`` levels
    or a budget of 200 000 panels, spent left to right within a level; a
    panel that cannot split raises :class:`QuadratureError` with the
    whole-interval ``estimate`` and ``error`` = Σ|K15 − G7|.
    """
    import numpy as np
    if a == b:
        return 0.0
    nodes, weights = _gauss_kronrod()
    lo, hi = np.array([a]), np.array([b])  # the open panels of the level, left to right
    level_tol, budget, parts, errors, exhausted, done = tol, 200000, [], [], 0, 0.0
    for depth in range(max_depth + 1):
        n = len(lo)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = np.reshape(f((mid[:, None] + half[:, None] * nodes).ravel()), (n, len(nodes)))
        hit = at_first(~np.isfinite(fx).all(axis=1), lo, hi)
        if hit is not None:
            raise QuadratureError(f"non-finite integrand on [{hit[0]}, {hit[1]}]")
        kronrod, gauss = (fx @ weights.T * half[:, None]).T
        size = np.abs(kronrod - gauss)
        # a panel is done within its share of tol, at round-off relative to its
        # value (a noise guard for an unreachable tol), or, with every open
        # panel, once the whole estimate meets tol (QUADPACK's global test)
        met = (size <= level_tol) | (size <= 1e-14 * np.abs(kronrod)) | (done + np.sum(size) <= tol)
        budget -= n
        # the panels that split, left to right, while their halves fit in the budget
        go = np.flatnonzero(~met)[: max(budget, 0) // 2 if depth < max_depth else 0]
        exhausted += n - len(go) - int(np.count_nonzero(met))
        kronrod[go] = size[go] = 0.0  # a panel that splits is summed through its halves
        parts.append(kronrod)
        errors.append(size)
        done += float(np.sum(size))
        if not len(go):
            break
        lo, mid, hi = lo[go], mid[go], hi[go]
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
        level_tol = 0.5 * level_tol
    total = math.fsum(np.concatenate(parts).tolist())
    if exhausted:
        error = math.fsum(np.concatenate(errors).tolist())
        raise QuadratureError(
            f"{exhausted} panels on [{a}, {b}] reached depth {max_depth} or the panel budget "
            f"before tol={tol:g}; estimate {total!r}, error estimate {error:.3g}",
            estimate=total,
            error=error,
        )
    return total


adaptive_simpson = adaptive_quad


def safeguarded_newton(f, df, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Newton iteration safeguarded by a maintained sign-change bracket.

    Starts from the midpoint of ``[lo, hi]``; any Newton step that leaves the
    bracket (or stalls) is replaced by bisection.  Returns x with
    ``|f(x)| < tol``, or raises :class:`BracketError` after 200 iterations.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if abs(fx) < tol:
            return x
        if flo * fx <= 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        d = df(x)
        step_ok = False
        if d != 0.0:
            xn = x - fx / d
            if lo < xn < hi:
                x = xn
                step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
    raise BracketError(f"safeguarded Newton failed to reach |f| < {tol}")


def jet_to_series(jet) -> list:
    """Convert (value, d1, .., d4) into Taylor coefficients a_k = d_k / k!."""
    return [jet[k] / _FACTORIALS[k] for k in range(SERIES_LEN)]


def series_to_jet(series) -> tuple:
    """Inverse of :func:`jet_to_series`."""
    return tuple(series[k] * _FACTORIALS[k] for k in range(SERIES_LEN))


def series_mul(a, b) -> list:
    """Taylor coefficients of a·b."""
    out = [0.0] * SERIES_LEN
    for i in range(SERIES_LEN):
        for j in range(SERIES_LEN - i):
            out[i + j] += a[i] * b[j]
    return out


def series_div(a, b) -> list:
    """Taylor coefficients of a/b (b[0] must be nonzero)."""
    if at_first(b[0] == 0.0) is not None:
        raise ZeroDivisionError("series division by zero constant term")
    out = [0.0] * SERIES_LEN
    for k in range(SERIES_LEN):
        acc = a[k]
        for j in range(1, k + 1):
            acc = acc - b[j] * out[k - j]  # not -=, which would write into an array a[k]
        out[k] = acc / b[0]
    return out


def series_pow(a, p) -> list:
    """Taylor coefficients of a**p for a real p, taken as float(p) (a[0] must be positive).

    The power recurrence (J. C. P. Miller; Knuth, TAOCP Vol. 2, §4.7) on the
    normalized series x = a/a[0]: u₀ = 1 and, for k = 1..4,
    k·u_k = Σ_{j=1..k} ((p + 1)·j − k)·x_j·u_{k−j}; the result is a[0]**p·u.
    """
    a0 = a[0]
    if at_first(a0 <= 0.0) is not None:
        raise ValueError("series_pow requires a positive constant term")
    p = float(p)
    x = [1.0] + [a[j] / a0 for j in range(1, SERIES_LEN)]
    u = [1.0]
    for k in range(1, SERIES_LEN):
        acc = 0.0
        for j in range(1, k + 1):
            acc += ((p + 1.0) * j - k) * x[j] * u[k - j]
        u.append(acc / k)
    lead = a0**p
    return [lead * v for v in u]
