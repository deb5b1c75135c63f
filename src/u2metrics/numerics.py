"""Shared numerical kernels: adaptive quadrature, safeguarded root finding,
and truncated Taylor-series arithmetic.

The series functions take coefficients that are floats or 1-D float64
arrays over a grid (one formula for both: an array coefficient is the same
arithmetic at every point), and ``adaptive_simpson`` takes an integrand of
an array of nodes.

Everything here is elementary and self-contained; the rest of the package
builds its curvature formulas and ODE flows on top of these primitives.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "QuadratureError",
    "BracketError",
    "adaptive_simpson",
    "at_first",
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
    depth cap or the panel budget before meeting the tolerance or noise test.

    In the second case ``estimate`` is the integral summed over all panels
    and ``error`` the accumulated |δ|/15 of those panels; both are None in
    the first.
    """

    def __init__(self, message: str, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class BracketError(ArithmeticError):
    """Root finding could not maintain a sign-change bracket."""


_HALVES = [0, 1, 2, 2, 3, 4]  # a panel's five nodes as its two halves' three each


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def at_first(bad, *values):
    """The ``values`` at the first point where ``bad`` holds, or None if it holds nowhere.

    ``bad`` is a bool with float ``values``, which are returned as they are,
    or a bool array with 1-D arrays of its length, which are read at its
    first true entry as Python scalars.
    """
    if not isinstance(bad, np.ndarray):
        return values if bad else None
    if not bad.any():
        return None
    i = np.flatnonzero(bad)[0]
    return tuple(v[i].item() for v in values)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]``.

    ``f`` takes a 1-D float64 array of nodes and returns the array of their
    values.  The bisection is level-synchronous: the three nodes of [a, b]
    make one call, and each level's panels hand all of their new quarter
    points to one call.  Absolute tolerance ``tol``, halved at each level; a
    panel is accepted when its Richardson difference |δ| is within 15·tol or
    within round-off of its own value, the test of a depth-first recursion,
    so the panels and the nodes are the ones that recursion would visit.
    Bisection is capped at ``max_depth`` levels and a budget of 200 000
    panels: a level's panels split, left to right, only while their halves
    fit in what is left of it.  If any panel hits either cap first, the
    whole interval is still summed and :class:`QuadratureError`
    is raised carrying that ``estimate`` and the accumulated |δ|/15 as
    ``error`` (Lyness 1969), so an unmet tolerance is never returned
    silently.  The accepted panels are summed with ``math.fsum``.  Smooth
    exponential integrands converge in a handful of levels.
    """
    if a == b:
        return 0.0
    # x and fx: one row per open panel of the level, left to right, holding
    # its (left end, midpoint, right end); whole: the panels' Simpson values
    x = np.array([[a, 0.5 * (a + b), b]])
    fx = np.reshape(f(x[0]), (1, 3))
    if not np.isfinite(fx).all():
        raise QuadratureError(f"non-finite integrand on [{a}, {b}]")
    whole = _simpson(x[:, 0], fx[:, 0], x[:, 2], fx[:, 2], fx[:, 1])
    level_tol, budget, parts, errors, exhausted = tol, 200000, [], [], 0
    for depth in range(max_depth + 1):
        n = len(x)
        # columns 0, 2, 4 are a panel's nodes, 1 and 3 its new quarter points
        x5, f5 = np.empty((n, 5)), np.empty((n, 5))
        x5[:, ::2], f5[:, ::2] = x, fx
        x5[:, 1::2] = 0.5 * (x[:, :-1] + x[:, 1:])
        f5[:, 1::2] = np.reshape(f(x5[:, 1::2].ravel()), (n, 2))
        if not np.isfinite(f5[:, 1::2]).all():
            i = np.flatnonzero(~np.isfinite(f5[:, 1::2]).all(axis=1))[0]
            raise QuadratureError(f"non-finite integrand near [{x[i, 0]}, {x[i, 2]}]")
        halves = _simpson(x5[:, :-2:2], f5[:, :-2:2], x5[:, 2::2], f5[:, 2::2], f5[:, 1::2])
        left, right = halves[:, 0], halves[:, 1]
        delta = left + right - whole
        size = np.abs(delta)
        # noise guard: stop refining once delta is round-off relative to the panel
        # values themselves, even when the absolute tol is unreachable
        met = (size <= 15.0 * level_tol) | (size <= 1e-14 * (np.abs(left) + np.abs(right)))
        budget -= n
        # the panels that split, left to right, while their halves fit in the budget
        go = np.flatnonzero(~met)[: max(budget, 0) // 2 if depth < max_depth else 0]
        exhausted += n - len(go) - int(np.count_nonzero(met))
        done = np.ones(n, dtype=bool)
        done[go] = False
        parts.append((left + right + delta / 15.0)[done])
        errors.append(size[done] / 15.0)
        if not len(go):
            break
        # every open panel splits into its two halves, which stay adjacent
        x = x5[go][:, _HALVES].reshape(-1, 3)
        fx = f5[go][:, _HALVES].reshape(-1, 3)
        whole = halves[go].ravel()
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


def safeguarded_newton(f, df, lo: float, hi: float, tol: float = 1e-14, max_iter: int = 200) -> float:
    """Newton iteration safeguarded by a maintained sign-change bracket.

    Starts from the midpoint of ``[lo, hi]``; any Newton step that leaves the
    bracket (or stalls) is replaced by bisection.  Returns x with
    ``|f(x)| < tol``.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
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
    out = [0.0] * SERIES_LEN
    for i in range(SERIES_LEN):
        ai = a[i]
        if not isinstance(ai, np.ndarray) and ai == 0.0:
            continue
        for j in range(SERIES_LEN - i):
            out[i + j] += ai * b[j]
    return out


def series_div(a, b) -> list:
    """Taylor coefficients of a/b (b[0] must be nonzero)."""
    if np.any(b[0] == 0.0):
        raise ZeroDivisionError("series division by zero constant term")
    out = [0.0] * SERIES_LEN
    for k in range(SERIES_LEN):
        acc = a[k]
        for j in range(1, k + 1):
            acc = acc - b[j] * out[k - j]  # not -=, which would write into an array a[k]
        out[k] = acc / b[0]
    return out


def _series_log1p(x) -> list:
    """log(1 + x) for a series with x[0] = 0."""
    out = [0.0] * SERIES_LEN
    power = [0.0] * SERIES_LEN
    power[0] = 1.0
    sign = 1.0
    for n in range(1, SERIES_LEN):
        power = series_mul(power, x)
        for k in range(SERIES_LEN):
            out[k] += sign * power[k] / n
        sign = -sign
    return out


def _series_exp0(y) -> list:
    """exp(y) for a series with y[0] = 0."""
    out = [0.0] * SERIES_LEN
    term = [0.0] * SERIES_LEN
    out[0] = term[0] = 1.0
    for n in range(1, SERIES_LEN):
        term = series_mul(term, y)
        for k in range(SERIES_LEN):
            out[k] += term[k] / _FACTORIALS[n] * 1.0
    return out


def series_pow(a, p) -> list:
    """Taylor coefficients of a**p for real p (a[0] must be positive)."""
    a0 = a[0]
    if np.any(a0 <= 0.0):
        raise ValueError("series_pow requires a positive constant term")
    pf = float(p) if isinstance(p, Fraction) else p
    x = [0.0] + [a[k] / a0 for k in range(1, SERIES_LEN)]
    log_part = _series_log1p(x)
    scaled = [pf * v for v in log_part]
    out = _series_exp0(scaled)
    lead = a0**pf
    return [lead * v for v in out]

