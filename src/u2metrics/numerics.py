"""Shared numerical kernels: adaptive quadrature, safeguarded root finding,
and truncated Taylor-series arithmetic.

Everything here is elementary and self-contained; the rest of the package
builds its curvature formulas and ODE flows on top of these primitives.
"""
from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "QuadratureError",
    "BracketError",
    "adaptive_simpson",
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


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, state, depth, max_depth):
    """state = [panel budget left, accumulated |δ|/15, exhausted panels]."""
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    if not (math.isfinite(flm) and math.isfinite(frm)):
        raise QuadratureError(f"non-finite integrand near [{a}, {b}]")
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    delta = left + right - whole
    # noise guard: stop refining once delta is round-off relative to the panel
    # values themselves, even when the absolute tol is unreachable
    noise = 1e-14 * (abs(left) + abs(right))
    state[0] -= 1
    met = abs(delta) <= 15.0 * tol or abs(delta) <= noise
    if met or depth >= max_depth or state[0] <= 0:
        state[1] += abs(delta) / 15.0
        if not met:
            state[2] += 1
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _adaptive(
        f, a, fa, m, fm, lm, flm, left, half, state, depth + 1, max_depth
    ) + _adaptive(f, m, fm, b, fb, rm, frm, right, half, state, depth + 1, max_depth)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]``.

    Absolute tolerance ``tol``; a panel is accepted when its Richardson
    difference |δ| is within 15·tol or within round-off of its own value.
    Bisection is capped at ``max_depth`` levels and a global budget of
    200 000 panels; if any panel hits either cap first, the whole interval is
    still summed and :class:`QuadratureError` is raised carrying that
    ``estimate`` and the accumulated |δ|/15 as ``error`` (Lyness 1969), so
    an unmet tolerance is never returned silently.  Smooth exponential
    integrands converge in a handful of levels.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    if not all(math.isfinite(v) for v in (fa, fb, fm)):
        raise QuadratureError(f"non-finite integrand on [{a}, {b}]")
    whole = _simpson(a, fa, b, fb, fm)
    state = [200000, 0.0, 0]
    total = _adaptive(f, a, fa, b, fb, m, fm, whole, tol, state, 0, max_depth)
    if state[2]:
        raise QuadratureError(
            f"{state[2]} panels on [{a}, {b}] reached depth {max_depth} or the panel budget "
            f"before tol={tol:g}; estimate {total!r}, error estimate {state[1]:.3g}",
            estimate=total,
            error=state[1],
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
        if ai == 0.0:
            continue
        for j in range(SERIES_LEN - i):
            out[i + j] += ai * b[j]
    return out


def series_div(a, b) -> list:
    """Taylor coefficients of a/b (b[0] must be nonzero)."""
    if b[0] == 0.0:
        raise ZeroDivisionError("series division by zero constant term")
    out = [0.0] * SERIES_LEN
    for k in range(SERIES_LEN):
        acc = a[k]
        for j in range(1, k + 1):
            acc -= b[j] * out[k - j]
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
    if a0 <= 0.0:
        raise ValueError("series_pow requires a positive constant term")
    pf = float(p) if isinstance(p, Fraction) else p
    x = [0.0] + [a[k] / a0 for k in range(1, SERIES_LEN)]
    log_part = _series_log1p(x)
    scaled = [pf * v for v in log_part]
    out = _series_exp0(scaled)
    lead = a0**pf
    return [lead * v for v in out]

