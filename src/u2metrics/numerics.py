"""Shared numerical kernels: adaptive quadrature and the float-or-array helpers.

``adaptive_quad`` (Gauss–Kronrod G10K21) takes an integrand of one float,
never evaluated at the ends.  The module never imports numpy, and the package
keeps one rule for it: a function that makes an array imports numpy itself,
and one that takes a float or an array tests it with :func:`is_array`, which
never imports numpy, and reads the first failing point with :func:`at_first`.
:class:`UniformStream` is numpy's ``default_rng(seed).uniform`` in stdlib ints.

``adaptive_simpson`` (an alias of ``adaptive_quad``), the truncated
Taylor-series helpers ``series_mul``, ``series_div`` and ``series_pow``, and
``safeguarded_newton`` (with the ``BracketError`` it raises) have no caller in
the package: they stay only because ``perfbench/tracer.py`` wraps them by name.
Each series helper takes five Taylor coefficients, floats or 1-D float64
arrays over a grid (the same arithmetic at every point); ``series_pow`` is
J. C. P. Miller's recurrence for a power of a series, run on a/a[0].
"""
from __future__ import annotations

import math
import sys
from itertools import permutations, product
from operator import mul

__all__ = [
    "QuadratureError",
    "BracketError",
    "UniformStream",
    "adaptive_quad",
    "at_first",
    "is_array",
    "safeguarded_newton",
    "series_mul",
    "series_div",
    "series_pow",
]

SERIES_LEN = 5  # value + 4 derivatives
_MAX_DEPTH = 40  # adaptive_quad's bisection levels


class QuadratureError(ArithmeticError):
    """Quadrature failed: a non-finite integrand, or panels that reached the
    depth cap or the panel budget before meeting the tolerance or noise test
    while the whole-interval error estimate was still above the tolerance.

    In the second case ``estimate`` is the integral summed over all panels
    and ``error`` the accumulated Gauss–Kronrod difference |K21 − G10| of
    those panels; both are None in the first.
    """

    def __init__(self, message: str, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class BracketError(ArithmeticError):
    """Root finding could not maintain a sign-change bracket."""


# G10K21 on [−1, 1] (QUADPACK's dqk21, Piessens et al. 1983), outermost first: the Kronrod nodes, their weights and the
# Gauss weights, mirrored onto the 21 nodes in ascending order (the Gauss nodes are nodes 1, 3, ..., 19; none at 0)
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845, 0.7808177265864169,
       0.6794095682990244, 0.5627571346686047, 0.4333953941292472, 0.2943928627014602, 0.14887433898163122, 0.0)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996, 0.0931254545836976,
       0.10938715880229764, 0.12349197626206584, 0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635, 0.29552422471475287)
_NODES, _KRONROD, _GAUSS = tuple(-x for x in _XK[:-1]) + _XK[::-1], _WK[:-1] + _WK[::-1], _WG + _WG[::-1]


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


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


class UniformStream:
    """numpy's ``default_rng(seed).uniform``, bit for bit, on ints: ``SeedSequence(seed)``
    seeds PCG64 (O'Neill 2014: a 128-bit LCG read through XSL-RR), and ``uniform(lo, hi)``
    is lo + (hi − lo)·((x >> 11)·2⁻⁵³) of its next output x (numpy's ``size=n`` is n of
    these in turn).  A ``seed`` that is not a non-negative int raises ValueError."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        words = [seed >> i & _M32 for i in range(0, max(seed.bit_length(), 1), 32)]
        h = 0x43B0D7E5
        def hashmix(v, mult=0x931E8875):
            nonlocal h
            v, h = v ^ h, h * mult & _M32
            v = v * h & _M32
            return v ^ v >> 16
        def mix(dst, v):  # pool[dst] mixed with hashmix(v)
            r = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(v)) & _M32
            pool[dst] = r ^ r >> 16

        pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]  # a pool of four words
        for src, dst in permutations(range(4), 2):
            mix(dst, pool[src])
        for word, dst in product(words[4:], range(4)):  # the words past the pool's four
            mix(dst, word)
        h = 0x8B51F9DD  # generate_state(4, uint64): eight 32-bit words, low word first
        out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
        w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = (w[2] << 64 | w[3]) << 1 & _M128 | 1
        self._state = ((self._inc + (w[0] << 64 | w[1])) * self._MULT + self._inc) & _M128

    def uniform(self, lo: float, hi: float) -> float:
        self._state = s = (self._state * self._MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return lo + (hi - lo) * ((((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0**-53)


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Gauss–Kronrod G10K21 quadrature of ``f`` over ``[a, b]``.

    ``f`` maps one float to one float and is never called at ``a`` or ``b``.
    Bisection is level by level: each level evaluates the 21 nodes of every
    open panel, left to right.  A panel is accepted when |K21 − G10| is
    within tol·width/|b − a| or within 1e-14 of |K21| (round-off), and every
    open panel is accepted once Σ|K21 − G10| over the accepted and the open
    panels is within tol (QUADPACK's global test); the accepted K21 values
    are summed with ``math.fsum``.  Bisection stops at ``_MAX_DEPTH`` = 40
    levels or a budget of 200 000 panels (up to 4.2 M integrand calls),
    spent left to right within a level; a panel that cannot split raises
    :class:`QuadratureError` with the whole-interval ``estimate`` and
    ``error`` = Σ|K21 − G10|.  A non-finite ``a`` or ``b``, or a ``tol`` that
    is not positive and finite, raises ValueError.
    """
    if not (math.isfinite(a) and math.isfinite(b) and 0.0 < tol < math.inf):
        raise ValueError(f"adaptive_quad needs finite ends and a positive finite tol, got [{a}, {b}] and tol={tol!r}")
    if a == b:
        return 0.0
    panels = [(a, b)]  # the open panels of the level, left to right
    level_tol, budget, closed, exhausted, done = tol, 200000, [], 0, 0.0
    for depth in range(_MAX_DEPTH + 1):
        rules = []  # (lo, mid, hi, K21, |K21 − G10|) of each open panel
        for lo, hi in panels:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            fx = [f(mid + half * x) for x in _NODES]
            kronrod, gauss = half * sum(map(mul, fx, _KRONROD)), half * sum(map(mul, fx[1::2], _GAUSS))
            if not math.isfinite(kronrod) and not all(map(math.isfinite, fx)):  # the weights are positive
                raise QuadratureError(f"non-finite integrand on [{lo}, {hi}]")
            rules.append((lo, mid, hi, kronrod, abs(kronrod - gauss)))
        # a panel is done within its share of tol, at round-off relative to its
        # value (a noise guard for an unreachable tol), or, with every open
        # panel, once the whole estimate meets tol (QUADPACK's global test)
        whole = done + sum(rule[4] for rule in rules) <= tol
        budget -= len(rules)
        # the panels that split, left to right, while their halves fit in the budget
        room = 2 * (max(budget, 0) // 2) if depth < _MAX_DEPTH else 0
        panels = []
        for lo, mid, hi, kronrod, size in rules:
            if not (whole or size <= level_tol or size <= 1e-14 * abs(kronrod)):
                if len(panels) < room:  # a panel that splits is summed through its halves
                    panels += ((lo, mid), (mid, hi))
                    continue
                exhausted += 1
            closed.append((kronrod, size))  # a panel that stops, accepted or exhausted
            done += size
        if not panels:
            break
        level_tol = 0.5 * level_tol
    total = math.fsum(kronrod for kronrod, _ in closed)
    if exhausted:
        error = math.fsum(size for _, size in closed)
        raise QuadratureError(
            f"{exhausted} panels on [{a}, {b}] reached depth {_MAX_DEPTH} or the panel budget "
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
