"""Exact algebra of exponential polynomials  Σ aₖ·e^(k·z).

Exponents are half-integers (all that the profile and conformal-factor
formulas produce, via √C factors), stored as the int 2k and returned as
Fractions.  Coefficients are exact rationals (:class:`fractions.Fraction`) or
floats; arithmetic stays exact as long as every operand is exact.

Values are immutable after construction and all operations are pure.
``eval`` and ``jet`` take a float or a 1-D float64 array of points; on an
array, ``jet`` sums all derivative orders in one pass per term, in term
order.  Each value also carries a float cache for evaluation (sorted float
exponents and, for every derivative order n, the row float(c·kⁿ)) and a
cache of its real zeros; both are filled on first use and replaced whole,
never mutated, and refilling them gives the same values, so values can
still be shared freely between threads.  Equality and hashing depend on
the exact terms alone.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction
from itertools import zip_longest
from numbers import Rational

from .numerics import is_array

__all__ = ["ExpPoly", "ExpPolyError", "EvalOverflowError", "ENDPOINT_RTOL"]


class ExpPolyError(ValueError):
    """Invalid exponential-polynomial construction or operand."""


class EvalOverflowError(ArithmeticError):
    """Evaluation produced a non-finite value; carries the offending exponent."""

    def __init__(self, exponent: Fraction, z: float):
        self.exponent = exponent
        self.z = z
        super().__init__(f"term e^({exponent}z) is non-finite at z={z}")


ENDPOINT_RTOL = 1e-12  # real_roots: a zero this close to a finite lo/hi is that end
_SCALAR = (int, float, Rational)  # int and float ahead of the ABC, whose isinstance is a slow Python-level check


def _key(k) -> int:
    """2k for a half-integer exponent k: an int, Fraction, float or (p, q) tuple."""
    if isinstance(k, float) and k % 0.5:  # nan for an infinite or nan k
        raise ExpPolyError(f"exponent {k!r} is not a half-integer")
    k = Fraction(*k) if isinstance(k, tuple) else Fraction(k)
    if k.denominator > 2:
        raise ExpPolyError(f"exponent {k} has denominator {k.denominator}; only 1 or 2 allowed")
    return 2 * k.numerator // k.denominator


def _as_number(c):
    """c as a finite float or a Fraction (copied only when it is not one)."""
    if isinstance(c, float):
        if not math.isfinite(c):
            raise ExpPolyError(f"non-finite coefficient {c!r}")
        return c
    if isinstance(c, Fraction):
        return c
    if isinstance(c, _SCALAR):
        return Fraction(c)
    raise ExpPolyError(f"unsupported coefficient type {type(c).__name__}")


def _quotient(p: int, q: int) -> float:
    """p/q rounded once, ±inf past float range."""
    try:
        return p / q
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _as_coefficient(c):
    """``_as_number(c)``, which must have a float value to be evaluated or added to a float."""
    c = _as_number(c)
    try:
        float(c)
    except OverflowError:
        raise ExpPolyError("exact coefficient is too large for a float") from None
    return c


class ExpPoly:
    """A finite sum  Σ aₖ·e^(k·z)  with half-integer exponents k.

    Built from (exponent, coefficient) pairs, as every arithmetic result is:
    equal exponents combine in order, each sum must have a float value, and
    no stored coefficient is zero, so the zero polynomial has no terms.
    """

    __slots__ = ("_terms", "_compiled", "_zeros")

    def __init__(self, terms=()):
        self._fill((_key(k), c) for k, c in terms)

    @staticmethod
    def _keyed(items) -> "ExpPoly":  # from (2k, coefficient) pairs, keys unchecked
        return object.__new__(ExpPoly)._fill(items)

    def _fill(self, items) -> "ExpPoly":
        data: dict[int, object] = {}
        for k, c in items:
            c = _as_number(c)
            prev = data.get(k)
            if prev is not None:
                try:  # an exact term past float range fails here, where it meets another
                    c = _as_coefficient(prev + c)
                except (OverflowError, ExpPolyError):
                    raise ExpPolyError(f"coefficient of e^({Fraction(k, 2)}z) sums past float range") from None
            if c:
                data[k] = c
            elif prev is not None:
                del data[k]
        object.__setattr__(self, "_terms", data)
        object.__setattr__(self, "_compiled", None)
        object.__setattr__(self, "_zeros", None)
        return self

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("ExpPoly is immutable")

    # ---------------------------------------------------------------- basics
    @staticmethod
    def constant(c) -> "ExpPoly":
        return ExpPoly._keyed(((0, c),))

    @staticmethod
    def exp_term(k, c=1) -> "ExpPoly":
        """The single term c·e^(k·z)."""
        return ExpPoly([(k, c)])

    def terms(self) -> tuple:
        """Sorted tuple of (exponent, coefficient) pairs."""
        return tuple((Fraction(k, 2), c) for k, c in sorted(self._terms.items()))

    def coefficient(self, k):
        return self._terms.get(_key(k), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self._terms.values())

    def exponents(self) -> tuple:
        return tuple(Fraction(k, 2) for k in sorted(self._terms))

    def extreme_exponent(self, side: int):
        """Largest exponent for side=+1 (z→+∞ behaviour), smallest for -1."""
        if not self._terms:
            return None
        return Fraction(max(self._terms) if side > 0 else min(self._terms), 2)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, _SCALAR):
                return NotImplemented
            other = ExpPoly.constant(other)
        return ExpPoly._keyed([*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ExpPoly) and not isinstance(other, _SCALAR):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return ExpPoly._keyed([(k, -c) for k, c in self._terms.items()])

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            b = other._terms.items()
            return ExpPoly._keyed([(ka + kb, ca * cb) for ka, ca in self._terms.items() for kb, cb in b])
        if isinstance(other, _SCALAR):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division by a nonzero rational; a float divisor is refused."""
        if not isinstance(other, (int, Rational)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("ExpPoly division by zero")
        d = Fraction(other)
        return ExpPoly._keyed([(k, c / d) for k, c in self._terms.items()])

    def scale(self, c) -> "ExpPoly":
        c = _as_coefficient(c)
        return ExpPoly._keyed([(k, a * c) for k, a in self._terms.items()])

    # ---------------------------------------------------------- differential
    def derive(self, order: int = 1) -> "ExpPoly":
        """Termwise derivative: e^(k·z) maps to kⁿ·e^(k·z)."""
        if order < 0:
            raise ExpPolyError("derivative order must be non-negative")
        if order == 0:
            return self
        return ExpPoly._keyed([(k, c * Fraction(k**order, 1 << order)) for k, c in self._terms.items()])

    # ------------------------------------------------------------ evaluation
    def _rows(self, order: int) -> tuple:
        """(keys 2k, float exponents, coefficient rows 0..≥order).

        Terms are in exponent order; row n holds c·kⁿ = num·(2k)ⁿ / (den·2ⁿ)
        with (num, den) = ``c.as_integer_ratio()``, rounded once for a float
        and an exact c alike (0.0 where the derivative drops the term, ±inf
        past float range), which is what ``derive(n)`` followed by a float
        evaluation uses.
        """
        compiled = self._compiled
        if compiled is not None and len(compiled[2]) > order:
            return compiled
        items = sorted(self._terms.items())
        ratios = [(k, *c.as_integer_ratio()) for k, c in items]  # each coefficient read once
        rows = [[_quotient(num * k**i, den << i) for k, num, den in ratios] for i in range(max(order, 4) + 1)]
        keys = tuple(k for k, _ in items)
        compiled = (keys, tuple(k / 2 for k in keys), tuple(map(tuple, rows)))
        object.__setattr__(self, "_compiled", compiled)
        return compiled

    def _overflow(self, order: int, z: float) -> EvalOverflowError:
        """The error for a non-finite value of row ``order`` at z: it names the
        first non-finite term in exponent order, else the extreme exponent."""
        keys, kfs, rows = self._rows(order)
        live = [(k, kf, c) for k, kf, c in zip(keys, kfs, rows[order]) if c != 0.0]
        for k, kf, c in live:
            try:
                term = c * math.exp(kf * z)
            except OverflowError:
                return EvalOverflowError(Fraction(k, 2), z)
            if not math.isfinite(term):
                return EvalOverflowError(Fraction(k, 2), z)
        ks = [k for k, _, _ in live]
        return EvalOverflowError(Fraction(max(ks) if z > 0 else min(ks), 2), z)

    def eval(self, z):
        """Floating-point value at z, terms accumulated in exponent order."""
        return self.jet(z, 0)[0]

    def jet(self, z, order: int = 4) -> tuple:
        """(value, d/dz, ..., d^order/dz^order) at z.

        Entry n equals ``derive(n).eval(z)`` bit for bit, as ``_rows`` rounds
        each c·kⁿ once; a non-finite entry raises :class:`EvalOverflowError`.

        z is a float or a 1-D float64 array; on an array every entry is an
        array over z, summed the same way with ``np.exp`` in place of
        ``math.exp`` (for order ≥ 1 each term adds to one (order+1, len(z))
        array), and a non-finite entry raises for the first such z.
        """
        _, kfs, rows = self._rows(order)
        array = is_array(z)
        if array:
            import numpy as np
        with np.errstate(all="ignore") if array else nullcontext():
            try:
                # an array's exponentials are the rows of one exp(k ⊗ z)
                es = np.exp(np.multiply.outer(kfs, z)) if array else [math.exp(kf * z) for kf in kfs]
            except OverflowError:
                raise self._overflow(0, z) from None
            if array and order:  # each term adds c·e to all orders at once (a value alone: float c is faster)
                values = np.zeros((order + 1,) + z.shape)
                for c, e in zip(np.array(rows[: order + 1]).T[:, :, None], es):
                    values += c * e
            else:
                values = []
                for n in range(order + 1):
                    total = np.zeros(z.shape) if array else 0.0
                    for c, e in zip(rows[n], es):
                        total += c * e
                    values.append(total)
        # once the value (row 0) is finite every exponential is, so a
        # non-finite entry n comes from row n's own terms
        if array:
            bad = ~np.isfinite(values)
            if bad.any():  # the float path's error at the first bad z
                i = np.flatnonzero(bad.any(axis=0))[0]
                raise self._overflow(int(np.argmax(bad[:, i])), z[i].item())
        else:
            for n, total in enumerate(values):
                if not math.isfinite(total):
                    raise self._overflow(n, z)
        return tuple(values)

    # ------------------------------------------------------------ real zeros
    def real_roots(self, lo: float = -math.inf, hi: float = math.inf) -> list:
        """[(z, multiplicity)] for the real zeros with lo ≤ z ≤ hi, ascending.

        Decided exactly (see "exact zeros" below); z is d·log of the float
        nearest to the root x.  A zero within a relative ``ENDPOINT_RTOL`` of
        a finite lo or hi is exactly that end, so ``real_roots(z0, z0)``
        gives the order of a zero at z0.
        """
        zeros = self._zeros
        if zeros is None:
            if not self._terms:
                raise ExpPolyError("the zero polynomial vanishes everywhere")
            step = 1 if any(k & 1 for k in self._terms) else 2  # x = e^{z/d}, d = 2/step
            low = min(self._terms)
            lcm = math.lcm(*(c.as_integer_ratio()[1] for c in self._terms.values()))  # P over ℤ
            p = [0] * ((max(self._terms) - low) // step + 1)
            for k, c in self._terms.items():
                p[(k - low) // step] = int(Fraction(c) * lcm)
            roots = [(x, m) for m, f in enumerate(_square_free(p), 1) for x in _positive_roots(f)]
            zeros = tuple(sorted((2 // step * math.log(x), m) for x, m in roots))
            object.__setattr__(self, "_zeros", zeros)
        ends = [float(end) for end in (lo, hi) if math.isfinite(end)]
        out = []
        for z, mult in zeros:
            z = next((end for end in ends if abs(z - end) <= ENDPOINT_RTOL * abs(end)), z)
            if lo <= z <= hi:
                out.append((z, mult))
        return out

    # -------------------------------------------------------------- protocol
    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, _SCALAR):
                return NotImplemented
            other = ExpPoly.constant(other)
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "ExpPoly(0)"
        parts = []
        for k, c in self.terms():
            if k == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*e^({k}z)")
        return "ExpPoly(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------- exact zeros
# The value is x^j·P(x) in x = e^{z/d} with P's coefficients the exact terms
# times one integer.  Yun's square-free decomposition of P gives the
# multiplicities, Sturm sequences of primitive pseudo-remainders isolate each
# factor's positive roots, and bisection on exact signs finds the float nearest
# to each.  Polynomials are ascending int coefficient lists without trailing
# zeros; [] is the zero polynomial.
def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _divmod(a: list, b: list) -> tuple:
    """(q, r): r is a primitive positive multiple of a mod b, and q = a / b if b divides a over ℤ."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        s = abs(b[-1]) // math.gcd(a[i + len(b) - 1], b[-1])  # the least s > 0 that b's lead divides s·top
        a = [s * c for c in a] if s > 1 else a
        q[i] = c = a[i + len(b) - 1] // b[-1]
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    r = _trim(a[: len(b) - 1])
    g = math.gcd(*r)
    return q, [c // g for c in r]


def _gcd(a: list, b: list) -> list:
    """A primitive greatest common divisor of a nonzero a and b."""
    while b:
        a, b = b, _divmod(a, b)[1]
    g = math.gcd(*a)
    return [c // g for c in a]


def _square_free(p: list) -> list:
    """Yun's algorithm: [f₁, f₂, …] with p = c·Π fᵢ^i, the fᵢ primitive,
    square-free and pairwise coprime (fᵢ = ±1 if no root has multiplicity i)."""
    dp = _derivative(p)
    a = _gcd(p, dp)
    b, c = _divmod(p, a)[0], _divmod(dp, a)[0]
    out = []
    while len(b) > 1:
        d = _trim([u - v for u, v in zip_longest(c, _derivative(b), fillvalue=0)])
        a = _gcd(b, d)
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        out.append(a)
    return out


def _scaled_value(p: list, n: int, e: int) -> int:
    """2^(e·deg p)·p(n/2^e) for integer coefficients: the sign of p(n/2^e)."""
    v = 0
    for i, c in enumerate(reversed(p)):
        v = v * n + (c << (e * i))
    return v


def _nearest_float(f: list, l: int, r: int, e: int) -> float:
    """The float nearest to f's one root in (l/2^e, r/2^e], by exact-sign bisection."""
    right = _scaled_value(f, r, e)
    while right and math.ldexp(l, -e) != math.ldexp(r, -e):
        mid, l, r, e = l + r, 2 * l, 2 * r, e + 1
        v = _scaled_value(f, mid, e) * right  # ≥ 0: root at or left of mid; ≤ 0: at or right
        if v >= 0:
            r = mid
        if v <= 0:
            l = mid
    return math.ldexp(r, -e)


def _positive_roots(f: list) -> list:
    """The floats nearest to the positive roots of a square-free f, ascending."""
    if len(f) < 3:  # a constant has no root; a linear f's root −f₀/f₁ is exact
        return [-f[0] / f[1]] if len(f) == 2 and f[0] * f[1] < 0 else []
    chain = [f, _derivative(f)]  # Sturm sequence
    while len(chain[-1]) > 1:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])

    def variations(n, e):
        signs = [v > 0 for v in (_scaled_value(p, n, e) for p in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    # every root lies below Cauchy's bound 1 + max|cᵢ / c_deg| < 2^k
    k = (1 + max(-(-abs(c) // abs(chain[0][-1])) for c in chain[0])).bit_length()
    roots, todo = [], [(0, 1 << k, 0)]  # intervals (l/2^e, r/2^e]
    while todo:
        l, r, e = todo.pop()
        count = variations(l, e) - variations(r, e)
        if count == 1:
            roots.append(_nearest_float(chain[0], l, r, e))
        elif count > 1:
            todo += [(2 * l, l + r, e + 1), (l + r, 2 * r, e + 1)]
    return sorted(roots)
