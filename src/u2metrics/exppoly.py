"""Exact algebra of exponential polynomials  Σ aₖ·e^(k·z).

Exponents are half-integers (all that the profile and conformal-factor
formulas produce, via √C factors), stored as the int 2k and returned as
Fractions.  Coefficients are exact rationals, stored as int numerators over
one reduced positive denominator per value, so every arithmetic result is
exact.  A float is an input format: the constructor reads it once, at its
binary value, and a coefficient given as exactly one float term reads back
as that float; every merged or computed coefficient reads back as a Fraction.

Values are immutable after construction and all operations are pure.
``eval`` and ``jet`` take a float or a 1-D float64 array of points.  On a
float, ``jet`` sums one derivative order at a time; on an array it sums all
orders in one pass per term, in term order.  Each value also carries a
float cache for evaluation (sorted float exponents, every row float(c·kⁿ)
and row 0 as (exponent, c) pairs) and a cache of its real zeros; both are
filled on first use and replaced whole, never mutated, and refilling them
gives the same values, so values can still be shared freely between
threads.  Equality and hashing depend on the terms' values alone, so a
float and an exact coefficient of equal value are equal.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from numbers import Number, Rational

from .numerics import is_array

__all__ = ["ExpPoly", "ExpPolyError", "EvalOverflowError", "ENDPOINT_RTOL", "MAX_ROOT_DEGREE"]


class ExpPolyError(ValueError):
    """Invalid exponential-polynomial construction or operand."""


class EvalOverflowError(ArithmeticError):
    """Evaluation produced a non-finite value; carries the offending exponent."""

    def __init__(self, exponent: Fraction, z: float):
        self.exponent = exponent
        self.z = z
        super().__init__(f"term e^({exponent}z) is non-finite at z={z}")


ENDPOINT_RTOL = 1e-12  # real_roots: a zero this close to a finite lo/hi is that end
MAX_ROOT_DEGREE = 32  # real_roots: the largest degree of P(x) it isolates (the catalog's is at most 8)
_INT_FLOAT = 2**1023  # an int of smaller magnitude has a float value
_SCALAR = (int, float, Rational)  # int and float ahead of the ABC, whose isinstance is a slow Python-level check


def _key(k) -> int:
    """2k for a half-integer exponent k: an int, a float or a Rational such as a Fraction."""
    if type(k) is int:
        return 2 * k
    if not isinstance(k, _SCALAR) and isinstance(k, (str, Number)):  # Fraction(k) would read a str or a Decimal
        raise ExpPolyError(f"exponent {k!r} is not an int, a float or a Rational")
    if isinstance(k, float) and k % 0.5:  # nan for an infinite or nan k
        raise ExpPolyError(f"exponent {k!r} is not a half-integer")
    k = Fraction(k)
    if k.denominator > 2:
        raise ExpPolyError(f"exponent {k} has denominator {k.denominator}; only 1 or 2 allowed")
    return 2 * k.numerator // k.denominator


def _as_number(c) -> tuple:
    """c (an int, Fraction, numpy int or finite float) at its exact value, as (numerator, denominator > 0)."""
    if type(c) is not int and type(c) is not Fraction:
        if isinstance(c, float):
            if not math.isfinite(c):
                raise ExpPolyError(f"non-finite coefficient {c!r}")
            return c.as_integer_ratio()
        if not isinstance(c, _SCALAR):
            raise ExpPolyError(f"unsupported coefficient type {type(c).__name__}")
        c = Fraction(c)
    return int(c.numerator), int(c.denominator)


def _quotient(p: int, q: int) -> float:
    """p/q rounded once, ±inf past float range."""
    try:
        return p / q
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _as_coefficient(c):
    """c as a finite float or a Fraction with a float value."""
    p, q = _as_number(c)
    if math.isinf(_quotient(p, q)):
        raise ExpPolyError("exact coefficient is too large for a float")
    return c if isinstance(c, float) or type(c) is Fraction else Fraction(p, q)


class ExpPoly:
    """A finite sum  Σ aₖ·e^(k·z)  with half-integer exponents k.

    Built from (exponent, coefficient) pairs, as every arithmetic result is:
    equal exponents combine in order, and no stored coefficient is zero, so
    the zero polynomial has no terms.  Where two terms meet, their sum must
    have a float value (else ExpPolyError); a lone coefficient or a product
    past float range is kept exact, and ``eval`` and ``jet`` raise
    EvalOverflowError on it.
    """

    __slots__ = ("_terms", "_den", "_floats", "_compiled", "_values", "_zeros")

    def __init__(self, terms=()):
        items = [(_key(k), c, _as_number(c)) for k, c in terms]
        den = math.lcm(*[q for _, _, (_, q) in items])
        floats = frozenset(k for k, c, _ in items  # a float reads back as itself where it is the one term at its key
                           if isinstance(c, float) and c and [j for j, _, _ in items].count(k) == 1)
        self._fill([(k, p * (den // q)) for k, _, (p, q) in items], den, floats)

    @staticmethod
    def _keyed(items, den: int) -> "ExpPoly":  # from (2k, int numerator over den) pairs, keys unchecked
        return object.__new__(ExpPoly)._fill(items, den)

    def _fill(self, items, den: int, floats: frozenset = frozenset()) -> "ExpPoly":
        data: dict[int, int] = {}
        for k, c in items:
            prev = data.get(k)
            if prev is not None:
                c += prev
                try:  # a term past float range fails here, where it meets another
                    c / den
                except OverflowError:
                    raise ExpPolyError(f"coefficient of e^({Fraction(k, 2)}z) sums past float range") from None
            if c:
                data[k] = c
            elif prev is not None:
                del data[k]
        if den > 1:  # reduce the numerators and den
            g = math.gcd(den, *data.values())
            if g > 1:
                data, den = {k: c // g for k, c in data.items()}, den // g
        _set_terms(self, data)
        _set_den(self, den)
        _set_floats(self, floats)
        _set_compiled(self, None)
        _set_values(self, None)
        _set_zeros(self, None)
        return self

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("ExpPoly is immutable")

    # ---------------------------------------------------------------- basics
    @staticmethod
    def constant(c) -> "ExpPoly":
        return ExpPoly([(0, c)])

    @staticmethod
    def exp_term(k, c=1) -> "ExpPoly":
        """The single term c·e^(k·z)."""
        return ExpPoly([(k, c)])

    def _read(self, k: int, c: int):
        """The coefficient N = c at key k as given: a float if it was one float term, else N/den as a Fraction."""
        return c / self._den if k in self._floats else Fraction(c, self._den)

    def terms(self) -> tuple:
        """Sorted tuple of (exponent, coefficient) pairs."""
        return tuple((Fraction(k, 2), self._read(k, c)) for k, c in sorted(self._terms.items()))

    def coefficient(self, k):
        k = _key(k)
        return self._read(k, self._terms.get(k, 0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_exact(self) -> bool:
        """True unless a coefficient reads back as the float it was given as."""
        return not self._floats

    def exponents(self) -> tuple:
        return tuple(Fraction(k, 2) for k in sorted(self._terms))

    def extreme_exponent(self, side: int):
        """Largest exponent for side=+1 (z→+∞ behaviour), smallest for -1."""
        if not self._terms:
            return None
        return Fraction(max(self._terms) if side > 0 else min(self._terms), 2)

    # ------------------------------------------------------------ arithmetic
    # Int numerators over one denominator: every result is exact.
    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -self + other

    def _plus(self, other, sign: int):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, _SCALAR):
                return NotImplemented
            p, q = _as_number(other)
            other = ExpPoly._keyed([(0, p)], q)  # constant(other) without __init__'s bookkeeping
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, sign * den // other._den
        return ExpPoly._keyed([(k, c * s) for k, c in self._terms.items()]
                              + [(k, c * t) for k, c in other._terms.items()], den)

    def __neg__(self):
        return self._times(-1, 1)

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            return ExpPoly._keyed([(ka + kb, ca * cb) for ka, ca in self._terms.items()
                                   for kb, cb in other._terms.items()], self._den * other._den)
        if type(other) is int and -_INT_FLOAT < other < _INT_FLOAT:  # scale(other) without its float-value check
            return self._times(other, 1)
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
        p, q = _as_number(other)
        return self._times(q if p > 0 else -q, abs(p))

    def scale(self, c) -> "ExpPoly":
        """Every coefficient times c, read at its binary value; c must have a float value."""
        return self._times(*_as_number(_as_coefficient(c)))

    def _times(self, p: int, q: int) -> "ExpPoly":
        """Every coefficient times p/q (q > 0)."""
        return ExpPoly._keyed([(k, c * p) for k, c in self._terms.items()], self._den * q)

    # ---------------------------------------------------------- differential
    def derive(self, order: int = 1) -> "ExpPoly":
        """Termwise derivative: e^(k·z) maps to kⁿ·e^(k·z), N/den to N·(2k)ⁿ/(den·2ⁿ)."""
        if order < 0:
            raise ExpPolyError("derivative order must be non-negative")
        if order == 0:
            return self
        return ExpPoly._keyed([(k, c * k**order) for k, c in self._terms.items()], self._den << order)

    # ------------------------------------------------------------ evaluation
    def _rows(self, order: int) -> tuple:
        """(keys 2k, float exponents, coefficient rows 0..≥order).

        Terms are in exponent order; row n holds c·kⁿ = N·(2k)ⁿ / (den·2ⁿ)
        rounded once (0.0 where the derivative drops the term, ±inf past
        float range), which is what ``derive(n)`` followed by a float
        evaluation uses.
        """
        compiled = self._compiled
        if compiled is not None and len(compiled[2]) > order:
            return compiled
        items, den = sorted(self._terms.items()), self._den
        rows = [[_quotient(c * k**i, den << i) for k, c in items] for i in range(max(order, 4) + 1)]
        keys = tuple(k for k, _ in items)
        compiled = (keys, tuple(k / 2 for k in keys), tuple(map(tuple, rows)))
        _set_values(self, tuple(zip(compiled[1], compiled[2][0])))  # row 0's pairs, before _compiled
        _set_compiled(self, compiled)
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
        """Floating-point value at z, terms summed in exponent order: ``jet(z, 0)[0]``, direct on a float."""
        if type(z) is not float:
            return self.jet(z, 0)[0]
        if self._values is None:
            self._rows(0)  # fills _values, or finds _compiled, which it sets only after _values
        total = 0.0
        try:
            for kf, c in self._values:  # pre-zipped: a zip here made a 5-term eval about 1.5× slower
                total += c * math.exp(kf * z)
        except OverflowError:
            raise self._overflow(0, z) from None
        if not math.isfinite(total):
            raise self._overflow(0, z)
        return total

    def jet(self, z, order: int = 4) -> tuple:
        """(value, d/dz, ..., d^order/dz^order) at z.

        Entry n equals ``derive(n).eval(z)`` bit for bit, as ``_rows`` rounds
        each c·kⁿ once; a non-finite entry raises :class:`EvalOverflowError`.
        z is a float or a 1-D float64 array (see ``_array_jet``).
        """
        if is_array(z):
            return self._array_jet(z, order)
        _, kfs, rows = self._rows(order)
        try:
            es = [math.exp(kf * z) for kf in kfs]
        except OverflowError:
            raise self._overflow(0, z) from None
        values = []
        for n, row in enumerate(rows[: order + 1]):
            total = 0.0
            for c, e in zip(row, es):
                total += c * e
            if not math.isfinite(total):  # once the value is finite every e is, so row n's own terms overflowed
                raise self._overflow(n, z)
            values.append(total)
        return tuple(values)

    def _array_jet(self, z, order: int) -> tuple:
        """``jet`` on an array: every entry an array over z, summed in the same
        term order with ``np.exp`` in place of ``math.exp``, each term adding
        to one (order+1, len(z)) array; a non-finite entry raises for the first
        such z, as ``jet`` would there."""
        import numpy as np
        _, kfs, rows = self._rows(order)
        with np.errstate(all="ignore"):
            es = np.exp(np.multiply.outer(kfs, z))  # the rows of one exp(k ⊗ z)
            values = np.zeros((order + 1,) + z.shape)
            for c, e in zip(np.array(rows[: order + 1]).T[:, :, None], es):
                values += c * e
        bad = ~np.isfinite(values)
        if bad.any():
            i = np.flatnonzero(bad.any(axis=0))[0]
            raise self._overflow(int(np.argmax(bad[:, i])), z[i].item())
        return tuple(values)

    # ------------------------------------------------------------ real zeros
    def real_roots(self, lo: float = -math.inf, hi: float = math.inf) -> list:
        """[(z, multiplicity)] for the real zeros with lo ≤ z ≤ hi, ascending.

        Decided exactly (see "exact zeros" below); z is d·log of the float
        nearest to the root x.  A zero within a relative ``ENDPOINT_RTOL`` of
        a finite lo or hi is exactly that end, so ``real_roots(z0, z0)``
        gives the order of a zero at z0.  The value is x^j·P(x) in x = e^{z/d}
        (d = 2 if an exponent is a half-integer, else 1); a P of degree past
        ``MAX_ROOT_DEGREE`` raises ExpPolyError, as the Sturm sequences' cost
        grows as a high power of the degree.  So does a zero whose x has no
        positive float value: past the largest float, or below the least.
        """
        zeros = self._zeros
        if zeros is None:
            if not self._terms:
                raise ExpPolyError("the zero polynomial vanishes everywhere")
            step = 1 if any(k & 1 for k in self._terms) else 2  # x = e^{z/d}, d = 2/step
            x_name = "e^z" if step == 2 else "e^(z/2)"
            low = min(self._terms)
            degree = (max(self._terms) - low) // step
            if degree > MAX_ROOT_DEGREE:
                raise ExpPolyError(f"real_roots is bounded at degree {MAX_ROOT_DEGREE}: the polynomial in "
                                   f"x = {x_name} has degree {degree}")
            p = [0] * (degree + 1)  # P over ℤ: the numerators
            for k, c in self._terms.items():
                p[(k - low) // step] = c
            try:  # −f₀/f₁ and ldexp raise OverflowError past the largest float, and give 0.0 below the least
                roots = [(x, m) for m, f in enumerate(_square_free(p), 1) for x in _positive_roots(f)]
            except OverflowError:
                roots = None
            if roots is None or any(x == 0.0 for x, _ in roots):
                raise ExpPolyError(f"a real zero lies outside float range: its x = {x_name} is past the "
                                   "largest float or below the least")
            zeros = tuple(sorted((2 // step * math.log(x), m) for x, m in roots))
            _set_zeros(self, zeros)
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
        return self._den == other._den and self._terms == other._terms  # reduced: one stored form per value

    def __hash__(self):
        return hash((self._den, frozenset(self._terms.items())))

    def __repr__(self):
        parts = [f"{c}" if k == 0 else f"{c}*e^({k}z)" for k, c in self.terms()]
        return "ExpPoly(" + (" + ".join(parts) or "0") + ")"


# The slots' setters, which ExpPoly.__setattr__ leaves open: half the cost of object.__setattr__
_set_terms, _set_den, _set_floats, _set_compiled, _set_values, _set_zeros = (
    getattr(ExpPoly, name).__set__ for name in ExpPoly.__slots__)


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
