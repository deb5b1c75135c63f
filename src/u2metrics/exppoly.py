"""Exact algebra of exponential polynomials  Σ aₖ·e^(k·z).

Exponents are exact rationals with denominator 1 or 2 (half-integers are all
that the profile and conformal-factor formulas ever produce, via √C factors).
Coefficients are either exact rationals (:class:`fractions.Fraction`) or
floats; arithmetic stays exact as long as every operand is exact.

Values are immutable after construction and all operations are pure.  Each
value also carries a float cache for evaluation (sorted float exponents and,
for every derivative order n, the row float(c·kⁿ)); it is filled on first use
and replaced whole, never mutated, and refilling it gives the same rows, so
values can still be shared freely between threads.  Equality and hashing
depend on the exact terms alone.
"""
from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

__all__ = ["ExpPoly", "ExpPolyError", "EvalOverflowError"]


class ExpPolyError(ValueError):
    """Invalid exponential-polynomial construction or operand."""


class EvalOverflowError(ArithmeticError):
    """Evaluation produced a non-finite value; carries the offending exponent."""

    def __init__(self, exponent: Fraction, z: float):
        self.exponent = exponent
        self.z = z
        super().__init__(f"term e^({exponent}z) is non-finite at z={z}")


_ALLOWED_DENOMINATORS = (1, 2)


def _as_exponent(k) -> Fraction:
    if isinstance(k, tuple):
        k = Fraction(k[0], k[1])
    elif isinstance(k, float):
        if k != int(k * 2) / 2.0:
            raise ExpPolyError(f"exponent {k!r} is not a half-integer")
        k = Fraction(int(k * 2), 2)
    k = Fraction(k)
    if k.denominator not in _ALLOWED_DENOMINATORS:
        raise ExpPolyError(f"exponent {k} has denominator {k.denominator}; only 1 or 2 allowed")
    return k


def _as_coefficient(c):
    if isinstance(c, Rational):
        return Fraction(c)
    if isinstance(c, float):
        if not math.isfinite(c):
            raise ExpPolyError(f"non-finite coefficient {c!r}")
        return c
    raise ExpPolyError(f"unsupported coefficient type {type(c).__name__}")


class ExpPoly:
    """A finite sum  Σ aₖ·e^(k·z)  with half-integer exponents k.

    Invariants: no stored coefficient is zero, exponents are unique, and the
    zero polynomial is the empty term map.
    """

    __slots__ = ("_terms", "_compiled")

    def __init__(self, terms=()):
        data: dict[Fraction, object] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for k, c in items:
            k = _as_exponent(k)
            c = _as_coefficient(c)
            if k in data:
                c = data[k] + c
            if c == 0:
                data.pop(k, None)
            else:
                data[k] = c
        object.__setattr__(self, "_terms", data)
        object.__setattr__(self, "_compiled", None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("ExpPoly is immutable")

    # ---------------------------------------------------------------- basics
    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly()

    @staticmethod
    def constant(c) -> "ExpPoly":
        return ExpPoly([(0, c)])

    @staticmethod
    def exp_term(k, c=1) -> "ExpPoly":
        """The single term c·e^(k·z)."""
        return ExpPoly([(k, c)])

    def terms(self) -> tuple:
        """Sorted tuple of (exponent, coefficient) pairs."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, k):
        return self._terms.get(_as_exponent(k), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self._terms.values())

    def exponents(self) -> tuple:
        return tuple(sorted(self._terms))

    def extreme_exponent(self, side: int):
        """Largest exponent for side=+1 (z→+∞ behaviour), smallest for -1."""
        if not self._terms:
            return None
        return max(self._terms) if side > 0 else min(self._terms)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for k, c in other._terms.items():
            acc = data.get(k, 0) + c
            if acc == 0:
                data.pop(k, None)
            else:
                data[k] = acc
        return ExpPoly(data.items())

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return ExpPoly([(k, -c) for k, c in self._terms.items()])

    def __mul__(self, other):
        if isinstance(other, (Rational, float)) and not isinstance(other, ExpPoly):
            return self.scale(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        data: dict[Fraction, object] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                k = ka + kb
                acc = data.get(k, 0) + ca * cb
                if acc == 0:
                    data.pop(k, None)
                else:
                    data[k] = acc
        return ExpPoly(data.items())

    def __rmul__(self, other):
        if isinstance(other, (Rational, float)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "ExpPoly":
        c = _as_coefficient(c)
        if c == 0:
            return ExpPoly()
        return ExpPoly([(k, a * c) for k, a in self._terms.items()])

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExpPoly):
            return other
        if isinstance(other, (Rational, float)):
            return ExpPoly.constant(other)
        return NotImplemented

    # ---------------------------------------------------------- differential
    def derive(self, order: int = 1) -> "ExpPoly":
        """Termwise derivative: e^(k·z) maps to kⁿ·e^(k·z)."""
        if order < 0:
            raise ExpPolyError("derivative order must be non-negative")
        if order == 0:
            return self
        return ExpPoly([(k, c * k**order) for k, c in self._terms.items()])

    # ------------------------------------------------------------ evaluation
    def _rows(self, order: int) -> tuple:
        """(exponents, float exponents, coefficient rows 0..≥order).

        Terms are in exponent order; row n holds float(c·kⁿ) from the exact
        coefficient (0.0 where the derivative drops the term), which is what
        ``derive(n)`` followed by a float evaluation would use.
        """
        compiled = self._compiled
        if compiled is not None and len(compiled[2]) > order:
            return compiled
        items = sorted(self._terms.items())
        exps = tuple(k for k, _ in items)
        coeffs = [c for _, c in items]
        rows = []
        for _ in range(max(order, 4) + 1):
            rows.append(tuple(float(c) for c in coeffs))
            coeffs = [c * k for c, k in zip(coeffs, exps)]
        compiled = (exps, tuple(float(k) for k in exps), tuple(rows))
        object.__setattr__(self, "_compiled", compiled)
        return compiled

    def _overflow(self, order: int, z: float) -> EvalOverflowError:
        """The error for a non-finite value of row ``order`` at z: it names the
        first non-finite term in exponent order, else the extreme exponent."""
        exps, kfs, rows = self._rows(order)
        live = [(k, kf, c) for k, kf, c in zip(exps, kfs, rows[order]) if c != 0.0]
        for k, kf, c in live:
            try:
                term = c * math.exp(kf * z)
            except OverflowError:
                return EvalOverflowError(k, z)
            if not math.isfinite(term):
                return EvalOverflowError(k, z)
        ks = [k for k, _, _ in live]
        return EvalOverflowError(max(ks) if z > 0 else min(ks), z)

    def eval(self, z: float) -> float:
        """Floating-point value at z, terms accumulated in exponent order."""
        return self.jet(z, 0)[0]

    def jet(self, z: float, order: int = 4) -> tuple:
        """(value, d/dz, ..., d^order/dz^order) at z; entry n equals
        ``derive(n).eval(z)`` bit for bit."""
        _, kfs, rows = self._rows(order)
        try:
            es = [math.exp(kf * z) for kf in kfs]
        except OverflowError:
            raise self._overflow(0, z) from None
        values = []
        for n in range(order + 1):
            total = 0.0
            for c, e in zip(rows[n], es):
                total += c * e
            # once the value (row 0) is finite every exponential is, so a
            # non-finite total comes from row n's own terms
            if not math.isfinite(total):
                raise self._overflow(n, z)
            values.append(total)
        return tuple(values)

    # -------------------------------------------------------------- protocol
    def __eq__(self, other):
        if isinstance(other, (Rational, float)):
            other = ExpPoly.constant(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "ExpPoly(0)"
        parts = []
        for k, c in sorted(self._terms.items()):
            if k == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*e^({k}z)")
        return "ExpPoly(" + " + ".join(parts) + ")"
