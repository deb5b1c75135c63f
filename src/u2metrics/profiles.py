"""Metric specifications: profile F, conformal-factor model C, z-domain.

A metric is  C·(dz²/(4F) + F·η₁² + η₂² + η₃²),  with η₁, η₂, η₃ the
left-invariant coframe of SU(2) normalised by dη₁ = 2·η₂∧η₃ (and
cyclically), described by a profile F(z) and a conformal factor C(z); this
module holds the closed-form carriers for both and provides exact 4-jet
evaluation, of F and of C with g = C^{−1/2}.  F is always an ExpPoly:
``canonical(C1, C2, C3, C4)`` builds the canonical family's member, and
``canonical_coefficients`` reads it back from any ExpPoly.  A spec builds its
other carriers (g, C's num/den pair, and the operator polynomials built from F)
once, on first use, and every evaluation shares them, so each polynomial's
float rows are compiled once per spec.  The Kähler ``tag`` is an exact identity on
C's (num, den); ``classify`` decides Einstein from exact jets of F and ``g_poly``.
``jet_F``, ``jet_C`` and ``conformal_value`` take a float z or a 1-D float64
array of them; on an array each check raises for the first z that fails it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Optional, Union

from .exppoly import ExpPoly, _as_coefficient, _quotient
from .numerics import at_first, is_array
from .operators import _form_items, b_op_jet, l_compose, l_op

__all__ = [
    "Domain",
    "canonical",
    "ExpFactor",
    "EinsteinFactor",
    "RatioFactor",
    "ConformalModel",
    "MetricSpec",
    "NotKahlerError",
    "OutOfDomainError",
    "SingularConformalFactorError",
    "factor_ratio",
    "jet_F",
    "jet_C",
    "conformal_value",
    "canonical_coefficients",
]


class OutOfDomainError(ValueError):
    """Evaluation point outside the metric's z-domain."""


class NotKahlerError(ValueError):
    """A Kähler-only quantity or transform asked of a metric whose ``MetricSpec.tag`` is None."""


class SingularConformalFactorError(ArithmeticError):
    """Conformal factor non-positive (or infinite) where a positive value is required."""


_END_TOL = 1e-12  # a z this close to a closed end is at it


class _Record:
    """The base of the package's records.  ``_fields`` names a record's ``__init__``
    parameters in order, and each ``__init__`` sets the fields in that order (through
    ``self.__dict__`` where they are read-only).  The base gives equality with a record
    of the same type, a hash of the values, the ``Name(field=value, …)`` repr and
    read-only fields.  A mutable record sets ``__hash__`` to None and takes back both
    of ``object``'s ``__setattr__`` and ``__delattr__``: the two share one type slot,
    and while either is a Python function every attribute store goes through it."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._values = attrgetter(*cls._fields)  # record → the tuple of its values (each has ≥ 2 fields)

    def __eq__(self, other):
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self._values(self)))})"

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__


class Domain(_Record):
    """z-interval with openness flags; endpoints may be ±inf."""

    def __init__(self, lo: float, hi: float, lo_closed: bool = False, hi_closed: bool = False):
        if not lo < hi:
            raise ValueError(f"empty domain [{lo}, {hi}]")
        if (lo_closed and not math.isfinite(lo)) or (hi_closed and not math.isfinite(hi)):
            raise ValueError("closed endpoint must be finite")
        self.__dict__.update(lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed)

    def contains(self, z, tol: float = _END_TOL):
        """True if z is interior or at a closed endpoint (within tol);
        elementwise for an array z."""
        inside = (self.lo < z) & (z < self.hi)
        if self.lo_closed:
            inside = inside | (abs(z - self.lo) <= tol)
        if self.hi_closed:
            inside = inside | (abs(z - self.hi) <= tol)
        return inside

    def finite_window(self) -> tuple:
        """The domain if finite, else 8 long from its finite end, or [−4, 4]."""
        lo, hi = self.lo, self.hi
        if math.isinf(lo) and math.isinf(hi):
            return (-4.0, 4.0)
        if math.isinf(lo):
            return (hi - 8.0, hi)
        if math.isinf(hi):
            return (lo, lo + 8.0)
        return (lo, hi)


# --------------------------------------------------------------------- F side
def canonical(c1, c2, c3, c4) -> ExpPoly:
    """F = 1 + ½C1·e^{-2z} + C2·e^{-z} + C3·e^{z} + ½C4·e^{2z}; each Ci must
    have a finite float value."""
    c1, c2, c3, c4 = (_as_coefficient(c) for c in (c1, c2, c3, c4))
    half = Fraction(1, 2)
    return ExpPoly([(0, 1), (-2, half * c1), (-1, c2), (1, c3), (2, half * c4)])


def canonical_coefficients(poly: ExpPoly) -> Optional[tuple]:
    """(C1, C2, C3, C4) if poly lies in the canonical family, else None.

    Requires exponents within {-2,-1,0,1,2} and constant term exactly 1.
    """
    if not set(poly.exponents()) <= {-2, -1, 0, 1, 2}:
        return None
    if poly.coefficient(0) != 1:
        return None
    c = poly.coefficient
    return 2 * c(-2), c(-1), c(1), 2 * c(2)


# --------------------------------------------------------------------- C side
class ExpFactor(_Record):
    """C = C0·e^{ε·z} with C0 > 0 and ε = ±1."""

    def __init__(self, c0: Union[Fraction, float], eps: int):
        c0 = _as_coefficient(c0)
        if eps not in (-1, 1):
            raise ValueError("eps must be -1 or +1")
        if not c0 > 0:
            raise ValueError("C0 must be positive")
        if float(c0) == 0:  # g = C^{−1/2} has the coefficient C0^{−1/2}
            raise ValueError("exact coefficient is too small for a float")
        self.__dict__.update(c0=c0, eps=eps)


class EinsteinFactor(_Record):
    """C = e^{-z} / (C5 + C6·e^{-z})²."""

    def __init__(self, c5: Union[Fraction, float], c6: Union[Fraction, float]):
        c5, c6 = _as_coefficient(c5), _as_coefficient(c6)
        if c5 == 0 and c6 == 0:
            raise ValueError("(C5, C6) must not both vanish")
        self.__dict__.update(c5=c5, c6=c6)


class RatioFactor(_Record):
    """C = num/den with den nonzero on the domain interior."""

    def __init__(self, num: ExpPoly, den: ExpPoly):
        if num.is_zero:
            raise ValueError("numerator must be nonzero")
        if den.is_zero:
            raise ValueError("denominator must be nonzero")
        self.__dict__.update(num=num, den=den)


ConformalModel = Union[ExpFactor, EinsteinFactor, RatioFactor]


def factor_ratio(model: ConformalModel) -> tuple:
    """(num, den) ExpPoly pair representing C = num/den."""
    if isinstance(model, ExpFactor):
        return (ExpPoly.exp_term(model.eps, model.c0), ExpPoly.constant(1))
    if isinstance(model, EinsteinFactor):
        lin = ExpPoly([(0, model.c5), (-1, model.c6)])
        return (ExpPoly.exp_term(-1), lin * lin)
    if isinstance(model, RatioFactor):
        return (model.num, model.den)
    raise TypeError(f"not a conformal model: {type(model).__name__}")


# ------------------------------------------------------------------ MetricSpec
class MetricSpec(_Record):
    """A U(2)-invariant metric: profile F, conformal factor C, z-domain.  Its
    carriers are cached properties, written to ``__dict__`` after the fields."""

    # classify's kept measurement of the spec's grid, or why every predicate is indeterminate:
    _grid_sample = None  # set on its first call, as this module cannot import curvature

    def __init__(self, name: str, F: ExpPoly, C: ConformalModel, domain: Domain):
        if F.is_zero:
            raise ValueError("F is identically zero")
        self.__dict__.update(name=name, F=F, C=C, domain=domain)

    @cached_property
    def tag(self) -> Optional[str]:
        """The Kähler complex structure, fixed by C alone: "Jplus" for
        C = C0·e^{-z}, "Jminus" for C = C0·e^{+z}, else None.  Read from C's
        (num, den), so any carrier can be either: with n·e^{az} and d·e^{bz}
        their lowest terms, C = (n/d)·e^{(a−b)z} where a − b = ∓1, n and d have
        one sign and num·d·e^{bz} = den·n·e^{az}, exactly (a product by one term
        merges no terms, so no coefficient has to have a float value)."""
        num, den = self.c_ratio
        (a, n), (b, d) = num.terms()[0], den.terms()[0]
        if a - b in (-1, 1) and (n > 0) == (d > 0) and num * ExpPoly.exp_term(b, d) == den * ExpPoly.exp_term(a, n):
            return "Jplus" if a < b else "Jminus"
        return None

    @cached_property
    def c_ratio(self) -> tuple:
        """(num, den) with C = num/den, built once per spec."""
        return factor_ratio(self.C)

    @cached_property
    def g_poly(self) -> Optional[ExpPoly]:
        """g = C^{−1/2}, built once per spec on first use: ±(C5·e^{z/2} + C6·e^{−z/2})
        for an Einstein C, positive mid-domain (so off C's pole); C0^{−1/2}·e^{−εz/2}
        where (num, den) is (n·e^{az}, d·e^{bz}), as for every Exp C, so that
        C = C0·e^{εz} with C0 = n/d positive and finite and ε = a − b an integer;
        else None, and ``jet_C`` takes g from u = den/num."""
        if isinstance(self.C, EinsteinFactor):
            g = ExpPoly([(Fraction(1, 2), self.C.c5), (Fraction(-1, 2), self.C.c6)])
            return g if g.eval(sum(self.domain.finite_window()) / 2) > 0 else -g
        num, den = (p.terms() for p in self.c_ratio)
        if len(num) == len(den) == 1 and (num[0][0] - den[0][0]).denominator == 1:  # ε is an integer
            ((a, n),), ((b, d),) = num, den
            c0 = _quotient(*(Fraction(n) / Fraction(d)).as_integer_ratio())
            if 0 < c0 < math.inf:
                return ExpPoly.exp_term((b - a) / 2, c0**-0.5)
        return None

    @cached_property
    def operator_polys(self) -> tuple:
        """(L⁺F − 1, L⁻F − 1, L⁺(L⁻F) − 1), exact, built once per spec: the
        Weyl halves' factor and the conformal-extremality residual.  The
        operators are linear and fix 1, so they are applied to F − 1."""
        G = self.f_poly() - 1
        return l_op(1, G), l_op(-1, G), l_compose(G)

    @cached_property
    def bach_at_zero(self):
        """B(F,F) at z = 0, an exact Fraction, built once per spec: there every
        e^{kz} is 1, so it is the sum of B's int items over their denominator."""
        items, den = _form_items(self.f_poly(), b_op_jet)
        return Fraction(sum(c for _, c in items), den)


    def f_poly(self) -> ExpPoly:
        return self.F


def _kahler_sign(m: MetricSpec) -> int:
    """+1 for a J⁺-Kähler metric (C = C0·e^{−z}), −1 for J⁻ (C = C0·e^{+z}); else
    raises :class:`NotKahlerError`, the one not-Kähler decision."""
    if m.tag is None:
        raise NotKahlerError(f"metric {m.name!r} is not Kähler: C is not C0·e^{{∓z}}")
    return 1 if m.tag == "Jplus" else -1


def _check_domain(m: MetricSpec, z, closure: bool = False):
    """Raise OutOfDomainError for the first z outside the domain, or with
    ``closure`` outside [lo, hi] widened by the closed-end tolerance (an
    infinite end is in it): the integrals' endpoint check."""
    lo, hi = m.domain.lo, m.domain.hi
    inside = (lo - _END_TOL <= z) & (z <= hi + _END_TOL) if closure else m.domain.contains(z)
    hit = at_first(~inside if is_array(inside) else not inside, z)
    if hit is not None:
        raise OutOfDomainError(f"z={hit[0]} outside domain [{lo}, {hi}] of {m.name!r}")


def jet_F(m: MetricSpec, z) -> tuple:
    """(F, F′, F″, F‴, F⁗) at z (interior or closed endpoint), termwise exact."""
    _check_domain(m, z)
    return m.f_poly().jet(z, 4)


def _nonzero(d, z):
    """d unless it vanishes at a z, where C (num/den or g⁻²) has a pole."""
    hit = None if type(d) is float and d else at_first(d == 0.0, z)  # a nonzero float needs no array helper
    if hit is not None:
        raise SingularConformalFactorError(f"conformal denominator vanishes at z={hit[0]}")
    return d


def _c_of_g(g0, z):
    """C = g⁻², inf where that overflows: jet_C and conformal_value share it."""
    r = 1 / _nonzero(g0, z)
    return r * r


def jet_C(m: MetricSpec, z) -> tuple:
    """(C, C′, C″) and (g, g′, g″, g‴) at z, g = C^{−1/2}; requires 0 < C(z) < ∞.
    Where ``m.g_poly`` is an ExpPoly, g's jet is one termwise ``m.g_poly.jet``; any other
    C ratio keeps C = num/den and takes g = √u from u = g² = den/num, whose jet is Leibniz's
    rule on u·num = den.  Either way C′ = C·(−2g′/g) and C″ = C·(6g′² − 2gg″)/g², so
    (log C)′ is exactly ∓1 on C0·e^{∓z}."""
    _check_domain(m, z)
    if m.g_poly is None:
        num, den = m.c_ratio
        n, d = num.jet(z, 3), den.jet(z, 3)
        c = n[0] / _nonzero(d[0], z)
    else:
        g = m.g_poly.jet(z, 3)
        c = _c_of_g(g[0], z)
    hit = at_first((c <= 0.0) | (c == math.inf), c, z)
    if hit is not None:
        raise SingularConformalFactorError("C(z)={} is not positive and finite at z={}".format(*hit))
    if m.g_poly is None:
        u0 = d[0] / n[0]
        u1 = (d[1] - u0 * n[1]) / n[0]
        u2 = (d[2] - 2 * u1 * n[1] - u0 * n[2]) / n[0]
        u3 = (d[3] - 3 * u2 * n[1] - 3 * u1 * n[2] - u0 * n[3]) / n[0]
        g0 = u0**0.5
        g1 = u1 / (2 * g0)
        g2 = (u2 - 2 * g1 * g1) / (2 * g0)
        g = (g0, g1, g2, (u3 - 6 * g1 * g2) / (2 * g0))
    return (c, c * (-2 * g[1] / g[0]), c * (6 * g[1] * g[1] - 2 * g[0] * g[2]) / (g[0] * g[0])), g


def conformal_value(m: MetricSpec, z):
    """C(z) as a plain float, or an array for an array z (may be
    non-positive; only a pole raises), as :func:`jet_C` forms it."""
    if m.g_poly is not None:
        return _c_of_g(m.g_poly.eval(z), z)
    num, den = m.c_ratio
    d = _nonzero(den.eval(z), z)
    return num.eval(z) / d
