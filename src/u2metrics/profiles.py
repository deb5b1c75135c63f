"""Metric specifications: profile F, conformal-factor model C, z-domain.

A metric is  C·(dz²/(4F) + F·η₁² + η₂² + η₃²),  with η₁, η₂, η₃ the
left-invariant coframe of SU(2) normalised by dη₁ = 2·η₂∧η₃ (and
cyclically), described by a profile F(z) and a conformal factor C(z); this
module holds the closed-form carriers for both and provides exact 4-jet
evaluation, of F and of C with g = C^{−1/2}.  A spec expands its
carriers (F and C's num/den pair, and the operator polynomials built from F)
once, on first use, and every evaluation shares them, so each polynomial's
float rows are compiled once per spec.  ``jet_F``, ``jet_C`` and
``conformal_value`` take a float z or a 1-D float64 array of them; on an
array each check raises for the first z that fails it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .exppoly import ExpPoly, _as_coefficient
from .numerics import at_first, is_array, jet_to_series, series_div, series_pow, series_to_jet

__all__ = [
    "Domain",
    "Canonical",
    "Profile",
    "ExpFactor",
    "EinsteinFactor",
    "RatioFactor",
    "ConformalModel",
    "MetricSpec",
    "OutOfDomainError",
    "SingularConformalFactorError",
    "profile_poly",
    "factor_ratio",
    "jet_F",
    "jet_C",
    "conformal_value",
    "canonical_coefficients",
]


class OutOfDomainError(ValueError):
    """Evaluation point outside the metric's z-domain."""


class SingularConformalFactorError(ArithmeticError):
    """Conformal factor non-positive (or infinite) where a positive value is required."""


_END_TOL = 1e-12  # a z this close to a closed end is at it


@dataclass(frozen=True)
class Domain:
    """z-interval with openness flags; endpoints may be ±inf."""

    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty domain [{self.lo}, {self.hi}]")
        if self.lo_closed and not math.isfinite(self.lo):
            raise ValueError("closed endpoint must be finite")
        if self.hi_closed and not math.isfinite(self.hi):
            raise ValueError("closed endpoint must be finite")

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
@dataclass(frozen=True)
class Canonical:
    """F = 1 + ½C1·e^{-2z} + C2·e^{-z} + C3·e^{z} + ½C4·e^{2z}."""

    c1: Union[Fraction, float]
    c2: Union[Fraction, float]
    c3: Union[Fraction, float]
    c4: Union[Fraction, float]

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            object.__setattr__(self, name, _as_coefficient(getattr(self, name)))

    @cached_property
    def _expanded(self) -> ExpPoly:
        half = Fraction(1, 2)
        return ExpPoly(
            [(0, 1), (-2, half * self.c1), (-1, self.c2), (1, self.c3), (2, half * self.c4)]
        )

    def expand(self) -> ExpPoly:
        """Built once per value: specs sharing this profile share its zeros."""
        return self._expanded

    def coefficients(self) -> tuple:
        return (self.c1, self.c2, self.c3, self.c4)


Profile = Union[ExpPoly, Canonical]


def profile_poly(profile: Profile) -> ExpPoly:
    if isinstance(profile, ExpPoly):
        return profile
    if isinstance(profile, Canonical):
        return profile.expand()
    raise TypeError(f"not a profile: {type(profile).__name__}")


def canonical_coefficients(poly: ExpPoly) -> Optional[tuple]:
    """(C1, C2, C3, C4) if poly lies in the canonical family, else None.

    Requires exponents within {-2,-1,0,1,2} and constant term exactly 1.
    """
    allowed = {Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)}
    if any(k not in allowed for k in poly.exponents()):
        return None
    if poly.coefficient(0) != 1:
        return None
    return (
        2 * poly.coefficient(-2),
        poly.coefficient(-1),
        poly.coefficient(1),
        2 * poly.coefficient(2),
    )


# --------------------------------------------------------------------- C side
@dataclass(frozen=True)
class ExpFactor:
    """C = C0·e^{ε·z} with C0 > 0 and ε = ±1."""

    c0: Union[Fraction, float]
    eps: int

    def __post_init__(self):
        object.__setattr__(self, "c0", _as_coefficient(self.c0))
        if self.eps not in (-1, 1):
            raise ValueError("eps must be -1 or +1")
        if not self.c0 > 0:
            raise ValueError("C0 must be positive")


@dataclass(frozen=True)
class EinsteinFactor:
    """C = e^{-z} / (C5 + C6·e^{-z})²."""

    c5: Union[Fraction, float]
    c6: Union[Fraction, float]

    def __post_init__(self):
        object.__setattr__(self, "c5", _as_coefficient(self.c5))
        object.__setattr__(self, "c6", _as_coefficient(self.c6))
        if self.c5 == 0 and self.c6 == 0:
            raise ValueError("(C5, C6) must not both vanish")


@dataclass(frozen=True)
class RatioFactor:
    """C = num/den with den nonzero on the domain interior."""

    num: ExpPoly
    den: ExpPoly

    def __post_init__(self):
        if self.num.is_zero:
            raise ValueError("numerator must be nonzero")
        if self.den.is_zero:
            raise ValueError("denominator must be nonzero")


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
@dataclass(frozen=True)
class MetricSpec:
    """A U(2)-invariant metric: profile F, conformal factor C, z-domain."""

    name: str
    F: Profile
    C: ConformalModel
    domain: Domain

    def __post_init__(self):
        if isinstance(self.F, ExpPoly) and self.F.is_zero:
            raise ValueError("F is identically zero")

    @property
    def tag(self) -> Optional[str]:
        """The Kähler complex structure, fixed by C alone: "Jplus" for
        C = C0·e^{-z}, "Jminus" for C = C0·e^{+z}, else None."""
        if isinstance(self.C, ExpFactor):
            return "Jplus" if self.C.eps == -1 else "Jminus"
        return None

    @cached_property
    def c_ratio(self) -> tuple:
        """(num, den) with C = num/den, built once per spec."""
        return factor_ratio(self.C)

    @cached_property
    def operator_polys(self) -> tuple:
        """(L⁺F − 1, L⁻F − 1, L⁺(L⁻F) − 1), exact, built once per spec: the
        Weyl halves' factor and the conformal-extremality residual."""
        from .operators import l_compose_jet, l_op_jet  # operators imports this module

        fj = [self.f_poly().derive(n) for n in range(5)]
        return (l_op_jet(1, fj) - 1, l_op_jet(-1, fj) - 1, l_compose_jet(fj) - 1)

    @cached_property
    def bach_at_zero(self):
        """B(F,F) at z = 0, exact for an exact F, built once per spec: there the
        nth derivative of F is the sum of its coefficients times kⁿ."""
        from .operators import b_op_jet  # operators imports this module

        terms = self.f_poly().terms()
        return b_op_jet([sum((c * k**n for k, c in terms), Fraction(0)) for n in range(4)])

    def f_poly(self) -> ExpPoly:
        return profile_poly(self.F)  # a Canonical caches its expansion


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


def _c_series(m: MetricSpec, z) -> list:
    num, den = m.c_ratio
    ns = jet_to_series(num.jet(z, 4))
    ds = jet_to_series(den.jet(z, 4))
    hit = at_first(ds[0] == 0.0, z)
    if hit is not None:
        raise SingularConformalFactorError(f"conformal denominator vanishes at z={hit[0]}")
    return series_div(ns, ds)


def jet_C(m: MetricSpec, z) -> tuple:
    """The jets (value, d1, .., d4) of C and of g = C^{−1/2} at z; requires
    0 < C(z) < ∞.  g is one power series of C's, and the curvature formulas
    are polynomials in F's jet and g's."""
    _check_domain(m, z)
    cs = _c_series(m, z)
    hit = at_first((cs[0] <= 0.0) | (cs[0] == math.inf), cs[0], z)
    if hit is not None:
        raise SingularConformalFactorError("C(z)={} is not positive and finite at z={}".format(*hit))
    return series_to_jet(cs), series_to_jet(series_pow(cs, -0.5))


def conformal_value(m: MetricSpec, z):
    """C(z) as a plain float, or an array for an array z (may be
    non-positive; only a vanishing denominator raises)."""
    num, den = m.c_ratio
    d = den.eval(z)
    hit = at_first(d == 0.0, z)
    if hit is not None:
        raise SingularConformalFactorError(f"conformal denominator vanishes at z={hit[0]}")
    return num.eval(z) / d
