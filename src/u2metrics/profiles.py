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
from .operators import b_op_jet, l_compose_jet, l_op_jet

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
        if float(self.c0) == 0:  # g = C^{−1/2} has the coefficient C0^{−1/2}
            raise ValueError("exact coefficient is too small for a float")


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
    F: ExpPoly
    C: ConformalModel
    domain: Domain

    def __post_init__(self):
        if self.F.is_zero:
            raise ValueError("F is identically zero")

    @property
    def tag(self) -> Optional[str]:
        """The Kähler complex structure, fixed by C alone: "Jplus" for
        C = C0·e^{-z}, "Jminus" for C = C0·e^{+z} (g = C^{−1/2} is one term at
        exponent +½ or −½, so a ``C einstein`` or ``C ratio`` can be either), else None."""
        return None if self.g_poly is None else {(0.5,): "Jplus", (-0.5,): "Jminus"}.get(self.g_poly.exponents())

    @cached_property
    def c_ratio(self) -> tuple:
        """(num, den) with C = num/den, built once per spec."""
        return factor_ratio(self.C)

    @cached_property
    def g_poly(self) -> Optional[ExpPoly]:
        """g = C^{−1/2}, built once per spec on first use: ±(C5·e^{z/2} + C6·e^{−z/2})
        for an Einstein C, positive mid-domain (so off C's pole); C0^{−1/2}·e^{−εz/2}
        where (num, den) is (n·e^{az}, d·e^{bz}), as for every Exp C, so that
        C = C0·e^{εz} with C0 = n/d positive and finite and ε = a − b; else None."""
        if isinstance(self.C, EinsteinFactor):
            g = ExpPoly([(Fraction(1, 2), self.C.c5), (Fraction(-1, 2), self.C.c6)])
            return g if g.eval(sum(self.domain.finite_window()) / 2) > 0 else -g
        num, den = self.c_ratio
        if len(num.terms()) == len(den.terms()) == 1:
            (a, n), (b, d) = num.terms() + den.terms()
            try:
                c0 = float(n / d)
            except OverflowError:  # an exact C0 past float range
                c0 = math.inf
            if 0 < c0 < math.inf:
                return ExpPoly.exp_term((b - a) / 2, c0**-0.5)
        return None

    @cached_property
    def einstein_certificate(self) -> Optional[float]:
        """max(|C1C5 − C2C6|, |C3C5 − C4C6|), 0 iff Einstein, for a canonical F and
        g = C5·e^{z/2} + C6·e^{−z/2} (else None), once per spec: (C5, C6) is the direction
        of g's pair of coefficients, so C's scale does not enter (C0·e^{∓z} gives (1, 0), (0, 1))."""
        coeffs = canonical_coefficients(self.f_poly())
        if coeffs is None or self.g_poly is None or self.g_poly.exponents() not in ((-0.5,), (0.5,), (-0.5, 0.5)):
            return None
        c1, c2, c3, c4 = coeffs
        a, b = self.g_poly.coefficient(0.5), self.g_poly.coefficient(-0.5)
        c5, c6 = a / max(abs(a), abs(b)), b / max(abs(a), abs(b))
        return float(max(abs(c1 * c5 - c2 * c6), abs(c3 * c5 - c4 * c6)))

    @cached_property
    def operator_polys(self) -> tuple:
        """(L⁺F − 1, L⁻F − 1, L⁺(L⁻F) − 1), exact, built once per spec: the
        Weyl halves' factor and the conformal-extremality residual."""
        fj = [self.f_poly().derive(n) for n in range(5)]
        return (l_op_jet(1, fj) - 1, l_op_jet(-1, fj) - 1, l_compose_jet(fj) - 1)

    @cached_property
    def bach_at_zero(self):
        """B(F,F) at z = 0, exact for an exact F, built once per spec: there the
        nth derivative of F is the sum of its coefficients times kⁿ."""
        terms = self.f_poly().terms()
        return b_op_jet([sum((c * k**n for k, c in terms), Fraction(0)) for n in range(4)])

    @cached_property
    def _grid_samples(self) -> dict:
        """grid_n → the curvature sample of the spec's grid, or the reason every
        predicate is indeterminate: filled by ``classify`` (this module cannot
        import curvature), once per grid_n."""
        return {}

    def f_poly(self) -> ExpPoly:
        return self.F


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
    hit = at_first(d == 0.0, z)
    if hit is not None:
        raise SingularConformalFactorError(f"conformal denominator vanishes at z={hit[0]}")
    return d


def _c_of_g(g0, z):
    """C = g⁻², inf where that overflows: jet_C and conformal_value share it."""
    r = 1 / _nonzero(g0, z)
    return r * r


def jet_C(m: MetricSpec, z) -> tuple:
    """(C, C′, C″) and (g, g′, g″, g‴) at z, g = C^{−1/2}; requires 0 < C(z) < ∞.
    Where ``m.g_poly`` is an ExpPoly, g's jet is one termwise ``m.g_poly.jet``, and C = g⁻²,
    C′ = C·(−2g′/g), C″ = C·(6g′² − 2gg″)/g², so (log C)′ is exactly ∓1 on C0·e^{∓z};
    any other C ratio's C is the power series num/den, and g comes from it by ``series_pow``."""
    _check_domain(m, z)
    if m.g_poly is None:
        num, den = m.c_ratio
        ds = jet_to_series(den.jet(z, 4))
        _nonzero(ds[0], z)
        cs = series_div(jet_to_series(num.jet(z, 4)), ds)
        c = cs[0]
    else:
        g = m.g_poly.jet(z, 3)
        c = _c_of_g(g[0], z)
    hit = at_first((c <= 0.0) | (c == math.inf), c, z)
    if hit is not None:
        raise SingularConformalFactorError("C(z)={} is not positive and finite at z={}".format(*hit))
    if m.g_poly is None:
        return series_to_jet(cs)[:3], series_to_jet(series_pow(cs, -0.5))[:4]
    return (c, c * (-2 * g[1] / g[0]), c * (6 * g[1] * g[1] - 2 * g[0] * g[2]) / (g[0] * g[0])), g


def conformal_value(m: MetricSpec, z):
    """C(z) as a plain float, or an array for an array z (may be
    non-positive; only a pole raises), as :func:`jet_C` forms it."""
    if m.g_poly is not None:
        return _c_of_g(m.g_poly.eval(z), z)
    num, den = m.c_ratio
    d = _nonzero(den.eval(z), z)
    return num.eval(z) / d
