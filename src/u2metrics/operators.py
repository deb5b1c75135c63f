"""The differential operators L⁺, L⁻, their composition, and the nonlinear
third-order operator B, in exact (ExpPoly) and pointwise (jet) form.

    L±(F)  = ½F″ ∓ (3/2)F′ + F         (e^{kz} eigenvalue (k∓1)(k∓2)/2)
    L⁺∘L⁻  = ¼F⁗ − (5/4)F″ + F
    B(F,F) = (−½F″ + (3/2)F′ + F − 1)(L⁺F − 1) + F′·(L⁺F)′

Each formula has one implementation per carrier; the ODE flow reuses the jet
forms so the closed-form and numeric code paths stay in lockstep.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .exppoly import ExpPoly
from .profiles import Profile, profile_poly

__all__ = [
    "l_op",
    "l_plus",
    "l_minus",
    "l_compose",
    "b_op",
    "l_op_jet",
    "l_compose_jet",
    "b_op_jet",
    "first_integral_residual",
]

_HALF = Fraction(1, 2)
_THREE_HALVES = Fraction(3, 2)


def _sign_factor(sign: str) -> int:
    if sign in ("plus", "+", 1):
        return 1
    if sign in ("minus", "-", -1):
        return -1
    raise ValueError(f"operator sign must be plus or minus, got {sign!r}")


def l_op(sign, F: ExpPoly) -> ExpPoly:
    """L±(F) = ½F″ ∓ (3/2)F′ + F on exponential polynomials (exact)."""
    s = _sign_factor(sign)
    return F.derive(2) * _HALF - F.derive(1) * (_THREE_HALVES * s) + F


def l_plus(F: ExpPoly) -> ExpPoly:
    return l_op("plus", F)


def l_minus(F: ExpPoly) -> ExpPoly:
    return l_op("minus", F)


def l_compose(F: ExpPoly) -> ExpPoly:
    """L⁺(L⁻(F)) = ¼F⁗ − (5/4)F″ + F (the operators commute)."""
    return F.derive(4) * Fraction(1, 4) - F.derive(2) * Fraction(5, 4) + F


def b_op(F: ExpPoly) -> ExpPoly:
    """B(F,F), the third-order nonlinear first-integral operator (exact)."""
    one = ExpPoly.constant(1)
    lp = l_plus(F)
    first = F.derive(2) * Fraction(-1, 2) + F.derive(1) * _THREE_HALVES + F - one
    return first * (lp - one) + F.derive(1) * lp.derive(1)


# ------------------------------------------------------------------ jet forms
def l_op_jet(sign, jet: Sequence[float]) -> float:
    """Value of L±(F) from a 2-jet (value, F′, F″, ...)."""
    return 0.5 * jet[2] - 1.5 * _sign_factor(sign) * jet[1] + jet[0]


def l_compose_jet(jet: Sequence[float]) -> float:
    """Value of L⁺(L⁻(F)) from a 4-jet."""
    return 0.25 * jet[4] - 1.25 * jet[2] + jet[0]


def b_op_jet(jet: Sequence[float]) -> float:
    """Value of B(F,F) from a 3-jet (value, F′, F″, F‴, ...)."""
    f, f1, f2, f3 = jet[0], jet[1], jet[2], jet[3]
    lp = 0.5 * f2 - 1.5 * f1 + f
    lp1 = 0.5 * f3 - 1.5 * f2 + f1
    return (-0.5 * f2 + 1.5 * f1 + f - 1.0) * (lp - 1.0) + f1 * lp1


# -------------------------------------------------------------- first integral
def first_integral_residual(F: Union[Profile, ExpPoly], grid: Sequence[float]) -> float:
    """max over grid of |dB/dz − 2F′·(L⁺(L⁻F) − 1)|, computed exactly.

    The difference is expanded as an exponential polynomial; for any F in the
    canonical family it is identically zero and 0.0 is returned without
    evaluation.
    """
    poly = profile_poly(F)
    diff = b_op(poly).derive(1) - 2 * poly.derive(1) * (l_compose(poly) - ExpPoly.constant(1))
    if diff.is_zero:
        return 0.0
    return max(abs(diff.eval(z)) for z in grid)

