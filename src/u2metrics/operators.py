"""The differential operators L⁺, L⁻, their composition, and the nonlinear
third-order operator B:

    L±(F)  = ½F″ ∓ (3/2)F′ + F         (e^{kz} eigenvalue (k∓1)(k∓2)/2)
    L⁺∘L⁻  = ¼F⁗ − (5/4)F″ + F
    B(F,F) = (−½F″ + (3/2)F′ + F − 1)(L⁺F − 1) + F′·(L⁺F)′

Each formula is written once, as a jet form in integer literals and exact
division, so it serves every carrier of the jet (F, F′, F″, …): floats,
arrays over z, or F's exact derivatives as ExpPolys (``l_op``, ``l_compose``,
``b_op``).  On floats, x / 2, 3 * x / 2, x / 4 and 5 * x / 4 round as 0.5·x,
1.5·x, 0.25·x and 1.25·x do unless one overflows or is subnormal.
"""
from __future__ import annotations

from typing import Sequence

from .exppoly import ExpPoly

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


def _sign_factor(sign: str) -> int:
    if sign in ("plus", "+", 1):
        return 1
    if sign in ("minus", "-", -1):
        return -1
    raise ValueError(f"operator sign must be plus or minus, got {sign!r}")


def _l_op(s: int, f, f1, f2):
    """L±(F) = ½F″ ∓ (3/2)F′ + F for s = ±1, from F, F′ and F″."""
    return f2 / 2 - 3 * s * f1 / 2 + f


def l_op_jet(sign, jet: Sequence):
    """L±(F) from a 2-jet (F, F′, F″, ...)."""
    return _l_op(_sign_factor(sign), jet[0], jet[1], jet[2])


def l_compose_jet(jet: Sequence):
    """L⁺(L⁻(F)) = ¼F⁗ − (5/4)F″ + F from a 4-jet."""
    return jet[4] / 4 - 5 * jet[2] / 4 + jet[0]


def b_op_jet(jet: Sequence):
    """B(F,F) from a 3-jet (F, F′, F″, F‴, ...); (L⁺F)′ is L⁺ of (F′, F″, F‴)."""
    f, f1, f2 = jet[0], jet[1], jet[2]
    return (-f2 / 2 + 3 * f1 / 2 + f - 1) * (_l_op(1, f, f1, f2) - 1) + f1 * _l_op(1, f1, f2, jet[3])


def l_op(sign, F: ExpPoly) -> ExpPoly:
    """L±(F), exact."""
    return l_op_jet(sign, (F, F.derive(1), F.derive(2)))


def l_plus(F: ExpPoly) -> ExpPoly:
    return l_op("plus", F)


def l_minus(F: ExpPoly) -> ExpPoly:
    return l_op("minus", F)


def l_compose(F: ExpPoly) -> ExpPoly:
    """L⁺(L⁻(F)), exact (the operators commute)."""
    return l_compose_jet([F.derive(n) for n in range(5)])


def b_op(F: ExpPoly) -> ExpPoly:
    """B(F,F), the third-order nonlinear first-integral operator, exact."""
    return b_op_jet([F.derive(n) for n in range(4)])


# -------------------------------------------------------------- first integral
def first_integral_residual(F: ExpPoly, grid: Sequence[float]) -> float:
    """max over grid of |dB/dz − 2F′·(L⁺(L⁻F) − 1)|, computed exactly.

    The difference is expanded as an exponential polynomial; for any F in the
    canonical family it is identically zero and 0.0 is returned without
    evaluation.
    """
    diff = b_op(F).derive(1) - 2 * F.derive(1) * (l_compose(F) - 1)
    if diff.is_zero:
        return 0.0
    return max(abs(diff.eval(z)) for z in grid)

