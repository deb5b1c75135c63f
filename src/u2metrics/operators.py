"""The differential operators L⁺, L⁻, their composition, and the nonlinear
third-order operator B:

    L±(F)  = ½F″ ∓ (3/2)F′ + F         (e^{kz} eigenvalue (k∓1)(k∓2)/2)
    L⁺∘L⁻  = ¼F⁗ − (5/4)F″ + F
    B(F,F) = (−½F″ + (3/2)F′ + F − 1)(L⁺F − 1) + F′·(L⁺F)′

Each formula is written once, as a jet form in integer literals and exact
division, so it serves every carrier of the jet (F, F′, F″, …): floats,
arrays over z, or F's derivatives as ExpPolys (``l_op``, ``l_compose``,
``b_op``), which are exact for every F, a float coefficient being read at
its binary value.  On floats, x / 2, 3 * x / 2, x / 4 and 5 * x / 4 round as
0.5·x, 1.5·x, 0.25·x and 1.25·x do unless one overflows or is subnormal.
Their eigenvalues on e^{kz} (``l_eigenvalues_64``) are the jet forms on its
jet.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Sequence

from .exppoly import ExpPoly

__all__ = [
    "l_op",
    "l_compose",
    "b_op",
    "l_op_jet",
    "l_compose_jet",
    "b_op_jet",
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


@cache
def l_eigenvalues_64(K: int) -> tuple:
    """64 times the eigenvalues of L⁺, L⁻ and L⁺L⁻ on e^{kz}, K = 2k, as ints: the
    jet forms on its exact jet (1, k, …, k⁴), computed once per K."""
    jet = [Fraction(K, 2) ** n for n in range(5)]
    return tuple(int(64 * v) for v in (l_op_jet(1, jet), l_op_jet(-1, jet), l_compose_jet(jet)))


def b_op_jet(jet: Sequence):
    """B(F,F) from a 3-jet (F, F′, F″, F‴, ...); (L⁺F)′ is L⁺ of (F′, F″, F‴)."""
    f, f1, f2 = jet[0], jet[1], jet[2]
    return (-f2 / 2 + 3 * f1 / 2 + f - 1) * (_l_op(1, f, f1, f2) - 1) + f1 * _l_op(1, f1, f2, jet[3])


def l_op(sign, F: ExpPoly) -> ExpPoly:
    """L±(F), exact."""
    return l_op_jet(sign, (F, F.derive(1), F.derive(2)))


def l_compose(F: ExpPoly) -> ExpPoly:
    """L⁺(L⁻(F)), exact (the operators commute)."""
    return l_compose_jet([F.derive(n) for n in range(5)])


def b_op(F: ExpPoly) -> ExpPoly:
    """B(F,F), the third-order nonlinear first-integral operator, exact."""
    return b_op_jet([F.derive(n) for n in range(4)])

