"""The differential operators L⁺, L⁻, their composition, and the nonlinear
third-order operator B:

    L±(F)  = ½F″ ∓ (3/2)F′ + F         (e^{kz} eigenvalue (k∓1)(k∓2)/2)
    L⁺∘L⁻  = ¼F⁗ − (5/4)F″ + F
    B(F,F) = (−½F″ + (3/2)F′ + F − 1)(L⁺F − 1) + F′·(L⁺F)′

Each formula is written once, as a jet form in integer literals and exact
division, so it serves every carrier of the jet (F, F′, F″, …): floats,
arrays over z and ExpPolys.  On floats, x / 2, 3 * x / 2, x / 4 and 5 * x / 4
round as 0.5·x, 1.5·x, 0.25·x and 1.25·x do unless one overflows or is
subnormal.  A form has degree ≤ 2 in the jet, so the exact ``l_op``,
``l_compose`` and ``b_op`` take no derivative of F: they sum the form's
constant, linear and bilinear parts (``_polarised``, once per form) on the
exact jets of F's terms and pairs of terms, with F's int numerators.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .exppoly import ExpPoly

__all__ = ["l_op", "l_compose", "b_op", "l_op_jet", "l_compose_jet", "b_op_jet"]


def _sign_factor(sign) -> int:
    if sign not in (1, -1):
        raise ValueError(f"operator sign must be 1 or -1, got {sign!r}")
    return int(sign)


def _l_op(s: int, f, f1, f2):
    """L±(F) = ½F″ ∓ (3/2)F′ + F for s = ±1, from F, F′ and F″."""
    return f2 / 2 - 3 * s * f1 / 2 + f


def l_op_jet(sign, jet: Sequence):
    """L±(F) from a 2-jet (F, F′, F″, ...), for sign = ±1."""
    return _l_op(_sign_factor(sign), jet[0], jet[1], jet[2])


def l_compose_jet(jet: Sequence):
    """L⁺(L⁻(F)) = ¼F⁗ − (5/4)F″ + F from a 4-jet."""
    return jet[4] / 4 - 5 * jet[2] / 4 + jet[0]


def b_op_jet(jet: Sequence):
    """B(F,F) from a 3-jet (F, F′, F″, F‴, ...); (L⁺F)′ is L⁺ of (F′, F″, F‴)."""
    f, f1, f2 = jet[0], jet[1], jet[2]
    return (-f2 / 2 + 3 * f1 / 2 + f - 1) * (_l_op(1, f, f1, f2) - 1) + f1 * _l_op(1, f1, f2, jet[3])


@lru_cache(maxsize=16)  # bounded: one entry per jet form
def _polarised(form, *args) -> tuple:
    """form(*args, u) = a + Σ ℓₘuₘ + Σ Sₘₙuₘuₙ (S symmetric) for a jet form of degree ≤ 2, as
    ints over one D: (D, a·D, ℓ·D, ((m, n, Sₘₙ·D) for Sₘₙ ≠ 0)).  On the unit jets eₘ,
    form(eₘ) = a + ℓₘ + Sₘₘ and 2Sₘₙ = form(eₘ + eₙ) − form(eₘ) − form(eₙ) + a, in floats,
    which are exact here: every value is a sum of a few halves and quarters."""
    unit = [[float(m == n) for n in range(5)] for m in range(5)]
    a = form(*args, [0.0] * 5)
    p = [form(*args, e) for e in unit]
    S = [[(form(*args, [x + y for x, y in zip(e, f)]) - p[m] - p[n] + a) / 2 for n, f in enumerate(unit)]
         for m, e in enumerate(unit)]
    lin = [p[m] - a - S[m][m] for m in range(5)]
    den = math.lcm(*(v.as_integer_ratio()[1] for v in [a, *lin, *sum(S, [])]))
    quad = [(m, n, int(v * den)) for m, row in enumerate(S) for n, v in enumerate(row) if v]
    return den, int(a * den), [int(v * den) for v in lin], quad


def _form_items(F: ExpPoly, form, *args) -> tuple:
    """form(*args, F's jet) as (2k, int numerator) items over one denominator, summed exactly per
    key: on F = Σ cᵢe^{kᵢz}, a + Σ cᵢℓ·uᵢe^{kᵢz} + Σ cᵢcⱼuᵢᵀSuⱼe^{(kᵢ+kⱼ)z}, uᵢ = (1, kᵢ, …, kᵢ⁴)."""
    den, a, lin, quad = _polarised(form, *args)
    d = F._den
    terms = [(K, c, (16, 8 * K, 4 * K * K, 2 * K**3, K**4)) for K, c in F._terms.items()]  # 16uᵢ
    out = {0: 256 * a * d * d}
    for i, (K, c, x) in enumerate(terms):
        out[K] = out.get(K, 0) + 16 * d * c * sum(v * y for v, y in zip(lin, x))
        for L, b, y in terms[: i + 1] if quad else ():
            q = sum(v * x[m] * y[n] for m, n, v in quad)
            out[K + L] = out.get(K + L, 0) + (q if L == K else 2 * q) * c * b
    return out.items(), 256 * den * d * d


def l_op(sign, F: ExpPoly) -> ExpPoly:
    """L±(F) for sign = ±1, exact."""
    return ExpPoly._keyed(*_form_items(F, l_op_jet, _sign_factor(sign)))


def l_compose(F: ExpPoly) -> ExpPoly:
    """L⁺(L⁻(F)), exact (the operators commute)."""
    return ExpPoly._keyed(*_form_items(F, l_compose_jet))


def b_op(F: ExpPoly) -> ExpPoly:
    """B(F,F), the third-order nonlinear first-integral operator, exact."""
    return ExpPoly._keyed(*_form_items(F, b_op_jet))
