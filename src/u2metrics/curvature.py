"""Pointwise curvature of a U(2)-invariant metric.

All tensors in this symmetry class are diagonal in the invariant coframe
(σ⁰..σ³) with two independent entries, so the trace-free Ricci and Bach
tensors are reported as coefficient pairs rather than 4×4 matrices:

    tf Ric = ric0_a·((σ⁰)² − (σ¹)²) + ric0_b·((σ⁰)² + (σ¹)² − (σ²)² − (σ³)²)
    Bach   = B1·(−2(σ¹)² + (σ²)² + (σ³)²) + B2·(−(σ⁰)² − (σ¹)² + (σ²)² + (σ³)²)

Every function here takes a float z or a 1-D float64 array of them; an
array goes through the same formulas, each value becoming an array over z.
Both follow one rule: the values are computed with floating-point warnings
off, then checked in turn, and the first that is not finite raises
``ArithmeticError("<field> is not finite at z=<z>")`` for its first
non-finite z.  A value that is returned is finite.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

from .numerics import adaptive_quad, at_first, is_array
from .operators import _sign_factor, b_op_jet, l_compose_jet, l_op_jet
from .profiles import MetricSpec, _check_domain, jet_C, jet_F

__all__ = [
    "CurvatureSample",
    "NotKahlerError",
    "scalar_curvature",
    "tf_ricci",
    "weyl",
    "delta_w_potential",
    "bach",
    "ricci_form_kahler",
    "kahler_scalar_curvature",
    "weyl_energy",
    "curvature_sample",
]


class NotKahlerError(ValueError):
    """Kähler-only quantity requested on a metric whose C is not C0·e^{∓z}."""


@dataclass(frozen=True)
class CurvatureSample:
    """Every curvature scalar/component of a metric at one z.

    ``F`` … ``F4d`` and ``C`` … ``C2d`` are the jets of F and C at z that the
    curvature was computed from, and ``s1d`` is the analytic s′ (named as in
    ``BtState``).  ``delW_plus_pot`` and ``delW_minus_pot`` are the δW±
    potentials P± (see :func:`delta_w_potential`); ``rho_plus``/``rho_minus``
    are the Kähler Ricci-form coefficients, present only on a Kähler metric
    (C = C0·e^{∓z}, so ``m.tag`` is Jplus/Jminus).  For an array z every
    field is an array over z (ρ± stay None on a metric without a tag).
    """

    z: float
    s: float
    ric0_a: float
    ric0_b: float
    w_plus: float
    w_minus: float
    w_plus_norm2: float
    w_minus_norm2: float
    delW_plus_pot: float
    delW_minus_pot: float
    bach_B1: float
    bach_B2: float
    F: float
    F1d: float
    F2d: float
    F3d: float
    F4d: float
    C: float
    C1d: float
    C2d: float
    s1d: float
    rho_plus: Optional[float] = None
    rho_minus: Optional[float] = None


def _scalar_from_jets(fj, g):
    # s = −4g²(F″ + ½F − 2) + 24(F′gg′ + F(gg″ − 2g′²))
    return -4.0 * g[0] * g[0] * (fj[2] + 0.5 * fj[0] - 2.0) + 24.0 * (
        fj[1] * g[0] * g[1] + fj[0] * (g[0] * g[2] - 2.0 * g[1] * g[1])
    )


def _scalar_prime_from_jets(fj, g):
    # s′ = −8gg′(F″ + ½F − 2) − 4g²(F‴ + ½F′) + 24(F″gg′ − F′g′² + 2F′gg″ − 3Fg′g″ + Fgg‴)
    return (
        -8.0 * g[0] * g[1] * (fj[2] + 0.5 * fj[0] - 2.0)
        - 4.0 * g[0] * g[0] * (fj[3] + 0.5 * fj[1])
        + 24.0 * (
            fj[2] * g[0] * g[1] - fj[1] * g[1] * g[1] + 2.0 * fj[1] * g[0] * g[2]
            - 3.0 * fj[0] * g[1] * g[2] + fj[0] * g[0] * g[3]
        )
    )


def _l_minus_one(sign, fj) -> float:
    # L±F − 1, the common factor of w±, |W±|², P± and ρ±
    return l_op_jet(sign, fj) - 1.0


def _tf_ricci_from_jets(fj, g) -> tuple:
    ric0_a = 4 * fj[0] * g[0] * (g[2] - g[0] / 4)
    ric0_b = 2 * (g[0] * (fj[1] * g[1] + fj[0] * g[2]) - (fj[2] / 2 - 3 * fj[0] / 4 + 1) * g[0] * g[0])
    return ric0_a, ric0_b


def _weyl_from_jets(fj, g) -> tuple:
    w_plus = -_l_minus_one("plus", fj) * g[0] * g[0]
    w_minus = -_l_minus_one("minus", fj) * g[0] * g[0]
    return w_plus, w_minus, (32.0 / 3.0) * w_plus * w_plus, (32.0 / 3.0) * w_minus * w_minus


def _exp(x):
    """e^x; inf past float range, as numpy gives it (math.exp raises there)."""
    if is_array(x):
        from numpy import exp
        return exp(x)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _delta_w_from_jets(sign, z, fj, g) -> float:
    return _exp(sign * 1.5 * z) * _l_minus_one(sign, fj) / g[0]


def _bach_from_jets(fj, g) -> tuple:
    g4 = g[0] * g[0] * g[0] * g[0]
    return (16.0 / 3.0) * g4 * fj[0] * (l_compose_jet(fj) - 1.0), (8.0 / 3.0) * g4 * b_op_jet(fj)


def _rho_from_jets(tag, fj, g) -> tuple:
    g2 = g[0] * g[0]
    if tag == "Jplus":
        return -(2.0 * g2) * _l_minus_one("plus", fj), -(2.0 * g2) * ((-0.5 * fj[2] + 0.5 * fj[1] + fj[0]) - 1.0)
    if tag == "Jminus":
        return -(2.0 * g2) * ((-0.5 * fj[2] - 0.5 * fj[1] + fj[0]) - 1.0), -(2.0 * g2) * _l_minus_one("minus", fj)
    return None, None


def _checked(z, compute, names: str = ""):
    """``compute()``, evaluated with floating-point warnings off for an array
    z, once each value is finite at z (at every z of an array): the values
    of a tuple, named in order by ``names``, or the fields of a
    CurvatureSample.  The first that is not raises ``ArithmeticError``
    naming it and its first non-finite z; None (ρ± without a tag) passes."""
    array = is_array(z)
    if array:
        import numpy as np
    with np.errstate(all="ignore") if array else nullcontext():
        values = compute()
    for name, value in zip(names.split(), values) if names else vars(values).items():
        if value is None:
            continue
        hit = at_first(~np.isfinite(value), z) if array else None if math.isfinite(value) else (z,)
        if hit is not None:
            raise ArithmeticError(f"{name} is not finite at z={hit[0]}")
    return values


def curvature_sample(m: MetricSpec, z) -> CurvatureSample:
    """All curvature quantities at one z, or at every z of an array (ρ± only
    when the metric is Kähler-tagged).

    Computed from one F jet and the jet of g = C^{−1/2} by the
    ``_…_from_jets`` helpers, the one place each formula is written; the
    scalar functions below call the same helpers, so a component that
    leaves float range at z does not make the others raise.  Every formula
    is a polynomial in the two jets, but for P±'s one division by g:
        s:       −4g²(F″ + ½F − 2) + 24(F′gg′ + F(gg″ − 2g′²)), and s′ its derivative
        tf Ric:  ric0_a = 4F·g(g″ − ¼g),  ric0_b = 2(g(F′g′ + Fg″) − (½F″ − ¾F + 1)g²)
        Weyl:    w± = −(L±F − 1)g²,  |W±|² = (32/3)·w±²
        δW:      P± = e^{±(3/2)z}·(L±F − 1)/g
        Bach:    B1 = (16/3)g⁴·F·(L⁻(L⁺F) − 1),  B2 = (8/3)g⁴·B(F,F)
        Kähler:  Jplus: ρ⁺ = −2g²(L⁺F − 1),  ρ⁻ = −2g²((−½F″ + ½F′ + F) − 1);
                 Jminus is the z ↦ −z mirror.
    """
    return _checked(z, lambda: _sample(m, z))


def _sample(m: MetricSpec, z) -> CurvatureSample:
    fj = jet_F(m, z)
    c, g = jet_C(m, z)
    return CurvatureSample(  # the fields in order
        z, _scalar_from_jets(fj, g), *_tf_ricci_from_jets(fj, g), *_weyl_from_jets(fj, g),
        _delta_w_from_jets(1, z, fj, g), _delta_w_from_jets(-1, z, fj, g), *_bach_from_jets(fj, g),
        *fj, *c[:3], _scalar_prime_from_jets(fj, g), *_rho_from_jets(m.tag, fj, g),
    )


def _jets(m: MetricSpec, z) -> tuple:
    """The F jet and the g = C^{−1/2} jet at z."""
    return jet_F(m, z), jet_C(m, z)[1]


def scalar_curvature(m: MetricSpec, z: float) -> float:
    """Scalar curvature s(z); requires F(z), C(z) ≠ 0."""
    return _checked(z, lambda: (_scalar_from_jets(*_jets(m, z)),), "s")[0]


def tf_ricci(m: MetricSpec, z: float) -> tuple:
    """(ric0_a, ric0_b), the two trace-free Ricci coefficients."""
    return _checked(z, lambda: _tf_ricci_from_jets(*_jets(m, z)), "ric0_a ric0_b")


def weyl(m: MetricSpec, z: float) -> tuple:
    """(w_plus, w_minus, w_plus_norm2, w_minus_norm2)."""
    return _checked(z, lambda: _weyl_from_jets(*_jets(m, z)), "w_plus w_minus w_plus_norm2 w_minus_norm2")


def delta_w_potential(m: MetricSpec, sign, z: float) -> float:
    """P±(z) = e^{±(3/2)z}·(L±F − 1)/g, with g = C^{−1/2}.

    δW± vanishes on an interval iff P± is constant there (or the whole Weyl
    half W± is identically zero, in which case δW± is trivially zero and the
    caller should detect that case first).
    """
    factor = _sign_factor(sign)
    name = "delW_plus_pot" if factor == 1 else "delW_minus_pot"
    return _checked(z, lambda: (_delta_w_from_jets(factor, z, *_jets(m, z)),), name)[0]


def bach(m: MetricSpec, z: float) -> tuple:
    """(B1, B2), the two Bach coefficients."""
    return _checked(z, lambda: _bach_from_jets(*_jets(m, z)), "bach_B1 bach_B2")


def _require_kahler(m: MetricSpec):
    if m.tag is None:
        raise NotKahlerError(f"metric {m.name!r} is not Kähler: C is not C0·e^{{∓z}}")


def ricci_form_kahler(m: MetricSpec, z: float) -> tuple:
    """(rho_plus, rho_minus), the Ricci-form coefficients of a Kähler metric."""
    _require_kahler(m)
    return _checked(z, lambda: _rho_from_jets(m.tag, *_jets(m, z)), "rho_plus rho_minus")


def kahler_scalar_curvature(m: MetricSpec, z: float) -> float:
    """s via the Kähler shortcut −8g²(L±F − 1); cross-check for the general formula."""
    _require_kahler(m)
    sign = "plus" if m.tag == "Jplus" else "minus"

    def shortcut():
        fj, g = _jets(m, z)
        return (-(8.0 * g[0] * g[0]) * _l_minus_one(sign, fj),)

    return _checked(z, shortcut, "s")[0]


def weyl_energy(m: MetricSpec, a: float, b: float, tol: float = 1e-10) -> float:
    """∫ₐᵇ (16/3)(L⁺F − 1)² dz by adaptive Gauss–Kronrod quadrature.

    This is the W⁺ energy density per unit η-coframe 3-sphere volume; the
    constant S³ volume factor is deliberately not included.  An endpoint
    outside the domain's closure raises :class:`OutOfDomainError`.
    """
    for end in (a, b):
        _check_domain(m, end, closure=True)
    poly = m.operator_polys[0]

    def integrand(z):
        v = poly.eval(z)
        return (16.0 / 3.0) * v * v

    return adaptive_quad(integrand, a, b, tol=tol)

