"""Pointwise curvature of a U(2)-invariant metric.

All tensors in this symmetry class are diagonal in the invariant coframe
(σ⁰..σ³) with two independent entries, so the trace-free Ricci and Bach
tensors are reported as coefficient pairs rather than 4×4 matrices:

    tf Ric = ric0_a·((σ⁰)² − (σ¹)²) + ric0_b·((σ⁰)² + (σ¹)² − (σ²)² − (σ³)²)
    Bach   = B1·(−2(σ¹)² + (σ²)² + (σ³)²) + B2·(−(σ⁰)² − (σ¹)² + (σ²)² + (σ³)²)

Every function here takes a float z or a 1-D float64 array of them; an
array goes through the same formulas, each value becoming an array over z.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .numerics import adaptive_quad, at_first, is_array
from .operators import _sign_factor, b_op_jet, l_compose_jet, l_op_jet
from .profiles import MetricSpec, jet_C, jet_F

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

_HALF = Fraction(1, 2)


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


def _scalar_from_jets(fj, c, h):
    # s = -4C⁻¹(F″ + ½F − 2) − 24C^{-3/2}·d/dz(F·(C^{1/2})′)
    c_val = c[0]
    c_m32 = c_val ** -1.5
    dz_term = fj[1] * h[1] + fj[0] * h[2]
    return -4.0 / c_val * (fj[2] + 0.5 * fj[0] - 2.0) - 24.0 * c_m32 * dz_term


def _scalar_prime_from_jets(fj, c, h):
    # s′ = 4C′C⁻²(F″ + ½F − 2) − 4C⁻¹(F‴ + ½F′)
    #      + 36C^{-5/2}C′(F′h′ + Fh″) − 24C^{-3/2}(F″h′ + 2F′h″ + Fh‴),  h = C^{1/2}
    c_val, c1 = c[0], c[1]
    c_m32 = c_val ** -1.5
    dz_term = fj[1] * h[1] + fj[0] * h[2]
    dz_term1 = fj[2] * h[1] + 2.0 * fj[1] * h[2] + fj[0] * h[3]
    return (
        4.0 * c1 / (c_val * c_val) * (fj[2] + 0.5 * fj[0] - 2.0)
        - 4.0 / c_val * (fj[3] + 0.5 * fj[1])
        + 36.0 * c_m32 / c_val * c1 * dz_term
        - 24.0 * c_m32 * dz_term1
    )


def _l_minus_one(sign, fj) -> float:
    # L±F − 1, the common factor of w±, |W±|², P± and ρ±
    return l_op_jet(sign, fj) - 1.0


def _tf_ricci_from_jets(fj, c, g) -> tuple:
    c_val = c[0]
    ric0_a = 4.0 * fj[0] * g[0] * (g[2] - 0.25 * g[0])
    ric0_b = 2.0 * (g[0] * (fj[1] * g[1] + fj[0] * g[2]) - (fj[2] * 0.5 - 0.75 * fj[0] + 1.0) / c_val)
    return ric0_a, ric0_b


def _weyl_from_jets(lp, lm, c) -> tuple:
    c_val = c[0]
    return (-lp / c_val, -lm / c_val, (32.0 / 3.0) * lp * lp / c_val**2, (32.0 / 3.0) * lm * lm / c_val**2)


def _delta_w_from_jets(sign, z, l_pm, h) -> float:
    exp = math.exp
    if is_array(z):
        from numpy import exp
    return exp(sign * 1.5 * z) * l_pm * h[0]


def _bach_from_jets(fj, c) -> tuple:
    c_val = c[0]
    return (
        (16.0 / 3.0) / c_val**2 * fj[0] * (l_compose_jet(fj) - 1.0),
        (8.0 / 3.0) / c_val**2 * b_op_jet(fj),
    )


def _rho_from_jets(tag, fj, c) -> tuple:
    c_val = c[0]
    if tag == "Jplus":
        return (
            -(2.0 / c_val) * _l_minus_one("plus", fj),
            -(2.0 / c_val) * ((-0.5 * fj[2] + 0.5 * fj[1] + fj[0]) - 1.0),
        )
    if tag == "Jminus":
        return (
            -(2.0 / c_val) * ((-0.5 * fj[2] - 0.5 * fj[1] + fj[0]) - 1.0),
            -(2.0 / c_val) * _l_minus_one("minus", fj),
        )
    return None, None


def curvature_sample(m: MetricSpec, z) -> CurvatureSample:
    """All curvature quantities at one z, or at every z of an array (ρ± only
    when the metric is Kähler-tagged).

    Computed from one F jet and one C jet (h = C^{1/2}, g = C^{-1/2}) by the
    ``_…_from_jets`` helpers, the one place each formula is written; the
    scalar functions below call the same helpers with only the jets their
    own component needs, so a component that leaves float range at z does
    not make the others raise.
        tf Ric:  ric0_a = 4F·g(g″ − ¼g),  ric0_b = 2(g(F′g′ + Fg″) − (½F″ − ¾F + 1)/C)
        Weyl:    w± = −C⁻¹(L±F − 1),  |W±|² = (32/3)·C⁻²(L±F − 1)²
        δW:      P± = e^{±(3/2)z}·(L±F − 1)·√C
        Bach:    B1 = (16/3)C⁻²·F·(L⁻(L⁺F) − 1),  B2 = (8/3)C⁻²·B(F,F)
        Kähler:  Jplus: ρ⁺ = −(2/C)(L⁺F − 1),  ρ⁻ = −(2/C)((−½F″ + ½F′ + F) − 1);
                 Jminus is the z ↦ −z mirror.

    An array z is evaluated with floating-point warnings off, and then each
    field is checked in turn: the first with a non-finite value raises
    ``ArithmeticError`` naming the field and its first non-finite z.
    """
    if is_array(z):
        import numpy as np
        with np.errstate(all="ignore"):
            sample = _sample(m, z)
        for f in fields(sample):
            value = getattr(sample, f.name)
            hit = None if value is None else at_first(~np.isfinite(value), z)
            if hit is not None:
                raise ArithmeticError(f"{f.name} is not finite at z={hit[0]}")
        return sample
    return _sample(m, z)


def _sample(m: MetricSpec, z) -> CurvatureSample:
    fj = jet_F(m, z)
    cj = jet_C(m, z, powers=(1, _HALF, -_HALF))
    c, h, g = cj[1], cj[_HALF], cj[-_HALF]
    lp = _l_minus_one("plus", fj)
    lm = _l_minus_one("minus", fj)
    rho_p, rho_m = _rho_from_jets(m.tag, fj, c)
    s_val = _scalar_from_jets(fj, c, h)
    ric0_a, ric0_b = _tf_ricci_from_jets(fj, c, g)
    w_plus, w_minus, w_plus_norm2, w_minus_norm2 = _weyl_from_jets(lp, lm, c)
    p_plus = _delta_w_from_jets(1, z, lp, h)
    p_minus = _delta_w_from_jets(-1, z, lm, h)
    bach_B1, bach_B2 = _bach_from_jets(fj, c)
    return CurvatureSample(
        z=z,
        s=s_val,
        ric0_a=ric0_a,
        ric0_b=ric0_b,
        w_plus=w_plus,
        w_minus=w_minus,
        w_plus_norm2=w_plus_norm2,
        w_minus_norm2=w_minus_norm2,
        delW_plus_pot=p_plus,
        delW_minus_pot=p_minus,
        bach_B1=bach_B1,
        bach_B2=bach_B2,
        F=fj[0],
        F1d=fj[1],
        F2d=fj[2],
        F3d=fj[3],
        F4d=fj[4],
        C=c[0],
        C1d=c[1],
        C2d=c[2],
        s1d=_scalar_prime_from_jets(fj, c, h),
        rho_plus=rho_p,
        rho_minus=rho_m,
    )


def _jets(m: MetricSpec, z: float, *powers) -> tuple:
    """The F jet and the C jets of the given powers at z."""
    cj = jet_C(m, z, powers=powers)
    return (jet_F(m, z),) + tuple(cj[Fraction(p)] for p in powers)


def scalar_curvature(m: MetricSpec, z: float) -> float:
    """Scalar curvature s(z); requires F(z), C(z) ≠ 0."""
    return _scalar_from_jets(*_jets(m, z, 1, _HALF))


def tf_ricci(m: MetricSpec, z: float) -> tuple:
    """(ric0_a, ric0_b), the two trace-free Ricci coefficients."""
    return _tf_ricci_from_jets(*_jets(m, z, 1, -_HALF))


def weyl(m: MetricSpec, z: float) -> tuple:
    """(w_plus, w_minus, w_plus_norm2, w_minus_norm2)."""
    fj, c = _jets(m, z, 1)
    return _weyl_from_jets(_l_minus_one("plus", fj), _l_minus_one("minus", fj), c)


def delta_w_potential(m: MetricSpec, sign, z: float) -> float:
    """P±(z) = e^{±(3/2)z}·(L±F − 1)·√C.

    δW± vanishes on an interval iff P± is constant there (or the whole Weyl
    half W± is identically zero, in which case δW± is trivially zero and the
    caller should detect that case first).
    """
    factor = _sign_factor(sign)
    fj, h = _jets(m, z, _HALF)
    return _delta_w_from_jets(factor, z, _l_minus_one(factor, fj), h)


def bach(m: MetricSpec, z: float) -> tuple:
    """(B1, B2), the two Bach coefficients."""
    return _bach_from_jets(*_jets(m, z, 1))


def _require_kahler(m: MetricSpec):
    if m.tag is None:
        raise NotKahlerError(f"metric {m.name!r} is not Kähler: C is not C0·e^{{∓z}}")


def ricci_form_kahler(m: MetricSpec, z: float) -> tuple:
    """(rho_plus, rho_minus), the Ricci-form coefficients of a Kähler metric."""
    _require_kahler(m)
    return _rho_from_jets(m.tag, *_jets(m, z, 1))


def kahler_scalar_curvature(m: MetricSpec, z: float) -> float:
    """s via the Kähler shortcut −(8/C)(L±F − 1); cross-check for the general formula."""
    _require_kahler(m)
    fj = jet_F(m, z)
    c = jet_C(m, z, powers=(1,))[1][0]
    sign = "plus" if m.tag == "Jplus" else "minus"
    return -(8.0 / c) * (l_op_jet(sign, fj) - 1.0)


def weyl_energy(m: MetricSpec, a: float, b: float, tol: float = 1e-10) -> float:
    """∫ₐᵇ (16/3)(L⁺F − 1)² dz by adaptive Gauss–Kronrod quadrature.

    This is the W⁺ energy density per unit η-coframe 3-sphere volume; the
    constant S³ volume factor is deliberately not included.
    """
    poly = m.operator_polys[0]

    def integrand(z):
        v = poly.eval(z)
        return (16.0 / 3.0) * v * v

    return adaptive_quad(integrand, a, b, tol=tol)

