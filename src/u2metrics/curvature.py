"""Pointwise curvature of a U(2)-invariant metric.

All tensors in this symmetry class are diagonal in the orthonormal invariant
coframe σ⁰ = √C/(2√F)·dz, σ¹ = √(CF)·η₁, σ² = √C·η₂, σ³ = √C·η₃ (η as in
``profiles``) with two independent entries, so the trace-free Ricci and Bach
tensors are reported as coefficient pairs rather than 4×4 matrices:

    tf Ric = ric0_a·((σ⁰)² − (σ¹)²) + ric0_b·((σ⁰)² + (σ¹)² − (σ²)² − (σ³)²)
    Bach   = B1·(−2(σ¹)² + (σ²)² + (σ³)²) + B2·(−(σ⁰)² − (σ¹)² + (σ²)² + (σ³)²)

Every function here takes a float z or a 1-D float64 array of them; an
array goes through the same formulas, each value becoming an array over z.
|W±|² is the full contraction W±_abcd·W±^abcd in that coframe; W⁺ is the
anti-self-dual half for the orientation σ⁰∧σ¹∧σ²∧σ³ (self-dual for
σ¹∧σ⁰∧σ²∧σ³), the half proportional to s on a J⁺-Kähler metric.  Both
carriers follow one rule: the values are computed with floating-point
warnings off, then checked in turn, and the first that is not finite raises
``ArithmeticError("<field> is not finite at z=<z>")`` for its first
non-finite z.  A value that is returned is finite.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

from .numerics import adaptive_quad, at_first, is_array
from .operators import _sign_factor, b_op_jet, l_compose_jet, l_op_jet
from .profiles import MetricSpec, NotKahlerError, _check_domain, jet_C, jet_F

__all__ = [
    "CurvatureSample",
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


@dataclass(frozen=True)
class CurvatureSample:
    """Every curvature scalar/component of a metric at one z.

    ``F`` … ``F4d`` and ``C`` … ``C2d`` are the jets of F and C at z that the
    curvature was computed from, and ``s1d`` is the analytic s′ (named as in
    ``BtState``).  ``delW_plus_pot`` and ``delW_minus_pot`` are the δW±
    potentials P± (see :func:`delta_w_potential`).  The Kähler Ricci-form
    coefficients ρ± are not sampled: :func:`ricci_form_kahler` computes them
    on a Kähler metric.  For an array z every field is an array over z.
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


def _scalar_from_jets(fj, g):
    # s = −4g²(F″ + ½F − 2) + 24(F′gg′ + F(gg″ − 2g′²))
    return -4 * g[0] * g[0] * (fj[2] + fj[0] / 2 - 2) + 24 * (
        fj[1] * g[0] * g[1] + fj[0] * (g[0] * g[2] - 2 * g[1] * g[1])
    )


def _scalar_prime_from_jets(fj, g):
    # s′ = −8gg′(F″ + ½F − 2) − 4g²(F‴ + ½F′) + 24(F″gg′ − F′g′² + 2F′gg″ − 3Fg′g″ + Fgg‴)
    return (
        -8 * g[0] * g[1] * (fj[2] + fj[0] / 2 - 2)
        - 4 * g[0] * g[0] * (fj[3] + fj[1] / 2)
        + 24 * (
            fj[2] * g[0] * g[1] - fj[1] * g[1] * g[1] + 2 * fj[1] * g[0] * g[2]
            - 3 * fj[0] * g[1] * g[2] + fj[0] * g[0] * g[3]
        )
    )


def _tf_ricci_from_jets(fj, g) -> tuple:
    ric0_a = 4 * fj[0] * g[0] * (g[2] - g[0] / 4)
    ric0_b = 2 * (g[0] * (fj[1] * g[1] + fj[0] * g[2]) - (fj[2] / 2 - 3 * fj[0] / 4 + 1) * g[0] * g[0])
    return ric0_a, ric0_b


def _weyl_from_jets(fj, g) -> tuple:
    w_plus = -(l_op_jet(1, fj) - 1) * g[0] * g[0]
    w_minus = -(l_op_jet(-1, fj) - 1) * g[0] * g[0]
    return w_plus, w_minus, 32 * w_plus * w_plus / 3, 32 * w_minus * w_minus / 3


def _exp(x):
    """e^x; inf past float range, as numpy gives it (math.exp raises there)."""
    if is_array(x):
        from numpy import exp
        return exp(x)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _delta_w_from_jets(sign, z, fj, g):
    return _exp(3 * sign * z / 2) * (l_op_jet(sign, fj) - 1) / g[0]


def _bach_from_jets(fj, g) -> tuple:
    g4 = g[0] * g[0] * g[0] * g[0]
    return 16 * g4 * fj[0] * (l_compose_jet(fj) - 1) / 3, 8 * g4 * b_op_jet(fj) / 3


def _rho_from_jets(sign, fj, g) -> tuple:
    # (ρ of J±, ρ of the other orientation) for sign = ±1
    g2 = g[0] * g[0]
    return -(2 * g2) * (l_op_jet(sign, fj) - 1), -(2 * g2) * ((-fj[2] / 2 + sign * fj[1] / 2 + fj[0]) - 1)


def _checked(z, compute, names: str = ""):
    """``compute()``, evaluated with floating-point warnings off for an array
    z, once each value is finite at z (at every z of an array): the values
    of a tuple, named in order by ``names``, or the fields of a
    CurvatureSample.  The first that is not raises ``ArithmeticError``
    naming it and its first non-finite z; an array sample is tested whole
    first, and field by field only when that test fails."""
    array = is_array(z)
    if array:
        import numpy as np
    with np.errstate(all="ignore") if array else nullcontext():
        values = compute()
    if array and np.isfinite(values if names else tuple(vars(values).values())).all():
        return values
    for name, value in zip(names.split(), values) if names else vars(values).items():
        hit = at_first(~np.isfinite(value), z) if array else None if math.isfinite(value) else (z,)
        if hit is not None:
            raise ArithmeticError(f"{name} is not finite at z={hit[0]}")
    return values


def curvature_sample(m: MetricSpec, z) -> CurvatureSample:
    """All curvature quantities at one z, or at every z of an array.

    Computed from one F jet and the jet of g = C^{−1/2} by the
    ``_…_from_jets`` helpers, the one place each formula is written; the
    scalar functions below call the same helpers, so a component that
    leaves float range at z does not make the others raise.  Every formula
    is a polynomial in the two jets, but for P±'s one division by g, and is
    written with integer literals, so all but P± also run on exact ExpPoly jets:
        s:       −4g²(F″ + ½F − 2) + 24(F′gg′ + F(gg″ − 2g′²)), and s′ its derivative
        tf Ric:  ric0_a = 4F·g(g″ − ¼g),  ric0_b = 2(g(F′g′ + Fg″) − (½F″ − ¾F + 1)g²)
        Weyl:    w± = −(L±F − 1)g²,  |W±|² = (32/3)·w±²
        δW:      P± = e^{±(3/2)z}·(L±F − 1)/g
        Bach:    B1 = (16/3)g⁴·F·(L⁻(L⁺F) − 1),  B2 = (8/3)g⁴·B(F,F)
        Kähler:  Jplus: ρ⁺ = −2g²(L⁺F − 1),  ρ⁻ = −2g²((−½F″ + ½F′ + F) − 1);
                 Jminus is the z ↦ −z mirror; only :func:`ricci_form_kahler` computes ρ±.
    """
    return _checked(z, lambda: _sample(m, z))


def _sample(m: MetricSpec, z) -> CurvatureSample:
    fj = jet_F(m, z)
    c, g = jet_C(m, z)
    return CurvatureSample(  # the fields in order
        z, _scalar_from_jets(fj, g), *_tf_ricci_from_jets(fj, g), *_weyl_from_jets(fj, g),
        _delta_w_from_jets(1, z, fj, g), _delta_w_from_jets(-1, z, fj, g), *_bach_from_jets(fj, g),
        *fj, *c[:3], _scalar_prime_from_jets(fj, g),
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


def _kahler_sign(m: MetricSpec) -> int:
    """+1 for a J⁺-Kähler metric (C = C0·e^{−z}), −1 for J⁻ (C = C0·e^{+z})."""
    if m.tag is None:
        raise NotKahlerError(f"metric {m.name!r} is not Kähler: C is not C0·e^{{∓z}}")
    return 1 if m.tag == "Jplus" else -1


def ricci_form_kahler(m: MetricSpec, z: float) -> tuple:
    """(rho_plus, rho_minus), the Ricci-form coefficients of a Kähler metric."""
    sign = _kahler_sign(m)  # (own, other)[::sign] is (ρ⁺, ρ⁻)
    return _checked(z, lambda: _rho_from_jets(sign, *_jets(m, z))[::sign], "rho_plus rho_minus")


def kahler_scalar_curvature(m: MetricSpec, z: float) -> float:
    """s = 4ρ of the metric's own orientation; cross-check for the general formula."""
    sign = _kahler_sign(m)
    return _checked(z, lambda: (4 * _rho_from_jets(sign, *_jets(m, z))[0],), "s")[0]


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
        return 16 * v * v / 3  # |W⁺|²·C²/2 = (32/3)w⁺²·C²/2 with w⁺ = −(L⁺F − 1)g² and g⁴C² = 1

    return adaptive_quad(integrand, a, b, tol=tol)

