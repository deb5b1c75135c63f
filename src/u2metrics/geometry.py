"""Topology and asymptotics: bolts, end classification, completeness,
the ambiKähler transform, and transcription of classic r-coordinate metrics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .exppoly import ExpPoly
from .numerics import adaptive_quad, at_first
from .profiles import (
    ConformalModel,
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
    NotKahlerError,
    RatioFactor,
    SingularConformalFactorError,
    _check_domain,
    canonical,
    conformal_value,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Bolt",
    "EndReport",
    "TranscriptionResult",
    "OrientationError",
    "RankDeficientError",
    "find_bolts",
    "classify_end",
    "distance",
    "ambikahler_transform",
    "fit_exp_family",
    "transcribe_classic",
]

class OrientationError(ValueError):
    """z(r) came out non-monotone; flip the orientation sign."""


class RankDeficientError(ValueError):
    """Least-squares design matrix is rank deficient (degenerate z-spacing)."""


@dataclass(frozen=True)
class Bolt:
    z0: float
    slope: float
    smooth_quotient: bool
    degenerate: bool = False

    @property
    def self_intersection(self) -> Optional[int]:
        return _integer_slope(self.slope) if self.smooth_quotient else None


@dataclass(frozen=True)
class EndReport:
    side: str  # "lower" | "upper"
    kind: str  # nut | bolt | ALE | ALF | cusp | asymptotically_einstein |
    #            curvature_singularity | conical | undetermined
    complete: bool
    self_intersection: Optional[int] = None
    cone_angle: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------- bolts
def _integer_slope(k: float) -> Optional[int]:
    """The nonzero integer within 1e-9 of a bolt's slope F′(z0), or None."""
    n = round(k)
    return n if n != 0 and abs(k - n) < 1e-9 else None


def find_bolts(m: MetricSpec) -> list:
    """Zeros of F on the domain (interior plus closed endpoints).

    The zeros and their multiplicities are exact (:meth:`ExpPoly.real_roots`);
    a zero at a domain end is that end exactly.  The slope k = F′(z0) is the
    bolt's self-intersection when it rounds to a nonzero integer (tolerance
    1e-9); zeros of multiplicity ≥ 2 are flagged degenerate, not bolts.
    """
    poly, d = m.f_poly(), m.domain
    out = []
    for z0, mult in poly.real_roots(d.lo, d.hi):
        if not d.contains(z0, tol=0.0):  # a zero at an open end
            continue
        k = poly.jet(z0, 1)[1]  # F′(z0), derive().eval(z0)'s bits
        smooth = mult == 1 and _integer_slope(k) is not None
        out.append(Bolt(z0=z0, slope=k, smooth_quotient=smooth, degenerate=mult >= 2))
    return out


# ------------------------------------------------------------------- distance
def _zero_order(poly, z0: float) -> int:
    """The multiplicity of the exact zero of an exponential polynomial at z0
    (0 if there is none)."""
    return sum(mult for _, mult in poly.real_roots(z0, z0))


def distance(m: MetricSpec, z1: float, z2: float, tol: float = 1e-11) -> float:
    """∫ ½√(C/F) dz between z1 and z2, each within the domain's closure (an
    endpoint outside it raises :class:`OutOfDomainError`).

    Every endpoint decision is read from the exact carriers, none from a
    float probe.  An infinite end contributes an exponential tail past a cut
    at |z| = 60 whose rate, ½(growth of C − growth of F), comes from the
    leading exponents; a rate ≥ 0 returns +inf.  Subleading exponents lie at
    least ½ below the leading ones, so they change that tail by a relative
    e^{-30} or less.  The finite interval is split at its midpoint, each
    half read from its endpoint z0 by z = z0 ± u², and one
    :func:`adaptive_quad` call at ``tol`` (one 200 000-panel budget)
    integrates both halves' sum over their shared u ∈ (0, u_mid].  The zero
    orders of F and of C's num/den give the local power √(C/F) ~ |z − z0|^p,
    p ≤ −1 returns +inf (cusps, poles), and otherwise u·√(C/F) is smooth in
    u; it is never evaluated at u = 0, where √(C/F) may be infinite.  Where F
    vanishes at z0 it is evaluated as F(z) − F(z0), so a bolt whose F(z0)
    rounds to ±ulp stays integrable.  Raises :class:`QuadratureError`, with
    the whole interval's estimate, when the sum does not meet ``tol``.
    """
    for end in (z1, z2):
        _check_domain(m, end, closure=True)
    import numpy as np
    if z1 > z2:
        z1, z2 = z2, z1
    poly = m.f_poly()
    num, den = m.c_ratio

    def integrand(z, f_base=0.0):  # z a float or an array of them
        fv = poly.eval(z) - f_base
        cv = conformal_value(m, z)
        hit = at_first((fv <= 0.0) | (cv <= 0.0), z)
        if hit is not None:
            raise SingularConformalFactorError(f"√(C/F) undefined at z={hit[0]}")
        return 0.5 * np.sqrt(cv / fv)

    total = 0.0
    lo, hi = z1, z2
    for sgn in (1, -1):
        end, other = (hi, lo) if sgn > 0 else (lo, hi)
        if not math.isinf(end):
            continue
        rate = 0.5 * (_growth(num, sgn) - _growth(den, sgn) - _growth(poly, sgn))
        if rate >= 0.0:
            return math.inf
        cut = sgn * max(sgn * other + 1.0, 60.0)
        total += float(integrand(cut)) / -rate  # ∫ from the cut of f(cut)·e^{rate·|z − cut|}
        lo, hi = (lo, cut) if sgn > 0 else (cut, hi)

    bases = []
    for z0 in (lo, hi):
        of, on, od = (_zero_order(p, z0) for p in (poly, num, den))
        if on - od - of <= -2:  # twice the local power p
            return math.inf
        bases.append(poly.eval(z0) if of else 0.0)

    def halves(u):  # 2u·(h(lo + u²) + h(hi − u²)), both halves in one evaluation
        uu = u * u
        h = integrand(np.concatenate((lo + uu, hi - uu)), np.repeat(bases, len(u)))
        return 2.0 * u * (h[: len(u)] + h[len(u):])

    return total + adaptive_quad(halves, 0.0, math.sqrt(0.5 * (hi - lo)), tol=tol)


# ------------------------------------------------------------------------ ends
def _growth(p, side: int) -> float:
    """Growth rate in |z| of an exponential polynomial p as z → side·∞ (its
    leading exponent times side, symbolic); −inf for p = 0."""
    k = p.extreme_exponent(side)
    return -math.inf if k is None else float(k) * side


def classify_end(m: MetricSpec, side: str) -> EndReport:
    """Classify the lower or upper end of the domain.

    Decision procedure, read from the exponential-polynomial carriers and
    not from whether a float value rounded to zero: at a finite endpoint the
    order of vanishing of F (``_zero_order``, the same helper
    :func:`distance` uses) decides: order 1 is a bolt, or a conical end when the
    slope F′ is not a nonzero integer; order ≥ 2 is an ALF end where C's
    denominator vanishes too (C ~ (z−z0)⁻²) and a cusp where it does not;
    order 0 is undetermined.  At an infinite endpoint the leading exponents
    decide: F → 1 is a nut (C decaying) or ALE end (C growing); otherwise
    growth comparison of F against C separates asymptotically-Einstein ends
    (F = O(C)) from curvature singularities (F/C → ∞ with exponent gap ≥ 1).
    ``diagnostics["distance_to_end"]`` is :func:`distance` from the
    midpoint of the finite window; where that fails it is NaN and
    ``diagnostics["distance_error"]`` holds the error text.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    poly = m.f_poly()
    z_end = m.domain.lo if side == "lower" else m.domain.hi
    sgn = -1 if side == "lower" else +1
    diag: dict = {"endpoint": z_end}

    # distance from a midpoint reference toward the end
    w_lo, w_hi = m.domain.finite_window()
    z_ref = 0.5 * (w_lo + w_hi)
    try:
        dist = distance(m, *((z_end, z_ref) if side == "lower" else (z_ref, z_end)))
    except (ArithmeticError, ValueError) as exc:
        dist = math.nan
        diag["distance_error"] = str(exc)
    diag["distance_to_end"] = dist

    def report(kind, complete, self_int=None, cone=None):
        return EndReport(side, kind, complete, self_int, cone, diag)

    if math.isfinite(z_end):
        f0, f1 = poly.jet(z_end, 1)
        diag["F_at_end"] = f0
        diag["dF_at_end"] = f1
        order = _zero_order(poly, z_end)
        if order == 1:
            diag["slope"] = f1
            self_int = _integer_slope(f1)
            if self_int is not None:
                return report("bolt", True, self_int=self_int)
            return report("conical", True, cone=2.0 * math.pi * abs(f1))
        if order >= 2:
            # double zero: ALF where C has a pole, cusp where C stays bounded
            den_order = _zero_order(m.c_ratio[1], z_end)
            diag["C_denominator_order"] = den_order
            return report("ALF" if den_order else "cusp", True)
        return report("undetermined", False)

    # infinite endpoint
    ck = _growth(m.c_ratio[0], sgn) - _growth(m.c_ratio[1], sgn)  # of C = num/den
    fk = _growth(poly, sgn)
    diag["C_growth_exponent"] = ck
    diag["F_growth_exponent"] = fk
    if poly.coefficient(0) == 1 and all(k * sgn <= 0 for k in poly.exponents()):  # F → 1: F − 1 decays
        if ck < -1e-12:
            return report("nut", True)
        if ck > 1e-12:
            return report("ALE", True)
        return report("undetermined", False)
    if fk > 0.0:
        if fk <= ck + 1e-12:
            return report("asymptotically_einstein", True)
        if fk - ck >= 1.0 - 1e-12:
            return report("curvature_singularity", False)
    return report("undetermined", False)


# ---------------------------------------------------------------- ambiKähler
def ambikahler_transform(m: MetricSpec) -> MetricSpec:
    """The ambiKähler partner: same F, conformal exponent flipped, so Jplus
    and Jminus swap.

    Requires C = C0·e^{∓z}, else raises :class:`NotKahlerError` (an Einstein C
    swaps C5 and C6, a ratio negates each exponent); twice is the identity.
    """
    if m.tag is None:
        raise NotKahlerError(f"metric {m.name!r} is not an exp-factor Kähler metric")
    if isinstance(m.C, RatioFactor):
        C = RatioFactor(*(ExpPoly([(-k, c) for k, c in p.terms()]) for p in m.c_ratio))
    else:
        C = ExpFactor(m.C.c0, -m.C.eps) if isinstance(m.C, ExpFactor) else EinsteinFactor(m.C.c6, m.C.c5)
    return MetricSpec(name=m.name, F=m.F, C=C, domain=m.domain)


# -------------------------------------------------------------- transcription
@dataclass(frozen=True)
class TranscriptionResult:
    metric: MetricSpec
    zs: np.ndarray
    f_samples: np.ndarray
    c_samples: np.ndarray
    f_rms: float
    c_model: ConformalModel
    c_rms: float
    best_model: str  # "exp" | "einstein"


def fit_exp_family(samples) -> tuple:
    """Least-squares fit of F − 1 onto span{e^{-2z}, e^{-z}, e^{z}, e^{2z}}.

    Returns ((C1, C2, C3, C4), rms) with the canonical ½-weighting, i.e.
    F ≈ 1 + ½C1·e^{-2z} + C2·e^{-z} + C3·e^{z} + ½C4·e^{2z}.
    """
    import numpy as np
    samples = list(samples)
    if len(samples) < 8:
        raise ValueError("need at least 8 samples")
    zs = np.array([p[0] for p in samples], dtype=float)
    fs = np.array([p[1] for p in samples], dtype=float)
    design = np.column_stack([np.exp(-2 * zs), np.exp(-zs), np.exp(zs), np.exp(2 * zs)])
    coef, _, rank, _ = np.linalg.lstsq(design, fs - 1.0, rcond=None)
    if rank < 4:
        raise RankDeficientError("degenerate z-spacing: exponential design matrix is rank deficient")
    resid = design @ coef - (fs - 1.0)
    rms = float(np.sqrt(np.mean(resid**2)))
    c1, c2, c3, c4 = 2 * coef[0], coef[1], coef[2], 2 * coef[3]
    return ((float(c1), float(c2), float(c3), float(c4)), rms)


def transcribe_classic(
    A: Callable[[float], float],
    B: Callable[[float], float],
    C: Callable[[float], float],
    r_range: tuple,
    orientation: int,
    samples: int = 48,
) -> TranscriptionResult:
    """Transcribe a classic r-coordinate metric (A·dr² + B·η₁² + C·(η₂²+η₃²)).

    z(r) is computed by quadrature of orientation·2√(AB)/C dr with z = 0 at
    the first sample; F = B/C is resampled in z and fitted onto the canonical
    exponential family, and the conformal factor C is fitted against both the
    Exp and Einstein models with best-model selection by rms.
    """
    import numpy as np
    if orientation not in (-1, 1):
        raise ValueError("orientation must be ±1")
    r_lo, r_hi = r_range
    rs = np.linspace(r_lo, r_hi, samples)

    def dz_dr(r):
        a, b, c = A(r), B(r), C(r)
        if a <= 0.0 or b <= 0.0 or c <= 0.0:
            raise ValueError(f"A, B, C must be positive on the r-range (r={r})")
        return orientation * 2.0 * math.sqrt(a * b) / c

    def dz_dr_nodes(r):  # A, B and C are the caller's scalar functions
        return np.array([dz_dr(x) for x in r.tolist()])

    zs = np.empty(samples)
    zs[0] = 0.0
    for i in range(1, samples):
        zs[i] = zs[i - 1] + adaptive_quad(dz_dr_nodes, rs[i - 1], rs[i], tol=1e-13)
    steps = np.diff(zs)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise OrientationError("z(r) is not monotone; flip the orientation sign")

    f_samples = np.array([B(r) / C(r) for r in rs])
    c_samples = np.array([C(r) for r in rs])
    coeffs, f_rms = fit_exp_family(zip(zs, f_samples))

    # Exp model: log C = log C0 + ε z with ε snapped to ±1.
    logc = np.log(c_samples)
    slope = np.polyfit(zs, logc, 1)[0]
    eps = -1 if slope < 0 else 1
    log_c0 = float(np.mean(logc - eps * zs))
    exp_model = ExpFactor(math.exp(log_c0), eps)
    exp_pred = np.exp(log_c0 + eps * zs)
    exp_rms = float(np.sqrt(np.mean((exp_pred / c_samples - 1.0) ** 2)))

    # Einstein model: √(e^{-z}/C) = C5 + C6·e^{-z} is linear in e^{-z}.
    y = np.sqrt(np.exp(-zs) / c_samples)
    design = np.column_stack([np.ones_like(zs), np.exp(-zs)])
    (c5, c6), *_ = np.linalg.lstsq(design, y, rcond=None)
    ein_rms = math.inf
    ein_model = None
    if abs(c5) > 1e-300 or abs(c6) > 1e-300:
        ein_model = EinsteinFactor(float(c5), float(c6))
        ein_pred = np.exp(-zs) / (c5 + c6 * np.exp(-zs)) ** 2
        ein_rms = float(np.sqrt(np.mean((ein_pred / c_samples - 1.0) ** 2)))

    if ein_rms < exp_rms:
        best, c_model, c_rms = "einstein", ein_model, ein_rms
    else:
        best, c_model, c_rms = "exp", exp_model, exp_rms

    z_lo, z_hi = float(np.min(zs)), float(np.max(zs))
    metric = MetricSpec(
        name="transcribed",
        F=canonical(*coeffs),
        C=c_model,
        domain=Domain(z_lo, z_hi),
    )
    order = np.argsort(zs)
    return TranscriptionResult(
        metric=metric,
        zs=zs[order],
        f_samples=f_samples[order],
        c_samples=c_samples[order],
        f_rms=f_rms,
        c_model=c_model,
        c_rms=c_rms,
        best_model=best,
    )
