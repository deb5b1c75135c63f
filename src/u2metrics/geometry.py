"""Topology and asymptotics: bolts, end classification, completeness,
the ambiKähler transform, and transcription of classic r-coordinate metrics.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise
from typing import Callable, Optional

from .exppoly import ExpPoly
from .numerics import adaptive_quad
from .profiles import (
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
    RatioFactor,
    SingularConformalFactorError,
    _check_domain,
    _kahler_sign,
    _Record,
    canonical,
    conformal_value,
)

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


class Bolt(_Record):
    """A zero z0 of F on the domain, its slope F′(z0), whether it is a smooth bolt and whether it is a multiple zero."""

    def __init__(self, z0: float, slope: float, smooth_quotient: bool, degenerate: bool = False):
        self.__dict__.update(z0=z0, slope=slope, smooth_quotient=smooth_quotient, degenerate=degenerate)

    @property
    def self_intersection(self) -> Optional[int]:
        return _integer_slope(self.slope) if self.smooth_quotient else None


class EndReport(_Record):
    """One end of the domain: its side ("lower" or "upper"), its kind (nut, bolt, ALE, ALF, cusp,
    asymptotically_einstein, curvature_singularity, conical or undetermined) and whether the metric
    is complete there."""

    def __init__(self, side: str, kind: str, complete: bool, self_intersection: Optional[int] = None,
                 cone_angle: Optional[float] = None, diagnostics: Optional[dict] = None):
        self.__dict__.update(
            side=side, kind=kind, complete=complete, self_intersection=self_intersection, cone_angle=cone_angle,
            diagnostics={} if diagnostics is None else diagnostics,
        )


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


def distance(m: MetricSpec, z1: float, z2: float) -> float:
    """∫ ½√(C/F) dz between z1 and z2, each within the domain's closure (an
    endpoint outside it raises :class:`OutOfDomainError`).

    Every endpoint decision is read from the exact carriers, none from a
    float probe.  An infinite end contributes an exponential tail past a cut
    at |z| = 60 whose rate, ½(growth of C − growth of F), comes from the
    leading exponents; a rate ≥ 0 returns +inf.  Subleading exponents lie at
    least ½ below the leading ones, so they change that tail by a relative
    e^{-30} or less.  The finite interval is split at its midpoint, each
    half read from its endpoint z0 by z = z0 ± u², and one G10K21
    :func:`adaptive_quad` call at tol 1e-11 (one 200 000-panel budget, up to
    4.2 M integrand calls) integrates both halves' sum, one float node at a
    time, over their shared u ∈ (0, u_mid].  The zero
    orders of F and of C's num/den give the local power √(C/F) ~ |z − z0|^p,
    p ≤ −1 returns +inf (cusps, poles), and otherwise u·√(C/F) is smooth in
    u; it is never evaluated at u = 0, where √(C/F) may be infinite.  Where F
    vanishes at z0 it is evaluated as F(z) − F(z0), so a bolt whose F(z0)
    rounds to ±ulp stays integrable.  Raises :class:`QuadratureError`, with
    the whole interval's estimate, when the sum does not meet that tol.
    """
    for end in (z1, z2):
        _check_domain(m, end, closure=True)
    lo, hi = sorted((z1, z2))
    poly = m.f_poly()
    num, den = m.c_ratio

    def integrand(z, f_base=0.0):
        fv = poly.eval(z) - f_base
        cv = conformal_value(m, z)
        if fv <= 0.0 or cv <= 0.0:
            raise SingularConformalFactorError(f"√(C/F) undefined at z={z}")
        return 0.5 * math.sqrt(cv / fv)

    total = 0.0
    for sgn in (1, -1):
        end, other = (hi, lo) if sgn > 0 else (lo, hi)
        if not math.isinf(end):
            continue
        rate = 0.5 * (_growth(num, sgn) - _growth(den, sgn) - _growth(poly, sgn))
        if rate >= 0.0:
            return math.inf
        cut = sgn * max(sgn * other + 1.0, 60.0)
        total += integrand(cut) / -rate  # ∫ from the cut of f(cut)·e^{rate·|z − cut|}
        lo, hi = (lo, cut) if sgn > 0 else (cut, hi)

    bases = []
    for z0 in (lo, hi):
        of, on, od = (_zero_order(p, z0) for p in (poly, num, den))
        if on - od - of <= -2:  # twice the local power p
            return math.inf
        bases.append(poly.eval(z0) if of else 0.0)

    def halves(u):  # 2u·(h(lo + u²) + h(hi − u²))
        return 2.0 * u * (integrand(lo + u * u, bases[0]) + integrand(hi - u * u, bases[1]))

    return total + adaptive_quad(halves, 0.0, math.sqrt(0.5 * (hi - lo)), tol=1e-11)


# ------------------------------------------------------------------------ ends
def _growth(p, side: int) -> Fraction:
    """Growth rate in |z| of a nonzero exponential polynomial p as z → side·∞:
    its leading exponent times side, exact."""
    return p.extreme_exponent(side) * side


def classify_end(m: MetricSpec, side: str) -> EndReport:
    """Classify the lower or upper end of the domain.

    Decision procedure, read from the exponential-polynomial carriers and
    not from whether a float value rounded to zero: at a finite endpoint the
    order of vanishing of F (``_zero_order``, the same helper
    :func:`distance` uses) decides: order 1 is a bolt, or a conical end when the
    slope F′ is not a nonzero integer; order ≥ 2 is an ALF end where C's
    denominator vanishes too (C ~ (z−z0)⁻²) and a cusp where it does not;
    order 0 is undetermined.  At an infinite endpoint the exact exponents
    decide.  Where F → 1, with C's growth exponent ck: a nut needs ck = −1
    exactly, every exponent of F − 1 an integer, and the exponents of C's
    numerator and of its denominator each in one class mod 1 (so C·e^{z} is
    a series in integer powers of e^{−z}); ALE needs ck = +1; any other
    ck > 0 is a complete conical end and any other ck < 0 a curvature
    singularity.  Otherwise growth comparison of F against C separates
    asymptotically-Einstein ends (F = O(C)) from curvature singularities
    (F/C → ∞ with exponent gap ≥ 1).
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

    # infinite endpoint: every rule compares exact exponents
    num, den = m.c_ratio
    ck = _growth(num, sgn) - _growth(den, sgn)  # of C = num/den
    fk = _growth(poly, sgn)
    diag["C_growth_exponent"] = float(ck)
    diag["F_growth_exponent"] = float(poly.extreme_exponent(sgn)) * sgn  # −0.0 for a constant F at −∞
    if poly.coefficient(0) == 1 and fk <= 0:  # F → 1: F − 1 decays
        if ck == 1:
            return report("ALE", True)
        if ck > 0:
            return report("conical", True)
        classes = [{k.denominator for k in p.exponents()} for p in (poly, num, den)]  # 1 or 2: the class mod 1
        if ck == -1 and classes[0] == {1} and len(classes[1]) == len(classes[2]) == 1:
            return report("nut", True)
        if ck < 0:
            return report("curvature_singularity", False)
        return report("undetermined", False)
    if fk > 0:
        if fk <= ck:
            return report("asymptotically_einstein", True)
        if fk - ck >= 1:
            return report("curvature_singularity", False)
    return report("undetermined", False)


# ---------------------------------------------------------------- ambiKähler
def ambikahler_transform(m: MetricSpec) -> MetricSpec:
    """The ambiKähler partner: same F, conformal exponent flipped, so Jplus
    and Jminus swap.

    Requires C = C0·e^{∓z}, else raises :class:`NotKahlerError` (an Einstein C
    swaps C5 and C6, a ratio negates each exponent); twice is the identity.
    """
    _kahler_sign(m)  # raises NotKahlerError without a tag
    if isinstance(m.C, RatioFactor):
        C = RatioFactor(*(ExpPoly([(-k, c) for k, c in p.terms()]) for p in m.c_ratio))
    else:
        C = ExpFactor(m.C.c0, -m.C.eps) if isinstance(m.C, ExpFactor) else EinsteinFactor(m.C.c6, m.C.c5)
    return MetricSpec(name=m.name, F=m.F, C=C, domain=m.domain)


# -------------------------------------------------------------- transcription
class TranscriptionResult(_Record):
    """A transcribed metric, whose C is the better-fitting Exp or Einstein model, and the rms of both fits."""

    def __init__(self, metric: MetricSpec, f_rms: float, c_rms: float):
        self.__dict__.update(metric=metric, f_rms=f_rms, c_rms=c_rms)


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
) -> TranscriptionResult:
    """Transcribe a classic r-coordinate metric (A·dr² + B·η₁² + C·(η₂²+η₃²)).

    z(r) is computed by quadrature of orientation·2√(AB)/C dr at 48 evenly
    spaced r, with z = 0 at the first, calling A, B and C on one float r at a
    time; F = B/C is resampled in z and fitted onto the canonical exponential
    family, and the conformal factor C is fitted against both the Exp and
    Einstein models; the metric takes the one with the smaller rms.
    """
    import numpy as np
    if orientation not in (-1, 1):
        raise ValueError("orientation must be ±1")
    r_lo, r_hi = r_range
    rs = np.linspace(r_lo, r_hi, 48)

    def dz_dr(r):
        a, b, c = A(r), B(r), C(r)
        if a <= 0.0 or b <= 0.0 or c <= 0.0:
            raise ValueError(f"A, B, C must be positive on the r-range (r={r})")
        return orientation * 2.0 * math.sqrt(a * b) / c

    zs = np.cumsum([0.0] + [adaptive_quad(dz_dr, r0, r1, tol=1e-13) for r0, r1 in pairwise(rs.tolist())])
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

    c_model, c_rms = (ein_model, ein_rms) if ein_rms < exp_rms else (exp_model, exp_rms)
    metric = MetricSpec(
        name="transcribed",
        F=canonical(*coeffs),
        C=c_model,
        domain=Domain(float(np.min(zs)), float(np.max(zs))),
    )
    return TranscriptionResult(metric=metric, f_rms=f_rms, c_rms=c_rms)
