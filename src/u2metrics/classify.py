"""Residual-based classification of canonical metrics.

Each predicate of the summary taxonomy (Kähler, extremal, CSC/ZSC, Einstein,
Bach-flat, half-conformally-flat, half-harmonic, harmonic, hyperKähler,
conformally extremal, B^t-flat) is evaluated either from an exact certificate
or as a maximum grid residual of its defining equation; ``classify`` says
which.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from .btflat import bt_grid_residual
from .curvature import _tf_ricci_from_jets, curvature_sample
from .profiles import Domain, MetricSpec, _Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PredicateResult",
    "ClassificationReport",
    "classify",
    "sample_grid",
    "PREDICATES",
]

_GRID_N = 64  # the grid_n of classify's grid

PREDICATES = (
    "kahler_plus",
    "kahler_minus",
    "extremal",
    "csc",
    "zsc",
    "einstein",
    "kahler_einstein",
    "ricci_flat",
    "bach_flat",
    "sd",
    "asd",
    "half_harmonic_plus",
    "half_harmonic_minus",
    "harmonic",
    "hyperkahler_Iminus",
    "hyperkahler_Iplus",
    "conformally_extremal",
    "bt_flat",
)


class PredicateResult(_Record):
    """One predicate's verdict ("yes", "no" or "indeterminate"), its residual and the certificate that decided it."""

    def __init__(self, name: str, verdict: str, residual: float, certificate: Optional[str] = None):
        self.__dict__.update(name=name, verdict=verdict, residual=residual, certificate=certificate)


class ClassificationReport(_Record):
    """A metric's predicate results by name, at tol, on ``sample_grid``'s default
    grid (its text and tree give that grid's grid_n, 64, not its 63 or 64 points)."""

    __hash__, __setattr__, __delattr__ = None, object.__setattr__, object.__delattr__

    def __init__(self, metric_name: str, tol: float, entries: Optional[dict] = None):
        self.metric_name, self.tol = metric_name, tol
        self.entries = {} if entries is None else entries

    def verdict(self, name: str) -> str:
        return self.entries[name].verdict

    def residual(self, name: str) -> float:
        return self.entries[name].residual

    def tags(self) -> tuple:
        return tuple(n for n in PREDICATES if n in self.entries and self.entries[n].verdict == "yes")

    def text(self) -> str:
        lines = [f"metric {self.metric_name}", f"tol {self.tol:g}", f"grid_n {_GRID_N}"]
        for name in PREDICATES:
            if name not in self.entries:
                continue
            e = self.entries[name]
            line = f"{name} {e.verdict} residual={e.residual:.6g}"
            if e.certificate:
                line += f" [{e.certificate}]"
            lines.append(line)
        return "\n".join(lines)

    def tree(self) -> dict:
        return {
            "metric": self.metric_name,
            "tol": self.tol,
            "grid_n": _GRID_N,
            "predicates": {
                n: {
                    "verdict": e.verdict,
                    "residual": e.residual,
                    "certificate": e.certificate,
                }
                for n, e in self.entries.items()
            },
        }


@lru_cache(maxsize=256, typed=True)  # bounded: a parameter sweep makes a new domain per spec
def sample_grid(domain: Domain, grid_n: int = _GRID_N) -> np.ndarray:
    """Interior sample points, geometrically clustered toward both ends:
    2·(grid_n // 2) − 1 of them for grid_n ≥ 4 when the two halves share the
    midpoint, and one more when lo + L/2 and hi − L/2 round apart (64 for
    ``Domain(-36.56, 48.18)``); 2 for grid_n = 2 or 3.

    The sampled window is the domain itself when finite (shrunk 1% from each
    endpoint) and a finite sub-window when unbounded.  Raises ``ValueError``
    for a grid_n that is not an int (a bool is not) of at least 2.  The
    grid depends on ``(domain, grid_n)`` alone and is built once for each
    recent pair (the cache is typed); the array returned is shared, so it is
    read-only.
    """
    import numpy as np
    if isinstance(grid_n, bool) or not isinstance(grid_n, int) or grid_n < 2:
        raise ValueError(f"grid_n must be an int >= 2, got grid_n={grid_n!r}")
    lo, hi = domain.finite_window()
    length = hi - lo
    pad = 0.01 * length
    half = grid_n // 2
    offsets = np.geomspace(pad, 0.5 * length, half)
    points = np.sort(np.concatenate([lo + offsets, hi - offsets]))
    # drop equal neighbours, as np.unique would (which imports numpy.ma)
    points = points[np.concatenate(([True], points[1:] != points[:-1]))]
    points.flags.writeable = False
    return points


def _grid_max(p, grid) -> float:
    """max |p| over the grid for an ExpPoly p, 0.0 when p ≡ 0."""
    import numpy as np
    return 0.0 if p.is_zero else float(np.max(np.abs(p.eval(grid))))


def _measure(m: MetricSpec, cs) -> dict:
    """Every residual that reads neither tol nor t, from the curvature sample cs of
    the grid cs.z: predicate → (residual, scale, certificate), the verdict being "yes"
    iff residual ≤ tol·scale, and "indeterminate" for a scale of None."""
    import numpy as np
    grid = cs.z
    lp_poly, lm_poly, ce_poly = m.operator_polys
    dlogc = cs.C1d / cs.C  # (log C)′ is −1 for J⁺-Kähler and +1 for J⁻
    ce_res = _grid_max(ce_poly, grid)  # max |L⁺(L⁻F) − 1|, independent of C
    s_scale = 1.0 + float(np.max(np.abs(cs.s)))
    s0 = float(np.mean(cs.s))
    csc_res = float(np.max(np.abs(cs.s - s0)))
    g = m.g_poly
    if g is None:  # C has no termwise g: the sampled tf Ric
        einstein_res = float(np.max(np.maximum(np.abs(cs.ric0_a), np.abs(cs.ric0_b))))
    else:  # tf Ric on exact jets, ≡ 0 iff Einstein; g over its largest |coefficient|, so C's scale cannot enter
        F, g = m.f_poly(), g / Fraction(max(abs(c) for _, c in g.terms()))
        ric0 = _tf_ricci_from_jets((F, F.derive(), F.derive(2)), (g, g.derive(), g.derive(2)))
        einstein_res = float(max((abs(c) for p in ric0 for _, c in p.terms()), default=0))
    measured = {
        "kahler_plus": (float(np.max(np.abs(dlogc + 1.0))), 1.0, None),
        "kahler_minus": (float(np.max(np.abs(dlogc - 1.0))), 1.0, None),
        "conformally_extremal": (ce_res, 1.0, None),
        "csc": (csc_res, s_scale, f"s0={s0:.12g}"),
        "zsc": (max(csc_res, abs(s0)), s_scale, None),
        "einstein": (einstein_res, 1.0, f"einstein constant s/4 = {s0 / 4.0:.12g}"),
        # B1 ∝ F·(L⁺L⁻F − 1) and B2 ∝ B(F,F), whose derivative is 2F′(L⁺L⁻F − 1),
        # so B ≡ 0 iff L⁺L⁻F ≡ 1 and B(F,F) vanishes at z = 0
        "bach_flat": (max(ce_res, float(abs(m.bach_at_zero))), 1.0, None),
        "sd": (_grid_max(lm_poly, grid), 1.0, None),  # W⁻ = 0
        "asd": (_grid_max(lp_poly, grid), 1.0, None),  # W⁺ = 0
    }
    # half harmonic: P± constant on the grid (or the Weyl half vanishes)
    for name, wz_poly, pot in (
        ("half_harmonic_plus", lp_poly, cs.delW_plus_pot),
        ("half_harmonic_minus", lm_poly, cs.delW_minus_pot),
    ):
        if wz_poly.is_zero:
            measured[name] = (0.0, 1.0, "weyl-half-zero")
        else:
            measured[name] = (float(np.max(pot) - np.min(pot)), float(np.max(np.abs(pot))), None)
    # hyperKähler shape tests: the first-order system and its mirror
    f_positive = not np.any(cs.F <= 0.0)
    for name, orient in (("hyperkahler_Iminus", -1), ("hyperkahler_Iplus", +1)):
        if not f_positive:
            measured[name] = (math.inf, None, "F not positive on grid")
            continue
        sqrt_f = np.sqrt(cs.F)
        # I⁻:  F′/(2√F) = √F − 1   and  (log C)′ = −1 + 2/√F ; I⁺ mirrors signs.
        r1 = cs.F1d / (2.0 * sqrt_f) + orient * (sqrt_f - 1.0)
        r2 = dlogc - orient * (1.0 - 2.0 / sqrt_f)
        measured[name] = (float(max(np.max(np.abs(r1)), np.max(np.abs(r2)))), 1.0, None)
    return measured


# --------------------------------------------------------------------- classify
def classify(m: MetricSpec, tol: float = 1e-9, t: Optional[float] = None) -> ClassificationReport:
    """Evaluate the full predicate taxonomy on a metric.

    sd, asd, conformally_extremal and bach_flat depend on F alone and are
    exact for every F and C, from F's operators (bach_flat ⇔ L⁺L⁻F ≡ 1 and
    B(F,F) = 0 at z = 0); einstein is exact for every F where ``m.g_poly`` is
    an ExpPoly, from the trace-free Ricci tensor on exact jets, and reads the
    sampled one elsewhere; Kähler reads the sampled (log C)′, exactly ∓1 for
    C = C0·e^{∓z}.  Every
    predicate is "indeterminate" when F, C's numerator or C's
    denominator has an exact zero inside the domain (a zero at an end is a
    bolt or nut), when one of them is past ``real_roots``' degree bound, or
    when the curvature sample of the grid raises (its reason names the z).
    A ``tol`` that is not positive and finite or a non-finite ``t`` raises
    ValueError.

    The measurement runs once per spec, on ``sample_grid(m.domain)``: the zero
    test, one ``curvature_sample(m, grid)`` call and every residual but
    bt_flat's, none of which reads ``tol`` or ``t``.  It is kept on the spec,
    so a later call at any ``tol`` only decides the verdicts, and one with
    ``t`` adds the one ``bt_grid_residual`` of the kept sample.  A new
    ``MetricSpec(m.name, m.F, m.C, m.domain)`` measures anew.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if t is not None and not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    report = ClassificationReport(metric_name=m.name, tol=tol)

    def put(name, verdict, residual, certificate=None):
        report.entries[name] = PredicateResult(name, verdict, float(residual), certificate)

    kept = m._grid_sample
    if kept is None:
        lo, hi = m.domain.lo, m.domain.hi
        num, den = m.c_ratio
        try:
            for label, carrier in (("F", m.f_poly()), ("C's numerator", num), ("C's denominator", den)):
                inside = [z for z, _ in carrier.real_roots(lo, hi) if lo < z < hi]
                if inside:
                    raise ValueError(f"{label} vanishes at z={inside[0]:.6g} inside the domain")
            cs = curvature_sample(m, sample_grid(m.domain))
        except (ArithmeticError, ValueError) as exc:
            kept = str(exc)  # not the exception: its traceback would keep this call's frames alive
        else:
            kept = (cs, _measure(m, cs))
        object.__setattr__(m, "_grid_sample", kept)  # the spec's one mutable slot
    if isinstance(kept, str):
        for name in PREDICATES:
            if name == "bt_flat" and t is None:
                continue
            put(name, "indeterminate", math.inf, kept)
        return report
    cs, measured = kept

    def put_measured(name) -> bool:
        residual, scale, certificate = measured[name]
        verdict = "indeterminate" if scale is None else "yes" if residual <= tol * scale else "no"
        put(name, verdict, residual, certificate)
        return verdict == "yes"

    not_kahler_res = min(measured["kahler_plus"][0], measured["kahler_minus"][0])
    kahler_plus, kahler_minus = put_measured("kahler_plus"), put_measured("kahler_minus")
    kahler = kahler_plus or kahler_minus
    extremal = put_measured("conformally_extremal")
    if kahler:
        put("extremal", "yes" if extremal else "no", measured["conformally_extremal"][0])
    else:
        put("extremal", "no", not_kahler_res, "not Kähler for either orientation")
    put_measured("csc")
    zsc = put_measured("zsc")
    einstein = put_measured("einstein")
    einstein_res, zsc_res = measured["einstein"][0], measured["zsc"][0]
    put("kahler_einstein", "yes" if einstein and kahler else "no", max(einstein_res, 0.0 if kahler else not_kahler_res))
    put("ricci_flat", "yes" if einstein and zsc else "no", max(einstein_res, zsc_res))
    for name in ("bach_flat", "sd", "asd"):
        put_measured(name)
    hh_plus, hh_minus = put_measured("half_harmonic_plus"), put_measured("half_harmonic_minus")
    hh_res = max(measured["half_harmonic_plus"][0], measured["half_harmonic_minus"][0])
    put("harmonic", "yes" if hh_plus and hh_minus else "no", hh_res)
    put_measured("hyperkahler_Iminus")
    put_measured("hyperkahler_Iplus")

    # --- B^t flatness (delegated residuals), only when t is supplied
    if t is not None:
        try:
            bt_res = bt_grid_residual(cs, t)
            put("bt_flat", "yes" if bt_res <= tol else "no", bt_res, f"t={t:g}")
        except (ArithmeticError, ValueError) as exc:
            put("bt_flat", "indeterminate", math.inf, str(exc))

    return report
