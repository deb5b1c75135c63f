"""Residual-based classification of canonical metrics.

Each predicate of the summary taxonomy (Kähler, extremal, CSC/ZSC, Einstein,
Bach-flat, half-conformally-flat, half-harmonic, harmonic, hyperKähler,
conformally extremal, B^t-flat) is evaluated either from an exact certificate
or as a maximum grid residual of its defining equation; ``classify`` says
which.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

from .btflat import bt_grid_residual
from .curvature import curvature_sample
from .profiles import Domain, MetricSpec

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PredicateResult",
    "ClassificationReport",
    "classify",
    "conformally_extremal_residual",
    "sample_grid",
    "PREDICATES",
]

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


@dataclass(frozen=True)
class PredicateResult:
    name: str
    verdict: str  # "yes" | "no" | "indeterminate"
    residual: float
    certificate: Optional[str] = None


@dataclass
class ClassificationReport:
    metric_name: str
    tol: float
    grid_n: int  # the n requested of sample_grid, not the count of points it gave
    entries: dict = field(default_factory=dict)

    def verdict(self, name: str) -> str:
        return self.entries[name].verdict

    def residual(self, name: str) -> float:
        return self.entries[name].residual

    def tags(self) -> tuple:
        return tuple(n for n in PREDICATES if n in self.entries and self.entries[n].verdict == "yes")

    def text(self) -> str:
        lines = [f"metric {self.metric_name}", f"tol {self.tol:g}", f"grid_n {self.grid_n}"]
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
            "grid_n": self.grid_n,
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
def sample_grid(domain: Domain, n: int = 64) -> np.ndarray:
    """Interior sample points, geometrically clustered toward both ends:
    2·(n // 2) − 1 of them for n ≥ 4 (the two halves share the midpoint)
    and 2 for n = 2 or 3.

    The sampled window is the domain itself when finite (shrunk 1% from each
    endpoint) and a finite sub-window when unbounded.  Raises ``ValueError``
    for an n that is not an int (a bool is not) of at least 2.  The grid
    depends on ``(domain, n)`` alone and is built once for each recent pair
    (the cache is typed); the array returned is shared, so it is read-only.
    """
    import numpy as np
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ValueError(f"a sample grid needs an int n >= 2, got n={n!r}")
    lo, hi = domain.finite_window()
    length = hi - lo
    pad = 0.01 * length
    half = n // 2
    offsets = np.geomspace(pad, 0.5 * length, half)
    points = np.sort(np.concatenate([lo + offsets, hi - offsets]))
    # drop equal neighbours, as np.unique would (which imports numpy.ma)
    points = points[np.concatenate(([True], points[1:] != points[:-1]))]
    points.flags.writeable = False
    return points


def _grid_max(p, grid) -> float:
    """max |p| over the grid for an ExpPoly p, 0.0 when p ≡ 0."""
    import numpy as np
    return 0.0 if p.is_zero else float(np.max(np.abs(p.eval(np.asarray(grid, dtype=float)))))


def conformally_extremal_residual(m: MetricSpec, grid: Sequence[float]) -> float:
    """max over grid of |L⁺(L⁻(F)) − 1| (conformal-factor independent)."""
    return _grid_max(m.operator_polys[2], grid)


# --------------------------------------------------------------------- classify
def classify(
    m: MetricSpec,
    tol: float = 1e-9,
    grid_n: int = 64,
    t: Optional[float] = None,
    use_exact: bool = True,
) -> ClassificationReport:
    """Evaluate the full predicate taxonomy on a metric.

    sd, asd, conformally_extremal and bach_flat depend on F alone and are
    exact for every F and C, from F's operators (bach_flat ⇔ L⁺L⁻F ≡ 1 and
    B(F,F) = 0 at z = 0); einstein is exact from (C5, C6) on the canonical
    family; Kähler reads the sampled (log C)′, exactly ∓1 for C = C0·e^{∓z}.
    ``use_exact=False`` reads bach_flat and einstein from the sampled
    tensors instead (used to cross-validate the two paths).  Every predicate is "indeterminate" when F, C's numerator or C's
    denominator has an exact zero inside the domain (a zero at an end is a
    bolt or nut), or when the curvature sample of the grid raises (its
    reason names the z). A ``tol`` that is not positive and finite, a non-finite ``t``
    or a ``grid_n`` that is not an int of at least 2 raises ValueError.

    The zero test and the one ``curvature_sample(m, grid)`` call run once per
    (spec, grid_n); what they give is kept on the spec for every later call at
    any ``t``, ``tol`` or ``use_exact``.  ``dataclasses.replace`` makes a spec
    that samples anew.
    """
    import numpy as np
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if t is not None and not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if isinstance(grid_n, bool) or not isinstance(grid_n, int) or grid_n < 2:
        raise ValueError(f"grid_n must be an int >= 2, got grid_n={grid_n!r}")
    report = ClassificationReport(metric_name=m.name, tol=tol, grid_n=grid_n)
    grid = sample_grid(m.domain, grid_n)

    def put(name, verdict, residual, certificate=None):
        report.entries[name] = PredicateResult(name, verdict, float(residual), certificate)

    # one curvature sample of the whole grid, kept on the spec: every pointwise quantity below reads it
    cs = m._grid_samples.get(grid_n)
    if cs is None:
        lo, hi = m.domain.lo, m.domain.hi
        num, den = m.c_ratio
        try:
            for label, carrier in (("F", m.f_poly()), ("C's numerator", num), ("C's denominator", den)):
                inside = [z for z, _ in carrier.real_roots(lo, hi) if lo < z < hi]
                if inside:
                    raise ValueError(f"{label} vanishes at z={inside[0]:.6g} inside the domain")
            cs = curvature_sample(m, grid)
        except (ArithmeticError, ValueError) as exc:
            cs = str(exc)  # not the exception: its traceback would keep this call's frames alive
        m._grid_samples[grid_n] = cs
    if isinstance(cs, str):
        for name in PREDICATES:
            if name == "bt_flat" and t is None:
                continue
            put(name, "indeterminate", math.inf, cs)
        return report

    def verdict_of(residual, scale=1.0):
        return "yes" if residual <= tol * scale else "no"

    # --- Kähler orientations: (log C)' must equal −1 (J⁺) or +1 (J⁻).
    dlogc = cs.C1d / cs.C
    kp_res = float(np.max(np.abs(dlogc + 1.0)))
    km_res = float(np.max(np.abs(dlogc - 1.0)))
    put("kahler_plus", verdict_of(kp_res), kp_res)
    put("kahler_minus", verdict_of(km_res), km_res)
    kahler = report.verdict("kahler_plus") == "yes" or report.verdict("kahler_minus") == "yes"

    # --- conformally extremal / extremal
    ce_res = conformally_extremal_residual(m, grid)
    put("conformally_extremal", verdict_of(ce_res), ce_res)
    if kahler:
        put("extremal", verdict_of(ce_res), ce_res)
    else:
        put("extremal", "no", min(kp_res, km_res), "not Kähler for either orientation")

    s_arr = cs.s
    s_scale = 1.0 + float(np.max(np.abs(s_arr)))
    s0 = float(np.mean(s_arr))
    csc_res = float(np.max(np.abs(s_arr - s0)))
    put("csc", verdict_of(csc_res, s_scale), csc_res, f"s0={s0:.12g}")
    zsc_res = max(csc_res, abs(s0))
    put("zsc", verdict_of(zsc_res, s_scale), zsc_res)

    einstein_res = m.einstein_certificate if use_exact else None
    if einstein_res is None:
        einstein_res = float(np.max(np.maximum(np.abs(cs.ric0_a), np.abs(cs.ric0_b))))
    einstein_cert = f"einstein constant s/4 = {s0 / 4.0:.12g}"
    put("einstein", verdict_of(einstein_res), einstein_res, einstein_cert)
    einstein_yes = report.verdict("einstein") == "yes"

    put(
        "kahler_einstein",
        "yes" if (einstein_yes and kahler) else "no",
        max(einstein_res, 0.0 if kahler else min(kp_res, km_res)),
    )
    rf_res = max(einstein_res, zsc_res)
    put("ricci_flat", "yes" if (einstein_yes and report.verdict("zsc") == "yes") else "no", rf_res)

    # --- Bach flat: B1 ∝ F·(L⁺L⁻F − 1) and B2 ∝ B(F,F), whose derivative is
    # 2F′(L⁺L⁻F − 1), so B ≡ 0 iff L⁺L⁻F ≡ 1 and B(F,F) vanishes at z = 0
    if use_exact:
        bach_res = max(ce_res, float(abs(m.bach_at_zero)))
    else:
        bach_res = float(np.max(np.maximum(np.abs(cs.bach_B1), np.abs(cs.bach_B2))))
    put("bach_flat", verdict_of(bach_res), bach_res)

    # --- half-conformally-flat (sd: W⁻ = 0, asd: W⁺ = 0)
    lp_poly, lm_poly, _ = m.operator_polys
    sd_res = _grid_max(lm_poly, grid)
    asd_res = _grid_max(lp_poly, grid)
    put("sd", verdict_of(sd_res), sd_res)
    put("asd", verdict_of(asd_res), asd_res)

    # --- half harmonic: P± constant on the grid (or the Weyl half vanishes)
    for name, wz_poly, pot in (
        ("half_harmonic_plus", lp_poly, cs.delW_plus_pot),
        ("half_harmonic_minus", lm_poly, cs.delW_minus_pot),
    ):
        if wz_poly.is_zero:
            put(name, "yes", 0.0, "weyl-half-zero")
        else:
            scale = 1.0 + float(np.max(np.abs(pot)))
            res = float(np.max(pot) - np.min(pot))
            put(name, verdict_of(res, scale), res)
    hh_res = max(report.residual("half_harmonic_plus"), report.residual("half_harmonic_minus"))
    put(
        "harmonic",
        "yes"
        if report.verdict("half_harmonic_plus") == "yes" and report.verdict("half_harmonic_minus") == "yes"
        else "no",
        hh_res,
    )

    # --- hyperKähler shape tests: the first-order system and its mirror
    f_positive = not np.any(cs.F <= 0.0)
    for name, orient in (("hyperkahler_Iminus", -1), ("hyperkahler_Iplus", +1)):
        if not f_positive:
            put(name, "indeterminate", math.inf, "F not positive on grid")
            continue
        sqrt_f = np.sqrt(cs.F)
        # I⁻:  F′/(2√F) = √F − 1   and  (log C)′ = −1 + 2/√F ; I⁺ mirrors signs.
        r1 = cs.F1d / (2.0 * sqrt_f) + orient * (sqrt_f - 1.0)
        r2 = dlogc - orient * (1.0 - 2.0 / sqrt_f)
        worst = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
        put(name, verdict_of(worst), worst)

    # --- B^t flatness (delegated residuals), only when t is supplied
    if t is not None:
        try:
            bt_res = bt_grid_residual(cs, t)
            put("bt_flat", verdict_of(bt_res, s_scale), bt_res, f"t={t:g}")
        except (ArithmeticError, ValueError) as exc:
            put("bt_flat", "indeterminate", math.inf, str(exc))

    return report
