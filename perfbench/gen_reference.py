"""Generate perfbench/data/reference.json: end distances by mpmath quadrature.

For every catalog entry at default parameters and both ends, the distance
∫ ½√(C/F) dz from the midpoint of the entry's finite window to the end is
computed at 30 digits from the exact carriers (the float coefficients are
taken as exact rationals).  Finite ends are integrated after the substitution
z = z_end ± u², which removes the square-root singularity at a bolt; ends
whose local integrand exponent is ≤ −1, or whose integrand does not decay at
infinity, are recorded as infinite.

Because the float coefficients leave F(z_end) at about 1e-16 instead of 0 at
a bolt, a bolt-end distance is only defined to about 1e-8.

mpmath is a reference-only dependency; the benchmark itself reads the JSON.
Run from the repository root:

    python3 perfbench/gen_reference.py
"""
from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from u2metrics.catalog import catalog_get, catalog_names  # noqa: E402
from u2metrics.profiles import factor_ratio  # noqa: E402

OUT = os.path.join(HERE, "data", "reference.json")

# Values quoted independently (tanh-sinh and substituted Gauss-Legendre);
# the generator refuses to write a file that disagrees with them.
QUOTED = {
    ("hirzebruch", "lower"): 0.938023005836548,
    ("hirzebruch", "upper"): 0.683529062071509,
    ("page", "lower"): 0.666503289716498,
    ("page", "upper"): 0.666503289716498,
}


def _mp_poly(poly):
    terms = [(mp.mpf(Fraction(k).numerator) / Fraction(k).denominator, _mpf(c)) for k, c in poly.terms()]
    return lambda z: mp.fsum(c * mp.exp(k * z) for k, c in terms)


def _mpf(c):
    c = Fraction(c)
    return mp.mpf(c.numerator) / c.denominator


def reference_distance(m, side: str) -> float:
    F = _mp_poly(m.f_poly())
    num, den = (_mp_poly(p) for p in factor_ratio(m.C))

    def f(z):
        fv = F(z)
        cv = num(z) / den(z)
        if fv <= 0 or cv <= 0:
            return mp.mpf(0)  # only within float rounding of a bolt endpoint
        return mp.sqrt(cv / fv) / 2

    w_lo, w_hi = m.domain.finite_window()
    z_ref = mp.mpf(0.5 * (w_lo + w_hi))
    z_end = m.domain.lo if side == "lower" else m.domain.hi
    inward = 1 if side == "lower" else -1

    if math.isinf(z_end):
        far = -inward * 60
        if f(mp.mpf(far)) >= f(mp.mpf(far * 2 / 3)) * mp.mpf("1e-3"):
            return math.inf
        a, b = (mp.mpf(z_end), z_ref) if side == "lower" else (z_ref, mp.mpf(z_end))
        return float(mp.quad(f, [a, b]))

    z_end = mp.mpf(z_end)
    e1, e2 = mp.mpf("1e-5"), mp.mpf("1e-7")
    p = mp.log(f(z_end + inward * e1) / f(z_end + inward * e2)) / mp.log(e1 / e2)
    if p <= -1 + mp.mpf("1e-3"):
        return math.inf
    span = mp.sqrt(abs(z_ref - z_end))
    return float(mp.quad(lambda u: 2 * u * f(z_end + inward * u * u), [0, span / 2, span]))


def main() -> int:
    mp.mp.dps = 30
    out = {}
    for name in catalog_names():
        m = catalog_get(name)
        for side in ("lower", "upper"):
            d = reference_distance(m, side)
            out[f"{name}/{side}"] = d if math.isfinite(d) else "inf"
            print(f"{name:22s} {side:5s} {d!r}", flush=True)
    for (name, side), want in QUOTED.items():
        got = out[f"{name}/{side}"]
        if abs(got - want) > 1e-9 * want:
            print(f"refusing to write: {name}/{side} = {got!r}, quoted {want!r}", file=sys.stderr)
            return 1
    doc = {
        "description": "end distances from the finite-window midpoint, mpmath quad at 30 digits; "
        "bolt ends are defined to about 1e-8",
        "distance": out,
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
