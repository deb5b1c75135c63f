"""Answers that must not depend on the chart.

Three maps give the same Riemannian metric in another chart: the mirror
z → −z (which reverses the orientation, so the ± predicates swap), a
homothety C → λC (distances scale by √λ) and a translation z → z + 2 log r.
Every factor below is a power of 2, so the mapped coefficients are exact,
floats included.  Each of the 18 catalog entries is mapped seven ways and
its verdicts, bolts, ends and distances are compared with the entry's own.
The verdicts that move are pinned, as ``TestImplications`` pins its broken
implications: a new breakage fails here, and so does a mended one.
"""
import math
from fractions import Fraction

import pytest

from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.classify import classify
from u2metrics.exppoly import ExpPoly
from u2metrics.geometry import classify_end, distance, find_bolts
from u2metrics.profiles import Domain, EinsteinFactor, ExpFactor, MetricSpec

# the predicates that the mirror swaps; every other one it keeps
SWAP = {}
for _p, _q in [("kahler_plus", "kahler_minus"), ("sd", "asd"), ("half_harmonic_plus", "half_harmonic_minus"),
               ("hyperkahler_Iminus", "hyperkahler_Iplus")]:
    SWAP[_p], SWAP[_q] = _q, _p


def _terms(p: ExpPoly, coefficient, sign: int = 1) -> ExpPoly:
    """Σ coefficient(k, c)·e^{sign·k·z} over p's terms c·e^{kz}."""
    return ExpPoly([(sign * k, coefficient(k, c)) for k, c in p.terms()])


def mirror(m: MetricSpec) -> MetricSpec:
    """z → −z: F(−z), C(−z) and the domain (−hi, −lo) with its flags swapped."""
    C = m.C  # the catalog's C is Exp or Einstein
    C = ExpFactor(C.c0, -C.eps) if isinstance(C, ExpFactor) else EinsteinFactor(C.c6, C.c5)
    d = m.domain
    domain = Domain(-d.hi, -d.lo, d.hi_closed, d.lo_closed)
    return MetricSpec(m.name + "/mirror", _terms(m.F, lambda k, c: c, -1), C, domain)


def homothety(m: MetricSpec, lam: Fraction) -> MetricSpec:
    """C → λC: an Einstein C's (C5, C6) divided by √λ."""
    C = m.C
    if isinstance(C, ExpFactor):
        C = ExpFactor(C.c0 * lam, C.eps)
    else:
        root = Fraction(math.isqrt(lam.numerator), math.isqrt(lam.denominator))
        C = EinsteinFactor(C.c5 / root, C.c6 / root)
    return MetricSpec(f"{m.name}/lambda={lam}", m.F, C, m.domain)


def translation(m: MetricSpec, r: Fraction) -> MetricSpec:
    """z → z + 2 log r: each term c·e^{kz} becomes c·r^{2k}·e^{kz}, and the
    domain moves by −2 log r."""
    C = m.C
    C = ExpFactor(C.c0 * r ** (2 * C.eps), C.eps) if isinstance(C, ExpFactor) else EinsteinFactor(r * C.c5, C.c6 / r)
    shift = 2.0 * math.log(r)
    d = m.domain
    domain = Domain(d.lo - shift, d.hi - shift, d.lo_closed, d.hi_closed)
    return MetricSpec(f"{m.name}/r={r}", _terms(m.F, lambda k, c: c * r ** (2 * k)), C, domain)


# label → (the spec map, where a point z of the entry's chart lies in the mapped chart,
# the factor a distance is multiplied by)
MAPS = {"mirror": (mirror, lambda z: -z, 1.0)}
for _lam in (Fraction(1, 256), Fraction(4), Fraction(256), Fraction(65536)):
    MAPS[f"lambda={_lam}"] = (lambda m, lam=_lam: homothety(m, lam), lambda z: z, math.sqrt(_lam))
for _r in (Fraction(2), Fraction(1, 2)):
    MAPS[f"r={_r}"] = (lambda m, r=_r: translation(m, r), lambda z, shift=2.0 * math.log(_r): z - shift, 1.0)


@pytest.fixture(scope="module")
def specs() -> dict:
    """name → (the entry, {map label: the mapped spec})."""
    out = {}
    for name in catalog_names():
        m = catalog_get(name)
        out[name] = (m, {label: spec_map(m) for label, (spec_map, _, _) in MAPS.items()})
    return out


SUPER = ("super-taub-nut", "super-eguchi-hanson")
RICCI = ("csc", "zsc", "ricci_flat")


class TestVerdicts:
    # Every move is a grid residual crossing tol.  super-taub-nut, super-eguchi-hanson and
    # taub-nut-lambda have s ≡ 0 exactly (ROADMAP item 1a), and their grid csc, zsc and
    # ricci_flat residuals scale like 1/λ and move with the translation: super-taub-nut's
    # reads 4.5e-10 as it is, 1.2e-7 at λ = 1/256 and 6.1e-8 at r = 2; taub-nut-lambda's
    # 1.5e-5 falls to 2.2e-10 only at λ = 65536.  At t = 1 both super-* entries are
    # B^t-flat (ROADMAP item 2), which the grid sees only at λ = 65536.
    BROKEN = {
        *((name, "lambda=1/256", t, p) for name in SUPER for t in (None, 1.0) for p in RICCI),
        *(("taub-nut-lambda", "lambda=65536", t, p) for t in (None, 1.0) for p in RICCI),
        *((name, "lambda=65536", 1.0, "bt_flat") for name in SUPER),
        *(("super-taub-nut", "r=2", t, p) for t in (None, 1.0) for p in RICCI),
        *(("super-eguchi-hanson", "r=1/2", t, p) for t in (None, 1.0) for p in RICCI),
    }

    def test_moved_verdicts_are_the_known_ones(self, specs):
        moved, indeterminate = set(), 0
        for name, (m, images) in specs.items():
            for t in (None, 1.0):
                own = classify(m, t=t)
                for label, image in images.items():
                    rep = classify(image, t=t)
                    swap = SWAP if label == "mirror" else {}
                    assert set(rep.entries) == set(own.entries)
                    for p in own.entries:
                        verdicts = (own.verdict(swap.get(p, p)), rep.verdict(p))
                        indeterminate += "indeterminate" in verdicts
                        if verdicts[0] != verdicts[1]:
                            moved.add((name, label, t, p))
        assert len(self.BROKEN) == 32
        assert moved == self.BROKEN
        assert indeterminate == 0  # an indeterminate verdict would hide a move


class TestGeometry:
    def test_bolts_move_with_the_chart(self, specs):
        # the mirror reverses the bolts and negates each slope, so each self-intersection
        for name, (m, images) in specs.items():
            own = find_bolts(m)
            for label, image in images.items():
                got, to = find_bolts(image), MAPS[label][1]
                sign = -1 if label == "mirror" else 1
                want = own[::sign]
                assert len(got) == len(want), (name, label)
                for b, a in zip(got, want):
                    assert b.z0 == pytest.approx(to(a.z0), rel=1e-12, abs=1e-12), (name, label)
                    assert b.slope == pytest.approx(sign * a.slope, rel=1e-12, abs=1e-12), (name, label)
                    assert (b.smooth_quotient, b.degenerate) == (a.smooth_quotient, a.degenerate), (name, label)
                    assert b.self_intersection == (None if a.self_intersection is None
                                                   else sign * a.self_intersection), (name, label)

    def test_ends_move_with_the_chart(self, specs):
        # the mirror swaps the sides and negates the self-intersection; distance_to_end is
        # not compared: it is measured from the finite window's midpoint, which a
        # translation of (−∞, ∞) does not map
        for name, (m, images) in specs.items():
            for label, image in images.items():
                mirrored = label == "mirror"
                for side in ("lower", "upper"):
                    a = classify_end(m, side)
                    b = classify_end(image, {"lower": "upper", "upper": "lower"}[side] if mirrored else side)
                    si = a.self_intersection
                    if mirrored and si is not None:
                        si = -si
                    assert (b.kind, b.complete, b.self_intersection) == (a.kind, a.complete, si), (name, label, side)

    def test_distances_scale_by_the_square_root_of_lambda(self, specs):
        count = 0
        for name, (m, images) in specs.items():
            lo, hi = m.domain.finite_window()
            z1, z2 = lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)
            want = distance(m, z1, z2)
            assert 0.0 < want < math.inf, name
            for label, image in images.items():
                _, to, factor = MAPS[label]
                got = distance(image, to(z1), to(z2)) / factor
                assert abs(got - want) <= 1e-12 * want, (name, label, got, want)
                count += 1
        assert count == 126
