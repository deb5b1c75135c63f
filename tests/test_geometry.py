"""Bolts, ends, distances, the conformal-pair transform, and transcription."""
import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2metrics import geometry
from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.exppoly import ExpPoly
from u2metrics.geometry import (
    OrientationError,
    ambikahler_transform,
    classify_end,
    distance,
    find_bolts,
    transcribe_classic,
)
from u2metrics.classify import classify
from u2metrics.curvature import ricci_form_kahler, scalar_curvature
from u2metrics.metricfile import emit_metric, parse_metric
from u2metrics.numerics import adaptive_quad
from u2metrics.profiles import (
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
    NotKahlerError,
    OutOfDomainError,
    RatioFactor,
    SingularConformalFactorError,
    canonical,
    canonical_coefficients,
    conformal_value,
)


def _crossing_spec():
    """F = 1 − 0.001·e^z on (−1, ∞): one simple zero, at ln 1000, slope −1."""
    return MetricSpec("s", canonical(0, 0, -0.001, 0), ExpFactor(1.0, -1), Domain(-1.0, math.inf))


class TestFindBolts:
    def test_eguchi_hanson_bolt(self):
        m = catalog_get("eguchi-hanson", {"m": 1.0})
        bolts = find_bolts(m)
        assert len(bolts) == 1
        b = bolts[0]
        # F = 1 - e^{-2(z - z0)} style zero with slope exactly 2
        assert m.f_poly().eval(b.z0) == pytest.approx(0.0, abs=1e-12)
        assert b.slope == pytest.approx(2.0, abs=1e-10)
        assert b.self_intersection == 2

    def test_taub_bolt_endpoint_bolt(self):
        m = catalog_get("taub-bolt", {"m": 1.0})
        bolts = find_bolts(m)
        assert len(bolts) == 1
        assert bolts[0].z0 == pytest.approx(-math.log(3.0), abs=1e-10)
        assert abs(bolts[0].self_intersection) == 1

    def test_open_endpoint_zero_ignored(self):
        # same profile, but with the F-zero at an open endpoint
        m = catalog_get("taub-bolt", {"m": 1.0})
        opened = MetricSpec(
            "open", m.F, m.C, Domain(m.domain.lo, m.domain.hi, lo_closed=False)
        )
        assert find_bolts(opened) == []

    def test_no_bolts_on_taub_nut(self):
        assert find_bolts(catalog_get("taub-nut", {"m": 1.0})) == []

    def test_two_bolts_of_hirzebruch(self):
        m = catalog_get("hirzebruch", {"k": 2, "z0": 1.0})
        slopes = sorted(b.slope for b in find_bolts(m))
        assert slopes == pytest.approx([-2.0, 2.0], abs=1e-9)

    def test_simple_zero_is_exact(self):
        bolts = find_bolts(_crossing_spec())
        assert len(bolts) == 1
        assert type(bolts[0].z0) is float
        assert abs(bolts[0].z0 - math.log(1000.0)) <= 1e-12
        assert bolts[0].self_intersection == -1

    @pytest.mark.parametrize("slope,integer", [
        (2.0, 2), (1.0 + 5e-10, 1), (3.0 - 2e-9, None), (1.5, None), (4e-10, None),
    ])
    def test_one_integer_slope_rule(self, slope, integer):
        # find_bolts' smooth flag, Bolt.self_intersection and classify_end's
        # bolt/conical split read one rule; F = slope·(1 − e^{−z}) on [0, 1]
        f = ExpPoly([(0, slope), (-1, -slope)])
        m = MetricSpec("k", f, ExpFactor(1.0, -1), Domain(0.0, 1.0, lo_closed=True))
        (bolt,) = find_bolts(m)
        assert bolt.slope == slope
        assert bolt.smooth_quotient == (integer is not None) and bolt.self_intersection == integer
        end = classify_end(m, "lower")
        assert end.kind == ("bolt" if integer else "conical") and end.self_intersection == integer

    def test_slopes_are_the_derivative_without_building_it(self, monkeypatch):
        # each slope is F's 1-jet at the root, derive().eval(z0) bit for bit
        specs = [catalog_get(name) for name in catalog_names()]
        want = [[m.f_poly().derive().eval(b.z0).hex() for b in find_bolts(m)] for m in specs]
        calls = []
        real = ExpPoly.derive
        monkeypatch.setattr(ExpPoly, "derive", lambda self, order=1: calls.append(order) or real(self, order))
        got = [[b.slope.hex() for b in find_bolts(m)] for m in specs]
        assert got == want and sum(map(len, got)) == 13
        assert calls == []

    def test_double_zero_is_degenerate(self):
        # F = (1 − e^{-z})² on a domain closed at its double zero z = 0
        m = MetricSpec("d", canonical(2, -2, 0, 0), ExpFactor(1.0, -1), Domain(0.0, 1.0, lo_closed=True))
        (bolt,) = find_bolts(m)
        assert bolt.z0 == 0.0 and bolt.degenerate and bolt.self_intersection is None


class TestDistance:
    @pytest.mark.parametrize("name, z1, z2, bad", [
        ("modified-taub-bolt-1", -3.0, -0.5, -3.0),  # before: "√(C/F) undefined at z=-2.99…"
        ("modified-taub-bolt-1", -0.5, 0.5, 0.5),
        ("taub-nut", -5.0, 1.0, -5.0),
        ("taub-nut", 1.0, math.nan, math.nan),
    ])
    def test_endpoint_outside_the_domain_closure_raises(self, name, z1, z2, bad):
        m = catalog_get(name)
        with pytest.raises(OutOfDomainError, match=rf"^z={bad} outside domain"):
            distance(m, z1, z2)

    def test_ends_of_the_closure_are_accepted(self):
        # an open end and an infinite end are in the closure: classify_end passes both
        m = catalog_get("taub-nut")
        assert distance(m, 0.0, 1.0) > 0.0
        assert math.isfinite(distance(m, 1.0, math.inf))

    def test_flat_distance_to_infinity_is_one(self):
        m = catalog_get("flat")
        assert distance(m, 0.0, math.inf) == pytest.approx(1.0, abs=1e-9)

    def test_additivity(self):
        m = catalog_get("taub-nut", {"m": 1.0})
        d_ac = distance(m, 0.5, 3.0)
        d_ab = distance(m, 0.5, 1.2)
        d_bc = distance(m, 1.2, 3.0)
        assert d_ac == pytest.approx(d_ab + d_bc, abs=1e-9)

    def test_infinite_cusp_distance(self):
        m = catalog_get("modified-taub-nut-1", {"C0": 1.0})
        # double zero of F at the lower end: infinitely far away
        assert distance(m, m.domain.lo, 1.0) == math.inf

    def test_symmetric_in_argument_order(self):
        m = catalog_get("taub-nut", {"m": 1.0})
        assert distance(m, 0.5, 2.0) == pytest.approx(distance(m, 2.0, 0.5), abs=1e-12)

    def test_one_quadrature_per_finite_distance(self, monkeypatch):
        # both halves of the finite interval go through one call at tol 1e-11
        tols = []

        def counted(f, a, b, tol=1e-10):
            tols.append(tol)
            return adaptive_quad(f, a, b, tol=tol)

        monkeypatch.setattr(geometry, "adaptive_quad", counted)
        for name in catalog_names():
            m = catalog_get(name)
            for side in ("lower", "upper"):
                tols.clear()
                got = _end_distance(m, side)
                assert tols == ([1e-11] if math.isfinite(got) else []), (name, side)

    @pytest.mark.parametrize("c2, c3, bad_side", [(0, -0.001, "upper"), (-0.001, 0, "lower")])
    def test_undefined_next_to_either_end_names_a_z_on_that_side(self, c2, c3, bad_side):
        # F = 1 − 0.001·e^{±z} is negative past z = ±ln 1000, inside the upper or the lower half
        m = MetricSpec("s", canonical(0, c2, c3, 0), ExpFactor(1.0, -1), Domain(-20.0, 20.0))
        with pytest.raises(SingularConformalFactorError, match=r"^√\(C/F\) undefined at z=") as err:
            distance(m, -10.0, 10.0)
        z = float(str(err.value).rsplit("=", 1)[1])
        assert (z > math.log(1000.0)) if bad_side == "upper" else (z < -math.log(1000.0))


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _reference_distances() -> dict:
    """"name/side" -> mpmath end distance (or "inf"), read from the benchmark's data."""
    return json.loads((PERFBENCH / "data" / "reference.json").read_text())["distance"]


def _quoted_distances() -> dict:
    """(name, side) -> the independently quoted values in gen_reference.py,
    read with ast so that mpmath is not imported."""
    path = PERFBENCH / "gen_reference.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "QUOTED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("QUOTED not found in gen_reference.py")


def _moved(z: float, ulps: int) -> float:
    """z moved by ``ulps`` units in the last place (down when negative)."""
    for _ in range(abs(ulps)):
        z = math.nextafter(z, math.copysign(math.inf, ulps))
    return z


def _window_mid(m) -> float:
    w_lo, w_hi = m.domain.finite_window()
    return 0.5 * (w_lo + w_hi)


def _end_distance(m, side: str) -> float:
    """distance from the finite window's midpoint to the end, as classify_end
    and the references measure it."""
    z_ref = _window_mid(m)
    if side == "lower":
        return distance(m, m.domain.lo, z_ref)
    return distance(m, z_ref, m.domain.hi)


def _two_half_distance(m, z1: float, z2: float, tol: float = 1e-11) -> float:
    """distance as two quadratures at tol/2, one per half from its own end,
    each half's integrand 2u·½√(C/F)(z0 ± u²) with its end's F(z0) subtracted
    at a zero of F: the sum that distance's one quadrature replaces."""
    poly, (num, den) = m.f_poly(), m.c_ratio

    def h(z, f_base=0.0):
        return 0.5 * np.sqrt(conformal_value(m, z) / (poly.eval(z) - f_base))

    total, lo, hi = 0.0, z1, z2
    for sgn in (1, -1):  # an infinite end's exponential tail past its cut
        end, other = (hi, lo) if sgn > 0 else (lo, hi)
        if math.isinf(end):
            rate = 0.5 * (geometry._growth(num, sgn) - geometry._growth(den, sgn) - geometry._growth(poly, sgn))
            if rate >= 0.0:
                return math.inf
            cut = sgn * max(sgn * other + 1.0, 60.0)
            total += float(h(cut)) / -rate
            lo, hi = (lo, cut) if sgn > 0 else (cut, hi)
    u_mid = math.sqrt(0.5 * (hi - lo))
    for z0, s in ((lo, 1.0), (hi, -1.0)):
        of, on, od = (geometry._zero_order(p, z0) for p in (poly, num, den))
        if on - od - of <= -2:
            return math.inf
        f_base = poly.eval(z0) if of else 0.0
        total += adaptive_quad(lambda u: 2.0 * u * h(z0 + s * u * u, f_base), 0.0, u_mid, tol=0.5 * tol)
    return total


class TestEndDistances:
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("name", catalog_names())
    def test_within_1e12_of_the_two_half_sum(self, name, side):
        m = catalog_get(name)
        z_ref = _window_mid(m)
        want = _two_half_distance(m, *((m.domain.lo, z_ref) if side == "lower" else (z_ref, m.domain.hi)))
        got = _end_distance(m, side)
        assert got == want if math.isinf(want) else abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_mpmath_reference(self, name, side):
        want = _reference_distances()[f"{name}/{side}"]
        got = _end_distance(catalog_get(name), side)
        if want == "inf":
            assert got == math.inf
        else:
            assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("key", sorted(_quoted_distances()), ids="/".join)
    def test_two_bolt_ends_match_quoted_values_quickly(self, key):
        name, side = key
        m = catalog_get(name)
        start = time.perf_counter()
        got = _end_distance(m, side)
        assert time.perf_counter() - start < 1.0
        assert got == pytest.approx(_quoted_distances()[key], rel=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([("hirzebruch", "lower"), ("hirzebruch", "upper"), ("page", "lower"),
                         ("page", "upper"), ("taub-bolt", "lower")]),
        st.integers(-8, 8),
    )
    def test_bolt_moved_by_ulps(self, end, ulps):
        # a few ulps either way F(z0) rounds to a small positive, zero or
        # negative value; the bolt stays a bolt at the moved endpoint
        name, side = end
        m = catalog_get(name)
        z0 = m.domain.lo if side == "lower" else m.domain.hi
        want = distance(m, z0, _window_mid(m))
        got = distance(m, _moved(z0, ulps), _window_mid(m))
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-9)

    def test_moved_bolts_cover_both_signs_of_f(self):
        # the moves above do reach F(z0) > 0, = 0 and < 0
        m = catalog_get("hirzebruch")
        values = [m.f_poly().eval(_moved(z0, k)) for z0 in (m.domain.lo, m.domain.hi) for k in range(-8, 9)]
        assert {(v > 0.0) - (v < 0.0) for v in values} == {-1, 0, 1}


class TestClassifyEnd:
    @pytest.mark.parametrize(
        "name,params,lower,upper",
        [
            ("taub-nut", {"m": 1.0}, "ALF", "nut"),
            ("modified-taub-nut-1", {"C0": 1.0}, "cusp", "ALE"),
            ("modified-taub-nut-2", {"C0": 1.0}, "cusp", "nut"),
            ("taub-bolt", {"m": 1.0}, "bolt", "ALF"),
            ("modified-taub-bolt-1", {"C0": 1.0}, "bolt", "cusp"),
            ("modified-taub-bolt-2", {"C0": 1.0}, "bolt", "cusp"),
            ("eguchi-hanson", {"m": 1.0}, "bolt", "ALE"),
        ],
    )
    def test_catalog_ends(self, name, params, lower, upper):
        m = catalog_get(name, params)
        assert classify_end(m, "lower").kind == lower
        assert classify_end(m, "upper").kind == upper

    def test_super_metrics_have_curvature_singularities(self):
        stn = classify_end(catalog_get("super-taub-nut"), "upper")
        assert stn.kind == "curvature_singularity"
        assert not stn.complete
        seh = classify_end(catalog_get("super-eguchi-hanson"), "lower")
        assert seh.kind == "curvature_singularity"

    def test_conical_end(self):
        # non-integer slope at the F-zero gives a cone angle of 2*pi*|slope|
        m = MetricSpec(
            "cone",
            ExpPoly([(0, 1.0), (-2, -1.0), (-1, -0.75), (1, 0.75)]),
            ExpFactor(1.0, -1),
            Domain(0.0, 2.0, lo_closed=True),
        )
        rep = classify_end(m, "lower")
        f1 = m.f_poly().derive().eval(0.0)
        if abs(f1 - round(f1)) < 1e-9:
            pytest.skip("slope landed on an integer")
        assert rep.kind == "conical"
        assert rep.cone_angle == pytest.approx(2.0 * math.pi * abs(f1), rel=1e-12)

    def test_f_growing_as_c_is_asymptotically_einstein(self):
        # F = 1 + e^{z}, C = e^{z}: F and C grow at the same rate
        m = MetricSpec("ae", ExpPoly([(0, 1), (1, 1)]), ExpFactor(1.0, +1), Domain(0.0, math.inf))
        rep = classify_end(m, "upper")
        assert rep.kind == "asymptotically_einstein" and rep.complete
        assert rep.diagnostics["distance_to_end"] == math.inf

    def test_f_tending_to_a_constant_other_than_one_is_undetermined(self):
        # F = 2 + e^{-z} tends to 2, so neither the nut/ALE rule nor the growth rule applies
        m = MetricSpec("two", ExpPoly([(0, 2), (-1, 1)]), ExpFactor(1.0, -1), Domain(0.0, math.inf))
        rep = classify_end(m, "upper")
        assert rep.kind == "undetermined" and not rep.complete

    @pytest.mark.parametrize("eps", [-1, 1])
    def test_f_decaying_to_zero_is_neither_nut_nor_ale(self, eps):
        # F = e^{-z} has no constant term, so F - 1 tends to -1; before: "nut" (eps = -1) or
        # "ALE" (eps = +1), complete, because only a constant term other than 1 was refused
        m = MetricSpec("decays", ExpPoly([(-1, 1)]), ExpFactor(1.0, eps), Domain(0.0, math.inf))
        rep = classify_end(m, "upper")
        assert rep.kind == "undetermined" and not rep.complete

    @pytest.mark.parametrize("f_terms, num_terms, kind", [
        ([(0, 1)], [(-2, 1)], "curvature_singularity"),  # C = e^{−2z}: before, a complete nut
        ([(0, 1), (Fraction(-1, 2), 1)], [(-1, 1)], "curvature_singularity"),  # F − 1 = e^{−z/2}: before, a nut
        ([(0, 1)], [(-1, 1), (Fraction(-3, 2), 1)], "curvature_singularity"),  # C·e^{z} = 1 + e^{−z/2}
        ([(0, 1)], [(-1, 1), (-2, 1)], "nut"),  # C·e^{z} = 1 + e^{−z}, smooth in r² ∝ e^{−z}
        ([(0, 1)], [(2, 1)], "conical"),  # C = e^{2z}: before, ALE
    ], ids=["c-decays-twice", "half-integer-f", "half-integer-c", "integer-c", "c-grows-twice"])
    def test_f_tending_to_one_needs_exact_nut_and_ale_exponents(self, f_terms, num_terms, kind):
        # a nut needs C's growth exponent exactly −1, integer exponents in F − 1 and C's num and den
        # each in one class mod 1; ALE needs exactly +1.  The scalar curvature agrees: it is bounded
        # at the nut, blows up at the singular ends, and decays like e^{−2z} (about r^{−2}) at the
        # conical one, where an ALE end's is O(r^{−6})
        m = MetricSpec("end", ExpPoly(f_terms), RatioFactor(ExpPoly(num_terms), ExpPoly.constant(1)),
                       Domain(0.0, math.inf))
        rep = classify_end(m, "upper")
        assert (rep.kind, rep.complete) == (kind, kind != "curvature_singularity")
        zs = (5.0, 10.0, 20.0)
        s = [abs(scalar_curvature(m, z)) for z in zs]
        if kind == "curvature_singularity":
            assert s[0] < s[1] < s[2] and s[2] > 1e5
        elif kind == "nut":
            assert max(s) < 25.0
        else:
            assert [x * math.exp(2 * z) for x, z in zip(s, zs)] == pytest.approx([s[0] * math.exp(10.0)] * 3, rel=1e-3)

    @pytest.mark.parametrize("name", catalog_names())
    def test_closed_ends_are_the_bolts_find_bolts_sees(self, name):
        # a closed end is a bolt iff find_bolts has a bolt at that very float
        # with the same self-intersection
        m = catalog_get(name)
        by_z = {b.z0: b for b in find_bolts(m)}
        d = m.domain
        for side, z_end, closed in (("lower", d.lo, d.lo_closed), ("upper", d.hi, d.hi_closed)):
            if not closed:
                continue
            start = time.perf_counter()
            rep = classify_end(m, side)
            assert time.perf_counter() - start < 1.0
            bolt = by_z.get(z_end)
            if rep.kind == "bolt":
                assert rep.complete
                assert bolt is not None and bolt.self_intersection == rep.self_intersection
            else:
                assert bolt is None or bolt.self_intersection is None
        if name == "hirzebruch":
            assert sorted(b.self_intersection for b in by_z.values()) == [-1, 1]
            assert set(by_z) == {d.lo, d.hi}

    def test_failed_distance_keeps_its_reason(self):
        # the upper end lies past the zero at ln 1000
        rep = classify_end(_crossing_spec(), "upper")
        assert math.isnan(rep.diagnostics["distance_to_end"])
        assert "undefined" in rep.diagnostics["distance_error"]
        assert "distance_error" not in classify_end(catalog_get("flat"), "upper").diagnostics

    def test_bad_side_raises(self):
        with pytest.raises(ValueError):
            classify_end(catalog_get("flat"), "left")


def test_catalog_ends_stay_within_their_integrand_budget(monkeypatch):
    # the 36 classify_end calls at default parameters: 1092 integrand calls with G10K21, 2040 with G7K15
    calls = [0]

    def counted(f, a, b, **kwargs):
        def g(x):
            calls[0] += 1
            return f(x)

        return adaptive_quad(g, a, b, **kwargs)

    monkeypatch.setattr(geometry, "adaptive_quad", counted)
    for name in catalog_names():
        for side in ("lower", "upper"):
            classify_end(catalog_get(name), side)
    assert 0 < calls[0] <= 1100


_NO_NUMPY = """
import sys
from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.curvature import weyl_energy
from u2metrics.geometry import classify_end
for name in catalog_names():
    m = catalog_get(name)
    for side in ("lower", "upper"):
        classify_end(m, side)
    lo, hi = m.domain.finite_window()
    weyl_energy(m, 0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi)
print("numpy" in sys.modules)
"""


def test_classify_end_and_weyl_energy_leave_numpy_unloaded():
    # the quadrature runs on floats: distance's integrand, weyl_energy's and adaptive_quad itself
    src = str(pathlib.Path(geometry.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _NO_NUMPY], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


class TestAmbikahlerTransform:
    def test_involution(self):
        m = catalog_get("modified-taub-nut-2", {"C0": 1.0})
        twice = ambikahler_transform(ambikahler_transform(m))
        assert twice.F == m.F
        assert twice.C == m.C
        assert twice.tag == m.tag

    def test_flips_orientation_tag_and_exponent(self):
        m = catalog_get("modified-taub-bolt-1", {"C0": 2.0})
        other = ambikahler_transform(m)
        assert other.tag != m.tag
        assert other.C.eps == -m.C.eps
        assert other.C.c0 == m.C.c0

    def test_requires_kahler_exp_metric(self):
        # the one not-Kähler message, as ricci_form_kahler raises it
        message = r"^metric 'taub-bolt\(m=1\)' is not Kähler: C is not C0·e\^\{∓z\}$"
        with pytest.raises(NotKahlerError, match=message):
            ambikahler_transform(catalog_get("taub-bolt", {"m": 1.0}))
        with pytest.raises(NotKahlerError, match=message):
            ricci_form_kahler(catalog_get("taub-bolt", {"m": 1.0}), 0.5)


class TestSingleTermRatio:
    """A C ratio n·e^{az}/(d·e^{bz}) with n/d > 0 is C0·e^{(a−b)z} with C0 = n/d:
    with taub-nut's F it carries the tag, the Kähler forms and the classify tags
    of its ``C exp C0=n/d`` twin, and the transform negates each exponent."""

    HEAD = "name r\ndomain 0 inf open open\nF canonical 2 -2 0 0\n"

    @pytest.fixture(params=[("-1", "0", "1", "1"), ("0", "1", "3", "2"), ("1", "0", "1/2", "1")], ids=str)
    def pair(self, request):
        a, b, n, d = request.param
        ratio = parse_metric(f"{self.HEAD}C ratio\nnum term {a} {n}\nden term {b} {d}\n")
        twin = parse_metric(f"{self.HEAD}C exp C0={Fraction(n) / Fraction(d)} eps={int(a) - int(b):+d}\n")
        return ratio, twin

    def test_tag_kahler_forms_and_classify_match_the_twin(self, pair):
        ratio, twin = pair
        assert ratio.tag == twin.tag is not None
        for z in (0.3, 1.0, 4.0):
            for got, want in zip(ricci_form_kahler(ratio, z), ricci_form_kahler(twin, z)):
                assert abs(got - want) <= 1e-14 * abs(want)
        assert classify(ratio).tags() == classify(twin).tags()

    def test_transform_flips_the_tag_and_is_an_involution(self, pair):
        ratio, _ = pair
        partner = ambikahler_transform(ratio)
        assert partner.tag == {"Jplus": "Jminus", "Jminus": "Jplus"}[ratio.tag]
        assert [p.exponents() for p in partner.c_ratio] == [tuple(-k for k in p.exponents()) for p in ratio.c_ratio]
        assert ambikahler_transform(partner) == ratio

    def test_emit_writes_the_tag_and_parses_back(self, pair):
        ratio, _ = pair
        text = emit_metric(ratio)
        assert text.endswith(f"tag {ratio.tag}\n")
        assert parse_metric(text) == ratio


class TestMultiTermRatio:
    """A C ratio whose num and den share a factor is the metric of the reduced
    ratio, so its Kähler tag is C's, read from the exact (num, den).  Before:
    modified-taub-nut-2 with num and den times 1 + e^z had classify's
    kahler_plus yes but no tag, so ricci_form_kahler and transform raised
    NotKahlerError and emit wrote no tag line."""

    @staticmethod
    def _twin(m, w=ExpPoly([(0, 1), (1, 1)])):
        num, den = m.c_ratio
        return MetricSpec(m.name, m.F, RatioFactor(num * w, den * w), m.domain)

    @staticmethod
    def _kahler_verdict(m):
        rep = classify(m)
        return next((tag for p, tag in (("kahler_plus", "Jplus"), ("kahler_minus", "Jminus"))
                     if rep.verdict(p) == "yes"), None)

    def test_tag_is_the_kahler_verdict_of_every_entry_and_its_twin(self):
        for name in catalog_names():
            m = catalog_get(name)
            twin = self._twin(m)
            assert m.tag == twin.tag == self._kahler_verdict(m) == self._kahler_verdict(twin), name

    def test_twin_has_the_kahler_forms_transform_and_tag_line(self):
        m = catalog_get("modified-taub-nut-2")
        twin = self._twin(m)
        assert twin.tag == "Jplus"
        for z in (0.3, 1.0, 4.0):
            for got, want in zip(ricci_form_kahler(twin, z), ricci_form_kahler(m, z)):
                assert abs(got - want) <= 1e-14 * abs(want)
        partner = ambikahler_transform(twin)
        assert partner.tag == "Jminus" and ambikahler_transform(partner) == twin
        text = emit_metric(twin)
        assert text.endswith("\ntag Jplus\n") and parse_metric(text) == twin

    @pytest.mark.parametrize("c0", [1.0, Fraction(1)], ids=["float", "exact"])
    @pytest.mark.parametrize("c", [Fraction(10**300), Fraction(1, 10**300)], ids=["1e300", "1e-300"])
    def test_coefficients_near_float_range(self, c0, c):
        # num·d and den·n reach 1e±600, past float range: compared as exact rationals, so
        # neither an ExpPolyError (a product past float range) nor a product rounded to 0
        m = MetricSpec("t", canonical(2, -2, 0, 0), ExpFactor(c0, -1), Domain(0.0, math.inf))
        twin = self._twin(m, ExpPoly([(0, 1), (1, 1)]) * ExpPoly.constant(c))
        assert twin.tag == "Jplus" == self._kahler_verdict(twin)
        assert MetricSpec("t", m.F, RatioFactor(*twin.c_ratio[::-1]), m.domain).tag == "Jminus"

    def test_float_lowest_terms_whose_product_underflows(self):
        # n·d = 1e-400 rounds to 0 in floats: the tag reads the signs of n and d, not their product
        C = RatioFactor(ExpPoly.exp_term(-1, 1e-200), ExpPoly.constant(1e-200))
        assert MetricSpec("t", canonical(2, -2, 0, 0), C, Domain(0.0, math.inf)).tag == "Jplus"


class TestTranscription:
    def test_flat_space(self):
        # dr^2 + r^2 (sum of sphere coframes squared): F = 1, C = C0 e^{+z}
        res = transcribe_classic(
            lambda r: 1.0,
            lambda r: r * r,
            lambda r: r * r,
            (1.0, 5.0),
            orientation=+1,
        )
        assert res.f_rms < 1e-10
        assert max(abs(c) for c in canonical_coefficients(res.metric.F)) < 1e-8
        assert isinstance(res.metric.C, ExpFactor) and res.metric.C.eps == +1
        assert res.c_rms < 1e-10

    def test_taub_nut_classic_form(self):
        m_par = 1.0
        res = transcribe_classic(
            lambda r: 0.25 * (r + m_par) / (r - m_par),
            lambda r: 4.0 * m_par**2 * (r - m_par) / (r + m_par),
            lambda r: r * r - m_par * m_par,
            (1.5, 8.0),
            orientation=-1,
        )
        assert res.f_rms < 1e-9
        assert isinstance(res.metric.C, EinsteinFactor)
        c1, c2, c3, c4 = canonical_coefficients(res.metric.F)
        # shift-normalized profile (1 - e^{-z})^2: c1 = c2^2/2, c3 = c4 = 0
        k = -c2 / 2.0
        assert c1 / k**2 == pytest.approx(2.0, abs=1e-8)
        assert abs(c3) < 1e-9 and abs(c4) < 1e-9

    def test_reversed_orientation_still_fits(self):
        # z decreases along r, the fit is done in z and must agree
        res = transcribe_classic(
            lambda r: 1.0,
            lambda r: r * r,
            lambda r: r * r,
            (1.0, 5.0),
            orientation=-1,
        )
        assert res.f_rms < 1e-10
        assert res.metric.C.eps == -1

    def test_invalid_orientation_value_raises(self):
        with pytest.raises(ValueError):
            transcribe_classic(
                lambda r: 1.0,
                lambda r: r * r,
                lambda r: r * r,
                (1.0, 5.0),
                orientation=0,
            )

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ValueError):
            transcribe_classic(
                lambda r: -1.0,
                lambda r: r * r,
                lambda r: r * r,
                (1.0, 5.0),
                orientation=+1,
            )
