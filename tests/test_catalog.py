"""The closed-form metric catalog and its special constants."""
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from u2metrics.catalog import (
    CatalogError,
    catalog_entry,
    catalog_get,
    catalog_list,
    catalog_names,
    hirzebruch_bachflat_k,
    page_constants,
)
from u2metrics import exppoly
from u2metrics.classify import classify, sample_grid
from u2metrics.curvature import curvature_sample
from u2metrics.geometry import find_bolts
from u2metrics.metricfile import emit_metric
from u2metrics.profiles import EinsteinFactor, canonical_coefficients, conformal_value

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "catalog_pins.json").read_text())


class TestPins:
    """``catalog_list()`` and the emitted text of every entry at its defaults,
    of the overrides the tests and the CLI use, and of ``hirzebruch`` at three
    (k, z0), as the catalog gave them when each entry had its own builder."""

    def test_catalog_list(self):
        assert catalog_list() == PINS["catalog_list"]

    @pytest.mark.parametrize(
        "pin", PINS["specs"], ids=[f"{p['name']}{p['params'] or ''}" for p in PINS["specs"]]
    )
    def test_spec(self, pin):
        assert emit_metric(catalog_get(pin["name"], pin["params"])) == pin["emit"]

    @pytest.mark.parametrize("pin", PINS["hirzebruch"], ids=[str(p["args"]) for p in PINS["hirzebruch"]])
    def test_hirzebruch(self, pin):
        k, z0 = pin["args"]
        assert emit_metric(catalog_get("hirzebruch", {"k": k, "z0": z0})) == pin["emit"]

    def test_every_entry_is_pinned_at_its_defaults(self):
        assert [p["name"] for p in PINS["specs"] if not p["params"]] == list(catalog_names())


class TestPageConstants:
    # oracle values: roots of x^4 + 4x^3 - 6x^2 + 12x - 3 in [0.1, 0.5]
    # and of e^{4z} - 4e^z - 3 in [0.4, 0.8], plus the derived coefficient
    NU = 0.281701557908774
    Z0 = 0.5790586760416873
    COEFF = -0.2442724937305951

    def test_values(self):
        nu, z0, coeff = page_constants()
        assert nu == pytest.approx(self.NU, abs=1e-13)
        assert z0 == pytest.approx(self.Z0, abs=1e-13)
        assert coeff == pytest.approx(self.COEFF, abs=1e-13)

    def test_exact_roots_against_mpmath(self):
        # ν is the float nearest the root; z0 is log of the float nearest x = e^{z0}, within 2 ulp
        mpmath = pytest.importorskip("mpmath")
        nu, z0, _ = page_constants()
        with mpmath.workdps(50):
            nu_ref = mpmath.findroot(lambda x: (((x + 4) * x - 6) * x + 12) * x - 3, mpmath.mpf("0.28"))
            z0_ref = mpmath.findroot(lambda z: mpmath.exp(4 * z) - 4 * mpmath.exp(z) - 3, mpmath.mpf("0.58"))
        assert nu == float(nu_ref)
        assert abs(z0 - float(z0_ref)) <= 2 * math.ulp(z0)

    def test_residuals(self):
        nu, z0, _ = page_constants()
        assert abs((((nu + 4) * nu - 6) * nu + 12) * nu - 3) < 1e-12
        assert abs(math.exp(4 * z0) - 4 * math.exp(z0) - 3) < 1e-12


class TestHirzebruch:
    def test_bachflat_k_limits(self):
        assert hirzebruch_bachflat_k(1e-12) == pytest.approx(0.0, abs=1e-11)
        assert hirzebruch_bachflat_k(20.0) == pytest.approx(2.0, abs=1e-6)

    def test_bachflat_k_strictly_increasing(self):
        zs = np.linspace(0.01, 5.0, 50)
        ks = [hirzebruch_bachflat_k(z) for z in zs]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_page_profile_is_hirzebruch_one(self):
        # at the special z0 the k = 1 profile coincides with the Page profile
        _, z0, _ = page_constants()
        h = catalog_get("hirzebruch", {"k": 1, "z0": z0})
        p = catalog_get("page", {"Lambda": 12.0})
        diff = h.f_poly() - p.f_poly()
        assert max(abs(float(c)) for _, c in diff.terms()) < 1e-12 if diff.terms() else True

    def test_profile_vanishes_at_both_ends(self):
        m = catalog_get("hirzebruch", {"k": 3, "z0": 0.8})
        poly = m.f_poly()
        assert poly.eval(-0.8) == pytest.approx(0.0, abs=1e-12)
        assert poly.eval(0.8) == pytest.approx(0.0, abs=1e-12)


class TestSharedZeros:
    @pytest.mark.parametrize("name", ["eguchi-hanson-lambda", "taub-nut-lambda"])
    def test_find_bolts_reuses_the_builders_zeros(self, monkeypatch, name):
        # the builder isolates F's zeros to place the domain; the spec's F is
        # the same ExpPoly, so find_bolts isolates nothing again
        m = catalog_get(name)
        calls = []
        real = exppoly._square_free
        monkeypatch.setattr(exppoly, "_square_free", lambda p: calls.append(1) or real(p))
        find_bolts(m)
        assert calls == []

    def test_taub_bolt_entries_share_one_profile(self):
        polys = [catalog_get(n).f_poly() for n in ("taub-bolt", "modified-taub-bolt-1", "modified-taub-bolt-2")]
        assert polys[0] is polys[1] is polys[2]


class TestEntries:
    def test_names_unique_and_listed(self):
        names = catalog_names()
        assert len(names) == len(set(names))
        listing = catalog_list()
        for n in names:
            assert n in listing

    def test_unknown_name_raises(self):
        with pytest.raises(CatalogError):
            catalog_get("no-such-metric")

    def test_parameter_validation(self):
        with pytest.raises(CatalogError):
            catalog_get("taub-nut", {"m": -1.0})
        with pytest.raises(CatalogError):
            catalog_get("taub-nut", {"bogus": 1.0})
        with pytest.raises(CatalogError):
            catalog_get("eguchi-hanson-lambda", {"k": 1})

    @pytest.mark.parametrize(
        "name, params, spec_name",
        [
            ("flat", {}, "flat"),
            ("modified-lebrun", {"k": 1e6}, "modified-lebrun(k=1000000,m=1)"),
            ("lebrun", {"k": 3.0, "m": 2000000}, "lebrun(k=3,m=2e+06)"),
            ("taub-nut-lambda", {"m": 0.7, "L": -1}, "taub-nut-lambda(m=0.7,L=-1,Lambda=1)"),
        ],
    )
    def test_spec_name_is_the_entry_name_and_its_values(self, name, params, spec_name):
        assert catalog_get(name, params).name == spec_name

    def test_integer_parameters_reach_the_builder_as_int(self):
        # eguchi-hanson-lambda's exact coefficients need an int k
        F = catalog_get("eguchi-hanson-lambda", {"k": 5.0}).F
        c1, _, c3, _ = canonical_coefficients(F)
        assert c1 == Fraction(-16) and c3 == Fraction(1)

    @pytest.mark.parametrize(
        "args", [(0, 0.5), (1.5, 0.5), (1, 0.0), (1, math.inf), (1, 0.5, math.nan), (1, 0.5, -1.0)]
    )
    def test_hirzebruch_checks_its_parameters(self, args):
        with pytest.raises(CatalogError, match="violates"):
            catalog_get("hirzebruch", dict(zip(("k", "z0", "C0"), args)))

    @pytest.mark.parametrize(
        "name, params", [("burns", {"m": 1e200}), ("taub-nut", {"m": 1e-320}), ("eguchi-hanson", {"m": 1e100})]
    )
    def test_parameters_that_give_no_valid_metric(self, name, params):
        # before: burns m=1e200 built F canonical 0 -inf 0 0
        with pytest.raises(CatalogError, match="is not a valid metric"):
            catalog_get(name, params)

    def test_lebrun_specializations(self):
        # k = 1 reduces to the Burns profile, k = 2 to Eguchi-Hanson
        burns = catalog_get("burns", {"m": 1.5})
        assert catalog_get("lebrun", {"k": 1, "m": 1.5}).f_poly() == burns.f_poly()
        eh = catalog_get("eguchi-hanson", {"m": 1.5})
        assert catalog_get("lebrun", {"k": 2, "m": 1.5}).f_poly() == eh.f_poly()

    def test_super_eguchi_hanson_profile(self):
        poly = catalog_get("super-eguchi-hanson").f_poly()
        assert poly.coefficient(0) == 1
        assert poly.coefficient(-2) == 1
        assert len(poly.terms()) == 2

    def test_taub_bolt_conformal_factor(self):
        m = catalog_get("taub-bolt", {"m": 1.0})
        assert isinstance(m.C, EinsteinFactor)
        z = -0.6
        want = 16.0 * math.exp(-z) / (1.0 - math.exp(-z)) ** 2
        assert conformal_value(m, z) == pytest.approx(want, rel=1e-12)

    def test_einstein_relations_hold_for_taub_nut_lambda(self):
        m = catalog_get("taub-nut-lambda", {"m": 0.7, "L": 1.1, "Lambda": 0.5})
        c1, c2, c3, c4 = (float(c) for c in canonical_coefficients(m.F))
        c5, c6 = m.C.c5, m.C.c6
        assert abs(c1 * c5 - c2 * c6) < 1e-12
        assert abs(c3 * c5 - c4 * c6) < 1e-12

    def test_taub_nut_lambda_default_nut_is_exact(self):
        # a + b = 2 gives F(0) = F'(0) = 0 for every m, L and Lambda
        m = catalog_get("taub-nut-lambda")
        assert m.domain.lo == 0.0
        assert m.f_poly().real_roots(0.0, 0.0) == [(0.0, 2)]

    def test_taub_nut_lambda_nut_off_default(self):
        entry = catalog_entry("taub-nut-lambda")
        m = entry.build(m=2, L=-1, Lambda=0.3)
        assert (m.domain.lo, m.domain.hi) == (0.0, math.inf)
        assert m.f_poly().real_roots(0.0, 0.0) == [(0.0, 2)]
        assert set(entry.expected_tags) <= set(classify(m).tags())

    @pytest.mark.parametrize(
        "name,params",
        [
            ("fubini-study", {"Lambda": 6.0}),
            ("eguchi-hanson-lambda", {"k": 3}),
            ("taub-nut-lambda", {"m": 0.7, "L": 1.1, "Lambda": 0.5}),
        ],
    )
    def test_einstein_entries_are_einstein(self, name, params):
        m = catalog_get(name, params)
        lo, hi = m.domain.finite_window()
        # stay away from the domain ends, where the conformal factor
        # amplifies round-off in the curvature stencil
        # absolute round-off in the curvature stencil scales with F, which
        # grows like e^{2z} toward an unbounded end, so cap the window too
        for z in np.linspace(lo + 0.15 * (hi - lo), lo + 0.5 * (hi - lo), 12):
            cs = curvature_sample(m, z)
            assert max(abs(cs.ric0_a), abs(cs.ric0_b)) < 1e-8

    @pytest.mark.parametrize(
        "name,params",
        [
            ("flat", {}),
            ("taub-nut", {}),
            ("super-taub-nut", {}),
            ("burns", {}),
            ("modified-lebrun", {"k": 3}),
            ("hirzebruch", {"k": 2, "z0": 0.7}),
        ],
    )
    def test_expected_tags_spot_checks(self, name, params):
        entry = catalog_entry(name)
        m = entry.build(**params)
        tags = classify(m, tol=1e-8).tags()
        assert set(entry.expected_tags) <= set(tags)
