"""Curvature quantities of canonical metrics against closed forms."""
import ast
import inspect
import json
import math
import pathlib
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2metrics import curvature
from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.classify import classify, sample_grid
from u2metrics.curvature import (
    NotKahlerError,
    bach,
    curvature_sample,
    delta_w_potential,
    kahler_scalar_curvature,
    ricci_form_kahler,
    scalar_curvature,
    tf_ricci,
    weyl,
    weyl_energy,
)
from u2metrics.exppoly import ExpPoly
from u2metrics.operators import l_plus
from u2metrics.profiles import (
    Canonical,
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
    OutOfDomainError,
    canonical_coefficients,
    conformal_value,
)

PIN_SPECS = json.loads((pathlib.Path(__file__).parent / "data" / "catalog_pins.json").read_text())["specs"]


def _grid(m, n=25):
    return sample_grid(m.domain, n)


def test_jet_helpers_are_polynomials_but_for_one_division_by_g():
    # no power and no division but by a literal in any _…_from_jets helper, except P±'s division by g
    tree = ast.parse(inspect.getsource(curvature))
    helpers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.endswith("_from_jets")]
    assert len(helpers) == 7
    divisions = []
    for f in helpers:
        for node in ast.walk(f):
            assert not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.Pow), f.name
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and not isinstance(node.right, ast.Constant):
                divisions.append((f.name, ast.unparse(node.right)))
    assert divisions == [("_delta_w_from_jets", "g[0]")]
    # tf-Ric also runs on exact ExpPoly jets, where a float literal would make a coefficient a float
    (tf_ricci_helper,) = [f for f in helpers if f.name == "_tf_ricci_from_jets"]
    assert [n.value for n in ast.walk(tf_ricci_helper) if isinstance(n, ast.Constant) and type(n.value) is float] == []


class TestFlat:
    def test_everything_vanishes(self):
        m = catalog_get("flat")
        for z in (-1.5, 0.0, 2.0):
            assert scalar_curvature(m, z) == pytest.approx(0.0, abs=1e-12)
            assert max(abs(v) for v in tf_ricci(m, z)) < 1e-12
            assert max(abs(v) for v in weyl(m, z)) < 1e-12
            assert max(abs(v) for v in bach(m, z)) < 1e-12

    @pytest.mark.parametrize("z", [360.0, 400.0])
    def test_projection_survives_an_unrelated_component_out_of_range(self, z):
        # C = e^{-z}, so g = C^{-1/2} = e^{z/2}: g⁴ overflows past z ≈ 354.9 and g² only past
        # z ≈ 709.8, so Bach (0·g⁴) leaves float range there, but s, tf-Ric, Weyl, P± and ρ± do not
        m = catalog_get("flat")
        with pytest.raises(ArithmeticError, match=f"^bach_B1 is not finite at z={z}$"):
            curvature_sample(m, z)
        with pytest.raises(ArithmeticError, match=f"^bach_B1 is not finite at z={z}$"):
            bach(m, z)
        assert scalar_curvature(m, z) == 0.0
        assert tf_ricci(m, z) == (0.0, 0.0)
        assert weyl(m, z) == (0.0, 0.0, 0.0, 0.0)
        assert delta_w_potential(m, "plus", z) == 0.0
        assert delta_w_potential(m, "minus", z) == 0.0
        assert ricci_form_kahler(m, z) == (0.0, 0.0)

    def test_every_component_representable_where_c_is_large(self):
        # at z = -400, C = e^{400}: g = e^{-200} and g⁴ underflows to 0, so where C² would
        # overflow every field is finite and flat
        m = catalog_get("flat")
        cs = curvature_sample(m, -400.0)
        assert (cs.s, cs.ric0_a, cs.ric0_b, cs.bach_B1, cs.bach_B2) == (0.0,) * 5
        assert (cs.w_plus_norm2, cs.w_minus_norm2, cs.delW_plus_pot, cs.delW_minus_pot) == (0.0,) * 4

    @pytest.mark.parametrize("name,z,field", [
        ("bach", 400.0, "bach_B1"),  # before: (nan, nan), g⁴ = inf times 0
        ("delta_w_potential", 600.0, "delW_plus_pot"),  # e^{900} overflows math.exp
    ])
    def test_float_result_is_finite_or_raises_by_name(self, name, z, field):
        m = catalog_get("flat")
        f = {"bach": bach, "delta_w_potential": lambda m, z: delta_w_potential(m, "plus", z)}[name]
        with pytest.raises(ArithmeticError, match=f"^{field} is not finite at z={z}$"):
            f(m, z)

    def test_float_and_array_raise_alike(self):
        # one finiteness rule for both carriers: the same field at the same z
        m = catalog_get("flat")
        for f in (curvature_sample, bach):
            with pytest.raises(ArithmeticError) as on_float:
                f(m, 400.0)
            with pytest.raises(ArithmeticError) as on_array:
                f(m, np.array([300.0, 400.0]))
            assert str(on_float.value) == str(on_array.value) == "bach_B1 is not finite at z=400.0"


class TestTaubNut:
    def test_ricci_flat(self):
        m = catalog_get("taub-nut", {"m": 1.0})
        for z in _grid(m):
            assert max(abs(v) for v in tf_ricci(m, z)) < 1e-10
            assert abs(scalar_curvature(m, z)) < 1e-10

    def test_self_dual_weyl(self):
        # W- = 0 for the Taub-NUT orientation used here
        m = catalog_get("taub-nut", {"m": 1.0})
        for z in _grid(m):
            cs = curvature_sample(m, z)
            assert abs(cs.w_minus) < 1e-12
            assert cs.w_minus_norm2 < 1e-12


class TestModifiedTaubScalars:
    def test_modified_taub_nut_2(self):
        m = catalog_get("modified-taub-nut-2", {"C0": 1.0})
        for z in _grid(m):
            want = 48.0 * (1.0 - math.exp(-z))
            assert scalar_curvature(m, z) == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_modified_taub_bolt_1(self):
        m = catalog_get("modified-taub-bolt-1", {"C0": 2.0})
        for z in _grid(m):
            want = 54.0 / 2.0 * (1.0 - math.exp(z))
            assert scalar_curvature(m, z) == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_modified_taub_bolt_2(self):
        m = catalog_get("modified-taub-bolt-2", {"C0": 2.0})
        for z in _grid(m):
            want = 6.0 / 2.0 * (-1.0 + math.exp(-z))
            assert scalar_curvature(m, z) == pytest.approx(want, rel=1e-11, abs=1e-11)


class TestSuperTaubNut:
    def test_anti_self_dual_with_closed_form_weyl_norm(self):
        m = catalog_get("super-taub-nut")
        for z in np.linspace(-2.0, 2.0, 15):
            cs = curvature_sample(m, z)
            assert abs(cs.w_plus) < 1e-10
            want = 384.0 * (1.0 + math.exp(z)) ** 6
            assert cs.w_minus_norm2 == pytest.approx(want, rel=1e-9)


class TestKahlerFormulas:
    def test_scalar_curvature_shortcut_matches_general(self):
        m = catalog_get("modified-taub-nut-1", {"C0": 3.0})
        for z in _grid(m):
            s_gen = scalar_curvature(m, z)
            s_k = kahler_scalar_curvature(m, z)
            assert abs(s_gen - s_k) / (1.0 + abs(s_gen)) < 1e-11

    def test_ricci_form_vanishes_on_ricci_flat_kahler(self):
        m = catalog_get("eguchi-hanson", {"m": 1.0})
        for z in _grid(m):
            assert max(abs(v) for v in ricci_form_kahler(m, z)) < 1e-10

    def test_not_kahler_raises(self):
        m = catalog_get("taub-bolt", {"m": 1.0})
        with pytest.raises(NotKahlerError):
            kahler_scalar_curvature(m, -0.5)

    def test_kahler_structure_comes_from_c(self):
        # modified-taub-nut-2 built without a catalog entry: C = e^{-z} alone makes it J⁺-Kähler
        m = MetricSpec("t", Canonical(2, -2, 0, 0), ExpFactor(1.0, -1), Domain(0.0, math.inf))
        assert m.tag == "Jplus"
        cs = curvature_sample(m, 1.0)
        assert type(cs.rho_plus) is float
        assert 4.0 * cs.rho_plus == kahler_scalar_curvature(m, 1.0)


class TestWeylEnergy:
    def test_matches_direct_quadrature(self):
        m = catalog_get("taub-nut", {"m": 1.0})
        a, b = 0.5, 1.5
        got = weyl_energy(m, a, b)
        F = m.f_poly()
        integrand = l_plus(F) - ExpPoly.constant(1)
        zs = np.linspace(a, b, 20001)
        vals = (16.0 / 3.0) * np.array([integrand.eval(z) for z in zs]) ** 2
        want = float(np.trapezoid(vals, zs))
        assert got == pytest.approx(want, rel=1e-8)

    def test_conformal_invariance(self):
        # the energy depends on F only, not on the conformal factor
        F = Canonical(0.3, -0.4, 0.1, 0.0)
        d = Domain(-math.inf, math.inf)
        m1 = MetricSpec("a", F, ExpFactor(1.0, -1), d)
        m2 = MetricSpec("b", F, ExpFactor(7.0, +1), d)
        assert weyl_energy(m1, -1.0, 1.0) == pytest.approx(weyl_energy(m2, -1.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("a, b, bad", [(-5.0, 1.0, -5.0), (1.0, -0.5, -0.5), (0.5, math.nan, math.nan)])
    def test_endpoint_outside_the_domain_closure_raises(self, a, b, bad):
        # before: (-5, 1) on taub-nut's (0, ∞) returned 2.29e10
        with pytest.raises(OutOfDomainError, match=rf"^z={bad} outside domain"):
            weyl_energy(catalog_get("taub-nut"), a, b)

    def test_open_end_is_in_the_closure(self):
        m = catalog_get("taub-nut")
        assert weyl_energy(m, 0.0, 1.0) == pytest.approx(weyl_energy(m, 1e-300, 1.0), rel=1e-12)

    def test_zero_when_w_plus_vanishes(self):
        m = catalog_get("super-taub-nut")
        # F lives in the kernel of L+ minus constants, so the W+ energy is 0
        assert weyl_energy(m, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


class TestDeltaWPotential:
    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_curvature_sample(self, name):
        # every scalar function is a projection of the one kernel: equal, not close
        m = catalog_get(name)
        poly = m.f_poly()
        for z in sample_grid(m.domain, 12):
            cs = curvature_sample(m, z)
            assert (cs.F, cs.C) == (poly.eval(z), conformal_value(m, z))
            assert scalar_curvature(m, z) == cs.s
            assert tf_ricci(m, z) == (cs.ric0_a, cs.ric0_b)
            assert weyl(m, z) == (cs.w_plus, cs.w_minus, cs.w_plus_norm2, cs.w_minus_norm2)
            assert bach(m, z) == (cs.bach_B1, cs.bach_B2)
            assert delta_w_potential(m, "plus", z) == cs.delW_plus_pot
            assert delta_w_potential(m, "minus", z) == cs.delW_minus_pot
            if m.tag in ("Jplus", "Jminus"):
                assert ricci_form_kahler(m, z) == (cs.rho_plus, cs.rho_minus)
                # ρ of the Kähler orientation is s/4, by the independent shortcut
                rho = cs.rho_plus if m.tag == "Jplus" else cs.rho_minus
                assert 4.0 * rho == kahler_scalar_curvature(m, z)
            else:
                assert cs.rho_plus is None and cs.rho_minus is None
                with pytest.raises(NotKahlerError):
                    ricci_form_kahler(m, z)

    @pytest.mark.parametrize("sign", ["plu", "", 0, 2, None])
    def test_unknown_sign_raises(self, sign):
        with pytest.raises(ValueError):
            delta_w_potential(catalog_get("page"), sign, 0.5)

    def test_constant_on_half_harmonic_plus_metric(self):
        # page is tagged half_harmonic_plus with W⁺ ≠ 0 (it is not asd)
        m = catalog_get("page")
        rep = classify(m)
        assert rep.verdict("half_harmonic_plus") == "yes" and rep.verdict("asd") == "no"
        pots = [delta_w_potential(m, "plus", z) for z in sample_grid(m.domain, 32)]
        assert abs(pots[0]) > 1e-3
        assert max(pots) - min(pots) <= 1e-12 * abs(pots[0])


class TestEinsteinCertificate:
    """classify decides einstein on the canonical family from (C5, C6) by
    max(|C1C5 − C2C6|, |C3C5 − C4C6|); the one tf-Ric kernel, run on exact
    jets, must vanish identically exactly when that certificate is 0.  Here
    g = C^{−1/2} = C5·e^{z/2} + C6·e^{−z/2}, and C0·e^{∓z} is g = e^{±z/2} up to
    the constant C0^{−1/2}, which drops out since tf-Ric is quadratic in g."""

    @staticmethod
    def _kernel_vanishes(coeffs, c5, c6) -> bool:
        F = Canonical(*coeffs).expand()
        g = ExpPoly([(Fraction(1, 2), c5), (Fraction(-1, 2), c6)])
        ric0_a, ric0_b = curvature._tf_ricci_from_jets([F.derive(n) for n in range(5)], [g.derive(n) for n in range(4)])
        assert ric0_a.is_exact and ric0_b.is_exact
        return ric0_a.is_zero and ric0_b.is_zero

    @staticmethod
    def _certificate(coeffs, c5, c6):
        c1, c2, c3, c4 = coeffs
        return max(abs(c1 * c5 - c2 * c6), abs(c3 * c5 - c4 * c6))

    @pytest.mark.parametrize("spec", PIN_SPECS, ids=lambda s: f"{s['name']}{s['params'] or ''}")
    def test_catalog_specs(self, spec):
        # the exact binary values of float coefficients, so that neither side rounds
        m = catalog_get(spec["name"], spec["params"])
        coeffs = tuple(map(Fraction, canonical_coefficients(m.f_poly())))
        if isinstance(m.C, EinsteinFactor):
            c5, c6 = Fraction(m.C.c5), Fraction(m.C.c6)
        else:
            c5, c6 = (1, 0) if m.C.eps == -1 else (0, 1)
        einstein = self._certificate(coeffs, c5, c6) == 0
        assert self._kernel_vanishes(coeffs, c5, c6) == einstein
        assert (classify(m).residual("einstein") == 0.0) == einstein

    def test_random_small_rationals(self):
        rng = random.Random(19)
        small = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
        einstein = 0
        for _ in range(400):
            c5, c6 = rng.choice(small), rng.choice(small)
            if c5 == 0 and c6 == 0:
                c5 = Fraction(1)
            c1, c2, c3, c4 = (rng.choice(small) for _ in range(4))
            if rng.random() < 0.5:  # put half the draws on the Einstein locus
                if c5 != 0:
                    c1, c3 = c2 * c6 / c5, c4 * c6 / c5
                else:
                    c2 = c4 = Fraction(0)
            coeffs = (c1, c2, c3, c4)
            zero = self._certificate(coeffs, c5, c6) == 0
            einstein += zero
            assert self._kernel_vanishes(coeffs, c5, c6) == zero, (coeffs, c5, c6)
        assert einstein > 100


def _tf_ricci_literal(fj, g):
    # the helper as it was written with float literals, before it ran on exact jets
    ric0_a = 4.0 * fj[0] * g[0] * (g[2] - 0.25 * g[0])
    ric0_b = 2.0 * (g[0] * (fj[1] * g[1] + fj[0] * g[2]) - (fj[2] * 0.5 - 0.75 * fj[0] + 1.0) * g[0] * g[0])
    return ric0_a, ric0_b


_magnitudes = st.floats(min_value=1e-60, max_value=1e60)
_entries = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda x: -x))


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[_entries] * 3), st.tuples(*[_entries] * 3))
def test_tf_ricci_integer_literals_keep_the_float_bits(fj, g):
    # away from overflow and subnormals, 3 * x / 4 rounds as 0.75 * x does
    def bits(values):
        return [struct.pack("<d", v) for v in values]

    assert bits(curvature._tf_ricci_from_jets(fj, g)) == bits(_tf_ricci_literal(fj, g))
