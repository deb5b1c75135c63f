"""Curvature quantities of canonical metrics against closed forms."""
import ast
import inspect
import json
import math
import pathlib
import random
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2metrics import curvature
from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.classify import classify, sample_grid
from u2metrics.curvature import (
    CurvatureSample,
    curvature_sample,
    kahler_scalar_curvature,
    ricci_form_kahler,
    scalar_curvature,
    weyl_energy,
)
from u2metrics.exppoly import ExpPoly
from u2metrics.operators import b_op_jet, l_compose_jet, l_op, l_op_jet
from u2metrics.profiles import (
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
    NotKahlerError,
    OutOfDomainError,
    RatioFactor,
    canonical,
    canonical_coefficients,
    conformal_value,
    factor_ratio,
    jet_C,
    jet_F,
)

PIN_SPECS = json.loads((pathlib.Path(__file__).parent / "data" / "catalog_pins.json").read_text())["specs"]


def _grid(m, n=25):
    return sample_grid(m.domain, n)


def _exact_jets(m) -> tuple:
    """The exact jets of F and of the spec's g = C^{−1/2} (``MetricSpec.g_poly``),
    with float coefficients at their binary value.  g is C0^{−1/2}·e^{−εz/2} for
    C = C0·e^{εz} and ±(C5·e^{z/2} + C6·e^{−z/2}) for an Einstein C: every field
    but P± is homogeneous in g, so neither the scale nor the sign changes whether
    it vanishes."""
    F, g = (ExpPoly((k, Fraction(c)) for k, c in p.terms()) for p in (m.f_poly(), m.g_poly))
    return [F.derive(n) for n in range(5)], [g.derive(n) for n in range(4)]


def _exact_fields(m) -> dict:
    """Every curvature field but P± from the one kernel, run on ``_exact_jets``."""
    fj, g = _exact_jets(m)
    values = (
        curvature._scalar_from_jets(fj, g), curvature._scalar_prime_from_jets(fj, g),
        *curvature._tf_ricci_from_jets(fj, g), *curvature._weyl_from_jets(fj, g), *curvature._bach_from_jets(fj, g),
        *curvature._rho_from_jets(1, fj, g), *curvature._rho_from_jets(-1, fj, g),
    )
    names = (
        "s s1d ric0_a ric0_b w_plus w_minus w_plus_norm2 w_minus_norm2 bach_B1 bach_B2"
        " rho_Jplus rho_Jplus_mirror rho_Jminus rho_Jminus_mirror"
    )
    return dict(zip(names.split(), values, strict=True))


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
    # every helper also runs on exact ExpPoly jets, where a float literal would make a coefficient a float
    floats = [(f.name, n.value) for f in helpers for n in ast.walk(f) if isinstance(n, ast.Constant) and type(n.value) is float]
    assert floats == []


def test_kahler_forms_are_computed_only_on_request():
    # ρ± are not sampled, and the Kähler scalar curvature is 4ρ through the one ρ helper
    assert [f for f in CurvatureSample._fields if f.startswith("rho")] == []
    tree = ast.parse(inspect.getsource(curvature))
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert [n for n in ast.walk(defs["_sample"]) if isinstance(n, ast.Attribute) and n.attr == "tag"] == []
    assert "is None" not in ast.unparse(defs["_checked"])
    called = {n.func.id for n in ast.walk(defs["kahler_scalar_curvature"]) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert called == {"_kahler_sign", "_checked", "_rho_from_jets", "_jets"}


class TestFlat:
    def test_everything_vanishes(self):
        m = catalog_get("flat")
        for z in (-1.5, 0.0, 2.0):
            cs = curvature_sample(m, z)
            assert scalar_curvature(m, z) == pytest.approx(0.0, abs=1e-12)
            assert max(abs(v) for v in (cs.ric0_a, cs.ric0_b)) < 1e-12
            assert max(abs(v) for v in (cs.w_plus, cs.w_minus, cs.w_plus_norm2, cs.w_minus_norm2)) < 1e-12
            assert max(abs(v) for v in (cs.bach_B1, cs.bach_B2)) < 1e-12

    @pytest.mark.parametrize("z", [360.0, 400.0])
    def test_projection_survives_an_unrelated_component_out_of_range(self, z):
        # C = e^{-z}, so g = C^{-1/2} = e^{z/2}: g⁴ overflows past z ≈ 354.9 and g² only past
        # z ≈ 709.8, so Bach (0·g⁴) leaves float range there, but s and ρ± do not
        m = catalog_get("flat")
        with pytest.raises(ArithmeticError, match=f"^bach_B1 is not finite at z={z}$"):
            curvature_sample(m, z)
        assert scalar_curvature(m, z) == 0.0
        assert ricci_form_kahler(m, z) == (0.0, 0.0)

    def test_every_component_representable_where_c_is_large(self):
        # at z = -400, C = e^{400}: g = e^{-200} and g⁴ underflows to 0, so where C² would
        # overflow every field is finite and flat
        m = catalog_get("flat")
        cs = curvature_sample(m, -400.0)
        assert (cs.s, cs.ric0_a, cs.ric0_b, cs.bach_B1, cs.bach_B2) == (0.0,) * 5
        assert (cs.w_plus_norm2, cs.w_minus_norm2, cs.delW_plus_pot, cs.delW_minus_pot) == (0.0,) * 4

    @pytest.mark.parametrize("z,field", [
        (400.0, "bach_B1"),  # before: (nan, nan), g⁴ = inf times 0
        (600.0, "delW_plus_pot"),  # e^{900} overflows math.exp; it comes before bach_B1 in field order
    ])
    def test_float_result_is_finite_or_raises_by_name(self, z, field):
        with pytest.raises(ArithmeticError, match=f"^{field} is not finite at z={z}$"):
            curvature_sample(catalog_get("flat"), z)

    def test_float_and_array_raise_alike(self):
        # one finiteness rule for both carriers: the same field at the same z.
        # In the last case bach_B1 leaves float range first (z=400), but the
        # earlier field delW_plus_pot (z=500) is named, as on a float z
        m = catalog_get("flat")
        for f, z, zs, field in [
            (curvature_sample, 400.0, [300.0, 400.0], "bach_B1"),
            (curvature_sample, 500.0, [400.0, 500.0], "delW_plus_pot"),
        ]:
            with pytest.raises(ArithmeticError) as on_float:
                f(m, z)
            with pytest.raises(ArithmeticError) as on_array:
                f(m, np.array(zs))
            assert str(on_float.value) == str(on_array.value) == f"{field} is not finite at z={z}"


class TestTaubNut:
    def test_ricci_flat(self):
        m = catalog_get("taub-nut", {"m": 1.0})
        for z in _grid(m):
            cs = curvature_sample(m, z)
            assert max(abs(cs.ric0_a), abs(cs.ric0_b)) < 1e-10
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
        m = MetricSpec("t", canonical(2, -2, 0, 0), ExpFactor(1.0, -1), Domain(0.0, math.inf))
        assert m.tag == "Jplus"
        rho_plus, _ = ricci_form_kahler(m, 1.0)
        assert type(rho_plus) is float
        assert 4.0 * rho_plus == kahler_scalar_curvature(m, 1.0)


class TestWeylEnergy:
    def test_matches_direct_quadrature(self):
        m = catalog_get("taub-nut", {"m": 1.0})
        a, b = 0.5, 1.5
        got = weyl_energy(m, a, b)
        F = m.f_poly()
        integrand = l_op(1, F) - ExpPoly.constant(1)
        zs = np.linspace(a, b, 20001)
        vals = (16.0 / 3.0) * np.array([integrand.eval(z) for z in zs]) ** 2
        want = float(np.trapezoid(vals, zs))
        assert got == pytest.approx(want, rel=1e-8)

    def test_conformal_invariance(self):
        # the energy depends on F only, not on the conformal factor
        F = canonical(0.3, -0.4, 0.1, 0.0)
        d = Domain(-math.inf, math.inf)
        m1 = MetricSpec("a", F, ExpFactor(1.0, -1), d)
        m2 = MetricSpec("b", F, ExpFactor(7.0, +1), d)
        assert weyl_energy(m1, -1.0, 1.0) == pytest.approx(weyl_energy(m2, -1.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("a, b, bad", [(-5.0, 1.0, -5.0), (1.0, -0.5, -0.5), (0.5, math.nan, math.nan)])
    def test_endpoint_outside_the_domain_closure_raises(self, a, b, bad):
        # before: (-5, 1) on taub-nut's (0, ∞) returned 2.29e10
        with pytest.raises(OutOfDomainError, match=rf"^z={bad} outside domain"):
            weyl_energy(catalog_get("taub-nut"), a, b)

    @pytest.mark.parametrize("a, b", [(0.5, math.inf), (math.inf, 0.5)])
    def test_infinite_end_raises_value_error(self, a, b):
        # before: the end reached the integrand as nan and raised EvalOverflowError at z=nan
        with pytest.raises(ValueError, match="adaptive_quad needs finite ends"):
            weyl_energy(catalog_get("taub-nut"), a, b)

    def test_open_end_is_in_the_closure(self):
        m = catalog_get("taub-nut")
        assert weyl_energy(m, 0.0, 1.0) == pytest.approx(weyl_energy(m, 1e-300, 1.0), rel=1e-12)

    def test_zero_when_w_plus_vanishes(self):
        m = catalog_get("super-taub-nut")
        # F lives in the kernel of L+ minus constants, so the W+ energy is 0
        assert weyl_energy(m, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["taub-nut", "taub-bolt", "page"])
    def test_integrand_is_the_sampled_w_plus_energy(self, monkeypatch, name):
        # (16/3)(L⁺F − 1)² = |W⁺|²·C²/2, since |W⁺|² = (32/3)w⁺², w⁺ = −(L⁺F − 1)g² and g⁴C² = 1
        m = catalog_get(name)
        grid = sample_grid(m.domain, 64)
        integrands = []
        monkeypatch.setattr(curvature, "adaptive_quad", lambda f, a, b, tol: integrands.append(f) or 0.0)
        weyl_energy(m, grid[0], grid[-1])
        cs = curvature_sample(m, grid)
        want = cs.w_plus_norm2 * cs.C * cs.C / 2
        got = np.array([integrands[0](z) for z in grid])
        # L⁺F − 1 from the exact polynomial or from F's float jet: a few ulp of the largest value apart
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(want)) > 1.0

    def test_integrand_has_integer_literals(self):
        # the last copy of a kernel formula outside the _…_from_jets helpers is written as they are
        tree = ast.parse(inspect.getsource(curvature.weyl_energy))
        integrand = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "integrand")
        assert sorted([n.value for n in ast.walk(integrand) if isinstance(n, ast.Constant)]) == [3, 16]


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
            if m.tag in ("Jplus", "Jminus"):
                rho = ricci_form_kahler(m, z)
                # ρ of the Kähler orientation is s/4
                assert 4.0 * rho[m.tag == "Jminus"] == kahler_scalar_curvature(m, z)
            else:
                with pytest.raises(NotKahlerError):
                    kahler_scalar_curvature(m, z)
                with pytest.raises(NotKahlerError):
                    ricci_form_kahler(m, z)

    def test_constant_on_half_harmonic_plus_metric(self):
        # page is tagged half_harmonic_plus with W⁺ ≠ 0 (it is not asd)
        m = catalog_get("page")
        rep = classify(m)
        assert rep.verdict("half_harmonic_plus") == "yes" and rep.verdict("asd") == "no"
        pots = [curvature_sample(m, z).delW_plus_pot for z in sample_grid(m.domain, 32)]
        assert abs(pots[0]) > 1e-3
        assert max(pots) - min(pots) <= 1e-12 * abs(pots[0])


class TestEinsteinCertificate:
    """On the canonical family with g = C5·e^{z/2} + C6·e^{−z/2}, Einstein is
    max(|C1C5 − C2C6|, |C3C5 − C4C6|) = 0, a hand-derived oracle for the one
    tf-Ric kernel: run on exact jets (``_exact_jets``), it must vanish
    identically exactly when the oracle is 0, and classify's einstein residual,
    the kernel's largest |coefficient| with g over its largest |coefficient|,
    is twice the oracle at that (C5, C6) (ric0_b = 2g·Q, whose Q has the
    oracle's entries).  C0·e^{∓z} enters as the pair (1, 0) or (0, 1), whose
    g = e^{±z/2} is C^{−1/2} up to the constant C0^{−1/2}."""

    @staticmethod
    def _kernel_vanishes(coeffs, c5, c6) -> bool:
        m = MetricSpec("t", canonical(*coeffs), EinsteinFactor(c5, c6), Domain(-math.inf, math.inf))
        ric0_a, ric0_b = curvature._tf_ricci_from_jets(*_exact_jets(m))
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
        certificate = self._certificate(coeffs, c5 / max(abs(c5), abs(c6)), c6 / max(abs(c5), abs(c6)))
        assert self._kernel_vanishes(coeffs, c5, c6) == (certificate == 0)
        assert classify(m).residual("einstein") == float(2 * certificate)

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


class TestExactKernel:
    """The kernel on exact jets of every catalog entry (``_exact_jets``): each
    field but P± is an exact ExpPoly, and a field that vanishes identically
    agrees with classify's default verdict.  The disagreements are pinned, so
    a verdict that gets fixed must leave the list."""

    IDENTITIES = {
        "zsc": ("s",),
        "csc": ("s1d",),
        "einstein": ("ric0_a", "ric0_b"),
        "ricci_flat": ("s", "ric0_a", "ric0_b"),
        "sd": ("w_minus",),
        "asd": ("w_plus",),
        "bach_flat": ("bach_B1", "bach_B2"),
    }
    # s ≡ 0 exactly at every Λ, but the grid residual of about 3.1e-5 says no (ROADMAP item 1)
    DISAGREE = {("taub-nut-lambda", p) for p in ("zsc", "csc", "ricci_flat")}

    @pytest.mark.parametrize("name", catalog_names())
    def test_every_field_but_the_potentials_is_exact(self, name):
        for field, value in _exact_fields(catalog_get(name)).items():
            assert isinstance(value, ExpPoly) and value.is_exact, field

    def test_vanishing_fields_agree_with_classify(self):
        disagree = set()
        for name in catalog_names():
            m = catalog_get(name)
            fields, rep = _exact_fields(m), classify(m)
            for p, names in self.IDENTITIES.items():
                if all(fields[n].is_zero for n in names) != (rep.verdict(p) == "yes"):
                    disagree.add((name, p))
        assert disagree == self.DISAGREE


class _Magnitude:
    """A float or array standing for Σ|term|: every operation adds or multiplies the
    magnitudes, so a kernel helper run on termwise magnitudes of the jets gives the
    termwise magnitude of its field."""

    __array_ufunc__ = None  # an array operand defers to these methods

    def __init__(self, v):
        self.v = np.abs(v)

    def _mag(self, other):
        return other.v if isinstance(other, _Magnitude) else np.abs(other)

    def __add__(self, other):
        return _Magnitude(self.v + self._mag(other))

    def __mul__(self, other):
        return _Magnitude(self.v * self._mag(other))

    def __truediv__(self, other):
        return _Magnitude(self.v / self._mag(other))

    def __neg__(self):
        return self

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__


def _termwise(poly, z, order: int) -> list:
    """Σ|c·kⁿ·e^{kz}| over poly's terms for n = 0..order, the README's termwise bound over 8ε."""
    return [sum(abs(float(c) * float(k) ** n) * np.exp(float(k) * z) for k, c in poly.terms()) for n in range(order + 1)]


def _ratio_twin(m):
    """m with the same C given as a C ratio, whose g is √u with u = den/num:
    num and den are both multiplied by 1 + e^z, so neither is a single term."""
    w = ExpPoly([(0, 1), (1, 1)])
    return MetricSpec(m.name, m.F, RatioFactor(*(p * w for p in factor_ratio(m.C))), m.domain)


class TestTermwiseG:
    """g = C^{−1/2} of an Exp or Einstein C is an ExpPoly, evaluated term by term."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _mp(c):
        return mpmath.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mpmath.mpf(c)

    def _reference(self, m, z) -> tuple:
        """g, g′, g″, g‴ and s′ at z to 50 digits: g differentiated numerically as
        C^{−1/2} from C = e^{−z}/(C5 + C6·e^{−z})², and s′ the kernel on those jets."""
        with mpmath.workdps(50):
            c5, c6 = self._mp(m.C.c5), self._mp(m.C.c6)
            F = lambda x: sum(self._mp(c) * mpmath.exp(self._mp(k) * x) for k, c in m.f_poly().terms())
            g = lambda x: (mpmath.exp(-x) / (c5 + c6 * mpmath.exp(-x)) ** 2) ** mpmath.mpf(-0.5)
            fj = [mpmath.diff(F, mpmath.mpf(z), n) for n in range(5)]
            gj = [mpmath.diff(g, mpmath.mpf(z), n) for n in range(4)]
            return [float(v) for v in gj] + [float(curvature._scalar_prime_from_jets(fj, gj))]

    def _bounds(self, m, z) -> list:
        """8ε·Σ|c·kⁿ·e^{kz}| for g's jet, and for s′ the same over the terms of s′
        expanded as a sum of products of F's and g's terms."""
        fm = [_Magnitude(v) for v in _termwise(m.f_poly(), z, 4)]
        gm = _termwise(m.g_poly, z, 3)
        s1m = curvature._scalar_prime_from_jets(fm, [_Magnitude(v) for v in gm]).v
        return [8 * self.EPS * v for v in (*gm, s1m)]

    @pytest.mark.parametrize("name, points, ratio_factor", [
        # its classify grid point z = −0.01246, next to g's zero at the bolt z = 0: the u path's g‴ is off by 1.53e7
        ("taub-bolt", slice(-2, -1), 2e7),
        ("taub-nut", slice(None), 2.5e4),  # its classify grid: 1.88e4 at the worst point
    ])
    def test_jets_meet_the_termwise_bound(self, name, points, ratio_factor):
        m = catalog_get(name)
        worst_ratio = 0.0
        for z in sample_grid(m.domain, 64)[points].tolist():
            want, bound = self._reference(m, z), self._bounds(m, z)
            fj, (_, g) = jet_F(m, z), jet_C(m, z)
            got = [*g, curvature._scalar_prime_from_jets(fj, g)]
            assert [abs(a - b) <= e for a, b, e in zip(got, want, bound)] == [True] * 5, (z, got, want, bound)
            assert curvature_sample(m, z).s1d == got[4]
            g_ratio = jet_C(_ratio_twin(m), z)[1]
            worst_ratio = max(worst_ratio, abs(g_ratio[3] - want[3]) / bound[3])
        # the u path, which a C ratio other than one of single terms takes, misses the bound
        # on g‴ by orders of magnitude near g's zero
        assert 1e3 < worst_ratio < ratio_factor


class TestForks:
    """An Exp or Einstein C and the same C as a C ratio: the g path and the u path
    give every curvature_sample field on the classify grid to 1e-7 of its
    termwise magnitude.  The u path's g‴ is off by up to 2.5e7 × 8ε ≈ 4e-8 of
    its magnitude (at taub-bolt's z ≈ −0.011, see TestTermwiseG), the g path's by
    less than 8ε, and no field has degree above 4 in g's jet."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_g_path_and_ratio_path_agree(self, name):
        m = catalog_get(name)
        z = sample_grid(m.domain, 64)
        ours, ratio = curvature_sample(m, z), curvature_sample(_ratio_twin(m), z)
        fm = [_Magnitude(v) for v in _termwise(m.f_poly(), z, 4)]
        gm = [_Magnitude(v) for v in _termwise(m.g_poly, z, 3)]
        g = np.sqrt(1 / ours.C)  # |g|: C, C′ and C″ are measured against C = g⁻² itself
        scale = dict(zip(
            "s s1d ric0_a ric0_b w_plus w_minus w_plus_norm2 w_minus_norm2 delW_plus_pot delW_minus_pot bach_B1 bach_B2".split(),
            (curvature._scalar_from_jets(fm, gm), curvature._scalar_prime_from_jets(fm, gm), *curvature._tf_ricci_from_jets(fm, gm),
             *curvature._weyl_from_jets(fm, gm), curvature._delta_w_from_jets(1, z, fm, [g]),
             curvature._delta_w_from_jets(-1, z, fm, [g]), *curvature._bach_from_jets(fm, gm)),
            strict=True,
        ))
        scale = {k: v.v for k, v in scale.items()}
        scale.update(C=ours.C, C1d=ours.C * 2 * gm[1].v / g, C2d=ours.C * (6 * gm[1].v ** 2 + 2 * g * gm[2].v) / g ** 2)
        for field, mag in scale.items():
            diff = np.abs(getattr(ours, field) - getattr(ratio, field))
            assert np.all(diff <= 1e-7 * mag), (field, float(np.max(diff / mag)))
        assert [getattr(ours, f).tolist() for f in ("z", "F", "F1d", "F2d", "F3d", "F4d")] == [
            getattr(ratio, f).tolist() for f in ("z", "F", "F1d", "F2d", "F3d", "F4d")]


class TestRatioPath:
    """A C ratio whose num or den has more than one term keeps C = num/den, and its g
    is √u with u = den/num; on an array it is the same formulas on num's and den's
    array jets."""

    SPECS = [_ratio_twin(catalog_get(n)) for n in catalog_names()] + [
        MetricSpec("r", canonical(0, 0, 0, 0), RatioFactor(ExpPoly([(0, 1), (1, 0.3)]), ExpPoly([(0, 2), (-2, 1)])), Domain(-1.0, 1.0))
    ]

    @pytest.mark.parametrize("m", SPECS, ids=lambda m: m.name)
    def test_c_is_conformal_value_bit_for_bit(self, m):
        z = sample_grid(m.domain, 64)
        assert m.g_poly is None
        assert jet_C(m, z)[0][0].tobytes() == conformal_value(m, z).tobytes()
        assert [jet_C(m, x)[0][0] for x in z.tolist()] == [conformal_value(m, x) for x in z.tolist()]

    @pytest.mark.parametrize("name", catalog_names())
    def test_array_jet_is_within_1e_7_of_the_termwise_magnitude_of_the_float_jet(self, name):
        # the twin's g equals the entry's termwise g, whose Σ|c·kⁿ·e^{kz}| is the magnitude; the worst
        # is g‴ next to taub-bolt's zero of g, at about 2.2e-9 of it
        m = catalog_get(name)
        twin, z = _ratio_twin(m), sample_grid(m.domain, 64)
        c, g = jet_C(twin, z)
        floats = np.array([(*fc, *fg) for fc, fg in (jet_C(twin, x) for x in z.tolist())]).T
        gm = _termwise(m.g_poly, z, 3)
        root = np.sqrt(1 / c[0])
        cm = [c[0], c[0] * 2 * gm[1] / root, c[0] * (6 * gm[1] ** 2 + 2 * root * gm[2]) / root**2]
        for k, (entry, mag) in enumerate(zip((*c, *g), (*cm, *gm))):
            diff = np.abs(entry - floats[k])
            assert np.all(diff <= 1e-7 * mag), (k, float(np.max(diff / mag)))


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


# the other helpers as they were written with float literals, before they ran on exact jets
def _scalar_literal(fj, g):
    return -4.0 * g[0] * g[0] * (fj[2] + 0.5 * fj[0] - 2.0) + 24.0 * (
        fj[1] * g[0] * g[1] + fj[0] * (g[0] * g[2] - 2.0 * g[1] * g[1])
    )


def _scalar_prime_literal(fj, g):
    return (
        -8.0 * g[0] * g[1] * (fj[2] + 0.5 * fj[0] - 2.0)
        - 4.0 * g[0] * g[0] * (fj[3] + 0.5 * fj[1])
        + 24.0 * (
            fj[2] * g[0] * g[1] - fj[1] * g[1] * g[1] + 2.0 * fj[1] * g[0] * g[2]
            - 3.0 * fj[0] * g[1] * g[2] + fj[0] * g[0] * g[3]
        )
    )


def _weyl_literal(fj, g):
    w_plus = -(l_op_jet(1, fj) - 1.0) * g[0] * g[0]
    w_minus = -(l_op_jet(-1, fj) - 1.0) * g[0] * g[0]
    return w_plus, w_minus, (32.0 / 3.0) * w_plus * w_plus, (32.0 / 3.0) * w_minus * w_minus


def _bach_literal(fj, g):
    g4 = g[0] * g[0] * g[0] * g[0]
    return (16.0 / 3.0) * g4 * fj[0] * (l_compose_jet(fj) - 1.0), (8.0 / 3.0) * g4 * b_op_jet(fj)


def _rho_literal(tag, fj, g):
    g2 = g[0] * g[0]
    if tag == "Jplus":
        return -(2.0 * g2) * (l_op_jet(1, fj) - 1.0), -(2.0 * g2) * ((-0.5 * fj[2] + 0.5 * fj[1] + fj[0]) - 1.0)
    return -(2.0 * g2) * ((-0.5 * fj[2] - 0.5 * fj[1] + fj[0]) - 1.0), -(2.0 * g2) * (l_op_jet(-1, fj) - 1.0)


def _ulps(x: float, y: float) -> int:
    def ordinal(v):
        i = struct.unpack("<q", struct.pack("<d", v))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(ordinal(x) - ordinal(y))


# narrower than _entries, so that no product of six entries overflows or is subnormal
_moderate = st.floats(min_value=1e-30, max_value=1e30)
_moderate_entries = st.one_of(st.just(0.0), _moderate, _moderate.map(lambda x: -x))


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[_moderate_entries] * 5), st.tuples(*[_moderate_entries] * 4))
def test_integer_literals_keep_the_float_bits(fj, g):
    # x / 2 rounds as 0.5 * x does; a factor of a third may move the last bits
    def bits(values):
        return [struct.pack("<d", v) for v in values]

    weyl_new, weyl_old = curvature._weyl_from_jets(fj, g), _weyl_literal(fj, g)
    same = [
        (curvature._scalar_from_jets(fj, g), _scalar_literal(fj, g)),
        (curvature._scalar_prime_from_jets(fj, g), _scalar_prime_literal(fj, g)),
        *zip(weyl_new[:2], weyl_old[:2]),
        *zip(curvature._rho_from_jets(1, fj, g), _rho_literal("Jplus", fj, g)),
        *zip(curvature._rho_from_jets(-1, fj, g)[::-1], _rho_literal("Jminus", fj, g)),
        # the Kähler shortcut as it was written
        (4 * curvature._rho_from_jets(1, fj, g)[0], -(8.0 * g[0] * g[0]) * (l_op_jet(1, fj) - 1.0)),
        (4 * curvature._rho_from_jets(-1, fj, g)[0], -(8.0 * g[0] * g[0]) * (l_op_jet(-1, fj) - 1.0)),
    ]
    assert bits(new for new, _ in same) == bits(old for _, old in same)
    close = [*zip(weyl_new[2:], weyl_old[2:]), *zip(curvature._bach_from_jets(fj, g), _bach_literal(fj, g))]
    assert max(_ulps(new, old) for new, old in close) <= 4
