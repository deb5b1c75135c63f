"""Second-order operators, their composition, and the first integral."""
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

from u2metrics import operators
from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.exppoly import ExpPoly
from u2metrics.operators import (
    b_op,
    b_op_jet,
    first_integral_residual,
    l_compose,
    l_compose_jet,
    l_minus,
    l_op_jet,
    l_plus,
)
from u2metrics.profiles import canonical


def _eig_plus(k):
    return Fraction((k - 1) * (k - 2), 2)


def _eig_minus(k):
    return Fraction((k + 1) * (k + 2), 2)


class TestEigenvalues:
    @pytest.mark.parametrize("k", range(-4, 5))
    def test_l_plus_eigenvalue(self, k):
        p = ExpPoly.exp_term(k, 1)
        assert l_plus(p) == p * _eig_plus(k)

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_l_minus_eigenvalue(self, k):
        p = ExpPoly.exp_term(k, 1)
        assert l_minus(p) == p * _eig_minus(k)

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_compose_eigenvalue(self, k):
        p = ExpPoly.exp_term(k, 1)
        eig = Fraction((k * k - 1) * (k * k - 4), 4)
        assert l_compose(p) == p * eig

    def test_compose_kernel_is_canonical_family(self):
        for k in (-2, -1, 1, 2):
            assert l_compose(ExpPoly.exp_term(k, Fraction(3, 7))).is_zero
        assert l_compose(ExpPoly.exp_term(3, 1)) == ExpPoly.exp_term(3, 10)


class TestCanonicalIdentities:
    def test_compose_on_canonical_is_one(self):
        rng = random.Random(7)
        for _ in range(20):
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            F = canonical(*cs)
            assert l_compose(F) == ExpPoly.constant(1)

    def test_b_on_canonical_is_constant(self):
        rng = random.Random(11)
        for _ in range(20):
            c1, c2, c3, c4 = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
            val = b_op(canonical(c1, c2, c3, c4))
            assert val == ExpPoly.constant(3 * (c2 * c3 - c1 * c4))

    def test_first_integral_exact_zero_on_canonical(self):
        F = canonical(Fraction(1, 3), -2, Fraction(5, 7), 4)
        assert first_integral_residual(F, [0.0]) == 0.0


_coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=6)
_polys = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3), _coeffs), min_size=1, max_size=4
).map(ExpPoly)


@settings(max_examples=60, deadline=None)
@given(_polys)
def test_first_integral_identity_holds_for_all_profiles(F):
    # d/dz B(F,F) = 2 F' (L+L-(F) - 1) as exponential polynomials
    lhs = b_op(F).derive()
    rhs = 2 * F.derive() * (l_compose(F) - ExpPoly.constant(1))
    assert (lhs - rhs).is_zero


class TestJetForms:
    def test_jet_forms_match_polynomials(self):
        F = ExpPoly([(0, 1), (3, Fraction(1, 5)), (-1, Fraction(-2, 3))])
        z = 0.43
        jet = F.jet(z, 4)
        got_plus = l_op_jet("+", jet)
        got_compose = l_compose_jet(jet)
        got_b = b_op_jet(jet)
        assert got_plus == pytest.approx(l_plus(F).eval(z), rel=1e-12)
        assert got_compose == pytest.approx(l_compose(F).eval(z), rel=1e-12)
        assert got_b == pytest.approx(b_op(F).eval(z), rel=1e-12)



class TestOneImplementation:
    """Each of L±, L⁺L⁻ and B is written once, as a jet form that serves floats,
    arrays and ExpPolys alike."""

    @staticmethod
    def _functions():
        tree = ast.parse(inspect.getsource(operators))
        return {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def test_exact_forms_apply_the_jet_forms(self):
        functions = self._functions()
        for name in ("l_op", "l_compose", "b_op"):
            ops = [ast.unparse(n) for n in ast.walk(functions[name]) if isinstance(n, ast.BinOp)]
            assert ops == [], (name, ops)

    def test_jet_forms_have_no_float_literal(self):
        # a float literal would turn an exact ExpPoly coefficient into a float
        functions = self._functions()
        for name in ("_l_op", "l_op_jet", "l_compose_jet", "b_op_jet"):
            constants = [n.value for n in ast.walk(functions[name]) if isinstance(n, ast.Constant)]
            floats = [v for v in constants if type(v) is float]
            assert floats == [], (name, floats)

    def test_jet_forms_stay_exact_on_exppoly_jets(self):
        F = ExpPoly([(0, 1), (3, Fraction(1, 5)), (Fraction(-1, 2), Fraction(-2, 3))])
        jet = tuple(F.derive(n) for n in range(5))
        for value in (l_op_jet("+", jet), l_op_jet("-", jet), l_compose_jet(jet), b_op_jet(jet)):
            assert isinstance(value, ExpPoly) and value.is_exact
        assert l_op_jet("+", jet) == l_plus(F) and l_op_jet("-", jet) == l_minus(F)
        assert l_compose_jet(jet) == l_compose(F) and b_op_jet(jet) == b_op(F)


# the jet forms as they were written with float literals, before one body served every carrier
def _l_op_literal(sign, jet):
    return 0.5 * jet[2] - 1.5 * sign * jet[1] + jet[0]


def _l_compose_literal(jet):
    return 0.25 * jet[4] - 1.25 * jet[2] + jet[0]


def _b_op_literal(jet):
    f, f1, f2, f3 = jet[0], jet[1], jet[2], jet[3]
    lp = 0.5 * f2 - 1.5 * f1 + f
    lp1 = 0.5 * f3 - 1.5 * f2 + f1
    return (-0.5 * f2 + 1.5 * f1 + f - 1.0) * (lp - 1.0) + f1 * lp1


def _bits(x) -> bytes:
    return struct.pack("<d", x)


_magnitudes = st.floats(min_value=1e-300, max_value=1e300)
_entries = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda x: -x))
_jets = st.tuples(*[_entries] * 5)


class TestBitIdentity:
    """On floats and arrays the integer-literal forms give the literal forms' bits."""

    @settings(max_examples=400, deadline=None)
    @given(_jets)
    def test_float_jets(self, jet):
        for sign, name in ((1, "+"), (-1, "-")):
            assert _bits(l_op_jet(name, jet)) == _bits(_l_op_literal(sign, jet))
        assert _bits(l_compose_jet(jet)) == _bits(_l_compose_literal(jet))
        assert _bits(b_op_jet(jet)) == _bits(_b_op_literal(jet))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_jets, min_size=1, max_size=8))
    def test_array_jets(self, jets):
        with np.errstate(all="ignore"):
            jet = tuple(np.array(column) for column in zip(*jets))
            pairs = [(l_op_jet(1, jet), _l_op_literal(1, jet)), (l_op_jet(-1, jet), _l_op_literal(-1, jet)),
                     (l_compose_jet(jet), _l_compose_literal(jet)), (b_op_jet(jet), _b_op_literal(jet))]
        for got, want in pairs:
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        for i, one in enumerate(jets):  # and each entry is the float form's
            assert _bits(b_op_jet(one)) == pairs[3][0][i].tobytes()


PINS = json.loads((pathlib.Path(__file__).parent / "data" / "operator_pins.json").read_text())


def _encode(poly):
    """A poly's terms as in operator_pins.json: exact numbers as strings, floats as numbers."""
    return [[str(k), str(c) if isinstance(c, Fraction) else c] for k, c in poly.terms()]


@pytest.mark.parametrize("pin", PINS["specs"], ids=[p["name"] for p in PINS["specs"]])
def test_operator_polys_match_pins(pin):
    # recorded when the exact forms had Fraction constants of their own
    m = catalog_get(pin["name"])
    assert [_encode(p) for p in m.operator_polys] == pin["operator_polys"]
    assert _encode(b_op(m.f_poly())) == pin["b_op"]
    f = m.f_poly()
    assert (l_plus(f) - 1, l_minus(f) - 1, l_compose(f) - 1) == m.operator_polys


def test_pins_cover_the_catalog():
    assert [p["name"] for p in PINS["specs"]] == list(catalog_names())
