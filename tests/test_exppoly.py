"""Exact exponential-polynomial arithmetic."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2metrics.exppoly import EvalOverflowError, ExpPoly, ExpPolyError


class TestConstruction:
    def test_zero_coefficients_pruned(self):
        p = ExpPoly([(1, 0), (2, 3)])
        assert p.exponents() == (Fraction(2),)

    def test_like_terms_combine(self):
        p = ExpPoly([(1, Fraction(1, 2)), (1, Fraction(1, 2))])
        assert p.coefficient(1) == 1

    def test_half_integer_exponents_allowed(self):
        p = ExpPoly([(Fraction(3, 2), 1)])
        assert p.exponents() == (Fraction(3, 2),)

    def test_third_integer_exponent_rejected(self):
        with pytest.raises(ExpPolyError):
            ExpPoly([(Fraction(1, 3), 1)])

    def test_immutable(self):
        p = ExpPoly.constant(1)
        with pytest.raises(AttributeError):
            p._terms = ()

    def test_zero_and_constant(self):
        assert ExpPoly.zero().is_zero
        assert ExpPoly.constant(5).eval(1.7) == 5.0


class TestArithmetic:
    def test_product_of_conjugates(self):
        a = ExpPoly([(0, 1), (1, 1)])
        b = ExpPoly([(0, 1), (1, -1)])
        assert (a * b) == ExpPoly([(0, 1), (2, -1)])

    def test_scalar_multiplication(self):
        p = ExpPoly([(1, Fraction(2))])
        assert (p * Fraction(1, 2)).coefficient(1) == 1
        assert (3 * p).coefficient(1) == 6

    def test_subtraction_to_zero(self):
        p = ExpPoly([(2, 5), (-1, 3)])
        assert (p - p).is_zero

    def test_exact_rational_arithmetic_stays_exact(self):
        p = ExpPoly([(1, Fraction(1, 3)), (-1, Fraction(2, 7))])
        q = p * p - p
        assert q.is_exact

    def test_derive_eigenvalue(self):
        p = ExpPoly.exp_term(Fraction(5, 2), 2)
        d = p.derive()
        assert d.coefficient(Fraction(5, 2)) == 5

    def test_derive_order(self):
        p = ExpPoly([(3, 1), (-2, 1)])
        assert p.derive(2) == ExpPoly([(3, 9), (-2, 4)])

    def test_extreme_exponent(self):
        p = ExpPoly([(-2, 1), (0, 1), (Fraction(3, 2), 1)])
        assert p.extreme_exponent(+1) == Fraction(3, 2)
        assert p.extreme_exponent(-1) == Fraction(-2)
        assert ExpPoly.zero().extreme_exponent(+1) is None


class TestEval:
    def test_eval_matches_math_exp(self):
        p = ExpPoly([(2, 3), (-1, Fraction(1, 2))])
        z = 0.37
        assert p.eval(z) == pytest.approx(3 * math.exp(2 * z) + 0.5 * math.exp(-z), rel=1e-15)

    def test_eval_overflow_raises(self):
        p = ExpPoly.exp_term(2, 1)
        with pytest.raises(EvalOverflowError):
            p.eval(1000.0)

    def test_jet_first_entry_is_value(self):
        p = ExpPoly([(1, 2), (-3, 1)])
        j = p.jet(0.4, 4)
        assert j[0] == pytest.approx(p.eval(0.4), rel=1e-15)
        assert j[1] == pytest.approx(p.derive().eval(0.4), rel=1e-15)
        assert len(j) == 5


_coeffs = st.fractions(
    min_value=-3, max_value=3, max_denominator=8
)
_exponents = st.sampled_from([Fraction(k, 2) for k in range(-6, 7)])
_polys = st.lists(st.tuples(_exponents, _coeffs), min_size=0, max_size=5).map(ExpPoly)
_zs = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(_polys, _polys, _zs)
def test_product_eval_is_eval_product(a, b, z):
    lhs = (a * b).eval(z)
    rhs = a.eval(z) * b.eval(z)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


@settings(max_examples=80, deadline=None)
@given(_polys, _polys)
def test_derivative_is_linear(a, b):
    assert (a + b).derive() == a.derive() + b.derive()


@settings(max_examples=80, deadline=None)
@given(_polys, _polys)
def test_product_rule(a, b):
    assert (a * b).derive() == a.derive() * b + a * b.derive()


@settings(max_examples=60, deadline=None)
@given(_polys, _zs)
def test_jet_matches_derivatives(p, z):
    j = p.jet(z, 4)
    for order in range(5):
        want = p.derive(order).eval(z) if order else p.eval(z)
        assert j[order] == want


def _reference_jet(p, z, order):
    """Each derivative summed term by term in exponent order from the exact
    coefficient: Σ float(c·kⁿ)·exp(float(k)·z) over the nonzero c·kⁿ."""
    out = []
    for n in range(order + 1):
        total = 0.0
        for k, c in p.terms():
            cn = c * k**n
            if cn != 0:
                total += float(cn) * math.exp(float(k) * z)
        out.append(total)
    return tuple(out)


@settings(max_examples=120, deadline=None)
@given(_polys, _zs, st.integers(min_value=0, max_value=7))
def test_jet_is_bit_identical_to_reference(p, z, order):
    want = _reference_jet(p, z, order)
    assert p.jet(z, order) == want
    assert p.eval(z) == want[0]


class TestOverflowExponent:
    def _exponents(self, p, z):
        got = []
        with pytest.raises(EvalOverflowError) as err:
            p.eval(z)
        got.append(err.value.exponent)
        for order in range(5):
            with pytest.raises(EvalOverflowError) as err:
                p.jet(z, order)
            got.append(err.value.exponent)
        return got

    def test_first_overflowing_term_in_exponent_order(self):
        p = ExpPoly([(-1, 1), (2, 1), (3, 1)])
        assert self._exponents(p, 1000.0) == [Fraction(2)] * 6

    def test_negative_z_names_the_most_negative_exponent(self):
        p = ExpPoly([(-2, 1), (Fraction(-1, 2), 3), (1, 1)])
        assert self._exponents(p, -1000.0) == [Fraction(-2)] * 6

    def test_overflowing_sum_names_the_extreme_exponent(self):
        p = ExpPoly([(1, 1e308), (2, 1e308)])
        assert self._exponents(p, 0.0) == [Fraction(1)] * 6
        assert self._exponents(p, 0.1) == [Fraction(2)] * 6

    def test_derivative_only_overflow(self):
        # at z=0.4 the value 5e307·e^0.8 is finite, its derivative is not
        p = ExpPoly([(0, 1), (2, 5e307)])
        assert math.isfinite(p.eval(0.4))
        with pytest.raises(EvalOverflowError) as want:
            p.derive(1).eval(0.4)
        assert want.value.exponent == Fraction(2)
        for order in range(1, 5):
            with pytest.raises(EvalOverflowError) as err:
                p.jet(0.4, order)
            assert err.value.exponent == Fraction(2)


def test_equality_and_hash_ignore_evaluation_cache():
    p = ExpPoly([(2, Fraction(3, 4)), (-1, Fraction(1, 2)), (0, 1)])
    q = ExpPoly([(0, 1), (-1, Fraction(1, 2)), (2, Fraction(3, 4))])
    h = hash(p)
    p.eval(0.3)
    p.jet(-0.7, 6)
    assert p == q and q == p
    assert hash(p) == h == hash(q)
    assert len({p, q}) == 1
    assert ExpPoly.constant(5).jet(1.0, 2) == (5.0, 0.0, 0.0)
    assert ExpPoly.constant(5) == 5
