"""Second-order operators, their composition, and the first integral."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from u2metrics.profiles import Canonical


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
            F = Canonical(*cs).expand()
            assert l_compose(F) == ExpPoly.constant(1)

    def test_b_on_canonical_is_constant(self):
        rng = random.Random(11)
        for _ in range(20):
            c1, c2, c3, c4 = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
            val = b_op(Canonical(c1, c2, c3, c4).expand())
            assert val == ExpPoly.constant(3 * (c2 * c3 - c1 * c4))

    def test_first_integral_exact_zero_on_canonical(self):
        F = Canonical(Fraction(1, 3), -2, Fraction(5, 7), 4).expand()
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

