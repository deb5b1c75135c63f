"""Profiles, domains, and conformal-factor models."""
import math
from fractions import Fraction

import numpy as np
import pytest

from u2metrics.exppoly import ExpPoly
from u2metrics.profiles import (
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
    OutOfDomainError,
    RatioFactor,
    SingularConformalFactorError,
    canonical,
    canonical_coefficients,
    conformal_value,
    factor_ratio,
    jet_C,
    jet_F,
)


class TestCanonical:
    def test_expand_weights(self):
        p = canonical(2, 3, 5, 7)
        assert isinstance(p, ExpPoly)
        assert p.coefficient(-2) == 1  # half of C1
        assert p.coefficient(-1) == 3
        assert p.coefficient(0) == 1
        assert p.coefficient(1) == 5
        assert p.coefficient(2) == Fraction(7, 2)

    def test_coefficients_roundtrip(self):
        cs = (Fraction(-1, 4), Fraction(1, 4), Fraction(-9, 4), Fraction(9, 4))
        assert canonical_coefficients(canonical(*cs)) == cs

    def test_zero_coefficients_read_back_as_exact_zero(self):
        p = canonical(-0.0, -1.0, 0, 0.0)
        assert p.exponents() == (-1, 0)
        cs = canonical_coefficients(p)
        assert cs == (0, -1.0, 0, 0)
        assert [type(c) for c in cs] == [Fraction, float, Fraction, Fraction]

    def test_non_canonical_poly_gives_none(self):
        assert canonical_coefficients(ExpPoly([(0, 1), (3, 1)])) is None


class TestDomain:
    def test_contains(self):
        d = Domain(0.0, 1.0, lo_closed=True, hi_closed=False)
        assert d.contains(0.0)
        assert d.contains(0.5)
        assert not d.contains(1.0)
        assert not d.contains(-0.1)

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            Domain(2.0, 1.0)

    def test_finite_window_of_halfline(self):
        lo, hi = Domain(0.0, math.inf).finite_window()
        assert lo == 0.0 and hi == 8.0

    def test_finite_window_of_line(self):
        lo, hi = Domain(-math.inf, math.inf).finite_window()
        assert (lo, hi) == (-4.0, 4.0)


class TestConformalModels:
    def test_exp_factor_validation(self):
        with pytest.raises(ValueError):
            ExpFactor(-1.0, -1)
        with pytest.raises(ValueError):
            ExpFactor(1.0, 2)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficients_are_rejected(self, value):
        for make in (
            lambda: canonical(value, -2, 0, 0),
            lambda: ExpFactor(value, -1),
            lambda: EinsteinFactor(value, 1.0),
            lambda: EinsteinFactor(1.0, value),
        ):
            with pytest.raises(ValueError, match="non-finite coefficient"):
                make()

    @pytest.mark.parametrize("value", [10**400, Fraction(-(10**400), 3)], ids=["integer", "fraction"])
    def test_exact_coefficients_without_float_value_are_rejected(self, value):
        # before: each built, and its first evaluation raised a bare OverflowError
        for make in (
            lambda: canonical(value, -2, 0, 0),
            lambda: ExpFactor(value, -1),
            lambda: EinsteinFactor(value, 1.0),
            lambda: EinsteinFactor(1.0, value),
        ):
            with pytest.raises(ValueError, match="^exact coefficient is too large for a float$"):
                make()

    def test_exp_factor_scale_without_float_value_is_rejected(self):
        # before: it built, and every C evaluation raised "C(z)=0.0 is not positive and finite"
        with pytest.raises(ValueError, match="^exact coefficient is too small for a float$"):
            ExpFactor(Fraction(1, 10**400), -1)
        assert ExpFactor(5e-324, -1).c0 == 5e-324  # a subnormal C0 has a float C0^{−1/2}

    def test_exp_factor_value(self):
        m = MetricSpec("t", canonical(0, 0, 0, 0), ExpFactor(3.0, -1), Domain(-2, 2))
        assert conformal_value(m, 0.5) == pytest.approx(3.0 * math.exp(-0.5), rel=1e-15)

    def test_einstein_factor_value(self):
        m = MetricSpec("t", canonical(0, 0, 0, 0), EinsteinFactor(0.25, -0.25), Domain(-2, -0.1))
        z = -1.0
        want = math.exp(-z) / (0.25 - 0.25 * math.exp(-z)) ** 2
        assert conformal_value(m, z) == pytest.approx(want, rel=1e-14)

    def test_einstein_factor_pole_raises(self):
        m = MetricSpec(
            "t", canonical(0, 0, 0, 0), EinsteinFactor(1.0, -1.0), Domain(-2.0, 2.0)
        )
        with pytest.raises(SingularConformalFactorError):
            conformal_value(m, 0.0)

    def test_factor_ratio_exp(self):
        num, den = factor_ratio(ExpFactor(2.0, 1))
        z = 0.3
        assert num.eval(z) / den.eval(z) == pytest.approx(2.0 * math.exp(z), rel=1e-14)

    def test_ratio_factor(self):
        r = RatioFactor(ExpPoly([(-1, 1)]), ExpPoly([(0, 1), (-1, 1)]))
        m = MetricSpec("t", canonical(0, 0, 0, 0), r, Domain(-2, 2))
        z = 0.7
        want = math.exp(-z) / (1 + math.exp(-z))
        assert conformal_value(m, z) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("num", [ExpPoly(), ExpPoly([(1, 2), (1, -2)])], ids=["empty", "cancelling"])
    def test_zero_numerator_is_rejected(self, num):
        # before: it was accepted, and find_bolts raised "the zero polynomial vanishes everywhere"
        with pytest.raises(ValueError, match="^numerator must be nonzero$"):
            RatioFactor(num, ExpPoly.constant(1))

    @pytest.mark.parametrize("F", [ExpPoly([(0, 0)]), ExpPoly([(1, 2), (1, -2)])], ids=["zero-term", "cancelling"])
    def test_identically_zero_f_is_rejected(self, F):
        # before: curvature sampled F ≡ 0 without complaint
        with pytest.raises(ValueError, match="^F is identically zero$"):
            MetricSpec("zero", F, ExpFactor(1, -1), Domain(0, 1))


class TestJets:
    def _metric(self):
        return MetricSpec(
            "t", canonical(2, -2, 0, 0), ExpFactor(1.0, -1), Domain(0.0, math.inf)
        )

    def test_jet_f_matches_poly(self):
        m = self._metric()
        poly = m.f_poly()
        j = jet_F(m, 1.3)
        assert j[0] == pytest.approx(poly.eval(1.3), rel=1e-15)
        assert j[2] == pytest.approx(poly.derive(2).eval(1.3), rel=1e-15)

    def test_jet_c_sqrt_power(self):
        # C = e^{-z}: g = C^{-1/2} = e^{z/2}, so d1 = value/2
        m = self._metric()
        _, g = jet_C(m, 0.8)
        assert g[0] == pytest.approx(math.exp(0.4), rel=1e-13)
        assert g[1] == pytest.approx(0.5 * math.exp(0.4), rel=1e-12)

    def test_jet_c_rejects_an_infinite_c(self):
        # C = 1e300/1e-10 rounds to inf: g = C^{-1/2} would be 0, and P± divides by g
        m = MetricSpec(
            "t", canonical(0, 0, 0, 0), RatioFactor(ExpPoly.constant(1e300), ExpPoly.constant(1e-10)), Domain(-1.0, 1.0)
        )
        with pytest.raises(SingularConformalFactorError, match=r"^C\(z\)=inf is not positive and finite at z=0.5$"):
            jet_C(m, 0.5)
        # warnings off, as the curvature functions evaluate an array: C's series overflows on the way
        with np.errstate(all="ignore"), pytest.raises(SingularConformalFactorError, match=r"^C\(z\)=inf is not positive and finite at z=-0.5$"):
            jet_C(m, np.array([-0.5, 0.5]))

    @pytest.mark.parametrize("num, den", [(Fraction(10**300), Fraction(1, 10**300)), (Fraction(1, 10**300), Fraction(10**300))])
    def test_single_term_ratio_whose_c0_has_no_float_value_has_no_g_poly(self, num, den):
        # C0 = n/d past float range (or below it): no termwise g and no tag, not an OverflowError
        m = MetricSpec("t", canonical(0, 0, 0, 0), RatioFactor(ExpPoly.constant(num), ExpPoly.constant(den)), Domain(-1.0, 1.0))
        assert (m.g_poly, m.tag, m.einstein_certificate) == (None, None, None)

    def test_single_term_ratio_off_the_einstein_family_has_no_certificate(self):
        # C = e^{−2z}: g = e^{z} is termwise, but has no (C5, C6) pair at exponents ±½
        m = MetricSpec("t", canonical(0, 0, 0, 0), RatioFactor(ExpPoly([(-2, 1)]), ExpPoly.constant(1)), Domain(-1.0, 1.0))
        assert m.g_poly == ExpPoly([(1, 1.0)])
        assert (m.tag, m.einstein_certificate) == (None, None)

    def test_out_of_domain_raises(self):
        m = self._metric()
        with pytest.raises(OutOfDomainError):
            jet_F(m, -1.0)
