"""Quadrature, root finding, and series-arithmetic kernels."""
import math

import pytest

from u2metrics.numerics import (
    BracketError,
    QuadratureError,
    adaptive_simpson,
    jet_to_series,
    safeguarded_newton,
    series_div,
    series_mul,
    series_pow,
    series_to_jet,
)


class TestAdaptiveSimpson:
    def test_exponential(self):
        assert adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-13) == pytest.approx(
            math.e - 1.0, abs=1e-12
        )

    def test_sine(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-13) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_steep_exponential(self):
        exact = (math.exp(30.0) - 1.0) / 3.0
        got = adaptive_simpson(lambda z: math.exp(3.0 * z), 0.0, 10.0, tol=1e-9)
        assert abs(got - exact) / exact < 1e-12

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 2.0, 2.0) == 0.0

    def test_reversed_interval_is_negated(self):
        fwd = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
        bwd = adaptive_simpson(math.exp, 1.0, 0.0, tol=1e-12)
        assert fwd == pytest.approx(-bwd, abs=1e-12)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_simpson(lambda z: math.inf if z == 0.0 else 1.0 / z, -1.0, 1.0, tol=1e-10)

    def test_noisy_integrand_terminates(self):
        # cancellation-heavy evaluation: the requested tol is below the
        # attainable noise floor, so panels reach the depth cap without
        # meeting the tolerance; that is reported, with the estimate attached
        def noisy(z):
            return (1e8 + math.sin(z)) - 1e8

        exact = 1.0 - math.cos(1.0)
        with pytest.raises(QuadratureError) as info:
            adaptive_simpson(noisy, 0.0, 1.0, tol=1e-14)
        assert abs(info.value.estimate - exact) < 1e-7
        assert 0.0 < info.value.error < 1e-5

    def test_depth_cap_raises_with_estimate_and_error(self):
        with pytest.raises(QuadratureError) as info:
            adaptive_simpson(math.exp, 0.0, 10.0, tol=1e-13, max_depth=3)
        exact = math.exp(10.0) - 1.0
        assert abs(info.value.estimate - exact) < info.value.error

    def test_exhausted_panel_budget_raises(self):
        # about 10^5 oscillations need more panels than the budget allows
        with pytest.raises(QuadratureError, match="panel budget"):
            adaptive_simpson(lambda z: math.sin(1e5 * z), 0.0, 1.0, tol=1e-12)

    def test_non_finite_integrand_has_no_estimate(self):
        with pytest.raises(QuadratureError) as info:
            adaptive_simpson(lambda z: math.inf, 0.0, 1.0)
        assert info.value.estimate is None and info.value.error is None


class TestSafeguardedNewton:
    def test_cosine_root(self):
        root = safeguarded_newton(math.cos, lambda x: -math.sin(x), 1.0, 2.0)
        assert root == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_endpoint_root(self):
        assert safeguarded_newton(lambda x: x, lambda x: 1.0, 0.0, 1.0) == 0.0

    def test_no_bracket_raises(self):
        with pytest.raises(BracketError):
            safeguarded_newton(math.exp, math.exp, 0.0, 1.0)

    def test_flat_derivative_falls_back_to_bisection(self):
        f = lambda x: x**3 - 2.0
        root = safeguarded_newton(f, lambda x: 0.0, 0.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)


class TestSeries:
    def test_mul_matches_exponential_sum(self):
        # exp(z)*exp(2z) = exp(3z): jets at z = 0
        a = jet_to_series((1.0, 1.0, 1.0, 1.0, 1.0))
        b = jet_to_series((1.0, 2.0, 4.0, 8.0, 16.0))
        got = series_to_jet(series_mul(a, b))
        assert got == pytest.approx((1.0, 3.0, 9.0, 27.0, 81.0), abs=1e-12)

    def test_div_inverts_mul(self):
        a = jet_to_series((2.0, -1.0, 0.5, 3.0, -4.0))
        b = jet_to_series((1.5, 0.7, -0.2, 1.1, 0.9))
        back = series_mul(series_div(a, b), b)
        assert series_to_jet(back) == pytest.approx((2.0, -1.0, 0.5, 3.0, -4.0), abs=1e-10)

    def test_div_by_zero_constant_raises(self):
        with pytest.raises(ZeroDivisionError):
            series_div([1.0, 0, 0, 0, 0], [0.0, 1.0, 0, 0, 0])

    def test_pow_half_squares_back(self):
        a = jet_to_series((4.0, 1.0, -0.5, 2.0, 0.3))
        root = series_pow(a, 0.5)
        back = series_mul(root, root)
        assert series_to_jet(back) == pytest.approx((4.0, 1.0, -0.5, 2.0, 0.3), abs=1e-10)

    def test_pow_matches_exponential(self):
        # (e^z)^3 at z = 0.2: jet of e^{3z}
        z = 0.2
        a = jet_to_series(tuple(math.exp(z) for _ in range(5)))
        got = series_to_jet(series_pow(a, 3))
        want = tuple(3**k * math.exp(3 * z) for k in range(5))
        assert got == pytest.approx(want, rel=1e-12)

    def test_pow_requires_positive_lead(self):
        with pytest.raises(ValueError):
            series_pow([-1.0, 0, 0, 0, 0], 0.5)

