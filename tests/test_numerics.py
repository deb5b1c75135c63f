"""Quadrature, root finding, and series-arithmetic kernels."""
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2metrics import geometry, numerics
from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.exppoly import ExpPoly
from u2metrics.numerics import (
    BracketError,
    QuadratureError,
    UniformStream,
    adaptive_quad,
    is_array,
    safeguarded_newton,
    series_div,
    series_mul,
    series_pow,
)


class TestAdaptiveSimpson:
    """``adaptive_quad``, which the benchmark tracer wraps as ``adaptive_simpson``."""

    def test_exponential(self):
        assert adaptive_quad(math.exp, 0.0, 1.0, tol=1e-13) == pytest.approx(
            math.e - 1.0, abs=1e-12
        )

    def test_sine(self):
        assert adaptive_quad(math.sin, 0.0, math.pi, tol=1e-13) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_steep_exponential(self):
        exact = (math.exp(30.0) - 1.0) / 3.0
        got = adaptive_quad(lambda z: math.exp(3.0 * z), 0.0, 10.0, tol=1e-9)
        assert abs(got - exact) / exact < 1e-12

    def test_empty_interval(self):
        assert adaptive_quad(math.exp, 2.0, 2.0) == 0.0

    def test_reversed_interval_is_negated(self):
        fwd = adaptive_quad(math.exp, 0.0, 1.0, tol=1e-12)
        bwd = adaptive_quad(math.exp, 1.0, 0.0, tol=1e-12)
        assert fwd == pytest.approx(-bwd, abs=1e-12)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_quad(lambda z: 1.0 / z if z else math.inf, -1.0, 1.0, tol=1e-10)

    def test_noisy_integrand_terminates(self):
        # cancellation-heavy evaluation: the requested tol is below the
        # attainable noise floor, so panels reach the panel budget without
        # meeting the tolerance; that is reported, with the estimate attached
        def noisy(z):
            return (1e8 + math.sin(z)) - 1e8

        exact = 1.0 - math.cos(1.0)
        with pytest.raises(QuadratureError) as info:
            adaptive_quad(noisy, 0.0, 1.0, tol=1e-14)
        assert abs(info.value.estimate - exact) < 1e-7
        assert 0.0 < info.value.error < 1e-5

    def test_depth_cap_raises_with_estimate_and_error(self, monkeypatch):
        # one G10K21 panel over [0, 10] is far from 1e-13, and a depth cap of 0 forbids a split
        monkeypatch.setattr(numerics, "_MAX_DEPTH", 0)
        with pytest.raises(QuadratureError, match="reached depth 0") as info:
            adaptive_quad(math.exp, 0.0, 10.0, tol=1e-13)
        exact = math.exp(10.0) - 1.0
        assert abs(info.value.estimate - exact) < info.value.error

    def test_exhausted_panel_budget_raises(self):
        # about 1.6·10^6 periods need more panels than the budget allows
        with pytest.raises(QuadratureError, match="panel budget"):
            adaptive_quad(lambda z: math.sin(1e7 * z), 0.0, 1.0, tol=1e-12)

    def test_end_singularity_meets_tol_globally(self):
        # each panel at 0 misses its share of tol down to the depth cap, yet
        # Σ|K21 − G10| over all panels meets tol (the recursive reference,
        # which tests panels only, raises here)
        got = adaptive_quad(math.sqrt, 0.0, 1.0, tol=1e-10)
        assert abs(got - 2.0 / 3.0) <= 1e-10
        with pytest.raises(QuadratureError):
            reference_adaptive_simpson(lambda z: math.sqrt(z), 0.0, 1.0, tol=1e-10)

    def test_global_test_does_not_hide_a_missed_tol(self, monkeypatch):
        # the whole-interval estimate is far from tol: the depth cap still raises
        monkeypatch.setattr(numerics, "_MAX_DEPTH", 2)
        with pytest.raises(QuadratureError, match="reached depth 2") as info:
            adaptive_quad(math.sqrt, 0.0, 1.0, tol=1e-10)
        assert info.value.error > 1e-10

    def test_default_depth_cap_is_40(self):
        # only the panels at the jump split, one or two a level, far below the panel budget
        with pytest.raises(QuadratureError, match="reached depth 40") as info:
            adaptive_quad(lambda z: 0.0 if z < 1.0 / 3.0 else 1.0, 0.0, 1.0, tol=1e-15)
        assert abs(info.value.estimate - 2.0 / 3.0) < 1e-11

    def test_depth_cap_is_not_an_option(self):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            adaptive_quad(math.exp, 0.0, 1.0, max_depth=40)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_that_is_not_positive_and_finite_raises(self, tol):
        # before: each returned silently, and tol=inf accepted the first panel whatever its error
        with pytest.raises(ValueError, match=re.escape(f"a positive finite tol, got [0.0, 1.0] and tol={tol!r}")):
            adaptive_quad(math.exp, 0.0, 1.0, tol=tol)

    @pytest.mark.parametrize("a,b", [
        (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (math.inf, math.inf),
    ], ids=["inf", "-inf", "nan", "empty-inf"])
    def test_non_finite_end_raises(self, a, b):
        # before: an infinite end reached the integrand as nan
        called = []
        with pytest.raises(ValueError, match="adaptive_quad needs finite ends"):
            adaptive_quad(lambda x: called.append(x) or 1.0, a, b)
        assert not called

    def test_inputs_are_checked_before_the_empty_interval(self):
        with pytest.raises(ValueError, match="positive finite tol"):
            adaptive_quad(math.exp, 2.0, 2.0, tol=0.0)

    def test_non_finite_integrand_has_no_estimate(self):
        with pytest.raises(QuadratureError) as info:
            adaptive_quad(lambda z: math.inf, 0.0, 1.0)
        assert info.value.estimate is None and info.value.error is None

    @pytest.mark.parametrize("f,a,b", [
        (math.exp, 0.0, 1.0),
        (math.exp, 1.0, -2.0),
        (lambda z: 1.0 / (1e-4 + z), 0.0, 1.0),  # refined toward the peak at 0
        (lambda z: math.sin(1e5 * z), 0.0, 1.0),
    ], ids=["exp", "reversed", "peaked", "oscillating"])
    def test_integrand_never_called_at_the_ends(self, f, a, b):
        nodes = []

        def recorded(x):
            nodes.append(x)
            return f(x)

        adaptive_quad(recorded, a, b, tol=1e-10)
        assert nodes and all(min(a, b) < x < max(a, b) for x in nodes)

    @settings(max_examples=60, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(
                st.sampled_from([Fraction(k, 2) for k in range(-6, 7) if k]),
                st.integers(-20, 20).map(lambda c: Fraction(c, 4)),
            ),
            max_size=4,
        ),
        c0=st.integers(-8, 8),
        a=st.integers(-12, 12).map(lambda v: v / 4),
        width=st.integers(-16, 16).filter(bool).map(lambda v: v / 4),
    )
    def test_exponential_polynomials_against_antiderivatives(self, terms, c0, a, width):
        b = a + width
        f = ExpPoly(terms + [(0, c0)])
        antiderivative = ExpPoly([(k, c / k) for k, c in terms])
        exact = antiderivative.eval(b) - antiderivative.eval(a) + c0 * width
        # round-off in the quadrature's sums and in exact, relative to the magnitudes summed
        scale = sum(abs(float(c / k)) * (math.exp(k * a) + math.exp(k * b)) for k, c in terms) + abs(c0 * width)
        got = adaptive_quad(f.eval, a, b, tol=1e-10)
        assert abs(got - exact) <= 1e-10 + 1e-13 * scale


# The depth-first recursive adaptive Simpson that the Gauss–Kronrod rule
# replaced, kept as the reference: a scalar integrand, one call per node.
def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, state, depth, max_depth):
    """state = [panel budget left, accumulated |δ|/15, exhausted panels]."""
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    if not (math.isfinite(flm) and math.isfinite(frm)):
        raise QuadratureError(f"non-finite integrand near [{a}, {b}]")
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    delta = left + right - whole
    # noise guard: stop refining once delta is round-off relative to the panel
    # values themselves, even when the absolute tol is unreachable
    noise = 1e-14 * (abs(left) + abs(right))
    state[0] -= 1
    met = abs(delta) <= 15.0 * tol or abs(delta) <= noise
    if met or depth >= max_depth or state[0] <= 0:
        state[1] += abs(delta) / 15.0
        if not met:
            state[2] += 1
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _adaptive(
        f, a, fa, m, fm, lm, flm, left, half, state, depth + 1, max_depth
    ) + _adaptive(f, m, fm, b, fb, rm, frm, right, half, state, depth + 1, max_depth)


def reference_adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 40) -> float:
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    if not all(math.isfinite(v) for v in (fa, fb, fm)):
        raise QuadratureError(f"non-finite integrand on [{a}, {b}]")
    whole = _simpson(a, fa, b, fb, fm)
    state = [200000, 0.0, 0]
    total = _adaptive(f, a, fa, b, fb, m, fm, whole, tol, state, 0, max_depth)
    if state[2]:
        raise QuadratureError(
            f"{state[2]} panels on [{a}, {b}] reached depth {max_depth} or the panel budget "
            f"before tol={tol:g}; estimate {total!r}, error estimate {state[1]:.3g}",
            estimate=total,
            error=state[1],
        )
    return total


def _both(f, a, b, **kwargs):
    """(value or error, integrand calls) of ``adaptive_quad`` and of the
    reference on the float integrand f, at ``adaptive_quad``'s depth cap."""
    def reference(g, a, b, **kwargs):
        return reference_adaptive_simpson(g, a, b, max_depth=numerics._MAX_DEPTH, **kwargs)

    out, calls = [], []
    for run in (adaptive_quad, reference):
        count = [0]

        def counted(x):
            count[0] += 1
            return f(x)

        try:
            out.append(run(counted, a, b, **kwargs))
        except QuadratureError as exc:
            out.append(exc)
        calls.append(count[0])
    return out[0], calls[0], out[1], calls[1]


def _assert_agrees(f, a, b, **kwargs):
    """The same outcome as the reference, and where both converge a value
    within tol of its value (or within round-off of it where tol is below
    round-off) and no more integrand calls; returns both outcomes.  Where both
    raise, one 21-node panel may already outnumber the reference's calls."""
    got, calls, want, ref_calls = _both(f, a, b, **kwargs)
    assert type(got) is type(want)
    if isinstance(want, QuadratureError):
        assert (got.estimate is None) == (want.estimate is None)
    else:
        assert calls <= ref_calls
        assert abs(got - want) <= max(kwargs.get("tol", 1e-10), 1e-13 * abs(want))
    return got, want


class TestAgainstRecursion:
    """Agreement with the depth-first recursive adaptive Simpson kept as the
    reference: the same outcome, values within tol, no more integrand calls."""

    @pytest.mark.parametrize("f,a,b,kwargs", [
        (math.exp, 0.0, 1.0, {"tol": 1e-13}),
        (math.sin, 0.0, math.pi, {"tol": 1e-13}),
        (lambda z: math.exp(3.0 * z), 0.0, 10.0, {"tol": 1e-9}),
        (math.exp, 1.0, 0.0, {"tol": 1e-12}),
        (math.exp, 0.0, 10.0, {"tol": 1e-13, "max_depth": 0}),  # max_depth: the depth cap, for both
        (lambda z: math.inf, 0.0, 1.0, {}),
    ], ids=["exp", "sin", "steep-exp", "reversed", "depth-cap", "non-finite"])
    def test_integrands(self, f, a, b, kwargs, monkeypatch):
        kwargs = dict(kwargs)
        monkeypatch.setattr(numerics, "_MAX_DEPTH", kwargs.pop("max_depth", numerics._MAX_DEPTH))
        _assert_agrees(f, a, b, **kwargs)

    @pytest.mark.parametrize("f,tol,exact", [
        (lambda z: (1e8 + math.sin(z)) - 1e8, 1e-14, 1.0 - math.cos(1.0)),
        (lambda z: math.sin(1e7 * z), 1e-12, (1.0 - math.cos(1e7)) / 1e7),
    ], ids=["noisy", "oscillating"])
    def test_exhausted_budget(self, f, tol, exact):
        # both spend the panel budget and raise; Gauss–Kronrod spends no more
        # panels (21 calls each; the reference's are 2 calls each after its
        # first 3), ends no farther from the integral, and its error estimate
        # bounds its distance from the integral
        got, calls, want, ref_calls = _both(f, 0.0, 1.0, tol=tol)
        assert isinstance(got, QuadratureError) and isinstance(want, QuadratureError)
        assert "panel budget" in str(got) and calls / len(numerics._NODES) <= (ref_calls - 3) / 2
        assert abs(got.estimate - exact) <= min(got.error, abs(want.estimate - exact))

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_ends(self, name, monkeypatch):
        shift = []  # per quadrature of one end, the reference's value less adaptive_quad's

        def checked(f, a, b, **kwargs):
            calls = [0, 0]

            def counted(x):
                calls[0] += 1
                return f(x)

            def scalar(u):
                calls[1] += 1
                return f(u)

            # distance's integrand may be 0·∞ at u = a = 0, which adaptive_quad
            # never asks for: the reference is the recursion from a + ε, after a
            # two-point Gauss rule on [a, a + ε] (error O(ε⁵))
            eps = 1e-3 * (b - a)
            head = 0.5 * eps * sum(scalar(a + 0.5 * eps * (1.0 + x)) for x in (-(3**-0.5), 3**-0.5))
            got = adaptive_quad(counted, a, b, **kwargs)
            want = head + reference_adaptive_simpson(scalar, a + eps, b, **kwargs)
            assert abs(got - want) <= kwargs["tol"] and calls[0] <= calls[1]
            shift.append(want - got)
            return got

        monkeypatch.setattr(geometry, "adaptive_quad", checked)
        m = catalog_get(name)
        for side in ("lower", "upper"):
            shift.clear()
            dist = geometry.classify_end(m, side).diagnostics["distance_to_end"]
            assert math.isinf(dist) or (shift and abs(math.fsum(shift)) <= 1e-9 * dist)


class TestRule:
    """The G10K21 tables: QUADPACK's dqk21 rule, mirrored onto 21 ascending nodes."""

    @staticmethod
    def _moment(weights, nodes, k):
        return math.fsum(w * x**k for w, x in zip(weights, nodes))

    @pytest.mark.parametrize("k", range(32))  # k = 0: the weights sum to 2
    def test_kronrod_is_exact_through_degree_31(self, k):
        assert abs(self._moment(numerics._KRONROD, numerics._NODES, k) - (k % 2 == 0) * 2 / (k + 1)) <= 1e-15

    @pytest.mark.parametrize("k", range(20))
    def test_gauss_is_exact_through_degree_19(self, k):
        # fx[1::2] picks the Gauss nodes from the Kronrod ones
        assert abs(self._moment(numerics._GAUSS, numerics._NODES[1::2], k) - (k % 2 == 0) * 2 / (k + 1)) <= 1e-15

    def test_nodes_are_ascending_and_symmetric(self):
        nodes = numerics._NODES
        assert len(nodes) == len(numerics._KRONROD) == 21 and len(numerics._GAUSS) == 10
        assert all(x < y for x, y in zip(nodes, nodes[1:])) and -1.0 < nodes[0]
        assert nodes == tuple(-x for x in reversed(nodes))
        assert numerics._KRONROD == numerics._KRONROD[::-1] and numerics._GAUSS == numerics._GAUSS[::-1]

    def test_matches_the_oracles(self):
        # the Gauss pair against numpy's Gauss–Legendre rule, the Kronrod pair against scipy's dqk21 tables
        quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
        x, w = np.polynomial.legendre.leggauss(10)
        assert numerics._NODES[1::2] == pytest.approx(x.tolist(), abs=1e-15)
        assert numerics._GAUSS == pytest.approx(w.tolist(), abs=1e-15)
        nodes = []

        def basis(x):  # the unit vector of the node's position in the call order
            nodes.append(x)
            return np.eye(21)[len(nodes) - 1]

        kronrod = quad_vec._quadrature_gk21(-1.0, 1.0, basis, np.linalg.norm)[0]
        assert numerics._NODES == tuple(nodes[::-1])
        assert numerics._KRONROD == tuple(kronrod[::-1].tolist())


@pytest.mark.parametrize(
    "z, want",
    [(0.5, False), (3, False), (np.float64(0.5), False), (np.array([0.5, 1.0]), True)],
    ids=["float", "int", "float64", "array"],
)
def test_is_array(z, want):
    assert is_array(z) is want


class TestUniformStream:
    """The search's seed stream against its oracle, ``np.random.default_rng(seed).uniform``."""

    RANGES = ((-2.0, 2.0), (0.2, 3.0), (-1.0, 1.0))  # bt_nonextremal_search's three
    # 2**200 has seven 32-bit words, past SeedSequence's pool of four
    SEEDS = [*range(256), 2**32, 2**64 + 3, 2**200]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_64_draws_match_numpy(self, seed):
        rng, stream = np.random.default_rng(seed), UniformStream(seed)
        for i in range(64):
            lo, hi = self.RANGES[i % 3]
            assert stream.uniform(lo, hi).hex() == rng.uniform(lo, hi).hex(), (seed, i)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 2**200])
    def test_a_size_3_call_is_three_scalar_draws(self, seed):
        rng, stream = np.random.default_rng(seed), UniformStream(seed)
        for lo, hi in self.RANGES:
            assert [stream.uniform(lo, hi) for _ in range(3)] == rng.uniform(lo, hi, size=3).tolist()

    @pytest.mark.parametrize("seed", [None, 1.0, -1, "3"])
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative int, got {seed!r}"):
            UniformStream(seed)


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


def jet_to_series(jet) -> list:
    """Taylor coefficients a_k = d_k / k! of (value, d1, .., d4)."""
    return [d / math.factorial(k) for k, d in enumerate(jet)]


def series_to_jet(series) -> tuple:
    return tuple(a * math.factorial(k) for k, a in enumerate(series))


class TestSeries:
    """The series helpers, which no package module calls: perfbench/tracer.py wraps them by name."""

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

    @pytest.mark.parametrize("p", [0.5, -0.5, -1.5, 3])
    @pytest.mark.parametrize(
        "a",
        [
            [4.0, 1.0, -0.25, 1.0 / 3.0, 0.0125],
            [3e-3, -1.0, 40.0, 7.0, -2e3],
            # a small constant term under large ones: x = a/a[0] reaches 2e7
            [0.02, 4e5, 2.5e5, 1.4e5, -1.2e5],
        ],
    )
    def test_pow_against_mpmath(self, a, p):
        got = series_pow(a, p)
        with mpmath.workdps(50):
            want = mpmath.taylor(lambda t: mpmath.polyval([mpmath.mpf(c) for c in a[::-1]], t) ** p, 0, 4)
            scale = max(abs(w) for w in want)
            err = max(abs(mpmath.mpf(g) - w) for g, w in zip(got, want)) / scale
        assert err <= 1e-14

    @pytest.mark.parametrize("p", [0.5, -0.5, -1.5, 3])
    def test_pow_of_arrays_matches_floats(self, p):
        rows = [[4.0, 1.0, -0.25, 1.0 / 3.0, 0.0125], [3e-3, -1.0, 40.0, 7.0, -2e3], [1.5, -0.7, 0.2, 0.05, -0.01]]
        got = series_pow([np.array(col) for col in zip(*rows)], p)
        for i, row in enumerate(rows):
            assert [g[i] for g in got] == pytest.approx(series_pow(row, p), rel=1e-15, abs=0.0)

    def test_pow_requires_positive_lead(self):
        with pytest.raises(ValueError):
            series_pow([-1.0, 0, 0, 0, 0], 0.5)

    def test_array_lead_is_checked_at_every_point(self):
        # one bad point of an array lead raises, as a float lead does
        with pytest.raises(ZeroDivisionError):
            series_div([1.0, 0, 0, 0, 0], [np.array([1.0, 0.0]), 1.0, 0, 0, 0])
        with pytest.raises(ValueError):
            series_pow([np.array([1.0, -1.0]), 0, 0, 0, 0], 0.5)
