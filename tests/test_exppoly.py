"""Exact exponential-polynomial arithmetic."""
import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2metrics.catalog import catalog_get
from u2metrics.exppoly import EvalOverflowError, ExpPoly, ExpPolyError


class TestConstruction:
    def test_zero_coefficients_pruned(self):
        p = ExpPoly([(1, 0), (2, 3)])
        assert p.exponents() == (Fraction(2),)

    def test_like_terms_combine(self):
        p = ExpPoly([(1, Fraction(1, 2)), (1, Fraction(1, 2))])
        assert p.coefficient(1) == 1

    @pytest.mark.parametrize("terms, k", [
        ([(0, 1e308), (0, 1e308)], 0),
        ([(1, -1e308), (1, -1e308)], 1),
        ([(0, 10**400), (0, 1.5)], 0),  # before: OverflowError from Fraction + float
    ], ids=["inf", "-inf", "big-fraction"])
    def test_combined_coefficient_past_float_range_raises(self, terms, k):
        # before: the first gave a constant term of inf
        with pytest.raises(ExpPolyError, match=rf"^coefficient of e\^\({k}z\) sums past float range$"):
            ExpPoly(terms)

    def test_half_integer_exponents_allowed(self):
        p = ExpPoly([(Fraction(3, 2), 1)])
        assert p.exponents() == (Fraction(3, 2),)

    def test_third_integer_exponent_rejected(self):
        with pytest.raises(ExpPolyError):
            ExpPoly([(Fraction(1, 3), 1)])

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, 0.3])
    def test_float_exponent_that_is_not_a_half_integer_is_refused(self, k):
        # before: inf and nan escaped as "cannot convert float ... to integer"
        with pytest.raises(ExpPolyError, match=rf"^exponent {re.escape(repr(k))} is not a half-integer$"):
            ExpPoly([(k, 1)])
        with pytest.raises(ExpPolyError):
            ExpPoly.constant(1).coefficient(k)

    def test_immutable(self):
        p = ExpPoly.constant(1)
        with pytest.raises(AttributeError):
            p._terms = ()

    def test_zero_and_constant(self):
        assert ExpPoly().is_zero
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
        assert ExpPoly().extreme_exponent(+1) is None


    def test_division_by_a_rational(self):
        p = ExpPoly([(1, Fraction(3)), (-1, 0.75)])
        q = p / 2
        assert q.terms() == ((-1, 0.375), (1, Fraction(3, 2)))
        assert p / Fraction(3, 4) == ExpPoly([(1, 4), (-1, 1.0)])
        assert (p * 5 / 4).terms() == (p * Fraction(5, 4)).terms()

    @pytest.mark.parametrize("divisor", [0.5, ExpPoly.constant(2)], ids=["float", "ExpPoly"])
    def test_division_by_anything_else_is_refused(self, divisor):
        with pytest.raises(TypeError):
            ExpPoly.constant(1) / divisor
        with pytest.raises(TypeError):
            1 / ExpPoly.constant(2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ExpPoly.constant(1) / 0

    def test_left_and_right_products_agree(self):
        p = ExpPoly([(1, Fraction(2)), (0, 0.1)])
        for c in (3, Fraction(2, 3), 0.7, 0):
            assert (c * p).terms() == (p * c).terms()
        assert (0 * p).is_zero and (p * 0.0).is_zero

    @pytest.mark.parametrize("a, b", [
        ([(0, 1e308)], [(0, 1e308)]),
        ([(0, 10**308)], [(0, 10**308)]),  # exact, but its sum has no float value
        ([(0, Fraction(10**400))], [(0, 1.5)]),  # before: OverflowError from Fraction + float
    ], ids=["float", "exact", "big-fraction"])
    def test_sum_past_float_range_raises(self, a, b):
        with pytest.raises(ExpPolyError, match=r"^coefficient of e\^\(0z\) sums past float range$"):
            ExpPoly(a) + ExpPoly(b)

    def test_product_sums_are_checked(self):
        a = ExpPoly([(0, 1e200), (1, 1e200)])
        b = ExpPoly([(1, 1e108), (0, 1e108)])  # e^z's coefficient is 1e308 + 1e308
        with pytest.raises(ExpPolyError, match=r"^coefficient of e\^\(1z\) sums past float range$"):
            a * b

    def test_scale_factor_without_float_value_is_refused(self):
        with pytest.raises(ExpPolyError, match="^exact coefficient is too large for a float$"):
            ExpPoly.constant(1).scale(10**400)


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


# float coefficients large enough that no c·kⁿ·e^{kz} here underflows
_float_coeffs = st.floats(min_value=-3.0, max_value=3.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-290)
_float_polys = st.lists(st.tuples(_exponents, _float_coeffs), min_size=1, max_size=5).map(ExpPoly)


@settings(max_examples=150, deadline=None)
@given(_float_polys, _zs, st.integers(min_value=0, max_value=7))
def test_float_coefficient_jet_equals_derive_bit_for_bit(p, z, order):
    # a float coefficient's c·kⁿ is rounded once, as derive(n) rounds it
    j = p.jet(z, order)
    for n in range(order + 1):
        assert j[n] == p.derive(n).eval(z), (n, j[n])


def test_float_coefficient_jet_rounds_once_per_order():
    # c·k² is rounded once, not c·k and then ·k (which gives 0.352870241735288)
    p = ExpPoly([(1.5, 0.1)])
    assert p.jet(0.3, 2)[2] == p.derive(2).eval(0.3) == 0.1 * 2.25 * math.exp(1.5 * 0.3) == 0.35287024173528797


class TestRowPastFloatRange:
    """A coefficient row entry past float range is ±inf, so ``jet`` raises
    EvalOverflowError at that order, for an exact and a float coefficient alike."""

    @pytest.mark.parametrize("c", [Fraction(10**308), 1e308], ids=["exact", "float"])
    @pytest.mark.parametrize("array", [False, True], ids=["float-z", "array-z"])
    def test_value_is_finite_and_fourth_derivative_raises(self, c, array):
        p = ExpPoly([(2, c)])
        z = np.array([0.0, 0.0]) if array else 0.0
        assert p.eval(0.0) == 1e308
        with pytest.raises(EvalOverflowError) as err:
            p.jet(z, 4)
        assert (err.value.exponent, err.value.z) == (2, 0.0)

    def test_negative_entry_is_minus_inf(self):
        # row 3 is 4³·(−10³⁰⁸)/2³ = −8e308
        with pytest.raises(EvalOverflowError, match=r"term e\^\(2z\) is non-finite at z=0.0"):
            ExpPoly([(2, Fraction(-(10**308)))]).jet(0.0, 3)


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


_grids = st.lists(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(_polys, _grids, st.integers(min_value=0, max_value=6))
def test_array_jet_is_within_eight_ulps_of_the_float_jet(p, zs, order):
    # contract: each array entry is within 8·ε·Σ|c·kⁿ·e^{kz}| of the float path
    # (np.exp and libm's exp may differ by an ulp)
    got = p.jet(np.array(zs), order)
    assert len(got) == order + 1
    for i, z in enumerate(zs):
        want = p.jet(z, order)
        for n in range(order + 1):
            size = sum(abs(float(c * k**n)) * math.exp(float(k) * z) for k, c in p.terms())
            assert abs(got[n][i] - want[n]) <= 8 * np.finfo(float).eps * size, (z, n)
    assert isinstance(got[0], np.ndarray) and got[0].shape == (len(zs),)


def _reference_array_jet(p, zs, order):
    """The array jet summed one order at a time: for each n, Σ float(c·kⁿ)·e^{kz}
    over the terms in exponent order, with the exponentials of one np.exp."""
    terms = sorted(p.terms())
    es = np.exp(np.multiply.outer([float(k) for k, _ in terms], zs))
    out = []
    for n in range(order + 1):
        total = np.zeros(zs.shape)
        for (k, c), e in zip(terms, es):
            total += float(c * k**n) * e
        out.append(total)
    return out


@settings(max_examples=150, deadline=None)
@given(_polys, _grids, st.integers(min_value=0, max_value=6))
def test_array_jet_entry_is_the_array_eval_of_the_derivative(p, zs, order):
    # the array jet sums all orders at once, term by term in exponent order:
    # each entry is the order-by-order sum and its derivative's own array eval
    zs = np.array(zs)
    got = p.jet(zs, order)
    want = _reference_array_jet(p, zs, order)
    for n in range(order + 1):
        assert np.array_equal(got[n], want[n]), n
        assert np.array_equal(got[n], p.derive(n).eval(zs)), n


class TestArrayOverflow:
    def _error(self, p, zs, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is the error, not a warning
            with pytest.raises(EvalOverflowError) as err:
                p.jet(np.array(zs), order)
        return err.value

    def test_names_the_exponent_and_the_first_bad_z(self):
        p = ExpPoly([(-1, 1), (2, 1), (3, 1)])
        err = self._error(p, [0.0, 1000.0, 2000.0, -1000.0], 0)
        assert (err.exponent, err.z) == (Fraction(2), 1000.0)
        assert "z=1000.0" in str(err)

    def test_is_the_float_error_at_that_z(self):
        p = ExpPoly([(-2, 1), (Fraction(-1, 2), 3), (1, 1)])
        err = self._error(p, [1.0, -1000.0, 1000.0], 4)
        with pytest.raises(EvalOverflowError) as want:
            p.jet(-1000.0, 4)
        assert (err.exponent, err.z, str(err)) == (want.value.exponent, -1000.0, str(want.value))

    def test_derivative_only_overflow(self):
        # at z=0.4 the value 5e307·e^0.8 is finite, its derivative is not
        p = ExpPoly([(0, 1), (2, 5e307)])
        assert np.isfinite(p.eval(np.array([0.0, 0.4]))).all()
        err = self._error(p, [0.0, 0.2, 0.4], 1)
        assert (err.exponent, err.z) == (Fraction(2), 0.4)


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
        # at z=0.4 the value 5e307·e^0.8 is finite, its derivative is not;
        # the derivative's coefficient 2·5e307 = 1e308 is finite, 4·5e307 is not
        p = ExpPoly([(0, 1), (2, 5e307)])
        assert math.isfinite(p.eval(0.4))
        assert p.derive().terms() == ((2, 1e308),)
        with pytest.raises(ExpPolyError, match=r"^non-finite coefficient inf$"):
            p.derive(2)
        with pytest.raises(EvalOverflowError) as want:
            p.derive(1).eval(0.4)
        assert want.value.exponent == Fraction(2)
        for order in range(1, 5):
            with pytest.raises(EvalOverflowError) as err:
                p.jet(0.4, order)
            assert type(err.value.exponent) is Fraction and err.value.exponent == 2


class TestExponentKeys:
    # terms are stored keyed by the int 2k; everything public speaks Fractions
    @pytest.mark.parametrize("spellings", [
        [Fraction(1, 2), 0.5, (1, 2)],
        [Fraction(-3, 2), -1.5, (-3, 2), (3, -2)],
        [2, 2.0, Fraction(2), (4, 2)],
    ], ids=["1/2", "-3/2", "2"])
    def test_spellings_of_an_exponent_build_one_polynomial(self, spellings):
        polys = [ExpPoly([(k, 3), (-1, Fraction(1, 3))]) for k in spellings]
        assert all(p == polys[0] for p in polys)
        assert len({hash(p) for p in polys}) == 1
        assert all(polys[0].coefficient(k) == 3 for k in spellings)

    def test_accessors_return_fractions(self):
        p = ExpPoly([(Fraction(3, 2), 2), (-1, 0.5), (0, Fraction(1, 3))])
        assert p.terms() == ((-1, 0.5), (0, Fraction(1, 3)), (Fraction(3, 2), 2))
        assert p.exponents() == (-1, 0, Fraction(3, 2))
        assert (p.extreme_exponent(-1), p.extreme_exponent(+1)) == (-1, Fraction(3, 2))
        exponents = [k for k, _ in p.terms()] + list(p.exponents())
        exponents += [p.extreme_exponent(-1), p.extreme_exponent(+1)]
        assert all(type(k) is Fraction for k in exponents)
        assert type(p.coefficient(7)) is Fraction and p.coefficient(7) == 0
        assert repr(p) == "ExpPoly(0.5*e^(-1z) + 1/3 + 2*e^(3/2z))"
        with pytest.raises(EvalOverflowError) as err:
            p.eval(1000.0)
        assert type(err.value.exponent) is Fraction and err.value.exponent == Fraction(3, 2)


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


# ------------------------------------------------------------- real zeros
def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _as_exppoly(coeffs, d, shift):
    """Σ cᵢ·xⁱ⁺ˢʰⁱᶠᵗ with x = e^{z/d}."""
    return ExpPoly([(Fraction(i + shift, d), c) for i, c in enumerate(coeffs) if c])


_RATIONAL = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
_DYADIC = st.builds(Fraction, st.integers(-24, 24).filter(bool), st.sampled_from([1, 2, 4, 8]))


class TestRealRoots:
    @settings(max_examples=60, deadline=None)
    @given(
        roots=st.dictionaries(_RATIONAL, st.integers(1, 3), min_size=0, max_size=3),
        lead=st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
        no_roots=st.lists(st.sampled_from([(2, 1), (1, 0, 1), (3, 1, 1)]), max_size=2),
        d=st.sampled_from([1, 2]),
        shift=st.integers(-3, 3),
    )
    def test_products_against_exact_roots(self, roots, lead, no_roots, d, shift):
        # c·Π(x − rᵢ)^mᵢ times factors without positive roots: x + 2, x² + 1, x² + x + 3
        coeffs = [lead]
        for r, m in roots.items():
            for _ in range(m):
                coeffs = _poly_mul(coeffs, [-r, Fraction(1)])
        for factor in no_roots:
            coeffs = _poly_mul(coeffs, [Fraction(c) for c in factor])
        got = _as_exppoly(coeffs, d, shift).real_roots()
        with mpmath.workdps(40):
            want = sorted(
                (float(d * mpmath.log(mpmath.mpf(r.numerator) / r.denominator)), m)
                for r, m in roots.items()
            )
        assert [m for _, m in got] == [m for _, m in want]
        for (z, _), (w, _) in zip(got, want):
            assert abs(z - w) <= 1e-15 * max(1.0, abs(w))
        assert all(type(z) is float for z, _ in got)

    @settings(max_examples=60, deadline=None)
    @given(
        roots=st.dictionaries(_DYADIC, st.integers(1, 3), min_size=1, max_size=3),
        lead=st.integers(1, 2**12).map(lambda n: n / 2**10),
        factor=st.lists(st.integers(-2**10, 2**10).filter(bool).map(lambda n: n / 2**8), min_size=1, max_size=3),
        d=st.sampled_from([1, 2]),
        shift=st.integers(-3, 3),
    )
    def test_float_coefficients_against_sympy(self, roots, lead, factor, d, shift):
        # lead·Π(x − r)^m·(1 + a₁x + a₂x² + …) with repeated roots, negative
        # ones (no z) among them; each coefficient is stored as the float it
        # equals when there is one, which the leading one always is
        sp = pytest.importorskip("sympy")
        coeffs = [Fraction(lead)]
        for r, m in roots.items():
            for _ in range(m):
                coeffs = _poly_mul(coeffs, [-r, Fraction(1)])
        coeffs = _poly_mul(coeffs, [Fraction(1), *map(Fraction, factor)])
        coeffs = [float(c) if float(c) == c else c for c in coeffs]
        got = _as_exppoly(coeffs, d, shift).real_roots()
        x = sp.Symbol("x")
        poly = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in map(Fraction, reversed(coeffs))], x)
        want = [(d * math.log(float(r.evalf(40))), m) for r, m in poly.real_roots(multiple=False) if r.is_positive]
        assert [m for _, m in got] == [m for _, m in want]
        for (z, _), (w, _) in zip(got, want):
            assert abs(z - w) <= 1e-15 * max(1.0, abs(w))
        assert any(isinstance(c, float) for c in coeffs)

    @pytest.mark.parametrize("name", ["page", "hirzebruch"])
    def test_float_profiles_against_mpmath(self, name):
        f = catalog_get(name).f_poly()
        terms = f.terms()
        low = terms[0][0]
        coeffs = [Fraction(0)] * (int(terms[-1][0] - low) + 1)
        for k, c in terms:
            coeffs[int(k - low)] = Fraction(c)
        with mpmath.workdps(50):
            mp_coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
            xs = mpmath.polyroots(mp_coeffs, maxsteps=200, extraprec=200)
            want = sorted(
                float(mpmath.log(mpmath.re(x)))
                for x in xs
                if abs(mpmath.im(x)) < mpmath.mpf(10) ** -40 and mpmath.re(x) > 0
            )
        got = f.real_roots()
        assert [m for _, m in got] == [1] * len(want) and len(want) == 2
        for (z, _), w in zip(got, want):
            assert abs(z - w) <= 1e-15 * max(1.0, abs(w))

    def test_multiplicity_and_window(self):
        # (1 − e^{-z})²·(1 − 2e^{-z}) = x^{-3}(x − 1)²(x − 2)
        p = ExpPoly([(0, 1), (-1, -4), (-2, 5), (-3, -2)])
        assert p.real_roots() == [(0.0, 2), (math.log(2.0), 1)]
        assert p.real_roots(0.0, 0.0) == [(0.0, 2)]
        assert p.real_roots(0.1, math.inf) == [(math.log(2.0), 1)]
        assert p.real_roots(-math.inf, 0.6) == [(0.0, 2)]

    def test_zero_near_a_finite_end_is_that_end(self):
        p = ExpPoly([(0, 3), (1, -1)])  # 3 − e^z
        lo = math.log(3.0) * (1.0 + 5e-13)
        assert p.real_roots(lo, math.inf) == [(lo, 1)]
        assert p.real_roots(math.log(3.0) * (1.0 + 5e-12), math.inf) == []

    def test_infinite_end_never_matches(self):
        p = ExpPoly([(0, 1), (1, -0.001)])  # 1 − 0.001·e^z
        (z, m), = p.real_roots(-1.0, math.inf)
        assert m == 1 and abs(z - math.log(1000.0)) <= 1e-12

    def test_no_roots_and_zero_polynomial(self):
        assert ExpPoly([(0, 1), (-2, 1)]).real_roots() == []
        assert ExpPoly.constant(2).real_roots() == []
        with pytest.raises(ExpPolyError):
            ExpPoly().real_roots()
