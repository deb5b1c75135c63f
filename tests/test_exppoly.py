"""Exact exponential-polynomial arithmetic."""
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2metrics.catalog import catalog_get
from u2metrics.exppoly import MAX_ROOT_DEGREE, EvalOverflowError, ExpPoly, ExpPolyError


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

    def test_tuple_exponent_rejected(self):
        # before: (3, 2) was read as the exponent 3/2
        with pytest.raises(TypeError):
            ExpPoly([((3, 2), 1)])

    @pytest.mark.parametrize("k", ["1/2", " 0 ", Decimal("1.5")], ids=["str", "padded-str", "decimal"])
    def test_str_or_decimal_exponent_is_refused(self, k):
        # before: Fraction(k) read it, so ExpPoly([('1/2', 1)]) built e^(z/2) and coefficient(' 0 ') read 1
        with pytest.raises(ExpPolyError, match=rf"^exponent {re.escape(repr(k))} is not an int, a float or a Rational$"):
            ExpPoly([(k, 1)])
        with pytest.raises(ExpPolyError):
            ExpPoly.constant(1).coefficient(k)

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

    def test_int_products_and_scalar_sums_match_the_general_paths(self):
        p = ExpPoly([(1, Fraction(2)), (0, 0.1)])
        for n in (3, -5, 2**1023 - 1, -(2**1023), 2**1023):
            assert p * n == n * p == p.scale(n)
        with pytest.raises(ExpPolyError, match="^exact coefficient is too large for a float$"):
            p * 10**400
        for c in (3, Fraction(2, 3), 0.7, 0):
            assert p + c == c + p == p + ExpPoly.constant(c)
            assert c - p == ExpPoly.constant(c) - p
        with pytest.raises(ExpPolyError, match="^non-finite coefficient nan$"):
            p + math.nan

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


# any finite float or small exact coefficient, at most one per exponent (so no sum can leave float range),
# and z over the whole range where some term is finite, or within a relative 1e-6 of where a term's exp overflows
_wide_polys = st.dictionaries(
    _exponents, st.one_of(_coeffs, st.floats(allow_nan=False, allow_infinity=False)), max_size=5
).map(lambda terms: ExpPoly(terms.items()))
_edge_zs = st.tuples(st.sampled_from([k for k in range(-12, 13) if k]), st.floats(-1e-6, 1e-6)).map(
    lambda t: 2 * 709.782712893384 / t[0] * (1.0 + t[1])
)


def _value_or_overflow(f, z):
    try:
        return f(z).hex()
    except EvalOverflowError as exc:
        return exc.exponent, exc.z


@settings(max_examples=400, deadline=None)
@given(_wide_polys, st.one_of(st.floats(min_value=-1500.0, max_value=1500.0), _edge_zs))
def test_float_eval_is_the_order_0_jet_bit_for_bit(p, z):
    # eval sums a float z's terms directly; jet(z, 0) goes through the rows and the exponential list
    assert type(z) is float
    assert _value_or_overflow(p.eval, z) == _value_or_overflow(lambda x: p.jet(x, 0)[0], z)


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
        # the derivative's coefficient 2·5e307 = 1e308 is finite, and 4·5e307 is
        # exact but past float range, so its evaluation raises
        p = ExpPoly([(0, 1), (2, 5e307)])
        assert math.isfinite(p.eval(0.4))
        assert p.derive().terms() == ((2, 1e308),)
        assert p.derive(2).terms() == ((2, 4 * Fraction(5e307)),)
        with pytest.raises(EvalOverflowError) as err:
            p.derive(2).eval(0.0)
        assert err.value.exponent == 2
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
        [Fraction(1, 2), 0.5],
        [Fraction(-3, 2), -1.5],
        [2, 2.0, Fraction(2)],
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

    @pytest.mark.parametrize("k", [MAX_ROOT_DEGREE, Fraction(MAX_ROOT_DEGREE, 2)], ids=["e^z", "e^(z/2)"])
    def test_degree_at_the_bound_is_isolated(self, k):
        assert ExpPoly([(0, -1), (k, 1)]).real_roots() == [(0.0, 1)]  # x^32 − 1

    @pytest.mark.parametrize("terms, x", [
        ([(0, -1), (MAX_ROOT_DEGREE + 1, 1)], "e^z"),
        ([(Fraction(-1, 2), 2), (MAX_ROOT_DEGREE // 2, -1)], "e^(z/2)"),
    ], ids=["e^z", "e^(z/2)"])
    def test_degree_past_the_bound_raises(self, terms, x):
        # before: no bound, and the Sturm sequences' cost grows as a high power of the degree
        want = f"real_roots is bounded at degree {MAX_ROOT_DEGREE}: the polynomial in x = {x} has degree"
        want += f" {MAX_ROOT_DEGREE + 1}"
        with pytest.raises(ExpPolyError, match=re.escape(want)):
            ExpPoly(terms).real_roots()

    @pytest.mark.parametrize("terms, x", [
        ([(0, -1e-300), (1, 1e300)], "e^z"),  # x = 1e-600: −f₀/f₁ rounds to 0.0
        ([(0, -1e300), (1, 1e-300)], "e^z"),  # x = 1e600: −f₀/f₁ overflows
        ([(0, 1e-300), (1, -1e300), (2, 1e300)], "e^z"),  # x ≈ 1e-600 and x ≈ 1: ldexp rounds to 0.0
        ([(0, 1e300), (1, -1e300), (2, 1e-300)], "e^z"),  # x ≈ 1 and x ≈ 1e600: ldexp overflows
        ([(0, -1e-300), (Fraction(1, 2), 1e300)], "e^(z/2)"),
    ], ids=["linear-below", "linear-above", "bisected-below", "bisected-above", "half-integer"])
    def test_zero_outside_float_range_raises(self, terms, x):
        # before: math.log(0.0) raised "math domain error", and the int division an OverflowError
        want = f"a real zero lies outside float range: its x = {x} is past the largest float or below the least"
        with pytest.raises(ExpPolyError, match=f"^{re.escape(want)}$"):
            ExpPoly(terms).real_roots()

    def test_zero_at_the_edges_of_float_range_keeps_its_bits(self):
        # x at the least subnormal and near the largest float are still floats
        assert ExpPoly([(0, -5e-324), (1, 1.0)]).real_roots() == [(math.log(5e-324), 1)]
        assert ExpPoly([(0, -1e300), (1, 1e-8)]).real_roots() == [(math.log(1e300 / 1e-8), 1)]


# ---------------------------------------------------------------- the carrier
# An exact polynomial is stored as int numerators over one reduced positive
# denominator; each check below compares it with a plain {2k: Fraction} model.
def _model(p):
    return {int(2 * k): c for k, c in p.terms()}


def _model_sum(*polys):
    out = {}
    for sign, p in polys:
        for k, c in p.items():
            out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _model_product(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _assert_reduced(p):
    """Exact, no stored zero, and numerators and denominator share no factor."""
    assert p.is_exact and 0 not in p._terms.values() and p._den > 0
    assert math.gcd(p._den, *p._terms.values()) == 1


_exact_coeffs = st.one_of(st.integers(-40, 40), st.fractions(min_value=-5, max_value=5, max_denominator=12))
_exact_polys = st.lists(st.tuples(st.integers(-6, 6), _exact_coeffs), max_size=5).map(
    lambda ts: ExpPoly([(Fraction(k, 2), c) for k, c in ts]))
_divisors = st.one_of(st.integers(-9, 9).filter(bool), st.fractions(-5, 5, max_denominator=9).filter(bool))


@settings(max_examples=120, deadline=None)
@given(_exact_polys, _exact_polys, _divisors, st.integers(0, 4))
def test_exact_arithmetic_matches_the_fraction_model(a, b, d, n):
    ma, mb = _model(a), _model(b)
    results = {
        "+": (a + b, _model_sum((1, ma), (1, mb))),
        "-": (a - b, _model_sum((1, ma), (-1, mb))),
        "neg": (-a, _model_sum((-1, ma))),
        "*": (a * b, _model_product(ma, mb)),
        "/": (a / d, {k: c / d for k, c in ma.items()}),
        "scale": (a.scale(d), {k: c * d for k, c in ma.items()}),
        "int *": (3 * a, {k: 3 * c for k, c in ma.items()}),
        "derive": (a.derive(n), {k: c * Fraction(k, 2) ** n for k, c in ma.items() if k or not n}),
    }
    for op, (got, want) in results.items():
        assert _model(got) == want, op
        assert all(type(c) is Fraction for _, c in got.terms()), op
        _assert_reduced(got)


_float_terms = st.floats(-3.0, 3.0).filter(lambda x: x == 0.0 or abs(x) > 1e-300)
_mixed_polys = st.lists(st.tuples(st.integers(-6, 6), st.one_of(_exact_coeffs, _float_terms)), max_size=5).map(
    lambda ts: ExpPoly([(Fraction(k, 2), c) for k, c in ts]))


def _binary_model(p):
    """The {2k: Fraction} model of p's coefficients at their binary values."""
    return {int(2 * k): Fraction(c) for k, c in p.terms()}


@settings(max_examples=150, deadline=None)
@given(_mixed_polys, _mixed_polys, st.one_of(_divisors, _float_terms), _divisors, st.integers(1, 4))
def test_every_operation_is_the_fraction_model_at_binary_values(a, b, x, d, n):
    # float, exact and mixed inputs alike: each result is the exact model's, reduced
    ma, mb, fx = _binary_model(a), _binary_model(b), Fraction(x)
    results = {
        "+": (a + b, _model_sum((1, ma), (1, mb))),
        "-": (a - b, _model_sum((1, ma), (-1, mb))),
        "neg": (-a, _model_sum((-1, ma))),
        "*": (a * b, _model_product(ma, mb)),
        "/": (a / d, {k: c / d for k, c in ma.items()}),
        "scale": (a.scale(x), {k: c * fx for k, c in ma.items() if fx}),
        "scalar *": (x * a, {k: c * fx for k, c in ma.items() if fx}),
        "derive": (a.derive(n), {k: c * Fraction(k, 2) ** n for k, c in ma.items() if k}),
    }
    for op, (got, want) in results.items():
        assert _binary_model(got) == want, op
        assert all(type(c) is Fraction for _, c in got.terms()), op
        _assert_reduced(got)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.builds(Fraction, st.integers(-64, 64), st.sampled_from([1, 2, 4, 8]))),
                max_size=5))
def test_equal_values_are_equal_whether_float_or_exact(terms):
    exact = ExpPoly([(Fraction(k, 2), c) for k, c in terms])
    floats = ExpPoly([(Fraction(k, 2), float(c)) for k, c in terms])  # dyadic: the same values
    assert exact == floats and hash(exact) == hash(floats)
    keys = [k for k, _ in terms]
    given_once = {Fraction(k, 2) for k, c in terms if c and keys.count(k) == 1}
    assert {k for k, c in floats.terms() if type(c) is float} == given_once  # a merged sum reads back exact
    assert floats.is_exact == (not given_once)
    if not exact.is_zero:
        assert exact != floats + ExpPoly.exp_term(7, 0.5)


def test_a_float_given_once_reads_back_as_that_float():
    p = ExpPoly([(1, 0.1), (0, 0.1), (0, 0.2), (-1, Fraction(1, 3)), (2, 0.0), (Fraction(1, 2), 0.5)])
    assert p.terms() == ((-1, Fraction(1, 3)), (0, Fraction(0.1) + Fraction(0.2)), (Fraction(1, 2), 0.5), (1, 0.1))
    assert [type(c) for _, c in p.terms()] == [Fraction, Fraction, float, float]
    assert type(p.coefficient(1)) is float and p.coefficient(1) == 0.1 and p.coefficient(0) != 0.1 + 0.2
    assert not p.is_exact and ExpPoly([(0, 0.1), (0, 0.2)]).is_exact
    for computed in (p + 0, -p, p * 1, p.scale(1.0), p / 1, p * ExpPoly.constant(1), p.derive(0) + p.derive(1)):
        assert computed.is_exact and all(type(c) is Fraction for _, c in computed.terms())
    assert (p + 0) == p and (-p).coefficient(1) == -Fraction(0.1)
    assert repr(-ExpPoly([(1, 0.25)])) == "ExpPoly(-1/4*e^(1z))"


def test_equality_and_hash_across_float_and_exact_coefficients():
    assert ExpPoly([(0, 0.5)]) == ExpPoly([(0, Fraction(1, 2))])
    assert hash(ExpPoly([(0, 0.5)])) == hash(ExpPoly([(0, Fraction(1, 2))]))
    assert ExpPoly([(0, 0.1)]) != ExpPoly([(0, Fraction(1, 10))])  # 0.1 is not 1/10


def test_a_cancelling_sum_stores_no_zero():
    a = ExpPoly([(-1, Fraction(1, 3)), (0, 2), (1, Fraction(5, 6))])
    b = ExpPoly([(-1, Fraction(-1, 3)), (1, Fraction(1, 6))])
    s = a + b  # e^{-z} cancels; 2 + e^{z}: the denominator drops from 6 to 1
    assert s.terms() == ((0, 2), (1, 1)) and s._terms == {0: 2, 2: 1} and s._den == 1
    assert (a - a).is_zero and (a - a)._terms == {}
    mixed = ExpPoly([(0, 0.5), (1, 1)]) + ExpPoly([(0, Fraction(-1, 2))])
    assert mixed.terms() == ((1, 1),) and 0 not in mixed._terms


_EXACT_F = ("flat", "taub-nut", "modified-taub-nut-1", "modified-taub-nut-2", "super-taub-nut", "taub-bolt",
            "modified-taub-bolt-1", "modified-taub-bolt-2", "super-eguchi-hanson", "eguchi-hanson-lambda",
            "taub-nut-lambda")


def test_the_exact_cold_fill_builds_no_fraction_per_term():
    # no Fraction in operator_polys (each form's polarisation is cached, and its items on F's terms
    # are ints) or real_roots, and in bach_at_zero only the one Fraction of B's int items over their
    # denominator, whatever F's number of terms
    from u2metrics.catalog import catalog_names
    from u2metrics.profiles import MetricSpec

    assert set(_EXACT_F) == {n for n in catalog_names() if catalog_get(n).F.is_exact}
    for name in _EXACT_F:  # every form's polarisation, once
        catalog_get(name).operator_polys, catalog_get(name).bach_at_zero
    specs = [catalog_get(name) for name in _EXACT_F]
    specs = [MetricSpec(m.name, ExpPoly(m.F.terms()), m.C, m.domain) for m in specs]  # fresh F: no cached zeros
    sizes = [len(m.F.terms()) for m in specs]
    new = Fraction.__dict__["__new__"]
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    counts = {"operator_polys": [], "bach_at_zero": [], "real_roots": []}
    Fraction.__new__ = staticmethod(counting)
    try:
        for step, per_spec in counts.items():
            for m in specs:
                built.clear()
                m.F.real_roots() if step == "real_roots" else getattr(m, step)
                per_spec.append(len(built))
    finally:
        Fraction.__new__ = new
    assert sorted(set(sizes)) == [1, 2, 3, 5]  # F with 1, 2, 3 and 5 terms
    assert counts["operator_polys"] == counts["real_roots"] == [0] * len(specs)
    assert len(set(counts["bach_at_zero"])) == 1  # per spec, not per term
    assert all(type(m.bach_at_zero) is Fraction for m in specs)


def test_page_rows_keep_their_float_bits():
    # page's F has four float coefficients; each row entry is c·kⁿ rounded once
    keys, kfs, rows = catalog_get("page").F._rows(4)
    c1, c2 = "0x1.f445231f15093p-4", "0x1.f445231f15093p-3"
    want = [
        ["-" + c1, "-" + c2, "0x1.0000000000000p+0", "-" + c2, "-" + c1],
        ["0x1.f445231f15093p-3", c2, "0x0.0p+0", "-" + c2, "-0x1.f445231f15093p-3"],
        ["-0x1.f445231f15093p-2", "-" + c2, "0x0.0p+0", "-" + c2, "-0x1.f445231f15093p-2"],
        ["0x1.f445231f15093p-1", c2, "0x0.0p+0", "-" + c2, "-0x1.f445231f15093p-1"],
        ["-0x1.f445231f15093p+0", "-" + c2, "0x0.0p+0", "-" + c2, "-0x1.f445231f15093p+0"],
    ]
    assert keys == (-4, -2, 0, 2, 4) and kfs == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert [[x.hex() for x in row] for row in rows] == want
