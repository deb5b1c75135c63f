"""Profiles, domains, and conformal-factor models."""
import math
from fractions import Fraction

import numpy as np
import pytest

from u2metrics.catalog import catalog_get, catalog_names
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

    @pytest.mark.parametrize("m", [catalog_get(n) for n in catalog_names()] + [
        MetricSpec("ratio", canonical(0, 0, 0, 0),
                   RatioFactor(ExpPoly([(-1, 2), (0.5, 1)]), ExpPoly([(0, 1), (-1, Fraction(1, 3)), (1, 0.25)])),
                   Domain(-2.0, 2.0)),
    ], ids=lambda m: m.name)
    def test_float_value_is_the_array_value(self, m):
        # a float z skips the array helpers: its value is jet_C's C bit for bit, and the array
        # path's within a few ulps of each carrier's termwise magnitude (np.exp and math.exp
        # may differ in the last bit, which cancellation in g or num/den amplifies)
        lo, hi = m.domain.finite_window()
        z = np.linspace(lo, hi, 41)[1:-1].tolist()
        got = [conformal_value(m, x) for x in z]
        assert got == [jet_C(m, x)[0][0] for x in z]
        carriers = m.c_ratio if m.g_poly is None else (m.g_poly,)
        for x, a, b in zip(z, got, conformal_value(m, np.array(z)).tolist()):
            size = sum(sum(abs(float(c)) * math.exp(k * x) for k, c in p.terms()) / abs(p.eval(x)) for p in carriers)
            assert abs(a - b) <= 8 * np.finfo(float).eps * size * abs(b), (x, a, b)

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
        assert (m.g_poly, m.tag) == (None, None)

    @pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])
    def test_single_term_ratio_with_an_odd_half_exponent_takes_g_from_u(self, k):
        # C = e^{kz}: g = e^{−kz/2} has a quarter-integer exponent, so there is no termwise g and
        # jet_C reads g from u = den/num; before, g_poly raised and every predicate was indeterminate
        from u2metrics.classify import classify, sample_grid
        from u2metrics.curvature import curvature_sample

        m = MetricSpec("t", canonical(0, 0, 0, 0), RatioFactor(ExpPoly.exp_term(k), ExpPoly.constant(1)), Domain(0.0, 5.0))
        assert m.g_poly is None
        z = 1.3
        _, g = jet_C(m, z)
        assert g[0] == pytest.approx(math.exp(-k * z / 2), rel=1e-14)
        assert g[1] == pytest.approx(-k / 2 * math.exp(-k * z / 2), rel=1e-14)
        cs = curvature_sample(m, sample_grid(m.domain, 12))
        assert all(np.isfinite(getattr(cs, name)).all() for name in ("s", "ric0_a", "ric0_b", "w_plus", "w_minus"))
        verdicts = {r.verdict for r in classify(m).entries.values()} | {r.verdict for r in classify(m, t=1).entries.values()}
        assert "indeterminate" not in verdicts

    def test_single_term_ratio_off_the_einstein_family_is_exactly_not_einstein(self):
        # C = e^{−2z}: g = e^{z} is termwise, though it has no (C5, C6) pair at exponents ±½,
        # so einstein reads the exact tf Ric: ric0_a = 4g(g″ − ¼g) = 3e^{2z}
        from u2metrics.classify import classify

        m = MetricSpec("t", canonical(0, 0, 0, 0), RatioFactor(ExpPoly([(-2, 1)]), ExpPoly.constant(1)), Domain(-1.0, 1.0))
        assert m.g_poly == ExpPoly([(1, 1.0)])
        assert m.tag is None
        rep = classify(m)
        assert (rep.verdict("einstein"), rep.residual("einstein")) == ("no", 3.0)

    def test_out_of_domain_raises(self):
        m = self._metric()
        with pytest.raises(OutOfDomainError):
            jet_F(m, -1.0)


def _records() -> dict:
    """One instance of each frozen record, by name: (a builder, its repr, a field, a builder
    that fails validation with ValueError or None)."""
    from u2metrics.catalog import CatalogEntry, ParamSpec
    from u2metrics.classify import PredicateResult
    from u2metrics.curvature import CurvatureSample
    from u2metrics.geometry import Bolt, EndReport, TranscriptionResult

    flat = canonical(0, 0, 0, 0)
    spec = lambda: MetricSpec("flat", flat, ExpFactor(1, -1), Domain(0.0, 1.0))  # noqa: E731
    unit = "Domain(lo=0.0, hi=1.0, lo_closed=False, hi_closed=False)"
    spec_text = f"MetricSpec(name='flat', F=ExpPoly(1), C=ExpFactor(c0=Fraction(1, 1), eps=-1), domain={unit})"
    return {
        "Domain": (lambda: Domain(0.0, 1.0), unit, "lo", lambda: Domain(1.0, 0.0)),
        "ExpFactor": (lambda: ExpFactor(1, 1), "ExpFactor(c0=Fraction(1, 1), eps=1)", "c0", lambda: ExpFactor(1, 2)),
        "EinsteinFactor": (lambda: EinsteinFactor(1, 1), "EinsteinFactor(c5=Fraction(1, 1), c6=Fraction(1, 1))", "c5",
                           lambda: EinsteinFactor(0, 0.0)),
        "RatioFactor": (lambda: RatioFactor(ExpPoly([(1, 2)]), ExpPoly.constant(3)),
                        "RatioFactor(num=ExpPoly(2*e^(1z)), den=ExpPoly(3))", "num",
                        lambda: RatioFactor(ExpPoly([(1, 2)]), ExpPoly())),
        "MetricSpec": (spec, spec_text, "F", lambda: MetricSpec("zero", ExpPoly(), ExpFactor(1, -1), Domain(0.0, 1.0))),
        "CurvatureSample": (
            lambda: CurvatureSample(*(k / 4 for k in range(21))),
            "CurvatureSample(z=0.0, s=0.25, ric0_a=0.5, ric0_b=0.75, w_plus=1.0, w_minus=1.25, w_plus_norm2=1.5, "
            "w_minus_norm2=1.75, delW_plus_pot=2.0, delW_minus_pot=2.25, bach_B1=2.5, bach_B2=2.75, F=3.0, F1d=3.25, "
            "F2d=3.5, F3d=3.75, F4d=4.0, C=4.25, C1d=4.5, C2d=4.75, s1d=5.0)",
            "s",
            None,
        ),
        "PredicateResult": (lambda: PredicateResult("csc", "yes", 0.0, "exact"),
                            "PredicateResult(name='csc', verdict='yes', residual=0.0, certificate='exact')", "verdict",
                            None),
        "Bolt": (lambda: Bolt(0.0, 2.0, True), "Bolt(z0=0.0, slope=2.0, smooth_quotient=True, degenerate=False)", "z0",
                 None),
        "EndReport": (lambda: EndReport("upper", "ALF", True, cone_angle=0.5),
                      "EndReport(side='upper', kind='ALF', complete=True, self_intersection=None, cone_angle=0.5, "
                      "diagnostics={})", "kind", None),
        "TranscriptionResult": (lambda: TranscriptionResult(spec(), 0.25, 0.5),
                                f"TranscriptionResult(metric={spec_text}, f_rms=0.25, c_rms=0.5)", "f_rms", None),
        "ParamSpec": (lambda: ParamSpec("m", 1.0, "m real", math.isfinite),
                      "ParamSpec(name='m', default=1.0, constraint='m real', check=<built-in function isfinite>)",
                      "default", None),
        "CatalogEntry": (lambda: CatalogEntry("flat", (), tuple, ("sd", "asd"), "R^4"),
                         "CatalogEntry(name='flat', params=(), builder=<class 'tuple'>, expected_tags=('sd', 'asd'), "
                         "manifold='R^4')", "manifold", None),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_frozen_record_semantics(name):
    # a frozen record's value semantics: the repr, value equality only within a type,
    # a hash of the values (none for EndReport, whose diagnostics is a dict), read-only fields
    # and the validation of their constructors
    build, text, field, bad = _records()[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == b and not a != b and a is not b
    others = [r[0]() for n, r in _records().items() if n != name]
    assert all(a != o for o in others)  # ExpFactor(1, 1) != EinsteinFactor(1, 1) among them
    if name == "EndReport":
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    assert getattr(a, field) == before
    if bad is not None:
        with pytest.raises(ValueError):
            bad()
