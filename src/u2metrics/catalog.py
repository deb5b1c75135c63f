"""Closed-form constructors for the classic U(2)-invariant metrics.

Every entry is built from exact coefficients (Fractions where the value is
rational) so the downstream exact code paths stay exact.  Expected tags come
from each metric's known special-geometry properties and are cross-checked
against the classifier by the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .exppoly import ExpPoly
from .numerics import safeguarded_newton
from .profiles import (
    Canonical,
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
)

__all__ = [
    "CatalogError",
    "ParamSpec",
    "CatalogEntry",
    "catalog_names",
    "catalog_get",
    "catalog_entry",
    "catalog_list",
    "page_constants",
    "hirzebruch",
    "hirzebruch_bachflat_k",
]

_F = Fraction


class CatalogError(ValueError):
    """Unknown catalog name or parameter constraint violation."""


@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: float
    constraint: str
    check: Callable[[float], bool]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple
    builder: Callable[..., MetricSpec]
    expected_tags: tuple
    manifold: str

    def build(self, **overrides) -> MetricSpec:
        values = {}
        for p in self.params:
            v = overrides.pop(p.name, p.default)
            if not p.check(v):
                raise CatalogError(f"{self.name}: parameter {p.name}={v} violates {p.constraint}")
            values[p.name] = v
        if overrides:
            raise CatalogError(f"{self.name}: unknown parameter(s) {sorted(overrides)}")
        return self.builder(**values)


def _positive(name) -> ParamSpec:
    defaults = {"m": 1.0, "Lambda": 6.0, "C0": 1.0, "L": 1.0, "z0": 0.5}
    return ParamSpec(name, defaults[name], f"0 < {name} < inf", lambda v: 0 < v < math.inf)


def _real(name, default) -> ParamSpec:
    return ParamSpec(name, default, f"{name} real", lambda v: math.isfinite(v))


def _positive_int(name, default, minimum=1) -> ParamSpec:
    return ParamSpec(
        name,
        default,
        f"integer {name} >= {minimum}",
        lambda v: math.isfinite(v) and float(v) == int(v) and int(v) >= minimum,
    )


# -------------------------------------------------------------- special roots
def page_constants() -> tuple:
    """(ν, z0, coeff) for the Page metric.

    ν is the positive root of ν⁴ + 4ν³ − 6ν² + 12ν − 3 in [0.1, 0.5]; z0 the
    real solution of e^{4z} − 4e^{z} − 3 = 0 in [0.4, 0.8]; coeff the common
    canonical coefficient (sinh z0 − cosh z0)/((2 + cosh 2z0)·sinh z0).
    The choice of ν makes the profile's constant term
    (−ν⁴ + 6ν² + 3)/(4ν(3 + ν²)) equal to 1, which is asserted.
    """
    nu = safeguarded_newton(
        lambda x: (((x + 4.0) * x - 6.0) * x + 12.0) * x - 3.0,
        lambda x: ((4.0 * x + 12.0) * x - 12.0) * x + 12.0,
        0.1,
        0.5,
        tol=1e-14,
    )
    z0 = safeguarded_newton(
        lambda z: math.exp(4.0 * z) - 4.0 * math.exp(z) - 3.0,
        lambda z: 4.0 * math.exp(4.0 * z) - 4.0 * math.exp(z),
        0.4,
        0.8,
        tol=1e-14,
    )
    coeff = (math.sinh(z0) - math.cosh(z0)) / ((2.0 + math.cosh(2.0 * z0)) * math.sinh(z0))
    norm = (-(nu**4) + 6.0 * nu * nu + 3.0) / (4.0 * nu * (3.0 + nu * nu))
    if abs(norm - 1.0) > 1e-10:
        raise CatalogError(f"Page normalization check failed: constant term {norm!r} != 1")
    return (nu, z0, coeff)


def hirzebruch_bachflat_k(z0: float) -> float:
    """The slope k at which the two-bolt extremal profile is also Bach-flat:
    k = 2(1 + 2cosh z0)·sinh z0 / (2cosh z0 + cosh 2z0).
    """
    return (
        2.0 * (1.0 + 2.0 * math.cosh(z0)) * math.sinh(z0)
        / (2.0 * math.cosh(z0) + math.cosh(2.0 * z0))
    )


def hirzebruch(k: int, z0: float, C0: float = 1.0) -> MetricSpec:
    """The extremal Kähler metric on the Hirzebruch-type surface with bolts of
    slope ±k at z = ∓z0:  F = 1 + C1′·cosh 2z + 2C2′·cosh z, C = C0·e^{-z}.
    """
    if k != int(k) or int(k) < 1:
        raise CatalogError(f"hirzebruch: k must be a positive integer, got {k}")
    if z0 <= 0 or C0 <= 0:
        raise CatalogError("hirzebruch: z0 and C0 must be positive")
    k = int(k)
    sh, ch = math.sinh(z0), math.cosh(z0)
    sh2, ch2 = math.sinh(2.0 * z0), math.cosh(2.0 * z0)
    c1p = (sh - k * ch) / ((2.0 + ch2) * sh)
    c2p = (-2.0 * sh2 + k * ch2) / (2.0 * (2.0 + ch2) * sh)
    # cosh basis -> canonical exponential basis: C1 = C4 = C1', C2 = C3 = C2'.
    profile = Canonical(c1p, c2p, c2p, c1p)
    return MetricSpec(
        name=f"hirzebruch(k={k},z0={z0:g},C0={C0:g})",
        F=profile,
        C=ExpFactor(C0, -1),
        domain=Domain(-z0, z0, lo_closed=True, hi_closed=True),
    )


# ------------------------------------------------------------------- builders
def _flat() -> MetricSpec:
    return MetricSpec("flat", Canonical(0, 0, 0, 0), ExpFactor(1.0, -1), Domain(-math.inf, math.inf))


def _taub_nut(m: float) -> MetricSpec:
    half = 1.0 / (2.0 * m)
    return MetricSpec(
        f"taub-nut(m={m:g})",
        Canonical(2, -2, 0, 0),
        EinsteinFactor(half, -half),
        Domain(0.0, math.inf),
    )


def _mod_taub_nut_1(C0: float) -> MetricSpec:
    return MetricSpec(
        f"modified-taub-nut-1(C0={C0:g})",
        Canonical(2, -2, 0, 0),
        ExpFactor(C0, +1),
        Domain(0.0, math.inf),
    )


def _mod_taub_nut_2(C0: float) -> MetricSpec:
    return MetricSpec(
        f"modified-taub-nut-2(C0={C0:g})",
        Canonical(2, -2, 0, 0),
        ExpFactor(C0, -1),
        Domain(0.0, math.inf),
    )


def _super_taub_nut() -> MetricSpec:
    return MetricSpec(
        "super-taub-nut",
        Canonical(0, 0, 2, 2),
        EinsteinFactor(1.0, 1.0),
        Domain(-math.inf, math.inf),
    )


_TAUB_BOLT_F = Canonical(_F(-1, 4), _F(1, 4), _F(-9, 4), _F(9, 4))
_LOG3 = math.log(3.0)


def _taub_bolt(m: float) -> MetricSpec:
    quarter = 1.0 / (4.0 * m)
    return MetricSpec(
        f"taub-bolt(m={m:g})",
        _TAUB_BOLT_F,
        EinsteinFactor(quarter, -quarter),
        Domain(-_LOG3, 0.0, lo_closed=True),
    )


def _mod_taub_bolt_1(C0: float) -> MetricSpec:
    return MetricSpec(
        f"modified-taub-bolt-1(C0={C0:g})",
        _TAUB_BOLT_F,
        ExpFactor(C0, +1),
        Domain(-_LOG3, 0.0, lo_closed=True),
    )


def _mod_taub_bolt_2(C0: float) -> MetricSpec:
    return MetricSpec(
        f"modified-taub-bolt-2(C0={C0:g})",
        _TAUB_BOLT_F,
        ExpFactor(C0, -1),
        Domain(-_LOG3, 0.0, lo_closed=True),
    )


def _burns(m: float) -> MetricSpec:
    return MetricSpec(
        f"burns(m={m:g})",
        Canonical(0, -m * m, 0, 0),
        ExpFactor(1.0, +1),
        Domain(2.0 * math.log(m), math.inf, lo_closed=True),
    )


def _eguchi_hanson(m: float) -> MetricSpec:
    return MetricSpec(
        f"eguchi-hanson(m={m:g})",
        Canonical(-2.0 * m**4, 0, 0, 0),
        ExpFactor(1.0, +1),
        Domain(2.0 * math.log(m), math.inf, lo_closed=True),
    )


def _super_eguchi_hanson() -> MetricSpec:
    return MetricSpec(
        "super-eguchi-hanson",
        ExpPoly([(0, 1), (-2, 1)]),
        ExpFactor(1.0, +1),
        Domain(-math.inf, math.inf),
    )


def _lebrun_profile(k: int, m: float) -> Canonical:
    return Canonical(-2.0 * m**4 * (k - 1), m * m * (k - 2), 0, 0)


def _lebrun(k: int, m: float) -> MetricSpec:
    k = int(k)
    return MetricSpec(
        f"lebrun(k={k},m={m:g})",
        _lebrun_profile(k, m),
        ExpFactor(1.0, +1),
        Domain(2.0 * math.log(m), math.inf, lo_closed=True),
    )


def _mod_lebrun(k: int, m: float) -> MetricSpec:
    k = int(k)
    return MetricSpec(
        f"modified-lebrun(k={k},m={m:g})",
        _lebrun_profile(k, m),
        ExpFactor(1.0, -1),
        Domain(2.0 * math.log(m), math.inf, lo_closed=True),
    )


def _eh_lambda(k: int) -> MetricSpec:
    """Einstein metric on a rank-one bundle of degree −k, k ≥ 2.

    Smoothness pins the parameters: m⁴ = 4(1+k)/3 and Λ = 4 − 2k; the domain
    starts at the profile's largest zero (the bolt).
    """
    k = int(k)
    profile = Canonical(-2 * _F(4 * (1 + k), 3), 0, _F(2 * k - 4, 6), 0)  # −2m⁴, −Λ/6
    return MetricSpec(
        f"eguchi-hanson-lambda(k={k})",
        profile,
        ExpFactor(1.0, +1),
        Domain(profile.expand().real_roots()[-1][0], math.inf, lo_closed=True),
    )


def _fubini_study(Lambda: float) -> MetricSpec:
    return MetricSpec(
        f"fubini-study(Lambda={Lambda:g})",
        Canonical(0, -Lambda / 6.0, 0, 0),
        ExpFactor(1.0, -1),
        Domain(math.log(Lambda / 6.0), math.inf, lo_closed=True),
    )


def _taub_nut_lambda(m: float, L: float, Lambda: float) -> MetricSpec:
    """Einstein, Bach-flat, conformally extremal; usually singular (the profile
    generally has zeros of non-integer slope, so no completeness is implied).
    Exact coefficients keep F's double zero at z = 0 (a + b = 2); the domain
    runs from the largest zero of F (if any) out to +inf.
    """
    mf, lf, cubic = _F(m), _F(L), _F(m) ** 3 * _F(Lambda) / 3
    a = (mf - lf + cubic) / mf
    b = (mf + lf - cubic) / mf
    profile = Canonical(a, -a, -b, b)
    zeros = profile.expand().real_roots()
    half = 1.0 / (2.0 * m)
    return MetricSpec(
        f"taub-nut-lambda(m={m:g},L={L:g},Lambda={Lambda:g})",
        profile,
        EinsteinFactor(half, -half),
        Domain(zeros[-1][0] if zeros else -math.inf, math.inf),
    )


def _page(Lambda: float) -> MetricSpec:
    nu, z0, coeff = page_constants()
    c5 = math.sqrt(Lambda * nu * (3.0 + nu * nu) / (12.0 * (1.0 + nu * nu)))
    # sanity: the exact conformal constant is close to its rounded literature value
    if abs(12.0 * (1.0 + nu * nu) / (nu * (3.0 + nu * nu)) - 14.931) > 5e-3:
        raise CatalogError("Page conformal constant drifted from its expected value")
    return MetricSpec(
        f"page(Lambda={Lambda:g})",
        Canonical(coeff, coeff, coeff, coeff),
        EinsteinFactor(c5, c5),
        Domain(-z0, z0, lo_closed=True, hi_closed=True),
    )


# -------------------------------------------------------------------- registry
_ENTRIES = (
    CatalogEntry("flat", (), _flat, ("einstein", "ricci_flat", "bach_flat"), "R^4"),
    CatalogEntry(
        "taub-nut",
        (_positive("m"),),
        _taub_nut,
        ("ricci_flat", "hyperkahler_Iplus", "sd", "conformally_extremal"),
        "C^2",
    ),
    CatalogEntry(
        "modified-taub-nut-1",
        (_positive("C0"),),
        _mod_taub_nut_1,
        ("kahler_minus", "extremal", "zsc", "sd", "bach_flat"),
        "C^2",
    ),
    CatalogEntry(
        "modified-taub-nut-2",
        (_positive("C0"),),
        _mod_taub_nut_2,
        ("kahler_plus", "extremal", "sd", "bach_flat"),
        "C^2 minus origin",
    ),
    CatalogEntry(
        "super-taub-nut",
        (),
        _super_taub_nut,
        ("ricci_flat", "hyperkahler_Iminus", "asd"),
        "incomplete (curvature singularity)",
    ),
    CatalogEntry(
        "taub-bolt",
        (_positive("m"),),
        _taub_bolt,
        ("einstein", "ricci_flat", "bach_flat"),
        "O(-1)",
    ),
    CatalogEntry(
        "modified-taub-bolt-1",
        (_positive("C0"),),
        _mod_taub_bolt_1,
        ("kahler_minus", "extremal", "bach_flat"),
        "O(-1)",
    ),
    CatalogEntry(
        "modified-taub-bolt-2",
        (_positive("C0"),),
        _mod_taub_bolt_2,
        ("kahler_plus", "extremal", "bach_flat"),
        "O(+1)",
    ),
    CatalogEntry(
        "burns",
        (_positive("m"),),
        _burns,
        ("kahler_minus", "zsc", "extremal"),
        "O(-1)",
    ),
    CatalogEntry(
        "eguchi-hanson",
        (_positive("m"),),
        _eguchi_hanson,
        ("ricci_flat", "kahler_minus", "zsc", "sd"),
        "O(-2)",
    ),
    CatalogEntry(
        "super-eguchi-hanson",
        (),
        _super_eguchi_hanson,
        ("ricci_flat", "kahler_einstein"),
        "incomplete (curvature singularity)",
    ),
    CatalogEntry(
        "lebrun",
        (_positive_int("k", 1), _positive("m")),
        _lebrun,
        ("kahler_minus", "zsc"),
        "O(-k)",
    ),
    CatalogEntry(
        "modified-lebrun",
        (_positive_int("k", 1), _positive("m")),
        _mod_lebrun,
        ("kahler_plus", "extremal"),
        "one-point compactification of O(+k)",
    ),
    CatalogEntry(
        "eguchi-hanson-lambda",
        (_positive_int("k", 2, minimum=2),),
        _eh_lambda,
        ("einstein",),
        "O(-k) with m^4 = 4(1+k)/3, Lambda = 4-2k",
    ),
    CatalogEntry(
        "fubini-study",
        (_positive("Lambda"),),
        _fubini_study,
        ("einstein", "kahler_plus", "kahler_einstein"),
        "CP^2",
    ),
    CatalogEntry(
        "taub-nut-lambda",
        (_positive("m"), _real("L", 1.0), _real("Lambda", 1.0)),
        _taub_nut_lambda,
        ("einstein", "bach_flat", "conformally_extremal"),
        "O(-k) sometimes, but usually singular",
    ),
    CatalogEntry(
        "page",
        (_positive("Lambda"),),
        _page,
        ("einstein", "bach_flat", "conformally_extremal"),
        "CP^2 # CP^2-bar",
    ),
    CatalogEntry(
        "hirzebruch",
        (_positive_int("k", 1), _positive("z0"), _positive("C0")),
        hirzebruch,
        ("kahler_plus", "extremal"),
        "Hirzebruch-type surface (two bolts, slopes +-k)",
    ),
)

_BY_NAME = {e.name: e for e in _ENTRIES}


def catalog_names() -> tuple:
    return tuple(e.name for e in _ENTRIES)


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise CatalogError(f"unknown catalog metric {name!r}; known: {', '.join(_BY_NAME)}") from None


def catalog_get(name: str, params: Optional[dict] = None) -> MetricSpec:
    return catalog_entry(name).build(**(params or {}))


def catalog_list() -> str:
    """One line per entry: ``name | params | tags | manifold``."""
    lines = []
    for e in _ENTRIES:
        params = ", ".join(f"{p.name}={p.default:g}" for p in e.params) or "-"
        tags = "+".join(e.expected_tags)
        lines.append(f"{e.name} | {params} | {tags} | {e.manifold}")
    return "\n".join(lines)
