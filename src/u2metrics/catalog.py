"""Closed-form constructors for the classic U(2)-invariant metrics.

Every entry is built from exact coefficients (Fractions where the value is
rational) so the downstream exact code paths stay exact.  Expected tags come
from each metric's known special-geometry properties and are cross-checked
against the classifier by the test suite.

``_ENTRIES`` is the one description of the families: each row names its
parameters and gives a builder that returns ``(F, C, domain)``; the entry's
``build`` checks the parameters and names the spec.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional

from .exppoly import ExpPoly, _positive_roots
from .profiles import Domain, EinsteinFactor, ExpFactor, MetricSpec, _Record, canonical

__all__ = [
    "CatalogError",
    "ParamSpec",
    "CatalogEntry",
    "catalog_names",
    "catalog_get",
    "catalog_entry",
    "catalog_list",
    "page_constants",
    "hirzebruch_bachflat_k",
]

_F = Fraction


class CatalogError(ValueError):
    """Unknown catalog name, parameter constraint violation, or parameters
    that give no valid spec (a non-finite coefficient, say)."""


class ParamSpec(_Record):
    """One parameter; an integer default makes it an integer parameter."""

    def __init__(self, name: str, default: float, constraint: str, check: Callable[[float], bool]):
        self.__dict__.update(name=name, default=default, constraint=constraint, check=check)


class CatalogEntry(_Record):
    """A catalog family: its parameters, the builder of its (F, C, domain), its expected tags and its manifold."""

    def __init__(self, name: str, params: tuple, builder: Callable[..., tuple], expected_tags: tuple, manifold: str):
        self.__dict__.update(name=name, params=params, builder=builder, expected_tags=expected_tags, manifold=manifold)

    def build(self, **overrides) -> MetricSpec:
        """The spec ``name(p=v,...)`` (bare ``name`` without parameters):
        integer parameters are shown as digits, the others with ``:g``."""
        values, shown = {}, []
        for p in self.params:
            v = overrides.pop(p.name, p.default)
            if not p.check(v):
                raise CatalogError(f"{self.name}: parameter {p.name}={v} violates {p.constraint}")
            whole = isinstance(p.default, int)
            values[p.name] = v = int(v) if whole else v
            shown.append(f"{p.name}={v:{'d' if whole else 'g'}}")
        if overrides:
            raise CatalogError(f"{self.name}: unknown parameter(s) {sorted(overrides)}")
        name = f"{self.name}({','.join(shown)})" if shown else self.name
        try:
            F, C, domain = self.builder(**values)
        except (ValueError, ArithmeticError) as exc:
            raise CatalogError(f"{name} is not a valid metric: {exc}") from None
        return MetricSpec(name, F, C, domain)


def _positive(name, default) -> ParamSpec:
    return ParamSpec(name, default, f"0 < {name} < inf", lambda v: 0 < v < math.inf)


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

    ν is the float nearest the one positive root of ν⁴ + 4ν³ − 6ν² + 12ν − 3;
    z0 the one real zero of e^{4z} − 4e^{z} − 3, as ``real_roots`` gives it;
    coeff the common canonical coefficient (sinh z0 − cosh z0)/((2 + cosh 2z0)·sinh z0).
    The choice of ν makes the profile's constant term
    (−ν⁴ + 6ν² + 3)/(4ν(3 + ν²)) equal to 1, which is asserted.
    """
    (nu,) = _positive_roots([-3, 12, -6, 4, 1])
    ((z0, _),) = ExpPoly([(4, 1), (1, -4), (0, -3)]).real_roots()
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


# ------------------------------------------------------------------- builders
_LINE = Domain(-math.inf, math.inf)
# taub-nut and its two conformally Kähler partners share F and the domain
_NUT_F, _NUT_D = canonical(2, -2, 0, 0), Domain(0.0, math.inf)
# as do taub-bolt and its partners on O(-1) and O(+1)
_BOLT_F = canonical(_F(-1, 4), _F(1, 4), _F(-9, 4), _F(9, 4))
_BOLT_D = Domain(-math.log(3.0), 0.0, lo_closed=True)


def _from(z: float) -> Domain:
    """[z, ∞), closed at the bolt z."""
    return Domain(z, math.inf, lo_closed=True)


def _lebrun_profile(k: int, m: float) -> ExpPoly:
    return canonical(-2.0 * m**4 * (k - 1), m * m * (k - 2), 0, 0)


def _eh_lambda(k: int) -> tuple:
    """Einstein metric on a rank-one bundle of degree −k, k ≥ 2.

    Smoothness pins the parameters: m⁴ = 4(1+k)/3 and Λ = 4 − 2k; the domain
    starts at the profile's largest zero (the bolt).
    """
    F = canonical(-2 * _F(4 * (1 + k), 3), 0, _F(2 * k - 4, 6), 0)  # −2m⁴, −Λ/6
    return F, ExpFactor(1.0, +1), _from(F.real_roots()[-1][0])


def _taub_nut_lambda(m: float, L: float, Lambda: float) -> tuple:
    """Einstein, Bach-flat, conformally extremal; usually singular (the profile
    generally has zeros of non-integer slope, so no completeness is implied).
    Exact coefficients keep F's double zero at z = 0 (a + b = 2); the domain
    runs from the largest zero of F (if any) out to +inf.
    """
    mf, lf, cubic = _F(m), _F(L), _F(m) ** 3 * _F(Lambda) / 3
    a = (mf - lf + cubic) / mf
    b = (mf + lf - cubic) / mf
    F = canonical(a, -a, -b, b)
    zeros = F.real_roots()
    half = 1.0 / (2.0 * m)
    return F, EinsteinFactor(half, -half), Domain(zeros[-1][0] if zeros else -math.inf, math.inf)


def _page(Lambda: float) -> tuple:
    nu, z0, coeff = page_constants()
    c5 = math.sqrt(Lambda * nu * (3.0 + nu * nu) / (12.0 * (1.0 + nu * nu)))
    # sanity: the exact conformal constant is close to its rounded literature value
    if abs(12.0 * (1.0 + nu * nu) / (nu * (3.0 + nu * nu)) - 14.931) > 5e-3:
        raise CatalogError("Page conformal constant drifted from its expected value")
    return (
        canonical(coeff, coeff, coeff, coeff),
        EinsteinFactor(c5, c5),
        Domain(-z0, z0, lo_closed=True, hi_closed=True),
    )


def _hirzebruch(k: int, z0: float, C0: float) -> tuple:
    """F = 1 + C1′·cosh 2z + 2C2′·cosh z, C = C0·e^{-z}."""
    sh, ch = math.sinh(z0), math.cosh(z0)
    sh2, ch2 = math.sinh(2.0 * z0), math.cosh(2.0 * z0)
    c1p = (sh - k * ch) / ((2.0 + ch2) * sh)
    c2p = (-2.0 * sh2 + k * ch2) / (2.0 * (2.0 + ch2) * sh)
    # cosh basis -> canonical exponential basis: C1 = C4 = C1', C2 = C3 = C2'.
    return (
        canonical(c1p, c2p, c2p, c1p),
        ExpFactor(C0, -1),
        Domain(-z0, z0, lo_closed=True, hi_closed=True),
    )


# -------------------------------------------------------------------- registry
_M, _C0, _K = _positive("m", 1.0), _positive("C0", 1.0), _positive_int("k", 1)
_SINGULAR = "incomplete (curvature singularity)"

_ENTRIES = tuple(
    CatalogEntry(name, params, builder, tuple(tags.split()), manifold)
    for name, params, builder, tags, manifold in (
        ("flat", (), lambda: (canonical(0, 0, 0, 0), ExpFactor(1.0, -1), _LINE),
         "einstein ricci_flat bach_flat", "R^4"),
        ("taub-nut", (_M,), lambda m: (_NUT_F, EinsteinFactor(1.0 / (2.0 * m), -1.0 / (2.0 * m)), _NUT_D),
         "ricci_flat hyperkahler_Iplus sd conformally_extremal", "C^2"),
        ("modified-taub-nut-1", (_C0,), lambda C0: (_NUT_F, ExpFactor(C0, +1), _NUT_D),
         "kahler_minus extremal zsc sd bach_flat", "C^2"),
        ("modified-taub-nut-2", (_C0,), lambda C0: (_NUT_F, ExpFactor(C0, -1), _NUT_D),
         "kahler_plus extremal sd bach_flat", "C^2 minus origin"),
        ("super-taub-nut", (), lambda: (canonical(0, 0, 2, 2), EinsteinFactor(1.0, 1.0), _LINE),
         "ricci_flat hyperkahler_Iminus asd", _SINGULAR),
        ("taub-bolt", (_M,), lambda m: (_BOLT_F, EinsteinFactor(1.0 / (4.0 * m), -1.0 / (4.0 * m)), _BOLT_D),
         "einstein ricci_flat bach_flat", "O(-1)"),
        ("modified-taub-bolt-1", (_C0,), lambda C0: (_BOLT_F, ExpFactor(C0, +1), _BOLT_D),
         "kahler_minus extremal bach_flat", "O(-1)"),
        ("modified-taub-bolt-2", (_C0,), lambda C0: (_BOLT_F, ExpFactor(C0, -1), _BOLT_D),
         "kahler_plus extremal bach_flat", "O(+1)"),
        ("burns", (_M,), lambda m: (canonical(0, -m * m, 0, 0), ExpFactor(1.0, +1), _from(2.0 * math.log(m))),
         "kahler_minus zsc extremal", "O(-1)"),
        ("eguchi-hanson", (_M,),
         lambda m: (canonical(-2.0 * m**4, 0, 0, 0), ExpFactor(1.0, +1), _from(2.0 * math.log(m))),
         "ricci_flat kahler_minus zsc sd", "O(-2)"),
        ("super-eguchi-hanson", (), lambda: (canonical(2, 0, 0, 0), ExpFactor(1.0, +1), _LINE),
         "ricci_flat kahler_einstein", _SINGULAR),
        ("lebrun", (_K, _M),
         lambda k, m: (_lebrun_profile(k, m), ExpFactor(1.0, +1), _from(2.0 * math.log(m))),
         "kahler_minus zsc", "O(-k)"),
        ("modified-lebrun", (_K, _M),
         lambda k, m: (_lebrun_profile(k, m), ExpFactor(1.0, -1), _from(2.0 * math.log(m))),
         "kahler_plus extremal", "one-point compactification of O(+k)"),
        ("eguchi-hanson-lambda", (_positive_int("k", 2, minimum=2),), _eh_lambda,
         "einstein", "O(-k) with m^4 = 4(1+k)/3, Lambda = 4-2k"),
        ("fubini-study", (_positive("Lambda", 6.0),),
         lambda Lambda: (canonical(0, -Lambda / 6.0, 0, 0), ExpFactor(1.0, -1), _from(math.log(Lambda / 6.0))),
         "einstein kahler_plus kahler_einstein", "CP^2"),
        ("taub-nut-lambda", (_M, _real("L", 1.0), _real("Lambda", 1.0)), _taub_nut_lambda,
         "einstein bach_flat conformally_extremal", "O(-k) sometimes, but usually singular"),
        ("page", (_positive("Lambda", 6.0),), _page,
         "einstein bach_flat conformally_extremal", "CP^2 # CP^2-bar"),
        ("hirzebruch", (_K, _positive("z0", 0.5), _C0), _hirzebruch,
         "kahler_plus extremal", "Hirzebruch-type surface (two bolts, slopes +-k)"),
    )
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
