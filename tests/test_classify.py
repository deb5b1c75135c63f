"""Predicate classification and the exponential-family fit."""
import ast
import dataclasses
import inspect
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import u2metrics
import u2metrics.classify
from u2metrics.btflat import bt_grid_residual
from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.curvature import curvature_sample, ricci_form_kahler
from u2metrics.classify import (
    PREDICATES,
    classify,
    sample_grid,
)
from u2metrics.exppoly import ExpPoly
from u2metrics.geometry import RankDeficientError, classify_end, find_bolts, fit_exp_family
from u2metrics.profiles import (
    Domain,
    EinsteinFactor,
    ExpFactor,
    MetricSpec,
    RatioFactor,
    canonical,
    canonical_coefficients,
)

DATA = pathlib.Path(__file__).resolve().parent / "data"
SWEEP_GOLDENS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "data" / "sweep_goldens.json"
MODES = {"default": {}, "t1": {"t": 1.0}, "grid": {"use_exact": False}}

# specs whose every predicate is indeterminate: an interior zero of F, a pole
# of C, a negative C and a C whose square underflows
SINGULAR = [
    MetricSpec("bad", canonical(0, -1, 0, 0), ExpFactor(1.0, -1), Domain(-2.0, 2.0)),
    MetricSpec("p", canonical(0, 0, 0, 0), EinsteinFactor(1, -1), Domain(-2.0, 3.0)),
    MetricSpec(
        "neg", canonical(0, 0, 0, 0), RatioFactor(ExpPoly.constant(-1), ExpPoly.constant(1)), Domain(-1.0, 1.0)
    ),
    MetricSpec("far", canonical(0, 0, 0, 0), ExpFactor(1.0, -1), Domain(300.0, 400.0)),
]


class TestTags:
    def test_taub_nut(self):
        tags = classify(catalog_get("taub-nut", {"m": 1.0}), tol=1e-8).tags()
        for t in ("ricci_flat", "hyperkahler_Iplus", "sd", "conformally_extremal"):
            assert t in tags
        assert "asd" not in tags

    def test_page_is_einstein_not_kahler(self):
        tags = classify(catalog_get("page", {"Lambda": 12.0}), tol=1e-8).tags()
        assert "einstein" in tags and "bach_flat" in tags
        assert "kahler_plus" not in tags and "kahler_minus" not in tags

    def test_scale_invariance_of_tags(self):
        for c0 in (1.0, 10.0):
            tags = classify(catalog_get("modified-taub-nut-2", {"C0": c0}), tol=1e-8).tags()
            assert set(tags) >= {"kahler_plus", "extremal", "sd", "bach_flat"}

    def test_exact_and_grid_paths_agree(self):
        m = catalog_get("taub-bolt", {"m": 1.0})
        exact = classify(m, tol=1e-8, use_exact=True).tags()
        grid = classify(m, tol=1e-8, use_exact=False).tags()
        assert exact == grid

    def test_report_text_and_tree(self):
        rep = classify(catalog_get("flat"), tol=1e-8)
        text = rep.text()
        assert "einstein yes" in text
        tree = rep.tree()
        assert tree["predicates"]["einstein"]["verdict"] == "yes"

    @pytest.mark.parametrize("m,t,reason", [
        # F = 1 − e^{-z} vanishes at z = 0
        (
            MetricSpec("bad", canonical(0, -1, 0, 0), ExpFactor(1.0, -1), Domain(-2.0, 2.0)),
            None,
            "F vanishes at z=0 inside the domain",
        ),
        # F = 1 − 0.001·e^{z} changes sign at ln 1000, between two grid points
        (
            MetricSpec("s", canonical(0, 0, -0.001, 0), ExpFactor(1.0, -1), Domain(-1.0, math.inf)),
            1.0,
            "F vanishes at z=6.90776 inside the domain",
        ),
        # C = e^{-z}/(1 − e^{-z})² has a pole at z = 0
        (
            MetricSpec("p", canonical(0, 0, 0, 0), EinsteinFactor(1, -1), Domain(-2.0, 3.0)),
            None,
            "C's denominator vanishes at z=0 inside the domain",
        ),
    ], ids=["F-zero-on-grid", "F-zero-between-grid-points", "C-pole"])
    def test_singular_grid_is_indeterminate(self, m, t, reason):
        # an interior zero of F or of C's num/den makes residual predicates meaningless
        rep = classify(m, tol=1e-8, t=t)
        names = [n for n in PREDICATES if t is not None or n != "bt_flat"]
        assert list(rep.entries) == names
        for name in names:
            assert (rep.verdict(name), rep.entries[name].certificate) == ("indeterminate", reason)

    @pytest.mark.parametrize("m,reason", [
        # C = −1 is negative everywhere, with no zero to find
        (
            MetricSpec(
                "neg", canonical(0, 0, 0, 0), RatioFactor(ExpPoly.constant(-1), ExpPoly.constant(1)),
                Domain(-1.0, 1.0),
            ),
            "is not positive",
        ),
        # C = e^{-z} ≈ 1e-174 at z = 400: g⁴ = C⁻² in Bach overflows past z ≈ 354.9 and
        # multiplies a zero, first at the grid point z ≈ 355.93
        (
            MetricSpec("far", canonical(0, 0, 0, 0), ExpFactor(1.0, -1), Domain(300.0, 400.0)),
            "bach_B1 is not finite at z=355.9",
        ),
    ], ids=["negative-C", "underflowed-C"])
    def test_sample_pass_error_is_indeterminate(self, m, reason):
        rep = classify(m, tol=1e-8, t=1.0)
        assert list(rep.entries) == list(PREDICATES)
        for e in rep.entries.values():
            assert e.verdict == "indeterminate" and reason in e.certificate

    def test_bt_flat_requires_t(self):
        m = catalog_get("taub-bolt", {"m": 1.0})
        assert "bt_flat" not in classify(m, tol=1e-8).entries
        rep = classify(m, tol=1e-8, t=1.0)
        assert rep.verdict("bt_flat") == "yes"

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_unmeetable_tol_raises(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            classify(catalog_get("taub-nut"), tol=tol)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_raises(self, t):
        # before: nan gave bt_flat indeterminate, "B^t residuals are not finite at z=..."
        with pytest.raises(ValueError, match=f"t must be finite, got {t!r}"):
            classify(catalog_get("taub-bolt"), t=t)

    def test_all_predicates_reported(self):
        rep = classify(catalog_get("flat"), tol=1e-8, t=1.0)
        assert set(rep.entries) == set(PREDICATES)


class TestCatalogVerdicts:
    """Every predicate's verdict on the 18 catalog entries, pinned in
    ``tests/data/verdicts.json`` as the scalar (one point at a time)
    evaluation gave them, at the default tol 1e-9."""

    PINNED = json.loads((DATA / "verdicts.json").read_text())

    @pytest.mark.parametrize("name", catalog_names())
    @pytest.mark.parametrize("mode", list(MODES))
    def test_verdicts_are_pinned(self, name, mode):
        rep = classify(catalog_get(name), **MODES[mode])
        assert {n: e.verdict for n, e in rep.entries.items()} == self.PINNED[f"{name}/{mode}"]

    @pytest.mark.parametrize("name", catalog_names())
    def test_sweep_goldens(self, name):
        # the benchmark's sweep goldens, read without writing them
        golden = json.loads(SWEEP_GOLDENS.read_text())[name]
        m = catalog_get(name)
        assert set(golden["expected_tags"]) <= set(classify(m).tags())
        assert classify(m, t=1.0).verdict("bt_flat") == golden["bt_flat"]
        bolts = find_bolts(m)
        assert {"count": len(bolts), "slopes": [round(b.slope, 6) + 0.0 for b in bolts]} == golden["bolts"]
        for side in ("lower", "upper"):
            rep = classify_end(m, side)
            assert {"kind": rep.kind, "self_intersection": rep.self_intersection} == golden[side]

    def test_fragile_super_taub_nut_verdict_holds(self):
        # csc, zsc and ricci_flat rest on a residual of about 8.9e-10 against
        # tol 1e-9; recorded so that a flip shows here first
        rep = classify(catalog_get("super-taub-nut"))
        assert rep.residual("csc") < 1e-9
        assert [rep.verdict(n) for n in ("csc", "zsc", "ricci_flat")] == ["yes"] * 3

    @pytest.mark.parametrize("m", [catalog_get(n) for n in catalog_names()] + SINGULAR, ids=lambda m: m.name)
    def test_no_floating_point_warning_escapes(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kwargs in MODES.values():
                classify(m, **kwargs)


class TestEinsteinScale:
    """The (C5, C6) certificate reads only the direction of the pair, so the
    constant scale of C, which no curvature condition sees, cannot change it."""

    @pytest.mark.parametrize("name", ["modified-taub-bolt-2", "modified-taub-nut-1"])
    def test_exp_factor(self, name):
        # before: modified-taub-bolt-2 with C0 = 1e20 gave einstein and kahler_einstein yes (residual 2.25e-10)
        reports = [classify(catalog_get(name, {"C0": c0})) for c0 in (1e-20, 1.0, 1e20)]
        for p in ("einstein", "kahler_einstein"):
            assert {(r.verdict(p), r.residual(p)) for r in reports} == {("no", reports[1].residual(p))}
        assert reports[1].residual("einstein") == {"modified-taub-bolt-2": 2.25, "modified-taub-nut-1": 2.0}[name]

    def test_einstein_factor(self):
        # C = e^{-z}/(C5 + C6·e^{-z})² scales as 1/k² when (C5, C6) does as k; with F = 1 + ½e^{-2z}
        # the certificate is |C1·C5| over max(|C5|, |C6|) = 3/5 (before: 3k, so yes for k = 2^-40)
        F = canonical(1, 0, 0, 0)
        reports = [classify(MetricSpec("p", F, EinsteinFactor(3 * k, 5 * k), Domain(-1.0, 1.0))) for k in (2.0**-40, 1.0, 2.0**40)]
        assert {(r.verdict("einstein"), r.residual("einstein")) for r in reports} == {("no", 0.6)}


class TestImplications:
    """Implications between verdicts that hold for every metric, over the 18
    entries at t = 0, 1 and 2.  The verdicts still break some of them: the
    broken set is pinned, so that a new contradiction fails here and so does
    a mended one, which shrinks the list."""

    IMPLIES = [
        ("einstein", "csc"),
        ("einstein", "bach_flat"),
        ("einstein", "bt_flat"),
        ("ricci_flat", "zsc"),
        ("zsc", "csc"),
        ("hyperkahler_Iminus", "ricci_flat"),
        ("hyperkahler_Iplus", "ricci_flat"),
    ]
    # B^0 is the Bach tensor, so bach_flat ⇔ bt_flat at t = 0
    AT_T0 = [("bach_flat", "bt_flat"), ("bt_flat", "bach_flat")]
    # each pairs an exact yes (einstein from (C5, C6), bach_flat from F's operators) with a
    # grid residual's no (bt_flat, csc); see ROADMAP item 1
    THREE = ("super-taub-nut", "super-eguchi-hanson", "taub-nut-lambda")
    BROKEN = {
        *((name, t, "einstein", "bt_flat") for name in THREE for t in (0.0, 1.0, 2.0)),
        *((name, 0.0, "bach_flat", "bt_flat") for name in THREE),
        *(("taub-nut-lambda", t, "einstein", "csc") for t in (0.0, 1.0, 2.0)),
    }

    def test_broken_implications_are_the_known_ones(self):
        broken, indeterminate = set(), 0
        for name in catalog_names():
            m = catalog_get(name)
            for t in (0.0, 1.0, 2.0):
                rep = classify(m, t=t)
                for p, q in self.IMPLIES + (self.AT_T0 if t == 0.0 else []):
                    verdicts = (rep.verdict(p), rep.verdict(q))
                    indeterminate += "indeterminate" in verdicts
                    if verdicts == ("yes", "no"):
                        broken.add((name, t, p, q))
        assert len(self.BROKEN) == 15
        assert broken == self.BROKEN
        assert indeterminate == 0  # an indeterminate verdict would hide an implication


class TestSampleGrid:
    def test_points_inside_domain(self):
        d = Domain(0.0, math.inf)
        grid = sample_grid(d, 40)
        assert all(d.contains(z) for z in grid)
        assert len(grid) >= 20

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_raise(self, n):
        with pytest.raises(ValueError, match=f"n={n}"):
            sample_grid(Domain(0.0, math.inf), n)
        with pytest.raises(ValueError, match=f"n={n}"):
            classify(catalog_get("page"), grid_n=n)

    @pytest.mark.parametrize("n", [64.0, 2.5, True])
    def test_grid_n_that_is_not_an_int_raises(self, n):
        # 64.0 hashes as 64, so it would read 64's cached sample; 2.5 would fail inside numpy
        with pytest.raises(ValueError, match=f"grid_n={n!r}"):
            classify(catalog_get("page"), grid_n=n)

    @pytest.mark.parametrize("n", [64.0, 2.5, True])
    def test_n_that_is_not_an_int_raises_whatever_is_cached(self, n):
        # the body checks grid_n and the cache is typed, so 64.0 never reads 64's cached grid
        d = Domain(-3.25, 7.5)
        sample_grid.cache_clear()
        with pytest.raises(ValueError) as before:
            sample_grid(d, n)
        sample_grid(d, 64)
        with pytest.raises(ValueError) as after:
            sample_grid(d, n)
        assert str(before.value) == str(after.value) == f"grid_n must be an int >= 2, got grid_n={n!r}"

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 2), (4, 3), (5, 3), (64, 63)])
    def test_point_count(self, n, count):
        # the two halves share the midpoint; grid_n reports the n requested
        assert len(sample_grid(Domain(0.0, 1.0), n)) == count
        assert classify(catalog_get("page"), grid_n=n).grid_n == n

    def test_repeat_call_returns_the_same_grid(self):
        grid = sample_grid(Domain(-1.5, 2.0), 40)
        assert sample_grid(Domain(-1.5, 2.0), 40) is grid
        assert sample_grid(Domain(-1.5, 2.0), 41) is not grid

    def test_grid_is_read_only(self):
        grid = sample_grid(Domain(-1.5, 2.0), 40)
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            grid[1:-1] += 1.0

    @pytest.mark.parametrize("lo, hi", [(-1.5, 2.0), (0.0, math.inf), (-math.inf, 3.0), (-math.inf, math.inf)])
    def test_cached_grid_equals_an_uncached_build(self, lo, hi):
        d = Domain(lo, hi)
        got = sample_grid(d, 64)
        want = sample_grid.__wrapped__(d, 64)
        assert got is not want and got.tobytes() == want.tobytes()

    def test_two_points(self):
        grid = sample_grid(Domain(0.0, 1.0), 2)
        assert len(grid) == 2 and 0.0 < grid[0] < grid[1] < 1.0

    def test_equals_np_unique_of_the_points(self):
        # np.unique, as the grid was once made, is the reference
        rng = random.Random(18)
        for _ in range(300):
            lo = rng.choice([-math.inf, rng.uniform(-1e3, 1e3)])
            hi = rng.choice([math.inf, (lo if lo > -math.inf else 0.0) + 10 ** rng.uniform(-12, 4)])
            n = rng.randint(2, 200)
            w_lo, w_hi = Domain(lo, hi).finite_window()
            offsets = np.geomspace(0.01 * (w_hi - w_lo), 0.5 * (w_hi - w_lo), n // 2)
            want = np.unique(np.concatenate([w_lo + offsets, w_hi - offsets]))
            got = sample_grid(Domain(lo, hi), n)
            assert got.tobytes() == want.tobytes(), (lo, hi, n)

    def test_classify_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma: 10-15 ms and resident memory for every first classify
        src = str(pathlib.Path(u2metrics.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys\nfrom u2metrics.catalog import catalog_get\nfrom u2metrics.classify import classify\n"
            "classify(catalog_get('page'))\nprint('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "True False\n"


class TestOnePathEach:
    """With ``use_exact``, Kähler is read from the sampled (log C)′ and
    bach_flat from F's exact operators, for every profile and every C."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_kahler_residuals_are_the_grid_ones(self, name):
        m = catalog_get(name)
        grid = classify(m, use_exact=False)
        for kwargs in ({}, {"t": 1.0}):
            rep = classify(m, **kwargs)
            for p in ("kahler_plus", "kahler_minus"):
                assert rep.residual(p) == grid.residual(p)
        # C = C0·e^{∓z}: the sample's C′/C is exactly ∓1
        if isinstance(m.C, ExpFactor):
            expected = (0.0, 2.0) if m.C.eps == -1 else (2.0, 0.0)
            assert (grid.residual("kahler_plus"), grid.residual("kahler_minus")) == expected

    def test_classify_reads_no_tag_and_no_canonical_bach_shortcut(self):
        source = inspect.getsource(u2metrics.classify)
        tree = ast.parse(source)
        assert [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "tag"] == []
        assert "c1 * c4 - c2 * c3" not in source

    @pytest.mark.parametrize("C", [
        ExpFactor(1.0, -1),
        EinsteinFactor(1, 1),
        RatioFactor(ExpPoly.constant(1), ExpPoly([(0, 2), (1, 1)])),
    ], ids=["exp", "einstein", "ratio"])
    def test_non_canonical_profile_is_not_bach_flat(self, C):
        # F = 1 + e^{3z}: L⁺L⁻F − 1 = 10e^{3z}, up to 10e^{2.97} on the grid, and B(F,F)(0) = 10
        m = MetricSpec("off", ExpPoly([(0, 1), (3, 1)]), C, Domain(0.0, 1.0))
        rep = classify(m)
        assert rep.verdict("bach_flat") == "no"
        assert rep.residual("bach_flat") == rep.residual("conformally_extremal") > 10.0
        assert m.bach_at_zero == 10
        assert classify(m, use_exact=False).verdict("bach_flat") == "no"

    def test_canonical_residual_is_three_times_the_determinant(self):
        rng = random.Random(19)
        small = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
        for _ in range(50):
            # exact, and read without a grid: F may vanish inside this domain
            c = [rng.choice(small) for _ in range(4)]
            m = MetricSpec("c", canonical(*c), ExpFactor(1, -1), Domain(-1.0, 1.0))
            assert m.bach_at_zero == -3 * (c[0] * c[3] - c[1] * c[2])
        # hirzebruch's and page's float coefficients leave L⁺L⁻F − 1 at round-off (about 1e-16),
        # so the max with conformally_extremal's residual must not hide B(F,F)(0) = −0.18 on hirzebruch
        for name in catalog_names():
            m = catalog_get(name)
            c1, c2, c3, c4 = canonical_coefficients(m.f_poly())
            rep = classify(m)
            assert rep.residual("bach_flat") == pytest.approx(3 * abs(c1 * c4 - c2 * c3), rel=1e-15, abs=4e-16)


class TestConformallyExtremal:
    def test_zero_on_canonical_family(self):
        m = catalog_get("taub-nut", {"m": 2.0})
        assert classify(m).residual("conformally_extremal") == 0.0

    def test_nonzero_off_family(self):
        from u2metrics.exppoly import ExpPoly

        m = MetricSpec(
            "off",
            ExpPoly([(0, 1), (3, 0.01)]),
            ExpFactor(1.0, -1),
            Domain(-1.0, 1.0),
        )
        assert classify(m).residual("conformally_extremal") > 1e-4


class TestFitExpFamily:
    def test_recovers_taub_bolt_coefficients(self):
        poly = canonical(-0.25, 0.25, -2.25, 2.25)
        zs = np.linspace(-1.0, -0.1, 24)
        (c1, c2, c3, c4), rms = fit_exp_family((z, poly.eval(z)) for z in zs)
        assert rms < 1e-12
        assert (c1, c2, c3, c4) == pytest.approx((-0.25, 0.25, -2.25, 2.25), abs=1e-9)

    def test_constant_profile_fits_to_zero(self):
        zs = np.linspace(-1.0, 1.0, 12)
        coeffs, rms = fit_exp_family((z, 1.0) for z in zs)
        assert rms < 1e-13
        assert max(abs(c) for c in coeffs) < 1e-10

    def test_off_family_leaves_residual(self):
        zs = np.linspace(-1.0, 2.0, 30)
        _, rms = fit_exp_family((z, 1.0 + 0.01 * math.exp(3 * z)) for z in zs)
        assert rms > 1e-4

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_exp_family([(0.1 * i, 1.0) for i in range(5)])

    def test_degenerate_spacing(self):
        with pytest.raises(RankDeficientError):
            fit_exp_family([(0.0, 1.0)] * 10)


class TestWorkPerGridPoint:
    """Call counts, not timings: the expensive steps must not scale with the grid."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        """Count calls to ``owner.name`` wherever a u2metrics module binds it."""
        original = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("u2metrics") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    def test_classify_derives_once_per_call_not_per_point(self, monkeypatch):
        m = catalog_get("page")
        classify(m, t=1.0, grid_n=8)  # expand the spec's carriers outside the count
        calls = self._count(monkeypatch, ExpPoly, "derive")
        counts = []
        for n in (16, 64):
            calls.clear()
            classify(m, t=1.0, grid_n=n)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("name,t", [
        ("page", None),
        ("modified-taub-nut-2", None),
        ("page", 1.0),
        ("modified-taub-nut-2", 1.0),
    ], ids=["page", "modified-taub-nut-2", "page-t=1", "modified-taub-nut-2-t=1"])
    def test_classify_evaluates_jets_once_per_grid_point(self, monkeypatch, name, t):
        # with t the B^t residual reads the same sample; the whole grid is one
        # array call of each jet
        import u2metrics.profiles

        m = catalog_get(name)
        f_calls = self._count(monkeypatch, u2metrics.profiles, "jet_F")
        c_calls = self._count(monkeypatch, u2metrics.profiles, "jet_C")
        v_calls = self._count(monkeypatch, u2metrics.profiles, "conformal_value")
        rep = classify(m, grid_n=64, t=t)
        assert ("bt_flat" in rep.entries) == (t is not None)
        assert (len(f_calls), len(c_calls), len(v_calls)) == (1, 1, 0)

    def test_second_classify_builds_no_exp_poly(self, monkeypatch):
        # the operator polynomials L±F − 1 and L⁺L⁻F − 1 are built once per spec
        m = catalog_get("page")
        classify(m, t=1.0)
        built = []
        init = ExpPoly.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ExpPoly, "__init__", counted)
        classify(m, t=1.0)
        classify(m, use_exact=False)
        assert built == []

    def test_second_classify_reads_the_spec_einstein_certificate(self, monkeypatch):
        # the exact certificate depends on F and C alone: it is found once per spec
        import u2metrics.profiles

        m = catalog_get("page")
        first = classify(m).residual("einstein")
        calls = self._count(monkeypatch, u2metrics.profiles, "canonical_coefficients")
        assert [classify(m).residual("einstein"), classify(m, t=1.0).residual("einstein")] == [first, first]
        assert calls == []

    def test_curvature_sample_evaluates_each_jet_once(self, monkeypatch):
        import u2metrics.profiles

        m = catalog_get("modified-taub-nut-2")
        f_calls = self._count(monkeypatch, u2metrics.profiles, "jet_F")
        c_calls = self._count(monkeypatch, u2metrics.profiles, "jet_C")
        curvature_sample(m, 0.7)
        assert (len(f_calls), len(c_calls)) == (1, 1)
        ricci_form_kahler(m, 0.7)  # ρ± are not sampled, only computed on request
        assert (len(f_calls), len(c_calls)) == (2, 2)

    @pytest.mark.parametrize("name", ["hirzebruch", "modified-taub-nut-2", "taub-bolt", "page"])
    def test_exact_carriers_take_no_series_path(self, monkeypatch, name):
        # g = C^{−1/2} of an Exp or Einstein C is an ExpPoly: only a C ratio divides and takes roots of
        # series, unless num and den are single terms, so the twin's are multiplied by 1 + e^z
        import u2metrics.numerics
        from u2metrics.geometry import distance

        m = catalog_get(name)
        w = ExpPoly([(0, 1), (1, 1)])
        twin = MetricSpec(m.name, m.F, RatioFactor(*(p * w for p in m.c_ratio)), m.domain)
        calls = [self._count(monkeypatch, u2metrics.numerics, f) for f in ("series_div", "series_pow")]
        lo, hi = m.domain.finite_window()
        for spec in (m, twin):
            for call in calls:
                call.clear()
            classify(spec, t=1.0)
            curvature_sample(spec, sample_grid(spec.domain, 16))
            distance(spec, (3 * lo + hi) / 4, (lo + 3 * hi) / 4)
            classify_end(spec, "lower"), classify_end(spec, "upper")
            assert [len(call) > 0 for call in calls] == [spec is twin] * 2

    @pytest.mark.parametrize("name", ["hirzebruch", "taub-bolt"])
    def test_jet_c_makes_one_exp_poly_jet(self, monkeypatch, name):
        from u2metrics.profiles import jet_C

        m = catalog_get(name)
        z = sample_grid(m.domain, 16)
        jet_C(m, z)  # build g's carrier outside the count
        calls = self._count(monkeypatch, ExpPoly, "jet")
        jet_C(m, z)
        jet_C(m, float(z[1]))
        assert len(calls) == 2

    def test_bt_grid_residual_needs_no_scalar_curvature(self, monkeypatch):
        import u2metrics.curvature

        m = catalog_get("page")
        sample = curvature_sample(m, sample_grid(m.domain, 16))
        calls = self._count(monkeypatch, u2metrics.curvature, "scalar_curvature")
        bt_grid_residual(sample, 1.0)
        assert calls == []


class TestSampleKeptOnSpec:
    """The guarded curvature sample is taken once per (spec, grid_n) and read by
    every later classify call, whatever its t, tol or use_exact."""

    _count = staticmethod(TestWorkPerGridPoint._count)

    def test_one_sample_per_spec_and_grid_n(self, monkeypatch):
        import u2metrics.curvature

        m = catalog_get("page")
        calls = self._count(monkeypatch, u2metrics.curvature, "curvature_sample")
        classify(m)
        assert len(calls) == 1
        classify(m, t=1.0), classify(m, tol=1e-6), classify(m, use_exact=False)
        assert len(calls) == 1
        classify(m, grid_n=32), classify(m, grid_n=32, t=2.0)
        assert len(calls) == 2
        twin = dataclasses.replace(m)
        classify(twin), classify(twin, t=1.0)
        assert len(calls) == 3
        classify(m)
        assert len(calls) == 3

    @pytest.mark.parametrize("name", catalog_names())
    def test_reports_equal_those_of_a_fresh_spec(self, name):
        m = catalog_get(name)
        cases = [(t, use_exact) for t in (None, -1 / 3, 0.0, 1.0, 2.0) for use_exact in (True, False)]
        for _ in range(2):  # each case's first call on m, then its repeat
            for t, use_exact in cases:
                assert classify(m, t=t, use_exact=use_exact) == classify(catalog_get(name), t=t, use_exact=use_exact)

    @pytest.mark.parametrize("m,sampled", [(SINGULAR[0], 0), (SINGULAR[3], 1)], ids=["F-zero", "sample-raises"])
    def test_indeterminate_reason_is_kept_as_a_string(self, monkeypatch, m, sampled):
        import u2metrics.curvature

        m = dataclasses.replace(m)  # SINGULAR's specs are shared with other tests
        samples = self._count(monkeypatch, u2metrics.curvature, "curvature_sample")
        roots = self._count(monkeypatch, ExpPoly, "real_roots")
        first = classify(m, t=1.0)
        counts = (len(samples), len(roots))
        assert counts[0] == sampled and counts[1] > 0
        reason = m._grid_samples[64]
        assert type(reason) is str
        again = [classify(m), classify(m, t=2.0, tol=1e-6, use_exact=False)]
        assert (len(samples), len(roots)) == counts
        for rep in [first] + again:
            assert {(e.verdict, e.certificate) for e in rep.entries.values()} == {("indeterminate", reason)}
