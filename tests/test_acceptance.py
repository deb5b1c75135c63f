"""Acceptance gate: one test per release criterion.

Each test prints a single ``CRITERION n: PASS`` line on success (pytest
reports FAILED otherwise), so ``pytest -v -s tests/test_acceptance.py`` gives
one status line per criterion.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from u2metrics.btflat import (
    bt_csc_seed,
    bt_integrate,
    bt_nonextremal_search,
    state_from_metric,
)
from u2metrics.catalog import (
    catalog_entry,
    catalog_get,
    catalog_names,
    hirzebruch,
    hirzebruch_bachflat_k,
    page_constants,
)
from u2metrics.classify import classify, sample_grid
from u2metrics.curvature import (
    bach,
    kahler_scalar_curvature,
    scalar_curvature,
    tf_ricci,
    weyl_energy,
)
from u2metrics.exppoly import ExpPoly
from u2metrics.geometry import classify_end, find_bolts, transcribe_classic
from u2metrics.numerics import adaptive_quad
from u2metrics.operators import b_op, first_integral_residual, l_compose
from u2metrics.profiles import Domain, ExpFactor, MetricSpec, canonical, canonical_coefficients


def _ok(n, label):
    print(f"\nCRITERION {n} ({label}): PASS")


def test_criterion_01_operator_kernel():
    start = time.perf_counter()
    rng = random.Random(20240817)
    for _ in range(100):
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        F = canonical(*cs)
        assert l_compose(F) == ExpPoly.constant(1)
    assert time.perf_counter() - start < 1.0
    _ok(1, "operator kernel")


def test_criterion_02_first_integral():
    rng = random.Random(911)
    for _ in range(100):
        c1, c2, c3, c4 = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        assert b_op(canonical(c1, c2, c3, c4)) == ExpPoly.constant(
            3 * (c2 * c3 - c1 * c4)
        )
    grid = np.linspace(-1.0, 1.0, 21)
    exps = [Fraction(k, 2) for k in range(-7, 8)]
    for _ in range(20):
        terms = [(0, 1.0)]
        for k in rng.sample(exps, 3):
            terms.append((k, rng.uniform(-1.0, 1.0)))
        terms.append((3, rng.uniform(0.1, 1.0)))  # keep it off the canonical family
        F = ExpPoly(terms)
        assert first_integral_residual(F, grid) < 1e-9
    _ok(2, "first integral")


def test_criterion_03_scalar_curvature_cross_check():
    rng = random.Random(3)
    grid = np.linspace(-1.0, 1.0, 50)
    for _ in range(10):
        cs = [rng.uniform(-0.05, 0.05) for _ in range(4)]
        m = MetricSpec(
            "rand",
            canonical(*cs),
            ExpFactor(rng.uniform(0.5, 2.0), -1),
            Domain(-1.5, 1.5),
        )
        for z in grid:
            s_gen = scalar_curvature(m, z)
            s_k = kahler_scalar_curvature(m, z)
            assert abs(s_gen - s_k) / (1.0 + abs(s_gen)) < 1e-10
    _ok(3, "scalar-curvature cross-check")


def test_criterion_04_modified_taub_scalars():
    cases = [
        ("modified-taub-nut-2", 1.0, lambda z: 48.0 * (1.0 - math.exp(-z))),
        ("modified-taub-bolt-1", 1.5, lambda z: 54.0 / 1.5 * (1.0 - math.exp(z))),
        ("modified-taub-bolt-2", 1.5, lambda z: 6.0 / 1.5 * (-1.0 + math.exp(-z))),
    ]
    for name, c0, formula in cases:
        m = catalog_get(name, {"C0": c0})
        for z in sample_grid(m.domain, 50):
            want = formula(z)
            assert abs(scalar_curvature(m, z) - want) / (1.0 + abs(want)) < 1e-10
    _ok(4, "modified Taub scalar curvatures")


def test_criterion_05_einstein_suite():
    for name, params in (
        ("taub-nut", {"m": 1.0}),
        ("taub-bolt", {"m": 1.0}),
        ("fubini-study", {"Lambda": 6.0}),
        ("page", {"Lambda": 12.0}),
    ):
        m = catalog_get(name, params)
        for z in sample_grid(m.domain, 40):
            assert max(abs(v) for v in tf_ricci(m, z)) < 1e-8
            assert max(abs(v) for v in bach(m, z)) < 1e-8
    for name, bad_side in (("super-taub-nut", "upper"), ("super-eguchi-hanson", "lower")):
        m = catalog_get(name)
        for z in sample_grid(m.domain, 40):
            assert max(abs(v) for v in tf_ricci(m, z)) < 1e-8
        rep = classify_end(m, bad_side)
        assert rep.kind == "curvature_singularity"
        assert not rep.complete
    _ok(5, "Einstein suite")


def test_criterion_06_page_constants():
    start = time.perf_counter()
    nu, z0, coeff = page_constants()
    assert abs(nu - 0.28) < 5e-3
    assert abs((((nu + 4) * nu - 6) * nu + 12) * nu - 3) < 1e-12
    assert abs(z0 - 0.579) < 1e-3
    assert abs(math.exp(4 * z0) - 4 * math.exp(z0) - 3) < 1e-12
    assert abs(coeff + 0.2442) < 5e-4
    assert abs(hirzebruch_bachflat_k(z0) - 1.0) < 1e-10
    assert time.perf_counter() - start < 1.0
    _ok(6, "Page constants")


def test_criterion_07_variational_bach_check():
    start = time.perf_counter()
    a, b = -1.0, 1.5
    # bump with double zeros at both interval ends, so the boundary terms of
    # the integration by parts vanish and the bulk identity is isolated
    ks = [-2, -1, 1, 2, 3]
    design = []
    target = []
    for z, d in ((a, 0), (a, 1), (b, 0), (b, 1)):
        design.append([(k**d) * math.exp(k * z) for k in ks[:4]])
        target.append(-(3**d) * math.exp(3 * z))
    coef = np.linalg.solve(np.array(design), np.array(target))
    f = ExpPoly([(k, float(c)) for k, c in zip(ks, list(coef) + [1.0])])
    assert abs(f.eval(a)) < 1e-10 and abs(f.eval(b)) < 1e-10

    F = canonical(2, -2, 0, 0) + f * 0.3

    def energy(t):
        m = MetricSpec(
            "bump", F + f * t, ExpFactor(1.0, -1), Domain(-math.inf, math.inf)
        )
        return weyl_energy(m, a, b)

    eps = 1e-5
    fd = (energy(eps) - energy(-eps)) / (2.0 * eps)
    resid = l_compose(F) - ExpPoly.constant(1)
    rhs = adaptive_quad(
        lambda z: (32.0 / 3.0) * f.eval(z) * resid.eval(z), a, b, tol=1e-9
    )
    assert abs(fd - rhs) / abs(rhs) < 1e-4
    assert time.perf_counter() - start < 10.0
    _ok(7, "variational Bach check")


def test_criterion_08_bt_conservation():
    start = time.perf_counter()
    m = catalog_get("taub-bolt", {"m": 1.0})
    z0 = -1.05
    init, _, _ = state_from_metric(m, z0, s_const=0.0)
    traj = bt_integrate(init, 1.0, (z0, z0 + 0.8), tol=1e-10)
    assert not traj.truncated
    assert traj.max_T_drift < 1e-8
    poly = m.f_poly()
    assert max(abs(s.state.F - poly.eval(s.state.z)) for s in traj.samples) < 1e-8
    assert time.perf_counter() - start < 5.0
    _ok(8, "B^t conservation")


def test_criterion_09_nonextremal_witness():
    start = time.perf_counter()
    traj, res = bt_nonextremal_search(1.0, trials=32)
    assert res > 1e-3
    assert traj.max_T_drift < 1e-7
    assert all(smp.state.K == traj.samples[0].state.K for smp in traj.samples)

    # control 1: an Einstein seed stays conformally extremal
    m = catalog_get("taub-bolt", {"m": 1.0})
    init, _, _ = state_from_metric(m, -1.05, s_const=0.0)
    control = bt_integrate(init, 1.0, (-1.05, -0.25), tol=1e-10)
    assert control.extremality_residual() < 1e-8

    # control 2: a zero-scalar-curvature seed stays conformally extremal
    seed0 = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.0, t=1.0)
    control0 = bt_integrate(seed0, 1.0, (0.0, 0.8), tol=1e-10)
    assert not control0.truncated
    assert control0.extremality_residual() < 1e-8

    assert time.perf_counter() - start < 60.0
    _ok(9, "non-extremal witness")


def test_criterion_10_end_taxonomy():
    start = time.perf_counter()
    table = {
        ("taub-nut", "lower"): "ALF",
        ("taub-nut", "upper"): "nut",
        ("modified-taub-nut-1", "lower"): "cusp",
        ("modified-taub-nut-1", "upper"): "ALE",
        ("modified-taub-nut-2", "lower"): "cusp",
        ("modified-taub-nut-2", "upper"): "nut",
        ("taub-bolt", "lower"): "bolt",
        ("taub-bolt", "upper"): "ALF",
        ("modified-taub-bolt-1", "lower"): "bolt",
        ("modified-taub-bolt-1", "upper"): "cusp",
        ("modified-taub-bolt-2", "lower"): "bolt",
        ("modified-taub-bolt-2", "upper"): "cusp",
        ("eguchi-hanson", "lower"): "bolt",
        ("eguchi-hanson", "upper"): "ALE",
        ("super-taub-nut", "upper"): "curvature_singularity",
        ("super-eguchi-hanson", "lower"): "curvature_singularity",
    }
    for (name, side), kind in table.items():
        m = catalog_get(name)
        assert classify_end(m, side).kind == kind, (name, side, kind)
    assert time.perf_counter() - start < 10.0
    _ok(10, "end taxonomy")


def test_criterion_11_bolting():
    for k in (1, 2, 3):
        m = hirzebruch(k, 0.7)
        slopes = sorted(b.slope for b in find_bolts(m))
        assert len(slopes) == 2
        assert abs(slopes[0] + k) < 1e-9
        assert abs(slopes[1] - k) < 1e-9
    bolts = find_bolts(catalog_get("taub-bolt", {"m": 1.0}))
    assert len(bolts) == 1
    assert abs(bolts[0].z0 + math.log(3.0)) < 1e-10
    assert abs(bolts[0].self_intersection) == 1
    _ok(11, "bolting")


def test_criterion_12_transcription():
    start = time.perf_counter()
    m_par = 1.0
    res = transcribe_classic(
        lambda r: 0.25 * (r + m_par) / (r - m_par),
        lambda r: 4.0 * m_par**2 * (r - m_par) / (r + m_par),
        lambda r: r * r - m_par * m_par,
        (1.5, 8.0),
        orientation=-1,
    )
    assert res.f_rms < 1e-9
    # fitted profile is (1 - k e^{-z})^2 = the target (1 - e^{-z})^2 up to the
    # z-translation freedom of the chart: c2 = -2k, c1 = 2k^2, c3 = c4 = 0
    c1, c2, c3, c4 = canonical_coefficients(res.metric.F)
    k = -c2 / 2.0
    assert abs(c1 / (k * k) - 2.0) < 1e-8
    assert abs(c3) < 1e-9 and abs(c4) < 1e-9
    assert time.perf_counter() - start < 5.0
    _ok(12, "transcription")


def test_criterion_13_catalog_sweep():
    start = time.perf_counter()
    for name in catalog_names():
        entry = catalog_entry(name)
        m = entry.build()
        tags = classify(m, tol=1e-8).tags()
        missing = set(entry.expected_tags) - set(tags)
        assert not missing, f"{name}: missing tags {sorted(missing)}"
    assert time.perf_counter() - start < 30.0
    _ok(13, "catalog sweep")
