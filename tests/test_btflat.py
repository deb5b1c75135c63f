"""The eighth-order critical-point flow: residuals, conservation, search."""
import math

import numpy as np
import pytest

from u2metrics.btflat import (
    BtState,
    SeedError,
    bt_csc_seed,
    bt_grid_residual,
    bt_integrate,
    bt_nonextremal_search,
    bt_residuals,
    bt_rhs,
    state_from_metric,
    tval,
)
from u2metrics.catalog import catalog_get
from u2metrics.classify import sample_grid
from u2metrics.curvature import scalar_curvature


class TestState:
    def test_vector_roundtrip(self):
        s = BtState(0.3, 1.0, 0.2, -0.1, 0.05, 2.0, -0.4, 0.7, 0.01)
        back = BtState.from_vector(0.3, s.vector())
        assert back == s


class TestClosedFormResiduals:
    @pytest.mark.parametrize("name,params", [
        ("taub-bolt", {"m": 1.0}),
        ("taub-nut", {"m": 1.0}),
        ("page", {"Lambda": 12.0}),
    ])
    def test_einstein_metrics_are_critical(self, name, params):
        # Einstein metrics are critical points of the functional for every t
        m = catalog_get(name, params)
        grid = sample_grid(m.domain, 16)
        assert bt_grid_residual(m, 1.0, grid) < 1e-8
        assert bt_grid_residual(m, -0.5, grid) < 1e-8

    def test_non_critical_control(self):
        from u2metrics.profiles import Canonical, Domain, ExpFactor, MetricSpec

        # C1·C4 - C2·C3 != 0, so this is not Bach-flat and not critical
        m = MetricSpec(
            "off", Canonical(1, 1, 1, 0), ExpFactor(1.0, -1), Domain(-1.0, 1.0), None
        )
        grid = sample_grid(m.domain, 16)
        assert bt_grid_residual(m, 1.0, grid) > 1e-3

    def test_residual_components_at_a_state(self):
        m = catalog_get("taub-bolt", {"m": 1.0})
        state, f4d, c2d = state_from_metric(m, 1.0, -0.7, s_const=0.0)
        e0, f1res, f2res, tv = bt_residuals(state, 1.0, f4d, C2d=c2d)
        assert abs(e0) < 1e-12
        assert abs(f1res) < 1e-8
        assert abs(f2res) < 1e-8
        assert abs(tv) < 1e-7


class TestStateFromMetric:
    NAMES = ("page", "taub-nut", "eguchi-hanson", "burns", "modified-taub-nut-2", "modified-taub-bolt-1")

    @staticmethod
    def _interior(m):
        return sample_grid(m.domain, 10)[1:-1]

    @pytest.mark.parametrize("name", NAMES)
    def test_s_is_scalar_curvature(self, name):
        m = catalog_get(name)
        for z in self._interior(m):
            state, _, _ = state_from_metric(m, 1.0, z)
            assert state.s == scalar_curvature(m, z)

    @pytest.mark.parametrize("name", NAMES)
    def test_analytic_s_prime_matches_five_point_difference(self, name):
        # K/(C·F) is the analytic s′; compare a five-point difference of s at
        # h = 1e-3 (truncation ~h⁴), relative with a floor of 1 because s′ = 0
        # on the constant-s entries
        m = catalog_get(name)
        h = 1e-3
        for z in self._interior(m):
            state, _, _ = state_from_metric(m, 1.0, z)
            sv = [scalar_curvature(m, z + j * h) for j in (-2, -1, 1, 2)]
            fd = (sv[0] - 8.0 * sv[1] + 8.0 * sv[2] - sv[3]) / (12.0 * h)
            got = state.K / (state.C * state.F)
            assert abs(got - fd) <= 1e-7 * (1.0 + abs(fd)), (z, got, fd)

    @pytest.mark.parametrize("name", [
        "flat", "taub-nut", "modified-taub-nut-1", "taub-bolt", "burns", "eguchi-hanson",
        "lebrun", "modified-lebrun", "eguchi-hanson-lambda", "fubini-study", "page",
    ])
    def test_bt_flat_catalog_residual_is_round_off(self, name):
        m = catalog_get(name)
        assert bt_grid_residual(m, 1.0, sample_grid(m.domain)) < 1e-12


class TestSeeds:
    def test_csc_seed_zeroes_t(self):
        seed = bt_csc_seed(F=1.4, F1d=0.6, F2d=-0.3, C=1.2, C1d=0.1, s=0.5, t=1.0)
        assert abs(tval(seed, 1.0)) < 1e-12

    def test_zero_slope_fallback(self):
        seed = bt_csc_seed(F=1.4, F1d=0.0, F2d=0.3, C=1.2, C1d=0.1, s=0.2, t=1.0)
        assert seed.F3d == 0.0
        assert abs(tval(seed, 1.0)) < 1e-10

    def test_invalid_seed_raises(self):
        with pytest.raises(SeedError):
            bt_csc_seed(F=0.0, F1d=1.0, F2d=0.0, C=1.0, C1d=0.0, s=0.1, t=1.0)


class TestIntegration:
    def test_reproduces_taub_bolt(self):
        m = catalog_get("taub-bolt", {"m": 1.0})
        z0 = -1.05
        init, _, _ = state_from_metric(m, 1.0, z0, s_const=0.0)
        traj = bt_integrate(init, 1.0, (z0, z0 + 0.8), tol=1e-10)
        assert not traj.truncated
        poly = m.f_poly()
        err = max(abs(s.state.F - poly.eval(s.state.z)) for s in traj.samples)
        assert err < 1e-9
        assert traj.max_T_drift < 1e-8
        assert traj.max_K_drift == 0.0

    def test_tolerance_controls_drift(self):
        seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
        loose = bt_integrate(seed, 1.0, (0.0, 0.6), tol=1e-6)
        tight = bt_integrate(seed, 1.0, (0.0, 0.6), tol=1e-11)
        assert tight.max_T_drift < loose.max_T_drift
        assert np.allclose(
            loose.final_state().vector(), tight.final_state().vector(), atol=1e-4
        )

    def test_backward_integration(self):
        seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
        traj = bt_integrate(seed, 1.0, (0.0, -0.4), tol=1e-10)
        assert not traj.truncated
        assert traj.final_state().z == pytest.approx(-0.4, abs=1e-12)

    def test_truncates_instead_of_crossing_singularity(self):
        # drive F toward zero: the flow must stop cleanly, not blow up
        seed = BtState(0.0, 0.05, -1.5, 0.0, 0.0, 1.0, 0.0, 0.3, 0.0)
        traj = bt_integrate(seed, 1.0, (0.0, 2.0), tol=1e-8)
        assert traj.truncated
        assert traj.truncation_reason


class TestSearch:
    def test_finds_nonextremal_witness(self):
        traj, res = bt_nonextremal_search(1.0, trials=8, seed=1)
        assert res > 1e-3
        assert traj.max_T_drift < 1e-7

    def test_rejects_zero_t(self):
        with pytest.raises(ValueError):
            bt_nonextremal_search(0.0)

    def test_deterministic_for_fixed_seed(self):
        _, r1 = bt_nonextremal_search(1.0, trials=6, seed=3)
        _, r2 = bt_nonextremal_search(1.0, trials=6, seed=3)
        assert r1 == r2


def test_rhs_consistency_with_residuals():
    # the solved (F4d, C2d) from the flow must zero the F1/F2 residuals
    seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
    _, f4d, c2d = bt_rhs(seed, 1.0)
    _, f1res, f2res, _ = bt_residuals(seed, 1.0, f4d, C2d=c2d)
    assert abs(f1res) < 1e-10
    assert abs(f2res) < 1e-10
