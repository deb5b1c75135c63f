"""The eighth-order critical-point flow: residuals, conservation, search."""
import ast
import hashlib
import inspect
import json
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2metrics import btflat
from u2metrics.btflat import (
    BtSample,
    BtState,
    BtTrajectory,
    SeedError,
    SingularSystemError,
    bt_csc_seed,
    bt_grid_residual,
    bt_integrate,
    bt_nonextremal_search,
    bt_residuals,
    bt_rhs,
    bt_sample_residuals,
    state_from_metric,
    tval,
)
from u2metrics.catalog import catalog_get, catalog_names
from u2metrics.classify import classify, sample_grid
from u2metrics.curvature import _scalar_from_jets, _scalar_prime_from_jets, curvature_sample, scalar_curvature
from u2metrics.operators import b_op_jet
from u2metrics.profiles import Domain, ExpFactor, MetricSpec, canonical, jet_C, jet_F

DATA = pathlib.Path(__file__).resolve().parent / "data"
NON_FINITE = (math.nan, math.inf, -math.inf)


class TestState:
    def test_vector_roundtrip(self):
        s = BtState(0.3, 1.0, 0.2, -0.1, 0.05, 2.0, -0.4, 0.7, 0.01)
        back = BtState.from_vector(0.3, s.vector())
        assert back == s

    def test_immutable_with_field_repr(self):
        s = BtState(0.3, 1.0, 0.2, -0.1, 0.05, 2.0, -0.4, 0.7, 0.01)
        with pytest.raises(AttributeError):
            s.F = 2.0
        assert repr(s) == (
            "BtState(z=0.3, F=1.0, F1d=0.2, F2d=-0.1, F3d=0.05, C=2.0, C1d=-0.4, s=0.7, K=0.01)"
        )

    def test_sample_fields_and_repr(self):
        # a named tuple with the fields, order and repr of the frozen dataclass it replaced
        s = BtState(0.3, 1.0, 0.2, -0.1, 0.05, 2.0, -0.4, 0.7, 0.01)
        smp = BtSample(s, 1.5, -0.25, 3e-12)
        assert BtSample._fields == ("state", "F4d", "C2d", "Tval")
        assert repr(smp) == (
            "BtSample(state=BtState(z=0.3, F=1.0, F1d=0.2, F2d=-0.1, F3d=0.05, C=2.0, C1d=-0.4, s=0.7, K=0.01), "
            "F4d=1.5, C2d=-0.25, Tval=3e-12)"
        )
        assert BtSample(*smp) == smp and smp.state is s
        with pytest.raises(AttributeError):
            smp.Tval = 0.0

    @pytest.mark.parametrize("state", [
        BtState(0.3, 1.0, 0.2, -0.1, 0.05, 2.0, -0.4, 0.7, 0.01),
        BtState(-1.2, -0.6, 1.4, 0.3, -2.0, 0.25, 0.9, -0.8, 0.4),
    ])
    def test_rhs_of_a_plain_tuple_equals_rhs_of_the_state(self, state):
        deriv, f4d, c2d = bt_rhs(tuple(state), 1.5)
        ref = bt_rhs(state, 1.5)
        assert isinstance(deriv, np.ndarray) and deriv.dtype == np.float64
        assert repr((deriv.tolist(), f4d, c2d)) == repr((ref[0].tolist(), ref[1], ref[2]))

    def test_rhs_of_a_singular_tuple_names_its_z(self):
        with pytest.raises(SingularSystemError, match=r"C=-0\.5 is not positive at z=0\.7"):
            bt_rhs((0.7, 1.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.1, 0.0), 1.0)
        with pytest.raises(SingularSystemError, match=r"F vanishes at z=0\.7"):
            bt_rhs((0.7, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.1, 0.0), 1.0)

    @pytest.mark.parametrize("F,C,singular", [
        (1e-14, 1.0, True), (1e-13, 1.0, False), (1e-11, 1e3, True), (1e-11, 10.0, False),
    ])
    def test_c2d_solve_is_singular_below_the_floor_of_12f_over_c(self, F, C, singular):
        state = (0.2, F, 0.1, 0.0, 0.0, C, 0.3, 0.5, 0.0)
        if singular:
            with pytest.raises(SingularSystemError, match=r"^F1 solve for C'' is singular \(coefficient 1\.2e-13\)$"):
                bt_rhs(state, 1.0)
        else:
            assert np.isfinite(bt_rhs(state, 1.0)[0]).all()


class TestClosedFormResiduals:
    @pytest.mark.parametrize("name,params", [
        ("taub-bolt", {"m": 1.0}),
        ("taub-nut", {"m": 1.0}),
        ("page", {"Lambda": 12.0}),
    ])
    def test_einstein_metrics_are_critical(self, name, params):
        # Einstein metrics are critical points of the functional for every t
        m = catalog_get(name, params)
        sample = curvature_sample(m, sample_grid(m.domain, 16))
        assert bt_grid_residual(sample, 1.0) < 1e-8
        assert bt_grid_residual(sample, -0.5) < 1e-8

    def test_non_critical_control(self):
        from u2metrics.profiles import Domain, ExpFactor, MetricSpec, canonical

        # C1·C4 - C2·C3 != 0, so this is not Bach-flat and not critical
        m = MetricSpec(
            "off", canonical(1, 1, 1, 0), ExpFactor(1.0, -1), Domain(-1.0, 1.0)
        )
        sample = curvature_sample(m, sample_grid(m.domain, 16))
        assert bt_grid_residual(sample, 1.0) > 1e-3

    def test_residual_components_at_a_state(self):
        m = catalog_get("taub-bolt", {"m": 1.0})
        state, f4d, c2d = state_from_metric(m, -0.7, s_const=0.0)
        f1res, f2res, tv = bt_residuals(state, 1.0, f4d, C2d=c2d)
        assert abs(f1res) < 1e-8
        assert abs(f2res) < 1e-8
        assert abs(tv) < 1e-7


def _reference_state(m, z, s_const=None):
    """state_from_metric's jet-based body from before it read a curvature
    sample, kept verbatim: the sample must give the same state bit for bit."""
    fj = jet_F(m, z)
    c, g = jet_C(m, z)
    if s_const is not None:
        s_val, s1 = float(s_const), 0.0
    else:
        s_val = _scalar_from_jets(fj, g)
        s1 = _scalar_prime_from_jets(fj, g)
    K = c[0] * fj[0] * s1
    state = BtState(z, fj[0], fj[1], fj[2], fj[3], c[0], c[1], s_val, K)
    return state, fj[4], c[2]


class TestStateFromMetric:
    NAMES = ("page", "taub-nut", "eguchi-hanson", "burns", "modified-taub-nut-2", "modified-taub-bolt-1")

    @staticmethod
    def _interior(m):
        return sample_grid(m.domain, 10)[1:-1]

    @pytest.mark.parametrize("name", NAMES)
    def test_s_is_scalar_curvature(self, name):
        m = catalog_get(name)
        for z in self._interior(m):
            state, _, _ = state_from_metric(m, z)
            assert state.s == scalar_curvature(m, z)

    @pytest.mark.parametrize("name", NAMES)
    def test_analytic_s_prime_matches_five_point_difference(self, name):
        # K/(C·F) is the analytic s′; compare a five-point difference of s at
        # h = 1e-3 (truncation ~h⁴), relative with a floor of 1 because s′ = 0
        # on the constant-s entries
        m = catalog_get(name)
        h = 1e-3
        for z in self._interior(m):
            state, _, _ = state_from_metric(m, z)
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
        sample = curvature_sample(m, sample_grid(m.domain))
        assert bt_grid_residual(sample, 1.0) < 1e-12

    @pytest.mark.parametrize("s_const", NON_FINITE)
    def test_rejects_non_finite_s_const(self, s_const):
        # before: nan gave a state with s = nan
        m = catalog_get("taub-bolt")
        with pytest.raises(ValueError, match=f"s_const must be finite, got {s_const!r}"):
            state_from_metric(m, -0.7, s_const=s_const)
        with pytest.raises(ValueError, match=f"s_const must be finite, got {s_const!r}"):
            bt_sample_residuals(curvature_sample(m, sample_grid(m.domain, 8)), 1.0, s_const=s_const)

    def test_reads_only_the_fields_of_the_state(self):
        # before: "bach_B1 is not finite at z=400.0", a field the state does not use
        m = catalog_get("flat")
        with pytest.raises(ArithmeticError, match="^bach_B1 is not finite at z=400.0$"):
            curvature_sample(m, 400.0)
        state, f4d, c2d = state_from_metric(m, 400.0)
        assert all(math.isfinite(v) for v in (*state, f4d, c2d))
        assert state[1:8] == (1.0, 0.0, 0.0, 0.0, m.c_ratio[0].eval(400.0), -m.c_ratio[0].eval(400.0), 0.0)

    @pytest.mark.parametrize("name", catalog_names())
    def test_equals_the_state_read_from_curvature_sample(self, name):
        # the state as it was read from a whole curvature sample, at every point of the
        # classify grid and as one array state over it
        m = catalog_get(name)
        grid = sample_grid(m.domain)
        for s_const in (None, 0.0):
            for z in grid.tolist():
                want = btflat._state_from_sample(curvature_sample(m, z), s_const)
                assert repr(state_from_metric(m, z, s_const)) == repr(want), (z, s_const)
            got = state_from_metric(m, grid, s_const)
            want = btflat._state_from_sample(curvature_sample(m, grid), s_const)
            for x, y in zip((*got[0], *got[1:]), (*want[0], *want[1:])):
                assert np.asarray(x).tobytes() == np.asarray(y).tobytes()

    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_jet_reference(self, name):
        m = catalog_get(name)
        for z in sample_grid(m.domain, 12):
            for s_const in (None, 0.0):
                got = state_from_metric(m, z, s_const=s_const)
                assert repr(got) == repr(_reference_state(m, z, s_const)), (z, s_const)


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

    @pytest.mark.parametrize("field", ["F", "F1d", "C", "s", "z0"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_argument_is_named(self, field, value):
        # before: F = nan or C = inf returned a state with F3d = nan
        args = dict(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0, z0=0.0)
        args[field] = value
        with pytest.raises(SeedError, match=f"seed argument {field} must be finite, got {value!r}"):
            bt_csc_seed(**args)

    def test_first_non_finite_argument_is_named(self):
        with pytest.raises(SeedError, match="seed argument F2d must be finite"):
            bt_csc_seed(F=1.3, F1d=0.4, F2d=math.inf, C=math.nan, C1d=0.3, s=0.5, t=1.0)


class TestIntegration:
    def test_reproduces_taub_bolt(self):
        m = catalog_get("taub-bolt", {"m": 1.0})
        z0 = -1.05
        init, _, _ = state_from_metric(m, z0, s_const=0.0)
        traj = bt_integrate(init, 1.0, (z0, z0 + 0.8), tol=1e-10)
        assert not traj.truncated
        poly = m.f_poly()
        err = max(abs(s.state.F - poly.eval(s.state.z)) for s in traj.samples)
        assert err < 1e-9
        assert traj.max_T_drift < 1e-8
        assert all(smp.state.K == traj.samples[0].state.K for smp in traj.samples)

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

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_rejects_non_positive_tolerance(self, tol):
        seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
        with pytest.raises(ValueError):
            bt_integrate(seed, 1.0, (0.0, 0.1), tol=tol)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_rejects_non_finite_t(self, t):
        # before: nan integrated to a trajectory truncated by "step underflow"
        seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
        with pytest.raises(ValueError, match=f"t must be finite, got {t!r}"):
            bt_integrate(seed, t, (0.0, 0.4))

    @pytest.mark.parametrize("field", ["F", "F3d", "C", "K"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite_init_field(self, field, value):
        seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
        with pytest.raises(ValueError, match=f"init {field} must be finite, got {value!r}"):
            bt_integrate(seed._replace(**{field: value}), 1.0, (0.0, 0.4))

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_rejects_max_steps_below_one(self, max_steps):
        # before: one step was accepted and the trajectory truncated with two samples
        seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
        with pytest.raises(ValueError, match=f"max_steps must be at least 1, got {max_steps!r}"):
            bt_integrate(seed, 1.0, (0.0, 0.6), max_steps=max_steps)

    def test_max_steps_of_one_takes_one_step(self):
        seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
        traj = bt_integrate(seed, 1.0, (0.0, 0.6), max_steps=1)
        assert (traj.steps_accepted, len(traj.samples), traj.truncation_reason) == (1, 2, "max step count reached")

    @pytest.mark.parametrize("span, name", [
        ((0.0, math.nan), "span end"),
        ((math.nan, 1.0), "span start"),
        ((0.0, math.inf), "span end"),
        ((-math.inf, 0.0), "span start"),
    ])
    def test_rejects_non_finite_span(self, span, name):
        # before: (0, nan) returned the seed alone, untruncated, and (0, inf)
        # ended in "step underflow"
        seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
        bad = span[0] if name == "span start" else span[1]
        with pytest.raises(ValueError, match=f"{name} must be finite, got {bad!r}"):
            bt_integrate(seed, 1.0, span)


class TestSearch:
    def test_finds_nonextremal_witness(self):
        traj, res = bt_nonextremal_search(1.0, trials=8, seed=1)
        assert res > 1e-3
        assert traj.max_T_drift < 1e-7

    def test_rejects_zero_t(self):
        with pytest.raises(ValueError):
            bt_nonextremal_search(0.0)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_rejects_non_finite_t(self, t):
        # before: every trial was integrated and the search raised SearchFailure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"t must be finite and nonzero, got {t!r}"):
                bt_nonextremal_search(t, 4)

    @pytest.mark.parametrize("cap", [*NON_FINITE, -1e-7])
    def test_rejects_bad_drift_cap(self, cap):
        # before: nan meant no cap, as every comparison with it is false
        with pytest.raises(ValueError, match=f"drift_cap must be non-negative and finite, got {cap!r}"):
            bt_nonextremal_search(1.0, 4, drift_cap=cap)

    PINS = json.loads((DATA / "bt_search_pins.json").read_text())

    @pytest.mark.parametrize("key", sorted(PINS))
    def test_workload_searches_match_their_pins(self, key):
        # the benchmark's eight searches (t in {-1, 0.5, 1, 2} x seed in {1, 2}),
        # pinned as the plain-stepper integrator returned them
        t, seed = key.split()
        best, res = bt_nonextremal_search(float(t), 32, seed=int(seed))
        got = {
            "residual": repr(res),
            "samples": len(best.samples),
            "samples_sha256": hashlib.sha256(repr(best.samples).encode()).hexdigest(),
            "steps": [best.steps_accepted, best.steps_rejected],
            "max_T_drift": repr(best.max_T_drift),
        }
        assert got == self.PINS[key]

    def test_deterministic_for_fixed_seed(self):
        _, r1 = bt_nonextremal_search(1.0, trials=6, seed=3)
        _, r2 = bt_nonextremal_search(1.0, trials=6, seed=3)
        assert r1 == r2


def test_rhs_consistency_with_residuals():
    # the solved (F4d, C2d) from the flow must zero the F1/F2 residuals
    seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
    _, f4d, c2d = bt_rhs(seed, 1.0)
    f1res, f2res, _ = bt_residuals(seed, 1.0, f4d, C2d=c2d)
    assert abs(f1res) < 1e-10
    assert abs(f2res) < 1e-10


class TestArrayResiduals:
    """bt_residuals of an array state: one formula with the float path."""

    @pytest.mark.parametrize("name", catalog_names())
    @pytest.mark.parametrize("s_const", [None, 0.0], ids=["s", "s-const"])
    def test_rows_match_per_point_float_residuals(self, name, s_const):
        m = catalog_get(name)
        cs = curvature_sample(m, sample_grid(m.domain))
        state, f4d, c2d = btflat._state_from_sample(cs, s_const)
        columns = np.broadcast_arrays(*state, f4d, c2d)
        for t in (-1.0, 1.0, 2.0):
            rows = bt_sample_residuals(cs, t, s_const)
            assert rows.shape == (len(cs.z), 3)
            for i, row in enumerate(rows.tolist()):
                point = [c[i].item() for c in columns]
                want = bt_residuals(BtState(*point[:9]), t, point[9], point[10])
                for x, y in zip(row, want):
                    assert abs(x - y) <= 1e-14 * (1.0 + abs(y)), (name, t, cs.z[i], row, want)

    def test_float_state_gives_floats(self):
        seed = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
        _, f4d, c2d = bt_rhs(seed, 1.0)
        assert all(type(v) is float for v in bt_residuals(seed, 1.0, f4d, c2d))

    @staticmethod
    def _state(F=(1.0, 1.2, 0.0, 1.4), C=(1.0, 1.1, 1.2, 1.3)):
        z = np.array([0.1, 0.2, 0.3, 0.4])
        F, C = np.array(F), np.array(C)
        return BtState(z, F, 0.1 * z, 0.2 * z, 0.0 * z, C, 0.3 * z, 0.5, 0.0 * z), z

    def test_vanishing_f_names_its_z(self):
        state, z = self._state()
        with pytest.raises(SingularSystemError, match=f"F vanishes at z={z[2]}$"):
            bt_residuals(state, 1.0, 0.0 * z, 0.0 * z)

    def test_first_singular_z_checks_c_before_f(self):
        state, z = self._state(F=(1.0, 0.0, 0.0, 1.4), C=(1.0, 1.1, -1.0, 1.3))
        with pytest.raises(SingularSystemError, match=f"F vanishes at z={z[1]}$"):
            bt_residuals(state, 1.0, 0.0 * z, 0.0 * z)
        state, z = self._state(F=(1.0, 0.0, 1.2, 1.4), C=(1.0, 0.0, 1.2, 1.3))
        with pytest.raises(SingularSystemError, match=f"C=0.0 is not positive at z={z[1]}$"):
            bt_residuals(state, 1.0, 0.0 * z, 0.0 * z)

    def test_non_finite_residual_names_its_z(self):
        # T's C·(C·s) overflows at the second z only
        state, z = self._state(F=(1.0, 1.2, 1.3, 1.4), C=(1.0, 1e300, 1.2, 1.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=f"not finite at z={z[1]}$"):
                bt_residuals(state, 1.0, 0.0 * z, 0.0 * z)

    @pytest.mark.parametrize("state", [
        BtState(0.0, 1e200, 1e200, 1e200, 1e200, 1.0, 1e200, 1e200, 1e200),  # before: (nan, inf, -inf)
        BtState(0.5, 1e-200, 0.0, 0.0, 0.0, 1e-200, 0.0, 1.0, 1.0),  # before: ZeroDivisionError, C·F = 0
    ], ids=["overflow", "underflow"])
    def test_float_state_follows_the_array_rule(self, state):
        message = f"^B\\^t residuals are not finite at z={state.z}$"
        with pytest.raises(ArithmeticError, match=message):
            bt_residuals(state, 1.0, 1e200, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=message):
                bt_residuals(BtState(*(np.array([v]) for v in state)), 1.0, np.array([1e200]), np.array([1e200]))

    # C > 0 and F ≠ 0 pass the guard, but C·F = 1e-350 underflows to 0
    UNDERFLOW = BtState(0.0, 1e-100, 0.1, 0.0, 0.0, 1e-250, 0.0, 1.0, 1.0)

    def test_underflowed_product_in_tval_names_z(self):
        # before: a bare "float division by zero"
        with pytest.raises(ZeroDivisionError, match=r"^C·F underflows to 0 at z=0\.0$"):
            tval(self.UNDERFLOW, 1.0)

    @pytest.mark.parametrize("F", [1e-100], ids=["C·F"])
    def test_underflowed_product_truncates_the_flow(self, F):
        # before: ZeroDivisionError out of bt_integrate; now truncated as on a singular solve
        traj = bt_integrate(self.UNDERFLOW._replace(F=F), 1.0, (0.0, 0.1))
        assert traj.truncated and traj.samples == []
        assert traj.truncation_reason == "a divisor formed from C and F underflows to 0 at z=0.0"

    def test_tiny_c_solves_for_c2d_without_overflow(self):
        # C = 1e-250, F = 1e100: C″'s coefficient 12F/C = 1.2e351 leaves float
        # range, but C″ = −C·rest/(12F) does not; here C′ = 0, so rest = C·s + 4(F″ + ½F − 2)
        state = self.UNDERFLOW._replace(F=1e100)
        C, F = Fraction(state.C), Fraction(state.F)
        rest = C * Fraction(state.s) + 4 * (Fraction(state.F2d) + F / 2 - 2)
        deriv, f4d, c2d = bt_rhs(state, 1.0)
        assert np.isfinite(deriv).all() and c2d == deriv[5]
        assert abs(c2d - float(-C * rest / (12 * F))) <= 2e-16 * abs(c2d)

    def test_underflowed_product_is_a_seed_error(self):
        with pytest.raises(SeedError, match=r"^seed's C·F = 1e-250·1e-100 underflows to 0$"):
            bt_csc_seed(1e-100, 0.1, 0.0, 1e-250, 0.0, 1.0, 1.0)

    def test_large_conformal_factor_raises_no_warning(self):
        # C = 1e130: every form stays finite (C′/C = −1, C·s = −24), and the
        # float row is the array row
        m = MetricSpec("big-c", canonical(1, 0, 0, 0), ExpFactor(1e130, -1), Domain(-1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(m, t=1.0)
            assert report.verdict("bt_flat") == "yes"
            state, f4d, c2d = state_from_metric(m, 0.0)
            got = bt_residuals(state, 1.0, f4d, c2d)
            (want,) = bt_sample_residuals(curvature_sample(m, np.array([0.0])), 1.0).tolist()
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-14 * abs(y), (got, want)


# ------------------------------------------------------ square-root-free forms
# F1res, F2res and T as they were written in C^{±1/2}, kept verbatim as the
# reference for the forms in C and d = C′/C.
def _f1_parts_sqrt(F, F1, F2, C, C1, s, sqrt_c) -> tuple:
    """F1res = coef·C″ + rest, with coef = 12F/√C."""
    h1 = C1 / (2.0 * sqrt_c)  # (C^{1/2})′
    coef = 24.0 * F / (2.0 * sqrt_c)  # = 12F·C^{-1/2}, multiplies C″
    rest = (
        24.0 * (F1 * h1 + F * (-(C1 * C1) / (4.0 * C * sqrt_c)))
        + 4.0 * sqrt_c * (F2 + 0.5 * F - 2.0)
        + s * C * sqrt_c
    )
    return coef, rest


def _f2_value_sqrt(t, F, F1, F2, C, C1, s, s1, F4d, C2d, sqrt_c):
    c32 = C * sqrt_c  # C^{3/2}
    c_m12_d2 = -C2d / (2.0 * c32) + 0.75 * C1 * C1 / (C * c32)  # (C^{-1/2})″
    return (
        (8.0 / 3.0) * (0.25 * F4d - 1.25 * F2 + F - 1.0)
        + t * s * c32 * (c_m12_d2 - 0.25 / sqrt_c)
        + 0.5 * t * (C / F) * F1 * s1
        + t * C1 * s1
    )


def _tval_sqrt(state, t):
    z, F, F1, F2, F3, C, C1, s, K = state
    s1 = K / (C * F)
    return (
        16.0 * b_op_jet((F, F1, F2, F3))
        - 18.0 * t * F * C1 * s1
        - 6.0 * t * C * F1 * s1
        - 0.75 * t * s / C * (C * C * (-16.0 + 4.0 * F + C * s) + 12.0 * F * C1 * C1 + 8.0 * C * C1 * F1)
    )


def _forms(t, state, F4d, C2d, sqrt=math.sqrt):
    """((F1res, F2res, T) in C and d, the same in C^{±1/2}) at a state."""
    z, F, F1, F2, F3, C, C1, s, K = state
    s1 = K / (C * F)
    coef, rest = btflat._f1_parts(F, F1, F2, C, C1, s)
    new = (coef * C2d / C + rest, btflat._f2_value(t, F, F1, F2, C, C1, s, s1, F4d, C2d), tval(state, t))
    coef, rest = _f1_parts_sqrt(F, F1, F2, C, C1, s, sqrt(C))
    old = (coef * C2d + rest, _f2_value_sqrt(t, F, F1, F2, C, C1, s, s1, F4d, C2d, sqrt(C)), _tval_sqrt(state, t))
    return new, old


_signed = st.floats(min_value=1e-3, max_value=1e3).flatmap(lambda x: st.sampled_from([x, -x]))
_entry = st.one_of(st.just(0.0), _signed)


class TestSquareRootFreeForms:
    """F1res, F2res and T in C and d = C′/C equal the C^{±1/2} forms."""

    def test_identities(self):
        sp = pytest.importorskip("sympy")
        F, C = sp.symbols("F C", positive=True)
        F1, F2, F3, F4, C1, C2, s, s1, t = sp.symbols("F1 F2 F3 F4 C1 C2 s s1 t", real=True)
        state = BtState(0.0, F, F1, F2, F3, C, C1, s, C * F * s1)
        new, old = _forms(t, state, F4, C2, sqrt=sp.sqrt)

        def exact(e):  # each float literal as the rational it stores
            return sp.expand(e.xreplace({f: sp.Rational(f) for f in e.atoms(sp.Float)}))

        assert exact(new[0] * sp.sqrt(C) - old[0]) == 0
        assert exact(new[1] - old[1]) == 0 and exact(new[2] - old[2]) == 0
        # F1res = C·(s − the kernel's s of F and g = C^{-1/2})
        z = sp.Symbol("z")
        cz = sp.Function("C")(z)
        to_jet = [(cz.diff(z, 2), C2), (cz.diff(z), C1), (cz, C)]
        g = [sp.diff(cz ** sp.Rational(-1, 2), z, n).subs(to_jet) for n in range(3)]
        assert exact(new[0] - C * (s - _scalar_from_jets((F, F1, F2), g))) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(_signed, *[_entry] * 3, st.floats(min_value=1e-3, max_value=1e3), *[_entry] * 5),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_float_forms_agree(self, fields, t):
        F, F1, F2, F3, C, C1, s, s1, F4d, C2d = fields
        new, old = _forms(t, BtState(0.0, F, F1, F2, F3, C, C1, s, C * F * s1), F4d, C2d)
        s1 = C * F * s1 / (C * F)  # the s′ both forms read from K
        d, c2 = C1 / C, C2d / C
        sizes = (
            math.sqrt(C) * (abs(C * s) + 4 * (abs(F2) + abs(F) / 2 + 2) + 12 * abs(F1 * d)
                            + 6 * abs(F) * d * d + 12 * abs(F * c2)),
            8 / 3 * (abs(F4d) / 4 + 1.25 * abs(F2) + abs(F) + 1)
            + abs(t * C) * (abs(s) * (0.75 * d * d + 0.5 * abs(c2) + 0.25) + abs(s1) * (abs(d) + abs(F1 / F) / 2)),
            16 * abs(b_op_jet((F, F1, F2, F3))) + abs(t * C) * (
                abs(s1) * (18 * abs(F * d) + 6 * abs(F1))
                + 0.75 * abs(s) * (4 * abs(F) + 16 + C * abs(s) + 12 * abs(F) * d * d + 8 * abs(F1 * d))),
        )
        got = (new[0] * math.sqrt(C), new[1], new[2])
        for x, y, size in zip(got, old, sizes):
            assert abs(x - y) <= 32 * 2.0**-52 * size, (x, y, size)

    def test_equation_code_has_no_square_root(self):
        tree = ast.parse(inspect.getsource(btflat))
        functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        for name in ("_f1_parts", "_f2_value", "tval", "_derivative", "bt_residuals"):
            nodes = list(ast.walk(functions[name]))
            names = [n.id for n in nodes if isinstance(n, ast.Name)] + [
                n.attr for n in nodes if isinstance(n, ast.Attribute)] + [
                a.arg for n in nodes if isinstance(n, ast.arguments) for a in n.args]
            assert [v for v in names if "sqrt" in v] == [], name
            powers = [ast.unparse(n) for n in nodes if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                      and not (isinstance(n.right, ast.Constant) and type(n.right.value) is int)]
            assert powers == [], (name, powers)


# ------------------------------------------------------------- bit identity
# The numpy formulation of the DP5(4) stepper, kept verbatim: bt_integrate
# steps plain floats with first-same-as-last reuse and must reproduce it bit
# for bit.
# Dormand-Prince 5(4) pair.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _reference_integrate(
    init: BtState,
    t: float,
    span: tuple,
    tol: float = 1e-10,
    max_steps: int = 200000,
) -> BtTrajectory:
    a, b = float(span[0]), float(span[1])
    direction = 1.0 if b >= a else -1.0
    traj = BtTrajectory(t=t)

    z = a
    y = init.vector()  # the state's own z is superseded by the span start
    state = BtState.from_vector(z, y)
    try:
        deriv, F4d, C2d = bt_rhs(state, t)
    except SingularSystemError as exc:
        traj.truncated = True
        traj.truncation_reason = str(exc)
        return traj
    T0 = tval(state, t)
    traj.samples.append(BtSample(state, F4d, C2d, T0))

    h = direction * min(0.01, abs(b - a))
    min_h = 1e-14 * max(1.0, abs(b - a))
    k = [None] * 7

    while (b - z) * direction > 0.0:
        if abs(h) > abs(b - z):
            h = b - z
        try:
            k[0] = deriv
            failed = False
            for i in range(1, 7):
                yi = y + h * sum(_DP_A[i][j] * k[j] for j in range(i))
                si = BtState.from_vector(z + _DP_C[i] * h, yi)
                k[i], _, _ = bt_rhs(si, t)
            y5 = y + h * sum(_DP_B5[i] * k[i] for i in range(7))
            y4 = y + h * sum(_DP_B4[i] * k[i] for i in range(7))
        except (SingularSystemError, FloatingPointError, OverflowError):
            failed = True
        if not failed:
            scale = tol + tol * np.abs(y)
            err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
        if failed or not math.isfinite(err):
            h *= 0.5
            traj.steps_rejected += 1
            if abs(h) < min_h:
                traj.truncated = True
                traj.truncation_reason = f"step underflow near z={z:.6g}"
                return traj
            continue
        if err <= 1.0:
            z = z + h
            y = y5
            state = BtState.from_vector(z, y)
            try:
                deriv, F4d, C2d = bt_rhs(state, t)
            except SingularSystemError as exc:
                traj.truncated = True
                traj.truncation_reason = str(exc)
                return traj
            Tv = tval(state, t)
            traj.max_T_drift = max(traj.max_T_drift, abs(Tv - T0))
            traj.samples.append(BtSample(state, F4d, C2d, Tv))
            traj.steps_accepted += 1
            if traj.steps_accepted >= max_steps:
                traj.truncated = True
                traj.truncation_reason = "max step count reached"
                return traj
        else:
            traj.steps_rejected += 1
        factor = 0.9 * err ** (-0.2) if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) < min_h:
            traj.truncated = True
            traj.truncation_reason = f"step underflow near z={z:.6g}"
            return traj
    return traj


def _reference_search(trials, drift_cap=1e-7):
    """bt_nonextremal_search's selection over fully integrated trials."""
    best, best_res = None, -1.0
    for traj in trials:
        if traj.truncated or len(traj.samples) < 5:
            continue
        if traj.max_T_drift > drift_cap:
            continue
        res = traj.extremality_residual()
        if res > best_res:
            best, best_res = traj, res
    return best, best_res


def _search_seeds(t, trials, seed):
    """The CSC seeds bt_nonextremal_search integrates, drawn the same way."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        F, F1d, F2d = rng.uniform(-2.0, 2.0, size=3)
        C = rng.uniform(0.2, 3.0)
        C1d = rng.uniform(-1.0, 1.0)
        s = rng.uniform(-1.0, 1.0)
        if abs(F) < 0.2 or abs(s) < 0.05:
            continue
        try:
            out.append(bt_csc_seed(F, F1d, F2d, C, C1d, s, t))
        except SeedError:
            continue
    return out


def _fingerprint(traj):
    return (
        repr(traj.samples),
        traj.steps_accepted,
        traj.steps_rejected,
        traj.max_T_drift,
        traj.truncated,
        traj.truncation_reason,
    )


def _pin_cases():
    m = catalog_get("taub-bolt", {"m": 1.0})
    taub_bolt, _, _ = state_from_metric(m, -1.05, s_const=0.0)
    csc = bt_csc_seed(F=1.3, F1d=0.4, F2d=-0.2, C=1.0, C1d=0.3, s=0.5, t=1.0)
    # an extremal Kähler entry's own s, so K = C·F·s′ ≠ 0 is carried through every stage
    extremal, _, _ = state_from_metric(catalog_get("modified-taub-bolt-2"), -0.55)
    return {
        "taub-bolt": (taub_bolt, 1.0, (-1.05, -0.25), 1e-10),
        "csc-tol-1e-6": (csc, 1.0, (0.0, 0.6), 1e-6),
        "csc-tol-1e-11": (csc, 1.0, (0.0, 0.6), 1e-11),
        "backward": (csc, 1.0, (0.0, -0.4), 1e-10),
        "F-to-zero": (BtState(0.0, 0.05, -1.5, 0.0, 0.0, 1.0, 0.0, 0.3, 0.0), 1.0, (0.0, 2.0), 1e-8),
        "K-nonzero": (extremal, 1.0, (-0.55, -0.25), 1e-10),
        # K = −0.0: a forward step's K + h·0.0 is 0.0, a backward step's stays −0.0
        "K-minus-zero-forward": (csc._replace(K=-0.0), 1.0, (0.0, 0.6), 1e-10),
        "K-minus-zero-backward": (csc._replace(K=-0.0), 1.0, (0.0, -0.4), 1e-10),
    }


SEARCHES = ((1.0, 1), (2.0, 2), (-1.0, 1), (0.5, 2))


@pytest.fixture(scope="module")
def search_trials():
    """(t, seed) -> [(seed state, reference trajectory over the full span)]."""
    return {
        (t, seed): [(init, _reference_integrate(init, t, (0.0, 0.8))) for init in _search_seeds(t, 32, seed)]
        for t, seed in SEARCHES
    }


class TestBitIdentity:
    @pytest.mark.parametrize("case", sorted(_pin_cases()))
    def test_integration_matches_reference(self, case):
        init, t, span, tol = _pin_cases()[case]
        got = bt_integrate(init, t, span, tol=tol)
        assert _fingerprint(got) == _fingerprint(_reference_integrate(init, t, span, tol=tol))

    def test_pinned_k_values(self):
        # the K cases exercise what they are named for: K ≠ 0, and a signed zero
        # that a forward step turns to 0.0 and a backward step keeps
        cases = _pin_cases()
        got = {name: [smp.state.K for smp in bt_integrate(*cases[name][:3]).samples]
               for name in ("K-nonzero", "K-minus-zero-forward", "K-minus-zero-backward")}
        assert len(got["K-nonzero"]) > 20 and set(got["K-nonzero"]) == {cases["K-nonzero"][0].K} != {0.0}
        assert [math.copysign(1.0, k) for k in got["K-minus-zero-forward"][:3]] == [-1.0, 1.0, 1.0]
        assert {math.copysign(1.0, k) for k in got["K-minus-zero-backward"]} == {-1.0}

    @pytest.mark.parametrize("t,seed", SEARCHES)
    def test_every_search_trial_matches_reference(self, search_trials, t, seed):
        trials = search_trials[(t, seed)]
        assert len(trials) > 20
        for init, ref in trials:
            assert _fingerprint(bt_integrate(init, t, (0.0, 0.8))) == _fingerprint(ref)

    @pytest.mark.parametrize("t,seed", SEARCHES)
    def test_search_matches_full_span_reference(self, search_trials, t, seed):
        best, res = bt_nonextremal_search(t, 32, seed=seed)
        ref_best, ref_res = _reference_search([ref for _, ref in search_trials[(t, seed)]])
        assert (repr(best.samples), res) == (repr(ref_best.samples), ref_res)
        assert _fingerprint(best) == _fingerprint(ref_best)


class TestWork:
    def _counting(self, monkeypatch, name):
        """Count calls of ``btflat.<name>``: the kernel ``_derivative`` the
        stepper steps with, or its array wrapper ``bt_rhs``."""
        calls = {"n": 0, "raised": 0}
        real = getattr(btflat, name)

        def counted(state, t):
            calls["n"] += 1
            try:
                return real(state, t)
            except Exception:
                calls["raised"] += 1
                raise

        monkeypatch.setattr(btflat, name, counted)
        return calls

    def _counting_arrays(self, monkeypatch):
        """Count ``numpy.array`` calls made anywhere while the counter is in place."""
        calls = {"n": 0}
        real = np.array

        def counted(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "array", counted)
        return calls

    @pytest.mark.parametrize("case", [
        "taub-bolt", "csc-tol-1e-6", "csc-tol-1e-11", "backward", "K-nonzero", "K-minus-zero-forward",
    ])
    def test_six_rhs_calls_per_step_attempt(self, monkeypatch, case):
        init, t, span, tol = _pin_cases()[case]
        kernel = self._counting(monkeypatch, "_derivative")
        wrapper = self._counting(monkeypatch, "bt_rhs")
        arrays = self._counting_arrays(monkeypatch)
        traj = bt_integrate(init, t, span, tol=tol)
        assert kernel["raised"] == 0 and traj.steps_accepted > 0
        assert kernel["n"] == 1 + 6 * (traj.steps_accepted + traj.steps_rejected)
        assert wrapper["n"] == 1 and arrays["n"] == 1  # init's derivative, the only array built

    def test_six_rhs_calls_per_attempt_with_rejections(self, monkeypatch):
        kernel = self._counting(monkeypatch, "_derivative")
        wrapper = self._counting(monkeypatch, "bt_rhs")
        arrays = self._counting_arrays(monkeypatch)
        with_rejections = 0
        for init in _search_seeds(1.0, 32, 1):
            kernel["n"] = kernel["raised"] = wrapper["n"] = arrays["n"] = 0
            traj = bt_integrate(init, 1.0, (0.0, 0.8))
            assert wrapper["n"] == 1 and arrays["n"] == 1
            if kernel["raised"]:
                continue  # a stage that raised stops its attempt early
            assert kernel["n"] == 1 + 6 * (traj.steps_accepted + traj.steps_rejected)
            with_rejections += traj.steps_rejected > 0
        assert with_rejections > 0

    @pytest.mark.parametrize("case", sorted(_pin_cases()))
    def test_bt_rhs_is_the_kernel_as_an_array(self, case):
        init, t, _, _ = _pin_cases()[case]
        d = btflat._derivative(init, t)
        arr, f4d, c2d = bt_rhs(init, t)
        assert arr.dtype == np.float64
        assert [v.hex() for v in arr.tolist()] == [v.hex() for v in d]  # bit for bit, -0.0 included
        assert (f4d, c2d) == (d[3], d[5])

    @pytest.mark.parametrize("t,seed", SEARCHES)
    def test_search_trials_stop_at_the_drift_cap(self, monkeypatch, t, seed):
        cap = 1e-7
        trajs = []
        real = btflat.bt_integrate

        def recording(*args, **kwargs):
            traj = real(*args, **kwargs)
            trajs.append(traj)
            return traj

        monkeypatch.setattr(btflat, "bt_integrate", recording)
        best, _ = bt_nonextremal_search(t, 32, seed=seed, drift_cap=cap)
        assert best in trajs and best.max_T_drift <= cap
        stopped = 0
        for traj in trajs:
            drifts = [abs(smp.Tval - traj.samples[0].Tval) for smp in traj.samples]
            assert all(d <= cap for d in drifts[:-1])
            if drifts[-1] > cap:
                stopped += 1
                assert traj.truncated and "drift" in traj.truncation_reason
                assert traj.max_T_drift == drifts[-1]
        assert stopped > 0
