import math

import numpy as np
import pytest

from opscal.core import sigmoid
from opscal.ons import (
    OnsConfig,
    OnsState,
    initial_theta,
    ons_regret_bound,
    ons_step,
    project_ellipsoid,
    regret,
)
from opscal.scalers import fit_platt_batch, online_scaler_run, platt_apply


def random_spd(rng, d):
    M = rng.normal(size=(d, d))
    return M @ M.T + d * np.eye(d)


class TestOnsConfig:
    @pytest.mark.parametrize("field", ["gamma", "rho", "radius"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive(self, field, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            OnsConfig(**{"dim": 2, "gamma": 0.1, "rho": 100.0, "radius": 100.0, field: bad})

    def test_initial_theta_is_unit_weights_and_zero_bias(self):
        assert initial_theta(2).tolist() == [1.0, 0.0]
        assert initial_theta(3).tolist() == [1.0, 1.0, 0.0]


class TestOnsStep:
    def test_hand_computed_newton_step(self):
        cfg = OnsConfig.platt()
        state = OnsState.init(cfg)
        new = ons_step(state, (0.0, 1.0), 1, cfg)
        # grad (0,-0.5); A' = diag(100, 100.25); step = -10 * A'^-1 grad
        assert np.allclose(new.A, np.diag([100.0, 100.25]), atol=1e-12)
        expected_theta = np.array([1.0, 10.0 * 0.5 / 100.25])
        assert np.allclose(new.theta, expected_theta, atol=1e-12)
        assert new.t == 1

    def test_zero_gradient_fixed_point(self):
        cfg = OnsConfig.platt()
        state = OnsState.init(cfg)
        x = np.array([0.4, 1.0])
        y = sigmoid(float(state.theta @ x))  # residual exactly zero
        new = ons_step(state, x, y, cfg)
        assert np.allclose(new.theta, state.theta, atol=1e-15)
        assert np.allclose(new.A, state.A, atol=1e-15)

    def test_projection_keeps_iterates_feasible(self):
        cfg = OnsConfig(dim=2, gamma=0.1, rho=0.01, radius=1.0)
        state = OnsState.init(cfg, theta0=(0.9, 0.0))
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = np.array([rng.normal() * 4, 1.0])
            state = ons_step(state, x, float(rng.integers(0, 2)), cfg)
            assert np.linalg.norm(state.theta) <= cfg.radius + 1e-9

    def test_invariants_over_random_stream(self):
        cfg = OnsConfig.platt()
        state = OnsState.init(cfg)
        rng = np.random.default_rng(9)
        from opscal.core import logit

        grads = np.zeros((0, 2))
        for _ in range(300):
            s = rng.uniform(0.01, 0.99)
            x = np.array([logit(s), 1.0])
            state = ons_step(state, x, float(rng.integers(0, 2)), cfg)
            assert np.linalg.norm(state.theta) <= cfg.radius + 1e-9
            assert np.allclose(state.A, state.A.T, atol=1e-9)
            assert np.linalg.eigvalsh(state.A)[0] >= cfg.rho - 1e-9
        # the Sherman-Morrison cache stays an accurate inverse
        assert np.allclose(state.A_inv @ state.A, np.eye(2), atol=1e-8)


class TestProjectEllipsoid:
    def test_interior_point_unchanged(self):
        A = np.diag([2.0, 5.0])
        t = np.array([0.3, -0.4])
        assert np.allclose(project_ellipsoid(A, t, 1.0), t)

    def test_identity_reduces_to_euclidean(self):
        A = np.eye(2)
        t = np.array([6.0, 8.0])  # norm 10 = 2 * radius 5
        out = project_ellipsoid(A, t, 5.0)
        assert np.allclose(out, np.array([3.0, 4.0]), atol=1e-9)

    def test_anisotropic_matches_dense_grid_oracle(self):
        A = np.diag([1.0, 100.0])
        t = np.array([3.0, 0.0])
        out = project_ellipsoid(A, t, 1.0)
        angles = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
        cand = np.column_stack([np.cos(angles), np.sin(angles)])
        diffs = t - cand
        objs = np.einsum("ij,jk,ik->i", diffs, A, diffs)
        obj_out = float((t - out) @ A @ (t - out))
        assert obj_out <= objs.min() + 1e-4
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            A = random_spd(rng, d)
            t = rng.normal(size=d) * 5
            radius = float(rng.uniform(0.5, 2.0))
            out = project_ellipsoid(A, t, radius)
            assert np.linalg.norm(out) <= radius + 1e-9
            obj_out = float((t - out) @ A @ (t - out))
            pts = rng.normal(size=(10_000, d))
            pts *= (radius * rng.random(10_000) ** (1.0 / d) / np.linalg.norm(pts, axis=1))[:, None]
            diffs = t - pts
            objs = np.einsum("ij,jk,ik->i", diffs, A, diffs)
            assert obj_out <= objs.min() + 1e-6

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            project_ellipsoid(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            project_ellipsoid(-np.eye(2), np.array([1.0, 1.0]), 1.0)


class TestRegret:
    def _trace(self, rng, T=400):
        scores = rng.uniform(0.01, 0.99, size=T)
        y = (rng.random(T) < scores).astype(float)
        return scores, y

    def test_identical_sequences_zero_regret(self):
        rng = np.random.default_rng(1)
        scores, y = self._trace(rng)
        params = fit_platt_batch(scores, y)
        fc = platt_apply(params, scores)
        assert regret(fc, y, platt_apply(params, scores)) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_minimality(self):
        # the batch fit minimizes the comparator loss, so regret of any
        # method against it is >= -(fit tolerance)
        rng = np.random.default_rng(2)
        for _ in range(5):
            scores, y = self._trace(rng)
            probs, _ = online_scaler_run(scores, y, "platt")
            params = fit_platt_batch(scores, y)
            assert regret(probs, y, platt_apply(params, scores)) >= -1e-6

    def test_regret_bound_smoke(self):
        # i.i.d. well-specified stream: the guarantee holds with big margin
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.01, 0.99, size=5000)
        y = (rng.random(5000) < scores).astype(float)
        probs, _ = online_scaler_run(scores, y, "platt")
        params = fit_platt_batch(scores, y)
        B = max(1.0, float(np.linalg.norm(params)))
        assert regret(probs, y, platt_apply(params, scores)) <= ons_regret_bound(5000, B)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            regret(np.zeros(0), np.zeros(0), platt_apply(np.array([1.0, 0.0]), np.zeros(0)))
        # well-formed one works
        regret(np.array([0.5]), np.zeros(1), platt_apply(np.array([1.0, 0.0]), np.array([0.5])))


class TestOnlineScalerStationarity:
    def test_theta_stays_near_identity_on_calibrated_stream(self):
        # y ~ Bernoulli(score) keeps E[grad] = 0 at theta = (1, 0)
        finals = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            scores = rng.uniform(0.01, 0.99, size=10_000)
            y = (rng.random(10_000) < scores).astype(float)
            _, thetas = online_scaler_run(scores, y, "platt")
            finals.append(np.linalg.norm(thetas[-1] - initial_theta(2)))
        assert max(finals) <= 0.2
