"""Independent slow-path oracles for the hot kernels.

These reimplement the hedging forecaster and the online Newton pass from
their definitions, sharing no code with opscal.kernels (fresh state
layout, linear solves instead of rank-one inverse updates, explicit
condition scans). Any divergence flags a logic error that the
shared-code stepwise/kernel equivalence tests cannot see.
"""

import numpy as np
import pytest

from opscal import kernels
from opscal.core import sigmoid
from opscal.ons import initial_theta


def oracle_hedge_pass(expert, ys, us, eps, m):
    """Definition-level hedging: per expert bin, track (count, mean) of
    outcomes per forecast bin; forecast by scanning conditions A then B."""
    T = len(expert)
    n = np.zeros((m, m))
    mean = np.tile((np.arange(m) + 0.5) * eps, (m, 1)).copy()
    out = np.zeros(T)
    for t in range(T):
        r = min(int(np.floor(expert[t] / eps)), m - 1)
        averages = mean[r]
        deficits = np.arange(m) * eps - averages
        excesses = averages - (np.arange(m) + 1) * eps
        cond_a = np.flatnonzero((deficits <= 0.0) & (excesses <= 0.0))
        if len(cond_a) > 0:
            b = int(cond_a[0])
            chosen = (b + 0.5) * eps
        else:
            cond_b = np.flatnonzero((excesses[:-1] > 0.0) & (deficits[1:] > 0.0))
            assert len(cond_b) > 0, "neither hedging condition held"
            b = int(cond_b[0])
            p_low = deficits[b + 1] / (deficits[b + 1] + excesses[b])
            chosen = (b + 0.5) * eps if us[t] < p_low else (b + 1.5) * eps
        out[t] = chosen
        c = min(int(np.floor(chosen / eps)), m - 1)
        mean[r, c] = (mean[r, c] * n[r, c] + ys[t]) / (n[r, c] + 1) if n[r, c] > 0 else ys[t]
        n[r, c] += 1
    return out


def oracle_ons_pass(feats, ys, gamma, rho, radius, theta0):
    """Definition-level online Newton pass: accumulate A, solve A z = grad
    directly, project with a test-local KKT bisection."""
    T, d = feats.shape
    theta = theta0.astype(float).copy()
    A = rho * np.eye(d)
    probs = np.zeros(T)
    for t in range(T):
        x = feats[t]
        p = sigmoid(float(theta @ x))
        probs[t] = p
        g = (p - ys[t]) * x
        A = A + np.outer(g, g)
        tt = theta - np.linalg.solve(A, g) / gamma
        if np.linalg.norm(tt) <= radius:
            theta = tt
        else:
            w, Q = np.linalg.eigh(A)
            v = Q.T @ tt

            def norm_at(lam):
                return float(np.linalg.norm(w * v / (w + lam)))

            lo, hi = 0.0, 1.0
            while norm_at(hi) > radius:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if norm_at(mid) > radius:
                    lo = mid
                else:
                    hi = mid
            lam = 0.5 * (lo + hi)
            theta = Q @ (w * v / (w + lam))
    return probs, theta


class TestHedgingOracle:
    @pytest.mark.parametrize("eps,seed", [(0.1, 0), (0.1, 1), (0.2, 2), (0.05, 3)])
    def test_kernel_matches_independent_oracle(self, eps, seed):
        rng = np.random.default_rng(seed)
        T = 2000
        m = int(round(1.0 / eps))
        expert = rng.random(T)
        ys = (rng.random(T) < np.clip(expert + 0.2 * rng.normal(size=T), 0, 1)).astype(float)
        us = rng.random(T)
        got = kernels.hops_pass(expert, ys, us, eps, m)
        want = oracle_hedge_pass(expert, ys, us, eps, m)
        assert np.allclose(got, want, atol=1e-12)

    def test_covariate_free_matches(self):
        rng = np.random.default_rng(9)
        ys = (rng.random(3000) < 0.37).astype(float)
        us = rng.random(3000)
        got = kernels.hops_pass(np.zeros(3000), ys, us, 0.1, 10)
        want = oracle_hedge_pass(np.zeros(3000), ys, us, 0.1, 10)
        assert np.allclose(got, want, atol=1e-12)


class TestOnsOracle:
    @pytest.mark.parametrize("family_dim,seed", [(2, 0), (2, 1), (3, 2)])
    def test_kernel_matches_solve_based_oracle(self, family_dim, seed):
        rng = np.random.default_rng(seed)
        T = 800
        scores = rng.uniform(0.01, 0.99, T)
        if family_dim == 2:
            feats = np.column_stack([np.log(scores / (1 - scores)), np.ones(T)])
            rho = 100.0
        else:
            feats = np.column_stack([np.log(scores), np.log(1 - scores), np.ones(T)])
            rho = 25.0
        feats = np.ascontiguousarray(feats)
        ys = (rng.random(T) < scores).astype(float)
        theta0 = initial_theta(family_dim)
        got_p, got_theta, _, _ = kernels.ons_pass(feats, ys, 0.1, rho, 100.0, theta0)
        want_p, want_theta = oracle_ons_pass(feats, ys, 0.1, rho, 100.0, theta0)
        assert np.max(np.abs(got_p - want_p)) <= 1e-9
        assert np.max(np.abs(got_theta - want_theta)) <= 1e-9

    def test_projection_branch_agrees(self):
        # tiny radius forces the projection on nearly every step
        rng = np.random.default_rng(5)
        T = 300
        scores = rng.uniform(0.01, 0.99, T)
        feats = np.ascontiguousarray(
            np.column_stack([np.log(scores / (1 - scores)), np.ones(T)])
        )
        ys = (rng.random(T) < 0.5).astype(float)
        theta0 = np.array([0.3, 0.0])
        got_p, got_theta, _, _ = kernels.ons_pass(feats, ys, 0.1, 0.05, 0.5, theta0)
        want_p, want_theta = oracle_ons_pass(feats, ys, 0.1, 0.05, 0.5, theta0)
        assert np.max(np.abs(got_p - want_p)) <= 1e-7
        assert np.linalg.norm(got_theta) <= 0.5 + 1e-9
        assert np.max(np.abs(got_theta - want_theta)) <= 1e-7
