"""Pin the kernels' outputs, on either execution path.

Golden SHA-256 digests of each pass's output bytes on fixed seeds pin the
kernels to the outputs of the numpy-array implementation they replaced. A
property test replays the step-level APIs (numpy state) against the
whole-stream passes (Python-list state on the pure path) with ``==``.
With numba enabled the exports are compiled; the *_py names are the same
bodies un-jitted, so outputs must agree exactly. A subprocess run with
OPSCAL_NUMBA=0 checks the env-flag path end to end.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscal import kernels
from opscal._accel import NUMBA_ENABLED
from opscal.calibeating import (
    HopsState,
    TrackingState,
    hops_run,
    hops_step,
    tracking_forecast,
    tracking_run,
    tracking_update,
)
from opscal.ons import OnsConfig, OnsState, initial_theta
from opscal.scalers import beta_features, online_scaler_run, online_scaler_step, platt_features
from test_calibeating import scheme_and_stream

needs_numba = pytest.mark.skipif(not NUMBA_ENABLED, reason="numba disabled or absent")


def platt_feats(rng, T):
    scores = rng.uniform(0.01, 0.99, T)
    feats = np.column_stack([np.log(scores / (1 - scores)), np.ones(T)])
    ys = (rng.random(T) < scores).astype(float)
    return np.ascontiguousarray(feats), ys


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def stream(seed, T):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.01, 0.99, T)
    ys = (rng.random(T) < np.clip(scores + 0.15, 0, 1)).astype(float)
    return scores, ys, rng.random(T)


def feats_of(family, scores):
    make = platt_features if family == "platt" else beta_features
    return np.ascontiguousarray(make(scores))


class TestGoldenOutputs:
    """SHA-256 of the output bytes, recorded from the numpy-array kernels."""

    @pytest.mark.parametrize("seed, T, family, rho, radius, theta_dim, golden", [
        (101, 600, "platt", 100.0, 100.0, 2,
         "413fa7f33fdc628870e52ccb800ebb04cac7ba0e962c1e5c98f2471399d9fa1c"),
        (102, 600, "beta", 25.0, 100.0, 3,
         "1a8bed3d1c509594c7e4fb9cd5fc4c53994a28846648fde2cb128fcf4f0a2a93"),
        # radius small enough that the A-norm projection fires
        (103, 300, "platt", 1.0, 1.2, 2,
         "6c705b6744d5ed14dc6078ed417eb2b935511475db53b6a774a0ac4b2f19f4ab"),
        (103, 300, "beta", 1.0, 1.5, 3,
         "9debdc3d8c027378331cd586e34b3d635727298432b2a3c5fd01a13ad064f667"),
    ])
    def test_ons_pass(self, seed, T, family, rho, radius, theta_dim, golden):
        scores, ys, _ = stream(seed, T)
        out = kernels.ons_pass(feats_of(family, scores), ys, 0.1, rho, radius, initial_theta(theta_dim))
        assert digest(*out) == golden

    @pytest.mark.skipif(NUMBA_ENABLED, reason="compiled kernels bind project_anorm at compile time")
    @pytest.mark.parametrize("family, dim, radius, calls", [("platt", 2, 1.2, 140), ("beta", 3, 1.5, 135)])
    def test_projection_fires_through_module_name(self, monkeypatch, family, dim, radius, calls):
        seen = []
        original = kernels.project_anorm
        monkeypatch.setattr(kernels, "project_anorm", lambda *a: seen.append(1) or original(*a))
        scores, ys, _ = stream(103, 300)
        kernels.ons_pass(feats_of(family, scores), ys, 0.1, 1.0, radius, initial_theta(dim))
        assert len(seen) == calls

    @pytest.mark.parametrize("eps, m, golden", [
        (0.1, 10, "db29bbee7c97b33c7c682b2caf786864b83b6bc7d6171bd6f71c40c448affc5c"),
        (0.05, 20, "53b62a95b6e8c2fa312d19f8e874b5a1f58a77b5904e57c8734e5485e19e9069"),
    ])
    def test_tracking_pass(self, eps, m, golden):
        scores, ys, _ = stream(104, 2000)
        assert digest(kernels.tracking_pass(scores, ys, eps, m)) == golden

    @pytest.mark.parametrize("eps, m, golden", [
        (0.1, 10, "efe4d5e9e13f8ad26aeb3ec171dcba3b7fc44414b3ed7ed5ed963bdea71acf39"),
        (0.2, 5, "2a7d3b5a56b4c94a3d607a29fb5da3c6735153fade0297597004bb55afe60df7"),
    ])
    def test_hops_pass(self, eps, m, golden):
        scores, ys, us = stream(105, 2000)
        assert digest(kernels.hops_pass(scores, ys, us, eps, m)) == golden

    def test_adversarial_passes(self):
        scores, _, us = stream(106, 1000)
        feats = feats_of("platt", scores)
        ops = kernels.ops_adversarial_pass(feats, 0.1, 100.0, 100.0, initial_theta(2))
        hops = kernels.hops_adversarial_pass(feats, us, 0.1, 10, 0.1, 100.0, 100.0, initial_theta(2))
        assert digest(*ops) == "d34862f9d704ef4fcb797d081a79310a170a5ffb79ba01ccc131171d476a29e6"
        assert digest(*hops) == "9995cd64bd915abbe2fb08672de09e8ee03868c24be915dda8fd14e1ea7aab2e"


class TestStepReplay:
    """The step APIs feed numpy state into the same bodies the whole-stream
    passes run on their own containers; both must agree exactly."""

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["platt", "beta"]), T=st.integers(1, 150),
           radius=st.sampled_from([100.0, 1.5, 0.8]), seed=st.integers(0, 2**32 - 1))
    def test_online_scaler_step_equals_run(self, family, T, radius, seed):
        base = OnsConfig.platt() if family == "platt" else OnsConfig.beta()
        config = OnsConfig(dim=base.dim, gamma=base.gamma, rho=base.rho, radius=radius)
        scores, ys, _ = stream(seed, T)
        probs, thetas = online_scaler_run(scores, ys, family, config)
        state = OnsState.init(config)
        for t in range(T):
            assert np.array_equal(state.theta, thetas[t])
            p, state = online_scaler_step(state, scores[t], ys[t], family, config)
            assert p == probs[t]
        assert np.array_equal(state.theta, thetas[T])

    @settings(max_examples=100, deadline=None)
    @given(case=scheme_and_stream(max_T=300))
    def test_hops_step_equals_run(self, case):
        # every accepted bin width, with expert values at exact 0, 1 and the
        # bin edges, where step routing and kernel routing must agree
        scheme, expert, ys, seed = case
        hedged = hops_run(expert, ys, scheme, np.random.default_rng(seed))
        tracked = tracking_run(expert, ys, scheme)
        draw = np.random.default_rng(seed)
        hedge, track = HopsState(scheme), TrackingState(scheme)
        for t in range(len(ys)):
            assert tracking_forecast(track, expert[t]) == tracked[t]
            track = tracking_update(track, expert[t], ys[t])
            chosen, hedge = hops_step(hedge, expert[t], ys[t], draw)
            assert chosen == hedged[t]


@needs_numba
class TestPathEquivalence:
    def test_project_anorm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            M = rng.normal(size=(d, d))
            A = M @ M.T + d * np.eye(d)
            t = rng.normal(size=d) * 4
            r = float(rng.uniform(0.5, 2.0))
            a = kernels.project_anorm(A, t, r)
            b = kernels.project_anorm_py(A, t, r)
            assert np.array_equal(a, b)

    def test_ons_pass(self):
        rng = np.random.default_rng(1)
        feats, ys = platt_feats(rng, 500)
        jit = kernels.ons_pass(feats, ys, 0.1, 100.0, 100.0, initial_theta(2))
        py = kernels.ons_pass_py(feats, ys, 0.1, 100.0, 100.0, initial_theta(2))
        assert np.array_equal(jit[0], py[0])
        assert np.array_equal(jit[1], py[1])

    def test_tracking_pass(self):
        rng = np.random.default_rng(2)
        expert = rng.random(1000)
        ys = (rng.random(1000) < expert).astype(float)
        assert np.array_equal(
            kernels.tracking_pass(expert, ys, 0.1, 10),
            kernels.tracking_pass_py(expert, ys, 0.1, 10),
        )

    def test_hops_pass(self):
        rng = np.random.default_rng(3)
        expert = rng.random(1000)
        ys = (rng.random(1000) < expert).astype(float)
        us = rng.random(1000)
        assert np.array_equal(
            kernels.hops_pass(expert, ys, us, 0.1, 10),
            kernels.hops_pass_py(expert, ys, us, 0.1, 10),
        )

    def test_adversarial_passes(self):
        rng = np.random.default_rng(4)
        feats, _ = platt_feats(rng, 400)
        us = rng.random(400)
        a = kernels.ops_adversarial_pass(feats, 0.1, 100.0, 100.0, initial_theta(2))
        b = kernels.ops_adversarial_pass_py(feats, 0.1, 100.0, 100.0, initial_theta(2))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        a = kernels.hops_adversarial_pass(feats, us, 0.1, 10, 0.1, 100.0, 100.0, initial_theta(2))
        b = kernels.hops_adversarial_pass_py(feats, us, 0.1, 10, 0.1, 100.0, 100.0, initial_theta(2))
        for x, z in zip(a, b):
            assert np.array_equal(x, z)


SUBPROCESS_SNIPPET = """
import json
import numpy as np
from opscal._accel import NUMBA_ENABLED
from opscal import kernels
from opscal.ons import initial_theta

rng = np.random.default_rng(99)
scores = rng.uniform(0.01, 0.99, 300)
feats = np.column_stack([np.log(scores / (1 - scores)), np.ones(300)])
ys = (rng.random(300) < scores).astype(float)
probs, thetas = kernels.ons_pass(np.ascontiguousarray(feats), ys, 0.1, 100.0, 100.0, initial_theta(2))
us = rng.random(300)
h = kernels.hops_pass(probs.copy(), ys, us, 0.1, 10)
print(json.dumps({
    "numba": NUMBA_ENABLED,
    "probs_sum": repr(float(np.sum(probs))),
    "theta": [repr(float(v)) for v in thetas[-1]],
    "hops_sum": repr(float(np.sum(h))),
}))
"""


class TestEnvFlagFallback:
    def test_disabled_numba_subprocess_matches(self):
        env = dict(os.environ, OPSCAL_NUMBA="0")
        out = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
        )
        sub = json.loads(out.stdout.strip().splitlines()[-1])
        assert sub["numba"] is False
        here = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SNIPPET],
            capture_output=True, text=True, env=dict(os.environ, OPSCAL_NUMBA="1"),
            check=True,
        )
        ref = json.loads(here.stdout.strip().splitlines()[-1])
        assert sub["probs_sum"] == ref["probs_sum"]
        assert sub["theta"] == ref["theta"]
        assert sub["hops_sum"] == ref["hops_sum"]
