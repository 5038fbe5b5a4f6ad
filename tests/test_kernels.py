"""Pin the kernels' outputs, on either execution path.

Golden SHA-256 digests of each pass's output bytes on fixed seeds pin the
kernels to the outputs of the numpy-array implementation they replaced. A
property test replays the step-level APIs (numpy state) against the
whole-stream passes (Python-list state on the pure path) with ``==``.
The hedging kernels, which scan a status code per bin, are compared bit
for bit with the two-loop reference that classified every bin on every
call; the online-Newton forecast and update, written out per width, are
compared byte for byte with the loop form they replaced. Both references
are kept here. On the pure path every body also runs on the numpy
arrays numba compiles for, against the Python-float run. With numba enabled the exports are compiled; the *_py names are the same
bodies un-jitted, so outputs must agree exactly. A subprocess run with
OPSCAL_NUMBA=0 checks the env-flag path end to end.
"""

import contextlib
import copy
import hashlib
import json
import math
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
    CalibeatingInvariantError,
    HopsState,
    TrackingState,
    f99_forecast,
    f99_run,
    f99_update,
    hops_run,
    hops_step,
    tracking_forecast,
    tracking_run,
    tracking_update,
)
from opscal.core import BinningScheme
from opscal.ons import OnsConfig, OnsState, initial_theta, ons_advance
from opscal.scalers import beta_features, online_scaler_run, online_scaler_step, platt_features
from test_calibeating import ACCEPTED_EPS, scheme_and_stream

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
        climate = f99_run(ys, scheme, np.random.default_rng(seed))
        draw, f99_draw = np.random.default_rng(seed), np.random.default_rng(seed)
        hedge, track, f99 = HopsState(scheme), TrackingState(scheme), HopsState(scheme)
        for t in range(len(ys)):
            assert tracking_forecast(track, expert[t]) == tracked[t]
            track = tracking_update(track, expert[t], ys[t])
            chosen, hedge = hops_step(hedge, expert[t], ys[t], draw)
            assert chosen == hedged[t]
            _, chosen = f99_forecast(f99, f99_draw)
            assert chosen == climate[t]
            f99 = f99_update(f99, chosen, ys[t])


def reference_ons_state(theta0, rho):
    # Online-Newton start state on Python lists: theta0, A = rho I, A^{-1}.
    d = len(theta0)
    A, Ainv = [0.0] * (d * d), [0.0] * (d * d)
    for i in range(d):
        A[i * d + i] = rho
        Ainv[i * d + i] = 1.0 / rho
    return [float(v) for v in theta0], A, Ainv


def reference_ons_forecast(theta, x, k):
    # The loop form of the online-Newton forecast, which the kernels write
    # out per width; kept as their bit-exact reference.
    z = 0.0
    for i in range(len(theta)):
        z += theta[i] * x[k + i]
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def reference_ons_update(theta, A, Ainv, x, k, r, gamma, radius):
    # The loop form of the online-Newton update, in place, for any width.
    d = len(theta)
    g = [r * x[k + i] for i in range(d)]
    v = [0.0] * d
    denom = 1.0
    for i in range(d):
        s = 0.0
        for j in range(d):
            A[i * d + j] += g[i] * g[j]
            s += Ainv[i * d + j] * g[j]
        v[i] = s
        denom += g[i] * s
    tnorm2 = 0.0
    for i in range(d):
        for j in range(d):
            Ainv[i * d + j] -= v[i] * v[j] / denom
        theta[i] = theta[i] - (v[i] / denom) / gamma
        tnorm2 += theta[i] * theta[i]
    if tnorm2 > radius * radius:
        tt = kernels.project_anorm(A, theta, radius)
        for i in range(d):
            theta[i] = tt[i]


def reference_ons_pass(feats, ys, gamma, rho, radius, theta0):
    theta, A, Ainv = reference_ons_state(theta0, rho)
    x, d, T = feats.ravel().tolist(), len(theta), len(ys)
    probs, thetas = np.zeros(T), np.zeros((T + 1, d))
    thetas[0] = theta0
    for t, y in enumerate(ys.tolist()):
        probs[t] = p = reference_ons_forecast(theta, x, t * d)
        reference_ons_update(theta, A, Ainv, x, t * d, p - y, gamma, radius)
        thetas[t + 1] = theta
    return probs, thetas


def reference_ops_adversarial_pass(feats, gamma, rho, radius, theta0):
    theta, A, Ainv = reference_ons_state(theta0, rho)
    x, d = feats.ravel().tolist(), len(theta)
    T = len(x) // d
    probs, ys = np.zeros(T), np.zeros(T)
    for t in range(T):
        probs[t] = p = reference_ons_forecast(theta, x, t * d)
        ys[t] = y = 1.0 if p <= 0.5 else 0.0
        reference_ons_update(theta, A, Ainv, x, t * d, p - y, gamma, radius)
    return probs, ys


def reference_f99_dist_row(counts, sums, base, eps, m):
    # The two-loop hedging distribution that classified every bin on every
    # call, kept as the reference for the status-scanning kernels.
    for b in range(m):
        pb = (b + 0.5) * eps if counts[base + b] == 0.0 else sums[base + b] / counts[base + b]
        if pb >= b * eps and pb <= (b + 1.0) * eps:
            return b, b, 1.0
    for b in range(m - 1):
        pb = (b + 0.5) * eps if counts[base + b] == 0.0 else sums[base + b] / counts[base + b]
        eb = pb - (b + 1.0) * eps
        if eb > 0.0:
            n1 = counts[base + b + 1]
            pb1 = (b + 1.5) * eps if n1 == 0.0 else sums[base + b + 1] / n1
            db1 = (b + 1.0) * eps - pb1
            if db1 > 0.0:
                return b, b + 1, db1 / (db1 + eb)
    raise CalibeatingInvariantError("hedging invariant violated: neither condition holds")


def reference_hops_pass(expert, ys, us, eps, m):
    counts, sums = [0.0] * (m * m), [0.0] * (m * m)
    out = np.zeros(len(expert))
    for t, (p, y, u) in enumerate(zip(expert.tolist(), ys.tolist(), us.tolist())):
        base = kernels.bin_of(p, eps, m) * m
        lo, hi, plo = reference_f99_dist_row(counts, sums, base, eps, m)
        c = lo if u < plo else hi
        counts[base + c] += 1.0
        sums[base + c] += y
        out[t] = (c + 0.5) * eps
    return out


def reference_hops_adversarial_pass(feats, us, eps, m, gamma, rho, radius, theta0):
    theta, A, Ainv = reference_ons_state(theta0, rho)
    x = feats.ravel().tolist()
    d, T = len(theta), len(us)
    counts, sums = [0.0] * (m * m), [0.0] * (m * m)
    ops, hops, ys = np.zeros(T), np.zeros(T), np.zeros(T)
    for t, u in enumerate(us.tolist()):
        p = reference_ons_forecast(theta, x, t * d)
        base = kernels.bin_of(p, eps, m) * m
        lo, hi, plo = reference_f99_dist_row(counts, sums, base, eps, m)
        y = 1.0 if plo * ((lo + 0.5) * eps) + (1.0 - plo) * ((hi + 0.5) * eps) <= 0.5 else 0.0
        c = lo if u < plo else hi
        counts[base + c] += 1.0
        sums[base + c] += y
        reference_ons_update(theta, A, Ainv, x, t * d, p - y, gamma, radius)
        ops[t], hops[t], ys[t] = p, (c + 0.5) * eps, y
    return ops, hops, ys


def outcome(eps, m):
    """Outcomes in [0, 1]: 0 and 1, bin edges (a bin holding one of them
    alone averages exactly on its edge) and arbitrary fractions."""
    edges = st.integers(0, m).map(lambda b: min(b * eps, 1.0))
    return st.one_of(st.sampled_from([0.0, 1.0]), edges, st.floats(0.0, 1.0))


@st.composite
def hedging_row(draw, mode="any"):
    """One forecaster's m bins inside flat state of a few rows. In mode
    "any" each bin is empty, averages exactly on its left or right edge, or
    holds an arbitrary average in [0, 1]; in "off_a" no bin of the row is
    inside, each has an excess, a deficit or a NaN average, so the row
    hedges or raises; in "all_excess" every average of the row lies above
    its bin, so it raises."""
    eps = draw(st.sampled_from(ACCEPTED_EPS))
    m = BinningScheme(eps).m
    rows = draw(st.integers(1, 3))
    r = draw(st.integers(0, rows - 1))
    counts, sums = [0.0] * (rows * m), [0.0] * (rows * m)
    for k in range(rows * m):
        b = k % m
        n = float(draw(st.sampled_from([1, 2, 4, 8, 3, 7])))
        if k // m == r and mode == "all_excess":
            kind = "excess"
        elif k // m == r and mode == "off_a":
            kind = draw(st.sampled_from(["excess", "deficit", "excess", "deficit", "nan"]))
        else:
            kind = draw(st.sampled_from(["empty", "left", "right", "any", "any"]))
        if kind == "empty":
            continue
        if kind == "excess":
            avg = (b + 1.0) * eps + draw(st.floats(1e-9, 1.0))
        elif kind == "deficit":
            avg = b * eps - draw(st.floats(1e-9, 1.0))
        elif kind == "nan":
            avg = float("nan")
        elif kind == "any":
            avg = draw(st.floats(0.0, 1.0))
        else:
            avg = b * eps if kind == "left" else (b + 1.0) * eps
            n = float(draw(st.sampled_from([1, 2, 4, 8])))  # sums / n is exactly the edge
        counts[k], sums[k] = n, avg * n
    return counts, sums, r * m, eps, m


ROWS = st.one_of(hedging_row(), hedging_row("off_a"), hedging_row("all_excess"))


def same_outcome(call, reference):
    """Both return the same value, bit for bit, or both raise the
    invariant error."""
    try:
        want = reference()
    except CalibeatingInvariantError:
        with pytest.raises(CalibeatingInvariantError):
            call()
        return
    assert call() == want


class TestAdversary:
    def test_ties_go_to_one(self):
        # y = 1{x <= 1/2}; both adversarial passes respond through this helper
        assert kernels.adversary(0.5) == 1.0
        assert kernels.adversary(np.nextafter(0.5, 1.0)) == 0.0
        assert kernels.adversary(0.0) == 1.0


class TestHedgingOracle:
    """The status-scanning hedging kernels against the two-loop reference
    that classified every bin on every call."""

    @settings(max_examples=200, deadline=None)
    @given(row=ROWS, arrays=st.booleans())
    def test_dist_row(self, row, arrays):
        counts, sums, base, eps, m = row
        if arrays:
            counts, sums = np.array(counts), np.array(sums)
        status = kernels.status_of(counts, sums, eps, m)
        same_outcome(lambda: kernels.hedge_select(status, counts, sums, base, eps, m),
                     lambda: reference_f99_dist_row(counts, sums, base, eps, m))

    @settings(max_examples=50, deadline=None)
    @given(row=hedging_row("all_excess"))
    def test_all_excess_row_raises(self, row):
        counts, sums, base, eps, m = row
        status = kernels.status_of(counts, sums, eps, m)
        with pytest.raises(CalibeatingInvariantError):
            kernels.hedge_select(status, counts, sums, base, eps, m)
        with pytest.raises(CalibeatingInvariantError):
            kernels.hops_advance(counts, sums, status, base // m, 0.5, 0.5, eps, m)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), eps=st.sampled_from(ACCEPTED_EPS), T=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_hops_pass(self, data, eps, T, seed):
        m = BinningScheme(eps).m
        rng = np.random.default_rng(seed)
        # few expert bins, so rows fill up and leave condition A
        expert = rng.choice(rng.random(3), T)
        ys = np.array(data.draw(st.lists(outcome(eps, m), min_size=T, max_size=T)))
        us = rng.random(T)
        assert np.array_equal(kernels.hops_pass(expert, ys, us, eps, m),
                              reference_hops_pass(expert, ys, us, eps, m))

    @settings(max_examples=60, deadline=None)
    @given(eps=st.sampled_from(ACCEPTED_EPS), T=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
    def test_hops_adversarial_pass(self, eps, T, seed):
        m = BinningScheme(eps).m
        scores, _, us = stream(seed, T)
        args = (feats_of("platt", scores), us, eps, m, 0.1, 100.0, 100.0, initial_theta(2))
        for got, want in zip(kernels.hops_adversarial_pass(*args), reference_hops_adversarial_pass(*args)):
            assert np.array_equal(got, want)


def same_bytes(got, want):
    """Equal bytes, so that signed zeros count."""
    return np.asarray(got, dtype=np.float64).tobytes() == np.asarray(want, dtype=np.float64).tobytes()


# signed zeros, exact ones and arbitrary values, for features, residuals
# and start parameters of the raw online-Newton step bodies
SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from([1.0, -1.0, 0.5, -0.5]),
                   st.floats(-5.0, 5.0, allow_subnormal=False))


class TestOnsLoopReference:
    """The online-Newton forecast and update, written out per admitted
    width, against the loop form they replaced, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from([2, 3]), data=st.data(), rho=st.sampled_from([1.0, 25.0, 100.0]),
           radius=st.sampled_from([100.0, 1.5, 0.8, 0.3]))
    def test_step_bodies(self, d, data, rho, radius):
        theta0 = data.draw(st.lists(SIGNED, min_size=d, max_size=d))
        steps = data.draw(st.lists(st.tuples(st.lists(SIGNED, min_size=d, max_size=d), SIGNED),
                                   min_size=1, max_size=30))
        state = kernels.ons_init(kernels._flat(np.array(theta0)), rho)
        ref = reference_ons_state(theta0, rho)
        for feature, r in steps:
            x = kernels._flat(np.array(feature))
            assert same_bytes(kernels.ons_forecast(state[0], x, 0), reference_ons_forecast(ref[0], feature, 0))
            kernels.ons_update(*state, x, 0, r, 0.1, radius)
            reference_ons_update(*ref, feature, 0, r, 0.1, radius)
            assert all(same_bytes(a, b) for a, b in zip(state, ref))

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_gradient_keeps_a_negative_zero(self, d):
        # a zero gradient gives v = +0.0 from sums that start at 0.0, so a
        # -0.0 parameter stays -0.0; the same sums without their 0.0 start
        # give v = -0.0 and turn it into +0.0
        theta0 = [-0.0] * d
        state, ref = kernels.ons_init(kernels._flat(np.array(theta0)), 1.0), reference_ons_state(theta0, 1.0)
        kernels.ons_update(*state, kernels._flat(np.ones(d)), 0, -0.0, 0.1, 100.0)
        reference_ons_update(*ref, [1.0] * d, 0, -0.0, 0.1, 100.0)
        assert same_bytes(state[0], theta0) and same_bytes(ref[0], theta0)
        assert all(same_bytes(a, b) for a, b in zip(state, ref))

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["platt", "beta"]), T=st.integers(1, 300),
           rho=st.sampled_from([1.0, 25.0, 100.0]), radius=st.sampled_from([100.0, 1.5, 0.8]),
           half=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_passes_and_step_replay(self, family, T, rho, radius, half, seed):
        # scores of exactly 0.5 put logit 0 in the Platt feature, so the
        # gradient has a signed-zero component; small radii fire the
        # projection
        scores, ys, us = stream(seed, T)
        scores[np.random.default_rng([seed, 1]).random(T) < half] = 0.5
        feats = feats_of(family, scores)
        d = feats.shape[1]
        theta0 = initial_theta(d)
        ons = (0.1, rho, radius, theta0)
        for got, want in [
            (kernels.ons_pass(feats, ys, *ons), reference_ons_pass(feats, ys, *ons)),
            (kernels.ops_adversarial_pass(feats, *ons), reference_ops_adversarial_pass(feats, *ons)),
            (kernels.hops_adversarial_pass(feats, us, 0.1, 10, *ons),
             reference_hops_adversarial_pass(feats, us, 0.1, 10, *ons)),
        ]:
            assert all(same_bytes(a, b) for a, b in zip(got, want))
        config = OnsConfig(dim=d, gamma=0.1, rho=rho, radius=radius)
        state, (theta, A, Ainv) = OnsState.init(config), reference_ons_state(theta0, rho)
        x = feats.ravel().tolist()
        for t in range(T):
            p, state = ons_advance(state, feats[t], ys[t], config)
            want = reference_ons_forecast(theta, x, t * d)
            reference_ons_update(theta, A, Ainv, x, t * d, want - ys[t], 0.1, radius)
            assert same_bytes(p, want)
            assert same_bytes(state.theta, theta) and same_bytes(state.A.ravel(), A)
            assert same_bytes(state.A_inv.ravel(), Ainv)

    @pytest.mark.parametrize("width", [1, 4])
    def test_unsupported_width_raises(self, width):
        rng = np.random.default_rng(0)
        feats = np.ascontiguousarray(rng.uniform(-1.0, 1.0, (20, width)))
        ys, us, theta0 = (rng.random(20) < 0.5).astype(float), rng.random(20), np.zeros(width)
        for run in (lambda: kernels.ons_pass(feats, ys, 0.1, 1.0, 100.0, theta0),
                    lambda: kernels.ops_adversarial_pass(feats, 0.1, 1.0, 100.0, theta0),
                    lambda: kernels.hops_adversarial_pass(feats, us, 0.1, 10, 0.1, 1.0, 100.0, theta0)):
            with pytest.raises(ValueError, match="length 2"):
                run()


class TestOnsLongHorizon:
    """A million online-Newton steps on the default configurations: the
    state stays finite, A and its Sherman-Morrison inverse stay exactly
    symmetric, and A A^{-1} stays within 1e-10 of I. Measured worst
    max|A A^{-1} - I| over the ten checkpoints: 6.9e-14 (Platt) and
    3.1e-12 (beta)."""

    CHUNK = 100_000

    @pytest.mark.parametrize("family", ["platt", "beta"])
    def test_million_steps(self, family):
        config = OnsConfig.platt() if family == "platt" else OnsConfig.beta()
        d, rng = config.dim, np.random.default_rng(2024)
        theta, A, Ainv = kernels.ons_init(kernels._flat(initial_theta(d)), config.rho)
        for _ in range(10):  # features made one chunk at a time, T = 1e6 in all
            scores = rng.uniform(0.01, 0.99, self.CHUNK)
            ys = (rng.random(self.CHUNK) < np.clip(scores + 0.15, 0, 1)).astype(float).tolist()
            x = kernels._flat(feats_of(family, scores))
            for t in range(self.CHUNK):
                kernels.ons_step_arrays(theta, A, Ainv, x, t * d, ys[t], config.gamma, config.radius)
            a, ainv = np.reshape(A, (d, d)), np.reshape(Ainv, (d, d))
            assert np.isfinite(theta).all() and np.isfinite(a).all() and np.isfinite(ainv).all()
            assert np.array_equal(a, a.T) and np.array_equal(ainv, ainv.T)
            assert np.abs(a @ ainv - np.eye(d)).max() < 1e-10


def reference_distribution(state, p):
    """The distribution the two-loop reference computes from a
    HopsState's tallies alone, as (support, probs) on 1-based midpoints."""
    scheme = state.scheme
    base = kernels.bin_of(p, scheme.epsilon, scheme.m) * scheme.m
    lo, hi, plo = reference_f99_dist_row(state.counts, state.outcome_sums, base, scheme.epsilon, scheme.m)
    if lo == hi:
        return (scheme.midpoint(lo + 1),), (1.0,)
    return (scheme.midpoint(lo + 1), scheme.midpoint(hi + 1)), (plo, 1.0 - plo)


class TestHopsStateStatus:
    @settings(max_examples=50, deadline=None)
    @given(case=scheme_and_stream(max_T=300), data=st.data())
    def test_rebuilt_state_continues_the_replay(self, case, data):
        # a state rebuilt from another's tallies derives the same status and
        # goes on drawing the same forecasts; the announced distribution,
        # read off the cached status, agrees with the two-loop reference,
        # which classifies from the tallies, throughout
        scheme, expert, ys, seed = case
        cut = data.draw(st.integers(0, len(ys)))
        draw = np.random.default_rng(seed)
        state = HopsState(scheme)
        for t in range(cut):
            dist = state.distribution(expert[t])
            assert (dist.support, dist.probs) == reference_distribution(state, expert[t])
            _, state = hops_step(state, expert[t], ys[t], draw)
        rebuilt = HopsState(scheme, state.counts.copy(), state.outcome_sums.copy())
        assert list(rebuilt.status) == list(state.status)
        draw_rebuilt = copy.deepcopy(draw)
        for t in range(cut, len(ys)):
            dist = rebuilt.distribution(expert[t])
            assert (dist.support, dist.probs) == reference_distribution(rebuilt, expert[t])
            a, state = hops_step(state, expert[t], ys[t], draw)
            b, rebuilt = hops_step(rebuilt, expert[t], ys[t], draw_rebuilt)
            assert a == b
            assert list(rebuilt.status) == list(state.status)

    def test_status_is_copied_not_shared(self):
        state = HopsState(BinningScheme(0.1))
        before = list(state.status)
        _, successor = hops_step(state, 0.55, 1.0, np.random.default_rng(0))
        assert list(state.status) == before
        assert list(successor.status) != before


@contextlib.contextmanager
def numba_container():
    """Run the pure-path bodies on numpy arrays, as under numba: fresh
    buffers from ``np.zeros`` and inputs never ``tolist()``-ed."""
    saved = kernels._zeros, kernels.NUMBA_ENABLED
    kernels._zeros, kernels.NUMBA_ENABLED = np.zeros, True  # _flat keeps arrays
    try:
        yield
    finally:
        kernels._zeros, kernels.NUMBA_ENABLED = saved


@pytest.mark.skipif(NUMBA_ENABLED, reason="compiled kernels bind their containers at compile time")
class TestNumbaContainer:
    """Every kernel body run on the container numba compiles for, bit for
    bit against the Python-float path. This checks the container semantics
    the compiled code sees, not numba compilation."""

    def test_containers_switch(self):
        assert isinstance(kernels.status_of([0.0] * 4, [0.0] * 4, 0.5, 2), list)
        with numba_container():
            assert isinstance(kernels.status_of(np.zeros(4), np.zeros(4), 0.5, 2), np.ndarray)
            assert isinstance(kernels._flat(np.zeros(3)), np.ndarray)
            assert isinstance(kernels.ons_init(np.zeros(2), 1.0)[1], np.ndarray)

    @pytest.mark.parametrize("family, rho, radius", [
        ("platt", 100.0, 100.0), ("beta", 25.0, 100.0),
        ("platt", 1.0, 1.2), ("beta", 1.0, 1.5),  # the A-norm projection fires
    ])
    def test_ons_passes(self, family, rho, radius):
        scores, ys, _ = stream(107, 300)
        feats, theta0 = feats_of(family, scores), initial_theta(3 if family == "beta" else 2)

        def run():
            return (*kernels.ons_pass(feats, ys, 0.1, rho, radius, theta0),
                    *kernels.ops_adversarial_pass(feats, 0.1, rho, radius, theta0))

        floats = run()
        with numba_container():
            assert all(np.array_equal(a, b) for a, b in zip(floats, run()))

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.15, 1.0 / 3])
    def test_tracking_and_hedging_passes(self, eps):
        m = BinningScheme(eps).m
        scores, ys, us = stream(108, 1500)
        ys[::7] = 0.3  # fractional outcomes
        feats = feats_of("platt", scores)

        def run():
            return (kernels.tracking_pass(scores, ys, eps, m), kernels.hops_pass(scores, ys, us, eps, m),
                    *kernels.hops_adversarial_pass(feats, us, eps, m, 0.1, 100.0, 100.0, initial_theta(2)))

        floats = run()
        with numba_container():
            assert all(np.array_equal(a, b) for a, b in zip(floats, run()))

    @settings(max_examples=100, deadline=None)
    @given(row=ROWS)
    def test_hedging_steps(self, row):
        # status_of classifies into a _zeros buffer
        counts, sums, base, eps, m = row

        def steps():
            c, s = np.array(counts), np.array(sums)
            status = kernels.status_of(c, s, eps, m)
            try:
                # bytes, so that NaN sums compare equal
                return (kernels.hedge_select(status, c, s, base, eps, m),
                        kernels.hops_advance(c, s, status, base // m, 0.5, 0.25, eps, m),
                        c.tobytes(), s.tobytes(), list(status))
            except CalibeatingInvariantError:
                return "raised"

        floats = steps()
        with numba_container():
            assert steps() == floats

    def test_step_replay(self):
        # the step APIs, with the status held in an array, replay the
        # float-path pass
        scheme = BinningScheme(0.1)
        scores, ys, _ = stream(109, 400)
        hedged = hops_run(scores, ys, scheme, np.random.default_rng(3))
        with numba_container():
            draw, state = np.random.default_rng(3), HopsState(scheme)
            assert isinstance(state.status, np.ndarray)
            for t in range(len(ys)):
                chosen, state = hops_step(state, scores[t], ys[t], draw)
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
