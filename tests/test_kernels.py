"""Pin the kernels' outputs.

Golden SHA-256 digests of each pass's output bytes on fixed seeds pin the
kernels to the outputs of the numpy-array implementation they replaced. A
property test replays the step-level APIs (numpy state) against the
whole-stream passes (Python-list state) with ``==``, and so does a replay
of the score column's edge values. The hedging kernels, which scan a
status code per bin, are compared bit for bit with the two-loop reference
that classified every bin on every call, and the hedging body's cached
condition-A bin and pair-scan bound per row with a fresh scan wherever a
run stops, and a counted status buffer bounds the pair scan's reads; the
online-Newton forecast and update, written out per width, and the A-norm
projection, in array form, are compared byte for byte with the loop forms
they replaced, and so is the closed-form tracking pass with its per-step
loop. The references are kept here.
"""

import copy
import hashlib
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from opscal import kernels
from opscal.calibeating import (
    CalibeatingInvariantError,
    HedgeDistribution,
    HopsState,
    TrackingState,
    hops_run,
    hops_step,
    tracking_forecast,
    tracking_run,
    tracking_update,
)
from opscal.core import CLIP_HI, CLIP_LO, BinningScheme
from opscal.ons import OnsConfig, OnsState, initial_theta, ons_advance
from opscal.scalers import beta_features, online_scaler_run, online_scaler_step, platt_features
from test_calibeating import ACCEPTED_EPS, scheme_and_stream


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

    # the ons_pass goldens below are digests of (forecasts, (T + 1, d)
    # parameter trace) from the pass that kept the trace; the trace is now
    # the loop reference's, whose last row must be the pass's final theta.
    # The pass's own (forecasts, theta, A, A_inv) digests were recorded from
    # that traced pass before it dropped the trace.
    ONS_STATE_GOLDEN = {
        (101, "platt"): "2a1df9919a05b03e8fcf7f3151d7aae438c30ab1316f4125c0fb35954a1af990",
        (102, "beta"): "7efd4bae9392c06a6261d4cc24d2f4aa19925f0a7c5b88d53550183d2074f8ff",
        (103, "platt"): "eb22c10dbcb2f39715e8661de4fd06748888407334cf3c2bc4d701a59ccbace5",
        (103, "beta"): "0fce807772b60bbbb2b1271fb3e4200011a634a8247cc9f8f22c6ca2d1ef8759",
    }

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
        ons = (feats_of(family, scores), ys, 0.1, rho, radius, initial_theta(theta_dim))
        out = kernels.ons_pass(*ons)
        assert digest(*out) == self.ONS_STATE_GOLDEN[seed, family]
        thetas = reference_ons_pass(*ons)[1]
        assert same_bytes(thetas[-1], out[1]) and digest(out[0], thetas) == golden

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

    # no shrink phase in either test: shrinking the failing example of a
    # broken body ran for up to a minute before the test failed
    @settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(family=st.sampled_from(["platt", "beta"]), T=st.integers(1, 150),
           radius=st.sampled_from([100.0, 1.5, 0.8]), seed=st.integers(0, 2**32 - 1))
    def test_online_scaler_step_equals_run(self, family, T, radius, seed):
        # the parameters in force at each step come from the loop reference's
        # trace, and the run's final state is where the steps end
        base = OnsConfig.platt() if family == "platt" else OnsConfig.beta()
        config = OnsConfig(dim=base.dim, gamma=base.gamma, rho=base.rho, radius=radius)
        scores, ys, _ = stream(seed, T)
        probs, final = online_scaler_run(scores, ys, family, config)
        thetas = reference_ons_pass(feats_of(family, scores), ys, config.gamma, config.rho, radius,
                                    initial_theta(config.dim))[1]
        state = OnsState.init(config)
        for t in range(T):
            assert np.array_equal(state.theta, thetas[t])
            p, state = online_scaler_step(state, scores[t], ys[t], family, config)
            assert p == probs[t]
        assert np.array_equal(state.theta, thetas[T])
        assert same_state(state, final) and state.t == final.t == T

    @settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(case=scheme_and_stream(max_T=300))
    def test_hops_step_equals_run(self, case):
        # every accepted bin width, with expert values at exact 0, 1 and the
        # bin edges, where step routing and kernel routing must agree
        scheme, expert, ys, seed = case
        hedged = hops_run(expert, ys, scheme, np.random.default_rng(seed))
        tracked = tracking_run(expert, ys, scheme)
        climate = hops_run(np.zeros(len(ys)), ys, scheme, np.random.default_rng(seed))
        draw, f99_draw = np.random.default_rng(seed), np.random.default_rng(seed)
        hedge, track, f99 = HopsState(scheme), TrackingState(scheme), HopsState(scheme)
        for t in range(len(ys)):
            assert tracking_forecast(track, expert[t]) == tracked[t]
            track = tracking_update(track, expert[t], ys[t])
            chosen, hedge = hops_step(hedge, expert[t], ys[t], draw)
            assert chosen == hedged[t]
            chosen, f99 = hops_step(f99, 0.0, ys[t], f99_draw)  # the covariate-free step
            assert chosen == climate[t]


# configurations whose A-norm projection fires on stream(103, 300)
PROJECTING = [("platt", 1.0, 1.2), ("beta", 1.0, 1.5)]


class TestOnsFinalState:
    """A pass returns the state after its last step, not a parameter trace:
    a prefix pass continued by the step API is one pass, every state the
    passes and the step API leave is symmetric bit for bit, and the step API
    rejects a state that is not."""

    @pytest.mark.parametrize("family, rho, radius", PROJECTING)
    def test_prefix_run_continued_by_steps_equals_one_run(self, family, rho, radius):
        base = OnsConfig.platt() if family == "platt" else OnsConfig.beta()
        config = OnsConfig(dim=base.dim, gamma=base.gamma, rho=rho, radius=radius)
        scores, ys, _ = stream(103, 300)
        probs, final = online_scaler_run(scores, ys, family, config)
        for cut in (1, 2, 150, 299, 300):
            head, state = online_scaler_run(scores[:cut], ys[:cut], family, config)
            assert state.t == cut
            tail = []
            for t in range(cut, len(ys)):
                p, state = online_scaler_step(state, scores[t], ys[t], family, config)
                tail.append(p)
            assert same_bytes(np.concatenate([head, tail]), probs)
            assert same_state(state, final) and state.t == final.t == len(ys)

    @pytest.mark.parametrize("family, rho, radius", PROJECTING + [("platt", 100.0, 100.0), ("beta", 25.0, 100.0)])
    def test_every_state_left_is_symmetric(self, monkeypatch, family, rho, radius):
        # the passes' state buffers are caught from ons_init and read after
        # the pass; the projection, which reads A through its buffer, fires
        # in the first two cases
        made, projections = [], []
        init, project = kernels.ons_init, kernels.project_anorm
        monkeypatch.setattr(kernels, "ons_init", lambda *a: made.append(init(*a)) or made[-1])
        monkeypatch.setattr(kernels, "project_anorm", lambda *a: projections.append(1) or project(*a))
        scores, ys, us = stream(103, 300)
        feats = feats_of(family, scores)
        d = feats.shape[1]
        ons = (0.1, rho, radius, initial_theta(d))
        _, _, A, A_inv = kernels.ons_pass(feats, ys, *ons)
        kernels.ops_adversarial_pass(feats, *ons)
        kernels.hops_adversarial_pass(feats, us, 0.1, 10, *ons)
        assert len(made) == 3
        left = [(A, A_inv)] + [(state[1], state[2]) for state in made]
        config = OnsConfig(dim=d, gamma=0.1, rho=rho, radius=radius)
        state = OnsState.init(config)
        for t in range(len(ys)):
            _, state = ons_advance(state, feats[t], ys[t], config)
            left.append((state.A, state.A_inv))
        assert all(bitwise_symmetric(M, d) for pair in left for M in pair)
        assert bool(projections) == (radius < 2.0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("which", ["A", "A_inv"])
    def test_step_rejects_a_state_that_is_not_symmetric(self, d, which):
        # each off-diagonal pair, differing by a value or only by the sign
        # of a zero; the same state with the pair equal is accepted
        config = OnsConfig(dim=d, gamma=0.1, rho=2.0, radius=100.0)
        good = OnsState.init(config)
        feature = np.append(np.full(d - 1, 0.5), 1.0)
        for i in range(d):
            for j in range(i + 1, d):
                for upper, lower in ((0.0, -0.0), (-0.0, 0.0), (0.25, 0.125), (-0.0, -0.0)):
                    M = getattr(good, which).copy()
                    M[i, j], M[j, i] = upper, lower
                    state = OnsState(**{**good.__dict__, which: M})
                    if same_bytes(upper, lower):
                        ons_advance(state, feature, 1.0, config)
                        continue
                    with pytest.raises(ValueError, match="symmetric bit for bit"):
                        ons_advance(state, feature, 1.0, config)


# scores at the feature maps' edges: 0 and 1, the clip bounds, and each
# one's float neighbours on both sides that [0, 1] admits
EDGE_SCORES = [v for edge in (0.0, 1.0, CLIP_LO, CLIP_HI)
               for v in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)) if 0.0 <= v <= 1.0]


class TestStepReplayAtScoreEdges:
    """The one-row features of each step equal the rows of the whole
    column at the edge scores too, so the step API replays the pass; each
    step leaves the state it was given untouched."""

    @pytest.mark.parametrize("radius", [100.0, 0.8])
    @pytest.mark.parametrize("family", ["platt", "beta"])
    def test_online_scaler_step_equals_run(self, family, radius):
        base = OnsConfig.platt() if family == "platt" else OnsConfig.beta()
        config = OnsConfig(dim=base.dim, gamma=base.gamma, rho=base.rho, radius=radius)
        rng = np.random.default_rng(11)
        scores = rng.permutation(np.repeat(EDGE_SCORES, 8))
        ys = rng.choice([0.0, 1.0, 0.3], len(scores))
        probs, final = online_scaler_run(scores, ys, family, config)
        thetas = reference_ons_pass(feats_of(family, scores), ys, config.gamma, config.rho, radius,
                                    initial_theta(config.dim))[1]
        state = OnsState.init(config)
        for t in range(len(scores)):
            assert state.theta.tobytes() == thetas[t].tobytes()
            before = [a.tobytes() for a in (state.theta, state.A, state.A_inv)]
            p, successor = online_scaler_step(state, scores[t], ys[t], family, config)
            assert np.float64(p).tobytes() == probs[t].tobytes()
            assert [a.tobytes() for a in (state.theta, state.A, state.A_inv)] == before  # left untouched
            state = successor
        assert state.theta.tobytes() == thetas[-1].tobytes()
        assert same_state(state, final)


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


def reference_project_anorm(A, theta_tilde, radius):
    # The loop form of the A-norm projection, which the kernels write as
    # array code over the same eigendecomposition; kept as its bit-exact
    # reference.
    d = len(theta_tilde)
    nrm2 = 0.0
    for i in range(d):
        nrm2 += theta_tilde[i] * theta_tilde[i]
    if nrm2 <= radius * radius:
        return theta_tilde.copy()
    w, Q = np.linalg.eigh(np.asarray(A).reshape((d, d)))
    v = np.zeros(d)
    for j in range(d):
        s = 0.0
        for i in range(d):
            s += Q[i, j] * theta_tilde[i]
        v[j] = s
    lo = 0.0
    hi = 1.0
    while hi < 1e300:
        s = 0.0
        for i in range(d):
            zi = w[i] * v[i] / (w[i] + hi)
            s += zi * zi
        if s < radius * radius:
            break
        hi *= 2.0
    lam = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        s = 0.0
        for i in range(d):
            zi = w[i] * v[i] / (w[i] + mid)
            s += zi * zi
        nrm = math.sqrt(s)
        lam = mid
        if abs(nrm - radius) <= 1e-10:
            break
        if nrm > radius:
            lo = mid
        else:
            hi = mid
    z = np.zeros(d)
    for i in range(d):
        z[i] = w[i] * v[i] / (w[i] + lam)
    out = np.zeros(d)
    for i in range(d):
        s = 0.0
        for j in range(d):
            s += Q[i, j] * z[j]
        out[i] = s
    return out


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
        tt = reference_project_anorm(A, theta, radius)
        for i in range(d):
            theta[i] = tt[i]


def reference_ons_pass(feats, ys, gamma, rho, radius, theta0):
    # (forecasts, (T + 1, d) trace with row t in force at step t, final A,
    # final A^{-1}); the last row of the trace is the final theta
    theta, A, Ainv = reference_ons_state(theta0, rho)
    x, d, T = feats.ravel().tolist(), len(theta), len(ys)
    probs, thetas = np.zeros(T), np.zeros((T + 1, d))
    thetas[0] = theta0
    for t, y in enumerate(ys.tolist()):
        probs[t] = p = reference_ons_forecast(theta, x, t * d)
        reference_ons_update(theta, A, Ainv, x, t * d, p - y, gamma, radius)
        thetas[t + 1] = theta
    return probs, thetas, A, Ainv


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


def reference_tracking_pass(expert, ys, eps, m):
    # The per-step loop tracking ran before its closed form, kept as the
    # bit-exact reference: each forecast is the expert bin's mean of
    # strictly-past outcomes, its midpoint while the bin is empty.
    counts, sums = [0.0] * m, [0.0] * m
    out = np.zeros(len(expert))
    for t, (p, y) in enumerate(zip(expert.tolist(), ys.tolist())):
        b = kernels.bin_of(p, eps, m)
        out[t] = kernels.bin_average(counts, sums, b, b, eps)
        counts[b] += 1.0
        sums[b] += y
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


class TestTrackingClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), eps=st.sampled_from(ACCEPTED_EPS), T=st.integers(1, 300))
    def test_equals_loop(self, data, eps, T):
        # every accepted bin width, experts at 0, 1 and every float bin edge
        # k * eps, fractional outcomes and outcomes of -0.0, byte for byte
        m = BinningScheme(eps).m
        edges = [k * eps for k in range(m + 1) if k * eps <= 1.0]
        point = st.one_of(st.sampled_from([0.0, -0.0, 1.0] + edges), st.floats(0.0, 1.0))
        expert = np.array(data.draw(st.lists(point, min_size=T, max_size=T)))
        y = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
        ys = np.array(data.draw(st.lists(y, min_size=T, max_size=T)))
        got = kernels.tracking_pass(expert, ys, eps, m)
        assert got.dtype == np.float64
        assert got.tobytes() == reference_tracking_pass(expert, ys, eps, m).tobytes()

    @pytest.mark.parametrize("bad", [-0.05, 1.5, float("nan")])
    @pytest.mark.parametrize("run", [
        lambda expert, ys: kernels.tracking_pass(expert, ys, 0.1, 10),
        lambda expert, ys: kernels.hops_pass(expert, ys, np.full(len(ys), 0.5), 0.1, 10),
    ], ids=["tracking_pass", "hops_pass"])
    def test_passes_reject_experts_outside_unit_interval(self, run, bad):
        # a negative bin would index the state from its end
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            run(np.array([bad, bad, 0.5]), np.array([1.0, 0.0, 1.0]))


class TestAdversary:
    def test_ties_go_to_one(self):
        # y = 1{x <= 1/2}; both adversarial passes respond through this helper
        assert kernels.adversary(0.5) == 1.0
        assert kernels.adversary(np.nextafter(0.5, 1.0)) == 0.0
        assert kernels.adversary(0.0) == 1.0


def state_of_row(counts, sums, base, eps, m):
    """The flat m*m tallies of a HopsState holding a drawn row: the drawn
    rows that fit, with the drawn row at row r % m, and an expert forecast
    routed to that row."""
    full_counts, full_sums = np.zeros(m * m), np.zeros(m * m)
    k = min(len(counts), m * m)
    full_counts[:k], full_sums[:k] = counts[:k], sums[:k]
    r = base // m % m
    full_counts[r * m:(r + 1) * m], full_sums[r * m:(r + 1) * m] = counts[base:base + m], sums[base:base + m]
    return full_counts, full_sums, BinningScheme(eps).midpoints()[r]


class TestHedgingOracle:
    """The status-scanning hedging kernels against the two-loop reference
    that classified every bin on every call."""

    # no shrink phase: shrinking a broken distribution's failing row ran
    # past a two-minute timeout for the file
    @settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(row=ROWS)
    def test_dist_row(self, row):
        # a state built from the row's tallies announces the reference's
        # choice; tallies no outcomes in [0, 1] give (a NaN average, or one
        # outside [0, 1]) are rejected before any scan
        counts, sums, base, eps, m = row
        full_counts, full_sums, expert_p = state_of_row(counts, sums, base, eps, m)
        if not (np.isfinite(full_sums).all() and ((0.0 <= full_sums) & (full_sums <= full_counts)).all()):
            with pytest.raises(ValueError, match="tallies must be finite"):
                HopsState(BinningScheme(eps), full_counts, full_sums)
            return
        got = HopsState(BinningScheme(eps), full_counts, full_sums).distribution(expert_p)
        lo, hi, plo = reference_f99_dist_row(counts, sums, base, eps, m)
        mid = BinningScheme(eps).midpoints()
        if lo == hi:
            assert got == HedgeDistribution(support=(mid[lo],), probs=(1.0,))
        else:
            assert got == HedgeDistribution(support=(mid[lo], mid[hi]), probs=(plo, 1.0 - plo))

    @settings(max_examples=50, deadline=None)
    @given(row=hedging_row("all_excess"))
    def test_all_excess_row_raises(self, row):
        counts, sums, base, eps, m = row
        status = kernels.status_of(counts, sums, eps, m)
        with pytest.raises(CalibeatingInvariantError):
            kernels.hedge_pair(status, counts, sums, base, 0, eps, m)
        with pytest.raises(CalibeatingInvariantError):
            kernels.hops_advance(counts, sums, status, base // m, 0.5, 0.5, eps, m, *fresh_indexes(status, m))
        # the last bin's average lies above 1, which no outcomes in [0, 1]
        # give, so a state rejects the tallies before any scan
        full_counts, full_sums, _ = state_of_row(counts, sums, base, eps, m)
        with pytest.raises(ValueError, match="tallies must be finite"):
            HopsState(BinningScheme(eps), full_counts, full_sums)

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


def condition_a_bins(status, m):
    """Each row's smallest inside bin (status 0.0), m if it has none, by a
    fresh scan of the status codes."""
    return [next((b for b in range(m) if status[r * m + b] == 0.0), m) for r in range(len(status) // m)]


def fresh_indexes(status, m):
    """The condition-A index and pair bound a state derives from its status
    codes: one scan per row, and bound 0."""
    return condition_a_bins(status, m), [0] * (len(status) // m)


def pair_bins(status, m):
    """Each row's smallest bin b starting an (excess, deficit) pair (status
    1.0 at b, 2.0 at b + 1), m if it has none, by a fresh scan."""
    return [next((b for b in range(m - 1) if status[r * m + b] == 1.0 and status[r * m + b + 1] == 2.0), m)
            for r in range(len(status) // m)]


class TestHedgeRun:
    """The one hedging body keeps a per-row condition-A index and pair-scan
    bound as derived state: the index must match a fresh scan whenever a
    run stops, no pair may start below the bound, and a run resumed over
    the same buffers must equal one run."""

    @pytest.mark.parametrize("eps", ACCEPTED_EPS)
    def test_empty_state_is_inside(self, eps):
        # the passes start from all-inside status, index 0 and bound 0
        # without classifying: an empty bin averages its midpoint, inside
        # its bin, and no row has a pair
        m = BinningScheme(eps).m
        counts, sums, status, first, low = kernels._hedge_start(m)
        assert kernels.status_of(counts, sums, eps, m) == status == [0.0] * (m * m)
        assert HopsState(BinningScheme(eps)).status == status
        assert first == condition_a_bins(status, m) == [0] * m
        assert low == [0] * m and pair_bins(status, m) == [m] * m

    # no shrink phase: shrinking a failing example of up to 400 steps and 3
    # cuts ran for minutes, so a broken body hung the suite instead of failing
    @settings(max_examples=80, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(data=st.data(), eps=st.sampled_from(ACCEPTED_EPS),
           rule=st.sampled_from([kernels.GIVEN, kernels.ADVERSARY_HEDGE]), T=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_resumed_run_equals_one_run(self, data, eps, rule, T, seed):
        m = BinningScheme(eps).m
        rng = np.random.default_rng(seed)
        # few expert bins, so rows fill up and leave condition A
        rows = rng.choice(rng.integers(0, m, 3), T).tolist()
        if rule == kernels.ADVERSARY_HEDGE:  # this rule routes forecasts: each row as its bin's midpoint
            rows = [(r + 0.5) * eps for r in rows]
        ys = data.draw(st.lists(outcome(eps, m), min_size=T, max_size=T))
        us = rng.random(T).tolist()
        cuts = sorted(data.draw(st.lists(st.integers(0, T), max_size=3)))

        def run(bounds):
            # each slice runs over the same state buffers, its outputs written back
            out, ys_run = kernels._zeros(T), list(ys)
            counts, sums, status, first, low = kernels._hedge_start(m)
            for t0, t1 in zip(bounds, bounds[1:]):
                out_cut, ys_cut = out[t0:t1], ys_run[t0:t1]
                steps = kernels.hedge_run(rows[t0:t1], ys_cut, rule, us[t0:t1], out_cut, counts, sums, status,
                                          first, low, eps, m)
                if rule == kernels.ADVERSARY_HEDGE:
                    for _ in steps:
                        pass
                else:
                    next(steps, None)
                out[t0:t1], ys_run[t0:t1] = out_cut, ys_cut
                assert first == condition_a_bins(status, m)
                assert status == kernels.status_of(counts, sums, eps, m)
                assert all(b >= bound for b, bound in zip(pair_bins(status, m), low))
                assert all(b >= bound for b, bound in zip(first, low))
            return out, ys_run, counts, sums, status

        for got, want in zip(run([0, *cuts, T]), run([0, T])):
            assert same_bytes(got, want)

    def test_pair_scan_starts_at_the_bound(self, monkeypatch):
        # on the adversarial stream condition B holds on almost every step;
        # scanning each row from its bound reads one or two status codes per
        # pair scan, where a scan from bin 0 reads about six
        reads, scans, scan_reads = [0], [0], [0]
        start, pair = kernels._hedge_start, kernels.hedge_pair

        class CountedStatus(list):
            def __getitem__(self, k):
                reads[0] += 1
                return list.__getitem__(self, k)

        def counted_start(m):
            counts, sums, status, first, low = start(m)
            return counts, sums, CountedStatus(status), first, low

        def counted_pair(*args):
            before = reads[0]
            try:
                return pair(*args)
            finally:
                scans[0] += 1
                scan_reads[0] += reads[0] - before

        monkeypatch.setattr(kernels, "_hedge_start", counted_start)
        monkeypatch.setattr(kernels, "hedge_pair", counted_pair)
        T = 2000
        scores, _, us = stream(12345, T)
        args = (feats_of("platt", scores), us, 0.1, 10, 0.1, 100.0, 100.0, initial_theta(2))
        got = kernels.hops_adversarial_pass(*args)
        assert all(np.array_equal(a, b) for a, b in zip(got, reference_hops_adversarial_pass(*args)))
        assert scans[0] > T // 2
        assert scan_reads[0] <= 3 * scans[0]


def same_bytes(got, want):
    """Equal bytes, so that signed zeros count."""
    return np.asarray(got, dtype=np.float64).tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def same_state(a, b):
    """Two ``OnsState``s with the same theta, A and A_inv bytes."""
    return all(same_bytes(x, y) for x, y in zip((a.theta, a.A, a.A_inv), (b.theta, b.A, b.A_inv)))


def bitwise_symmetric(M, d):
    """The flat or square d x d M equals its transpose byte for byte."""
    M = np.asarray(M, dtype=np.float64).reshape(d, d)
    return same_bytes(M, M.T.copy())


# signed zeros, exact ones and arbitrary values, for features and start
# parameters of the online-Newton step
SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from([1.0, -1.0, 0.5, -0.5]),
                   st.floats(-5.0, 5.0, allow_subnormal=False))


def run_ons(x, ys, theta, A, Ainv, gamma, radius):
    """``kernels.ons_run`` on the given outcomes from the state (theta, A,
    Ainv), which it advances in place; returns the forecasts."""
    probs = kernels._zeros(len(ys))
    kernels.ons_run(x, ys, gamma, radius, theta, A, Ainv, probs)
    return probs


class TestOnsLoopReference:
    """The online-Newton forecast and update, written out per admitted
    width, against the loop form they replaced, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from([2, 3]), data=st.data(), rho=st.sampled_from([1.0, 25.0, 100.0]),
           radius=st.sampled_from([100.0, 1.5, 0.8, 0.3]))
    def test_step_bodies(self, d, data, rho, radius):
        # the residual r = p - y of an outcome y in [0, 1], signed zeros in
        # the features and the start parameters
        theta0 = data.draw(st.lists(SIGNED, min_size=d, max_size=d))
        y = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
        steps = data.draw(st.lists(st.tuples(st.lists(SIGNED, min_size=d, max_size=d), y),
                                   min_size=1, max_size=30))
        config = OnsConfig(dim=d, gamma=0.1, rho=rho, radius=radius)
        state, ref = OnsState.init(config, theta0), reference_ons_state(theta0, rho)
        for feature, y in steps:
            p, state = ons_advance(state, feature, y, config)
            assert same_bytes(p, reference_ons_forecast(ref[0], feature, 0))
            reference_ons_update(*ref, feature, 0, p - y, 0.1, radius)
            assert all(same_bytes(a, b) for a, b in zip((state.theta, state.A.ravel(), state.A_inv.ravel()), ref))

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_gradient_keeps_a_negative_zero(self, d):
        # features of -1 at theta = -0.0 forecast 0.5, so the outcome 0.5
        # gives r = +0.0 and the gradient -0.0; v = +0.0 from sums that start
        # at 0.0, so a -0.0 parameter stays -0.0; the same sums without
        # their 0.0 start give v = -0.0 and turn it into +0.0
        theta0, feature = [-0.0] * d, [-1.0] * d
        config = OnsConfig(dim=d, gamma=0.1, rho=1.0, radius=100.0)
        ref = reference_ons_state(theta0, 1.0)
        p, state = ons_advance(OnsState.init(config, theta0), feature, 0.5, config)
        assert p == 0.5
        reference_ons_update(*ref, feature, 0, p - 0.5, 0.1, 100.0)
        assert same_bytes(state.theta, theta0) and same_bytes(ref[0], theta0)
        assert all(same_bytes(a, b) for a, b in zip((state.theta, state.A.ravel(), state.A_inv.ravel()), ref))

    @settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(family=st.sampled_from(["platt", "beta"]), T=st.integers(1, 300),
           rho=st.sampled_from([1.0, 25.0, 100.0]), radius=st.sampled_from([100.0, 1.5, 0.8]),
           half=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1),
           skew=st.sampled_from([None, "value", "signed_zero"]))
    def test_passes_and_step_replay(self, family, T, rho, radius, half, seed, skew):
        # scores of exactly 0.5 put logit 0 in the Platt feature, so the
        # gradient has a signed-zero component; small radii fire the
        # projection; with skew the step API is given an A_inv that is not
        # symmetric bit for bit, by a value or by a 0.0 / -0.0 pair alone,
        # which the body, reading one triangle, could not replay, so the
        # step rejects it
        scores, ys, us = stream(seed, T)
        scores[np.random.default_rng([seed, 1]).random(T) < half] = 0.5
        feats = feats_of(family, scores)
        d = feats.shape[1]
        theta0 = initial_theta(d)
        ons = (0.1, rho, radius, theta0)
        probs, thetas, A_end, Ainv_end = reference_ons_pass(feats, ys, *ons)
        for got, want in [
            (kernels.ons_pass(feats, ys, *ons), (probs, thetas[-1], A_end, Ainv_end)),
            (kernels.ops_adversarial_pass(feats, *ons), reference_ops_adversarial_pass(feats, *ons)),
            (kernels.hops_adversarial_pass(feats, us, 0.1, 10, *ons),
             reference_hops_adversarial_pass(feats, us, 0.1, 10, *ons)),
        ]:
            assert len(got) == len(want) and all(same_bytes(a, b) for a, b in zip(got, want))
        config = OnsConfig(dim=d, gamma=0.1, rho=rho, radius=radius)
        theta, A, Ainv = reference_ons_state(theta0, rho)
        if skew:
            skewed = list(Ainv)
            if skew == "value":
                skewed[1] += 0.25 / rho
                skewed[d] -= 0.125 / rho
            else:
                skewed[1] = -0.0
            bad = OnsState(theta=np.array(theta), A=np.reshape(A, (d, d)), A_inv=np.reshape(skewed, (d, d)))
            with pytest.raises(ValueError, match="symmetric bit for bit"):
                ons_advance(bad, feats[0], ys[0], config)
        state = OnsState(theta=np.array(theta), A=np.reshape(A, (d, d)), A_inv=np.reshape(Ainv, (d, d)))
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

    @settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(family=st.sampled_from(["platt", "beta"]), T=st.integers(1, 300), data=st.data(),
           rho=st.sampled_from([1.0, 25.0, 100.0]), radius=st.sampled_from([100.0, 1.5, 0.8]),
           seed=st.integers(0, 2**32 - 1))
    def test_resumed_pass_equals_one_pass(self, family, T, data, rho, radius, seed):
        # a pass resumed from the (theta, A, A_inv) another pass ended in
        # continues it byte for byte; small radii fire the projection
        cut = data.draw(st.integers(0, T))
        scores, ys, _ = stream(seed, T)
        feats = feats_of(family, scores)
        d = feats.shape[1]
        theta0 = initial_theta(d)
        one_pass = kernels.ons_pass(feats, ys, 0.1, rho, radius, theta0)
        thetas = reference_ons_pass(feats, ys, 0.1, rho, radius, theta0)[1]
        whole = kernels.ons_init(kernels._flat(theta0), rho)
        run_ons(kernels._flat(feats), kernels._flat(ys), *whole, 0.1, radius)
        state = kernels.ons_init(kernels._flat(theta0), rho)
        first = run_ons(kernels._flat(feats[:cut]), kernels._flat(ys[:cut]), *state, 0.1, radius)
        assert same_bytes(state[0], thetas[cut])
        second = run_ons(kernels._flat(feats[cut:]), kernels._flat(ys[cut:]), *state, 0.1, radius)
        assert same_bytes(first + second, one_pass[0])
        assert all(same_bytes(a, b) for a, b in zip(state, whole))
        assert all(same_bytes(a, b) for a, b in zip(state, one_pass[1:]))


@st.composite
def spd_matrix(draw, d):
    # a flat d x d A = rho I + sum g g^T over a few vectors g of signed
    # zeros, exact and arbitrary values, accumulated as the online-Newton
    # state is: positive definite and symmetric bit for bit
    A = [0.0] * (d * d)
    rho = draw(st.sampled_from([0.5, 1.0, 25.0, 100.0]))
    for i in range(d):
        A[i * d + i] = rho
    for g in draw(st.lists(st.lists(SIGNED, min_size=d, max_size=d), max_size=4)):
        for i in range(d):
            for j in range(d):
                A[i * d + j] += g[i] * g[j]
    return A


class TestProjectionReference:
    """The A-norm projection, array code, against the loop form it
    replaced, byte for byte, with A flat or square and the point a list or
    an array."""

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from([2, 3]), data=st.data())
    def test_point_outside_the_ball(self, d, data):
        A = data.draw(spd_matrix(d))
        theta = data.draw(st.lists(SIGNED, min_size=d, max_size=d).filter(any))
        shrink = data.draw(st.one_of(st.sampled_from([0.5, 0.25]), st.floats(0.01, 0.99)))
        radius = shrink * math.sqrt(sum(v * v for v in theta))
        want = reference_project_anorm(A, theta, radius)
        for A_given in (A, np.reshape(A, (d, d))):
            for theta_given in (list(theta), np.array(theta)):
                assert same_bytes(kernels.project_anorm(A_given, theta_given, radius), want)

    @settings(max_examples=50, deadline=None)
    @given(d=st.sampled_from([2, 3]), data=st.data())
    def test_point_inside_the_ball_is_an_equal_copy(self, d, data):
        # SIGNED values lie in [-5, 5], so every point has norm below 9
        A = data.draw(spd_matrix(d))
        theta = np.array(data.draw(st.lists(SIGNED, min_size=d, max_size=d)))
        got = kernels.project_anorm(A, theta, data.draw(st.sampled_from([9.0, 100.0])))
        assert same_bytes(got, theta) and got is not theta and not np.shares_memory(got, theta)

    @pytest.mark.parametrize("theta", [[-0.0, 1.0], [0.0, -0.0, -1.0]])
    def test_point_on_the_sphere_is_kept(self, theta):
        # the ball is closed: a norm of exactly the radius is inside
        d = len(theta)
        got = kernels.project_anorm(np.eye(d).ravel().tolist(), theta, 1.0)
        assert same_bytes(got, theta) and same_bytes(reference_project_anorm(np.eye(d), theta, 1.0), theta)


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
        for _ in range(10):  # one pass per chunk, state in and out, T = 1e6 in all
            scores = rng.uniform(0.01, 0.99, self.CHUNK)
            ys = (rng.random(self.CHUNK) < np.clip(scores + 0.15, 0, 1)).astype(float)
            run_ons(kernels._flat(feats_of(family, scores)), kernels._flat(ys), theta, A, Ainv,
                    config.gamma, config.radius)
            a, ainv = np.reshape(A, (d, d)), np.reshape(Ainv, (d, d))
            assert np.isfinite(theta).all() and np.isfinite(a).all() and np.isfinite(ainv).all()
            assert np.array_equal(a, a.T) and np.array_equal(ainv, ainv.T)
            assert np.abs(a @ ainv - np.eye(d)).max() < 1e-10


class TestStatusCodeNone:
    """Status code 3.0: a bin whose average is NaN is neither inside, excess
    nor deficit, so it ends no pair."""

    @pytest.mark.parametrize("b", [0, 4, 9])
    def test_nan_average(self, b):
        assert kernels.cell_status(float("nan"), b, 0.1) == 3.0

    def test_nan_sum_leaves_a_row_with_no_hedge(self):
        # row 1: bins 0-8 are excess, bin 9 would be inside but for its NaN
        # sum; no bin is inside and no (excess, deficit) pair is left
        eps, m = 0.1, 10
        counts, sums = [0.0] * (m * m), [0.0] * (m * m)
        for b in range(m):
            counts[m + b], sums[m + b] = 1.0, 0.95
        sums[m + m - 1] = float("nan")
        status = kernels.status_of(counts, sums, eps, m)
        assert status[m:2 * m] == [1.0] * (m - 1) + [3.0]
        with pytest.raises(CalibeatingInvariantError):
            kernels.hops_advance(counts, sums, status, 1, 0.5, 0.5, eps, m, *fresh_indexes(status, m))
        sums[m + m - 1] = 0.95  # a finite average in the last bin is inside
        status = kernels.status_of(counts, sums, eps, m)
        assert kernels.hops_advance(counts, sums, status, 1, 0.5, 0.5, eps, m, *fresh_indexes(status, m)) \
            == (m - 0.5) * eps


def reference_distribution(state, p):
    """The distribution the two-loop reference computes from a
    HopsState's tallies alone, as (support, probs) on the bins' midpoints."""
    scheme = state.scheme
    base = kernels.bin_of(p, scheme.epsilon, scheme.m) * scheme.m
    lo, hi, plo = reference_f99_dist_row(state.counts, state.outcome_sums, base, scheme.epsilon, scheme.m)
    mid = scheme.midpoints()
    if lo == hi:
        return (mid[lo],), (1.0,)
    return (mid[lo], mid[hi]), (plo, 1.0 - plo)


class TestHopsStateStatus:
    # no shrink phase: shrinking a failing replay of up to 300 steps ran
    # for minutes before the test failed
    @settings(max_examples=50, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
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

    @settings(max_examples=50, deadline=None)
    @given(case=scheme_and_stream(max_T=300))
    def test_state_indexes_follow_the_status(self, case):
        # the per-row condition-A index and pair bound a state keeps for the
        # hedging body match a fresh scan after every step, and a state
        # rebuilt from the tallies derives the same index
        scheme, expert, ys, seed = case
        m, draw = scheme.m, np.random.default_rng(seed)
        state = HopsState(scheme)
        for p, y in zip(expert, ys):
            _, state = hops_step(state, p, y, draw)
            assert state.first == condition_a_bins(state.status, m)
            assert all(b >= bound for b, bound in zip(pair_bins(state.status, m), state.low))
        assert HopsState(scheme, state.counts, state.outcome_sums).first == state.first

    def test_status_is_copied_not_shared(self):
        state = HopsState(BinningScheme(0.1))
        before = list(state.status)
        _, successor = hops_step(state, 0.55, 1.0, np.random.default_rng(0))
        assert list(state.status) == before
        assert list(successor.status) != before

    def test_indexes_are_copied_not_shared(self):
        # the step folds 1.0 into bin 0 of row 5, which leaves "inside"
        state = HopsState(BinningScheme(0.1))
        _, successor = hops_step(state, 0.55, 1.0, np.random.default_rng(0))
        assert state.first == [0] * 10 and successor.first[5] == 1
        successor.low[5] = 3
        assert state.low == [0] * 10
