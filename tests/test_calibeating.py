import numpy as np
import pytest
from hypothesis import given, settings
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
from opscal.core import BinningScheme, bins_of
from opscal.metrics import calibration_error, sharpness
from opscal.metrics import hedging_sharpness_slack, tracking_sharpness_slack
from opscal.ons import OnsConfig, OnsState, initial_theta
from opscal.pipeline import run_climatology
from opscal.scalers import online_scaler_step, platt_features

# bin widths BinningScheme accepts, including ones that do not divide 1
ACCEPTED_EPS = [1.0 / k for k in range(1, 26)] + [0.15, 0.35, 0.4]


def scheme10():
    return BinningScheme(0.1)


def f99_state(scheme, counts, sums):
    """A HopsState whose row 0, the covariate-free forecaster, holds the
    given per-bin counts and outcome sums; the other rows are empty."""
    m = scheme.m
    c, s = np.zeros(m * m), np.zeros(m * m)
    c[:m], s[:m] = counts, sums
    return HopsState(scheme, c, s)


def f99_step(state, y, rng):
    """The covariate-free step: hops_step on row 0, at expert 0.0."""
    return hops_step(state, 0.0, y, rng)


def f99_run(ys, scheme, rng):
    """Covariate-free hedging over outcomes: hops_run over an expert in bin 0."""
    return hops_run(np.zeros(len(ys)), ys, scheme, rng)


class FixedUniform:
    """A generator stand-in whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestHedgeDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            HedgeDistribution(support=(0.1, 0.2), probs=(0.7, 0.7))
        with pytest.raises(ValueError):
            HedgeDistribution(support=(0.1, 0.2, 0.3), probs=(0.3, 0.3, 0.4))


class TestTracking:
    def test_empty_bin_returns_midpoint(self):
        st = TrackingState(scheme10())
        # 0.33 falls in [0.3, 0.4) whose midpoint is 0.35
        assert tracking_forecast(st, 0.33) == pytest.approx(0.35)

    def test_bin_history_average(self):
        st = TrackingState(scheme10())
        for y in (1.0, 1.0, 0.0):
            st = tracking_update(st, 0.72, y)
        assert tracking_forecast(st, 0.79) == pytest.approx(2.0 / 3.0)

    def test_reforecasting_above_expert(self):
        st = TrackingState(scheme10())
        # past average 0.85 in the expert's [0.7, 0.8) bin
        for y in (1.0, 1.0, 1.0, 1.0, 0.0) * 4:
            st = tracking_update(st, 0.75, y)
        assert tracking_forecast(st, 0.75) == pytest.approx(0.85, abs=0.051)

    def test_update_increments_only_expert_bin(self):
        st = TrackingState(scheme10())
        st2 = tracking_update(st, 0.75, 1.0)
        assert st2.counts[7] == 1.0 and st2.outcome_sums[7] == 1.0
        others = np.delete(np.arange(10), 7)
        assert np.all(st2.counts[others] == 0.0)
        st3 = tracking_update(st2, 0.72, 0.0)
        assert st3.counts[7] == 2.0 and st3.outcome_sums[7] == 1.0

    def test_run_matches_stepwise(self):
        rng = np.random.default_rng(0)
        expert = rng.random(400)
        ys = (rng.random(400) < expert).astype(float)
        batch = tracking_run(expert, ys, scheme10())
        st = TrackingState(scheme10())
        step = np.zeros(400)
        for t in range(400):
            step[t] = tracking_forecast(st, expert[t])
            st = tracking_update(st, expert[t], ys[t])
        assert np.array_equal(batch, step)


class TestF99:
    def test_fresh_state_forecasts_first_midpoint(self):
        st = HopsState(scheme10())
        dist = st.distribution(0.0)
        assert dist.support == (0.05,)
        assert dist.probs == (1.0,)

    def test_untouched_bins_satisfy_condition_a(self):
        # any bin initialized at its midpoint is inside [l_b, r_b]
        chosen, st = f99_step(HopsState(scheme10()), 1.0, np.random.default_rng(0))
        assert chosen == 0.05  # p_1 = 1 now; bin 2 untouched
        dist = st.distribution(0.0)
        assert len(dist.support) == 1
        assert dist.support[0] == pytest.approx(0.15, abs=1e-12)

    def test_hand_built_hedge_case(self):
        # no bin satisfies condition A; bins 3/4 are the smallest
        # (excess, deficit) pair: p_3 = 0.35 (e=0.05), p_4 = 0.25 (d=0.05)
        averages = [0.15, 0.25, 0.35, 0.25, 0.55, 0.65, 0.75, 0.85, 0.95, 0.8]
        st = f99_state(scheme10(), 1.0, averages)
        dist = st.distribution(0.0)
        assert dist.support == (pytest.approx(0.25), pytest.approx(0.35))
        assert dist.probs[0] == pytest.approx(0.5)
        assert dist.probs[1] == pytest.approx(0.5)

    def test_update_examples(self):
        _, st = f99_step(HopsState(scheme10()), 1.0, np.random.default_rng(0))
        # the fresh state forecasts bin 1, so p_1 = 1: deficit 0.0 - 1 < 0, excess 1 - 0.1 > 0
        assert st.counts[0] == 1.0 and st.outcome_sums[0] == 1.0
        assert st.status[0] == 1.0  # the excess code

    def test_update_running_mean(self):
        # bins 1-3 average 1, above their bins, so bin 4 (mean 1/3) is the
        # smallest inside bin and the step forecasts it
        counts, sums = np.zeros(10), np.zeros(10)
        counts[:4], sums[:4] = 3.0, (3.0, 3.0, 3.0, 1.0)
        chosen, st = f99_step(f99_state(scheme10(), counts, sums), 1.0, np.random.default_rng(0))
        assert chosen == pytest.approx(0.35)
        assert st.outcome_sums[3] / st.counts[3] == pytest.approx(0.5)

    def test_update_isolation(self):
        # a step changes the tallies of the drawn bin of row 0 alone
        rng = np.random.default_rng(5)
        st = HopsState(scheme10())
        for y in (rng.random(200) < 0.6).astype(float):
            before = st.counts.copy(), st.outcome_sums.copy()
            chosen, st = f99_step(st, y, rng)
            mask = np.arange(100) != bins_of(chosen, 0.1, 10)
            assert st.counts[~mask] == before[0][~mask] + 1.0
            assert all(np.array_equal(a[mask], b[mask]) for a, b in zip((st.counts, st.outcome_sums), before))

    @pytest.mark.parametrize("u, want", [(np.nextafter(0.5, 0.0), 0.125), (0.5, 0.375)], ids=["below", "at"])
    def test_draw_is_the_lower_point_iff_u_is_below_its_probability(self, u, want):
        # bins 1/2 are the smallest (excess, deficit) pair, e_1 = d_2 = 1/8,
        # so the lower point has probability 1/2 exactly; u == 1/2 draws the
        # upper one
        st = f99_state(BinningScheme(0.25), 8.0, [3.0, 1.0, 8.0, 4.0])
        assert st.distribution(0.0) == HedgeDistribution(support=(0.125, 0.375), probs=(0.5, 0.5))
        assert f99_step(st, 1.0, FixedUniform(u))[0] == want

    def test_invariant_violation_raises(self):
        # corrupted tallies: every observed average above its right endpoint,
        # so no condition-A bin and no deficit to pair for condition B; no
        # stream of outcomes in [0, 1] produces them, so the state rejects them
        with pytest.raises(ValueError, match="outcome_sums <= counts"):
            f99_state(scheme10(), 1.0, (np.arange(10) + 1.0) * 0.1 + 0.5)

    def test_kernel_step_raises_the_same_invariant_error(self):
        # the whole-stream passes and the step APIs share one error type
        counts, sums = np.zeros(100), np.zeros(100)
        counts[:10], sums[:10] = 1.0, (np.arange(10) + 1.0) * 0.1 + 0.5
        status = kernels.status_of(counts, sums, 0.1, 10)
        first, low = [10] + [0] * 9, [0] * 10  # row 0 has no inside bin, the others are empty
        with pytest.raises(CalibeatingInvariantError):
            kernels.hops_advance(counts, sums, status, 0, 1.0, 0.5, 0.1, 10, first, low)

    def test_forecast_consumes_one_uniform(self):
        st = HopsState(scheme10())
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        chosen, _ = f99_step(st, 1.0, rng1)
        assert chosen == 0.05
        rng2.random()
        # both generators advanced equally
        assert rng1.random() == rng2.random()

    def test_distribution_probs_valid_over_random_runs(self):
        rng = np.random.default_rng(11)
        st = HopsState(scheme10())
        for _ in range(500):
            dist = st.distribution(0.0)
            assert all(p >= 0.0 for p in dist.probs)
            assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)
            _, st = f99_step(st, float(rng.integers(0, 2)), rng)


class TestHops:
    def test_single_bin_expert_equals_standalone_f99(self):
        rng = np.random.default_rng(3)
        ys = (rng.random(300) < 0.4).astype(float)
        expert = np.full(300, 0.42)  # always bin 5
        h = hops_run(expert, ys, scheme10(), np.random.default_rng(9))
        f = f99_run(ys, scheme10(), np.random.default_rng(9))
        assert np.array_equal(h, f)

    def test_two_bin_partition(self):
        rng = np.random.default_rng(4)
        ys = (rng.random(400) < 0.5).astype(float)
        expert = np.where(np.arange(400) % 2 == 0, 0.25, 0.75)
        h = hops_run(expert, ys, scheme10(), np.random.default_rng(5))
        # each instance sees its own outcome subsequence: replaying the even
        # steps alone with the same uniforms reproduces the even forecasts
        us = np.random.default_rng(5).random(400)
        even = np.arange(400) % 2 == 0
        from opscal import kernels

        h_even = kernels.hops_pass(
            np.full(200, 0.25), ys[even], np.ascontiguousarray(us[even]), 0.1, 10
        )
        assert np.array_equal(h[even], h_even)

    def test_stepwise_matches_batched(self):
        rng = np.random.default_rng(6)
        expert = rng.random(300)
        ys = (rng.random(300) < expert).astype(float)
        batch = hops_run(expert, ys, scheme10(), np.random.default_rng(8))
        st = HopsState(scheme10())
        draw = np.random.default_rng(8)
        step = np.zeros(300)
        for t in range(300):
            step[t], st = hops_step(st, expert[t], ys[t], draw)
        assert np.array_equal(batch, step)

    def test_distribution_resolves_to_the_step_draw(self):
        # the announced distribution of the routed forecaster, resolved with
        # the step's own uniform, is the forecast hops_step draws
        def resolve(dist, u):  # the lower point with probability probs[0]
            return dist.support[0] if len(dist.support) == 1 or u < dist.probs[0] else dist.support[1]

        rng = np.random.default_rng(13)
        expert = rng.random(300)
        ys = (rng.random(300) < expert).astype(float)
        us = np.random.default_rng(14).random(300)
        draw = np.random.default_rng(14)
        st = HopsState(scheme10())
        for t in range(300):
            dist = st.distribution(expert[t])
            chosen, st = hops_step(st, expert[t], ys[t], draw)
            assert resolve(dist, us[t]) == chosen

    def test_seeded_replay_is_bit_identical(self):
        rng = np.random.default_rng(10)
        expert = rng.random(500)
        ys = (rng.random(500) < 0.5).astype(float)
        a = hops_run(expert, ys, scheme10(), np.random.default_rng(123))
        b = hops_run(expert, ys, scheme10(), np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_forecasts_are_midpoints(self):
        rng = np.random.default_rng(12)
        expert = rng.random(400)
        ys = (rng.random(400) < expert).astype(float)
        h = hops_run(expert, ys, scheme10(), np.random.default_rng(1))
        mids = scheme10().midpoints()
        assert np.all(np.isin(h, mids))


class TestClimatology:
    def test_constant_ones_converges_to_top_midpoint(self):
        f = f99_run(np.ones(2000), scheme10(), np.random.default_rng(0))
        assert float(np.mean(f[-200:])) == pytest.approx(0.95, abs=1e-9)

    def test_bernoulli_stream_tracks_base_rate(self):
        rng = np.random.default_rng(42)
        ys = (rng.random(5000) < 0.37).astype(float)
        f = f99_run(ys, scheme10(), np.random.default_rng(1))
        assert abs(float(np.mean(f[-1000:])) - 0.37) <= 0.05

    def test_alternating_stream_settles_near_half(self):
        ys = np.tile([0.0, 1.0], 2500)
        f = f99_run(ys, scheme10(), np.random.default_rng(2))
        assert abs(float(np.mean(f[-1000:])) - 0.5) <= 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="T must be >= 1"):
            run_climatology(T=0)


class TestCalibeatingGuarantees:
    def _expert_stream(self, seed, T=4000):
        rng = np.random.default_rng(seed)
        from opscal.scalers import online_scaler_run

        scores = rng.uniform(0.01, 0.99, T)
        truth = np.clip(scores + 0.15 * np.sin(np.arange(T) / 200.0), 0.01, 0.99)
        ys = (rng.random(T) < truth).astype(float)
        expert, _ = online_scaler_run(scores, ys, "platt")
        return expert, ys

    def test_tracking_sharpness_bound_per_run(self):
        # deterministic per-run guarantee, all three tested bin widths
        for eps in (0.05, 0.1, 0.2):
            scheme = BinningScheme(eps)
            for seed in range(3):
                expert, ys = self._expert_stream(seed)
                tracked = tracking_run(expert, ys, scheme)
                T = len(ys)
                lhs = sharpness(tracked, ys, scheme)
                rhs = sharpness(expert, ys, scheme) - tracking_sharpness_slack(eps, T)
                assert lhs >= rhs - 1e-12

    def test_hedging_sharpness_bound_in_expectation(self):
        eps = 0.1
        scheme = BinningScheme(eps)
        expert, ys = self._expert_stream(100)
        T = len(ys)
        gaps = []
        for seed in range(40):
            hedged = hops_run(expert, ys, scheme, np.random.default_rng(seed))
            gaps.append(sharpness(hedged, ys, scheme))
        mean_shp = float(np.mean(gaps))
        bound = sharpness(expert, ys, scheme) - hedging_sharpness_slack(eps, T)
        assert mean_shp >= bound - 0.01

    def test_hedged_forecasts_calibrated_on_hostile_stream(self):
        # outcomes always opposite in sign to the expert keep the expert
        # miscalibrated; hedging still reaches low CE
        scheme = BinningScheme(0.1)
        rng = np.random.default_rng(0)
        expert = rng.uniform(0.6, 0.9, 6000)
        ys = np.zeros(6000)
        ces = []
        for seed in range(10):
            h = hops_run(expert, ys, scheme, np.random.default_rng(seed))
            ces.append(calibration_error(h, ys, scheme))
        assert float(np.mean(ces)) <= 0.1
        assert calibration_error(expert, ys, scheme) >= 0.6


@st.composite
def scheme_and_stream(draw, max_T=200):
    """A bin width, an expert column mixing exact 0, 1, bin edges and
    arbitrary values, and an arbitrary outcome sequence."""
    scheme = BinningScheme(draw(st.sampled_from(ACCEPTED_EPS)))
    T = draw(st.integers(1, max_T))
    edges = st.integers(0, scheme.m).map(lambda b: min(b * scheme.epsilon, 1.0))
    point = st.one_of(st.sampled_from([0.0, 1.0]), edges, st.floats(0.0, 1.0))
    expert = np.array(draw(st.lists(point, min_size=T, max_size=T)))
    ys = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=T, max_size=T)))
    return scheme, expert, ys, draw(st.integers(0, 2**32 - 1))


class TestForecastRange:
    """Every accepted bin width keeps tracking and hedging inside [0, 1]."""

    @settings(max_examples=150, deadline=None)
    @given(case=scheme_and_stream())
    def test_tracked_and_hedged_forecasts(self, case):
        scheme, expert, ys, seed = case
        tracked = tracking_run(expert, ys, scheme)
        hedged = hops_run(expert, ys, scheme, np.random.default_rng(seed))
        assert np.all((tracked >= 0.0) & (tracked <= 1.0))
        assert np.all((hedged >= 0.0) & (hedged <= 1.0))
        assert np.all(np.isin(hedged, scheme.midpoints()))

    @settings(max_examples=100, deadline=None)
    @given(case=scheme_and_stream(max_T=300))
    def test_adversarial_hedging_keeps_condition_a_or_b(self, case):
        # the adversary answers every announced distribution; the kernel
        # raises if neither condition A nor condition B holds
        scheme, scores, _, seed = case
        us = np.random.default_rng(seed).random(len(scores))
        pc = OnsConfig.platt()
        _, hops, ys = kernels.hops_adversarial_pass(
            platt_features(scores), us, scheme.epsilon, scheme.m, pc.gamma, pc.rho, pc.radius, initial_theta(2))
        assert np.all(np.isin(hops, scheme.midpoints()))
        assert set(np.unique(ys)) <= {0.0, 1.0}


NAN = float("nan")
OUT_OF_RANGE = r"must lie in \[0, 1\]"


class TestProbabilityRange:
    """One unit-interval check guards every entry that routes a forecast."""

    @pytest.mark.parametrize("call", [
        lambda: bins_of(NAN, 0.1, 10),
        lambda: calibration_error(np.array([0.2, NAN]), np.array([0.0, 1.0]), scheme10()),
        lambda: tracking_forecast(TrackingState(scheme10()), NAN),
        lambda: tracking_update(TrackingState(scheme10()), NAN, 1.0),
        lambda: hops_step(HopsState(scheme10()), NAN, 1.0, np.random.default_rng(0)),
    ], ids=["bin_index", "calibration_error", "tracking_forecast", "tracking_update", "hops_step"])
    def test_nan_rejected(self, call):
        with pytest.raises(ValueError, match=OUT_OF_RANGE):
            call()

    @pytest.mark.parametrize("bad", [-0.05, 1.5, NAN])
    @pytest.mark.parametrize("run", [
        lambda expert, ys: tracking_run(expert, ys, scheme10()),
        lambda expert, ys: hops_run(expert, ys, scheme10(), np.random.default_rng(0)),
    ], ids=["tracking_run", "hops_run"])
    def test_runs_reject_expert_outside_unit_interval(self, run, bad):
        # -0.05 used to wrap to the last bin, 1.5 to be clamped into it
        with pytest.raises(ValueError, match=OUT_OF_RANGE):
            run(np.array([0.95, 0.95, bad, bad]), np.array([1.0, 1.0, 0.0, 1.0]))


class TestOutcomeRange:
    """Outcomes entering tracking and hedging must lie in [0, 1]: one
    outside it, or NaN, would be folded into a bin's average for good."""

    @pytest.mark.parametrize("bad", [-0.5, 3.0, NAN])
    @pytest.mark.parametrize("call", [
        lambda y: tracking_update(TrackingState(scheme10()), 0.55, y),
        lambda y: f99_step(HopsState(scheme10()), y, np.random.default_rng(0)),
        lambda y: hops_step(HopsState(scheme10()), 0.55, y, np.random.default_rng(0)),
    ], ids=["tracking_update", "f99_step", "hops_step"])
    def test_steps_reject(self, call, bad):
        with pytest.raises(ValueError, match=r"outcomes must lie in \[0, 1\]"):
            call(bad)

    @pytest.mark.parametrize("bad", [-0.5, 5.0, NAN])
    @pytest.mark.parametrize("run", [
        lambda ys: tracking_run(np.full(len(ys), 0.55), ys, scheme10()),
        lambda ys: hops_run(np.full(len(ys), 0.55), ys, scheme10(), np.random.default_rng(0)),
        lambda ys: f99_run(ys, scheme10(), np.random.default_rng(0)),
    ], ids=["tracking_run", "hops_run", "f99_run"])
    def test_runs_reject(self, run, bad):
        with pytest.raises(ValueError, match=r"outcomes must lie in \[0, 1\]"):
            run(np.array([1.0, 0.0, bad, 1.0]))

    @pytest.mark.parametrize("run", [
        lambda expert, ys: tracking_run(expert, ys, scheme10()),
        lambda expert, ys: hops_run(expert, ys, scheme10(), np.random.default_rng(0)),
    ], ids=["tracking_run", "hops_run"])
    def test_runs_reject_unequal_lengths(self, run):
        with pytest.raises(ValueError, match="equal length"):
            run(np.full(4, 0.55), np.array([1.0, 0.0, 1.0]))

    def test_fractional_outcomes_accepted(self):
        # the rule is [0, 1], not {0, 1}: a fractional outcome is an average
        state = tracking_update(TrackingState(scheme10()), 0.55, 0.25)
        assert tracking_forecast(state, 0.55) == 0.25
        assert tracking_run([0.55, 0.55], [0.25, 1.0], scheme10()).tolist() == [0.55, 0.25]


@pytest.mark.parametrize("make, n, shapes", [
    (TrackingState, 10, [(9,), (11,), (10, 10), ()]),
    (HopsState, 100, [(10,), (99,), (10, 10), ()]),
], ids=["TrackingState", "HopsState"])
def test_malformed_tallies_rejected(make, n, shapes):
    # a wrong length used to pass construction and end in an IndexError
    # inside a later step
    for shape in shapes:
        for args in ((np.ones(shape), np.zeros(n)), (np.zeros(n), np.ones(shape))):
            with pytest.raises(ValueError, match=f"must be 1-D of length {n},"):
                make(scheme10(), *args)


@pytest.mark.parametrize("make, n", [(TrackingState, 10), (HopsState, 100)], ids=["TrackingState", "HopsState"])
@pytest.mark.parametrize("count, total", [(-1.0, 0.0), (1.0, 5.0), (1.0, NAN), (NAN, 0.0), (np.inf, 1.0)],
                         ids=["negative-count", "sum-above-count", "nan-sum", "nan-count", "inf-count"])
def test_impossible_tallies_rejected(make, n, count, total):
    # tallies no stream of outcomes in [0, 1] produces: tracking would
    # forecast a sum of 5 over one step as 5.0
    counts, sums = np.ones(n), np.full(n, 0.5)
    counts[3], sums[3] = count, total
    with pytest.raises(ValueError, match="tallies must be finite"):
        make(scheme10(), counts, sums)


class TestGivenTallies:
    """A state keeps float copies of given tallies: an integer tally takes
    a fractional outcome, and the caller's arrays are not aliased."""

    def test_integer_tracking_tallies_take_a_fractional_outcome(self):
        state = TrackingState(scheme10(), np.zeros(10, int), np.zeros(10, int))
        state = tracking_update(state, 0.55, 0.5)
        assert state.outcome_sums[5] == 0.5
        assert tracking_forecast(state, 0.55) == 0.5

    def test_integer_hedging_tallies_take_a_fractional_outcome(self):
        got = hops_step(HopsState(scheme10(), np.zeros(100, int), np.zeros(100, int)), 0.55, 0.7,
                        np.random.default_rng(0))
        want = hops_step(HopsState(scheme10()), 0.55, 0.7, np.random.default_rng(0))
        assert got[0] == want[0] and got[1].outcome_sums.sum() == 0.7
        for a, b in zip(_arrays(got[1]), _arrays(want[1])):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("make, n", [(TrackingState, 10), (HopsState, 100)],
                             ids=["TrackingState", "HopsState"])
    def test_given_arrays_not_aliased(self, make, n):
        counts, sums = np.zeros(n), np.zeros(n)
        state = make(scheme10(), counts, sums)
        counts[5], sums[5] = 4.0, 1.0
        assert not np.shares_memory(state.counts, counts) and not np.shares_memory(state.outcome_sums, sums)
        assert state.counts[5] == 0.0 and state.outcome_sums[5] == 0.0


def _arrays(state):
    if isinstance(state, OnsState):
        return [state.theta, state.A, state.A_inv]
    if isinstance(state, HopsState):
        return [state.counts, state.outcome_sums, state.status]
    return [state.counts, state.outcome_sums]


class TestStepsLeaveStateUntouched:
    """Every step API returns a successor state and leaves its input as it
    was; the replay tests cannot see this, as they rebind the state."""

    @pytest.mark.parametrize("make, step", [
        (lambda: TrackingState(scheme10()), lambda st, p, y, rng: tracking_update(st, p, y)),
        (lambda: HopsState(scheme10()), lambda st, p, y, rng: hops_step(st, p, y, rng)[1]),
        (lambda: OnsState.init(OnsConfig.platt()), lambda st, p, y, rng: online_scaler_step(st, p, y, "platt")[1]),
    ], ids=["tracking_update", "hops_step", "online_scaler_step"])
    def test_input_state_unchanged(self, make, step):
        rng = np.random.default_rng(0)
        state = make()
        for p, y in zip(rng.random(50), (rng.random(50) < 0.5).astype(float)):
            before = [a.copy() for a in _arrays(state)]
            successor = step(state, p, y, rng)
            assert all(np.array_equal(a, b) for a, b in zip(_arrays(state), before))
            state = successor


@pytest.mark.parametrize("make", [
    lambda: TrackingState(scheme10()),
    lambda: HopsState(scheme10()),
    lambda: OnsState.init(OnsConfig.platt()),
], ids=["TrackingState", "HopsState", "OnsState"])
def test_states_compare_by_identity(make):
    # the states hold numpy arrays, so a field-wise == would ask an array
    # for its truth value; they compare by identity instead
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a]
