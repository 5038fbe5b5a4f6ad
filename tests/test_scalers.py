import math
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opscal import scalers
from opscal.core import clip_score, log_loss, logit, sigmoid
from opscal.datagen import covmulti_at
from opscal.ons import OnsConfig, OnsState, initial_theta, ons_advance
from opscal.scalers import (
    HistogramBinningModel,
    _renorm_to_ball,
    beta_apply,
    beta_features,
    fit_beta_batch,
    fit_histogram_binning,
    fit_platt_batch,
    newton_logistic,
    online_scaler_run,
    online_scaler_step,
    platt_apply,
    platt_features,
    windowed_run,
)


def platt_loss(a, b, scores, y):
    return float(np.mean(log_loss(sigmoid(a * logit(scores) + b), y)))


class TestPlattApply:
    def test_identity_map(self):
        assert platt_apply((1.0, 0.0), 0.73) == pytest.approx(0.73, abs=1e-12)

    def test_degenerate_slope_is_constant(self):
        for s in (0.05, 0.4, 0.9):
            assert platt_apply((0.0, 1.3), s) == pytest.approx(sigmoid(1.3), abs=1e-15)

    def test_sign_flip(self):
        assert platt_apply((-1.0, 0.0), 0.8) == pytest.approx(0.2, abs=1e-12)

    def test_monotonicity(self):
        grid = np.linspace(0.01, 0.99, 99)
        up = platt_apply((0.7, 0.1), grid)
        down = platt_apply((-0.7, 0.1), grid)
        flat = platt_apply((0.0, 0.1), grid)
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) < 0)
        assert np.allclose(np.diff(flat), 0.0)


class TestBetaApply:
    def test_negated_pair_recovers_platt(self):
        grid = np.linspace(0.01, 0.99, 99)
        for a, c in ((0.5, 0.2), (2.0, -1.0), (1.0, 0.0)):
            bp = beta_apply((a, -a, c), grid)
            pp = platt_apply((a, c), grid)
            assert np.max(np.abs(bp - pp)) <= 1e-12

    def test_identity(self):
        assert beta_apply((1.0, -1.0, 0.0), 0.73) == pytest.approx(0.73, abs=1e-12)

    def test_direct_evaluation(self):
        # sigmoid(2 log .5 - log .5) = sigmoid(log .5) = 1/3
        assert beta_apply((2.0, -1.0, 0.0), 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)


CLIP_POINTS = [0.0, 0.005, 0.995, 1.0]
param = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 2.0))
score_lists = st.lists(st.one_of(st.sampled_from(CLIP_POINTS), st.floats(0.0, 1.0)), min_size=1, max_size=40)


def closed_form(family, p, score):
    """The apply formulas written out: sigmoid(a logit s + b) and
    sigmoid(a log s + b log(1-s) + c) over the clipped score."""
    if family == "platt":
        return sigmoid(p[0] * logit(score) + p[1])
    s = clip_score(score)
    return sigmoid(p[0] * np.log(s) + p[1] * np.log(1.0 - s) + p[2])


class TestApplyBitwise:
    """platt_apply and beta_apply equal their closed forms bit for bit, on
    arrays and on Python-float scores, the clip points included."""

    @settings(max_examples=150, deadline=None)
    @given(p=st.lists(param, min_size=3, max_size=3), scores=score_lists)
    @example(p=[1.0, -1.0, 0.0], scores=[*CLIP_POINTS, 0.5])
    @example(p=[1e2, -1e-3, 1e2], scores=CLIP_POINTS)
    def test_equals_closed_form(self, p, scores):
        for family, apply, params in (("platt", platt_apply, p[:2]), ("beta", beta_apply, p)):
            got, want = apply(params, np.array(scores)), closed_form(family, params, np.array(scores))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for s in scores:
                got, want = apply(params, s), closed_form(family, params, s)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestFitPlattBatch:
    def test_symmetric_dataset_gives_zero_params(self):
        scores = np.array([0.3, 0.3, 0.7, 0.7])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fit = fit_platt_batch(scores, y)
        assert abs(fit[0]) <= 1e-6 and abs(fit[1]) <= 1e-6

    def test_beats_grid_oracle(self):
        rng = np.random.default_rng(21)
        grid = np.linspace(-5.0, 5.0, 41)
        for _ in range(20):
            n = int(rng.integers(30, 200))
            scores = rng.uniform(0.01, 0.99, size=n)
            truth_ab = rng.normal(size=2)
            y = (rng.random(n) < platt_apply(truth_ab, scores)).astype(float)
            fit = fit_platt_batch(scores, y)
            fit_loss = platt_loss(fit[0], fit[1], scores, y)
            grid_min = min(platt_loss(a, b, scores, y) for a in grid for b in grid)
            assert fit_loss <= grid_min + 1e-9
            assert fit_loss <= platt_loss(1.0, 0.0, scores, y) + 1e-12

    def test_generative_recovery(self):
        rng = np.random.default_rng(22)
        scores = rng.uniform(0.01, 0.99, size=50_000)
        y = (rng.random(50_000) < platt_apply((2.0, -1.0), scores)).astype(float)
        fit = fit_platt_batch(scores, y)
        assert fit[0] == pytest.approx(2.0, abs=0.1)
        assert fit[1] == pytest.approx(-1.0, abs=0.1)

    def test_separable_data_pins_to_ball_boundary(self):
        scores = np.array([0.2] * 10 + [0.8] * 10)
        y = np.array([0.0] * 10 + [1.0] * 10)
        fit = fit_platt_batch(scores, y)
        assert np.linalg.norm(fit) == pytest.approx(100.0, abs=1e-9)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_platt_batch(np.array([]), np.array([]))

    def test_single_label_boundary_solution(self):
        fit = fit_platt_batch(np.array([0.4, 0.6]), np.array([1.0, 1.0]))
        assert np.linalg.norm(fit) <= 100.0 + 1e-9
        # predictions saturate toward 1
        assert platt_apply(fit, 0.5) > 0.99


class TestFitBetaBatch:
    def test_symmetric_dataset_predicts_half(self):
        scores = np.array([0.3, 0.3, 0.7, 0.7])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fit = fit_beta_batch(scores, y)
        assert beta_apply(fit, 0.3) == pytest.approx(0.5, abs=1e-6)
        assert beta_apply(fit, 0.7) == pytest.approx(0.5, abs=1e-6)

    def test_generative_recovery(self):
        rng = np.random.default_rng(23)
        scores = rng.uniform(0.01, 0.99, size=50_000)
        y = (rng.random(50_000) < beta_apply((1.5, -0.5, 0.2), scores)).astype(float)
        fit = fit_beta_batch(scores, y)
        assert fit[0] == pytest.approx(1.5, abs=0.15)
        assert fit[1] == pytest.approx(-0.5, abs=0.15)
        assert fit[2] == pytest.approx(0.2, abs=0.15)

    def test_single_score_reduces_to_intercept(self):
        rng = np.random.default_rng(24)
        y = (rng.random(500) < 0.3).astype(float)
        fit = fit_beta_batch(np.full(500, 0.5), y)
        assert beta_apply(fit, 0.5) == pytest.approx(float(np.mean(y)), abs=1e-6)


class TestHistogramBinning:
    def test_pure_bins(self):
        scores = np.linspace(0.01, 0.99, 40)
        y = (scores > 0.5).astype(float)
        model = fit_histogram_binning(scores, y, m=4)
        assert model.predict(0.1) == 0.0
        assert model.predict(0.9) == 1.0

    def test_all_zero_labels(self):
        scores = np.linspace(0.01, 0.99, 30)
        model = fit_histogram_binning(scores, np.zeros(30), m=5)
        assert np.allclose(model.predict(scores), 0.0)

    def test_two_bin_hand_case(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_histogram_binning(scores, y, m=2)
        assert 0.2 <= model.boundaries[1] <= 0.8
        assert model.predict(0.15) == 0.0
        assert model.predict(0.85) == 1.0

    def test_training_residuals_interpolate(self):
        rng = np.random.default_rng(25)
        scores = rng.uniform(0.01, 0.99, 500)
        y = (rng.random(500) < scores).astype(float)
        model = fit_histogram_binning(scores, y, m=10)
        idx = np.clip(np.searchsorted(model.boundaries, scores, side="right") - 1, 0, 9)
        for b in range(10):
            mask = idx == b
            if mask.any():
                assert float(np.mean(y[mask] - model.predict(scores[mask]))) == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_histogram_binning(np.array([0.5]), np.array([1.0]), m=2)

    @pytest.mark.parametrize("score", [np.nan, -3.0, 1.5, np.array([0.5, np.inf])],
                             ids=["nan", "negative", "above-one", "array-with-inf"])
    def test_predict_rejects_scores_outside_unit(self, score):
        scores = np.linspace(0.1, 0.9, 20)
        model = fit_histogram_binning(scores, (scores > 0.5).astype(float), m=4)
        with pytest.raises(ValueError, match="must lie in"):
            model.predict(score)

    @pytest.mark.parametrize("boundaries, predictions, message", [
        ([0.0, 0.5, 1.0], [2.0, -1.0], r"predictions must lie in \[0, 1\]"),
        ([0.0, 0.5, 1.0], [0.2, np.nan], r"predictions must lie in \[0, 1\]"),
        ([0.0, 1.0], [0.2, 0.4], "one more boundary"),
        ([0.0, 0.5, 0.7, 1.0], [0.2, 0.4], "one more boundary"),
        ([0.1, 0.5, 1.0], [0.2, 0.4], "from 0 to 1"),
        ([0.0, 0.5, 0.9], [0.2, 0.4], "from 0 to 1"),
        ([0.0, 0.6, 0.4, 1.0], [0.2, 0.4, 0.6], "nondecreasing"),
    ], ids=["predictions-outside", "nan-prediction", "too-few-boundaries", "too-many-boundaries",
            "starts-above-0", "ends-below-1", "decreasing"])
    def test_model_rejects_malformed_arrays(self, boundaries, predictions, message):
        # predict returns a stored prediction as the forecast, so it must lie in [0, 1]
        with pytest.raises(ValueError, match=message):
            HistogramBinningModel(np.array(boundaries), np.array(predictions))


def reference_windowed_column(fit, apply, params, t_cal, window, scores, ys):
    """The windowed rule one step at a time, written without refit_times:
    for t = t_cal+1 .. T, refit on the prefix s <= t-1 when
    (t - t_cal) % window == 0, then forecast t with the parameters in force.
    Returns (forecasts, refit steps)."""
    forecasts, refits = [], []
    for t in range(t_cal + 1, len(scores) + 1):
        if (t - t_cal) % window == 0:
            params = fit(scores[: t - 1], ys[: t - 1])
            refits.append(t)
        forecasts.append(apply(params, scores[t - 1]))
    return forecasts, refits


def recording(fit, apply):
    """``fit`` and ``apply`` wrapped to log each refit step (the prefix
    length plus one) with its parameters, and each apply call's parameters
    and segment length."""
    fits, applies = [], []

    def recording_fit(s, ys):
        params = fit(s, ys)
        fits.append((len(s) + 1, params))
        return params

    def recording_apply(params, s):
        applies.append((params, len(s)))
        return apply(params, s)

    return recording_fit, recording_apply, fits, applies


class TestWindowedLearner:
    def _stream(self, rng, T):
        scores = rng.uniform(0.01, 0.99, size=T)
        y = (rng.random(T) < platt_apply((1.4, 0.3), scores)).astype(float)
        return scores, y

    def test_never_refitting_equals_fixed(self):
        rng = np.random.default_rng(31)
        scores, y = self._stream(rng, 240)
        t_cal = 40
        fps = fit_platt_batch(scores[:t_cal], y[:t_cal])
        fit, apply, fits, _ = recording(fit_platt_batch, platt_apply)
        col = windowed_run(fit, apply, fps, t_cal, 10**9, scores, y)
        assert col == pytest.approx(platt_apply(fps, scores[t_cal:]), abs=1e-12)
        assert fits == []

    def test_window_one_is_follow_the_leader(self):
        rng = np.random.default_rng(32)
        scores, y = self._stream(rng, 200)
        t_cal = 20
        col = windowed_run(fit_platt_batch, platt_apply, fit_platt_batch(scores[:t_cal], y[:t_cal]),
                           t_cal, 1, scores, y)
        for t in range(t_cal + 1, 201):
            ftl = platt_apply(fit_platt_batch(scores[: t - 1], y[: t - 1]), scores[t - 1])
            assert col[t - t_cal - 1] == pytest.approx(ftl, abs=1e-6)

    def test_params_piecewise_constant(self):
        # each segment between refits is forecast by the parameters of the
        # fit that opened it, in one apply call
        rng = np.random.default_rng(33)
        scores, y = self._stream(rng, 300)
        t_cal, W = 50, 40
        init = fit_platt_batch(scores[:t_cal], y[:t_cal])
        fit, apply, fits, applies = recording(fit_platt_batch, platt_apply)
        windowed_run(fit, apply, init, t_cal, W, scores, y)
        steps = [t for t, _ in fits]
        assert steps == [t for t in range(t_cal + 1, 301) if (t - t_cal) % W == 0]
        in_force = [init, *(params for _, params in fits)]
        assert len(applies) == len(in_force) and all(a is b for (a, _), b in zip(applies, in_force))
        assert [n for _, n in applies] == [hi - lo for lo, hi in pairwise([t_cal + 1, *steps, 301])]

    def test_single_refit_at_horizon_reproduces_fixed_column(self):
        # W = T - t_cal puts the one refit at the last step T
        rng = np.random.default_rng(34)
        T = 120
        scores, y = self._stream(rng, T)
        t_cal = 30
        fps = fit_platt_batch(scores[:t_cal], y[:t_cal])
        fit, apply, fits, _ = recording(fit_platt_batch, platt_apply)
        col = windowed_run(fit, apply, fps, t_cal, T - t_cal, scores, y)
        assert [t for t, _ in fits] == [T]
        assert col[:-1].tobytes() == platt_apply(fps, scores[t_cal : T - 1]).tobytes()
        assert col[-1] == platt_apply(fit_platt_batch(scores[: T - 1], y[: T - 1]), scores[T - 1])

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"window": 0}, "window must be >= 1", id="kwargs0-window must be >= 1"),
        pytest.param({"t_cal": -1}, r"t_cal must lie in \[0", id="kwargs3-t_cal must be >= 0"),
    ])
    def test_rejects_nonpositive_window_or_bins(self, kwargs, message):
        # checked before any fit or forecast
        fit, apply, fits, applies = recording(fit_platt_batch, platt_apply)
        with pytest.raises(ValueError, match=message):
            windowed_run(fit, apply, (1.0, 0.0), **{"t_cal": 20, "window": 10, **kwargs},
                         scores=np.full(40, 0.5), ys=np.zeros(40))
        assert fits == applies == []


FIT_APPLY = {
    "platt": (fit_platt_batch, platt_apply),
    "beta": (fit_beta_batch, beta_apply),
    "hb": (lambda s, y: fit_histogram_binning(s, y, 10), lambda model, s: model.predict(s)),
}


@st.composite
def windowed_cases(draw):
    """(family, T, t_cal, W, seed) with W = 1, W not dividing T - t_cal, or
    W >= T - t_cal."""
    T = draw(st.integers(40, 160))
    t_cal = draw(st.integers(10, T - 5))  # histogram binning needs 10 points
    n = T - t_cal
    W = draw(st.one_of(
        st.just(1),
        st.sampled_from([w for w in range(2, n) if n % w != 0]),
        st.integers(n, 2 * n),
    ))
    family = draw(st.sampled_from(sorted(FIT_APPLY)))
    return family, T, t_cal, W, draw(st.integers(0, 2**32 - 1))


class TestWindowedRun:
    @settings(max_examples=60, deadline=None)
    @given(windowed_cases())
    def test_segments_equal_stepwise_replay(self, case):
        family, T, t_cal, W, seed = case
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0.0, 1.0, T)
        y = (rng.random(T) < scores).astype(float)
        fit, apply = FIT_APPLY[family]
        init = fit(scores[:t_cal], y[:t_cal])
        recording_fit, recording_apply, fits, applies = recording(fit, apply)
        col = windowed_run(recording_fit, recording_apply, init, t_cal, W, scores, y)
        replay, refits = reference_windowed_column(fit, apply, init, t_cal, W, scores, y)
        assert col.tolist() == replay
        assert [t for t, _ in fits] == refits
        bounds = [t_cal + 1, *refits, T + 1]
        assert [n for _, n in applies] == [hi - lo for lo, hi in pairwise(bounds) if hi > lo]

    def test_rejects_nonpositive_window(self):
        scores = np.full(20, 0.5)
        with pytest.raises(ValueError, match="window"):
            windowed_run(fit_platt_batch, platt_apply, (1.0, 0.0), 10, 0, scores, scores)

    @pytest.mark.parametrize("t_cal", [21, -3], ids=["past-the-stream", "negative"])
    def test_rejects_t_cal_outside_the_stream(self, t_cal):
        scores = np.full(20, 0.5)
        with pytest.raises(ValueError, match=r"t_cal must lie in \[0, len\(scores\)\]"):
            windowed_run(fit_platt_batch, platt_apply, (1.0, 0.0), t_cal, 5, scores, scores)


class TestOnlineScalerStep:
    def test_first_platt_forecast_is_score(self):
        state = OnsState.init(OnsConfig.platt())
        p, _ = online_scaler_step(state, 0.37, 1.0, "platt")
        assert p == pytest.approx(0.37, abs=1e-12)

    def test_first_beta_forecast_at_half(self):
        state = OnsState.init(OnsConfig.beta())
        p, _ = online_scaler_step(state, 0.5, 0.0, "beta")
        # sigmoid(log .5 + log .5) = .25 / 1.25 = 0.2
        assert p == pytest.approx(0.2, abs=1e-12)

    def test_stepwise_matches_batched_pass(self):
        rng = np.random.default_rng(35)
        scores = rng.uniform(0.01, 0.99, 300)
        y = (rng.random(300) < scores).astype(float)
        for family in ("platt", "beta"):
            batch_probs, batch_state = online_scaler_run(scores, y, family)
            state = OnsState.init(OnsConfig.platt() if family == "platt" else OnsConfig.beta())
            step_probs = np.zeros(300)
            for t in range(300):
                step_probs[t], state = online_scaler_step(state, scores[t], y[t], family)
            assert np.max(np.abs(step_probs - batch_probs)) <= 1e-12
            assert np.max(np.abs(state.theta - batch_state.theta)) <= 1e-12

    def test_family_dimension_mismatch(self):
        state = OnsState.init(OnsConfig.platt())
        with pytest.raises(ValueError):
            online_scaler_step(state, 0.5, 1.0, "beta")


class TestOnlineScalerOutcomes:
    """The online scaler's entry points reject an outcome outside [0, 1]
    (NaN included) and a score column whose length is not the outcomes'."""

    BAD = [float("nan"), 5.0, -0.5, float("inf")]

    @pytest.mark.parametrize("family", ["platt", "beta"])
    @pytest.mark.parametrize("y", BAD)
    def test_step_rejects_outcome(self, family, y):
        config = scalers._FAMILIES[family].config
        state = OnsState.init(config)
        with pytest.raises(ValueError, match=r"outcomes must lie in \[0, 1\]"):
            online_scaler_step(state, 0.4, y, family)
        feature = scalers._FAMILIES[family].features([0.4])[0]
        with pytest.raises(ValueError, match=r"outcomes must lie in \[0, 1\]"):
            ons_advance(state, feature, y, config)
        # the rejected step left the state as it was
        assert np.array_equal(state.theta, initial_theta(config.dim)) and state.t == 0

    @pytest.mark.parametrize("family", ["platt", "beta"])
    @pytest.mark.parametrize("y", BAD)
    def test_run_rejects_outcome(self, family, y):
        ys = np.array([1.0, 0.0, y, 1.0])
        with pytest.raises(ValueError, match=r"outcomes must lie in \[0, 1\]"):
            online_scaler_run(np.full(4, 0.4), ys, family)

    @pytest.mark.parametrize("family", ["platt", "beta"])
    def test_run_names_a_bad_score(self, family):
        # both families name the score, not the logit's "probabilities"
        with pytest.raises(ValueError, match=r"scores must lie in \[0, 1\]"):
            online_scaler_run(np.array([0.4, 1.5, 0.4]), np.ones(3), family)

    @pytest.mark.parametrize("n_scores", [3, 5])
    def test_run_rejects_length_mismatch(self, n_scores):
        with pytest.raises(ValueError, match="equal length"):
            online_scaler_run(np.full(n_scores, 0.4), np.ones(4), "platt")

    def test_boundary_outcomes_accepted(self):
        probs, _ = online_scaler_run(np.full(4, 0.4), np.array([0.0, 1.0, 0.25, 1.0]), "beta")
        assert np.all((probs >= 0.0) & (probs <= 1.0))


class TestBatchFitOutcomes:
    """The batch fits check their data as the online scaler does: outcomes
    in [0, 1] (NaN rejected), scores and outcomes of equal length, and at
    least one histogram bin."""

    YS = np.tile([0.0, 1.0, 0.25, 1.0], 3)

    @pytest.mark.parametrize("family", sorted(FIT_APPLY))
    @pytest.mark.parametrize("y", TestOnlineScalerOutcomes.BAD)
    def test_rejects_outcome(self, family, y):
        ys = self.YS.copy()
        ys[5] = y
        with pytest.raises(ValueError, match=r"outcomes must lie in \[0, 1\]"):
            FIT_APPLY[family][0](np.linspace(0.2, 0.8, 12), ys)

    @pytest.mark.parametrize("family", sorted(FIT_APPLY))
    @pytest.mark.parametrize("score", [1.5, -2.0, float("nan")])
    def test_rejects_score(self, family, score):
        # every fit names the score; histogram binning would otherwise place it in an edge bin
        scores = np.linspace(0.2, 0.8, 12)
        scores[5] = score
        with pytest.raises(ValueError, match=r"scores must lie in \[0, 1\]"):
            FIT_APPLY[family][0](scores, self.YS)

    @pytest.mark.parametrize("family", sorted(FIT_APPLY))
    @pytest.mark.parametrize("n_scores", [11, 13])
    def test_rejects_length_mismatch(self, family, n_scores):
        with pytest.raises(ValueError, match="equal length"):
            FIT_APPLY[family][0](np.linspace(0.2, 0.8, n_scores), self.YS)

    @pytest.mark.parametrize("m", [0, -2])
    def test_histogram_rejects_no_bins(self, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            fit_histogram_binning(np.linspace(0.2, 0.8, 12), self.YS, m=m)

    @pytest.mark.parametrize("family", sorted(FIT_APPLY))
    def test_boundary_outcomes_accepted(self, family):
        scores = np.linspace(0.2, 0.8, 12)
        fit, apply = FIT_APPLY[family]
        probs = apply(fit(scores, self.YS), scores)
        assert np.all((probs >= 0.0) & (probs <= 1.0))


def reference_newton_logistic(X, y, init, ridge=0.0, radius=None, tol=1e-8, max_iter=200, evals=None):
    """``newton_logistic`` with a line search that always runs all 60
    halvings until one lowers the loss; kept as the oracle for the early
    exit. ``evals``, a list, counts loss evaluations when given."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    w = _renorm_to_ball(np.asarray(init, dtype=float).copy(), radius)

    def loss(wv):
        if evals is not None:
            evals.append(1)
        pv = sigmoid(X @ wv)
        return float(np.sum(log_loss(pv, y))) + 0.5 * ridge * float(wv @ wv), pv

    cur, p = loss(w)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        grad = X.T @ (p - y) + ridge * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            converged = True
            break
        hess = (X * (p * (1.0 - p))[:, None]).T @ X + ridge * np.eye(d)
        jitter = 1e-12 * max(float(np.trace(hess)), 1.0)
        step = np.linalg.solve(hess + jitter * np.eye(d), grad)
        alpha = 1.0
        accepted = False
        for _ in range(60):
            cand = _renorm_to_ball(w - alpha * step, radius)
            cand_loss, cand_p = loss(cand)
            if cand_loss < cur:
                w, cur, p = cand, cand_loss, cand_p
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            converged = gnorm <= 1e-6 or (radius is not None and np.linalg.norm(w) >= radius - 1e-9)
            break
    if radius is not None:
        margins = (2.0 * y - 1.0) * (X @ w)
        nrm = float(np.linalg.norm(w))
        if np.all(margins > 0.0) and 0.0 < nrm < radius:
            w = w * (radius / nrm)
    return w, converged, it


def assert_same_fit(got, want):
    assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
    assert (got[1], got[2]) == (want[1], want[2])


@pytest.fixture
def loss_evals(monkeypatch):
    """Counts ``newton_logistic``'s loss evaluations, each one call of
    ``scalers._fit_loss``."""
    calls = []
    original = scalers._fit_loss
    monkeypatch.setattr(scalers, "_fit_loss", lambda fit, w, p: calls.append(1) or original(fit, w, p))
    return calls


def design(kind: str, n: int, seed: int):
    """(X, y) of one of seven shapes: a Platt or beta design over scores with
    Bernoulli outcomes, a separable one, a degenerate one (one repeated
    score, so the slope columns are collinear with the bias, under a single
    label), a beta design with fractional outcomes, a Platt design with 0/1
    outcomes but one fractional one (both take the loss's two-log form),
    or the covmulti base model's 11 columns (10 covariates and the bias)."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.01, 0.99, n)
    if kind == "platt":
        return platt_features(s), (rng.random(n) < platt_apply((1.3, -0.2), s)).astype(float)
    if kind == "beta":
        return beta_features(s), (rng.random(n) < s).astype(float)
    if kind == "separable":
        return platt_features(s), (s > 0.5).astype(float)
    if kind == "fractional":
        return beta_features(s), rng.random(n)
    if kind == "mixed":
        y = (rng.random(n) < s).astype(float)
        y[rng.integers(n)] = rng.random()
        return platt_features(s), y
    if kind == "covmulti":
        x, y, _ = covmulti_at(np.arange(n), 0.0, rng)
        return np.column_stack([x, np.ones(n)]), y
    return beta_features(np.full(n, s[0])), np.full(n, float(rng.random() < 0.5))


class TestNewtonEarlyExit:
    def test_failed_search_stops_once_the_step_rounds_away(self, loss_evals):
        # this fit's last line search lowers no loss: run to all 60 halvings,
        # it makes 70 loss evaluations in all
        X, y = design("platt", 5000, 0)
        ref_evals = []
        want = reference_newton_logistic(X, y, np.array([1.0, 0.0]), radius=100.0, evals=ref_evals)
        got = newton_logistic(X, y, np.array([1.0, 0.0]), radius=100.0)
        assert len(ref_evals) >= 60
        assert 1 <= len(loss_evals) < 40
        assert_same_fit(got, want)

    @pytest.mark.parametrize("X, y, init, radius", [
        # the rescaled candidate is tried and rejected
        (*design("separable", 97, 1), np.array([1.0, 1.0]), 1.5),
        # the rescaled candidate lowers the loss: accepted, the fit goes on
        (*design("beta", 500, 2), np.ones(3), 1.5),
    ], ids=["rejected", "accepted"])
    def test_boundary_iterate_rescaled_by_the_ball(self, monkeypatch, X, y, init, radius):
        # separable data drive w onto the boundary, where its norm rounds
        # above the radius: once the step rounds away, _renorm_to_ball still
        # moves the stuck candidate w, so it is tried once
        outputs, moved_stuck = set(), []

        def renorm(theta, radius):
            out = _renorm_to_ball(theta, radius)
            if theta.tobytes() in outputs and out is not theta:
                moved_stuck.append(theta.copy())
            outputs.add(out.tobytes())
            return out

        monkeypatch.setattr(scalers, "_renorm_to_ball", renorm)
        got = newton_logistic(X, y, init, radius=radius)
        monkeypatch.undo()
        assert moved_stuck and np.linalg.norm(moved_stuck[0]) > radius
        assert_same_fit(got, reference_newton_logistic(X, y, init, radius=radius))

    @given(kind=st.sampled_from(["platt", "beta", "separable", "degenerate", "fractional", "mixed", "covmulti"]),
           n=st.integers(1, 2000), seed=st.integers(0, 2**16),
           ridge=st.sampled_from([0.0, 1.0]), radius=st.sampled_from([None, 100.0, 1.5]),
           init_scale=st.sampled_from([0.0, 1.0, 300.0]))
    @settings(max_examples=80, deadline=None)
    @example(kind="platt", n=2000, seed=3, ridge=0.0, radius=100.0, init_scale=1.0)
    @example(kind="beta", n=2000, seed=4, ridge=1.0, radius=None, init_scale=0.0)
    @example(kind="separable", n=2000, seed=5, ridge=0.0, radius=1.5, init_scale=1.0)
    @example(kind="degenerate", n=2000, seed=6, ridge=0.0, radius=100.0, init_scale=300.0)
    @example(kind="fractional", n=2000, seed=7, ridge=0.0, radius=100.0, init_scale=1.0)
    @example(kind="mixed", n=2000, seed=8, ridge=0.0, radius=100.0, init_scale=1.0)
    @example(kind="covmulti", n=1000, seed=9, ridge=1.0, radius=None, init_scale=0.0)
    def test_bitwise_equal_to_the_full_search(self, kind, n, seed, ridge, radius, init_scale):
        X, y = design(kind, n, seed)
        init = init_scale * np.random.default_rng(seed + 1).standard_normal(X.shape[1])
        got = newton_logistic(X, y, init, ridge=ridge, radius=radius)
        assert_same_fit(got, reference_newton_logistic(X, y, init, ridge=ridge, radius=radius))


class TestOnlineFamilies:
    def test_unknown_family_raises(self):
        state = OnsState.init(OnsConfig.platt())
        for call in (lambda: online_scaler_step(state, 0.5, 1.0, "hb"),
                     lambda: online_scaler_run(np.full(3, 0.5), np.ones(3), "hb")):
            with pytest.raises(ValueError, match="family"):
                call()

    @pytest.mark.parametrize("family, config", [("platt", OnsConfig.platt()), ("beta", OnsConfig.beta())])
    def test_default_config_is_the_family_one(self, family, config):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.01, 0.99, 50)
        y = (rng.random(50) < scores).astype(float)
        (p_default, default), (p_explicit, explicit) = (online_scaler_run(scores, y, family),
                                                        online_scaler_run(scores, y, family, config))
        assert np.array_equal(p_default, p_explicit) and default.t == explicit.t == 50
        assert all(np.array_equal(getattr(default, k), getattr(explicit, k)) for k in ("theta", "A", "A_inv"))
        p, state = online_scaler_step(OnsState.init(config), 0.3, 1.0, family)
        q, explicit_state = online_scaler_step(OnsState.init(config), 0.3, 1.0, family, config)
        assert p == q and np.array_equal(state.theta, explicit_state.theta)

    @pytest.mark.parametrize("family, dim, width", [("beta", 2, 3), ("platt", 3, 2)])
    def test_config_of_another_width_rejected(self, family, dim, width):
        # a beta stream under a 2-d config used to read its features with
        # the wrong stride and return forecasts, with no error
        config = OnsConfig(dim=dim)
        with pytest.raises(ValueError, match=rf"^config.dim must be {width} for the {family} family, got {dim}$"):
            online_scaler_run(np.full(50, 0.5), np.ones(50), family, config)
        with pytest.raises(ValueError, match="dimension mismatch"):
            online_scaler_step(OnsState.init(config), 0.5, 1.0, family, config)

    @pytest.mark.parametrize("family", ["platt", "beta"])
    @pytest.mark.parametrize("bad", [1.5, -0.2, math.nan])
    def test_bad_scores_rejected(self, family, bad):
        # both families check a score before clipping it
        apply, params, config = ((platt_apply, (1.0, 0.0), OnsConfig.platt()) if family == "platt"
                                 else (beta_apply, (1.0, 1.0, 0.0), OnsConfig.beta()))
        scores = np.array([0.3, bad, 0.6])
        for call in (lambda: apply(params, bad),
                     lambda: apply(params, scores),
                     lambda: online_scaler_run(scores, np.ones(3), family),
                     lambda: online_scaler_step(OnsState.init(config), bad, 1.0, family)):
            with pytest.raises(ValueError, match="must lie in"):
                call()
