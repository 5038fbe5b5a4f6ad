import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opscal import kernels
from opscal.calibeating import f99_run, hops_run, tracking_run
from opscal.core import (
    BinningScheme,
    bin_index,
    bins_of,
    clip_score,
    log_loss,
    log_loss_constants,
    log_loss_sum,
    logit,
    sigmoid,
)
from opscal.datagen import default_spec
from opscal.metrics import brier, calibration_error, metric_report, refinement, sharpness, true_accuracy, true_ce
from opscal.ons import OnsConfig, regret
from opscal.pipeline import ExperimentConfig, eval_timestamps, run_climatology
from opscal.scalers import (
    fit_beta_batch,
    fit_histogram_binning,
    fit_platt_batch,
    online_scaler_run,
    platt_apply,
    refit_times,
    windowed_run,
)


class TestSigmoid:
    def test_symmetry_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_inverse_pair(self):
        assert sigmoid(logit(0.99)) == pytest.approx(0.99, abs=1e-12)

    def test_saturation(self):
        assert sigmoid(100.0) == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(-100.0) == pytest.approx(0.0, abs=1e-15)

    def test_stable_at_extremes(self):
        # |z| up to ~700 must not overflow on either branch
        assert np.isfinite(sigmoid(700.0))
        assert np.isfinite(sigmoid(-700.0))
        assert sigmoid(-700.0) >= 0.0

    def test_array_input(self):
        z = np.array([-2.0, 0.0, 3.0])
        out = sigmoid(z)
        assert out.shape == (3,)
        assert np.allclose(out, [1 / (1 + math.e**2), 0.5, 1 / (1 + math.exp(-3))])


def masked_two_branch_sigmoid(z):
    """The boolean-mask form of the logistic function, kept as an oracle:
    1/(1+exp(-z)) gathered and scattered where z >= 0, exp(z)/(1+exp(z))
    elsewhere."""
    z_arr = np.asarray(z, dtype=float)
    out = np.empty_like(z_arr)
    pos = z_arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z_arr[pos]))
    ez = np.exp(z_arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out) if np.isscalar(z) or out.ndim == 0 else out


# both branches' edges: signed zeros, infinities, NaN, subnormals, and
# |z| past 745, where exp underflows to zero (and exp(|z|) would overflow)
SIGMOID_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308,
                 -2.2e-308, 745.2, -745.2, 746.0, -746.0, 1e308, -1e308)
sigmoid_floats = st.one_of(st.sampled_from(SIGMOID_EDGES), st.floats(allow_nan=True, allow_infinity=True))


def same_bits(a, b) -> bool:
    """Bit-for-bit equality; NaN matches NaN (the sign of a NaN from exp is
    not specified)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestSigmoidOnePass:
    @given(st.one_of(sigmoid_floats.map(lambda z: ("float", z)),
                     sigmoid_floats.map(lambda z: ("0-d", np.array(z))),
                     hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                                elements=sigmoid_floats).map(lambda a: ("n-d", a))))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_masked_two_branch_form(self, case):
        _, z = case
        expected = masked_two_branch_sigmoid(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(z)
        assert type(got) is type(expected)
        assert same_bits(got, expected)

    def test_long_random_array_bitwise(self):
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.standard_normal(20_000) * s for s in (1.0, 30.0, 800.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(z)
        assert same_bits(got, masked_two_branch_sigmoid(z))


class TestSigmoidOut:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6), elements=sigmoid_floats))
    @settings(max_examples=200, deadline=None)
    def test_out_and_in_place_equal_the_allocating_form(self, z):
        # the loss pass of newton_logistic writes the forecasts over X w
        expected = sigmoid(z)
        buf = np.empty_like(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(z, out=buf)
            aliased = z.copy()
            sigmoid(aliased, out=aliased)
        assert got is buf and same_bits(got, expected) and same_bits(aliased, expected)


class TestLogit:
    def test_symmetry(self):
        assert logit(0.5) == 0.0

    def test_direct_value(self):
        # log(0.99/0.01) = log 99
        assert logit(0.99) == pytest.approx(math.log(99.0), abs=1e-12)

    def test_clipping_rule(self):
        assert logit(0.999) == pytest.approx(math.log(99.0), abs=1e-12)
        assert logit(0.0) == pytest.approx(-math.log(99.0), abs=1e-12)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            logit(-0.1)
        with pytest.raises(ValueError):
            logit(1.2)

    def test_roundtrip(self):
        for p in np.linspace(0.01, 0.99, 197):
            assert abs(sigmoid(logit(p)) - p) <= 1e-12

    def test_bounded(self):
        ps = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(logit(ps))) <= math.log(99.0) + 1e-12


class TestClipScore:
    def test_clips_to_band(self):
        assert clip_score(0.001) == 0.01
        assert clip_score(0.9999) == 0.99
        assert clip_score(0.5) == 0.5

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            clip_score(1.5)
        with pytest.raises(ValueError):
            clip_score(np.nan)


class TestBinningScheme:
    def test_m_for_exact_divisors(self):
        assert BinningScheme(0.1).m == 10
        assert BinningScheme(0.05).m == 20
        assert BinningScheme(0.2).m == 5
        assert BinningScheme(0.5).m == 2

    def test_last_bin_midpoint_above_one_rejected(self):
        # eps = 0.3 gives m = 4 and a last midpoint of 1.05, which tracking
        # and hedging would forecast
        for eps in (0.3, 0.07, 0.45):
            with pytest.raises(ValueError, match="last bin midpoint"):
                BinningScheme(eps)
        assert BinningScheme(0.4).m == 3 and BinningScheme(0.4).midpoint(3) == 1.0
        assert BinningScheme(0.15).m == 7

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 10_000))
    def test_rejects_exactly_when_last_midpoint_exceeds_one(self, k):
        eps = Fraction(k, 10_000)
        m = math.ceil(1 / eps)
        if (m - Fraction(1, 2)) * eps > 1:
            with pytest.raises(ValueError, match="last bin midpoint"):
                BinningScheme(float(eps))
        else:
            assert BinningScheme(float(eps)).m == m

    def test_midpoints(self):
        s = BinningScheme(0.1)
        assert np.allclose(s.midpoints(), np.arange(0.05, 1.0, 0.1))
        assert s.midpoint(1) == pytest.approx(0.05)
        assert s.midpoint(10) == pytest.approx(0.95)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            BinningScheme(0.0)
        with pytest.raises(ValueError):
            BinningScheme(1.5)


class TestBinIndex:
    def test_interior_of_first_bin(self):
        assert bin_index(0.05, BinningScheme(0.1)) == 1

    def test_left_closed_boundary(self):
        assert bin_index(0.1, BinningScheme(0.1)) == 2

    def test_one_maps_to_last_bin(self):
        assert bin_index(1.0, BinningScheme(0.1)) == 10

    def test_zero_maps_to_first_bin(self):
        assert bin_index(0.0, BinningScheme(0.1)) == 1

    def test_monotone_and_total(self):
        rng = np.random.default_rng(7)
        for eps in (0.05, 0.1, 0.2, 0.5):
            scheme = BinningScheme(eps)
            ps = np.sort(rng.random(500))
            idx = bin_index(ps, scheme)
            assert np.all(np.diff(idx) >= 0)
            assert np.all((idx >= 1) & (idx <= scheme.m))

    def test_surjective(self):
        for eps in (0.05, 0.1, 0.2, 0.5):
            scheme = BinningScheme(eps)
            mids = scheme.midpoints()
            assert sorted(set(bin_index(mids, scheme))) == list(range(1, scheme.m + 1))

    def test_midpoint_within_half_eps(self):
        rng = np.random.default_rng(11)
        for eps in (0.05, 0.1, 0.2):
            scheme = BinningScheme(eps)
            for p in rng.random(400):
                b = bin_index(float(p), scheme)
                assert abs(p - scheme.midpoint(b)) <= eps / 2 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(eps=st.sampled_from([0.01, 0.05, 0.1, 0.15, 0.2, 0.4, 1 / 3, 1 / 7]),
           drawn=hnp.arrays(np.float64, st.integers(0, 50), elements=st.floats(0.0, 1.0)))
    def test_matches_kernel_bin_of(self, eps, drawn):
        # the array router, its 1-based wrapper and the kernels' scalar
        # routing agree on every forecast, the float bin edges k * eps,
        # their neighbours, 0 and 1
        scheme = BinningScheme(eps)
        edges = np.array([k * eps for k in range(scheme.m + 1) if k * eps <= 1.0])
        near = np.concatenate([np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        p = np.concatenate([drawn, [0.0, 1.0], edges, near])
        want = [kernels.bin_of(float(x), scheme.epsilon, scheme.m) for x in p]
        routed = bins_of(p, scheme.epsilon, scheme.m)
        assert routed.dtype == np.int64 and routed.tolist() == want
        assert (bin_index(p, scheme) - 1).tolist() == want
        assert [int(bins_of(x, scheme.epsilon, scheme.m)) for x in p] == want


class TestLogLoss:
    def test_uniform_forecast(self):
        assert log_loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_forecast_clipped(self):
        assert log_loss(1.0, 1) <= 1e-11
        assert log_loss(0.0, 0) <= 1e-11

    def test_direct_value(self):
        assert log_loss(0.25, 0) == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_nonnegative_fuzz(self):
        rng = np.random.default_rng(3)
        p = rng.random(1000)
        y = (rng.random(1000) < 0.5).astype(float)
        assert np.all(log_loss(p, y) >= 0.0)

    def test_bits_of_the_clipped_two_log_formula(self):
        rng = np.random.default_rng(4)
        p = np.concatenate([rng.random(500), [0.0, 1.0, 1e-13, 1.0 - 1e-13, np.nan]])
        for y in (rng.random(505), (rng.random(505) < 0.5).astype(float), 1.0):
            pc = np.clip(p, 1e-12, 1.0 - 1e-12)
            want = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
            assert log_loss(p, y).tobytes() == want.tobytes()
        assert log_loss(0.3, 0.4) == -(0.4 * math.log(0.3) + 0.6 * math.log(0.7))


def _outcome_sets(n, rng):
    binary = (rng.random(n) < 0.4).astype(float)
    mixed = binary.copy()
    mixed[n // 2] = 0.7
    return {"binary": binary, "fractional": rng.random(n), "mixed": mixed, "all ones": np.ones(n)}


class TestLogLossSum:
    @pytest.mark.parametrize("n", [1, 7, 128, 5000])
    def test_bits_of_the_summed_log_loss(self, n):
        rng = np.random.default_rng(n)
        p = np.concatenate([rng.random(n - 1), [1.0]])
        for name, y in _outcome_sets(n, rng).items():
            y0, sign = log_loss_constants(y)
            assert (sign is None) == (name in ("fractional", "mixed"))
            want = float(np.sum(log_loss(p, y)))
            assert log_loss_sum(p, y, y0, sign) == want, name
            out, scratch, work = np.empty(n), np.empty(n), p.copy()
            assert log_loss_sum(p, y, y0, sign, out, scratch) == want, name
            assert log_loss_sum(work, y, y0, sign, work, scratch) == want, name
            assert log_loss_sum(p, y, 1.0 - y) == want, name  # the two-log form on any outcomes

    def test_leaves_p_alone_unless_it_is_the_buffer(self):
        rng = np.random.default_rng(5)
        p, y = rng.random(64), (rng.random(64) < 0.5).astype(float)
        kept = p.copy()
        log_loss_sum(p, y, *log_loss_constants(y), out=np.empty(64))
        assert p.tobytes() == kept.tobytes()

    def test_constants(self):
        y0, sign = log_loss_constants([0.0, 1.0, 1.0])
        assert y0.tolist() == [1.0, 0.0, 0.0] and sign.tolist() == [-1.0, 1.0, 1.0]
        y0, sign = log_loss_constants([0.0, 0.25])
        assert y0.tolist() == [1.0, 0.75] and sign is None


SPEC = default_spec("adversarial")  # no base model, so T_train may be 0
HALVES = np.full(20, 0.5)


# every count entering a spec, a config or an entry: the noun its error
# names, the least value it accepts, and the call with the count set to v
COUNT_SITES = {
    **{f"StreamSpec.{f}": (f, least, lambda v, f=f: replace(SPEC, **{f: v}))
       for f, least in (("seed", 0), ("T_train", 0), ("T_cal", 0), ("T_test", 1), ("W", 1))},
    **{f"ExperimentConfig.{f}": (f, least, lambda v, f=f: ExperimentConfig(stream=SPEC, **{f: v}))
       for f, least in (("replications", 1), ("master_seed", 0), ("eval_stride", 1), ("workers", 1))},
    **{f"run_climatology.{f}": (f, least, lambda v, f=f: run_climatology(**{"T": 50, "replications": 1, f: v}))
       for f, least in (("T", 1), ("replications", 1), ("master_seed", 0))},
    "refit_times.window": ("window", 1, lambda v: refit_times(0, v, 10)),
    "refit_times.t_cal": ("t_cal", 0, lambda v: refit_times(v, 2, 10)),
    "refit_times.T": ("T", 0, lambda v: refit_times(0, 2, v)),
    **{f"eval_timestamps.{f}": (f, least, lambda v, f=f: eval_timestamps(**{"T": 1000, "t_cal": 0, "window": 100,
                                                                          "stride": 10, f: v}))
       for f, least in (("t_cal", 0), ("window", 1), ("stride", 1))},
    "OnsConfig.dim": ("dim", 2, lambda v: OnsConfig(dim=v)),
    "fit_histogram_binning.m": ("m", 1, lambda v: fit_histogram_binning(np.linspace(0.1, 0.9, 12), np.zeros(12), m=v)),
    "windowed_run.t_cal": ("t_cal", 0, lambda v: windowed_run(fit_platt_batch, platt_apply, (1.0, 0.0), v, 5,
                                                              HALVES, HALVES)),
    "windowed_run.window": ("window", 1, lambda v: windowed_run(fit_platt_batch, platt_apply, (1.0, 0.0), 5, v,
                                                                HALVES, HALVES)),
}


class TestCountRule:
    """Every count, size and seed is an integer (a Python or numpy one, not
    a bool) of at least its least value, checked where it enters."""

    @pytest.mark.parametrize("site", sorted(COUNT_SITES))
    @pytest.mark.parametrize("bad", ["fraction", "bool", "below", "string"])
    def test_rejected(self, site, bad):
        noun, least, call = COUNT_SITES[site]
        value = {"fraction": least + 1.5, "bool": True, "below": least - 1, "string": str(least + 1)}[bad]
        # windowed_run names a t_cal outside the stream by its range
        with pytest.raises(ValueError, match=rf"^{noun} must (be >= {least}|lie in)"):
            call(value)

    @pytest.mark.parametrize("site", sorted(COUNT_SITES))
    def test_least_accepted_as_numpy_integer(self, site):
        _, least, call = COUNT_SITES[site]
        call(np.int64(least))

    @pytest.mark.parametrize("T", [1000.5, True, -1, "1000"])
    def test_eval_timestamps_stream_length(self, T):
        # not in the table: the stream must also hold t_cal + 2W points, so
        # no least T is accepted on its own
        with pytest.raises(ValueError, match=r"^T must be >= 0, an integer"):
            eval_timestamps(T, 0, 100, 10)

    def test_numpy_integer_stored_as_int(self):
        # so a spec or config holding one still writes to JSON
        spec = replace(SPEC, seed=np.int64(3), W=np.int64(100))
        config = ExperimentConfig(stream=spec, master_seed=np.uint32(5))
        assert [type(v) for v in (spec.seed, spec.W, config.master_seed)] == [int] * 3
        assert (spec.seed, spec.W, config.master_seed) == (3, 100, 5)


# every entry that takes a column and its outcomes
COLUMN_ENTRIES = {
    "tracking_run": lambda p, y: tracking_run(p, y, BinningScheme(0.1)),
    "hops_run": lambda p, y: hops_run(p, y, BinningScheme(0.1), np.random.default_rng(0)),
    "online_scaler_run": lambda p, y: online_scaler_run(p, y, "platt"),
    "fit_platt_batch": fit_platt_batch,
    "fit_beta_batch": fit_beta_batch,
    "fit_histogram_binning": lambda p, y: fit_histogram_binning(p, y, m=1),
    "windowed_run": lambda p, y: windowed_run(fit_platt_batch, platt_apply, (1.0, 0.0), 0, 5, p, y),
    "regret": lambda p, y: regret(p, y, p),
    "calibration_error": lambda p, y: calibration_error(p, y, BinningScheme(0.1)),
    "sharpness": lambda p, y: sharpness(p, y, BinningScheme(0.1)),
    "refinement": lambda p, y: refinement(p, y, BinningScheme(0.1)),
    "brier": brier,
    "metric_report": lambda p, y: metric_report(p, y, BinningScheme(0.1)),
    "true_ce": true_ce,
    "true_accuracy": true_accuracy,
}


class TestColumnRule:
    """A column and its outcomes are 1-D of equal length: one forecast and
    one outcome per step."""

    @pytest.mark.parametrize("entry", sorted(COLUMN_ENTRIES))
    @pytest.mark.parametrize("shape", [(2, 3), ()], ids=["2x3", "0-d"])
    def test_rejected(self, entry, shape):
        # a 2x3 column used to be flattened or fail inside a kernel loop
        with pytest.raises(ValueError, match="must be 1-D columns of equal length"):
            COLUMN_ENTRIES[entry](np.full(shape, 0.45), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 3), ()], ids=["2x3", "0-d"])
    def test_outcome_column_rejected(self, shape):
        # f99_run takes outcomes only; a 0-d one used to end in len()'s TypeError
        with pytest.raises(ValueError, match="must be 1-D columns of equal length"):
            f99_run(np.zeros(shape), BinningScheme(0.1), np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.tuples(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
           .filter(lambda ab: not (len(ab[0]) == 1 and ab[0] == ab[1])))
    def test_any_other_shape_rejected(self, shapes):
        # a ValueError from the entry, never a TypeError or IndexError from inside
        p, y = np.full(shapes[0], 0.45), np.zeros(shapes[1])
        for entry in COLUMN_ENTRIES.values():
            with pytest.raises(ValueError, match="must be 1-D columns of equal length"):
                entry(p, y)
