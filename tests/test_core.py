import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opscal import kernels
from opscal.core import (
    BinningScheme,
    bin_index,
    bins_of,
    clip_score,
    log_loss,
    logit,
    sigmoid,
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
