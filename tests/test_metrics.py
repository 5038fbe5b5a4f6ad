import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscal.core import BinningScheme
from opscal.metrics import (
    brier,
    calibration_error,
    metric_report,
    refinement,
    sharpness,
    true_accuracy,
    true_ce,
)


class TestCalibrationError:
    def test_perfect_forecasts(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert calibration_error(y, y, BinningScheme(0.1)) == 0.0

    def test_hand_case(self):
        p = np.array([0.25, 0.25, 0.75, 0.75])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        # (2*|0.25-0.5| + 2*|0.75-1|)/4
        assert calibration_error(p, y, BinningScheme(0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_constant_forecast_single_bin(self):
        rng = np.random.default_rng(0)
        y = (rng.random(200) < 0.3).astype(float)
        p = np.full(200, 0.42)
        expected = abs(0.42 - float(np.mean(y)))
        assert calibration_error(p, y, BinningScheme(0.1)) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            calibration_error(np.array([0.5]), np.array([1.0, 0.0]), BinningScheme(0.1))


class TestSharpness:
    def test_perfect_forecaster_reaches_ybar(self):
        rng = np.random.default_rng(1)
        y = (rng.random(300) < 0.6).astype(float)
        assert sharpness(y, y, BinningScheme(0.1)) == pytest.approx(float(np.mean(y)), abs=1e-12)

    def test_single_bin_gives_ybar_squared(self):
        rng = np.random.default_rng(2)
        y = (rng.random(300) < 0.6).astype(float)
        p = np.full(300, 0.55)
        assert sharpness(p, y, BinningScheme(0.1)) == pytest.approx(float(np.mean(y)) ** 2, abs=1e-12)

    def test_hand_case(self):
        p = np.array([0.25, 0.25, 0.75, 0.75])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        # (2*0.25 + 2*1)/4
        assert sharpness(p, y, BinningScheme(0.5)) == pytest.approx(0.625, abs=1e-12)


class TestRefinement:
    def test_perfect_forecasts_zero(self):
        y = np.array([0.0, 1.0, 1.0])
        assert refinement(y, y, BinningScheme(0.1)) == 0.0

    def test_single_bin_half(self):
        y = np.array([0.0, 1.0] * 50)
        p = np.full(100, 0.5)
        assert refinement(p, y, BinningScheme(0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_sums_with_sharpness_to_ybar(self):
        rng = np.random.default_rng(3)
        p = rng.random(500)
        y = (rng.random(500) < 0.4).astype(float)
        scheme = BinningScheme(0.1)
        assert refinement(p, y, scheme) + sharpness(p, y, scheme) == pytest.approx(
            float(np.mean(y)), abs=1e-12
        )


class TestBrier:
    def test_perfect(self):
        y = np.array([0.0, 1.0])
        assert brier(y, y) == 0.0

    def test_constant_half(self):
        assert brier(np.full(10, 0.5), np.ones(10)) == pytest.approx(0.25, abs=1e-15)

    def test_hand_case(self):
        assert brier(np.array([0.2, 0.9]), np.array([0.0, 1.0])) == pytest.approx(
            0.025, abs=1e-15
        )


class TestTruthMetrics:
    def test_true_ce_zero_when_matching(self):
        truth = np.array([0.3, 0.8])
        assert true_ce(truth, truth) == 0.0

    def test_true_ce_opposing(self):
        assert true_ce(np.array([0.1, 0.9]), np.array([0.9, 0.1])) == pytest.approx(0.8)

    def test_true_ce_constant_half(self):
        assert true_ce(np.full(4, 0.5), np.array([0.1, 0.9, 0.1, 0.9])) == pytest.approx(0.4)

    def test_true_accuracy_agreement(self):
        p = np.array([0.9, 0.1, 0.8])
        truth = np.array([0.9, 0.1, 0.9])
        assert true_accuracy(p, truth) == pytest.approx((0.9 + 0.9 + 0.9) / 3)

    def test_true_accuracy_opposing(self):
        p = np.array([0.1, 0.2])
        truth = np.array([0.9, 0.9])
        assert true_accuracy(p, truth) == pytest.approx(0.1, abs=1e-12)

    def test_tie_predicts_class_one(self):
        assert true_accuracy(np.array([0.5]), np.array([0.7])) == pytest.approx(0.7)

    def test_missing_truth_rejected(self):
        with pytest.raises(ValueError):
            true_ce(np.array([0.5]), None)
        with pytest.raises(ValueError):
            true_accuracy(np.array([0.5]), None)


class TestReportInvariants:
    def test_fuzzed_identities(self):
        # 1000 random (p, y) pairs across lengths and bin widths:
        #   ybar^2 <= SHP <= ybar
        #   refinement == ybar - SHP
        #   refinement <= brier + eps + eps^2/4
        #   CE <= 1, SHP <= 1
        rng = np.random.default_rng(1234)
        epsilons = (0.05, 0.1, 0.2, 0.5)
        for k in range(1000):
            T = int(rng.integers(1, 501))
            p = rng.random(T)
            y = (rng.random(T) < rng.random()).astype(float)
            eps = epsilons[k % 4]
            scheme = BinningScheme(eps)
            rep = metric_report(p, y, scheme)
            assert rep.ybar**2 - 1e-9 <= rep.shp <= rep.ybar + 1e-9
            assert abs(rep.refinement - (rep.ybar - rep.shp)) <= 1e-9
            assert rep.refinement <= rep.brier + eps + eps**2 / 4.0 + 1e-9
            assert 0.0 <= rep.ce <= 1.0
            assert 0.0 <= rep.shp <= 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        p = rng.random(200)
        y = (rng.random(200) < 0.5).astype(float)
        perm = rng.permutation(200)
        scheme = BinningScheme(0.1)
        assert calibration_error(p, y, scheme) == pytest.approx(
            calibration_error(p[perm], y[perm], scheme), abs=1e-15
        )
        assert sharpness(p, y, scheme) == pytest.approx(
            sharpness(p[perm], y[perm], scheme), abs=1e-15
        )
        assert refinement(p, y, scheme) == pytest.approx(
            refinement(p[perm], y[perm], scheme), abs=1e-15
        )

    def test_report_includes_truth_fields(self):
        p = np.array([0.2, 0.8])
        y = np.array([0.0, 1.0])
        truth = np.array([0.25, 0.75])
        rep = metric_report(p, y, BinningScheme(0.1), truth=truth)
        assert rep.true_ce == pytest.approx(0.05)
        assert rep.true_accuracy == pytest.approx(0.75)


def reference_tallies(p, y, scheme):
    # The per-bin aggregates, written out: route each forecast to its
    # 0-based bin, count and sum outcomes and forecasts per bin with
    # np.bincount, and divide; an empty bin has outcome mean 0 and forecast
    # mean its midpoint.
    p, y = np.asarray(p, dtype=float), np.asarray(y, dtype=float)
    m = scheme.m
    b = np.minimum(np.floor(p / scheme.epsilon).astype(int) + 1, m) - 1
    counts = np.bincount(b, minlength=m).astype(float)
    outcome_sums = np.bincount(b, weights=y, minlength=m)
    forecast_sums = np.bincount(b, weights=p, minlength=m)
    nz = counts > 0
    ybars = np.zeros(m)
    ybars[nz] = outcome_sums[nz] / counts[nz]
    pbars = (np.arange(m) + 0.5) * scheme.epsilon
    pbars[nz] = forecast_sums[nz] / counts[nz]
    return counts, ybars, pbars


def reference_ce(p, y, scheme):
    counts, ybars, pbars = reference_tallies(p, y, scheme)
    return float(np.sum(counts * np.abs(pbars - ybars)) / len(p))


def reference_shp(p, y, scheme):
    counts, ybars, _ = reference_tallies(p, y, scheme)
    return float(np.sum(counts * ybars**2) / len(p))


@st.composite
def prefix_cases(draw):
    """(p, y, scheme, prefixes): forecasts mix uniform draws, bin edges and
    1.0; outcomes are binary or fractional; prefixes hold 1 and len(p)."""
    eps = draw(st.sampled_from([0.05, 0.1, 0.2, 1 / 3, 0.15, 0.01]))
    scheme = BinningScheme(eps)
    T = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random(T)
    kind = rng.integers(0, 3, T)
    p[kind == 1] = np.minimum(rng.integers(0, scheme.m + 1, T) * eps, 1.0)[kind == 1]
    p[kind == 2] = 1.0
    y = rng.random(T) if draw(st.booleans()) else (rng.random(T) < rng.random()).astype(float)
    inner = draw(st.sets(st.integers(1, T), max_size=20))
    prefixes = np.array(sorted(inner | {1, T}), dtype=int)
    return p, y, scheme, prefixes


class TestPrefixSeries:
    """metric_report's CE and SHP over prefixes equal the per-prefix
    reference bit for bit, and so do the scalar forms."""

    @settings(max_examples=150, deadline=None)
    @given(case=prefix_cases())
    def test_series_equal_the_reference_per_prefix(self, case):
        p, y, scheme, prefixes = case
        series = metric_report(p, y, scheme, prefixes=prefixes)
        ces, shps = series.ce, series.shp
        assert ces.shape == shps.shape == series.refinement.shape == prefixes.shape
        for i, k in enumerate(prefixes):
            assert ces[i].tobytes() == np.float64(reference_ce(p[:k], y[:k], scheme)).tobytes()
            assert shps[i].tobytes() == np.float64(reference_shp(p[:k], y[:k], scheme)).tobytes()
        # the last prefix is len(p): its entries are the whole-column report,
        # which is why the pipeline takes its final CE and SHP from the curves
        whole = metric_report(p, y, scheme)
        for name in ("ce", "shp", "refinement"):
            assert getattr(series, name)[-1].tobytes() == np.float64(getattr(whole, name)).tobytes()
        assert (series.brier, series.ybar) == (whole.brier, whole.ybar)

    @settings(max_examples=150, deadline=None)
    @given(case=prefix_cases())
    def test_scalar_forms_equal_the_reference(self, case):
        p, y, scheme, _ = case
        ce, shp = calibration_error(p, y, scheme), sharpness(p, y, scheme)
        assert type(ce) is float and type(shp) is float
        assert np.float64(ce).tobytes() == np.float64(reference_ce(p, y, scheme)).tobytes()
        assert np.float64(shp).tobytes() == np.float64(reference_shp(p, y, scheme)).tobytes()


@pytest.mark.parametrize("metric", [
    lambda *args, **kwargs: metric_report(*args, **kwargs).ce,
    lambda *args, **kwargs: metric_report(*args, **kwargs).shp,
], ids=["calibration_error", "sharpness"])
@pytest.mark.parametrize("prefixes, message", [
    ([], "nonempty"),
    ([3, 2, 5], "increasing"),
    ([2, 2, 5], "increasing"),
    ([1.0, 2.5], "integers"),
    ([0, 3], r"\[1, len\(p\)\]"),
    ([1, 6], r"\[1, len\(p\)\]"),
], ids=["empty", "decreasing", "repeated", "non-integer", "zero", "longer-than-p"])
def test_rejects_bad_prefixes(metric, prefixes, message):
    p = np.array([0.1, 0.4, 0.5, 0.8, 1.0])
    with pytest.raises(ValueError, match="prefixes") as info:
        metric(p, (p > 0.45).astype(float), BinningScheme(0.1), prefixes=prefixes)
    assert info.match(message)


@pytest.mark.parametrize("metric", [
    lambda p, y: calibration_error(p, y, BinningScheme(0.1)),
    lambda p, y: sharpness(p, y, BinningScheme(0.1)),
    lambda p, y: refinement(p, y, BinningScheme(0.1)),
    brier,
    lambda p, y: metric_report(p, y, BinningScheme(0.1)),
    true_ce,
    true_accuracy,
], ids=["calibration_error", "sharpness", "refinement", "brier", "metric_report", "true_ce", "true_accuracy"])
@pytest.mark.parametrize("column", ["forecasts", "outcomes"])
@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan], ids=["negative", "above-one", "nan"])
def test_rejects_values_outside_unit_interval(metric, column, bad):
    # a value outside [0, 1] breaks the identities: an outcome of 3 gives SHP 9 > ybar
    p, y = np.array([0.5, 0.5, 0.2]), np.array([1.0, 0.0, 0.0])
    (p if column == "forecasts" else y)[1] = bad
    with pytest.raises(ValueError, match=rf"{column} must lie in \[0, 1\]"):
        metric(p, y)
