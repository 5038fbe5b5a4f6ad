import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from opscal.core import CLIP_HI, CLIP_LO
from opscal.datagen import (
    StreamSpec,
    base_scores,
    build_scored_stream,
    cov1d_at,
    covmulti_at,
    default_spec,
    generate,
    ingest_csv,
    label1d_at,
    labelmulti_at,
    pairwise_expand,
    reg1d_at,
    sinusoidal_features,
    substream,
    train_base_logistic,
)
from opscal.metrics import true_accuracy


class TestFeaturization:
    def test_sinusoidal_dimension(self):
        X = sinusoidal_features(np.array([0.0, 1.0, -3.0]))
        assert X.shape == (3, 49)  # 6 freqs x 8 translations + intercept
        assert np.all(X[:, -1] == 1.0)

    def test_sinusoidal_values(self):
        X = sinusoidal_features(np.array([2.0]))
        # first column: freq 1, translation 0
        assert X[0, 0] == pytest.approx(math.sin(2.0))
        # second column: freq 1, translation pi/4
        assert X[0, 1] == pytest.approx(math.sin(2.0 + math.pi / 4))
        # ninth column: freq 2, translation 0
        assert X[0, 8] == pytest.approx(math.sin(1.0))

    def test_pairwise_expand_dimension(self):
        X = np.arange(20, dtype=float).reshape(2, 10)
        out = pairwise_expand(X)
        assert out.shape == (2, 55)  # 10 + C(10,2)
        assert out[0, 10] == X[0, 0] * X[0, 1]
        assert out[0, -1] == X[0, 8] * X[0, 9]


class TestCov1d:
    def test_truth_rule(self):
        rng = substream(0, 0)
        x, y, truth = cov1d_at(np.array([1.0, 1.0]), rng)
        # rule applies pointwise; spot-check specific covariate values
        from opscal.datagen import _periodic_rule

        assert _periodic_rule(np.array([2.0]), 0.1, 0.9)[0] == 0.1  # floor(0.4)=0 even
        assert _periodic_rule(np.array([7.0]), 0.1, 0.9)[0] == 0.9  # floor(1.4)=1 odd
        assert _periodic_rule(np.array([12.0]), 0.1, 0.9)[0] == 0.1

    def test_mean_drift_endpoints(self):
        rng = substream(1, 0)
        n = 100_000
        x1, _, _ = cov1d_at(np.full(n, 1.0), rng)
        x6000, _, _ = cov1d_at(np.full(n, 6000.0), rng)
        assert float(np.mean(x1)) == pytest.approx(0.0, abs=0.05)
        assert float(np.mean(x6000)) == pytest.approx(5999.0 / 250.0, abs=0.05)
        assert float(np.std(x1)) == pytest.approx(2.0, abs=0.05)

    def test_outcomes_consistent_with_truth(self):
        rng = substream(2, 0)
        x, y, truth = cov1d_at(np.full(100_000, 3000.0), rng)
        assert abs(float(np.mean(y)) - float(np.mean(truth))) <= 0.01


class TestLabel1d:
    def test_prior_endpoints(self):
        rng = substream(3, 0)
        n = 100_000
        _, y1, _ = label1d_at(np.full(n, 1.0), rng)
        assert float(np.mean(y1)) == pytest.approx(0.95, abs=0.01)
        _, y2, _ = label1d_at(np.full(n, 6000.0), rng)
        expected = 0.95 * (1.0 - 5999.0 / 6000.0) + 0.05 * (5999.0 / 6000.0)
        assert expected == pytest.approx(0.050150, abs=1e-6)
        assert float(np.mean(y2)) == pytest.approx(expected, abs=0.01)

    def test_truth_symmetry_at_midpoint(self):
        # at x = 1 the two class densities are equal, so truth = prior
        from opscal.core import sigmoid

        prior = 0.5
        truth = sigmoid(math.log(prior / (1 - prior)) + 2.0 * 1.0 - 2.0)
        assert truth == pytest.approx(0.5)

    def test_truth_is_valid_posterior(self):
        rng = substream(4, 0)
        x, y, truth = label1d_at(np.arange(1, 6001, dtype=float), rng)
        assert np.all((truth >= 0.0) & (truth <= 1.0))
        # calibration of the posterior: E[y | truth bucket] tracks truth
        assert abs(float(np.mean(y)) - float(np.mean(truth))) <= 0.02


class TestReg1d:
    def test_alpha_one_collapses_to_half(self):
        rng = substream(5, 0)
        _, _, truth = reg1d_at(np.full(1000, 5001.0), rng)
        assert np.allclose(truth, 0.5)

    def test_t1_odd_branch(self):
        alpha = 0.0
        hi = 0.9 * (1 - alpha) + 0.5 * alpha
        assert hi == pytest.approx(0.9)

    def test_t6000_even_branch_value(self):
        alpha = 5999.0 / 5000.0
        lo = 0.1 * (1 - alpha) + 0.5 * alpha
        assert lo == pytest.approx(0.57992, abs=1e-5)
        rng = substream(6, 0)
        x, _, truth = reg1d_at(np.full(4000, 6000.0), rng)
        from opscal.datagen import _periodic_rule

        even = _periodic_rule(x, 0.0, 1.0) == 0.0
        assert np.allclose(truth[even], lo)

    def test_outcomes_consistent_with_truth(self):
        rng = substream(7, 0)
        _, y, truth = reg1d_at(np.full(100_000, 2500.0), rng)
        assert abs(float(np.mean(y)) - float(np.mean(truth))) <= 0.01


class TestCovMulti:
    def test_unit_principal_axis(self):
        delta = math.pi / 6000.0
        rng = substream(8, 0)
        t = np.arange(1, 6001, dtype=float)
        g1 = rng.normal(size=10)
        v1 = g1 / np.linalg.norm(g1)
        g2 = rng.normal(size=10)
        g2 -= (g2 @ v1) * v1
        v2 = g2 / np.linalg.norm(g2)
        u = np.outer(np.cos(delta * t), v1) + np.outer(np.sin(delta * t), v2)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0)

    def test_feature_dimension_55(self):
        spec = default_spec("covmulti", seed=0)
        stream = generate(spec)
        assert pairwise_expand(stream.x).shape[1] == 55

    def test_delta_zero_constant_axis(self):
        rng = substream(9, 0)
        x, _, _ = covmulti_at(np.arange(1, 101, dtype=float), 0.0, rng)
        assert x.shape == (100, 10)

    def test_monte_carlo_covariance(self):
        # at fixed t the sample covariance matches I + 10 u u^T entrywise
        delta = math.pi / 6000.0
        t_fixed = 1234.0
        rng = substream(10, 0)
        x, _, _ = covmulti_at(np.full(100_000, t_fixed), delta, rng)
        # reconstruct u from the same substream draws
        rng2 = substream(10, 0)
        g1 = rng2.normal(size=10)
        v1 = g1 / np.linalg.norm(g1)
        g2 = rng2.normal(size=10)
        g2 -= (g2 @ v1) * v1
        v2 = g2 / np.linalg.norm(g2)
        u = math.cos(delta * t_fixed) * v1 + math.sin(delta * t_fixed) * v2
        target = np.eye(10) + 10.0 * np.outer(u, u)
        sample = np.cov(x, rowvar=False)
        assert np.max(np.abs(sample - target)) <= 0.15

    def test_outcomes_consistent_with_truth(self):
        rng = substream(11, 0)
        _, y, truth = covmulti_at(np.full(100_000, 500.0), 0.0, rng)
        assert abs(float(np.mean(y)) - float(np.mean(truth))) <= 0.01


class TestLabelMulti:
    def test_final_prior_at_canonical_delta(self):
        delta = 0.4 / 6000.0
        assert 0.5 + delta * 6000.0 == pytest.approx(0.9)
        rng = substream(12, 0)
        _, y, _ = labelmulti_at(np.full(100_000, 6000.0), delta, rng)
        assert float(np.mean(y)) == pytest.approx(0.9, abs=0.01)

    def test_zero_delta_constant_prior(self):
        rng = substream(13, 0)
        _, y, _ = labelmulti_at(np.full(100_000, 3000.0), 0.0, rng)
        assert float(np.mean(y)) == pytest.approx(0.5, abs=0.01)

    def test_truth_at_halfway_point(self):
        from opscal.core import sigmoid

        # x = e1/2 with prior 0.5: sigmoid(0 + 0.5 - 0.5) = 0.5
        assert sigmoid(0.0 + 0.5 - 0.5) == 0.5

    def test_prior_out_of_range_rejected(self):
        rng = substream(14, 0)
        with pytest.raises(ValueError):
            labelmulti_at(np.array([10_000.0]), 0.4 / 6000.0 * 10, rng)


class TestTrainBaseLogistic:
    def test_symmetric_data_zero_weights(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
        X[:, 1] = 1.0
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = train_base_logistic(X, y)
        assert np.allclose(model.w, 0.0, atol=1e-6)
        assert np.allclose(base_scores(model, X), 0.5)

    def test_generative_recovery(self):
        rng = np.random.default_rng(15)
        from opscal.core import sigmoid

        w_star = np.array([1.2, -0.7, 0.3])
        X = np.column_stack([rng.normal(size=(50_000, 2)), np.ones(50_000)])
        p = sigmoid(X @ w_star)
        y = (rng.random(50_000) < p).astype(float)
        model = train_base_logistic(X, y)
        mae = float(np.mean(np.abs(sigmoid(X @ model.w) - p)))
        assert mae <= 0.02

    @pytest.mark.parametrize("kind", ["cov1d", "label1d", "reg1d", "covmulti", "labelmulti"])
    def test_stream_build_fits_through_the_scalers_module(self, monkeypatch, kind):
        # a wrapper on opscal.scalers.newton_logistic (as the benchmark's
        # iteration counter is) sees the base-model fit of every stream build
        import opscal.scalers

        calls = []
        fit = opscal.scalers.newton_logistic
        monkeypatch.setattr(opscal.scalers, "newton_logistic", lambda *a, **kw: calls.append(1) or fit(*a, **kw))
        build_scored_stream(replace(default_spec(kind, seed=2), T_train=300, T_test=300, T_cal=0))
        assert len(calls) == 1

    def test_cov1d_train_block_accuracy(self):
        spec = default_spec("cov1d", seed=0)
        stream = build_scored_stream(spec)
        acc = true_accuracy(stream.scores[:1000], stream.truth[:1000])
        assert acc >= 0.85


class TestScoredStreams:
    def test_bit_reproducible(self):
        for kind in ("cov1d", "label1d", "reg1d", "covmulti", "labelmulti"):
            s1 = build_scored_stream(default_spec(kind, seed=77))
            s2 = build_scored_stream(default_spec(kind, seed=77))
            assert np.array_equal(s1.scores, s2.scores)
            assert np.array_equal(s1.y, s2.y)
            assert np.array_equal(s1.truth, s2.truth)

    def test_scores_clipped(self):
        s = build_scored_stream(default_spec("cov1d", seed=3))
        assert np.all((s.scores >= CLIP_LO) & (s.scores <= CLIP_HI))

    def test_truth_in_unit_interval(self):
        for kind in ("cov1d", "label1d", "reg1d", "covmulti", "labelmulti"):
            s = build_scored_stream(default_spec(kind, seed=5))
            assert np.all((s.truth >= 0.0) & (s.truth <= 1.0))

    def test_adversarial_scores_uniform(self):
        s = build_scored_stream(default_spec("adversarial", seed=1))
        assert len(s.scores) == 10_000
        assert np.all((s.scores >= CLIP_LO) & (s.scores <= CLIP_HI))

    def test_canonical_sizes(self):
        s = default_spec("cov1d")
        assert s.T_train == 1000 and s.T_total == 6000
        s = default_spec("covmulti")
        assert s.T_cal == 1000 and s.W == 500 and s.T_test == 5000

    @pytest.mark.parametrize("field, bad", [("T_train", -1), ("T_cal", -5), ("T_test", 0)])
    def test_bad_sizes_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be"):
            replace(default_spec("labelmulti"), **{field: bad})

    CSV = dict(kind="csv", csv_path="x.csv", label_column="y")

    @pytest.mark.parametrize("fields, match", [
        (dict(kind="labelmulti", W=0), "W must be >= 1"),
        (dict(kind="label1d", T_train=0), "T_train must be >= 1: the label1d stream"),
        (dict(CSV, T_train=0), "T_train must be >= 1: the csv stream"),
    ], ids=["W", "synthetic-T_train", "csv-T_train"])
    def test_inconsistent_sizes_rejected(self, fields, match):
        # at construction, before any stream is generated or fitted
        base = default_spec(fields["kind"]) if fields["kind"] != "csv" else StreamSpec(**self.CSV)
        with pytest.raises(ValueError, match=match):
            replace(base, **fields)

    def test_no_training_block_where_no_base_model_trains(self):
        assert StreamSpec(kind="adversarial", T_train=0).T_train == 0
        assert StreamSpec(**self.CSV, T_train=0, score_column="s").T_train == 0

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be finite"):
            replace(default_spec("covmulti"), delta=delta)

    @pytest.mark.parametrize("fields", [
        dict(delta=1e-3),  # prior 6.5 at t = T_total
        dict(delta=-1e-3),  # prior -5.5 at t = T_total
        dict(delta=0.4 / 6000.0, T_test=6500),  # prior exactly 1 at t = T_total = 7500
        dict(delta=-0.5),  # prior exactly 0 at t = 1
    ], ids=["above-one", "below-zero", "reaches-one", "zero-at-first-step"])
    def test_labelmulti_prior_leaving_unit_interval_rejected(self, fields):
        # at construction, before any stream is drawn
        with pytest.raises(ValueError, match=r"labelmulti prior 0.5 \+ delta\*t must lie in \(0, 1\)"):
            StreamSpec(kind="labelmulti", **fields)

    def test_labelmulti_prior_inside_unit_interval_accepted(self):
        spec = default_spec("labelmulti")
        assert 0.5 + spec.delta * spec.T_total == pytest.approx(0.9)
        assert replace(spec, delta=-spec.delta).delta == -spec.delta  # prior 0.1 at the end
        assert StreamSpec(kind="labelmulti", delta=0.4999 / 6000.0).T_total == 6000

    @pytest.mark.parametrize("kind", ["cov1d", "label1d", "reg1d", "adversarial", "csv"])
    def test_delta_rejected_where_nothing_drifts(self, kind):
        # the sampler would ignore it, yet report.json would record it
        spec = StreamSpec(kind="csv", csv_path="x.csv", label_column="y") if kind == "csv" else default_spec(kind)
        with pytest.raises(ValueError, match=f"stream kind '{kind}' does not drift"):
            replace(spec, delta=0.5)
        assert replace(spec, delta=0.0) == spec


# Digests of every synthetic kind's canonical scored stream (scores, outcomes,
# truth), recorded before the kinds shared one generator. They are computed
# in a child process with one BLAS thread: the 49-feature base-model fits of
# cov1d and reg1d round differently under a threaded BLAS.
GOLDEN_STREAMS = {
    ("cov1d", 0, True): "03f6db8c3e392d4e03c76c747bb6175ef435d1a9bf239cffb1a1d4f4f3834c96",
    ("cov1d", 1, True): "c30b2dc9c9f651a04e6c682a48c12b57a311f17e4af97864ef9f97daa96dd1c2",
    ("label1d", 0, True): "f5ebf3a0ed23588338b651c6e308dc8ce2f922fe4b54c1e731350c5aaa405dee",
    ("label1d", 1, True): "f56407bc999d792ebe33a743101db8fd09dd63d36c9f61592b84162543c7bd91",
    ("reg1d", 0, True): "97dfffafec9a74459b4ed57d62222aeeb16527f6583a6391dc4a503a8e747669",
    ("reg1d", 1, True): "6cae511780d9a50e52e5349b8b348fb2fc374d90f13f4ff7e36d2e611c7e0b45",
    ("covmulti", 0, True): "89a3ad86a4087f30d48b809bc5257042c8a34ab631c228260e523225d5ed498c",
    ("covmulti", 0, False): "8dc31d1c505c4c08974f9ade1fddc70f4df8fda370cdf7e72a025d585edab8c5",
    ("covmulti", 1, True): "efa132fbfbe1b987f923fe4ea3345c04b5750475202962cee713ff5b6b4eed8f",
    ("covmulti", 1, False): "153f965ed215f9cb66a533451d7a1a7dd167765b90e4d44d003f2055ef999a7c",
    ("labelmulti", 0, True): "1e663b5b633f1a7e7854dea9fa1c97b954f92d8b2719620bfdd3c76b09117d58",
    ("labelmulti", 0, False): "a4c698404383fb267fdaa78bcfc0e4e830473c43fce6f1c1302318ddb0004127",
    ("labelmulti", 1, True): "b7bdcb4fabedc69378ba2d7be217b3fd6e87a3be56de3e382bf1ae802592fe15",
    ("labelmulti", 1, False): "322633e4838feb2716faec887d77aa224094f3770c78c889fdd1fe7df625cd00",
}

STREAM_DIGESTS = """
import hashlib, json, sys
import numpy as np
from opscal.datagen import build_scored_stream, default_spec
out = []
for kind, seed, drift in json.loads(sys.argv[1]):
    s = build_scored_stream(default_spec(kind, seed, drift))
    h = hashlib.sha256()
    for a in (s.scores, s.y, s.truth):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    out.append(h.hexdigest())
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def stream_digests():
    keys = list(GOLDEN_STREAMS)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", STREAM_DIGESTS, json.dumps(keys)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(keys, json.loads(proc.stdout)))


class TestGoldenStreams:
    @pytest.mark.parametrize("key", list(GOLDEN_STREAMS), ids=lambda k: "-".join(map(str, k)))
    def test_scored_stream_digest(self, stream_digests, key):
        assert stream_digests[key] == GOLDEN_STREAMS[key]


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


class TestIngestCsv:
    def _make(self, tmp_path, n=60, cluster=False, missing=0, bad=""):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(n):
            sortv = (100.0 if i >= n // 2 else 0.0) if cluster else float(i * 5)
            rows.append([sortv, float(rng.normal()), int(rng.integers(0, 2))])
        for _ in range(missing):
            rows.append([1.0, bad, 1])
        path = tmp_path / "data.csv"
        write_csv(path, ["age", "feat", "label"], rows)
        return path

    def _spec(self, path, **kw):
        base = dict(kind="csv", seed=1, csv_path=str(path), label_column="label",
                    T_train=10, T_cal=10, W=5)
        base.update(kw)
        return StreamSpec(**base)

    def test_sort_with_wide_gaps_equals_plain_sort(self):
        # gaps > 2 mean the +-1 noise cannot reorder anything
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as d:
            path = self._make(pathlib.Path(d))
            spec = self._spec(path, sortby_column="age")
            s = build_scored_stream(spec)
            # the sort key was row index * 5, so labels follow original order
            raw = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0,))
            assert np.all(np.diff(raw[np.argsort(raw)]) >= 0)
            s2 = build_scored_stream(spec)
            assert np.array_equal(s.y, s2.y)

    def test_spec_is_the_only_description(self, tmp_path):
        # the stream's spec names the seed and sort column it was built with:
        # sort keys 5 apart keep the file's row order under the +-1 noise
        path = self._make(tmp_path)
        spec = self._spec(path, seed=5, sortby_column="age")
        s = ingest_csv(spec)
        labels = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2,))
        assert s.spec == replace(spec, T_test=len(labels) - spec.T_train)
        assert np.array_equal(s.y, labels)

    def test_shuffle_reproducible(self):
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as d:
            path = self._make(pathlib.Path(d))
            a = build_scored_stream(self._spec(path))
            b = build_scored_stream(self._spec(path))
            assert np.array_equal(a.y, b.y)
            c = build_scored_stream(self._spec(path, seed=2))
            assert not np.array_equal(a.y, c.y)

    def test_two_cluster_drift_ordering(self):
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as d:
            path = self._make(pathlib.Path(d), cluster=True)
            spec = self._spec(path, sortby_column="age")
            s = build_scored_stream(spec)
            # cluster-A (sort key 0) rows all precede cluster-B (key 100)
            raw_rows = np.loadtxt(path, delimiter=",", skiprows=1)
            n_a = int(np.sum(raw_rows[:, 0] == 0.0))
            assert len(s.y) == len(raw_rows)
            # recover the ordering by re-deriving it
            from opscal.datagen import P_SHUFFLE

            noisy = raw_rows[:, 0] + substream(1, P_SHUFFLE).integers(-1, 2, size=len(raw_rows))
            order = np.argsort(noisy, kind="stable")
            assert np.all(raw_rows[order][:n_a, 0] == 0.0)

    def test_missing_rows_dropped_and_counted(self):
        # empty, non-numeric and non-finite cells all drop their row
        import tempfile, pathlib

        for bad in ("", "x", "nan", "inf", "-inf"):
            with tempfile.TemporaryDirectory() as d:
                path = self._make(pathlib.Path(d), missing=3, bad=bad)
                s = build_scored_stream(self._spec(path))
                assert s.n_dropped_rows == 3
                assert len(s.y) == 60 and np.all(np.isfinite(s.scores))

    def test_score_column_bypasses_training(self):
        import tempfile, pathlib

        rng = np.random.default_rng(1)
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "scored.csv"
            rows = [[float(rng.random()), int(rng.integers(0, 2))] for _ in range(50)]
            write_csv(path, ["score", "label"], rows)
            spec = StreamSpec(kind="csv", seed=0, csv_path=str(path), label_column="label",
                              score_column="score", T_train=5, T_cal=5, W=5)
            s = build_scored_stream(spec)
            assert s.base is None
            assert np.all((s.scores >= CLIP_LO) & (s.scores <= CLIP_HI))

    def test_score_column_checked_then_clipped(self, tmp_path):
        rng = np.random.default_rng(2)
        raw = np.concatenate([[0.0, 1.0, 0.005, 0.995], rng.random(46)])
        labels = rng.integers(0, 2, size=len(raw))
        path = tmp_path / "scored.csv"
        spec = StreamSpec(kind="csv", seed=0, csv_path=str(path), label_column="label",
                          score_column="score", T_train=5, T_cal=5, W=5)
        write_csv(path, ["score", "label"], [[s, int(y)] for s, y in zip(raw, labels)])
        s = ingest_csv(spec)
        assert np.array_equal(np.sort(s.scores), np.sort(np.clip(raw, CLIP_LO, CLIP_HI)))
        for bad in (1.5, -0.2):
            write_csv(path, ["score", "label"],
                      [[bad if i == 7 else s, int(y)] for i, (s, y) in enumerate(zip(raw, labels))])
            with pytest.raises(ValueError, match=r"scores must lie in \[0, 1\]"):
                ingest_csv(spec)

    def test_error_paths(self):
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as d:
            path = self._make(pathlib.Path(d), n=12)
            with pytest.raises(ValueError, match="not in CSV header"):
                ingest_csv(self._spec(path, label_column="nope"))
            with pytest.raises(ValueError, match="reads csv streams"):
                ingest_csv(default_spec("cov1d"))
            with pytest.raises(ValueError, match="need at least"):
                build_scored_stream(self._spec(path, T_train=50, T_cal=50, W=50))
            bad = pathlib.Path(d) / "bad.csv"
            write_csv(bad, ["a", "label"], [[1.0, 2] for _ in range(40)])
            with pytest.raises(ValueError, match="binary"):
                ingest_csv(self._spec(bad))
