import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from opscal import pipeline
from opscal.calibeating import CalibeatingInvariantError
from opscal.core import BinningScheme
from opscal.datagen import (
    BaseModelWeights,
    LabeledStream,
    ScoredStream,
    StreamSpec,
    default_spec,
)
from opscal.pipeline import (
    ClimatologyReport,
    ExperimentConfig,
    RunReport,
    check_climatology,
    dump_stream,
    eval_timestamps,
    run_climatology,
    run_pipeline,
    run_replication,
    run_theorem_suite,
    run_truth_windows,
)
from opscal.scalers import HistogramBinningModel


def small_spec(kind="labelmulti", **kw):
    spec = default_spec(kind, seed=0)
    spec = replace(spec, T_train=300, T_test=1200, T_cal=300, W=150)
    return replace(spec, **kw)


def quick_config(**kw):
    base = dict(
        stream=small_spec(),
        methods=("BM", "FPS", "WPS", "OPS", "TOPS", "HOPS"),
        replications=2,
        master_seed=3,
        eval_stride=300,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            quick_config(methods=("OPS", "NOPE"))

    def test_empty_methods(self):
        with pytest.raises(ValueError, match="nonempty"):
            quick_config(methods=())

    def test_calibration_methods_need_tcal(self):
        with pytest.raises(ValueError, match="calibration prefix"):
            quick_config(stream=small_spec(T_cal=0), methods=("FPS",))

    def test_adversarial_method_restriction(self):
        spec = default_spec("adversarial", seed=0)
        with pytest.raises(ValueError, match="adversarial"):
            quick_config(stream=spec, methods=("BM", "OPS"))

    @pytest.mark.parametrize("kind, methods", [
        ("cov1d", ("BM", "OPS", "TOPS", "HOPS")),
        ("label1d", ("BM", "OPS", "TOPS", "HOPS")),
        ("reg1d", ("BM", "OPS", "TOPS", "HOPS")),
        ("covmulti", ("BM", "FPS", "WPS", "OPS", "TOPS", "HOPS")),
        ("labelmulti", ("BM", "FPS", "WPS", "OPS", "TOPS", "HOPS")),
        ("adversarial", ("OPS", "HOPS")),
    ])
    def test_default_methods_fit_every_canonical_stream(self, kind, methods):
        assert ExperimentConfig(stream=default_spec(kind)).methods == methods

    @pytest.mark.parametrize("eps", [0.3, 0.07])
    def test_epsilon_with_last_midpoint_above_one(self, eps):
        with pytest.raises(ValueError, match="last bin midpoint"):
            quick_config(epsilon=eps)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.25, 0.5, 1.0])
    def test_epsilon_accepted(self, eps):
        assert quick_config(epsilon=eps).epsilon == eps

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_epsilon_outside_unit_interval(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            quick_config(epsilon=eps)

    @pytest.mark.parametrize("stride", [0, -5])
    def test_eval_stride_must_be_positive(self, stride):
        with pytest.raises(ValueError, match="eval_stride"):
            quick_config(eval_stride=stride)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="workers"):
            quick_config(workers=workers)

    @pytest.mark.parametrize("W, methods", [
        (0, ("WPS",)), (0, ("WBS",)), (0, ("WHB",)), (0, ("TWHB",)),
        (0, ("BM", "OPS")),  # W also places the first snapshot at T_cal + 2W
        (-4, ("BM", "OPS")),
    ])
    def test_window_must_be_positive(self, W, methods):
        with pytest.raises(ValueError, match="W must be >= 1"):
            quick_config(stream=small_spec(W=W), methods=methods)

    def test_stream_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            eval_timestamps(T=100, t_cal=50, window=100, stride=10)

    def test_timestamps_include_horizon(self):
        ts = eval_timestamps(T=1200, t_cal=300, window=150, stride=300)
        assert ts[0] == 600 and ts[-1] == 1200


class TestRunReplication:
    def test_bm_column_is_score_passthrough(self):
        spec = small_spec(seed=11)
        cols, ys, truth, _ = run_replication(spec, ("BM",), 0.1)
        from opscal.datagen import build_scored_stream

        stream = build_scored_stream(spec)
        assert np.array_equal(cols["BM"], stream.test_scores()[spec.T_cal:])

    def test_bm_independent_of_epsilon_and_methods(self):
        spec = small_spec(seed=12)
        a, _, _, _ = run_replication(spec, ("BM",), 0.1)
        b, _, _, _ = run_replication(spec, ("BM", "OPS", "TOPS"), 0.2)
        assert np.array_equal(a["BM"], b["BM"])

    def test_all_thirteen_methods_run(self):
        spec = small_spec(seed=13)
        methods = ("BM", "FPS", "WPS", "OPS", "TOPS", "HOPS",
                   "FBS", "WBS", "OBS", "TOBS", "HOBS", "WHB", "TWHB")
        cols, ys, truth, diag = run_replication(spec, methods, 0.1)
        T_emit = spec.T_test - spec.T_cal
        assert set(cols) == set(methods)
        for m, col in cols.items():
            assert len(col) == T_emit
            assert np.all((col >= 0.0) & (col <= 1.0)), m
        assert "OPS_regret" in diag and "OBS_regret" in diag

    def test_forecast_dependencies_computed_silently(self):
        # TOPS alone still requires the online scaler internally
        spec = small_spec(seed=14)
        cols, _, _, _ = run_replication(spec, ("TOPS",), 0.1)
        assert set(cols) == {"TOPS"}

    @pytest.mark.parametrize("methods", [("WPS",), ("BM", "OPS")])
    def test_calibration_prefix_longer_than_test_stream_rejected(self, methods):
        # before the stream is built, whichever methods would read the prefix
        with pytest.raises(ValueError, match=r"T_cal \(1201\) must not exceed T_test \(1200\)"):
            run_replication(small_spec(T_cal=1201), methods, 0.1)

    def test_adversarial_replication(self):
        spec = replace(default_spec("adversarial", seed=1), T_test=2000)
        cols, ys, truth, _ = run_replication(spec, ("OPS", "HOPS"), 0.1)
        assert set(cols) == {"OPS", "HOPS"}
        assert truth is None
        assert set(np.unique(ys)) <= {0.0, 1.0}

    def test_tracking_margin_violation_raises(self, monkeypatch):
        # a perfectly sharp expert against a "tracker" that always says 0.5:
        # SHP 0.5 vs 0.25 exceeds the slack, so the guarantee check fires
        ys = (np.random.default_rng(3).random(5000) < 0.5).astype(float)
        scheme = BinningScheme(0.1)
        assert len(pipeline._tracked("TOPS", ys, ys, scheme)) == 5000  # the real tracker passes
        monkeypatch.setattr(pipeline, "tracking_run", lambda expert, ys, scheme: np.full(len(ys), 0.5))
        with pytest.raises(CalibeatingInvariantError, match=r"TOPS: SHP\(tracked\) 0\.25.*SHP\(expert\) 0\.5"):
            pipeline._tracked("TOPS", ys, ys, scheme)


ALL_METHODS = ("BM", "FPS", "WPS", "OPS", "TOPS", "HOPS",
               "FBS", "WBS", "OBS", "TOBS", "HOBS", "WHB", "TWHB")


def replication_digest(spec, methods):
    """SHA-256 over every column, the outcomes, the truth and the diag
    values run_replication returns."""
    cols, ys, truth, diag = run_replication(spec, methods, 0.1)
    h = hashlib.sha256()
    for name in sorted(cols):
        h.update(name.encode())
        h.update(np.ascontiguousarray(cols[name], dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(ys, dtype=np.float64).tobytes())
    if truth is not None:
        h.update(np.ascontiguousarray(truth, dtype=np.float64).tobytes())
    for key in sorted(diag):
        h.update(key.encode())
        h.update(np.float64(diag[key]).tobytes())
    return h.hexdigest()


class TestGoldenReplication:
    """Digests recorded before the Platt and beta families shared one loop;
    any bit change in any column or diag value fails."""

    ADV = replace(default_spec("adversarial", seed=1), T_test=2000)

    @pytest.mark.parametrize("spec, methods, golden", [
        (small_spec(seed=13), ALL_METHODS,
         "f94b2aeca96b7b57430bcd6aa84520a01242bab07a612187603f4afaefeefcaf"),
        (small_spec("covmulti", seed=14), ("BM", "FPS", "WPS", "OPS", "TOPS", "HOPS"),
         "533994697344176bbcf32a05b4cea9760e54919ed5dc5d40af3430d192c2a554"),
        (ADV, ("OPS",), "1cebbea2fb4f57e2cccd70aa9b0a0940f2465b242f01903de5728bb598295799"),
        (ADV, ("HOPS",), "c2b6775dd5753873943fb3028e23586688732a87600faa4134e03f7ef9638725"),
        (ADV, ("OPS", "HOPS"), "4e923bd732efc11eb5d03748a35e83f6e4a85e2f3f4841699e331875937e646b"),
    ], ids=["labelmulti-all", "covmulti-default", "adv-OPS", "adv-HOPS", "adv-OPS-HOPS"])
    def test_replication_digest(self, spec, methods, golden):
        assert replication_digest(spec, methods) == golden


class TestBenchmarkPatchPoints:
    """The benchmark times layers by swapping these module-level names at
    run time; the pipeline must resolve each of them at call time."""

    PIPELINE_NAMES = ("run_replication", "build_scored_stream", "platt_apply", "beta_apply",
                      "fit_platt_batch", "fit_beta_batch", "calibration_error", "sharpness",
                      "metric_report", "line_plot_svg")
    KERNEL_NAMES = ("ons_pass", "tracking_pass", "hops_pass",
                    "hops_adversarial_pass", "ops_adversarial_pass")

    def test_every_swapped_name_sees_its_calls(self, monkeypatch, tmp_path):
        import opscal.kernels
        import opscal.pipeline

        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in self.PIPELINE_NAMES:
            count(opscal.pipeline, name)
        for name in self.KERNEL_NAMES:
            count(opscal.kernels, name)

        run_pipeline(quick_config(methods=ALL_METHODS, replications=1, output_dir=str(tmp_path / "a")))
        assert {k: calls.get(k) for k in ("run_replication", "ons_pass", "tracking_pass", "hops_pass")} == {
            "run_replication": 1, "ons_pass": 2, "tracking_pass": 3, "hops_pass": 2}
        adversarial = replace(default_spec("adversarial", seed=2), T_test=2000)
        for methods in (("OPS", "HOPS"), ("OPS",)):
            run_pipeline(ExperimentConfig(stream=adversarial, methods=methods, replications=1,
                                          eval_stride=500, output_dir=str(tmp_path / "b")))
        assert calls["hops_adversarial_pass"] == 1 and calls["ops_adversarial_pass"] == 1
        assert set(calls) == set(self.PIPELINE_NAMES + self.KERNEL_NAMES)


class TestRunPipeline:
    def test_report_shapes_and_order(self):
        cfg = quick_config()
        rep = run_pipeline(cfg)
        assert list(rep.ce_mean.keys()) == list(cfg.methods)
        for m in cfg.methods:
            assert rep.ce_mean[m].shape == rep.timestamps.shape
            assert rep.shp_std[m].shape == rep.timestamps.shape
            assert np.all(np.isfinite(rep.ce_mean[m]))

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_pipeline(quick_config(output_dir=str(out1)))
        run_pipeline(quick_config(output_dir=str(out2)))
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        assert any(n.endswith("_ce.csv") for n in names)
        for n in names:
            if n == "report.json":
                continue
            assert (out1 / n).read_bytes() == (out2 / n).read_bytes(), n
        assert json.loads((out1 / "report.json").read_text()) == json.loads(
            (out2 / "report.json").read_text()
        )

    def test_workers_match_inline(self):
        a = run_pipeline(quick_config(workers=1))
        b = run_pipeline(quick_config(workers=2))
        for m in a.ce_mean:
            assert np.array_equal(a.ce_mean[m], b.ce_mean[m])
            assert np.array_equal(a.shp_mean[m], b.shp_mean[m])

    def test_expected_files_written(self, tmp_path):
        cfg = quick_config(methods=("BM", "OPS"), output_dir=str(tmp_path / "out"))
        rep = run_pipeline(cfg)
        got = {os.path.basename(f) for f in rep.files}
        assert got == {
            "BM_ce.csv", "BM_shp.csv", "OPS_ce.csv", "OPS_shp.csv",
            "ce.svg", "shp.svg", "report.json",
        }
        header = open(os.path.join(tmp_path, "out", "OPS_ce.csv")).readline().strip()
        assert header == "t,mean,std"
        data = json.loads(open(os.path.join(tmp_path, "out", "report.json")).read())
        assert data["methods"] == ["BM", "OPS"]
        assert data["final"]["OPS"]["true_ce"] is not None

    def test_regret_diagnostics_satisfy_bound(self):
        rep = run_pipeline(quick_config(methods=("OPS",)))
        assert rep.diagnostics["OPS_regret_bound_satisfied"]

    def test_adversarial_pipeline_end_to_end(self):
        spec = replace(default_spec("adversarial", seed=4), T_test=2000)
        cfg = ExperimentConfig(stream=spec, methods=("OPS", "HOPS"),
                               replications=2, master_seed=9, eval_stride=500)
        rep = run_pipeline(cfg)
        assert rep.timestamps[0] == 1000 and rep.timestamps[-1] == 2000
        # hedging keeps the stream calibrated even though outcomes are hostile
        assert rep.ce_mean["HOPS"][-1] < 0.25
        # the deterministic scaler on ITS OWN adversarial stream collapses
        rep_det = run_pipeline(ExperimentConfig(stream=spec, methods=("OPS",),
                                                replications=2, master_seed=9,
                                                eval_stride=500))
        assert rep_det.ce_mean["OPS"][-1] > 0.4

    def test_adversarial_tcal_rejected(self):
        spec = replace(default_spec("adversarial", seed=4), T_cal=100)
        with pytest.raises(ValueError, match="T_cal"):
            ExperimentConfig(stream=spec, methods=("OPS",), replications=1)


class TestTruthWindows:
    def test_cov1d_table_shape(self):
        table = run_truth_windows("cov1d", seeds=range(2),
                                  windows_global=((1, 1000), (5501, 6000)),
                                  methods=("BM", "OPS"))
        assert set(table) == {"BM", "OPS"}
        # the train window exists for BM but not for OPS (starts at t=1001)
        assert (1, 1000) in table["BM"]
        assert (1, 1000) not in table["OPS"]
        assert (5501, 6000) in table["OPS"]
        row = table["OPS"][(5501, 6000)]
        assert 0.0 <= row["true_ce"] <= 1.0
        assert 0.0 <= row["true_accuracy"] <= 1.0

    def test_rejects_unsupported_method(self):
        with pytest.raises(ValueError, match="BM/OPS/OBS"):
            run_truth_windows("cov1d", seeds=[0], windows_global=((1, 10),),
                              methods=("TOPS",))

    @pytest.mark.parametrize("window", [(5900, 6500), (0, 10), (20, 10), (6001, 6001)])
    def test_rejects_window_outside_the_stream(self, monkeypatch, window):
        # labelmulti has T_total = 6000; the check comes before any stream is built
        built = []
        monkeypatch.setattr(pipeline, "build_scored_stream", lambda spec: built.append(spec))
        with pytest.raises(ValueError, match="1 <= lo <= hi <= T_total = 6000"):
            run_truth_windows("labelmulti", seeds=[0], windows_global=((1, 6000), window))
        assert built == []


class TestTheoremSuite:
    def test_quick_suite_passes_and_writes_csv(self, tmp_path):
        rows = run_theorem_suite(output_dir=str(tmp_path), quick=True)
        assert all(r.passed for r in rows), [
            (r.name, r.detail, r.measured, r.bound) for r in rows if not r.passed
        ]
        text = (tmp_path / "theorems.csv").read_text()
        assert text.splitlines()[0] == "check,detail,epsilon,T,seeds,measured,bound,direction,passed"
        assert len(text.splitlines()) == len(rows) + 1
        # the quick suite's output is pinned: a refactor of the checks must
        # leave every measured value and bound unchanged
        digest = hashlib.sha256((tmp_path / "theorems.csv").read_bytes()).hexdigest()
        assert digest == "8da546b4b56bf3c4a3c71fb4c1c5ca8d2819a2a8328e26bd6c49919b9afb9c21"

    def test_climatology_check_alone(self):
        rows = check_climatology(seeds=3, T=3000)
        assert rows[0].passed

    def test_degenerate_horizon_bounds_are_vacuous(self):
        # at T = 1 every guarantee slack exceeds 1, so the bounds hold trivially
        from opscal.metrics import (
            hedging_brier_slack,
            hedging_ce_bound,
            hedging_sharpness_slack,
            tracking_sharpness_slack,
        )

        for eps in (0.05, 0.1, 0.2):
            assert tracking_sharpness_slack(eps, 1) > 1.0
            assert hedging_sharpness_slack(eps, 1) > 1.0
            assert hedging_brier_slack(eps, 1) > 1.0
            assert hedging_ce_bound(eps, 1) > 1.0


class TestClimatologyRunner:
    def test_files_and_tail(self, tmp_path):
        rep = run_climatology(p=0.37, T=3000, replications=3, master_seed=0,
                              output_dir=str(tmp_path))
        assert abs(float(np.mean(rep.tail_means)) - 0.37) <= 0.06
        names = {os.path.basename(f) for f in rep.files}
        assert names == {"climatology_trace.csv", "climatology.svg", "climatology.json"}
        first = (tmp_path / "climatology_trace.csv").read_text().splitlines()
        assert first[0] == "t,forecast,y"
        assert len(first) == 3001

    def test_degenerate_single_step(self):
        rep = run_climatology(p=1.0, T=1, replications=1, master_seed=0)
        # the very first covariate-free forecast is the lowest bin midpoint
        assert rep.forecasts[0] == pytest.approx(0.05)

    @pytest.mark.parametrize("kwargs", [dict(p=1.5), dict(p=-0.1), dict(p=float("nan")),
                                        dict(T=0), dict(replications=0)])
    def test_bad_arguments_rejected_before_output(self, tmp_path, kwargs):
        out = tmp_path / "clim"
        with pytest.raises(ValueError):
            run_climatology(**{"T": 50, "replications": 1, **kwargs, "output_dir": str(out)})
        assert not out.exists()


class TestDumpStream:
    def test_dump_columns(self, tmp_path):
        path = str(tmp_path / "s.csv")
        spec = replace(default_spec("label1d", seed=2), T_train=50, T_test=100)
        dump_stream(spec, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "t,score,y,truth"
        assert len(lines) == 151
        first = lines[1].split(",")
        assert first[0] == "1"
        assert 0.01 <= float(first[1]) <= 0.99
        assert first[2] in ("0", "1")
        assert 0.0 <= float(first[3]) <= 1.0

    def test_adversarial_dump_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="adversar"):
            dump_stream(default_spec("adversarial"), str(tmp_path / "x.csv"))


@pytest.mark.parametrize("make", [
    lambda: ClimatologyReport(np.zeros(2), np.zeros(2), [0.5]),
    lambda: RunReport(quick_config(), np.arange(2), {}, {}, {}, {}),
    lambda: HistogramBinningModel(np.linspace(0.0, 1.0, 3), np.array([0.2, 0.8])),
    lambda: BaseModelWeights(np.zeros(2), True, 1),
    lambda: LabeledStream(np.zeros(2), np.zeros((2, 1)), np.zeros(2), None),
    lambda: ScoredStream(small_spec(), np.full(2, 0.5), np.zeros(2), None, None),
], ids=["ClimatologyReport", "RunReport",
        "HistogramBinningModel", "BaseModelWeights", "LabeledStream", "ScoredStream"])
def test_result_records_compare_by_identity(make):
    # the records hold numpy arrays, so a field-wise == would ask an array
    # for its truth value; they compare by identity instead
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a]
