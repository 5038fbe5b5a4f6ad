"""Cross-method behavioral checks on full pipeline runs: the beta-family
and histogram-binning columns must be wired to their own experts, and the
drift experiments must show the expected qualitative pattern everywhere,
not just at the final window."""

from dataclasses import replace

import numpy as np

from opscal.datagen import default_spec
from opscal.pipeline import ExperimentConfig, run_pipeline, run_replication, run_truth_windows


class TestBetaFamilyWiring:
    def test_tracking_improves_beta_scaler_ce(self):
        # 20 replications of the drifting stream: TOBS < OBS in mean final CE
        cfg = ExperimentConfig(
            stream=default_spec("labelmulti", seed=0, drift=True),
            methods=("OBS", "TOBS", "HOBS"),
            replications=20,
            master_seed=77,
            eval_stride=2000,
        )
        rep = run_pipeline(cfg)
        assert rep.ce_mean["TOBS"][-1] < rep.ce_mean["OBS"][-1]
        # hedging stays in the same ballpark as its own expert
        assert rep.ce_mean["HOBS"][-1] < rep.ce_mean["OBS"][-1] + 0.05
        assert rep.diagnostics["OBS_regret_bound_satisfied"]

    def test_beta_and_platt_calibeating_use_distinct_experts(self):
        spec = replace(default_spec("labelmulti", seed=3, drift=True),
                       T_train=300, T_test=1500, T_cal=300, W=200)
        cols, _, _, _ = run_replication(spec, ("TOPS", "TOBS", "HOPS", "HOBS"), 0.1)
        # distinct experts produce distinct tracked/hedged columns
        assert not np.array_equal(cols["TOPS"], cols["TOBS"])
        assert not np.array_equal(cols["HOPS"], cols["HOBS"])

    def test_windowed_histogram_binning_column(self):
        spec = replace(default_spec("labelmulti", seed=5, drift=False),
                       T_train=400, T_test=1600, T_cal=400, W=200)
        cols, ys, _, _ = run_replication(spec, ("WHB", "TWHB", "BM"), 0.1)
        from opscal.core import BinningScheme
        from opscal.metrics import calibration_error

        scheme = BinningScheme(0.1)
        # binning recalibration should not be wildly miscalibrated here
        assert calibration_error(cols["WHB"], ys, scheme) < calibration_error(
            cols["BM"], ys, scheme
        ) + 0.05
        assert not np.array_equal(cols["WHB"], cols["TWHB"])


class TestWindowedScheduleConsistency:
    def test_pipeline_wps_equals_stepwise_windowed(self):
        spec = replace(default_spec("labelmulti", seed=8, drift=False),
                       T_train=200, T_test=900, T_cal=200, W=100)
        cols, _, _, _ = run_replication(spec, ("WPS",), 0.1)

        from opscal.datagen import build_scored_stream
        from opscal.scalers import fit_platt_batch, platt_apply
        from test_scalers import reference_windowed_column

        stream = build_scored_stream(spec)
        ts, ty = stream.test_scores(), stream.test_y()
        stepwise, refits = reference_windowed_column(
            fit_platt_batch, platt_apply, fit_platt_batch(ts[: spec.T_cal], ty[: spec.T_cal]),
            spec.T_cal, spec.W, ts, ty)
        assert refits == list(range(spec.T_cal + spec.W, spec.T_test + 1, spec.W))
        assert cols["WPS"].tolist() == stepwise


class TestDriftPatternAcrossWindows:
    def test_cov1d_base_decays_monotonically(self):
        table = run_truth_windows(
            "cov1d", seeds=range(5),
            windows_global=((1501, 2000), (3501, 4000), (5501, 6000)),
            methods=("BM", "OPS"),
        )
        base_acc = [table["BM"][w]["true_accuracy"]
                    for w in ((1501, 2000), (3501, 4000), (5501, 6000))]
        # base model degrades as the covariates drift away
        assert base_acc[0] > base_acc[1] > base_acc[2]
        # early on the base model is fine and the online scaler tracks it
        early_gap = abs(table["OPS"][(1501, 2000)]["true_accuracy"] - base_acc[0])
        assert early_gap <= 0.1
        # at the end the scaler has flipped the inverted base model
        assert table["OPS"][(5501, 6000)]["true_accuracy"] > base_acc[2] + 0.3

    def test_label1d_ops_ce_improves_over_base_everywhere(self):
        table = run_truth_windows(
            "label1d", seeds=range(5),
            windows_global=((1501, 2000), (3501, 4000), (5501, 6000)),
            methods=("BM", "OPS"),
        )
        for w in ((1501, 2000), (3501, 4000), (5501, 6000)):
            assert table["OPS"][w]["true_ce"] <= table["BM"][w]["true_ce"] + 0.02


class TestSmallEdges:
    def test_periodic_rule_negative_covariates(self):
        from opscal.datagen import _periodic_rule

        # floor(-0.2) = -1 which has odd parity under nonnegative mod
        assert _periodic_rule(np.array([-1.0]), 0.1, 0.9)[0] == 0.9
        # floor(-1.2) = -2 (even), floor(-2.2) = -3 (odd)
        assert _periodic_rule(np.array([-6.0]), 0.1, 0.9)[0] == 0.1
        assert _periodic_rule(np.array([-11.0]), 0.1, 0.9)[0] == 0.9

    def test_pipeline_at_other_bin_widths(self):
        for eps in (0.05, 0.2):
            spec = replace(default_spec("labelmulti", seed=1, drift=False),
                           T_train=300, T_test=1200, T_cal=300, W=150)
            cfg = ExperimentConfig(stream=spec, methods=("OPS", "TOPS", "WHB"),
                                   replications=1, master_seed=4, epsilon=eps,
                                   eval_stride=300)
            rep = run_pipeline(cfg)
            assert np.all(np.isfinite(rep.ce_mean["WHB"]))
