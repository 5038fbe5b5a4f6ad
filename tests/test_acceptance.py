"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Heavy runs are shared
through module-scoped fixtures; stated runtime budgets are asserted.
"""

import time

import numpy as np
import pytest

from opscal.core import BinningScheme
from opscal.datagen import default_spec
from opscal.metrics import metric_report
from opscal.pipeline import (
    ExperimentConfig,
    check_adversarial_calibration,
    check_climatology,
    check_hedging_sharpness_and_brier,
    check_regret_bound,
    check_tracking_sharpness,
    run_pipeline,
    run_truth_windows,
)


def report(num, desc, ok, details):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}: {details}")
    assert ok, f"criterion {num} failed: {details}"


@pytest.fixture(scope="module")
def ordering_runs():
    """Criterion 8/9 runs: 100 replications on both drifting multivariate
    streams with the calibeating pipeline."""
    t0 = time.time()
    out = {}
    for kind in ("covmulti", "labelmulti"):
        cfg = ExperimentConfig(
            stream=default_spec(kind, seed=0, drift=True),
            methods=("BM", "FPS", "WPS", "OPS", "TOPS"),
            epsilon=0.1,
            replications=100,
            master_seed=2024,
            eval_stride=1000,
        )
        out[kind] = run_pipeline(cfg)
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def adversarial_rows():
    t0 = time.time()
    rows = check_adversarial_calibration(seeds=100)
    return {"rows": {r.name: r for r in rows}, "elapsed": time.time() - t0}


class TestCriterion1CovariateDriftFlip:
    def test_cov1d_flip(self):
        t0 = time.time()
        table = run_truth_windows(
            "cov1d", seeds=range(20), windows_global=((1, 1000), (5501, 6000)),
            methods=("BM", "OPS"),
        )
        elapsed = time.time() - t0
        base = table["BM"][(5501, 6000)]
        ops = table["OPS"][(5501, 6000)]
        ok = (
            base["true_accuracy"] <= 0.35
            and base["true_ce"] >= 0.50
            and ops["true_accuracy"] >= 0.80
            and ops["true_ce"] <= 0.20
            and elapsed <= 60.0
        )
        report(
            1, "covariate-drift flip (cov1d, window 5501-6000, 20 seeds)", ok,
            f"base acc={base['true_accuracy']:.3f} (<=0.35) ce={base['true_ce']:.3f} (>=0.50); "
            f"OPS acc={ops['true_accuracy']:.3f} (>=0.80) ce={ops['true_ce']:.3f} (<=0.20); "
            f"{elapsed:.1f}s (<=60)",
        )


class TestCriterion2LabelDrift:
    def test_label1d_adaptation(self):
        t0 = time.time()
        table = run_truth_windows(
            "label1d", seeds=range(20), windows_global=((5501, 6000),),
            methods=("BM", "OPS"),
        )
        elapsed = time.time() - t0
        base = table["BM"][(5501, 6000)]
        ops = table["OPS"][(5501, 6000)]
        ok = (
            ops["true_accuracy"] >= 0.88
            and ops["true_ce"] <= 0.10
            and base["true_ce"] >= 0.30
            and elapsed <= 60.0
        )
        report(
            2, "label-drift adaptation (label1d, window 5501-6000, 20 seeds)", ok,
            f"OPS acc={ops['true_accuracy']:.3f} (>=0.88) ce={ops['true_ce']:.3f} (<=0.10); "
            f"base ce={base['true_ce']:.3f} (>=0.30); {elapsed:.1f}s (<=60)",
        )


class TestCriterion3RegressionDrift:
    def test_reg1d_adaptation(self):
        t0 = time.time()
        table = run_truth_windows(
            "reg1d", seeds=range(20), windows_global=((5501, 6000),),
            methods=("BM", "OPS"),
        )
        elapsed = time.time() - t0
        base = table["BM"][(5501, 6000)]
        ops = table["OPS"][(5501, 6000)]
        ok = ops["true_ce"] <= 0.10 and base["true_ce"] >= 0.25 and elapsed <= 60.0
        report(
            3, "regression-drift adaptation (reg1d, window 5501-6000, 20 seeds)", ok,
            f"OPS ce={ops['true_ce']:.3f} (<=0.10); base ce={base['true_ce']:.3f} (>=0.25); "
            f"{elapsed:.1f}s (<=60)",
        )


class TestCriterion4RegretBound:
    def test_regret_never_exceeds_bound(self):
        t0 = time.time()
        rows = check_regret_bound(seeds=20)
        elapsed = time.time() - t0
        ok = all(r.passed for r in rows) and elapsed <= 120.0
        worst = max(r.measured - r.bound for r in rows)
        report(
            4, "online-Newton regret bound (4 synthetic configs, T=5000, 20 seeds)", ok,
            f"worst regret-bound excess {worst:.2f} (<=0); {elapsed:.1f}s (<=120)",
        )


class TestCriterion5TrackingSharpness:
    def test_per_run_guarantee_across_bin_widths(self):
        # the pipeline additionally asserts this on every replication it runs
        rows = check_tracking_sharpness(seeds=3)
        ok = all(r.passed for r in rows)
        worst = min(r.measured for r in rows)
        report(
            5, "tracking sharpness guarantee per run (eps in {0.05, 0.1, 0.2})", ok,
            f"worst margin {worst:.6f} (>=0), asserted inside every pipeline run as well",
        )


class TestCriterion6AdversarialCalibration:
    def test_hedged_calibrated_deterministic_not(self, adversarial_rows):
        rows = adversarial_rows["rows"]
        elapsed = adversarial_rows["elapsed"]
        hedged = rows["hedged-adversarial-ce"]
        det = rows["deterministic-adversarial-ce"]
        ok = hedged.passed and det.passed and elapsed <= 120.0
        report(
            6, "adversarial stream (T=10000, eps=0.1, 100 seeds)", ok,
            f"hedged mean CE {hedged.measured:.4f} (<= {hedged.bound:.2f}); "
            f"deterministic mean CE {det.measured:.4f} (>= 0.4); {elapsed:.1f}s (<=120)",
        )


class TestCriterion7HedgingBrier:
    def test_brier_guarantee_adversarial_and_synthetic(self, adversarial_rows):
        adv = adversarial_rows["rows"]["hedging-brier"]
        t0 = time.time()
        rows = [r for r in check_hedging_sharpness_and_brier(seeds=100)
                if r.name == "hedging-brier"]
        elapsed = time.time() - t0
        ok = adv.passed and all(r.passed for r in rows)
        worst = max([adv.measured - adv.bound] + [r.measured - r.bound for r in rows])
        report(
            7, "hedging Brier-score guarantee (adversarial + 4 synthetic, 100 seeds)", ok,
            f"worst slack excess {worst:.4f} (<=0) across {1 + len(rows)} stream configs; "
            f"synthetic part {elapsed:.1f}s",
        )


class TestCriterion8MethodOrdering:
    def test_final_ce_ordering(self, ordering_runs):
        details = []
        ok = ordering_runs["elapsed"] <= 600.0
        for kind in ("covmulti", "labelmulti"):
            rep = ordering_runs[kind]
            ce = {m: rep.ce_mean[m][-1] for m in rep.ce_mean}
            ok = ok and ce["TOPS"] < ce["OPS"] < ce["FPS"] and ce["TOPS"] < ce["WPS"]
            ok = ok and all(ce["TOPS"] < ce[m] for m in ("BM", "FPS", "WPS", "OPS"))
            details.append(
                f"{kind}: TOPS={ce['TOPS']:.4f} < OPS={ce['OPS']:.4f} < FPS={ce['FPS']:.4f}, "
                f"WPS={ce['WPS']:.4f}, BM={ce['BM']:.4f}"
            )
        report(
            8, "final-CE method ordering (100 replications, drifting streams)", ok,
            "; ".join(details) + f"; {ordering_runs['elapsed']:.1f}s (<=600)",
        )


class TestCriterion9SmallSharpnessDrop:
    def test_tracking_costs_little_sharpness(self, ordering_runs):
        details = []
        ok = True
        for kind in ("covmulti", "labelmulti"):
            rep = ordering_runs[kind]
            drop = rep.shp_mean["OPS"][-1] - rep.shp_mean["TOPS"][-1]
            ok = ok and drop <= 0.02
            details.append(f"{kind}: SHP drop {drop:.4f}")
        report(9, "tracking sharpness drop <= 0.02 at the final timestamp", ok,
               "; ".join(details))


class TestCriterion10Climatology:
    def test_bernoulli_long_run(self):
        t0 = time.time()
        rows = check_climatology(seeds=20)
        elapsed = time.time() - t0
        r = rows[0]
        ok = r.passed
        report(
            10, "climatology (Bernoulli(0.37), T=5000, 20 seeds)", ok,
            f"{r.detail}: deviation {r.measured:.4f} (<=0.05); {elapsed:.1f}s",
        )


class TestCriterion11MetricIdentities:
    def test_fuzzed_identities(self):
        rng = np.random.default_rng(7777)
        epsilons = (0.05, 0.1, 0.2, 0.5)
        worst_eq = 0.0
        worst_ineq = -np.inf
        for k in range(1000):
            T = int(rng.integers(1, 501))
            p = rng.random(T)
            y = (rng.random(T) < rng.random()).astype(float)
            eps = epsilons[k % 4]
            rep = metric_report(p, y, BinningScheme(eps))
            worst_eq = max(worst_eq, abs(rep.refinement - (rep.ybar - rep.shp)))
            worst_ineq = max(worst_ineq, rep.refinement - (rep.brier + eps + eps**2 / 4.0))
        ok = worst_eq <= 1e-9 and worst_ineq <= 1e-9
        report(
            11, "metric identities on 1000 fuzzed traces", ok,
            f"max |refinement - (ybar - SHP)| = {worst_eq:.2e} (<=1e-9); "
            f"max refinement - Brier-slack = {worst_ineq:.2e} (<=1e-9)",
        )


class TestCriterion12OracleEquivalences:
    def test_projection_vs_dense_grid(self):
        from opscal.ons import project_ellipsoid

        rng = np.random.default_rng(123)
        angles = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        worst = -np.inf
        for _ in range(100):
            M = rng.normal(size=(2, 2))
            A = M @ M.T + 0.05 * np.eye(2)
            radius = float(rng.uniform(0.5, 2.0))
            t = rng.normal(size=2)
            t *= rng.uniform(1.5, 4.0) * radius / np.linalg.norm(t)  # infeasible
            out = project_ellipsoid(A, t, radius)
            cand = radius * circle
            diffs = t - cand
            grid_best = float(np.min(np.einsum("ij,jk,ik->i", diffs, A, diffs)))
            ours = float((t - out) @ A @ (t - out))
            worst = max(worst, ours - grid_best)
        ok_proj = worst <= 1e-4

        # windowed learner at W=1 == follow-the-leader per-step refits
        from opscal.scalers import fit_platt_batch, platt_apply, windowed_run

        rng = np.random.default_rng(321)
        scores = rng.uniform(0.01, 0.99, 200)
        ys = (rng.random(200) < platt_apply((1.2, -0.4), scores)).astype(float)
        t_cal = 20
        col = windowed_run(fit_platt_batch, platt_apply, fit_platt_batch(scores[:t_cal], ys[:t_cal]),
                           t_cal, 1, scores, ys)
        worst_ftl = 0.0
        for t in range(t_cal + 1, 201):
            ftl = platt_apply(fit_platt_batch(scores[: t - 1], ys[: t - 1]), scores[t - 1])
            worst_ftl = max(worst_ftl, abs(col[t - t_cal - 1] - ftl))
        ok_ftl = worst_ftl <= 1e-6

        # batch Platt fit beats a 41x41 grid oracle on 20 random datasets
        from opscal.core import log_loss, sigmoid, logit

        rng = np.random.default_rng(213)
        grid = np.linspace(-5.0, 5.0, 41)
        worst_grid = -np.inf
        for _ in range(20):
            n = int(rng.integers(30, 200))
            s = rng.uniform(0.01, 0.99, n)
            yy = (rng.random(n) < platt_apply(rng.normal(size=2), s)).astype(float)
            fit = fit_platt_batch(s, yy)
            fit_loss = float(np.mean(log_loss(platt_apply(fit, s), yy)))
            z = logit(s)
            best = min(
                float(np.mean(log_loss(sigmoid(a * z + b), yy)))
                for a in grid for b in grid
            )
            worst_grid = max(worst_grid, fit_loss - best)
        ok_grid = worst_grid <= 1e-9

        ok = ok_proj and ok_ftl and ok_grid
        report(
            12, "oracle equivalences", ok,
            f"projection-vs-grid gap {worst:.2e} (<=1e-4); "
            f"W=1 vs FTL gap {worst_ftl:.2e} (<=1e-6); "
            f"fit-vs-grid excess {worst_grid:.2e} (<=0)",
        )
