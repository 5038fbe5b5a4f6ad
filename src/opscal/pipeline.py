"""Experiment pipelines: the joint online-calibration protocol, guarantee
suites, and the covariate-free hedging run.

One replication walks the test stream once and emits every requested
method's forecast in lockstep: the base model (BM) passes scores through;
FPS applies the calibration-prefix batch fit; WPS refits on the full prefix
every W steps; OPS/OBS advance one projected Newton step per observation
(consuming the stream from its first point); TOPS/HOPS (and TOBS/HOBS)
track or hedge over the online scaler's forecasts on the emitted steps;
WHB is the windowed histogram-binning baseline and TWHB its tracked
variant. The Platt and beta families run the same recipe from one table
(``_FAMILIES``), and every tracking, hedging and climatology run, here and
in the theorem checks, goes through ``calibeating.tracking_run`` or
``hops_run`` (climatology is ``hops_run`` over a constant expert). The
windowed columns (WPS, WBS, WHB) are applied once per refit segment, one
vectorised call each, since their parameters are constant between refits.
Metrics are cumulative over the emitted region and snapshotted at
evaluation timestamps from T_cal + 2W to the end of the stream: one
``metric_report`` pass per column gives its CE and SHP curves, and the
curves' last entries (the snapshot at T) are its final CE and SHP.
``run_replication`` runs one seed of an ``ExperimentConfig``, the one owner
of which runs are valid. The regret, tracking-sharpness, adversarial and
hedging sharpness/Brier checks each build one config on a canonical spec
(T_cal = 0 on the synthetic kinds) and run it over their seeds, so they
check what ``opscal run`` emits; regret is ``ons.regret``.

Replications use independent seed substreams keyed by replication index,
so results are identical whether they run inline or in a worker pool, and
two invocations with the same configuration produce byte-identical output
files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .calibeating import CalibeatingInvariantError, hops_run, tracking_run
from .core import BinningScheme, check_count, unit_float
from .datagen import (
    P_HEDGE,
    P_HEDGE_BETA,
    P_STREAM,
    StreamSpec,
    build_scored_stream,
    default_spec,
    replication_seed,
    substream,
)
from .metrics import (
    brier,
    calibration_error,
    hedging_brier_slack,
    hedging_ce_bound,
    hedging_sharpness_slack,
    metric_report,
    sharpness,
    tracking_sharpness_slack,
    true_accuracy,
    true_ce,
)
from .ons import OnsConfig, initial_theta, ons_regret_bound, regret
from .plotting import line_plot_svg
from .scalers import (
    beta_apply,
    fit_beta_batch,
    fit_histogram_binning,
    fit_platt_batch,
    online_scaler_run,
    platt_apply,
    platt_features,
    windowed_run,
)

# The paper's recipe over its two scaler families: each row names the
# family, its fixed, windowed, online, tracked and hedged methods, and the
# substream purpose of its hedging uniforms.
_FAMILIES = (
    ("platt", ("FPS", "WPS", "OPS", "TOPS", "HOPS"), P_HEDGE),
    ("beta", ("FBS", "WBS", "OBS", "TOBS", "HOBS"), P_HEDGE_BETA),
)
METHODS = ("BM", *(m for _, names, _ in _FAMILIES for m in names), "WHB", "TWHB")
# the methods that start from a batch fit on the calibration prefix
_NEEDS_CAL_FIT = tuple(m for _, (fixed, windowed, *_), _ in _FAMILIES
                       for m in (fixed, windowed)) + ("WHB", "TWHB")


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated run description: a bad stream, method set, epsilon or
    count fails here, before any replication starts."""

    stream: StreamSpec
    methods: tuple | None = None  # None: the stream's default, set below
    epsilon: float = 0.1
    replications: int = 100
    master_seed: int = 0
    output_dir: str | None = None
    eval_stride: int = 250
    workers: int = 1

    def __post_init__(self):
        if self.methods is None:  # FPS and WPS need a calibration prefix
            default = (("OPS", "HOPS") if self.stream.kind == "adversarial"
                       else ("BM", "FPS", "WPS", "OPS", "TOPS", "HOPS") if self.stream.T_cal >= 1
                       else ("BM", "OPS", "TOPS", "HOPS"))
            object.__setattr__(self, "methods", default)
        if not self.methods:
            raise ValueError("methods must be nonempty")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods: {bad}")
        m = BinningScheme(self.epsilon).m  # rejects a bad epsilon before any replication
        for noun, least in (("replications", 1), ("master_seed", 0), ("eval_stride", 1), ("workers", 1)):
            object.__setattr__(self, noun, check_count(getattr(self, noun), noun, least))
        if self.stream.kind == "csv":  # its test length is the file's, known once ingested
            object.__setattr__(self, "stream", build_scored_stream(self.stream).spec)
        eval_timestamps(self.stream.T_test, self.stream.T_cal, self.stream.W, self.eval_stride)
        if self.stream.kind == "adversarial":
            extra = set(self.methods) - {"OPS", "HOPS"}
            if extra:
                raise ValueError(
                    "adversarial streams support only OPS/HOPS (the adversary "
                    f"responds to a single announced forecast): {sorted(extra)}"
                )
        elif self.stream.T_cal < 1 and (set(self.methods) & set(_NEEDS_CAL_FIT)):
            raise ValueError(f"{'/'.join(_NEEDS_CAL_FIT)} need a calibration prefix (T_cal >= 1)")
        elif self.stream.T_cal < m and (set(self.methods) & {"WHB", "TWHB"}):
            raise ValueError(f"WHB/TWHB fit {m} bins on the calibration prefix, so T_cal must be >= {m}")


def eval_timestamps(T: int, t_cal: int, window: int, stride: int) -> np.ndarray:
    """Snapshot times (test-stream local), from t_cal + 2*window to T."""
    T, t_cal = check_count(T, "T", 0), check_count(t_cal, "t_cal", 0)
    window, stride = check_count(window, "window", 1), check_count(stride, "stride", 1)
    start = t_cal + 2 * window
    if start > T:
        raise ValueError(f"stream too short: need at least T_cal + 2W = {start} points")
    ts = list(range(start, T + 1, stride))
    if ts[-1] != T:
        ts.append(T)
    return np.asarray(ts, dtype=int)


def run_replication(config: ExperimentConfig, seed: int):
    """One pass of the joint protocol over ``config``'s stream drawn with
    ``seed``, emitting ``config.methods`` at bin width ``config.epsilon``.
    Returns (columns, ys, truth, diag); columns are emitted-region forecasts
    (t = T_cal+1 .. T)."""
    spec, methods = replace(config.stream, seed=seed), config.methods
    scheme = BinningScheme(config.epsilon)
    if spec.kind == "adversarial":  # the online Platt scaler against the outcome adversary
        feats = platt_features(build_scored_stream(spec).scores)
        pc = OnsConfig.platt()
        ons = (pc.gamma, pc.rho, pc.radius, initial_theta(pc.dim))
        hops = None
        if "HOPS" in methods:
            us = substream(spec.seed, P_HEDGE).random(len(feats))
            ops, hops, ys = kernels.hops_adversarial_pass(feats, us, scheme.epsilon, scheme.m, *ons)
        else:
            ops, ys = kernels.ops_adversarial_pass(feats, *ons)
        return {m: {"OPS": ops, "HOPS": hops}[m] for m in methods}, ys, None, {}

    stream = build_scored_stream(spec)
    ts, ty = stream.test_scores(), stream.test_y()
    truth = stream.test_truth()
    t_cal = spec.T_cal
    ys = ty[t_cal:]

    want = set(methods)
    cols = {}
    diag = {}
    if spec.kind == "csv":
        diag["csv_dropped_rows"] = stream.n_dropped_rows

    if "BM" in want:
        cols["BM"] = ts[t_cal:]

    for family, (fixed, windowed, online, tracked, hedged), hedge_key in _FAMILIES:
        fit, apply = _batch_fns(family)
        if want & {online, tracked, hedged}:
            full, _ = online_scaler_run(ts, ty, family)
            expert = full[t_cal:]
            if online in want:
                cols[online] = expert
                diag[online + "_regret"], diag[online + "_regret_bound"] = _regret_diag(full, ts, ty, family)
            if tracked in want:
                cols[tracked] = _tracked(tracked, expert, ys, scheme)
            if hedged in want:
                cols[hedged] = hops_run(expert, ys, scheme, substream(spec.seed, hedge_key))
        if want & {fixed, windowed}:
            params = fit(ts[:t_cal], ty[:t_cal])
            if fixed in want:
                cols[fixed] = apply(params, ts[t_cal:])
            if windowed in want:
                cols[windowed] = windowed_run(fit, apply, params, t_cal, spec.W, ts, ty)

    if want & {"WHB", "TWHB"}:
        fitter = lambda s, y: fit_histogram_binning(s, y, m=scheme.m)  # noqa: E731
        whb = windowed_run(fitter, lambda m, s: m.predict(s), fitter(ts[:t_cal], ty[:t_cal]),
                           t_cal, spec.W, ts, ty)
        if "WHB" in want:
            cols["WHB"] = whb
        if "TWHB" in want:
            cols["TWHB"] = tracking_run(whb, ys, scheme)

    return cols, ys, (None if truth is None else truth[t_cal:]), diag


def _batch_fns(family):
    """The family's batch fit and apply, looked up as module globals at call
    time, so a wrapper swapped in for either name sees every call."""
    if family == "platt":
        return fit_platt_batch, platt_apply
    return fit_beta_batch, beta_apply


def _regret_diag(probs, scores, ys, family):
    """(regret, bound): the online scaler's log-loss regret against the
    family's batch fit on the whole stream, and the online-Newton bound for
    a comparator of that norm."""
    fit, apply = _batch_fns(family)
    theta = fit(scores, ys)
    bound = ons_regret_bound(len(ys), max(1.0, float(np.linalg.norm(theta))))
    return regret(probs, ys, apply(theta, scores)), bound


def _tracking_margin(tracked, expert, ys, scheme):
    """SHP(tracked) - SHP(expert) + slack, never negative on any run; the
    slack is eps + eps^2/4 + (log T + 1)/(eps T)."""
    return (sharpness(tracked, ys, scheme) - sharpness(expert, ys, scheme)
            + tracking_sharpness_slack(scheme.epsilon, len(ys)))


def _tracked(name, expert, ys, scheme):
    """Tracking over the expert column; a negative tracking margin raises."""
    out = tracking_run(expert, ys, scheme)
    if len(ys):
        margin = _tracking_margin(out, expert, ys, scheme)
        if margin < -1e-12:
            raise CalibeatingInvariantError(
                f"tracking sharpness guarantee violated for {name}: SHP(tracked) {sharpness(out, ys, scheme):.6f}, "
                f"SHP(expert) {sharpness(expert, ys, scheme):.6f}, margin {margin:.6g}")
    return out


def _pipeline_worker(args):
    config, timestamps, rep = args
    cols, ys, truth, diag = run_replication(config, replication_seed(config.master_seed, rep))
    scheme = BinningScheme(config.epsilon)
    ks = timestamps - config.stream.T_cal  # the last snapshot is T, so ks[-1] == len(col)
    reports = {name: metric_report(col, ys, scheme, truth=truth, prefixes=ks) for name, col in cols.items()}
    return rep, reports, diag


@dataclass(eq=False)
class RunReport:
    config: ExperimentConfig
    timestamps: np.ndarray
    ce_mean: dict
    ce_std: dict
    shp_mean: dict
    shp_std: dict
    final: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    files: list = field(default_factory=list)


def run_pipeline(config: ExperimentConfig) -> RunReport:
    """Run all replications, aggregate CE/SHP series, write outputs."""
    spec = config.stream
    timestamps = eval_timestamps(spec.T_test, spec.T_cal, spec.W, config.eval_stride)
    jobs = [(config, timestamps, rep) for rep in range(config.replications)]
    if config.workers > 1:  # imported here, so that importing the package loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = sorted(pool.map(_pipeline_worker, jobs), key=lambda r: r[0])
    else:
        results = [_pipeline_worker(j) for j in jobs]

    names = [m for m in config.methods if m in results[0][1]]
    n_rep = len(results)
    reports = {m: [r[1][m] for r in results] for m in names}
    ce = {m: np.array([r.ce for r in reports[m]]) for m in names}
    shp = {m: np.array([r.shp for r in reports[m]]) for m in names}

    def _std(a):
        return np.std(a, axis=0, ddof=1) if n_rep > 1 else np.zeros(a.shape[1])

    report = RunReport(
        config=config,
        timestamps=timestamps,
        ce_mean={m: np.mean(ce[m], axis=0) for m in names},
        ce_std={m: _std(ce[m]) for m in names},
        shp_mean={m: np.mean(shp[m], axis=0) for m in names},
        shp_std={m: _std(shp[m]) for m in names},
        final={m: {"ce": float(np.mean(ce[m][:, -1])), "shp": float(np.mean(shp[m][:, -1])),
                   **{k: None if getattr(reports[m][0], k) is None else float(np.mean([getattr(r, k) for r in reports[m]]))
                      for k in ("brier", "true_ce", "true_accuracy")}} for m in names},
        diagnostics=_aggregate_diagnostics([r[2] for r in results]),
    )
    if config.output_dir:
        _write_outputs(report, config.output_dir)
    return report


def _aggregate_diagnostics(diags):
    out = {}
    for _, (_, _, online, *_), _ in _FAMILIES:
        key = online + "_regret"
        vals = [d[key] for d in diags if key in d]
        if vals:
            bounds = [d[key + "_bound"] for d in diags if key + "_bound" in d]
            out[key + "_mean"] = float(np.mean(vals))
            out[key + "_max"] = float(np.max(vals))
            out[key + "_bound_min"] = float(np.min(bounds))
            out[key + "_bound_satisfied"] = all(v <= b for v, b in zip(vals, bounds))
    if diags and "csv_dropped_rows" in diags[0]:
        out["csv_dropped_rows"] = int(diags[0]["csv_dropped_rows"])
    return out


def _fmt(x) -> str:
    return repr(float(x))


def _write_outputs(report: RunReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for m in report.ce_mean:
        for metric, mean, std in (
            ("ce", report.ce_mean[m], report.ce_std[m]),
            ("shp", report.shp_mean[m], report.shp_std[m]),
        ):
            path = os.path.join(out_dir, f"{m}_{metric}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("t,mean,std\n")
                for t, mu, sd in zip(report.timestamps, mean, std):
                    fh.write(f"{int(t)},{_fmt(mu)},{_fmt(sd)}\n")
            files.append(path)
    for metric, means, stds in (
        ("ce", report.ce_mean, report.ce_std),
        ("shp", report.shp_mean, report.shp_std),
    ):
        path = os.path.join(out_dir, f"{metric}.svg")
        line_plot_svg(
            path,
            report.timestamps,
            {m: (means[m], stds[m]) for m in means},
            title=f"{metric.upper()} over time ({report.config.stream.kind})",
            xlabel="t (test-stream step)",
            ylabel=("calibration error" if metric == "ce" else "sharpness"),
        )
        files.append(path)
    summary = {
        "stream": {
            "kind": report.config.stream.kind,
            "T_train": report.config.stream.T_train,
            "T_test": report.config.stream.T_test,
            "T_cal": report.config.stream.T_cal,
            "W": report.config.stream.W,
            "delta": report.config.stream.delta,
        },
        "epsilon": report.config.epsilon,
        "replications": report.config.replications,
        "master_seed": report.config.master_seed,
        "methods": list(report.ce_mean.keys()),
        "timestamps": [int(t) for t in report.timestamps],
        "final": report.final,
        "diagnostics": report.diagnostics,
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append(path)
    report.files = files


def run_truth_windows(kind: str, seeds, windows_global, methods=("BM", "OPS")):
    """Windowed truth-referenced accuracy/CE tables for the canonical
    (drifting) synthetic streams.

    ``windows_global`` are inclusive (lo, hi) pairs on the full-sequence
    time axis (the train block is t = 1..T_train), each with
    1 <= lo <= hi <= T_total. Methods are limited to columns defined from
    the first test point: BM, OPS, OBS; a method is left out of a window
    that starts before it is defined.
    """
    if kind == "adversarial":
        raise ValueError("adversarial outcomes have no truth to score windows against")
    bad = set(methods) - {"BM", "OPS", "OBS"}
    if bad:
        raise ValueError(f"truth windows support BM/OPS/OBS only, got {sorted(bad)}")
    T_total = default_spec(kind).T_total
    outside = [w for w in windows_global if not 1 <= w[0] <= w[1] <= T_total]
    if outside:
        raise ValueError(f"windows must satisfy 1 <= lo <= hi <= T_total = {T_total}, got {outside}")
    acc = {m: {w: [] for w in windows_global} for m in methods}
    ce = {m: {w: [] for w in windows_global} for m in methods}
    for seed in seeds:
        spec = default_spec(kind, seed=seed)
        stream = build_scored_stream(spec)
        t_train = spec.T_train
        cols = {}
        if "BM" in methods:
            cols["BM"] = (stream.scores, 0)  # defined from global t = 1
        for family, (_, _, online, *_), _ in _FAMILIES:
            if online in methods:
                probs, _ = online_scaler_run(stream.test_scores(), stream.test_y(), family)
                cols[online] = (probs, t_train)
        for lo, hi in windows_global:
            for m, (col, offset) in cols.items():
                a, b = lo - 1 - offset, hi - offset
                if a < 0:
                    continue  # method undefined over this window
                p = col[a:b]
                tr = stream.truth[lo - 1: hi]
                acc[m][(lo, hi)].append(true_accuracy(p, tr))
                ce[m][(lo, hi)].append(true_ce(p, tr))
    table = {}
    for m in methods:
        table[m] = {}
        for w in windows_global:
            if acc[m][w]:
                table[m][w] = {
                    "true_accuracy": float(np.mean(acc[m][w])),
                    "true_ce": float(np.mean(ce[m][w])),
                }
    return table


@dataclass
class TheoremCheck:
    name: str
    detail: str
    epsilon: float
    T: int
    seeds: int
    measured: float
    bound: float
    direction: str  # "<=" or ">="

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.bound if self.direction == "<=" else self.measured >= self.bound)


def _whole_stream_config(kind, drift, methods) -> ExperimentConfig:
    """The canonical spec with T_cal = 0, so the columns cover the whole test stream."""
    return ExperimentConfig(stream=replace(default_spec(kind, drift=drift), T_cal=0), methods=methods)


def check_regret_bound(seeds: int = 20) -> list:
    """Online-scaler regret vs the batch comparator on the four synthetic
    stream configurations (T = 5000 test points each)."""
    rows = []
    for kind in ("covmulti", "labelmulti"):
        for drift in (False, True):
            config = _whole_stream_config(kind, drift, ("OPS",))
            diags = [run_replication(config, seed)[3] for seed in range(seeds)]
            worst = max(diags, key=lambda d: d["OPS_regret"] - d["OPS_regret_bound"])  # the least slack
            rows.append(
                TheoremCheck(
                    name="regret-bound",
                    detail=f"{kind} {'drift' if drift else 'iid'} (worst seed)",
                    epsilon=float("nan"),
                    T=config.stream.T_test,
                    seeds=seeds,
                    measured=worst["OPS_regret"],
                    bound=worst["OPS_regret_bound"],
                    direction="<=",
                )
            )
    return rows


def check_tracking_sharpness(seeds: int = 3) -> list:
    """Per-run tracking sharpness guarantee at bin widths 0.05, 0.1 and 0.2:
    one online run per drifting stream, tracked at every width."""
    schemes = [BinningScheme(eps) for eps in (0.05, 0.1, 0.2)]
    worst = [np.inf] * len(schemes)
    for kind in ("covmulti", "labelmulti"):
        config = _whole_stream_config(kind, True, ("OPS",))
        for seed in range(seeds):
            cols, ys, _, _ = run_replication(config, seed)
            for i, scheme in enumerate(schemes):
                tracked = tracking_run(cols["OPS"], ys, scheme)
                worst[i] = min(worst[i], _tracking_margin(tracked, cols["OPS"], ys, scheme))
    return [
        TheoremCheck(
            name="tracking-sharpness",
            detail="SHP(tracked) - SHP(online) + slack, worst run",
            epsilon=scheme.epsilon,
            T=config.stream.T_test,
            seeds=seeds,
            measured=margin,
            bound=0.0,
            direction=">=",
        )
        for scheme, margin in zip(schemes, worst)
    ]


def check_adversarial_calibration(seeds: int = 100):
    """Hedged forecasts stay calibrated against the outcome adversary; the
    deterministic online scaler does not. Also the Brier-score guarantee on
    the same runs. The canonical adversarial stream: T = 10,000, eps = 0.1."""
    hedged = ExperimentConfig(stream=default_spec("adversarial"), methods=("OPS", "HOPS"))
    alone = replace(hedged, methods=("OPS",))
    epsilon, T = hedged.epsilon, hedged.stream.T_test
    scheme = BinningScheme(epsilon)
    ces_hedged, ces_det, bs_gap = [], [], []
    for seed in range(seeds):
        cols, ys = run_replication(hedged, replication_seed(seed, 0))[:2]
        ces_hedged.append(calibration_error(cols["HOPS"], ys, scheme))
        bs_gap.append(brier(cols["HOPS"], ys) - brier(cols["OPS"], ys))
        cols, ys = run_replication(alone, replication_seed(seed, 0))[:2]
        ces_det.append(calibration_error(cols["OPS"], ys, scheme))
    return [
        TheoremCheck(
            name="hedged-adversarial-ce",
            detail="mean CE of hedged forecasts vs adversary",
            epsilon=epsilon,
            T=T,
            seeds=seeds,
            measured=float(np.mean(ces_hedged)),
            bound=float(hedging_ce_bound(epsilon, T)),
            direction="<=",
        ),
        TheoremCheck(
            name="deterministic-adversarial-ce",
            detail="mean CE of the deterministic scaler vs its adversary",
            epsilon=epsilon,
            T=T,
            seeds=seeds,
            measured=float(np.mean(ces_det)),
            bound=0.4,
            direction=">=",
        ),
        TheoremCheck(
            name="hedging-brier",
            detail="mean BS(hedged) - BS(online) vs slack (adversarial)",
            epsilon=epsilon,
            T=T,
            seeds=seeds,
            measured=float(np.mean(bs_gap)),
            bound=float(hedging_brier_slack(epsilon, T) + 0.01),
            direction="<=",
        ),
    ]


def check_hedging_sharpness_and_brier(seeds: int = 100) -> list:
    """Seed-averaged hedging guarantees on the four synthetic streams, at
    eps = 0.1."""
    rows = []
    for kind in ("covmulti", "labelmulti"):
        for drift in (False, True):
            config = _whole_stream_config(kind, drift, ("OPS", "HOPS"))
            epsilon, T = config.epsilon, config.stream.T_test
            scheme = BinningScheme(epsilon)
            shp_gaps, bs_gaps = [], []
            for seed in range(seeds):
                cols, ys, _, _ = run_replication(config, seed)
                probs, hedged = cols["OPS"], cols["HOPS"]
                shp_gaps.append(sharpness(hedged, ys, scheme) - sharpness(probs, ys, scheme))
                bs_gaps.append(brier(hedged, ys) - brier(probs, ys))
            label = f"{kind} {'drift' if drift else 'iid'}"
            rows.append(
                TheoremCheck(
                    name="hedging-sharpness",
                    detail=f"mean SHP(hedged) - SHP(online), {label}",
                    epsilon=epsilon,
                    T=T,
                    seeds=seeds,
                    measured=float(np.mean(shp_gaps)),
                    bound=float(-(hedging_sharpness_slack(epsilon, T) + 0.01)),
                    direction=">=",
                )
            )
            rows.append(
                TheoremCheck(
                    name="hedging-brier",
                    detail=f"mean BS(hedged) - BS(online), {label}",
                    epsilon=epsilon,
                    T=T,
                    seeds=seeds,
                    measured=float(np.mean(bs_gaps)),
                    bound=float(hedging_brier_slack(epsilon, T) + 0.01),
                    direction="<=",
                )
            )
    return rows


def check_climatology(seeds: int = 20):
    """Covariate-free hedging settles at the long-run outcome frequency
    (Bernoulli(0.37), T = 5000, eps = 0.1)."""
    p, T, epsilon = 0.37, 5000, 0.1
    tails = [run_climatology(p, T, epsilon, replications=1, master_seed=seed).tail_means[0]
             for seed in range(seeds)]
    tail_mean = float(np.mean(tails))
    return [
        TheoremCheck(
            name="climatology",
            detail=f"|mean of last 1000 forecasts - {p}| (tail mean {tail_mean:.4f})",
            epsilon=epsilon,
            T=T,
            seeds=seeds,
            measured=abs(tail_mean - p),
            bound=0.05,
            direction="<=",
        )
    ]


def run_theorem_suite(output_dir: str | None = None, quick: bool = False) -> list:
    """All structural-guarantee checks; writes theorems.csv when asked."""
    seeds_big = 20 if quick else 100
    rows = []
    rows += check_regret_bound(seeds=5 if quick else 20)
    rows += check_tracking_sharpness(seeds=1 if quick else 3)
    rows += check_adversarial_calibration(seeds=seeds_big)
    rows += check_hedging_sharpness_and_brier(seeds=10 if quick else 100)
    rows += check_climatology(seeds=5 if quick else 20)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        path = os.path.join(output_dir, "theorems.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("check,detail,epsilon,T,seeds,measured,bound,direction,passed\n")
            for r in rows:
                fh.write(
                    f"{r.name},\"{r.detail}\",{_fmt(r.epsilon) if not math.isnan(r.epsilon) else ''},"
                    f"{r.T},{r.seeds},{_fmt(r.measured)},{_fmt(r.bound)},{r.direction},{r.passed}\n"
                )
    return rows


@dataclass(eq=False)
class ClimatologyReport:
    forecasts: np.ndarray
    outcomes: np.ndarray
    tail_means: list
    files: list = field(default_factory=list)


def run_climatology(
    p: float = 0.37,
    T: int = 5000,
    epsilon: float = 0.1,
    replications: int = 20,
    master_seed: int = 0,
    output_dir: str | None = None,
) -> ClimatologyReport:
    """Covariate-free hedging on i.i.d. Bernoulli(p) outcome streams.

    Writes the first replication's forecast trace and a trace plot.
    """
    scheme = BinningScheme(epsilon)
    unit_float(p, "p")
    T, replications = check_count(T, "T", 1), check_count(replications, "replications", 1)
    master_seed = check_count(master_seed, "master_seed", 0)
    tails = []
    first = None
    for rep in range(replications):
        rep_seed = replication_seed(master_seed, rep)
        ys = (substream(rep_seed, P_STREAM).random(T) < p).astype(float)
        fc = hops_run(np.zeros(T), ys, scheme, substream(rep_seed, P_HEDGE))  # an expert in bin 0
        tails.append(float(np.mean(fc[-min(1000, T):])))
        if first is None:
            first = (fc, ys)
    fc, ys = first
    report = ClimatologyReport(forecasts=fc, outcomes=ys, tail_means=tails)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        trace_path = os.path.join(output_dir, "climatology_trace.csv")
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("t,forecast,y\n")
            for t in range(T):
                fh.write(f"{t + 1},{_fmt(fc[t])},{int(ys[t])}\n")
        running = np.cumsum(ys) / np.arange(1, T + 1)
        xs = np.arange(1, T + 1)
        plot_path = os.path.join(output_dir, "climatology.svg")
        line_plot_svg(
            plot_path,
            xs,
            {"forecast": (fc, None), "running outcome mean": (running, None)},
            title=f"Covariate-free hedging on Bernoulli({p})",
            xlabel="t",
            ylabel="probability",
            max_points=800,
        )
        summary_path = os.path.join(output_dir, "climatology.json")
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "p": p, "T": T, "epsilon": epsilon,
                    "replications": replications, "master_seed": master_seed,
                    "tail_mean_avg": float(np.mean(tails)),
                    "tail_means": tails,
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        report.files = [trace_path, plot_path, summary_path]
    return report


def dump_stream(spec: StreamSpec, path: str):
    """Write the stream as CSV (t, score, y, truth); t is global."""
    if spec.kind == "adversarial":
        raise ValueError("adversarial outcomes are generated at run time; nothing to dump")
    stream = build_scored_stream(spec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,score,y,truth\n")
        for t in range(len(stream.scores)):
            truth = "" if stream.truth is None else _fmt(stream.truth[t])
            fh.write(f"{t + 1},{_fmt(stream.scores[t])},{int(stream.y[t])},{truth}\n")
    return path
