"""The benchmark's workloads and the loops that measure them.

Three workloads drive ``run_pipeline`` with a fixed configuration, one
replication per call; the fourth is a closed loop with one caller that
feeds a generated stream through the step-level API one observation at a
time. See README.md for why each workload is in the set.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter, perf_counter_ns

import numpy as np

import opscal
from opscal import (
    BinningScheme,
    ExperimentConfig,
    HopsState,
    OnsConfig,
    OnsState,
    StreamSpec,
    TrackingState,
    build_scored_stream,
    default_spec,
    hops_run,
    hops_step,
    online_scaler_run,
    online_scaler_step,
    run_pipeline,
    tracking_forecast,
    tracking_run,
    tracking_update,
)

from gate import bad_steps, check_report, compare_reference
from spans import Tracer, patched

PLATT = OnsConfig.platt()
EPSILON = 0.1  # bin width of every workload
# About 15 ms on a quiet host; run.REFERENCE_PROBE_S is that time, so the
# two change together.
PROBE_ITERATIONS = 150_000


def host_probe() -> float:
    """Seconds taken by a fixed piece of interpreter and small-numpy work
    that shares no code with opscal. Timed next to every unit, it measures
    how fast the host runs Python at that moment (README.md, "Noise")."""
    a = np.arange(32.0)
    t0 = perf_counter()
    s = 0.0
    for i in range(PROBE_ITERATIONS):
        s += (i % 7) * 0.5
        if i % 64 == 0:
            s += float(a @ a)
    return perf_counter() - t0


def derive_seed(*keys: int) -> int:
    """A 32-bit seed determined by ``keys`` (workload seed, call, ...)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass(frozen=True)
class PipelineWorkload:
    name: str
    spec: StreamSpec
    methods: tuple

    def tiny(self) -> "PipelineWorkload":
        if self.spec.kind == "adversarial":
            spec = replace(self.spec, T_test=1000)
        else:
            spec = replace(self.spec, T_train=300, T_test=1300, T_cal=300, W=200)
        return replace(self, spec=spec)

    @property
    def requires_regret(self) -> bool:
        return "OPS" in self.methods and self.spec.kind != "adversarial"

    def config(self, master_seed: int, replications: int, output_dir: str) -> ExperimentConfig:
        return ExperimentConfig(
            stream=self.spec, methods=self.methods, epsilon=EPSILON,
            replications=replications, master_seed=master_seed,
            output_dir=output_dir, eval_stride=250, workers=1,
        )


@dataclass(frozen=True)
class StreamWorkload:
    name: str
    spec: StreamSpec  # one closed-loop pass walks this stream's test part

    def tiny(self) -> "StreamWorkload":
        return replace(self, spec=replace(self.spec, T_train=300, T_test=300))


WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload("covmulti-default", default_spec("covmulti"),
                         ("BM", "FPS", "WPS", "OPS", "TOPS", "HOPS")),
        PipelineWorkload("labelmulti-online", default_spec("labelmulti"),
                         ("BM", "OPS", "OBS", "TOPS", "TOBS", "HOPS", "HOBS")),
        PipelineWorkload("adversarial-hedge", default_spec("adversarial"),
                         ("OPS", "HOPS")),
        StreamWorkload("stream-step", default_spec("covmulti")),
    )
}


def _span(name, **kwargs):
    return lambda tracer: lambda fn: tracer.wrap(name, fn, **kwargs)


# (module, public name the package resolves at call time, wrapper factory)
PIPELINE_LAYERS = (
    ("opscal.pipeline", "run_replication", _span("pipeline.replication", replication=True)),
    ("opscal.pipeline", "build_scored_stream", _span("datagen.build")),
    ("opscal.kernels", "ons_pass", _span("kernels.ons_pass", rows=True)),
    ("opscal.kernels", "tracking_pass", _span("kernels.tracking_pass")),
    ("opscal.kernels", "hops_pass", _span("kernels.hops_pass")),
    ("opscal.kernels", "hops_adversarial_pass", _span("kernels.adversarial_pass")),
    ("opscal.kernels", "ops_adversarial_pass", _span("kernels.adversarial_pass")),
    ("opscal.pipeline", "platt_apply", _span("scalers.apply")),
    ("opscal.pipeline", "beta_apply", _span("scalers.apply")),
    ("opscal.pipeline", "fit_platt_batch", _span("scalers.batch_fit")),
    ("opscal.pipeline", "fit_beta_batch", _span("scalers.batch_fit")),
    ("opscal.scalers", "newton_logistic",
     lambda tracer: lambda fn: tracer.counting("scalers.newton_iters", fn, lambda out: out[2])),
    ("opscal.pipeline", "calibration_error", _span("metrics.snapshot")),
    ("opscal.pipeline", "sharpness", _span("metrics.snapshot")),
    ("opscal.pipeline", "metric_report", _span("metrics.report")),
    ("opscal.pipeline", "line_plot_svg", _span("plotting.svg")),
)

# Under numba the compiled ONS step calls its own compiled projection, so
# the module name is not consulted and the count is unavailable.
PROJECTIONS = ("opscal.kernels", "project_anorm",
               lambda tracer: lambda fn: tracer.counting("kernels.projections", fn))


def _layer_patches(tracer, layers):
    chosen = list(layers) + ([] if opscal.NUMBA_ENABLED else [PROJECTIONS])
    return [(module, attr, make(tracer)) for module, attr, make in chosen]


@dataclass
class Measured:
    """What one run measured; times in seconds unless named otherwise.

    A unit is one timed operation: a ``run_pipeline`` call of one
    replication, or one closed-loop pass over a stream. Each is recorded as
    (observations, seconds, probe seconds), the last being the mean of the
    host probes run just before and just after it.
    """

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    units: list = field(default_factory=list)  # untraced units
    traced_units: list = field(default_factory=list)
    rep_seconds: list = field(default_factory=list)  # run_replication, per untraced unit
    step_ns: list = field(default_factory=list)  # per-step latency array, per untraced unit
    counts: dict | None = None  # exact counters of the first traced unit
    traced_reps: int = 0
    traced_steps: int = 0
    inputs: list = field(default_factory=list)  # the seeds the program received

    def fail(self, n: int, problem: str):
        self.failed += n
        self.problems.append(problem)


def _report_exception(what: str) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{what}: {sys.exc_info()[1]!r}"


def pipeline_call(w: PipelineWorkload, master_seed: int, reps: int, out_root: str,
                  run=run_pipeline):
    """Time one ``run_pipeline`` call writing to a fresh directory; return
    its wall time and the ``report.json`` it wrote."""
    out_dir = tempfile.mkdtemp(prefix=w.name + "-", dir=out_root)
    try:
        t0 = perf_counter()
        run(w.config(master_seed, reps, out_dir))
        wall = perf_counter() - t0
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    finally:
        shutil.rmtree(out_dir)
    return wall, report


def _timing(sink):
    def make(fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(perf_counter() - t0)
        return timed
    return make


def measure_pipeline(w: PipelineWorkload, seed: int, seconds: float, out_root: str,
                     tracer: Tracer | None = None) -> Measured:
    """One-replication ``run_pipeline`` calls until ``seconds`` of call time
    are measured (at least one call, two when traced).

    Untraced, each call's wall time and its ``run_replication`` wall time
    are recorded. Traced, calls alternate traced/untraced (starting traced),
    so the tracing overhead is measured in the same run.
    """
    m = Measured()
    spent, call = 0.0, 0
    probe = host_probe()
    while call < (2 if tracer else 1) or spent < seconds:
        traced = tracer is not None and call % 2 == 0
        master_seed = derive_seed(seed, call)
        m.inputs.append(master_seed)
        rep_seconds = []
        if traced:
            patches = _layer_patches(tracer, PIPELINE_LAYERS)
            run = tracer.wrap("pipeline.run", run_pipeline)
        else:
            patches = [("opscal.pipeline", "run_replication", _timing(rep_seconds))]
            run = run_pipeline
        m.attempted += 1
        call += 1
        t0 = perf_counter()
        try:
            with patched(patches):
                wall, report = pipeline_call(w, master_seed, 1, out_root, run)
        except Exception:
            m.fail(1, _report_exception(f"call {call - 1}"))
            spent += perf_counter() - t0
            probe = host_probe()
            continue
        spent += wall
        after = host_probe()
        unit, probe = (w.spec.T_test, wall, (probe + after) / 2), after
        problems = check_report(report, w.requires_regret)
        if problems:
            m.fail(1, f"call {call - 1}: " + "; ".join(problems))
        if traced:
            m.traced_units.append(unit)
            m.traced_reps += 1
            if m.counts is None:
                m.counts = dict(tracer.counts)
        else:
            if len(rep_seconds) != 1:
                raise RuntimeError("run_pipeline no longer calls opscal.pipeline.run_replication "
                                   "once per replication; the benchmark must follow it")
            m.units.append(unit)
            m.rep_seconds.append(rep_seconds[0])
    return m


def check_reference(w: PipelineWorkload, reference: dict, out_root: str) -> list[str]:
    """Run the stored reference configuration and compare its report."""
    try:
        _, report = pipeline_call(w, reference["master_seed"], reference["replications"], out_root)
    except Exception:
        return [_report_exception("reference run")]
    return check_report(report, w.requires_regret) + compare_reference(report, reference)


def closed_loop(scores, ys, scheme, rng, scaler_step=online_scaler_step,
                forecast=tracking_forecast, update=tracking_update, hedge_step=hops_step):
    """Feed one observation at a time: online scaler, then tracking, then
    hedging; the next observation goes in only after all three returned.
    Returns the (3, T) forecast columns and the per-step latency in ns."""
    T = len(scores)
    out = np.empty((3, T))
    lat = np.empty(T, dtype=np.int64)
    ons, track, hedge = OnsState.init(PLATT), TrackingState(scheme), HopsState(scheme)
    for t in range(T):
        t0 = perf_counter_ns()
        p, ons = scaler_step(ons, scores[t], ys[t], "platt", PLATT)
        tracked = forecast(track, p)
        track = update(track, p, ys[t])
        hedged, hedge = hedge_step(hedge, p, ys[t], rng)
        lat[t] = perf_counter_ns() - t0
        out[0, t], out[1, t], out[2, t] = p, tracked, hedged
    return out, lat


def batch_replay(scores, ys, scheme, uniform_seed):
    """The same stream through the whole-stream kernels, same uniforms."""
    ops, _ = online_scaler_run(scores, ys, "platt")
    return ops, tracking_run(ops, ys, scheme), hops_run(ops, ys, scheme, np.random.default_rng(uniform_seed))


def measure_stream(w: StreamWorkload, seed: int, seconds: float,
                   tracer: Tracer | None = None) -> Measured:
    """Closed-loop passes over fresh streams until ``seconds`` of pass time
    are measured (at least one pass, two when traced); traced runs
    alternate traced/untraced passes."""
    m = Measured()
    scheme = BinningScheme(EPSILON)
    spent, k = 0.0, 0
    while k < (2 if tracer else 1) or spent < seconds:
        traced = tracer is not None and k % 2 == 0
        spec = replace(w.spec, seed=derive_seed(seed, k))
        uniform_seed = derive_seed(seed, k, 1)
        m.inputs.append(spec.seed)
        k += 1
        loop, build, patches, fns = closed_loop, build_scored_stream, [], {}
        if traced:
            build = tracer.wrap("datagen.build", build_scored_stream)
            loop = tracer.wrap("stream.pass", closed_loop, replication=True)
            fns = dict(
                scaler_step=tracer.wrap("scalers.online_step", online_scaler_step),
                forecast=tracer.wrap("calibeating.tracking", tracking_forecast),
                update=tracer.wrap("calibeating.tracking", tracking_update),
                hedge_step=tracer.wrap("calibeating.hops_step", hops_step),
            )
            patches = _layer_patches(tracer, ())
        m.attempted += w.spec.T_test
        t0 = perf_counter()
        try:
            stream = build(spec)
            scores, ys = stream.test_scores(), stream.test_y()
            before = host_probe()
            with patched(patches):
                t1 = perf_counter()
                out, lat = loop(scores.tolist(), ys.tolist(), scheme,
                                np.random.default_rng(uniform_seed), **fns)
                wall = perf_counter() - t1
            after = host_probe()
            bad = bad_steps(out, batch_replay(scores, ys, scheme, uniform_seed))
        except Exception:
            m.fail(w.spec.T_test, _report_exception(f"pass {k - 1}"))
            spent += perf_counter() - t0
            continue
        spent += wall
        unit = (len(scores), wall, (before + after) / 2)
        if bad.any():
            m.fail(int(bad.sum()), f"pass {k - 1}: {int(bad.sum())} steps out of [0, 1] "
                                   "or different from the batch replay")
        if traced:
            m.traced_units.append(unit)
            m.traced_reps += 1
            m.traced_steps += len(scores)
            if m.counts is None:
                m.counts = dict(tracer.counts)
        else:
            m.units.append(unit)
            m.step_ns.append(lat)
    return m
