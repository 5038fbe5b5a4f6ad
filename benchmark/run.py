"""opscal benchmark: one workload per run, end-to-end or traced.

    python3 benchmark/run.py --workload covmulti-default --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, never from an installed copy. Every metric is printed as
``name value unit``; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Provenance, per-layer tables and the span trace are written
under ``.bench_out/`` in the checkout. See README.md for the rationale.
"""

from __future__ import annotations

import os

# One process, one thread: pin every BLAS/OpenMP pool before numpy loads.
PINNED_THREADS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# Seconds the host probe takes on a quiet host of the reference machine;
# every end-to-end time is scaled to that speed (README.md, "Noise").
REFERENCE_PROBE_S = 0.0145
REFERENCE_PATH = HERE / "reference.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _import_package():
    if not (SRC / "opscal" / "__init__.py").is_file():
        sys.exit(f"error: no opscal sources under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.opscal.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported opscal from {workloads.opscal.__file__}, not {SRC}")
    return workloads


def warm_up(workloads, w):
    """Import done; run the workload's own loop once at tiny size, so lazy
    set-up (and JIT compilation under numba) happens before timing."""
    if isinstance(w, workloads.PipelineWorkload):
        m = workloads.measure_pipeline(w.tiny(), seed=0, seconds=0.0, out_root=str(OUT))
    else:
        m = workloads.measure_stream(w.tiny(), seed=0, seconds=0.0)
    if m.failed:
        raise RuntimeError("warm-up failed: " + "; ".join(m.problems))


def measure_setup(workloads, name: str, samples: int) -> list[tuple]:
    """Fresh processes that import the package and warm up, each recorded
    like a measured unit: (1, wall seconds, probe seconds)."""
    times = []
    probe = workloads.host_probe()
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        "--workload", name], check=True, cwd=ROOT)
        wall = perf_counter() - t0
        after = workloads.host_probe()
        times.append((1, wall, (probe + after) / 2))
        probe = after
    return times


def scaled(unit) -> float:
    """A unit's wall time at reference host speed."""
    _, seconds, probe_seconds = unit
    return seconds * REFERENCE_PROBE_S / probe_seconds


def s_per_obs(units) -> float:
    return float(statistics.median(scaled(u) / u[0] for u in units))


def end_to_end(w, m, setup) -> dict:
    import numpy as np

    if not m.units:
        raise RuntimeError("no operation succeeded: " + "; ".join(m.problems))
    speed = [REFERENCE_PROBE_S / u[2] for u in m.units]
    if m.step_ns:  # closed loop: every step is timed
        step_us = np.concatenate([lat * k for lat, k in zip(m.step_ns, speed)]) / 1e3
        rep_s = [scaled(u) for u in m.units]
    else:  # pipelines: a replication's wall time per test observation
        rep_s = [r * k for r, k in zip(m.rep_seconds, speed)]
        step_us = np.asarray(rep_s) / w.spec.T_test * 1e6
    p50, p99 = np.percentile(step_us, [50, 99]).tolist()
    return {
        "obs_per_s": (1.0 / s_per_obs(m.units), "1/s"),
        "rep_ms_p50": (float(statistics.median(rep_s)) * 1e3, "ms"),
        "step_us_p50": (p50, "us"),
        "step_us_p99": (p99, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (float(statistics.median(scaled(u) for u in setup)), "s"),
    }


def per_layer(m, tracer, numba_enabled: bool) -> dict:
    times = tracer.layer_times()
    reps, steps = max(m.traced_reps, 1), max(m.traced_steps, 1)

    def ms(name, column=1):
        return times.get(name, (0, 0, 0))[column] / 1e6 / reps

    def us_per_step(name):
        return times.get(name, (0, 0, 0))[1] / 1e3 / steps

    def count(*keys):  # exact: the first traced replication or pass only
        return float(sum(m.counts.get(k, 0) for k in keys))

    ons_rows = tracer.counts.get("kernels.ons_pass.rows", 0)
    return {
        "datagen.build_ms": (ms("datagen.build"), "ms"),
        "kernels.ons_pass_ms": (ms("kernels.ons_pass"), "ms"),
        "kernels.ons_ns_per_step": (times.get("kernels.ons_pass", (0, 0, 0))[1] / max(ons_rows, 1), "ns"),
        "kernels.ons_rows": (count("kernels.ons_pass.rows", "scalers.online_step.calls"), "count"),
        "kernels.tracking_pass_ms": (ms("kernels.tracking_pass"), "ms"),
        "kernels.hops_pass_ms": (ms("kernels.hops_pass"), "ms"),
        "kernels.adversarial_pass_ms": (ms("kernels.adversarial_pass"), "ms"),
        "kernels.projections": (None if numba_enabled else count("kernels.projections"), "count"),
        "scalers.apply_ms": (ms("scalers.apply"), "ms"),
        "scalers.apply_calls": (count("scalers.apply.calls"), "count"),
        "scalers.batch_fit_ms": (ms("scalers.batch_fit"), "ms"),
        "scalers.batch_fit_calls": (count("scalers.batch_fit.calls"), "count"),
        "scalers.newton_iters": (count("scalers.newton_iters"), "count"),
        "scalers.online_step_us": (us_per_step("scalers.online_step"), "us"),
        "calibeating.tracking_step_us": (us_per_step("calibeating.tracking"), "us"),
        "calibeating.hops_step_us": (us_per_step("calibeating.hops_step"), "us"),
        "metrics.snapshot_ms": (ms("metrics.snapshot"), "ms"),
        "metrics.snapshot_calls": (count("metrics.snapshot.calls"), "count"),
        "metrics.report_ms": (ms("metrics.report"), "ms"),
        "pipeline.replication_self_ms": (ms("pipeline.replication", column=2), "ms"),
        "pipeline.run_self_ms": (ms("pipeline.run", column=2), "ms"),
        "plotting.svg_ms": (ms("plotting.svg"), "ms"),
        "trace.overhead_frac": (s_per_obs(m.traced_units) / s_per_obs(m.units) - 1.0, "frac"),
    }


def span_table(tracer) -> list[dict]:
    """Per span name: calls, inclusive and self time, and self share."""
    times = tracer.layer_times()
    total_self = sum(t[2] for t in times.values()) or 1
    rows = [
        {"span": name, "calls": calls, "total_ms": incl / 1e6, "self_ms": own / 1e6,
         "self_share": own / total_self}
        for name, (calls, incl, own) in times.items()
    ]
    return sorted(rows, key=lambda r: -r["self_ms"])


def provenance(workload: str, seed: int, seconds: float, trace: int, numba_enabled: bool) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "opscal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None  # a checkout exported without .git has none
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            revision = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "kernel_path": "numba" if numba_enabled else "numpy",
        "numpy": np.__version__, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_revision": revision,
        "source_sha256": digest.hexdigest(), "threads": PINNED_THREADS, "workers": 1,
    }


def declared() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(w, seed: int, seconds: float, trace: int, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Measure workload ``w`` (from ``workloads.WORKLOADS``, or its ``tiny()``
    copy), print its metrics and return the record written under OUT."""
    spec = declared()
    workloads = _import_package()
    import opscal

    OUT.mkdir(exist_ok=True)
    setup = measure_setup(workloads, w.name, setup_samples)
    warm_up(workloads, w)

    tracer = workloads.Tracer() if trace else None
    if isinstance(w, workloads.PipelineWorkload):
        m = workloads.measure_pipeline(w, seed, seconds, str(OUT), tracer)
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)[w.name]
        m.attempted += 1
        problems = workloads.check_reference(workloads.WORKLOADS[w.name], reference, str(OUT))
        if problems:
            m.fail(1, "reference: " + "; ".join(problems))
    else:
        m = workloads.measure_stream(w, seed, seconds, tracer)

    info = provenance(w.name, seed, seconds, trace, opscal.NUMBA_ENABLED)
    if tracer is None:
        metrics = end_to_end(w, m, setup)
        wanted = [d["name"] for d in spec["end_to_end"]]
    else:
        metrics = per_layer(m, tracer, opscal.NUMBA_ENABLED)
        wanted = [d["name"] for d in spec["per_layer"]]
    missing = set(wanted) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")

    stem = OUT / f"{w.name}-seed{seed}-trace{trace}"
    record = {"provenance": info, "attempted": m.attempted, "failed": m.failed,
              "fail_frac": m.failed / m.attempted, "problems": m.problems,
              "inputs": m.inputs, "reference_probe_s": REFERENCE_PROBE_S,
              "setup_units": setup, "units": m.units,
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in wanted}}
    print("# " + " ".join(f"{k}={v}" for k, v in info.items() if k != "threads")
          + " threads=" + ",".join(f"{k}={v}" for k, v in PINNED_THREADS.items()))
    if tracer is not None:
        record["spans"] = span_table(tracer)
        record["exact_counts_first_unit"] = m.counts
        tracer.save(str(stem) + "-spans.npz")
        print(f"# {'span':<26}{'calls':>9}{'total_ms':>12}{'self_ms':>12}{'self_share':>11}")
        for r in record["spans"]:
            print(f"# {r['span']:<26}{r['calls']:>9}{r['total_ms']:>12.1f}"
                  f"{r['self_ms']:>12.1f}{r['self_share']:>11.3f}")
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for problem in m.problems:
        print(f"# FAILED {problem}")
    for name in wanted:
        value, unit = metrics[name]
        print(f"{name} {value!r} {unit}")
    print(f"fail_frac {m.failed / m.attempted!r} frac ({m.failed} of {m.attempted})")
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
                      "metrics": record["metrics"]}))
    return record


def run_all(args, names) -> int:
    """Every workload in its own process; prints one combined table."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {name} exited with {proc.returncode}")
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':<30}" + "".join(f"{n:>20}" for n in names))
    for metric, first in results[names[0]]["metrics"].items():
        cells = "".join(f"{results[n]['metrics'][metric]['value']:>20.6g}" for n in names)
        print(f"{metric + ' [' + first['unit'] + ']':<30}{cells}")
    print(f"{'fail_frac':<30}" + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:>20.6g}" for n in names))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def write_reference() -> int:
    """Record the reference run of every pipeline workload."""
    workloads = _import_package()
    OUT.mkdir(exist_ok=True)
    reference = {}
    for name, w in workloads.WORKLOADS.items():
        if isinstance(w, workloads.PipelineWorkload):
            _, report = workloads.pipeline_call(w, 0, 1, str(OUT))
            reference[name] = {"master_seed": 0, "replications": 1,
                               "final": report["final"], "diagnostics": report["diagnostics"]}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    names = [w["name"] for w in declared()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="re-record reference.json (only when a result change is intended)")
    args = ap.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if args.setup_probe:
        workloads = _import_package()
        warm_up(workloads, workloads.WORKLOADS[args.workload])
        return 0
    if args.workload == "all":
        return run_all(args, names)
    workloads = _import_package()
    run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
