"""Command-line experiment runner.

Subcommands:
  run          the joint online-calibration pipeline over a stream
  theorems     the structural-guarantee check suite
  climatology  covariate-free hedging on a Bernoulli outcome stream
  dump-stream  write a generated stream to CSV (t, score, y, truth)

A config file (INI; sections [stream] and [run]) may supply any value;
explicit command-line flags win over config-file values, which win over
built-in defaults.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import replace

from .datagen import CANONICAL_DELTA, StreamSpec, default_spec
from .pipeline import (
    ExperimentConfig,
    dump_stream,
    run_climatology,
    run_pipeline,
    run_theorem_suite,
)

DEFAULT_METHODS_CAL = "BM,FPS,WPS,OPS,TOPS,HOPS"
DEFAULT_METHODS_NOCAL = "BM,OPS,TOPS,HOPS"


def _read_config(path):
    cp = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        cp.read_file(fh)
    out = {}
    for section in ("stream", "run"):
        if cp.has_section(section):
            for k, v in cp.items(section):
                out[f"{section}.{k}"] = v
    return out


def _merge(cli_value, cfg, key, cast, default):
    if cli_value is not None:
        return cli_value
    if key in cfg:
        raw = cfg[key]
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return default


def _build_spec(args, cfg) -> StreamSpec:
    csv_path = _merge(args.csv, cfg, "stream.csv", str, None)
    kind = _merge(args.stream, cfg, "stream.kind", str, None)
    if csv_path is not None:
        kind = "csv"
    if kind is None:
        raise SystemExit("error: provide --stream KIND or --csv PATH (or a config file)")
    seed = _merge(args.seed, cfg, "stream.seed", int, 0)
    if kind == "csv":
        spec = StreamSpec(
            kind="csv",
            seed=seed,
            csv_path=csv_path,
            label_column=_merge(args.label, cfg, "stream.label", str, None),
            sortby_column=_merge(args.sortby, cfg, "stream.sortby", str, None),
            score_column=_merge(args.score, cfg, "stream.score", str, None),
            T_train=_merge(args.ttrain, cfg, "stream.t_train", int, 1000),
            T_cal=_merge(args.tcal, cfg, "stream.t_cal", int, 1000),
            W=_merge(args.window, cfg, "stream.window", int, 500),
        )
        if spec.label_column is None:
            raise SystemExit("error: csv streams need --label COL")
        return spec
    drift = _merge(args.drift, cfg, "stream.drift", bool, True)
    spec = default_spec(kind, seed=seed, drift=drift)
    delta = _merge(args.delta, cfg, "stream.delta", float, None)
    if delta is not None:
        spec = replace(spec, delta=delta)
    for field_name, flag, key in (
        ("T_train", args.ttrain, "stream.t_train"),
        ("T_cal", args.tcal, "stream.t_cal"),
        ("W", args.window, "stream.window"),
        ("T_test", args.ttest, "stream.t_test"),
    ):
        val = _merge(flag, cfg, key, int, None)
        if val is not None:
            spec = replace(spec, **{field_name: val})
    return spec


def _add_stream_flags(ap):
    ap.add_argument("--config", help="INI config file ([stream]/[run] sections)")
    ap.add_argument("--stream", help="stream kind: cov1d|label1d|reg1d|covmulti|labelmulti|adversarial")
    ap.add_argument("--csv", help="CSV path (implies a csv stream)")
    ap.add_argument("--label", help="CSV label column")
    ap.add_argument("--sortby", help="CSV drift-induction column (noisy sort)")
    ap.add_argument("--score", help="CSV precomputed-score column")
    ap.add_argument("--seed", type=int, help="master seed")
    ap.add_argument("--ttrain", type=int, help="training-block length")
    ap.add_argument("--tcal", type=int, help="calibration prefix length (test stream)")
    ap.add_argument("--window", type=int, help="windowed-refit period W")
    ap.add_argument("--ttest", type=int, help="test-stream length (synthetic kinds)")
    ap.add_argument("--delta", type=float, help="drift rate for covmulti/labelmulti")
    ap.add_argument("--drift", dest="drift", action="store_true", default=None,
                    help="canonical drift for covmulti/labelmulti (default)")
    ap.add_argument("--no-drift", dest="drift", action="store_false",
                    help="i.i.d. variant of covmulti/labelmulti (delta = 0)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="opscal",
                                 description="streaming post-hoc calibration experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the online-calibration pipeline")
    _add_stream_flags(run_p)
    run_p.add_argument("--methods", help=f"comma list, e.g. {DEFAULT_METHODS_CAL}")
    run_p.add_argument("--eps", type=float, help="bin width (default 0.1)")
    run_p.add_argument("--reps", type=int, help="replications (default 100)")
    run_p.add_argument("--eval-stride", type=int, help="snapshot spacing (default 250)")
    run_p.add_argument("--workers", type=int, help="replication worker pool size (default 1)")
    run_p.add_argument("--out", help="output directory")

    th_p = sub.add_parser("theorems", help="run the guarantee-check suite")
    th_p.add_argument("--out", help="output directory for theorems.csv")
    th_p.add_argument("--quick", action="store_true", help="reduced seed counts")

    cl_p = sub.add_parser("climatology", help="covariate-free hedging on a Bernoulli stream")
    cl_p.add_argument("--bern", type=float, default=0.37, help="Bernoulli parameter")
    cl_p.add_argument("--T", type=int, default=5000)
    cl_p.add_argument("--eps", type=float, default=0.1)
    cl_p.add_argument("--reps", type=int, default=20)
    cl_p.add_argument("--seed", type=int, default=0)
    cl_p.add_argument("--out", help="output directory")

    dm_p = sub.add_parser("dump-stream", help="write a stream to CSV")
    _add_stream_flags(dm_p)
    dm_p.add_argument("--out", required=True, help="output CSV path")

    args = ap.parse_args(argv)

    if args.command == "theorems":
        rows = run_theorem_suite(output_dir=args.out, quick=args.quick)
        width = max(len(r.name) for r in rows) + 2
        ok = True
        for r in rows:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}} {r.detail}: measured {r.measured:.6g} "
                  f"{r.direction} bound {r.bound:.6g}")
            ok = ok and r.passed
        if args.out:
            print(f"wrote {args.out}/theorems.csv")
        return 0 if ok else 1

    if args.command == "climatology":
        rep = run_climatology(p=args.bern, T=args.T, epsilon=args.eps,
                              replications=args.reps, master_seed=args.seed,
                              output_dir=args.out)
        import numpy as np

        print(f"mean of last 1000 forecasts over {args.reps} replications: "
              f"{float(np.mean(rep.tail_means)):.4f} (target {args.bern})")
        for f in rep.files:
            print(f"wrote {f}")
        return 0

    cfg = _read_config(args.config) if args.config else {}
    spec = _build_spec(args, cfg)

    if args.command == "dump-stream":
        path = dump_stream(spec, args.out)
        print(f"wrote {path}")
        return 0

    # run
    default_methods = DEFAULT_METHODS_CAL if spec.T_cal >= 1 else DEFAULT_METHODS_NOCAL
    methods = tuple(
        m.strip() for m in _merge(args.methods, cfg, "run.methods", str, default_methods).split(",")
        if m.strip()
    )
    config = ExperimentConfig(
        stream=spec,
        methods=methods,
        epsilon=_merge(args.eps, cfg, "run.eps", float, 0.1),
        replications=_merge(args.reps, cfg, "run.reps", int, 100),
        master_seed=spec.seed,
        output_dir=_merge(args.out, cfg, "run.out", str, None),
        eval_stride=_merge(args.eval_stride, cfg, "run.eval_stride", int, 250),
        workers=_merge(args.workers, cfg, "run.workers", int, 1),
    )
    report = run_pipeline(config)
    last = -1
    print(f"stream={spec.kind} eps={config.epsilon} reps={config.replications} "
          f"T_cal={spec.T_cal} W={spec.W}")
    print(f"{'method':<8}{'final CE':>12}{'final SHP':>12}")
    for m in report.ce_mean:
        print(f"{m:<8}{report.ce_mean[m][last]:>12.5f}{report.shp_mean[m][last]:>12.5f}")
    for key, val in report.diagnostics.items():
        print(f"{key}: {val}")
    for f in report.files:
        print(f"wrote {f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
