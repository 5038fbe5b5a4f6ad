"""Command-line experiment runner.

Subcommands:
  run          the joint online-calibration pipeline over a stream
  theorems     the structural-guarantee check suite
  climatology  covariate-free hedging on a Bernoulli outcome stream
  dump-stream  write a generated stream to CSV (t, score, y, truth)

A config file (INI sections [stream] and [run], keyed by flag destination)
supplies the parser's defaults: explicit flags win over it, and it wins over
the library's defaults. Its values are checked like flags, unknown keys are
rejected, and a rejected argument ends in a usage error.
"""

from __future__ import annotations

import argparse
import configparser
from dataclasses import replace

import numpy as np

from .datagen import StreamSpec, default_spec
from .pipeline import (
    ExperimentConfig,
    dump_stream,
    run_climatology,
    run_pipeline,
    run_theorem_suite,
)

def _read_config(path, keys) -> dict:
    """The file's [stream] and [run] values, keyed by flag destination;
    a key outside ``keys`` raises ValueError."""
    cp = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        cp.read_file(fh)
    values = {k: v for s in ("stream", "run") if cp.has_section(s) for k, v in cp.items(s)}
    if values.keys() - keys:
        raise ValueError(f"unknown keys in {path}: {sorted(values.keys() - keys)}")
    if "drift" in values:
        word = values["drift"].lower()
        if word not in cp.BOOLEAN_STATES:
            raise ValueError(f"drift must be one of {'/'.join(cp.BOOLEAN_STATES)}, not {values['drift']!r}")
        values["drift"] = cp.BOOLEAN_STATES[word]
    return values


def _given(args, **fields) -> dict:
    """``{field: args.<dest>}`` for each destination the user supplied."""
    return {f: getattr(args, dest) for f, dest in fields.items()
            if getattr(args, dest) is not None}


def _build_spec(args) -> StreamSpec:
    kind = "csv" if args.csv is not None else args.kind
    if kind is None:
        raise ValueError("provide --stream KIND or --csv PATH (or a config file)")
    sizes = _given(args, T_train="t_train", T_cal="t_cal", W="window", delta="delta")
    if kind == "csv":
        if args.t_test is not None:
            raise ValueError("--ttest applies to synthetic kinds; a csv stream tests on "
                             "the rows after its training block")
        spec = StreamSpec(kind="csv", seed=args.seed, csv_path=args.csv,
                          label_column=args.label, sortby_column=args.sortby,
                          score_column=args.score, T_cal=1000)
    else:
        spec = default_spec(kind, seed=args.seed, drift=args.drift)
        sizes.update(_given(args, T_test="t_test"))
    return replace(spec, **sizes)


def _add_stream_flags(ap):
    ap.add_argument("--config", help="INI config file ([stream]/[run] sections)")
    ap.add_argument("--stream", dest="kind",
                    help="stream kind: cov1d|label1d|reg1d|covmulti|labelmulti|adversarial")
    ap.add_argument("--csv", help="CSV path (implies a csv stream)")
    ap.add_argument("--label", help="CSV label column")
    ap.add_argument("--sortby", help="CSV drift-induction column (noisy sort)")
    ap.add_argument("--score", help="CSV precomputed-score column")
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--ttrain", dest="t_train", type=int, help="training-block length")
    ap.add_argument("--tcal", dest="t_cal", type=int,
                    help="calibration prefix length (test stream)")
    ap.add_argument("--window", type=int, help="windowed-refit period W")
    ap.add_argument("--ttest", dest="t_test", type=int, help="test-stream length (synthetic kinds)")
    ap.add_argument("--delta", type=float, help="drift rate for covmulti/labelmulti")
    ap.add_argument("--drift", action=argparse.BooleanOptionalAction, default=True,
                    help="covmulti/labelmulti drift: canonical (default) or i.i.d. (delta = 0)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="opscal",
                                 description="streaming post-hoc calibration experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the online-calibration pipeline")
    _add_stream_flags(run_p)
    run_p.add_argument("--methods", type=lambda v: tuple(m.strip() for m in v.split(",") if m.strip()),
                       help="comma list, e.g. BM,FPS,WPS,OPS,TOPS,HOPS (default by stream kind)")
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
    cmd_p = sub.choices[args.command]
    if getattr(args, "config", None):
        try:  # the run flags' destinations are the keys of both sections
            cmd_p.set_defaults(**_read_config(args.config, vars(run_p.parse_args([]))))
        except (OSError, configparser.Error, ValueError) as exc:
            cmd_p.error(str(exc))
        args = ap.parse_args(argv)

    if args.command == "theorems":
        rows = run_theorem_suite(output_dir=args.out, quick=args.quick)
        width = max(len(r.name) for r in rows) + 2
        for r in rows:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}} {r.detail}: measured {r.measured:.6g} "
                  f"{r.direction} bound {r.bound:.6g}")
        if args.out:
            print(f"wrote {args.out}/theorems.csv")
        return 0 if all(r.passed for r in rows) else 1

    if args.command == "climatology":
        try:  # the argument checks run before any replication or output
            rep = run_climatology(p=args.bern, T=args.T, epsilon=args.eps,
                                  replications=args.reps, master_seed=args.seed,
                                  output_dir=args.out)
        except ValueError as exc:
            cmd_p.error(str(exc))
        print(f"mean of last 1000 forecasts over {args.reps} replications: "
              f"{float(np.mean(rep.tail_means)):.4f} (target {args.bern})")
        for f in rep.files:
            print(f"wrote {f}")
        return 0

    try:
        spec = _build_spec(args)
        if args.command == "run":
            config = ExperimentConfig(
                stream=spec,
                master_seed=spec.seed,
                **_given(args, methods="methods", epsilon="eps", replications="reps",
                         eval_stride="eval_stride", workers="workers", output_dir="out"),
            )
        else:  # dump-stream
            print(f"wrote {dump_stream(spec, args.out)}")
            return 0
    except ValueError as exc:
        cmd_p.error(str(exc))

    report = run_pipeline(config)
    print(f"stream={spec.kind} eps={config.epsilon} reps={config.replications} "
          f"T_cal={spec.T_cal} W={spec.W}")
    print(f"{'method':<8}{'final CE':>12}{'final SHP':>12}")
    for m in report.ce_mean:
        print(f"{m:<8}{report.ce_mean[m][-1]:>12.5f}{report.shp_mean[m][-1]:>12.5f}")
    for key, val in report.diagnostics.items():
        print(f"{key}: {val}")
    for f in report.files:
        print(f"wrote {f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
