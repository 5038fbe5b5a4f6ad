"""Benchmark the hot kernels: numba-jitted versus the pure-Python/numpy
fallback (OPSCAL_NUMBA=0).

The fallback timings run in a subprocess with the env flag set, so each
path is measured exactly as a user would get it. Invoked via
``opscal bench`` or ``python -m opscal.bench --inner`` (the subprocess
entry).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from . import kernels
from ._accel import NUMBA_ENABLED
from .ons import initial_theta

CASES = ("ons_pass", "tracking_pass", "hops_pass", "hops_adversarial_pass")


def _inputs(T: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.01, 0.99, T)
    feats = np.ascontiguousarray(
        np.column_stack([np.log(scores / (1 - scores)), np.ones(T)])
    )
    ys = (rng.random(T) < scores).astype(float)
    expert = rng.random(T)
    us = rng.random(T)
    return feats, ys, expert, us


def run_cases(T: int, repeats: int = 3) -> dict:
    """Time each kernel; returns case -> best seconds over repeats."""
    feats, ys, expert, us = _inputs(T)
    theta0 = initial_theta(2)
    calls = {
        "ons_pass": lambda: kernels.ons_pass(feats, ys, 0.1, 100.0, 100.0, theta0),
        "tracking_pass": lambda: kernels.tracking_pass(expert, ys, 0.1, 10),
        "hops_pass": lambda: kernels.hops_pass(expert, ys, us, 0.1, 10),
        "hops_adversarial_pass": lambda: kernels.hops_adversarial_pass(feats, us, 0.1, 10, 0.1, 100.0, 100.0, theta0),
    }
    for fn in calls.values():  # warm up (JIT compile / cache load)
        fn()
    out = {}
    for name, fn in calls.items():
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def run_benchmark(T: int = 100_000, repeats: int = 3, file=sys.stdout) -> dict:
    """Compare both paths and print a table. Returns the timings."""
    here = run_cases(T, repeats)
    label_here = "numba" if NUMBA_ENABLED else "numpy"
    other = None
    if NUMBA_ENABLED:
        env = dict(os.environ, OPSCAL_NUMBA="0")
        proc = subprocess.run(
            [sys.executable, "-m", "opscal.bench", "--inner",
             "--T", str(T), "--repeats", str(repeats)],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode == 0:
            other = json.loads(proc.stdout.strip().splitlines()[-1])
        else:  # pragma: no cover - diagnostic path
            print(proc.stderr, file=sys.stderr)
    print(f"kernel benchmark, T={T} steps (best of {repeats})", file=file)
    if other is None:
        print(f"{'kernel':<24}{label_here + ' [s]':>12}", file=file)
        for name in CASES:
            print(f"{name:<24}{here[name]:>12.4f}", file=file)
        if NUMBA_ENABLED:
            print("(pure-numpy subprocess failed; see stderr)", file=file)
        else:
            print("numba disabled or absent: only the fallback path was timed", file=file)
        return {"path": label_here, "timings": here}
    print(f"{'kernel':<24}{'numba [s]':>12}{'numpy [s]':>12}{'speedup':>10}", file=file)
    for name in CASES:
        ratio = other[name] / here[name] if here[name] > 0 else float("inf")
        print(f"{name:<24}{here[name]:>12.4f}{other[name]:>12.4f}{ratio:>9.1f}x", file=file)
    return {"numba": here, "numpy": other}


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description="opscal kernel benchmark")
    ap.add_argument("--inner", action="store_true", help="emit JSON timings (subprocess mode)")
    ap.add_argument("--T", type=int, default=100_000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    if args.inner:
        print(json.dumps(run_cases(args.T, args.repeats)))
        return 0
    run_benchmark(args.T, args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
