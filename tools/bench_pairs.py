"""Paired benchmark comparison of two checkouts.

Runs the declared benchmark command (``BENCHMARK.json``'s ``command``, at
present ``python3 benchmark/run.py``) with ``--workload W --seed N
--seconds S --trace 0``, S being the declared ``run_seconds``, in a parent
checkout and in a change checkout, one seed per pair, alternating which side runs first, and merges per-pair
deltas, each side's median and quartiles and the change's win count for
every declared end-to-end metric into a ``BENCH_<topic>.json``::

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload covmulti-default --seeds 201-210 --out BENCH_topic.json
    python3 tools/bench_pairs.py --parent ../parent --control \\
        --workload covmulti-default --seeds 301-304 --out BENCH_topic.json

``--control`` runs an A/A control in place of a change: the parent against
a copy of itself in a temporary directory, so a gap that the location of a
checkout alone produces shows. Each call replaces the entry of its kind
("change" or "control") and workload in an existing output file and keeps
the rest.

The rules are the benchmark's. A metric is resolved unless the runs of
either side spread wider than its bound (IQR / median), and an unresolved
metric is resolved after all when every change run beats every parent
run. A resolved metric is within its bound when the change's median is
worse than the parent's by no more than the bound ``BENCHMARK.json``
declares; ``within_bound`` is null for an unresolved one. A gain is shown
when the metric is resolved, the change wins at least nine tenths of the
pairs (ties count for neither side), the medians differ, in the better
direction, by more than the distance between the parent's quartiles, and
the change fails no more operations in all than the parent.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path


def seed_list(text: str) -> list[int]:
    """Seeds from ``"201-210"``, ``"3,5,8"`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0:
        raise ValueError(f"no non-negative seeds in {text!r}")
    return seeds


def result_line(stdout: str) -> dict:
    """The result object of one benchmark run: its last line that is a JSON
    object, with ``correct``, ``attempted``, ``failed`` and ``metrics``."""
    for line in reversed(stdout.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("benchmark output has no result line")


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the
    sorted values as numpy's default percentile does."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare_metric(parent, change, better: str, bound: float) -> dict:
    """Per-pair deltas, medians, quartiles and the win count of one metric,
    ``parent[i]`` and ``change[i]`` being pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1.0 if better == "higher" else -1.0
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    spread = {"parent": (pq[2] - pq[0]) / pq[1], "change": (cq[2] - cq[0]) / cq[1]}
    separated = all(sign * (c - p) > 0.0 for p in parent for c in change)
    resolved = max(spread.values()) <= bound or separated
    return {
        "better": better, "bound": bound, "parent": list(parent), "change": list(change),
        "delta_pct": [round(100.0 * (c - p) / p, 2) for p, c in zip(parent, change)],
        "parent_median": pq[1], "change_median": cq[1],
        "parent_quartiles": [pq[0], pq[2]], "change_quartiles": [cq[0], cq[2]],
        "median_delta_pct": round(100.0 * (cq[1] - pq[1]) / pq[1], 2),
        "change_better_pairs": wins, "pairs": len(parent),
        "spread": spread, "resolved": resolved,
        "gain_shown": resolved and wins >= 0.9 * len(parent) and gain > pq[2] - pq[0],
        "within_bound": -gain <= bound * pq[1] if resolved else None,
    }


def summarize(seeds, first_sides, runs, declared: dict) -> dict:
    """One workload's comparison from its runs, ``runs[side][i]`` being the
    result line of pair i on that side. No metric shows a gain when the
    change fails more operations in all than the parent."""
    out = {"seeds": list(seeds), "first_side": list(first_sides)}
    for key in ("attempted", "failed", "correct"):
        out[key] = {side: [r[key] for r in runs[side]] for side in ("parent", "change")}
    more_failures = sum(out["failed"]["change"]) > sum(out["failed"]["parent"])
    out["metrics"] = {}
    for d in declared["end_to_end"]:
        metric = compare_metric([r["metrics"][d["name"]]["value"] for r in runs["parent"]],
                                [r["metrics"][d["name"]]["value"] for r in runs["change"]], d["better"], d["bound"])
        metric["gain_shown"] = metric["gain_shown"] and not more_failures
        out["metrics"][d["name"]] = {"unit": d["unit"], **metric}
    return out


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                                     "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    record = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    provenance = json.loads(record.read_text(encoding="utf-8"))["provenance"]
    kept = ("source_sha256", "kernel_path", "numpy", "python", "nproc")
    return {**result_line(proc.stdout), "provenance": {k: provenance[k] for k in kept}}


def compare(parent: Path, change: Path, workload: str, seeds) -> dict:
    declared = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": parent, "change": change}
    runs, first_sides = {"parent": [], "change": []}, []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first_sides.append(order[0])
        for side in order:
            runs[side].append(run_once(sides[side], declared["command"], workload, seed, declared["run_seconds"]))
            print(f"# {workload} seed {seed} {side}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in runs[side][-1]["metrics"].items()), flush=True)
    out = summarize(seeds, first_sides, runs, declared)
    out["provenance"] = {side: runs[side][0]["provenance"] for side in runs}
    if any(r["provenance"] != out["provenance"][side] for side in runs for r in runs[side]):
        raise RuntimeError(f"{workload}: a checkout's source or environment changed between its runs")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    side = ap.add_mutually_exclusive_group(required=True)
    side.add_argument("--change", type=Path, help="checkout of the change")
    side.add_argument("--control", action="store_true", help="compare the parent with a copy of itself")
    ap.add_argument("--workload", action="append", required=True, help="a declared workload; repeatable")
    ap.add_argument("--seeds", type=seed_list, required=True, help='one seed per pair: "201-210" or "3,5"')
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<topic>.json to create or update")
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc["command"] = ("benchmark command --workload W --seed N --seconds run_seconds --trace 0, pairs alternating "
                      "which side runs first; every run made is listed, one value per pair in seed order")
    kind = "control" if args.control else "change"
    with tempfile.TemporaryDirectory() as tmp:
        if args.control:
            change = Path(tmp) / "copy"
            shutil.copytree(parent, change, ignore=shutil.ignore_patterns(".git", ".bench_out", "__pycache__"))
        else:
            change = args.change.resolve()
        for workload in args.workload:
            result = compare(parent, change, workload, args.seeds)
            doc.setdefault(kind, {})[workload] = result
            args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
