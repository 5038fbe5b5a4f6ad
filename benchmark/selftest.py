"""Smoke test of the benchmark itself, at tiny size (about a minute):

    python3 benchmark/selftest.py

Checks that every metric declared in BENCHMARK.json is printed with its
unit, that two traced runs of one seed give identical exact counts while
another seed gives different inputs, and that a corrupted output (a
forecast outside [0, 1]) trips the correctness gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import replace

import run

SECONDS = 0.5
failures: list[str] = []


def check(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def quiet_run(w, seed, trace):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        record = run.run_workload(w, seed, SECONDS, trace, setup_samples=1)
    return record, out.getvalue().strip().splitlines()


def check_printed(name, lines, declared):
    result = json.loads(lines[-1])
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    for d in declared:
        check(printed.get(d["name"]) == d["unit"] == result["metrics"][d["name"]]["unit"],
              f"{name}: {d['name']} printed with unit {d['unit']}")
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and set(result["metrics"]) == {d["name"] for d in declared},
          f"{name}: last line has exactly the contract keys and declared metrics")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{name}: correct, nothing failed")


def check_workloads(workloads, declared):
    for name, full in workloads.WORKLOADS.items():
        w = full.tiny()
        _, lines = quiet_run(w, 1, 0)
        check_printed(name, lines, declared["end_to_end"])
        a, lines = quiet_run(w, 1, 1)
        check_printed(name + " traced", lines, declared["per_layer"])
        b, _ = quiet_run(w, 1, 1)
        c, _ = quiet_run(w, 2, 1)
        check(a["exact_counts_first_unit"] == b["exact_counts_first_unit"],
              f"{name}: same seed, identical exact counts {a['exact_counts_first_unit']}")
        n = min(len(a["inputs"]), len(b["inputs"]))
        check(a["inputs"][:n] == b["inputs"][:n] and a["inputs"][0] != c["inputs"][0],
              f"{name}: same seed same inputs, other seed other inputs")
    # the inputs a seed maps to really are different streams
    spec = workloads.WORKLOADS["stream-step"].tiny().spec
    s1 = workloads.build_scored_stream(replace(spec, seed=workloads.derive_seed(1, 0)))
    s2 = workloads.build_scored_stream(replace(spec, seed=workloads.derive_seed(2, 0)))
    check(not (s1.scores == s2.scores).all(), "seeds 1 and 2 generate different streams")


def check_gates(workloads):
    import gate
    import numpy as np

    with open(run.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)["covmulti-default"]
    report = {"final": json.loads(json.dumps(reference["final"])),
              "diagnostics": dict(reference["diagnostics"])}
    check(gate.check_report(report, True) == [] and gate.compare_reference(report, reference) == [],
          "the reference passes its own gate")
    report["final"]["OPS"]["ce"] = math.nextafter(report["final"]["OPS"]["ce"], 1.0)
    check(gate.compare_reference(report, reference) == [], "a last-bit difference is admitted")
    report["final"]["OPS"]["ce"] *= 1.0 + 1e-6
    check(gate.compare_reference(report, reference) != [], "a changed result is caught")
    report["final"]["HOPS"]["ce"] = 1.5
    check(gate.check_report(report, True) != [], "a final CE outside [0, 1] trips the report gate")
    report = {"final": {}, "diagnostics": {"OPS_regret_mean": float("nan"),
                                           "OPS_regret_bound_satisfied": False}}
    check(len(gate.check_report(report, True)) == 2, "NaN and a failed regret bound trip the gate")
    cols = [np.array([0.2, 0.7]), np.array([0.25, 0.75]), np.array([0.25, 1.2])]
    check(gate.bad_steps(cols, cols).tolist() == [False, True], "a forecast of 1.2 trips the step gate")

    # end to end: corrupt one hedged forecast inside the measured loop
    real_loop = workloads.closed_loop

    def corrupted(*args, **kwargs):
        out, lat = real_loop(*args, **kwargs)
        out[2, 0] = 1.5
        return out, lat

    workloads.closed_loop = corrupted
    try:
        m = workloads.measure_stream(workloads.WORKLOADS["stream-step"].tiny(), 1, 0.0)
    finally:
        workloads.closed_loop = real_loop
    check(m.failed == 1 and m.attempted >= 1, "a corrupted closed-loop forecast counts as failed")

    real_run = workloads.run_pipeline

    def corrupted_run(config):
        rep = real_run(config)
        path = f"{config.output_dir}/report.json"
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data["final"]["OPS"]["ce"] = -0.5
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return rep

    workloads.run_pipeline = corrupted_run
    try:
        w = workloads.WORKLOADS["covmulti-default"].tiny()
        m = workloads.measure_pipeline(w, 1, 0.0, str(run.OUT))
    finally:
        workloads.run_pipeline = real_run
    check(m.failed == m.attempted == 1, "a corrupted report.json fails its replication")


def main() -> int:
    declared = run.declared()
    workloads = run._import_package()
    run.OUT.mkdir(exist_ok=True)
    check(set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]},
          "BENCHMARK.json declares exactly the implemented workloads")
    check_gates(workloads)
    check_workloads(workloads, declared)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
