"""Correctness gates. They run outside the timed region; an operation that
fails one counts as failed, exactly like one that raises."""

from __future__ import annotations

import math

import numpy as np

# Admits last-bit differences from reordered floating-point arithmetic, not
# a changed result: a different algorithm moves final metrics by far more.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def check_report(report: dict, require_regret: bool) -> list[str]:
    """Problems with one ``report.json``: non-finite values, final CE/SHP/
    Brier outside [0, 1], or an online-scaler regret bound that failed."""
    problems = [
        f"{path} is not finite: {v!r}"
        for path, v in _leaves(report)
        if isinstance(v, float) and not math.isfinite(v)
    ]
    for method, final in report["final"].items():
        for key in ("ce", "shp", "brier"):
            if not 0.0 <= final[key] <= 1.0:
                problems.append(f"final {method} {key} = {final[key]!r} outside [0, 1]")
    if require_regret and report["diagnostics"].get("OPS_regret_bound_satisfied") is not True:
        problems.append("OPS_regret_bound_satisfied does not hold")
    return problems


def compare_reference(report: dict, reference: dict) -> list[str]:
    """Differences between a report's final metrics/diagnostics and the
    stored reference for the same configuration."""
    got = dict(_leaves({"final": report["final"], "diagnostics": report["diagnostics"]}))
    want = dict(_leaves({"final": reference["final"], "diagnostics": reference["diagnostics"]}))
    problems = [f"{k} missing from report" for k in want.keys() - got.keys()]
    problems += [f"{k} not in reference" for k in got.keys() - want.keys()]
    for k in want.keys() & got.keys():
        a, b = got[k], want[k]
        if isinstance(b, float) and not isinstance(a, bool) and isinstance(a, (int, float)):
            if not math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL):
                problems.append(f"{k} = {a!r}, reference {b!r}")
        elif a != b:
            problems.append(f"{k} = {a!r}, reference {b!r}")
    return problems


def bad_steps(outputs, replay) -> np.ndarray:
    """Boolean mask of closed-loop steps whose forecast leaves [0, 1] or
    differs from the batch replay; both are sequences of equal-length
    columns (online scaler, tracked, hedged)."""
    bad = np.zeros(len(outputs[0]), dtype=bool)
    for out, ref in zip(outputs, replay, strict=True):
        out = np.asarray(out)
        bad |= ~((out >= 0.0) & (out <= 1.0))
        bad |= out != np.asarray(ref)
    return bad
