"""The statistics of ``tools/bench_pairs.py`` on canned benchmark output;
no benchmark process is started."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def canned_output(scale: float, failed: int = 0) -> str:
    """What one run of the benchmark prints: comment lines, one line per
    metric, fail_frac and the result line; every metric value is ``scale``
    times its position."""
    metrics = {d["name"]: {"value": scale * (i + 1), "unit": d["unit"]}
               for i, d in enumerate(DECLARED["end_to_end"])}
    lines = ["# workload=covmulti-default seed=1 kernel_path=numpy"]
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"fail_frac {failed / 50!r} frac ({failed} of 50)")
    lines.append(json.dumps({"correct": failed == 0, "attempted": 50, "failed": failed, "metrics": metrics}))
    return "\n".join(lines) + "\n"


def test_result_line_is_the_last_json_object():
    result = bench_pairs.result_line(canned_output(2.0, failed=1))
    assert (result["attempted"], result["failed"], result["correct"]) == (50, 1, False)
    assert result["metrics"]["rep_ms_p50"] == {"value": 4.0, "unit": "ms"}
    with pytest.raises(ValueError, match="no result line"):
        bench_pairs.result_line("obs_per_s 1.0 1/s\nfail_frac 0.0 frac (0 of 1)\n")


def test_seed_list():
    assert bench_pairs.seed_list("201-203,7") == [201, 202, 203, 7]
    assert bench_pairs.seed_list("5") == [5]
    with pytest.raises(ValueError):
        bench_pairs.seed_list("9-3")


@pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0], [0.5, 9.0, 2.5, 7.0, 1.0, 4.0, 8.0]])
def test_quartiles_interpolate_as_numpy(values):
    assert np.allclose(bench_pairs.quartiles(values), np.percentile(values, [25, 50, 75]), rtol=1e-15)


PARENT = [30.0, 30.4, 29.6, 30.2, 29.8, 30.1, 29.9, 30.3, 29.7, 30.0]  # median 30.0, quartiles 29.825 and 30.175


def test_gain_shown_on_nine_wins_and_a_gap_past_the_parent_spread():
    change = [p - 3.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    out = bench_pairs.compare_metric(PARENT, change, "lower", 0.25)
    assert (out["change_better_pairs"], out["pairs"], out["gain_shown"]) == (9, 10, True)
    assert out["parent_median"] == pytest.approx(30.0) and out["parent_quartiles"] == pytest.approx([29.825, 30.175])
    assert out["delta_pct"][0] == -10.0 and out["within_bound"]


def test_ties_count_for_neither_side():
    change = [p - 3.0 for p in PARENT[:8]] + PARENT[8:]
    out = bench_pairs.compare_metric(PARENT, change, "lower", 0.25)
    assert (out["change_better_pairs"], out["gain_shown"]) == (8, False)


def test_no_gain_when_the_median_gap_is_inside_the_parent_spread():
    change = [p - 0.3 for p in PARENT]  # wins every pair, but 0.3 < 30.175 - 29.825
    out = bench_pairs.compare_metric(PARENT, change, "lower", 0.25)
    assert (out["change_better_pairs"], out["gain_shown"]) == (10, False)


def test_higher_is_better_and_the_bound():
    rates = [1000.0 + 10.0 * i for i in range(10)]
    faster = bench_pairs.compare_metric(rates, [2.0 * r for r in rates], "higher", 0.25)
    assert (faster["change_better_pairs"], faster["gain_shown"], faster["median_delta_pct"]) == (10, True, 100.0)
    assert bench_pairs.compare_metric(rates, [0.8 * r for r in rates], "higher", 0.25)["within_bound"]
    slower = bench_pairs.compare_metric(rates, [0.7 * r for r in rates], "higher", 0.25)
    assert (slower["change_better_pairs"], slower["within_bound"]) == (0, False)


def test_summarize_covers_every_declared_metric():
    runs = {"parent": [bench_pairs.result_line(canned_output(s)) for s in (1.0, 1.1)],
            "change": [bench_pairs.result_line(canned_output(s, failed=f)) for s, f in ((0.9, 0), (0.95, 2))]}
    out = bench_pairs.summarize([4, 5], ["parent", "change"], runs, DECLARED)
    assert list(out["metrics"]) == [d["name"] for d in DECLARED["end_to_end"]]
    assert out["failed"] == {"parent": [0, 0], "change": [0, 2]}
    assert out["correct"] == {"parent": [True, True], "change": [True, False]}
    assert out["metrics"]["rep_ms_p50"]["parent"] == [2.0, 2.2]


def test_no_gain_when_the_change_fails_more_operations():
    runs = {"parent": [bench_pairs.result_line(canned_output(1.0 + 0.01 * i, failed=1)) for i in range(10)],
            "change": [bench_pairs.result_line(canned_output(0.5, failed=f)) for f in [2] + [0] * 9]}
    fewer = bench_pairs.summarize(range(10), ["parent", "change"] * 5, runs, DECLARED)
    assert fewer["metrics"]["rep_ms_p50"]["gain_shown"]  # 2 failures against 10
    runs["change"][1] = bench_pairs.result_line(canned_output(0.5, failed=9))
    more = bench_pairs.summarize(range(10), ["parent", "change"] * 5, runs, DECLARED)
    assert more["failed"]["change"][:2] == [2, 9]
    assert not any(m["gain_shown"] for m in more["metrics"].values())
    assert more["metrics"]["rep_ms_p50"]["change_better_pairs"] == 10


def test_unresolved_when_the_runs_spread_past_the_bound():
    wide = [20.0, 40.0, 25.0, 35.0, 30.0, 22.0, 38.0, 28.0, 32.0, 30.0]  # quartiles 25.75, 34.25; median 30
    out = bench_pairs.compare_metric(wide, [w + 1.0 for w in wide], "lower", 0.25)
    assert out["spread"]["parent"] == pytest.approx(8.5 / 30.0) and not out["resolved"]
    assert out["within_bound"] is None and not out["gain_shown"]
    out = bench_pairs.compare_metric(PARENT, [w - 10.0 for w in wide], "lower", 0.25)  # change side wide
    assert out["spread"]["change"] == pytest.approx(8.5 / 20.0) and out["change_better_pairs"] == 10
    assert not out["resolved"] and not out["gain_shown"] and out["within_bound"] is None


def test_resolved_past_the_spread_when_every_change_run_beats_every_parent_run():
    wide = [20.0, 40.0, 25.0, 35.0, 30.0, 22.0, 38.0, 28.0, 32.0, 30.0]
    out = bench_pairs.compare_metric(wide, [w / 4.0 for w in wide], "lower", 0.25)  # max 10 < min 20
    assert out["resolved"] and out["gain_shown"] and out["within_bound"]
    out = bench_pairs.compare_metric(wide, [w / 2.0 for w in wide], "lower", 0.25)  # 20 is not below 20
    assert not out["resolved"]
