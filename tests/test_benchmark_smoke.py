"""Every declared benchmark workload runs once at its tiny size, untraced
and traced, with nothing failed: a change that breaks the benchmark's view
of the package (a renamed patch point, a removed module name, a spec that
no longer validates) fails here rather than in a benchmark run."""

import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
DECLARED = [w["name"] for w in json.loads((BENCHMARK.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    # run.py is not imported: it pins thread variables at import
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import workloads

    return workloads


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", DECLARED)
def test_tiny_workload_runs_clean(workloads, tmp_path, name, traced):
    w = workloads.WORKLOADS[name].tiny()
    tracer = workloads.Tracer() if traced else None
    if isinstance(w, workloads.PipelineWorkload):
        m = workloads.measure_pipeline(w, seed=0, seconds=0.0, out_root=str(tmp_path), tracer=tracer)
    else:
        m = workloads.measure_stream(w, seed=0, seconds=0.0, tracer=tracer)
    assert m.attempted > 0
    assert (m.failed, m.problems) == (0, [])
    if traced:
        assert m.traced_reps >= 1 and m.counts
