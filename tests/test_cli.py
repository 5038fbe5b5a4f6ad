import hashlib
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import opscal.cli
from opscal.cli import main


class TestRunCommand:
    def test_synthetic_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "run", "--stream", "labelmulti", "--no-drift", "--reps", "2", "--seed", "5",
            "--ttrain", "300", "--ttest", "1200", "--tcal", "300", "--window", "150",
            "--methods", "BM,OPS,TOPS", "--eps", "0.1", "--eval-stride", "300",
            "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "final CE" in text
        assert (out / "report.json").exists()
        assert (out / "TOPS_ce.csv").exists()
        assert (out / "ce.svg").exists()

    def test_bad_eps_fails_before_any_replication(self, tmp_path, monkeypatch, capsys):
        import opscal.pipeline

        calls = []
        monkeypatch.setattr(opscal.pipeline, "run_replication", lambda *a: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--stream", "covmulti", "--reps", "1", "--methods", "OPS,TOPS,HOPS",
                  "--eps", "0.3", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "last bin midpoint" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[stream]\n"
            "kind = labelmulti\n"
            "seed = 5\n"
            "drift = false\n"
            "t_train = 300\n"
            "t_test = 1200\n"
            "t_cal = 300\n"
            "window = 150\n"
            "[run]\n"
            "methods = BM,OPS\n"
            "reps = 4\n"
            "eval_stride = 300\n"
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg), "--reps", "2", "--out", str(out1)]) == 0
        # same run spelled fully with flags: byte-identical outputs
        assert main([
            "run", "--stream", "labelmulti", "--no-drift", "--seed", "5",
            "--ttrain", "300", "--ttest", "1200", "--tcal", "300", "--window", "150",
            "--methods", "BM,OPS", "--reps", "2", "--eval-stride", "300",
            "--out", str(out2),
        ]) == 0
        for name in ("BM_ce.csv", "OPS_ce.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_stream_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "--reps", "1"])

    def test_csv_stream_run(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "d.csv"
        lines = ["age,f1,label"]
        for i in range(400):
            lines.append(f"{i % 60},{rng.normal():.6f},{int(rng.integers(0, 2))}")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main([
            "run", "--csv", str(path), "--label", "label", "--sortby", "age",
            "--ttrain", "80", "--tcal", "80", "--window", "60",
            "--methods", "BM,FPS,OPS", "--reps", "2", "--eval-stride", "100",
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["stream"]["kind"] == "csv"
        assert report["diagnostics"]["csv_dropped_rows"] == 0


    def test_csv_snapshot_times_follow_the_file(self, tmp_path):
        # 400 usable rows and T_train 80 leave 320 test points
        rng = np.random.default_rng(0)
        path = tmp_path / "d.csv"
        rows = [f"{i % 60},{rng.normal():.6f},{int(rng.integers(0, 2))}" for i in range(400)]
        path.write_text("\n".join(["age,f1,label"] + rows) + "\n")
        out = tmp_path / "out"
        assert main(["run", "--csv", str(path), "--label", "label", "--ttrain", "80", "--tcal", "80",
                     "--window", "60", "--methods", "BM,OPS", "--reps", "1", "--eval-stride", "100",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["timestamps"] == [200, 300, 320]
        assert report["stream"]["T_test"] == 320
        assert [line.split(",")[0] for line in (out / "BM_ce.csv").read_text().split()[1:]] == [
            "200", "300", "320"]

    def test_adversarial_default_methods(self, tmp_path, capsys):
        assert main(["run", "--stream", "adversarial", "--ttest", "1200", "--reps", "1",
                     "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["methods"] == ["OPS", "HOPS"]


class TestOtherCommands:
    def test_dump_stream(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["dump-stream", "--stream", "cov1d", "--seed", "3",
                   "--ttrain", "50", "--ttest", "100", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "t,score,y,truth"

    def test_climatology(self, tmp_path, capsys):
        rc = main(["climatology", "--bern", "0.37", "--T", "2000", "--reps", "2",
                   "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert "last 1000 forecasts" in capsys.readouterr().out
        assert (tmp_path / "climatology_trace.csv").exists()

    def test_climatology_bad_eps_fails_before_output(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["climatology", "--eps", "0.3", "--T", "500", "--reps", "1",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "last bin midpoint" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_theorems_quick(self, tmp_path, capsys):
        assert main(["theorems", "--quick", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = (tmp_path / "theorems.csv").read_text().splitlines()[1:]
        # one PASS line per row of the CSV, in its order, then the file written
        assert [line.split()[:2] for line in lines[:-1]] == [["PASS", row.split(",")[0]] for row in rows]
        assert lines[-1] == f"wrote {tmp_path}/theorems.csv"
        digest = hashlib.sha256((tmp_path / "theorems.csv").read_bytes()).hexdigest()
        assert digest == "8da546b4b56bf3c4a3c71fb4c1c5ca8d2819a2a8328e26bd6c49919b9afb9c21"

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opscal.cli", "dump-stream", "--stream", "label1d",
             "--seed", "1", "--ttrain", "30", "--ttest", "50", "--out", "/dev/null"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["climatology", "--reps", "0"], "replications must be >= 1"),
    (["run", "--stream", "labelmulti", "--tcal", "-5"], "T_cal must be >= 0"),
    (["run", "--stream", "labelmulti", "--ttrain", "-500"], "T_train must be >= 0"),
    (["run", "--stream", "cov1d", "--ttest", "0"], "T_test must be >= 1"),
    (["dump-stream", "--stream", "cov1d", "--ttest", "0"], "T_test must be >= 1"),
    (["run", "--stream", "nope"], "no canonical spec for stream kind 'nope'"),
    (["run", "--config", "missing.ini"], "No such file"),
    (["run", "--csv", "data.csv", "--label", "label", "--ttest", "100"],
     "--ttest applies to synthetic kinds"),
    (["dump-stream", "--stream", "cov1d", "--seed", "-1"], "seed must be >= 0"),
    (["run", "--stream", "covmulti", "--ttest", "1500", "--tcal", "1000"],
     "stream too short: need at least T_cal + 2W = 2000 points"),
    (["dump-stream", "--stream", "adversarial"], "adversarial outcomes are generated at run time"),
])
def test_rejected_arguments_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"opscal {argv[0]}: error: " in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


CSV_BASE = ["--csv", "data.csv", "--label", "label"]


@pytest.mark.parametrize("section, key, value, flag, base", [
    ("stream", "kind", "covmulti", ["--stream", "covmulti"], []),
    ("stream", "csv", "data.csv", ["--csv", "data.csv"], ["--label", "label"]),
    ("stream", "label", "label", ["--label", "label"], ["--csv", "data.csv"]),
    ("stream", "sortby", "age", ["--sortby", "age"], CSV_BASE),
    ("stream", "score", "score", ["--score", "score"], CSV_BASE),
    ("stream", "seed", "7", ["--seed", "7"], ["--stream", "labelmulti"]),
    ("stream", "t_train", "300", ["--ttrain", "300"], ["--stream", "labelmulti"]),
    ("stream", "t_cal", "200", ["--tcal", "200"], ["--stream", "labelmulti"]),
    ("stream", "window", "150", ["--window", "150"], ["--stream", "labelmulti"]),
    # T_cal = 200 and W = 500 fit T_test = 1200 (the first snapshot is at T_cal + 2W)
    ("stream", "t_test", "1200", ["--ttest", "1200"], ["--stream", "labelmulti", "--tcal", "200"]),
    # T_test = 2000 keeps the prior 0.5 + delta*t inside (0, 1) up to t = 3000
    ("stream", "delta", "0.0001", ["--delta", "0.0001"], ["--stream", "labelmulti", "--ttest", "2000"]),
    ("stream", "drift", "no", ["--no-drift"], ["--stream", "labelmulti"]),
    ("run", "methods", "BM,OPS", ["--methods", "BM,OPS"], ["--stream", "labelmulti"]),
    ("run", "eps", "0.2", ["--eps", "0.2"], ["--stream", "labelmulti"]),
    ("run", "reps", "3", ["--reps", "3"], ["--stream", "labelmulti"]),
    ("run", "eval_stride", "300", ["--eval-stride", "300"], ["--stream", "labelmulti"]),
    ("run", "workers", "2", ["--workers", "2"], ["--stream", "labelmulti"]),
    ("run", "out", "o", ["--out", "o"], ["--stream", "labelmulti"]),
])
def test_config_key_matches_its_flag(tmp_path, monkeypatch, section, key, value, flag, base):
    configs = []

    def capture(config):
        configs.append(config)
        return SimpleNamespace(ce_mean={}, shp_mean={}, diagnostics={}, files=[])

    monkeypatch.setattr(opscal.cli, "run_pipeline", capture)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["run", "--config", str(cfg)] + base) == 0
    assert main(["run"] + base + flag) == 0
    from_file, from_flag = configs
    assert from_file == from_flag
    if base[:1] == ["--stream"]:  # complete without the key, so the key must matter
        assert main(["run"] + base) == 0
        assert configs[-1] != from_flag


@pytest.mark.parametrize("line, message", [
    ("reps = two", "argument --reps: invalid int value: 'two'"),
    ("rep = 4", "unknown keys in"),
    ("drift = ture", "drift must be one of"),
])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[stream]\nkind = covmulti\n[run]\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"opscal run: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_delta_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        main(["dump-stream", "--stream", "covmulti", "--delta", "nan", "--out", str(out)])
    assert exc.value.code == 2
    assert "opscal dump-stream: error: delta must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stream", [["--stream", "cov1d"], ["--csv", "data.csv", "--label", "label"]],
                         ids=["cov1d", "csv"])
def test_delta_on_a_kind_that_does_not_drift_is_a_usage_error(tmp_path, capsys, stream):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", *stream, "--delta", "0.5", "--reps", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "opscal run: error: stream kind" in capsys.readouterr().err
    assert not out.exists()
