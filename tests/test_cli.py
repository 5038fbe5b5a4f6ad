import json
import subprocess
import sys

import numpy as np
import pytest

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

    def test_bad_eps_fails_before_any_replication(self, tmp_path, monkeypatch):
        import opscal.pipeline

        calls = []
        monkeypatch.setattr(opscal.pipeline, "run_replication", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="last bin midpoint"):
            main(["run", "--stream", "covmulti", "--reps", "1", "--methods", "OPS,TOPS,HOPS",
                  "--eps", "0.3", "--out", str(tmp_path / "out")])
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

    def test_climatology_bad_eps_fails_before_output(self, tmp_path):
        with pytest.raises(ValueError, match="last bin midpoint"):
            main(["climatology", "--eps", "0.3", "--T", "500", "--reps", "1",
                  "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opscal.cli", "dump-stream", "--stream", "label1d",
             "--seed", "1", "--ttrain", "30", "--ttest", "50", "--out", "/dev/null"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
