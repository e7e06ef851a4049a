"""File formats and the command-line front end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from specspan import cli
from specspan.formats import (FormatError, read_vector_file, report_json,
                              write_vector_file)
from specspan.vectorset import VectorSet


def strip_timings(text: str) -> dict:
    data = json.loads(text)
    data.pop("timings_ms", None)
    return data


class TestVectorFile:
    def test_round_trip_exact(self, tmp_path, rng):
        x = rng.standard_normal((20, 5)) * np.exp(rng.uniform(-200, 200, size=(20, 5)))
        path = tmp_path / "v.csv"
        write_vector_file(str(path), VectorSet(x))
        back, ids, meta = read_vector_file(str(path))
        assert np.array_equal(back.vectors, x)
        assert ids is None

    def test_partitioned_round_trip(self, tmp_path, rng):
        x = rng.standard_normal((9, 3))
        ids = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2])
        path = tmp_path / "p.csv"
        write_vector_file(str(path), VectorSet(x), part_ids=ids,
                          metadata={"kind": "test"})
        back, rids, meta = read_vector_file(str(path))
        assert np.array_equal(back.vectors, x)
        assert np.array_equal(rids, ids)
        assert meta["kind"] == "test"
        assert meta["partitioned"] == "true"

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# hello\n# d: 2\n1.0,2.0\n# mid comment\n3.0,4.0\n")
        vs, ids, meta = read_vector_file(str(path))
        assert vs.vectors.shape == (2, 2)
        assert meta["d"] == "2"

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FormatError):
            read_vector_file(str(path))

    def test_bad_part_id_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# partitioned: true\nx,1.0,2.0\n")
        with pytest.raises(FormatError):
            read_vector_file(str(path))

    def test_scientific_notation_parses(self, tmp_path):
        path = tmp_path / "sci.csv"
        path.write_text("1e-3,2.5E+2\n-1.25e0,0.0\n")
        vs, _, _ = read_vector_file(str(path))
        assert vs.vectors[0, 0] == 1e-3 and vs.vectors[0, 1] == 250.0


class TestReportJson:
    def test_sorted_and_stable(self):
        a = report_json({"b": 1, "a": [1, 2]})
        b = report_json({"a": [1, 2], "b": 1})
        assert a == b


def run_cli(args: list[str], capsys) -> tuple[int, str, str]:
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_gen_sphere(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(["gen", "sphere", "--d", "3", "--n", "5",
                              "--seed", "1", "--out", str(out)], capsys)
        assert code == 0
        vs, _, meta = read_vector_file(str(out))
        assert vs.vectors.shape == (5, 3)
        assert np.allclose(np.linalg.norm(vs.vectors, axis=1), 1.0)

    def test_gen_pm1_small(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, _, _ = run_cli(["gen", "pm1", "--d", "8", "--n", "2",
                              "--seed", "2", "--out", str(out)], capsys)
        assert code == 0
        vs, _, _ = read_vector_file(str(out))
        assert set(np.unique(vs.vectors)) <= {-1.0, 1.0}

    def test_gen_pm1_failure_exit_3(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, _, err = run_cli(["gen", "pm1", "--d", "4", "--n", "50",
                                "--seed", "2", "--out", str(out)], capsys)
        assert code == 3
        assert "failed" in err

    def test_gen_hard_partitioned(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code, _, _ = run_cli(["gen", "hard", "--d", "16", "--beta", "1",
                              "--n-override", "64", "--seed", "7",
                              "--out", str(out)], capsys)
        assert code == 0
        vs, ids, meta = read_vector_file(str(out))
        assert int(meta["parts"]) == 16  # (d - m) + m parts
        assert len(set(ids.tolist())) == 16
        assert "planted" in meta

    def test_spanner_strong_verify(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run_cli(["gen", "sphere", "--d", "3", "--n", "12", "--seed", "1",
                 "--out", str(data)], capsys)
        rep = tmp_path / "rep.json"
        idx = tmp_path / "idx.txt"
        code, out, _ = run_cli(["spanner", "--input", str(data),
                                "--verify", "strong", "--out", str(rep),
                                "--indices-out", str(idx)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["verdict"] == "pass"
        report = json.loads(rep.read_text())
        assert report["config"]["size"] == summary["size"]
        assert len(idx.read_text().split()) == summary["size"]

    def test_spanner_on_whole_hard_instance(self, tmp_path, capsys):
        # one domination LP of this build used to raise Unbounded (exit 1)
        data = tmp_path / "h.csv"
        code, _, _ = run_cli(["gen", "hard", "--d", "8", "--beta", "1",
                              "--n-override", "24", "--seed", "0",
                              "--out", str(data)], capsys)
        assert code == 0
        code, out, _ = run_cli(["spanner", "--input", str(data)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_spanner_rejects_alpha_below_one(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run_cli(["gen", "sphere", "--d", "3", "--n", "5", "--seed", "1",
                 "--out", str(data)], capsys)
        code, _, err = run_cli(["spanner", "--input", str(data),
                                "--alpha", "0.5"], capsys)
        assert code == 2

    def test_spanner_rejects_k_out_of_range(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        run_cli(["gen", "sphere", "--d", "3", "--n", "5", "--seed", "1",
                 "--out", str(data)], capsys)
        code, _, _ = run_cli(["spanner", "--input", str(data), "--k", "9"], capsys)
        assert code == 2

    def test_spanner_verify_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "s.csv"
        run_cli(["gen", "sphere", "--d", "3", "--n", "5", "--seed", "1",
                 "--out", str(data)], capsys)
        monkeypatch.setattr(cli, "verify_weak", lambda *a, **k: (False, None))
        code, out, _ = run_cli(["spanner", "--input", str(data),
                                "--verify", "weak"], capsys)
        assert code == 4
        assert json.loads(out)["verdict"] == "fail"

    def test_detmax_brute_toy(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        write_vector_file(str(data), VectorSet(
            np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])))
        code, out, _ = run_cli(["detmax", "--input", str(data), "--k", "2",
                                "--method", "brute"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["objective"] == pytest.approx(4.0)
        assert rep["config"]["indices"] == [1, 2]

    def test_detmax_fw_round_requires_full_k(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        write_vector_file(str(data), VectorSet(np.eye(3)))
        code, _, err = run_cli(["detmax", "--input", str(data), "--k", "2",
                                "--method", "fw-round"], capsys)
        assert code == 3
        assert "guard" in err

    def test_pipeline_fw_round_requires_full_k(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        write_vector_file(str(data), VectorSet(
            np.random.default_rng(4).standard_normal((20, 6))))
        code, _, err = run_cli(["pipeline", "--input", str(data), "--k", "3",
                                "--solver", "fw-round"], capsys)
        assert code == 3
        assert "guard" in err

    def test_detmax_brute_guard_exit_3(self, tmp_path, capsys, rng):
        data = tmp_path / "big.csv"
        write_vector_file(str(data), VectorSet(rng.standard_normal((80, 2))))
        code, _, err = run_cli(["detmax", "--input", str(data), "--k", "30",
                                "--method", "brute"], capsys)
        assert code == 3

    def test_detmax_deterministic_modulo_timings(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        write_vector_file(str(data), VectorSet(
            np.random.default_rng(3).standard_normal((10, 3))))
        args = ["detmax", "--input", str(data), "--k", "3",
                "--method", "fw-round", "--trials", "200", "--seed", "42"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert strip_timings(out1) == strip_timings(out2)

    def test_pipeline_round_robin(self, tmp_path, capsys):
        data = tmp_path / "v.csv"
        write_vector_file(str(data), VectorSet(
            np.random.default_rng(5).standard_normal((40, 4))))
        rep_path = tmp_path / "r.json"
        code, out, _ = run_cli(["pipeline", "--input", str(data),
                                "--parts", "2", "--k", "4",
                                "--solver", "brute", "--seed", "3",
                                "--report", str(rep_path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["ratio"] <= 1.0 + 1e-9
        assert rep["ratio"] >= rep["guarantee"]
        assert json.loads(rep_path.read_text()) == rep

    @pytest.mark.parametrize("scale", [1e-13, 1e6])
    def test_pipeline_on_scaled_sphere(self, tmp_path, capsys, scale):
        # at 1e-13 the domination LP once raised ZeroVector (exit 1)
        g = np.random.default_rng(3).standard_normal((200, 8))
        data = tmp_path / "s.csv"
        write_vector_file(str(data), VectorSet(scale * g / np.linalg.norm(g, axis=1, keepdims=True)))
        code, out, _ = run_cli(["pipeline", "--input", str(data), "--parts", "4",
                                "--k", "2", "--seed", "7"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["guarantee"] <= rep["ratio"] <= 1.0 + 1e-9

    def test_pipeline_hard_instance_reports_survival(self, tmp_path, capsys):
        data = tmp_path / "h.csv"
        run_cli(["gen", "hard", "--d", "16", "--beta", "1", "--n-override",
                 "32", "--seed", "3", "--out", str(data)], capsys)
        code, out, _ = run_cli(["pipeline", "--input", str(data), "--k", "16",
                                "--solver", "greedy", "--seed", "1"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert "planted_survival" in rep
        assert len(rep["planted_survival"]) == 10

    def test_pipeline_rejects_zero_parts(self, tmp_path, capsys):
        data = tmp_path / "v.csv"
        write_vector_file(str(data), VectorSet(np.eye(3)))
        code, out, err = run_cli(["pipeline", "--input", str(data),
                                  "--parts", "0", "--k", "2"], capsys)
        assert code == 2 and out == ""
        assert "p must be >= 1" in err

    @pytest.mark.parametrize("command", ["detmax", "pipeline"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_fw_round_rejects_nonpositive_trials(self, tmp_path, capsys,
                                                 command, trials):
        data = tmp_path / "t.csv"
        write_vector_file(str(data), VectorSet(np.eye(3)))
        flag = "--method" if command == "detmax" else "--solver"
        code, out, err = run_cli([command, "--input", str(data), "--k", "3",
                                  flag, "fw-round", "--trials", trials], capsys)
        assert code == 2 and out == ""
        assert "trials must be >= 1" in err

    @pytest.mark.parametrize("command", ["spanner", "pipeline"])
    @pytest.mark.parametrize("flag, value", [("--alpha", "nan"),
                                             ("--alpha", "inf"),
                                             ("--alpha-scale", "nan"),
                                             ("--alpha-scale", "inf"),
                                             ("--alpha-scale", "-1")])
    def test_rejects_bad_alpha(self, tmp_path, capsys, command, flag, value):
        data = tmp_path / "s.csv"
        run_cli(["gen", "sphere", "--d", "3", "--n", "5", "--seed", "1",
                 "--out", str(data)], capsys)
        args = [command, "--input", str(data), flag, value]
        if command == "pipeline":
            args += ["--k", "2"]
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert "alpha" in err

    def test_console_script_smoke(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "specspan.cli", "gen", "sphere", "--d", "2",
             "--n", "3", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()

    def test_bad_flags_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specspan.cli", "spanner"],
            capture_output=True, text=True)
        assert proc.returncode == 2
