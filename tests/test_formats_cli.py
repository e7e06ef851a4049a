"""File formats and the command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import rank_four_in_r5
from specspan import cli, linalg
from specspan.formats import (FormatError, read_vector_file, report_json,
                              write_vector_file)
from specspan.lp import Infeasible, Unbounded
from specspan.spanner import NotInSpan
from specspan.vectorset import VectorSet


def checkout_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"1.0,2.0\n\xff\xfe,1.0\n")
        with pytest.raises(FormatError, match="binary.csv: not UTF-8"):
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


PROBE_FILES = ["mixed-1e9", "mixed-1e10", "mixed-1e11", "twin", "zeros", "one-column"]
PROBE_COMMANDS = ([["spanner", "--verify", v] for v in ("weak", "strong", "k")]
                  + [["pipeline", "--k", "1", "--solver", s]
                     for s in ("greedy", "brute", "fw-round")]
                  + [["detmax", "--k", "1", "--method", m] for m in ("greedy", "fw-round")])


@pytest.fixture(scope="module")
def probe_corpus(tmp_path_factory) -> dict[str, str]:
    """Degenerate inputs: 60 unit rows in R^4 whose first 30 are restricted to
    e1, e2 and scaled by 1e9, 1e10 or 1e11; two identical rows; all-zero rows;
    one column."""
    root = tmp_path_factory.mktemp("probes")
    g = np.random.default_rng(3).standard_normal((60, 4))
    unit = g / np.linalg.norm(g, axis=1, keepdims=True)
    flat = unit[:30].copy()
    flat[:, 2:] = 0.0
    flat /= np.linalg.norm(flat, axis=1, keepdims=True)
    rows = {f"mixed-1e{e}": np.vstack([10.0 ** e * flat, unit[30:]]) for e in (9, 10, 11)}
    rows["twin"] = np.array([[1.0, 0.0], [1.0, 0.0]])
    rows["zeros"] = np.zeros((4, 3))
    rows["one-column"] = np.array([[1.0], [-2.0], [3.0]])
    paths = {}
    for name, x in rows.items():
        paths[name] = str(root / f"{name}.csv")
        write_vector_file(paths[name], VectorSet(x))
    return paths


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

    @pytest.mark.parametrize("kind", ["sphere", "pm1"])
    def test_gen_dim_zero_exit_3(self, tmp_path, capsys, kind):
        # gen sphere --d 0 once hung in sample_sphere's redraw loop
        out = tmp_path / "z.csv"
        code, stdout, err = run_cli(["gen", kind, "--d", "0", "--n", "3",
                                     "--out", str(out)], capsys)
        assert code == 3 and stdout == ""
        assert "generation failed" in err and not out.exists()

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

    @pytest.mark.parametrize("verify", ["weak", "strong", "k"])
    @pytest.mark.parametrize("rows, size", [("1,0\n0,1e-13\n", 1),
                                            ("1e170,0\n0,1e170\n1e170,1e170\n", 2)],
                             ids=["tiny-row", "huge-rows"])
    def test_spanner_verdicts_agree_at_any_scale(self, tmp_path, capsys, rows,
                                                 size, verify):
        # The 1e-13 row is zero to the build; --verify strong once raised
        # NotInSpan on it (exit 1) and --verify k failed it (exit 4).  At 1e170
        # the squared norms overflowed and the spanner came out empty.
        data = tmp_path / "v.csv"
        data.write_text(rows)
        code, out, _ = run_cli(["spanner", "--input", str(data),
                                "--verify", verify], capsys)
        assert code == 0
        assert json.loads(out) == {"size": size, "verdict": "pass"}

    @pytest.mark.parametrize("verify", ["weak", "strong"])
    def test_spanner_with_tiny_row_beside_unit_rows(self, tmp_path, capsys, verify):
        # at alpha 4 the 1e-10 row is in the spanner's span but not a member:
        # its l1 LP once raised lp.Unbounded, a traceback out of the CLI
        g = np.random.default_rng(3).standard_normal((60, 4))
        x = np.vstack([g / np.linalg.norm(g, axis=1, keepdims=True),
                       1e-10 * np.array([0.3, 0.1, -0.2, 0.9])])
        data = tmp_path / "v.csv"
        write_vector_file(str(data), VectorSet(x))
        code, out, _ = run_cli(["spanner", "--input", str(data), "--alpha", "4",
                                "--verify", verify], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_spanner_on_subnormal_rows_exit_2(self, tmp_path, capsys):
        # a witness x with <x, v> = 1 for |v| ~ 1e-320 would overflow
        data = tmp_path / "v.csv"
        data.write_text("1e-320,0\n0,1e-320\n")
        code, out, err = run_cli(["spanner", "--input", str(data),
                                  "--verify", "weak"], capsys)
        assert code == 2 and out == ""
        assert "all zeros" in err

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

    @pytest.mark.parametrize("command", PROBE_COMMANDS, ids="-".join)
    @pytest.mark.parametrize("name", PROBE_FILES)
    def test_probe_ends_in_documented_exit_code(self, probe_corpus, capsys, name, command):
        # the mixed-scale files once ended 9 of these runs in a traceback
        # (lp.Unbounded or NotInSpan out of a build or a verifier)
        code, out, err = run_cli([command[0], "--input", probe_corpus[name],
                                  *command[1:]], capsys)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if out:
            json.loads(out)  # exactly one JSON document

    @pytest.mark.parametrize("name", ["mixed-1e9", "mixed-1e10", "mixed-1e11"])
    def test_mixed_scale_probe_passes_every_verifier(self, probe_corpus, capsys, tmp_path,
                                                     name):
        # rank rules against the largest row made the build raise Unbounded at
        # 1e10 and the three modes disagree at 1e9 and 1e11
        picks = []
        for mode in ("weak", "strong", "k"):
            report, idx = tmp_path / f"{mode}.json", tmp_path / f"{mode}.txt"
            code, out, err = run_cli(["spanner", "--input", probe_corpus[name],
                                      "--verify", mode, "--out", str(report),
                                      "--indices-out", str(idx)], capsys)
            assert (code, err) == (0, "")
            assert json.loads(out)["verdict"] == "pass"
            picks.append([int(tok) for tok in idx.read_text().split()])
        assert picks[0] == picks[1] == picks[2]
        alpha = json.loads(report.read_text())["config"]["alpha"]
        x = read_vector_file(probe_corpus[name])[0].vectors
        u = x[picks[0]]
        assert u.shape == (4, 4)  # so the representation of every row is unique
        norms = np.linalg.norm(u, axis=1)
        c = np.linalg.solve((u / norms[:, None]).T, x.T).T / norms
        assert np.max(np.sum(np.abs(c), axis=1)) < math.sqrt(alpha)

    @pytest.mark.parametrize("name, scale", [("mixed-1e9", 1e9), ("mixed-1e10", 1e10),
                                             ("mixed-1e11", 1e11)])
    def test_mixed_scale_probe_greedy_value(self, probe_corpus, capsys, name, scale):
        # a greedy stop against the largest row once scored 0.0 at 1e10 and 1e11
        code, out, _ = run_cli(["detmax", "--input", probe_corpus[name], "--k", "4",
                                "--method", "greedy"], capsys)
        assert code == 0
        rep = json.loads(out)
        x = read_vector_file(probe_corpus[name])[0].vectors
        det = float(np.linalg.det(x[rep["config"]["indices"]])) ** 2
        assert rep["objective"] == pytest.approx(det, rel=1e-9)
        assert 0.0 < rep["objective"] <= scale ** 4 * (1.0 + 1e-12)

    @pytest.mark.parametrize("command", ["spanner", "pipeline"])
    @pytest.mark.parametrize("exc", [Infeasible, Unbounded, NotInSpan])
    def test_lp_failure_in_build_exit_3(self, tmp_path, capsys, monkeypatch, command, exc):
        data = tmp_path / "s.csv"
        write_vector_file(str(data), VectorSet(np.eye(3)))

        def fail(*args, **kwargs):
            raise exc("no finish")
        monkeypatch.setattr(cli, "build_k_spanner" if command == "spanner" else "run_pipeline",
                            fail)
        code, out, err = run_cli([command, "--input", str(data), "--k", "3"], capsys)
        assert code == 3 and out == ""
        assert err.splitlines() == [f"build failed: {exc.__name__}: no finish"]

    def test_breached_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        # a RuntimeError (an iteration cap or a postcondition) was re-raised
        # out of main as a traceback
        data = tmp_path / "s.csv"
        write_vector_file(str(data), VectorSet(
            np.random.default_rng(0).standard_normal((20, 6))))
        monkeypatch.setattr(linalg, "EIG_SWEEP_CAP", 0)
        code, out, err = run_cli(["spanner", "--input", str(data), "--k", "2",
                                  "--verify", "k"], capsys)
        assert code == 3 and out == ""
        assert err.splitlines() == [
            "internal failure: Jacobi sweep cap breached; this is an internal failure"]

    @pytest.mark.parametrize("verify, name", [("weak", "verify_weak"),
                                              ("strong", "certify_all"),
                                              ("k", "verify_k_spanner")])
    @pytest.mark.parametrize("exc", [Infeasible, Unbounded, NotInSpan])
    def test_lp_failure_in_verifier_exit_4(self, tmp_path, capsys, monkeypatch, verify,
                                           name, exc):
        data = tmp_path / "s.csv"
        write_vector_file(str(data), VectorSet(np.eye(3)))

        def fail(*args, **kwargs):
            raise exc("no finish")
        monkeypatch.setattr(cli, name, fail)
        code, out, err = run_cli(["spanner", "--input", str(data), "--verify", verify],
                                 capsys)
        assert code == 4
        assert json.loads(out) == {"size": 3, "verdict": "fail"}
        assert err.splitlines() == [f"verification failed: {exc.__name__}: no finish"]

    @pytest.mark.parametrize("solver", ["greedy", "brute", "fw-round"])
    def test_pipeline_union_below_k_is_a_guard(self, probe_corpus, capsys, solver):
        # two identical rows leave a core-set of one row: greedy and brute once
        # exited 2 ("k=2 out of range for n=1"), fw-round 3 ("rank(V) < d")
        code, out, err = run_cli(["pipeline", "--input", probe_corpus["twin"],
                                  "--k", "2", "--solver", solver], capsys)
        assert code == 3 and out == ""
        assert "union of size 1" in err

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

    def test_detmax_fw_round_rank_deficient_seed_exit_3(self, tmp_path, capsys):
        # rank four plus 1e-8 noise in R^5: the greedy seed has no Cholesky factor
        data = tmp_path / "t.csv"
        write_vector_file(str(data), VectorSet(rank_four_in_r5()))
        code, out, err = run_cli(["detmax", "--input", str(data), "--k", "5",
                                  "--method", "fw-round"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("guard: ") and "no Cholesky factor" in err

    @pytest.mark.parametrize("method", ["greedy", "brute", "fw-round"])
    def test_detmax_k_above_n_exit_2(self, tmp_path, capsys, method):
        # every solver rejects k > n as out of range; fw-round once answered
        # "guard: rank(V) < d" (exit 3) from a rank check of its own
        data = tmp_path / "t.csv"
        write_vector_file(str(data), VectorSet(np.eye(3)[:2]))
        code, out, err = run_cli(["detmax", "--input", str(data), "--k", "3",
                                  "--method", method], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["k=3 out of range for n=2"]

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

    @pytest.mark.parametrize("case", ["missing-input", "directory-input",
                                      "undecodable-input", "spanner-out",
                                      "spanner-indices-out", "detmax-out",
                                      "pipeline-report", "gen-out"])
    def test_file_error_exit_2(self, tmp_path, capsys, case):
        # an unreadable input or unwritable output is exit 2 with one stderr
        # line that names the file
        data = str(tmp_path / "s.csv")
        write_vector_file(data, VectorSet(np.eye(3)))
        (tmp_path / "binary.csv").write_bytes(b"\xff\xfe1,0\n")
        missing = str(tmp_path / "missing.csv")
        unwritable = str(tmp_path / "no-such-dir" / "out")
        path, args = {
            "missing-input": (missing, ["spanner", "--input", missing]),
            "directory-input": (str(tmp_path), ["detmax", "--input", str(tmp_path),
                                                "--k", "2"]),
            "undecodable-input": (str(tmp_path / "binary.csv"),
                                  ["pipeline", "--input", str(tmp_path / "binary.csv"),
                                   "--k", "1"]),
            "spanner-out": (unwritable, ["spanner", "--input", data, "--out", unwritable]),
            "spanner-indices-out": (unwritable, ["spanner", "--input", data,
                                                 "--indices-out", unwritable]),
            "detmax-out": (unwritable, ["detmax", "--input", data, "--k", "2",
                                        "--out", unwritable]),
            "pipeline-report": (unwritable, ["pipeline", "--input", data, "--k", "2",
                                             "--report", unwritable]),
            "gen-out": (unwritable, ["gen", "sphere", "--d", "2", "--n", "3",
                                     "--out", unwritable]),
        }[case]
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and path in err

    @pytest.mark.parametrize("existing", [False, True])
    def test_spanner_writes_no_output_when_one_cannot_be_opened(self, tmp_path, capsys,
                                                                existing):
        # --out is opened before --indices-out fails, yet no report is left
        # behind, and a report already on disk keeps its bytes
        data = str(tmp_path / "s.csv")
        write_vector_file(data, VectorSet(np.eye(3)))
        out = tmp_path / "rep.json"
        if existing:
            out.write_text("old report\n")
        unwritable = str(tmp_path / "no-such-dir" / "idx.txt")
        code, stdout, err = run_cli(["spanner", "--input", data, "--out", str(out),
                                     "--indices-out", unwritable], capsys)
        assert code == 2 and stdout == "" and unwritable in err
        if existing:
            assert out.read_text() == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["rep.json", "s.csv"] if existing else ["s.csv"])

    def test_spanner_replaces_both_outputs(self, tmp_path, capsys):
        data = str(tmp_path / "s.csv")
        write_vector_file(data, VectorSet(np.eye(3)))
        out, idx = tmp_path / "rep.json", tmp_path / "idx.txt"
        out.write_text("x" * 5000)
        idx.write_text("y" * 5000)
        code, _, _ = run_cli(["spanner", "--input", data, "--out", str(out),
                              "--indices-out", str(idx)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert idx.read_text() == "".join(f"{i}\n" for i in report["config"]["indices"])

    @pytest.mark.parametrize("command", ["spanner", "pipeline"])
    def test_alpha_below_one_meets_the_one_alpha_rule(self, tmp_path, capsys, command):
        # lp.check_alpha's ValueError is the one message for alpha < 1 (exit 2)
        data = str(tmp_path / "s.csv")
        write_vector_file(data, VectorSet(np.eye(3)))
        code, out, err = run_cli([command, "--input", data, "--k", "2",
                                  "--alpha", "0.5"], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == ["alpha must be finite and >= 1"]

    def test_console_script_smoke(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "specspan.cli", "gen", "sphere", "--d", "2",
             "--n", "3", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 0
        assert out.exists()

    def test_bad_flags_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specspan.cli", "spanner"],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 2
