"""End-to-end tests for the command line interface (direct main() calls)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divopt
from divopt.cli import main
from divopt.core import DksInstance, MetricInstance, SetSystemInstance
from divopt.io import load_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, name, *argv):
    path = tmp_path / name
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 0, err
    return path


class TestGen:
    def test_each_type_round_trips(self, tmp_path, capsys):
        cases = [
            ("e.json", ["gen", "euclidean", "--n", "6", "--dim", "2", "--seed", "1"]),
            ("m.json", ["gen", "metric", "--n", "6", "--seed", "1"]),
            ("pd.json", ["gen", "planted-dks", "--n", "7", "--k", "3", "--seed", "1"]),
            ("rd.json", ["gen", "random-dks", "--n", "7", "--k", "3", "--seed", "1",
                         "--forced-count", "1"]),
            ("cov.json", ["gen", "coverage", "--universe", "8", "--k", "2",
                          "--extra-sets", "1", "--seed", "1"]),
            ("ss.json", ["gen", "setsystem", "--n", "6", "--m", "4", "--kmax", "2",
                         "--seed", "1"]),
            ("fm.json", ["gen", "submodular", "--n", "6", "--sub-kind", "modular",
                         "--seed", "1"]),
            ("fc.json", ["gen", "submodular", "--n", "6", "--sub-kind", "coverage",
                         "--universe", "5", "--seed", "1"]),
        ]
        for name, argv in cases:
            path = gen_file(tmp_path, capsys, name, *argv)
            load_instance(path)

    def test_stdout_matches_file_output(self, tmp_path, capsys):
        argv = ["gen", "metric", "--n", "5", "--seed", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = gen_file(tmp_path, capsys, "m.json", *argv)
        assert path.read_text(encoding="utf-8") == out

    def test_deterministic_bytes(self, tmp_path, capsys):
        argv = ["gen", "euclidean", "--n", "6", "--seed", "9"]
        a = gen_file(tmp_path, capsys, "a.json", *argv)
        b = gen_file(tmp_path, capsys, "b.json", *argv)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "gen", "euclidean")
        assert code == 1
        assert "--n" in err

    def test_unknown_subcommand_and_bad_flag(self, capsys):
        assert run(capsys, "transmogrify")[0] == 1
        assert run(capsys, "gen", "metric", "--n", "x")[0] == 1

    def test_csv_not_supported_for_gen(self, capsys):
        code, _, err = run(capsys, "gen", "metric", "--n", "5", "--format", "csv")
        assert code == 1
        assert "csv" in err


class TestConvert:
    def test_dks_to_dispersion(self, tmp_path, capsys):
        dks = gen_file(tmp_path, capsys, "d.json",
                       "gen", "planted-dks", "--n", "7", "--k", "3", "--seed", "2")
        out = tmp_path / "metric.json"
        code, _, err = run(capsys, "convert", "dks-to-dispersion",
                           "--in", str(dks), "--out", str(out))
        assert code == 0, err
        metric = load_instance(out)
        assert isinstance(metric, MetricInstance)
        assert metric.meta["p"] == 3

    def test_coverage_to_dcg(self, tmp_path, capsys):
        cov = gen_file(tmp_path, capsys, "c.json",
                       "gen", "coverage", "--universe", "8", "--k", "2", "--seed", "2")
        out = tmp_path / "dcg.json"
        code, _, err = run(capsys, "convert", "coverage-to-dcg",
                           "--in", str(cov), "--out", str(out))
        assert code == 0, err
        inst = load_instance(out)
        assert isinstance(inst, SetSystemInstance)
        assert "planted_dcg" in inst.meta

    def test_wrong_kind_is_exit_2(self, tmp_path, capsys):
        metric = gen_file(tmp_path, capsys, "m.json",
                          "gen", "metric", "--n", "5", "--seed", "2")
        code, _, err = run(capsys, "convert", "dks-to-dispersion", "--in", str(metric))
        assert code == 2
        assert "invalid input" in err

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run(capsys, "convert", "dks-to-dispersion", "--in", "nope.json")
        assert code == 2
        assert "cannot read" in err


class TestSolvers:
    def test_solve_dcg_json_and_dump_lp(self, tmp_path, capsys):
        ss = gen_file(tmp_path, capsys, "ss.json",
                      "gen", "setsystem", "--n", "5", "--m", "3", "--seed", "4")
        dump = tmp_path / "lp.json"
        code, out, err = run(capsys, "solve-dcg", "--in", str(ss),
                             "--epsilon", "0.3", "--u", "2", "--gamma", "0.05",
                             "--trials", "20", "--seed", "7",
                             "--dump-lp", str(dump))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["algorithm"] == "ptas-dcg"
        assert sorted(payload["order"]) == list(range(5))
        assert payload["value"] > 0
        assert payload["lp_bound"] >= payload["value"] - 1e-9
        assert "millis" not in payload and "time" not in payload
        lp = json.loads(dump.read_text(encoding="utf-8"))
        for key in ("objective", "rounds", "cuts_added", "clean",
                    "objective_history", "x", "y"):
            assert key in lp
        assert lp["clean"] is True

    def test_solve_dispersion_json(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "8", "--seed", "4")
        code, out, err = run(capsys, "solve-dispersion", "--in", str(m),
                             "--p", "3", "--epsilon", "0.5", "--seed", "1")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["algorithm"] == "qptas-dispersion"
        assert len(payload["selection"]) == 3
        assert payload["diagnostics"]["theory_parameters"] is True

    def test_solve_diversification_json(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "8", "--seed", "4")
        f = gen_file(tmp_path, capsys, "f.json",
                     "gen", "submodular", "--n", "8", "--sub-kind", "coverage",
                     "--universe", "5", "--seed", "4")
        code, out, err = run(capsys, "solve-diversification", "--in", str(m),
                             "--bonus", str(f), "--p", "3", "--epsilon", "0.5",
                             "--seed", "1")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["algorithm"] == "diversify"
        assert payload["value"] == pytest.approx(
            payload["disp_value"] + payload["f_value"]
        )

    def test_solve_dks_names_depend_on_bonus(self, tmp_path, capsys):
        d = gen_file(tmp_path, capsys, "d.json",
                     "gen", "random-dks", "--n", "7", "--k", "3", "--seed", "4")
        f = gen_file(tmp_path, capsys, "f.json",
                     "gen", "submodular", "--n", "7", "--sub-kind", "modular",
                     "--seed", "4")
        code, out, _ = run(capsys, "solve-dks", "--in", str(d),
                           "--epsilon", "1.0", "--mode", "exact", "--s", "1")
        assert code == 0
        assert json.loads(out)["algorithm"] == "dks-additive"
        code, out, _ = run(capsys, "solve-dks", "--in", str(d), "--bonus", str(f),
                           "--epsilon", "1.0", "--mode", "exact", "--s", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "submodular-dks"
        assert payload["value"] == pytest.approx(
            payload["h_value"] + payload["den_value"]
        )

    def test_csv_output_shape(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "7", "--seed", "4")
        code, out, _ = run(capsys, "solve-dispersion", "--in", str(m),
                           "--p", "3", "--epsilon", "0.5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "instance,algorithm,seed,epsilon,value,oracle,ratio,millis"
        cells = lines[1].split(",")
        assert cells[1] == "qptas-dispersion"
        assert cells[5] == cells[6] == cells[7] == ""

    def test_solver_reruns_are_byte_identical(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "8", "--seed", "4")
        argv = ["solve-dispersion", "--in", str(m), "--p", "3",
                "--epsilon", "0.5", "--seed", "11"]
        a = tmp_path / "r1.json"
        b = tmp_path / "r2.json"
        assert run(capsys, *argv, "--out", str(a))[0] == 0
        assert run(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestOracleAndCheck:
    def test_oracle_dispatch(self, tmp_path, capsys):
        ss = gen_file(tmp_path, capsys, "ss.json",
                      "gen", "setsystem", "--n", "5", "--m", "3", "--seed", "6")
        code, out, _ = run(capsys, "oracle", "--in", str(ss))
        assert code == 0
        assert json.loads(out)["algorithm"] == "brute-dcg"

        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "7", "--seed", "6")
        code, out, _ = run(capsys, "oracle", "--in", str(m), "--p", "3")
        assert code == 0
        assert json.loads(out)["algorithm"] == "brute-dispersion"

        f = gen_file(tmp_path, capsys, "f.json",
                     "gen", "submodular", "--n", "7", "--sub-kind", "modular",
                     "--seed", "6")
        code, out, _ = run(capsys, "oracle", "--in", str(m), "--p", "3",
                           "--bonus", str(f))
        assert code == 0
        assert json.loads(out)["algorithm"] == "brute-diversification"

        d = gen_file(tmp_path, capsys, "d.json",
                     "gen", "random-dks", "--n", "7", "--k", "3", "--seed", "6")
        code, out, _ = run(capsys, "oracle", "--in", str(d))
        assert code == 0
        assert json.loads(out)["algorithm"] == "brute-dks"

        cov = gen_file(tmp_path, capsys, "c.json",
                       "gen", "coverage", "--universe", "8", "--k", "2", "--seed", "6")
        code, out, _ = run(capsys, "oracle", "--in", str(cov))
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "brute-coverage"
        assert payload["value"] == pytest.approx(8.0)

    def test_oracle_metric_needs_p(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "6", "--seed", "6")
        code, _, err = run(capsys, "oracle", "--in", str(m))
        assert code == 1
        assert "--p" in err

    def test_oracle_guard_is_exit_3(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "12", "--seed", "6")
        code, _, err = run(capsys, "oracle", "--in", str(m), "--p", "6",
                           "--guard", "10")
        assert code == 3
        assert "refused" in err

    def test_check_valid_metric(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "6", "--seed", "8")
        code, out, _ = run(capsys, "check", "--in", str(m))
        assert code == 0
        assert json.loads(out)["validation"]["ok"] is True

    def test_check_triangle_violation_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "metric",
            "n": 3,
            "dist": [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]],
        }), encoding="utf-8")
        code, out, _ = run(capsys, "check", "--in", str(bad))
        assert code == 2
        payload = json.loads(out)
        assert payload["validation"]["ok"] is False
        assert payload["validation"]["kind"] == "triangle"

    def test_check_selection_reports_lemma(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "8", "--seed", "8")
        oracle_code, oracle_out, _ = run(capsys, "oracle", "--in", str(m), "--p", "3")
        assert oracle_code == 0
        sel = ",".join(str(v) for v in json.loads(oracle_out)["selection"])
        code, out, _ = run(capsys, "check", "--in", str(m), "--selection", sel)
        assert code == 0
        lemma = json.loads(out)["lemma"]
        assert lemma["ratio"] >= 1.0
        assert lemma["witness"] is not None

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distance_is_exit_2_without_traceback(self, tmp_path, bad):
        dist = [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0],
                [2.0, 1.0, 0.0, 1.0], [3.0, 2.0, 1.0, 0.0]]
        dist[0][1] = dist[1][0] = bad
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "metric", "n": 4, "dist": dist}), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(divopt.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "divopt.cli", "solve-dispersion", "--in", str(path),
             "--p", "3", "--epsilon", "0.5"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "finite" in proc.stderr

    def test_check_selection_on_non_metric(self, tmp_path, capsys):
        d = gen_file(tmp_path, capsys, "d.json",
                     "gen", "random-dks", "--n", "6", "--k", "3", "--seed", "8")
        code, _, err = run(capsys, "check", "--in", str(d), "--selection", "0,1")
        assert code == 1
        assert "metric" in err


class TestBenchCommand:
    def test_bench_csv_and_json(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "7", "--seed", "10")
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps({
            "instances": [{"id": "m", "path": "m.json", "p": 3}],
            "algorithms": [
                {"name": "qptas-dispersion", "epsilon": 0.5},
                {"name": "brute-dispersion"},
            ],
            "seeds": [1, 2],
            "oracle": True,
        }), encoding="utf-8")
        code, out, err = run(capsys, "bench", "--spec", str(spec), "--format", "csv")
        assert code == 0, err
        lines = out.strip().split("\n")
        assert lines[0].startswith("instance,algorithm")
        assert len(lines) == 4
        code, out, _ = run(capsys, "bench", "--spec", str(spec))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["records"]) == 3
        assert payload["aggregates"]

    def test_bench_invalid_json_is_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{oops", encoding="utf-8")
        code, _, err = run(capsys, "bench", "--spec", str(spec))
        assert code == 2
        assert "invalid" in err
