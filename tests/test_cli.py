"""End-to-end tests for the command line interface (direct main() calls)."""

import csv
import functools
import json
import math
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

import divopt
from divopt import cli
from divopt.bench import CSV_HEADER
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

    def test_flags_belong_to_their_kind(self, capsys):
        # --dim is euclidean's alone, and the common flags follow the kind.
        assert run(capsys, "gen", "metric", "--n", "4", "--dim", "3")[0] == 1
        assert run(capsys, "gen", "--seed", "3", "metric", "--n", "4")[0] == 1
        assert run(capsys, "gen", "metric", "--n", "4", "--seed", "3")[0] == 0

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

    @pytest.mark.parametrize("flags", [
        ["--prefix-cap", "0"],
        ["--prefix-cap", "-1"],
        ["--max-cut-rounds", "-1"],
        ["--max-cut-rounds", "-1", "--dump-lp", "lp.json"],
    ], ids=["prefix-cap-0", "prefix-cap-negative", "cut-rounds-negative", "cut-rounds-lp-only"])
    def test_solve_dcg_bad_budget_is_exit_2_without_traceback(self, tmp_path, capsys, flags):
        ss = gen_file(tmp_path, capsys, "ss.json",
                      "gen", "setsystem", "--n", "5", "--m", "3", "--seed", "4")
        env = dict(os.environ, PYTHONPATH=str(Path(divopt.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "divopt.cli", "solve-dcg", "--in", str(ss),
             "--epsilon", "0.3", "--u", "2", "--gamma", "0.05", "--trials", "5", *flags],
            capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "lp.json").exists()

    def test_solve_dcg_prefix_cap_below_n_is_refused_with_exit_3(self, tmp_path, capsys):
        ss = gen_file(tmp_path, capsys, "ss.json",
                      "gen", "setsystem", "--n", "5", "--m", "3", "--seed", "4")
        env = dict(os.environ, PYTHONPATH=str(Path(divopt.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "divopt.cli", "solve-dcg", "--in", str(ss),
             "--epsilon", "0.3", "--u", "2", "--gamma", "0.05", "--trials", "5",
             "--prefix-cap", "2", "--dump-lp", "lp.json"],
            capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
        )
        assert proc.returncode == 3
        assert "prefix_cap 2" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "lp.json").exists()

    def test_solve_dcg_pivot_budget_is_refused_with_exit_3(self, tmp_path, capsys, monkeypatch):
        # The real cut loop and simplex, with the pivot budget cut to one.
        ss = gen_file(tmp_path, capsys, "ss.json",
                      "gen", "setsystem", "--n", "5", "--m", "3", "--seed", "4")
        monkeypatch.setattr(divopt.lp, "solve_lp", functools.partial(divopt.lp.solve_lp, max_pivots=1))
        out, dump = tmp_path / "out.json", tmp_path / "lp.json"
        code, stdout, err = run(capsys, "solve-dcg", "--in", str(ss), "--epsilon", "0.3",
                                "--u", "2", "--gamma", "0.05", "--trials", "5",
                                "--dump-lp", str(dump), "--out", str(out))
        assert code == 3
        assert "pivot budget 1 exhausted" in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists() and not dump.exists()

    def test_solve_dcg_pivot_budget_in_a_warm_round_is_refused_with_exit_3(
        self, tmp_path, capsys, monkeypatch
    ):
        # The first solve of each relaxation keeps its budget; every warm
        # reoptimization after a cut round gets none.
        ss = gen_file(tmp_path, capsys, "ss.json",
                      "gen", "setsystem", "--n", "5", "--m", "3", "--seed", "4")
        real, warm = divopt.lp.solve_lp, []

        def tight(prog, max_pivots=None, *, start=None):
            warm.append(isinstance(start, divopt.lp.LpSolution))
            return real(prog, 0 if warm[-1] else max_pivots, start=start)

        monkeypatch.setattr(divopt.lp, "solve_lp", tight)
        out, dump = tmp_path / "out.json", tmp_path / "lp.json"
        code, stdout, err = run(capsys, "solve-dcg", "--in", str(ss), "--epsilon", "0.3",
                                "--u", "2", "--gamma", "0.05", "--trials", "5",
                                "--dump-lp", str(dump), "--out", str(out))
        assert code == 3
        assert "pivot budget 0 exhausted" in err
        assert warm[0] is False and warm[-1] is True
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists() and not dump.exists()

    @pytest.mark.parametrize("n, sets, order, value", [
        (0, [], [], 0.0),
        (1, [{"members": [0], "k": 1}], [0], 1.0),
    ], ids=["n0", "n1"])
    def test_solve_dcg_tiny_instances_are_exhaustive(self, tmp_path, capsys, n, sets, order, value):
        # u = 2 >= n: the one prefix set is the whole ground set, with no LP.
        ss = tmp_path / "ss.json"
        ss.write_text(json.dumps({"kind": "setsystem", "n": n, "sets": sets}), encoding="utf-8")
        code, out, err = run(capsys, "solve-dcg", "--in", str(ss), "--epsilon", "0.05")
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["order"], payload["value"], payload["lp_bound"]) == (order, value, value)
        diagnostics = payload["diagnostics"]
        assert diagnostics["mode"] == "exhaustive"
        assert diagnostics["best_prefix"] == order
        assert diagnostics["best_trial"] is None
        assert diagnostics["prefixes"] == 1
        assert diagnostics["randomness_used"] is False

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
        assert payload["diagnostics"]["randomness_used"] is False

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

    def test_solve_dks_reports_randomness_used(self, tmp_path, capsys):
        d = gen_file(tmp_path, capsys, "d.json",
                     "gen", "random-dks", "--n", "7", "--k", "3", "--seed", "4")
        for s, drawn in (("1", False), ("2", True)):
            code, out, err = run(capsys, "solve-dks", "--in", str(d), "--epsilon", "1.0",
                                 "--s", s, "--seed", "1")
            assert code == 0, err
            assert json.loads(out)["diagnostics"]["randomness_used"] is drawn

    def test_solve_dks_size_window_is_never_empty(self, tmp_path, capsys):
        # t = k' / s = 1.5 has no integer within gamma' of it; the window is
        # then [floor t, ceil t], so both cells get candidates.
        d = gen_file(tmp_path, capsys, "d.json",
                     "gen", "random-dks", "--n", "7", "--k", "3", "--seed", "1")
        code, out, err = run(capsys, "solve-dks", "--in", str(d), "--s", "2",
                             "--epsilon", "1.0", "--seed", "1")
        assert code == 0, err
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["size_window"] == [1, 2]
        assert all(count > 0 for count in diagnostics["candidates_per_part"])

    @pytest.mark.parametrize("flags, message", [
        (["--t", "-2"], "t must be finite and positive"),
        (["--t", "0"], "t must be finite and positive"),
        (["--mode", "exact", "--s", "2", "--t", "1.5", "--exact-budget", "-7"],
         "exact_budget must be non-negative"),
    ], ids=["t-negative", "t-zero", "exact-budget-negative"])
    def test_solve_dks_bad_knob_is_exit_2(self, tmp_path, capsys, flags, message):
        d = gen_file(tmp_path, capsys, "d.json",
                     "gen", "random-dks", "--n", "7", "--k", "3", "--seed", "1")
        code, out, err = run(capsys, "solve-dks", "--in", str(d), "--epsilon", "1.0", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    def test_solve_dispersion_negative_exact_budget_is_exit_2(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "6", "--seed", "1")
        code, out, err = run(capsys, "solve-dispersion", "--in", str(m), "--p", "3",
                             "--epsilon", "0.5", "--exact-budget", "-3")
        assert code == 2
        assert out == ""
        assert "exact_budget must be non-negative" in err

    def test_solve_dispersion_p_n_checks_inner_gamma(self, tmp_path, capsys):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "6", "--seed", "1")
        code, out, err = run(capsys, "solve-dispersion", "--in", str(m), "--p", "6",
                             "--epsilon", "0.5", "--inner-gamma", "5")
        assert code == 2
        assert out == ""
        assert "gamma must lie in (0, 1]" in err

    def test_solve_dks_tiny_epsilon_ignores_a_zero_bonus(self, tmp_path, capsys):
        # At this epsilon no candidate's own anchor is sure to admit it, so
        # the one-cell solve must walk the anchors with or without a bonus.
        d = gen_file(tmp_path, capsys, "d.json",
                     "gen", "random-dks", "--n", "7", "--k", "3", "--seed", "301")
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"kind": "modular", "weights": [0.0] * 7}), encoding="utf-8")
        payloads = []
        for bonus in ([], ["--bonus", str(zero)]):
            code, out, err = run(capsys, "solve-dks", "--in", str(d), "--epsilon", "1e-16", *bonus)
            assert code == 0, err
            payloads.append(json.loads(out))
        plain, with_zero = payloads
        assert plain["nodes"] == with_zero["nodes"]
        assert plain["value"] == with_zero["value"]

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

    CSV_FIXTURES = {
        "ss": ["gen", "setsystem", "--n", "5", "--m", "3", "--seed", "4"],
        "m": ["gen", "euclidean", "--n", "7", "--seed", "4"],
        "d": ["gen", "random-dks", "--n", "7", "--k", "3", "--seed", "4"],
        "fc": ["gen", "submodular", "--n", "7", "--sub-kind", "coverage",
               "--universe", "5", "--seed", "4"],
        "fm": ["gen", "submodular", "--n", "7", "--sub-kind", "modular", "--seed", "4"],
    }

    CSV_RUNS = [
        ["solve-dcg", "--in", "ss", "--epsilon", "0.3", "--u", "2", "--gamma", "0.05",
         "--trials", "5", "--seed", "7"],
        ["solve-dispersion", "--in", "m", "--p", "3", "--epsilon", "0.5", "--seed", "2"],
        ["solve-diversification", "--in", "m", "--bonus", "fc", "--p", "3", "--epsilon", "0.5"],
        ["solve-dks", "--in", "d", "--bonus", "fm", "--epsilon", "0.5", "--seed", "3"],
    ]

    def csv_argv(self, directory, capsys, argv):
        """Fixture names in argv become files generated in ``directory``."""
        return [
            str(gen_file(directory, capsys, a + ".json", *self.CSV_FIXTURES[a]))
            if a in self.CSV_FIXTURES else a
            for a in argv
        ]

    @pytest.mark.parametrize("argv", CSV_RUNS, ids=lambda argv: argv[0])
    def test_csv_row_matches_json_run(self, tmp_path, capsys, argv):
        argv = self.csv_argv(tmp_path, capsys, argv)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        payload = json.loads(out)
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0, err
        row = [payload["instance"], payload["algorithm"], str(payload["seed"]),
               repr(float(payload["epsilon"])), repr(float(payload["value"])), "", "", ""]
        assert out == CSV_HEADER + "\n" + ",".join(row) + "\n"

    @pytest.mark.parametrize("argv", CSV_RUNS, ids=lambda argv: argv[0])
    def test_csv_quotes_a_path_with_comma_and_quote(self, tmp_path, capsys, argv):
        odd = tmp_path / 'a,b "c"'
        odd.mkdir()
        argv = self.csv_argv(odd, capsys, argv)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["instance"].startswith(str(odd))
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0, err
        row = [payload["instance"], payload["algorithm"], str(payload["seed"]),
               repr(float(payload["epsilon"])), repr(float(payload["value"])), "", "", ""]
        assert list(csv.reader(StringIO(out))) == [CSV_HEADER.split(","), row]

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

    def test_setsystem_guard_counts_orders(self, tmp_path, capsys):
        big = gen_file(tmp_path, capsys, "ss11.json",
                       "gen", "setsystem", "--n", "11", "--m", "4", "--seed", "6")
        code, _, err = run(capsys, "oracle", "--in", str(big), "--guard", "1000")
        assert code == 3
        assert "refuses 39916800 orders (guard 1000)" in err
        ss = gen_file(tmp_path, capsys, "ss5.json",
                      "gen", "setsystem", "--n", "5", "--m", "3", "--seed", "6")
        code, _, err = run(capsys, "oracle", "--in", str(ss), "--guard", "119")
        assert code == 3
        assert "refuses 120 orders (guard 119)" in err
        code, out, err = run(capsys, "oracle", "--in", str(ss), "--guard", "120")
        assert code == 0, err
        assert sorted(json.loads(out)["order"]) == list(range(5))

    def test_count_too_long_to_print_is_exit_3(self, tmp_path, capsys):
        # C(20000, 10000) has about 6,000 digits, past Python's int-to-str limit.
        cov = tmp_path / "cov.json"
        cov.write_text(json.dumps({"kind": "maxcov", "universe": 1, "k": 10000,
                                   "sets": [[0]] * 20000}), encoding="utf-8")
        code, _, err = run(capsys, "oracle", "--in", str(cov))
        assert code == 3
        assert "refuses over 10^18 subsets (guard 1000000)" in err

    def test_empty_dks_file(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"kind": "dks", "n": 0, "weights": [], "forced": [], "k": 0}),
                        encoding="utf-8")
        code, out, err = run(capsys, "solve-dks", "--in", str(path), "--epsilon", "0.5")
        assert code == 0, err
        assert json.loads(out)["nodes"] == []
        code, out, err = run(capsys, "oracle", "--in", str(path))
        assert code == 0, err
        assert json.loads(out)["selection"] == []
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "instances": [{"id": "empty", "path": "e.json"}],
            "algorithms": [{"name": "dks-additive", "epsilon": 0.5}],
            "oracle": True,
        }), encoding="utf-8")
        code, out, err = run(capsys, "bench", "--spec", str(spec))
        assert code == 0, err
        assert [r["value"] for r in json.loads(out)["records"]] == [0.0]

    def test_out_of_memory_is_exit_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        ss = gen_file(tmp_path, capsys, "ss.json",
                      "gen", "setsystem", "--n", "5", "--m", "3", "--seed", "4")
        monkeypatch.setattr(cli, "ptas_dcg", exhausted)
        code, out, err = run(capsys, "solve-dcg", "--in", str(ss), "--epsilon", "0.3")
        assert code == 3
        assert out == ""
        assert "refused: not enough memory" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_bonus_weight_is_exit_2_without_traceback(self, tmp_path, capsys, bad):
        m = gen_file(tmp_path, capsys, "m.json",
                     "gen", "euclidean", "--n", "6", "--seed", "3")
        bonus = tmp_path / "f.json"
        bonus.write_text(json.dumps({"kind": "modular", "weights": [bad] + [1.0] * 5}),
                         encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(divopt.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "divopt.cli", "solve-diversification", "--in", str(m),
             "--bonus", str(bonus), "--p", "3", "--epsilon", "0.5"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "finite" in proc.stderr

    @pytest.mark.parametrize("payload, field", [
        ({"kind": "dks", "n": 3, "weights": [[0, 1, "x"]], "forced": [], "k": 2}, "weights[0][2]"),
        ({"kind": "dks", "n": 3, "weights": [[0, 1, math.nan]], "forced": [], "k": 2},
         "weights[0][2]"),
        ({"kind": "dks", "n": "x", "weights": [], "forced": [], "k": 2}, "n"),
        ({"kind": "dks", "n": -1, "weights": [], "forced": [], "k": 0}, "n"),
        ({"kind": "metric", "n": "x", "dist": [[0.0]]}, "n"),
        ({"kind": "setsystem", "n": 2.5, "sets": []}, "n"),
        ({"kind": "modular", "weights": ["x"]}, "weights[0]"),
        ({"kind": "modular", "weights": "x"}, "weights"),
        ({"kind": "coverage", "universe": 2, "covers": [[0]], "uweights": ["x", 1]},
         "uweights[0]"),
        ({"kind": "coverage", "universe": "x", "covers": [[0]]}, "universe"),
        ({"kind": "maxcov", "universe": "x", "k": 1, "sets": [[0]]}, "universe"),
        ({"kind": "maxcov", "universe": 4, "k": 2, "sets": [[0, 1], [2, 3]], "regular": "no"},
         "regular"),
    ])
    def test_mistyped_number_is_exit_2_without_traceback(self, tmp_path, payload, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(divopt.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "divopt.cli", "check", "--in", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"invalid input: {field}:" in proc.stderr

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

    def test_bench_csv_quotes_an_id_with_comma_and_quote(self, tmp_path, capsys):
        gen_file(tmp_path, capsys, "m.json", "gen", "euclidean", "--n", "7", "--seed", "10")
        spec = tmp_path / "bench.json"
        ident = 'm,1 "euclid"'
        spec.write_text(json.dumps({
            "instances": [{"id": ident, "path": "m.json", "p": 3}],
            "algorithms": [
                {"name": "qptas-dispersion", "epsilon": 0.5},
                {"name": "greedy-dispersion"},
            ],
            "seeds": [1, 2],
        }), encoding="utf-8")
        code, out, err = run(capsys, "bench", "--spec", str(spec), "--format", "csv")
        assert code == 0, err
        rows = list(csv.reader(StringIO(out)))
        assert rows[0] == CSV_HEADER.split(",")
        assert [len(r) for r in rows[1:]] == [8, 8, 8]
        assert [r[0] for r in rows[1:]] == [ident] * 3

    def test_bench_invalid_json_is_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{oops", encoding="utf-8")
        code, _, err = run(capsys, "bench", "--spec", str(spec))
        assert code == 2
        assert "invalid" in err
