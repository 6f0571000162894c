"""Fuzzed-payload CLI tests: every run ends in a documented exit code.

Small valid instance files are mutated at one place each (a value replaced
by a random JSON value, a key or item dropped, an item appended) and handed
to ``check``, ``oracle``, the ``solve-*`` commands and ``bench``.  The exit
code must be 0, 1, 2 or 3 and no Python traceback may escape.  Fuzzed
integers stay at most 12, so no mutated size allocates a huge matrix.
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import divopt
from divopt.cli import main
from divopt.generators import (
    gen_random_dks,
    gen_random_euclidean,
    gen_regular_coverage,
    gen_setsystem,
    gen_submodular,
)
from divopt.io import to_payload

BASES = {
    "metric": to_payload(gen_random_euclidean(5, 2, 1)),
    "dks": to_payload(gen_random_dks(5, 3, seed=1, forced_count=1)),
    "setsystem": to_payload(gen_setsystem(4, 3, 2, 1)),
    "modular": to_payload(gen_submodular(5, "modular", 1)),
    "coverage": to_payload(gen_submodular(5, "coverage", 1, universe=4)),
    "maxcov": to_payload(gen_regular_coverage(6, 2, 1)),
}
# bench algorithm -> the instance kinds it takes
ALGORITHMS = {
    "ptas-dcg": ["setsystem"], "brute-dcg": ["setsystem"],
    "qptas-dispersion": ["metric"], "greedy-dispersion": ["metric"],
    "brute-dispersion": ["metric"], "diversify": ["metric"],
    "greedy-diversification": ["metric"], "brute-diversification": ["metric"],
    "submodular-dks": ["dks"], "dks-additive": ["dks"], "brute-dks": ["dks"],
    "brute-dks-additive": ["dks"],
}
# command -> the instance kinds it takes
NATURAL = {
    "check": ["metric"], "oracle": ["metric", "dks", "setsystem", "maxcov"],
    "solve-dks": ["dks"], "solve-dispersion": ["metric"], "solve-diversification": ["metric"],
    "solve-dcg": ["setsystem"],
}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([0.0, 0.5, 1.5, -0.5, 1e300, math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def mutate(data, payload):
    """Copy of ``payload`` changed at one randomly chosen place below the
    top level."""
    root = {"": copy.deepcopy(payload)}
    parent, key = root, ""
    while isinstance(parent[key], (dict, list)) and parent[key] and (
        parent is root or data.draw(st.booleans())
    ):
        parent = parent[key]
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        key = data.draw(st.sampled_from(list(keys)))
    op = data.draw(st.sampled_from(["replace", "drop", "append"]))
    if op == "drop" and parent is not root:
        del parent[key]
    elif op == "append" and isinstance(parent[key], list):
        parent[key].append(data.draw(json_values))
    else:
        parent[key] = data.draw(json_values)
    return root[""]


def instance_file(data, path: Path, natural) -> str:
    """A file of a kind the command expects (most draws) or of any kind,
    mutated in half of the draws."""
    kind = data.draw(st.sampled_from(natural) | st.sampled_from(sorted(BASES)))
    payload = BASES[kind]
    if data.draw(st.booleans()):
        payload = mutate(data, payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def fuzzed_argv(data, tmp: Path) -> list:
    command = data.draw(st.sampled_from(
        ["check", "oracle", "solve-dks", "solve-dispersion", "solve-diversification",
         "solve-dcg", "bench"]
    ))
    algorithm = data.draw(st.sampled_from(sorted(ALGORITHMS)))
    natural = NATURAL[command] if command != "bench" else ALGORITHMS[algorithm]
    x = instance_file(data, tmp / "x.json", natural)
    b = instance_file(data, tmp / "b.json", ["modular", "coverage"])
    p = str(data.draw(st.integers(2, 4) | st.integers(-1, 8)))
    eps = data.draw(st.sampled_from(["0.5", "0.3"])
                    | st.sampled_from(["1.0", "0", "-1", "nan", "inf", "2"]))
    bonus = ["--bonus", b] if data.draw(st.booleans()) else []
    if command == "check":
        sel = data.draw(st.lists(st.integers(-2, 8), max_size=4).map(
            lambda ids: ",".join(map(str, ids))) | st.sampled_from(["a,b", ",", "1,,2"]))
        return ["check", "--in", x, f"--selection={sel}", *bonus]
    if command == "oracle":
        return ["oracle", "--in", x, "--p", p, *bonus]
    if command == "solve-dks":
        return ["solve-dks", "--in", x, "--epsilon", eps, *bonus]
    if command == "solve-dispersion":
        return ["solve-dispersion", "--in", x, "--p", p, "--epsilon", eps]
    if command == "solve-diversification":
        return ["solve-diversification", "--in", x, "--bonus", b, "--p", p, "--epsilon", eps]
    if command == "solve-dcg":
        return ["solve-dcg", "--in", x, "--epsilon", eps, "--trials", "4"]
    spec = {
        "instances": [{"id": "a", "path": "x.json", "p": 3, "bonus": "b.json"}],
        "algorithms": [{"name": algorithm, "epsilon": 0.5, "params": {}}],
        "seeds": [0],
        "oracle": True,
    }
    if data.draw(st.booleans()):
        spec = mutate(data, spec)
    (tmp / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return ["bench", "--spec", str(tmp / "spec.json")]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_payloads_end_in_a_documented_exit_code(tmp_path, capsys, data):
    argv = fuzzed_argv(data, tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err


def small_files(tmp: Path) -> dict:
    files = {
        "m.json": gen_random_euclidean(6, 2, 3),
        "d.json": gen_random_dks(7, 3, seed=3),
        "f5.json": gen_submodular(5, "modular", 3),
        "f9.json": gen_submodular(9, "coverage", 3, universe=4),
        "f3.json": gen_submodular(3, "modular", 3),
    }
    payloads = {name: to_payload(obj) for name, obj in files.items()}
    payloads["ragged.json"] = {"kind": "metric", "n": 2, "dist": [[0.0, 1.0], [1.0]]}
    payloads["ss.json"] = to_payload(gen_setsystem(4, 3, 2, 3))
    payloads["negative-n.json"] = {"kind": "setsystem", "n": -1, "sets": []}
    bench = {"algorithms": [{"name": "greedy-dispersion"}], "oracle": True}
    payloads["twin-ids.json"] = {
        **bench,
        "instances": [{"id": "a", "path": "m.json", "p": p} for p in (3, 4)],
    }
    payloads["list-id.json"] = {**bench, "instances": [{"id": ["x"], "path": "m.json", "p": 3}]}
    payloads["string-oracle.json"] = {
        **bench, "oracle": "no", "instances": [{"id": "a", "path": "m.json", "p": 3}],
    }
    payloads["repeated-seed.json"] = {
        **bench, "seeds": [1, 2, 1], "instances": [{"id": "a", "path": "m.json", "p": 3}],
    }
    for name, weights in (("twin-pair.json", [[0, 1, 0.5], [1, 0, 0.7], [1, 2, 0.2]]),
                          ("repeated-pair.json", [[1, 2, 0.2], [0, 1, 0.5], [1, 2, 0.2]])):
        payloads[name] = {"kind": "dks", "n": 3, "weights": weights, "forced": [], "k": 2}
    for name, dist in (("diagonal.json", [[3, 1, 2], [1, 0, 1], [2, 1, 0]]),
                       ("negative.json", [[0, -1, 1], [-1, 0, 1], [1, 1, 0]]),
                       ("asymmetric.json", [[0, 1, 2], [1, 0, 1], [1, 1, 0]]),
                       ("triangle.json", [[0, 1, 5], [1, 0, 1], [5, 1, 0]])):
        payloads[name] = {"kind": "metric", "n": 3, "dist": dist}
    out = {}
    for name, payload in payloads.items():
        (tmp / name).write_text(json.dumps(payload), encoding="utf-8")
        out[name] = str(tmp / name)
    (tmp / "binary.json").write_bytes(b"\xff\xfe{}")
    (tmp / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    (tmp / "folder").mkdir()
    for name in ("binary.json", "deep.json", "folder", "missing.json", "missing/x.json"):
        out[name] = str(tmp / name)
    return out


@pytest.mark.parametrize("argv, message", [
    pytest.param(["solve-dks", "--in", "d.json", "--bonus", "f5.json", "--epsilon", "1.0"],
                 "ground set", id="solve-dks-smaller-bonus"),
    pytest.param(["solve-dks", "--in", "d.json", "--bonus", "f9.json", "--epsilon", "1.0"],
                 "ground set", id="solve-dks-larger-bonus"),
    pytest.param(["oracle", "--in", "d.json", "--bonus", "f5.json"], "ground set",
                 id="oracle-dks-smaller-bonus"),
    pytest.param(["oracle", "--in", "d.json", "--bonus", "f9.json"], "ground set",
                 id="oracle-dks-larger-bonus"),
    pytest.param(["oracle", "--in", "m.json", "--p", "9"], "p <= n", id="oracle-p-over-n"),
    pytest.param(["check", "--in", "m.json", "--selection", "0,9"], "range(6)",
                 id="check-selection-over-n"),
    pytest.param(["check", "--in", "m.json", "--selection=-1,2"], "range(6)",
                 id="check-selection-negative"),
    pytest.param(["check", "--in", "m.json", "--selection", "a,b"], "--selection",
                 id="check-selection-not-integers"),
    pytest.param(["check", "--in", "ragged.json"], "same length", id="check-ragged-dist"),
    pytest.param(["solve-dks", "--in", "d.json", "--epsilon", "1.0", "--s", "2", "--t", "nan"],
                 "t must be finite", id="solve-dks-t-nan"),
    pytest.param(["solve-dks", "--in", "d.json", "--epsilon", "1.0", "--s", "2", "--t", "inf"],
                 "t must be finite", id="solve-dks-t-inf"),
    pytest.param(["solve-dks", "--in", "d.json", "--epsilon", "1.0", "--s", "1000000000000"],
                 "s override 1000000000000 exceeds the 7 free nodes", id="solve-dks-s-over-free"),
    pytest.param(["gen", "submodular", "--n=-3"], "need n >= 1", id="gen-submodular-negative-n"),
    pytest.param(["gen", "submodular", "--n", "4", "--sub-kind", "coverage", "--universe", "0"],
                 "need universe >= 1", id="gen-submodular-zero-universe"),
    pytest.param(["solve-dcg", "--in", "binary.json", "--epsilon", "0.05"], "cannot read",
                 id="solve-dcg-not-utf8"),
    pytest.param(["solve-dcg", "--in", "deep.json", "--epsilon", "0.05"], "invalid JSON",
                 id="solve-dcg-deep-json"),
    pytest.param(["bench", "--spec", "missing.json"], "cannot read", id="bench-missing-spec"),
    pytest.param(["bench", "--spec", "folder"], "cannot read", id="bench-spec-is-a-directory"),
    pytest.param(["bench", "--spec", "binary.json"], "cannot read", id="bench-spec-not-utf8"),
    pytest.param(["bench", "--spec", "deep.json"], "invalid JSON", id="bench-spec-deep-json"),
    pytest.param(["solve-dcg", "--in", "ss.json", "--epsilon", "0.05", "--out", "missing/x.json"],
                 "cannot write", id="solve-dcg-unwritable-out"),
    pytest.param(["solve-dcg", "--in", "ss.json", "--epsilon", "0.05", "--dump-lp",
                  "missing/x.json"], "cannot write", id="solve-dcg-unwritable-dump-lp"),
    pytest.param(["solve-dcg", "--in", "negative-n.json", "--epsilon", "0.05"], "n must be",
                 id="solve-dcg-negative-n"),
    pytest.param(["oracle", "--in", "negative-n.json"], "n must be", id="oracle-negative-n"),
    pytest.param(["bench", "--spec", "twin-ids.json"], '"id"', id="bench-duplicate-id"),
    pytest.param(["bench", "--spec", "list-id.json"], '"id"', id="bench-list-id"),
    pytest.param(["bench", "--spec", "string-oracle.json"], '"oracle"', id="bench-string-oracle"),
    pytest.param(["bench", "--spec", "repeated-seed.json"],
                 'invalid input: bench spec: "seeds" must be distinct', id="bench-repeated-seed"),
    pytest.param(["oracle", "--in", "twin-pair.json"],
                 "invalid input: weights[1]: pair (1, 0) is already given",
                 id="oracle-dks-pair-given-twice"),
    pytest.param(["check", "--in", "repeated-pair.json"],
                 "invalid input: weights[2]: pair (1, 2) is already given",
                 id="check-dks-pair-repeated"),
    pytest.param(["gen", "coverage", "--universe", "4", "--k", "2", "--extra-sets=-1"],
                 "extra_sets", id="gen-coverage-negative-extra-sets"),
    pytest.param(["solve-dispersion", "--in", "diagonal.json", "--p", "2", "--epsilon", "0.5"],
                 "invalid input: dist is not a metric: dist[0][0] = 3.0 != 0",
                 id="solve-dispersion-nonzero-diagonal"),
    pytest.param(["solve-dispersion", "--in", "negative.json", "--p", "3", "--epsilon", "0.5"],
                 "invalid input: dist is not a metric: dist[0][1] < 0",
                 id="solve-dispersion-negative-p-is-n"),
    pytest.param(["solve-dispersion", "--in", "asymmetric.json", "--p", "2", "--epsilon", "0.5"],
                 "invalid input: dist is not a metric: dist[0][2] != dist[2][0]",
                 id="solve-dispersion-asymmetric"),
    pytest.param(["solve-diversification", "--in", "asymmetric.json", "--bonus", "f3.json",
                  "--p", "3", "--epsilon", "0.5"],
                 "invalid input: dist is not a metric: dist[0][2] != dist[2][0]",
                 id="solve-diversification-asymmetric-p-is-n"),
    pytest.param(["solve-diversification", "--in", "triangle.json", "--bonus", "f3.json",
                  "--p", "2", "--epsilon", "0.5"],
                 "invalid input: dist is not a metric: dist[0][2] > dist[0][1] + dist[1][2]",
                 id="solve-diversification-triangle"),
    pytest.param(["oracle", "--in", "m.json", "--p", "3", "--guard", "-1"],
                 "invalid input: guard must be non-negative", id="oracle-negative-guard"),
])
def test_former_traceback_cases_are_exit_2(tmp_path, argv, message):
    files = small_files(tmp_path)
    argv = [files.get(a, a) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(divopt.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "divopt.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_check_selection_out_of_range_with_bonus_is_exit_2(tmp_path, capsys):
    files = small_files(tmp_path)
    bonus = tmp_path / "f6.json"
    bonus.write_text(json.dumps(to_payload(gen_submodular(6, "coverage", 3, universe=4))),
                     encoding="utf-8")
    code = main(["check", "--in", files["m.json"], "--selection", "0,9", "--bonus", str(bonus)])
    assert code == 2
    assert "range(6)" in capsys.readouterr().err
