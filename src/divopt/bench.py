"""Batch runner: instances x algorithms x seeds, with optional oracle ratios.

A bench spec is a JSON object:

  {
    "instances": [{"id": "a", "path": "a.json", "p": 4, "bonus": "f.json"}],
    "algorithms": [{"name": "qptas-dispersion", "epsilon": 0.3, "params": {}}],
    "seeds": [1, 2, 3],
    "oracle": true
  }

Paths are resolved relative to the spec file.  "p" (an integer) is required
for metric instances, "bonus" (a submodular-spec file) for diversification
and for the submodular selection solver.  "params" holds the solver's keyword
options; unknown keys and repeated seeds are rejected before anything
runs.  Deterministic algorithms run once regardless of the seed list;
oracle values are brute-force optima cached per instance.

``SOLVERS`` declares each approximation algorithm once: its call and its
options, which are both the "params" keys here and the flags of its
``solve-*`` command.  ``BASELINES`` holds the deterministic greedy and
brute-force algorithms, which take no epsilon and no options.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Callable

from .core import (
    DksInstance,
    InstanceError,
    MetricInstance,
    RngState,
    SetSystemInstance,
    SubmodularSpec,
    disp,
    dive,
)
from .diversification import (
    DiversificationInstance,
    brute_force_diversification,
    diversify,
    greedy_diversification,
)
from .dispersion import brute_force_dispersion, greedy_dispersion, qptas_dispersion
from .dks import SubDksParams, brute_force_subdks, dks_additive, submodular_dks
from .io import load_instance
from .ranking import MAX_CUT_ROUNDS, PREFIX_CAP, brute_force_dcg, ptas_dcg

__all__ = ["BenchRecord", "BenchReport", "run_bench", "records_to_csv", "CSV_HEADER"]

CSV_HEADER = "instance,algorithm,seed,epsilon,value,oracle,ratio,millis"


@dataclass
class BenchRecord:
    instance: str
    algorithm: str
    seed: int
    epsilon: float | None
    value: float
    oracle: float | None
    ratio: float | None
    millis: float
    diagnostics: dict | None = None  # the solver run's; None for a baseline


@dataclass
class BenchReport:
    records: list = field(default_factory=list)

    def aggregates(self) -> list[dict]:
        groups: dict[tuple, list[BenchRecord]] = {}
        for rec in self.records:
            groups.setdefault((rec.instance, rec.algorithm), []).append(rec)
        out = []
        for (inst, algo), recs in sorted(groups.items()):
            vals = [r.value for r in recs]
            ratios = [r.ratio for r in recs if r.ratio is not None]
            out.append(
                {
                    "instance": inst,
                    "algorithm": algo,
                    "runs": len(recs),
                    "mean_value": sum(vals) / len(vals),
                    "min_value": min(vals),
                    "max_value": max(vals),
                    "mean_ratio": (sum(ratios) / len(ratios)) if ratios else None,
                    "mean_millis": sum(r.millis for r in recs) / len(recs),
                }
            )
        return out


@dataclass
class _Bundle:
    """An instance with its ``p`` and ``bonus``; ``name`` is how errors cite it."""

    name: str
    obj: object
    p: int | None = None
    bonus: object = None

    def kind(self, cls, label: str):
        if not isinstance(self.obj, cls):
            raise InstanceError(f"{self.name}: expected a {label} instance")
        return self.obj

    def metric(self) -> MetricInstance:
        inst = self.kind(MetricInstance, "metric")
        if self.p is None:
            raise InstanceError(f"{self.name}: metric algorithms need \"p\"")
        return inst

    def setsystem(self) -> SetSystemInstance:
        return self.kind(SetSystemInstance, "setsystem")

    def dks(self) -> DksInstance:
        return self.kind(DksInstance, "dks")

    def dinst(self) -> DiversificationInstance:
        if not isinstance(self.bonus, SubmodularSpec):
            raise InstanceError(
                f"{self.name}: diversification needs a \"bonus\" spec "
                "(a modular or coverage file)"
            )
        return DiversificationInstance(self.metric(), self.bonus, self.p)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


_WORDS = {int: "an integer", float: "a number", str: "a string"}
_AT_LEAST = {0: "a non-negative integer", 1: "a positive integer"}


@dataclass(frozen=True)
class Option:
    """One solver keyword: its bench ``params`` key and its ``solve-*`` flag.

    A None default also admits JSON null.  ``least`` bounds an integer in
    the bench spec before anything runs (the solver checks its own range on
    the command line).  ``choices`` maps each accepted flag value to the
    solver's value; ``flag`` is the flag when it is not ``--key``.
    """

    key: str
    type: type
    default: object = None
    least: int | None = None
    flag: str | None = None
    choices: dict | None = None

    @property
    def cli_flag(self) -> str:
        return self.flag or "--" + self.key.replace("_", "-")

    @property
    def label(self) -> str:
        what = _AT_LEAST.get(self.least, _WORDS[self.type])
        return what + (" or null" if self.default is None else "")

    def accepts(self, value) -> bool:
        if value is None:
            return self.default is None
        if self.type is str:
            return isinstance(value, str)
        if not (_is_int(value) if self.type is int else _is_num(value)):
            return False
        return self.least is None or value >= self.least


@dataclass(frozen=True)
class Solver:
    """An approximation algorithm: ``call(bundle, epsilon, rng, **options)``
    returns a result with ``value`` and ``diagnostics``; ``oracle`` names
    the baseline that scores it."""

    call: Callable
    options: tuple
    oracle: str


_DCG = (
    Option("u", int),
    Option("gamma", float),
    Option("eta", float),
    Option("trials", int),
    Option("prefix_cap", int, PREFIX_CAP, least=1),
    Option("max_cut_rounds", int, MAX_CUT_ROUNDS, least=0),
)
_BALL = (
    Option(
        "inner_mode", str, "exact", flag="--inner", choices={"exact": "exact", "scheme": "greedy"}
    ),
    Option("enum_cap", int, SubDksParams.enum_cap),
    Option("inner_gamma", float),
    Option("exact_budget", int, SubDksParams.exact_budget),
)
_DKS = (
    Option("mode", str, "greedy", choices={"greedy": "greedy", "exact": "exact"}),
    Option("s", int),
    Option("t", float),
    Option("enum_cap", int, SubDksParams.enum_cap),
    Option("exact_budget", int, SubDksParams.exact_budget),
)

SOLVERS = {
    "ptas-dcg": Solver(
        lambda b, eps, rng, **o: ptas_dcg(b.setsystem(), eps, rng, **o), _DCG, "brute-dcg"
    ),
    "qptas-dispersion": Solver(
        lambda b, eps, rng, **o: qptas_dispersion(b.metric(), b.p, eps, rng, **o),
        _BALL,
        "brute-dispersion",
    ),
    "diversify": Solver(
        lambda b, eps, rng, **o: diversify(b.dinst(), eps, rng, **o),
        _BALL,
        "brute-diversification",
    ),
    "submodular-dks": Solver(
        lambda b, eps, rng, **o: submodular_dks(b.dks(), b.bonus, SubDksParams(eps, **o), rng),
        _DKS,
        "brute-dks",
    ),
    "dks-additive": Solver(
        lambda b, eps, rng, **o: dks_additive(b.dks(), eps, rng, **o), _DKS, "brute-dks-additive"
    ),
}


# deterministic baselines and oracles: name -> (value of a bundle, oracle name)
BASELINES = {
    "brute-dcg": (lambda b: brute_force_dcg(b.setsystem())[1], None),
    "greedy-dispersion": (
        lambda b: disp(greedy_dispersion(b.metric(), b.p), b.metric()), "brute-dispersion"
    ),
    "brute-dispersion": (lambda b: brute_force_dispersion(b.metric(), b.p)[1], None),
    "greedy-diversification": (
        lambda b: dive(greedy_diversification(b.dinst()), b.metric(), b.bonus),
        "brute-diversification",
    ),
    "brute-diversification": (lambda b: brute_force_diversification(b.dinst())[1], None),
    "brute-dks": (lambda b: brute_force_subdks(b.dks(), b.bonus)[1], None),
    "brute-dks-additive": (lambda b: brute_force_subdks(b.dks(), None)[1], None),
}


def _check_algorithm(algo) -> None:
    """Reject a malformed algorithm entry before anything runs."""
    if not isinstance(algo, dict) or "name" not in algo:
        raise InstanceError("bench spec: each algorithm entry needs \"name\"")
    name = algo["name"]
    if not isinstance(name, str) or name not in SOLVERS and name not in BASELINES:
        raise InstanceError(f"unknown algorithm {name!r}")
    eps = algo.get("epsilon")
    if name in SOLVERS and eps is None:
        raise InstanceError(f"algorithm {name!r} needs \"epsilon\"")
    if eps is not None and not _is_num(eps):
        raise InstanceError(f"algorithm {name!r}: \"epsilon\" must be a number")
    params = algo.get("params", {})
    if not isinstance(params, dict):
        raise InstanceError(f"algorithm {name!r}: \"params\" must be an object")
    options = {o.key: o for o in SOLVERS[name].options} if name in SOLVERS else {}
    unknown = sorted(set(params) - set(options))
    if unknown:
        raise InstanceError(f"algorithm {name!r}: unknown \"params\" key(s) {unknown}")
    for key, value in params.items():
        if not options[key].accepts(value):
            raise InstanceError(
                f"algorithm {name!r}: \"params\" key {key!r} must be {options[key].label}"
            )


def _load_bundles(spec: dict, base_dir: Path) -> dict[str, _Bundle]:
    entries = spec.get("instances")
    if not isinstance(entries, list) or not entries:
        raise InstanceError("bench spec: \"instances\" must be a non-empty list")
    bundles: dict[str, _Bundle] = {}
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or "path" not in entry:
            raise InstanceError(f"instances[{idx}]: need \"id\" and \"path\"")
        ident = entry["id"]
        if not isinstance(ident, str):
            raise InstanceError(f"instances[{idx}]: \"id\" must be a string")
        if ident in bundles:
            raise InstanceError(f"instances[{idx}]: \"id\" {ident!r} is not unique")
        path, bonus_path, p = entry["path"], entry.get("bonus"), entry.get("p")
        if not isinstance(path, str):
            raise InstanceError(f"instances[{idx}]: \"path\" must be a string")
        if bonus_path is not None and not isinstance(bonus_path, str):
            raise InstanceError(f"instances[{idx}]: \"bonus\" must be a string")
        if p is not None and not _is_int(p):
            raise InstanceError(f"instances[{idx}]: \"p\" must be an integer")
        obj = load_instance(base_dir / path)
        bonus = load_instance(base_dir / bonus_path) if bonus_path else None
        bundles[ident] = _Bundle(f"instance {ident!r}", obj, p=p, bonus=bonus)
    return bundles


def run_bench(spec: dict, base_dir) -> BenchReport:
    if not isinstance(spec, dict):
        raise InstanceError("bench spec must be a JSON object")
    base_dir = Path(base_dir)
    bundles = _load_bundles(spec, base_dir)
    algos = spec.get("algorithms")
    if not isinstance(algos, list) or not algos:
        raise InstanceError("bench spec: \"algorithms\" must be a non-empty list")
    for algo in algos:
        _check_algorithm(algo)
    seeds = spec.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise InstanceError("bench spec: \"seeds\" must be a non-empty list")
    if not all(_is_int(seed) for seed in seeds):
        raise InstanceError("bench spec: \"seeds\" must hold integers")
    if len(set(seeds)) < len(seeds):
        raise InstanceError("bench spec: \"seeds\" must be distinct")
    want_oracle = spec.get("oracle", False)
    if not isinstance(want_oracle, bool):
        raise InstanceError("bench spec: \"oracle\" must be true or false")

    oracle_cache: dict[tuple, float] = {}
    records = []
    for ident, bundle in bundles.items():
        for algo in algos:
            name, eps = algo["name"], algo.get("epsilon")
            solver = SOLVERS.get(name)
            oracle_name = solver.oracle if solver else BASELINES[name][1]
            # a baseline is deterministic, so it runs once
            for seed in seeds if solver else seeds[:1]:
                rng = RngState(seed)
                t0 = time.perf_counter()
                if solver:
                    res = solver.call(bundle, eps, rng, **algo.get("params", {}))
                    value, diagnostics = float(res.value), res.diagnostics
                else:
                    value, diagnostics = float(BASELINES[name][0](bundle)), None
                millis = (time.perf_counter() - t0) * 1000.0
                oracle = ratio = None
                if want_oracle and oracle_name is not None:
                    key = (ident, oracle_name)
                    if key not in oracle_cache:
                        oracle_cache[key] = float(BASELINES[oracle_name][0](bundle))
                    oracle = oracle_cache[key]
                    if oracle > 0:
                        ratio = value / oracle
                records.append(
                    BenchRecord(ident, name, seed, eps, value, oracle, ratio, millis, diagnostics)
                )
    records.sort(key=lambda r: (r.instance, r.algorithm, r.seed))
    return BenchReport(records)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_table(rows) -> str:
    """``CSV_HEADER`` plus one newline-ended line per row of string fields.

    A field is quoted only when it holds a comma, a quote or a line break.
    The writer quotes just the line breaks of its own terminator, so each
    row is written with CRLF and then ended with a bare newline instead.
    """
    lines = [CSV_HEADER]
    for row in rows:
        buf = StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n"))
    return "\n".join(lines) + "\n"


def records_to_csv(records) -> str:
    return _csv_table(
        [
            r.instance,
            r.algorithm,
            str(r.seed),
            _cell(r.epsilon),
            _cell(r.value),
            _cell(r.oracle),
            _cell(r.ratio),
            f"{r.millis:.3f}",
        ]
        for r in records
    )
