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
options; unknown keys are rejected before anything runs.  Deterministic
algorithms run once regardless of the seed list; oracle values are
brute-force optima cached per instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

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
from .ranking import brute_force_dcg, ptas_dcg

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
    ident: str
    obj: object
    p: int | None = None
    bonus: object = None

    def metric(self) -> MetricInstance:
        if not isinstance(self.obj, MetricInstance):
            raise InstanceError(f"instance {self.ident!r}: expected a metric instance")
        if self.p is None:
            raise InstanceError(f"instance {self.ident!r}: metric algorithms need \"p\"")
        return self.obj

    def setsystem(self) -> SetSystemInstance:
        if not isinstance(self.obj, SetSystemInstance):
            raise InstanceError(f"instance {self.ident!r}: expected a setsystem instance")
        return self.obj

    def dks(self) -> DksInstance:
        if not isinstance(self.obj, DksInstance):
            raise InstanceError(f"instance {self.ident!r}: expected a dks instance")
        return self.obj

    def dinst(self) -> DiversificationInstance:
        if not isinstance(self.bonus, SubmodularSpec):
            raise InstanceError(
                f"instance {self.ident!r}: diversification needs a \"bonus\" spec "
                "(a modular or coverage file)"
            )
        return DiversificationInstance(self.metric(), self.bonus, self.p)


def _run_ptas_dcg(b, eps, params, rng):
    return ptas_dcg(b.setsystem(), eps, rng, **params).value


def _run_brute_dcg(b, eps, params, rng):
    return brute_force_dcg(b.setsystem())[1]


def _run_qptas_dispersion(b, eps, params, rng):
    return qptas_dispersion(b.metric(), b.p, eps, rng, **params).value


def _run_greedy_dispersion(b, eps, params, rng):
    return disp(greedy_dispersion(b.metric(), b.p), b.metric())


def _run_brute_dispersion(b, eps, params, rng):
    return brute_force_dispersion(b.metric(), b.p)[1]


def _run_diversify(b, eps, params, rng):
    return diversify(b.dinst(), eps, rng, **params).value


def _run_greedy_diversification(b, eps, params, rng):
    d = b.dinst()
    return dive(greedy_diversification(d), d.metric, d.f)


def _run_brute_diversification(b, eps, params, rng):
    return brute_force_diversification(b.dinst())[1]


def _run_submodular_dks(b, eps, params, rng):
    sp = SubDksParams(gamma=eps, **params)
    return submodular_dks(b.dks(), b.bonus, sp, rng).value


def _run_dks_additive(b, eps, params, rng):
    return dks_additive(b.dks(), eps, rng, **params).value


def _run_brute_dks(b, eps, params, rng):
    return brute_force_subdks(b.dks(), b.bonus)[1]


def _run_brute_dks_additive(b, eps, params, rng):
    return brute_force_subdks(b.dks(), None)[1]


_BALL = frozenset({"inner_mode", "enum_cap", "inner_gamma", "exact_budget"})
_DKS = frozenset({"s", "t", "mode", "enum_cap", "exact_budget"})
_DCG = frozenset({"u", "gamma", "eta", "trials", "prefix_cap", "max_cut_rounds"})
_NONE = frozenset()

# name -> (runner, needs_epsilon, deterministic, oracle_name, accepted params)
REGISTRY = {
    "ptas-dcg": (_run_ptas_dcg, True, False, "brute-dcg", _DCG),
    "brute-dcg": (_run_brute_dcg, False, True, None, _NONE),
    "qptas-dispersion": (_run_qptas_dispersion, True, False, "brute-dispersion", _BALL),
    "greedy-dispersion": (_run_greedy_dispersion, False, True, "brute-dispersion", _NONE),
    "brute-dispersion": (_run_brute_dispersion, False, True, None, _NONE),
    "diversify": (_run_diversify, True, False, "brute-diversification", _BALL),
    "greedy-diversification": (
        _run_greedy_diversification, False, True, "brute-diversification", _NONE
    ),
    "brute-diversification": (_run_brute_diversification, False, True, None, _NONE),
    "submodular-dks": (_run_submodular_dks, True, False, "brute-dks", _DKS),
    "dks-additive": (_run_dks_additive, True, False, "brute-dks-additive", _DKS),
    "brute-dks": (_run_brute_dks, False, True, None, _NONE),
    "brute-dks-additive": (_run_brute_dks_additive, False, True, None, _NONE),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_algorithm(algo) -> None:
    """Reject a malformed algorithm entry before anything runs."""
    if not isinstance(algo, dict) or "name" not in algo:
        raise InstanceError("bench spec: each algorithm entry needs \"name\"")
    name = algo["name"]
    if not isinstance(name, str) or name not in REGISTRY:
        raise InstanceError(f"unknown algorithm {name!r}")
    _, needs_eps, _, _, accepted = REGISTRY[name]
    eps = algo.get("epsilon")
    if needs_eps and eps is None:
        raise InstanceError(f"algorithm {name!r} needs \"epsilon\"")
    if eps is not None and (isinstance(eps, bool) or not isinstance(eps, (int, float))):
        raise InstanceError(f"algorithm {name!r}: \"epsilon\" must be a number")
    params = algo.get("params", {})
    if not isinstance(params, dict):
        raise InstanceError(f"algorithm {name!r}: \"params\" must be an object")
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise InstanceError(f"algorithm {name!r}: unknown \"params\" key(s) {unknown}")


def _load_bundles(spec: dict, base_dir: Path) -> list[_Bundle]:
    entries = spec.get("instances")
    if not isinstance(entries, list) or not entries:
        raise InstanceError("bench spec: \"instances\" must be a non-empty list")
    bundles = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or "path" not in entry:
            raise InstanceError(f"instances[{idx}]: need \"id\" and \"path\"")
        obj = load_instance(base_dir / entry["path"])
        bonus = None
        if entry.get("bonus"):
            bonus = load_instance(base_dir / entry["bonus"])
        p = entry.get("p")
        if p is not None and not _is_int(p):
            raise InstanceError(f"instances[{idx}]: \"p\" must be an integer")
        bundles.append(_Bundle(str(entry["id"]), obj, p=p, bonus=bonus))
    return bundles


def run_bench(spec: dict, base_dir) -> BenchReport:
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
    want_oracle = bool(spec.get("oracle", False))

    oracle_cache: dict[tuple, float] = {}

    def oracle_value(bundle: _Bundle, name: str) -> float:
        key = (bundle.ident, name)
        if key not in oracle_cache:
            runner = REGISTRY[name][0]
            oracle_cache[key] = float(runner(bundle, None, {}, RngState(0)))
        return oracle_cache[key]

    records = []
    for bundle in bundles:
        for algo in algos:
            name, eps = algo["name"], algo.get("epsilon")
            runner, _, deterministic, oracle_name, _ = REGISTRY[name]
            params = dict(algo.get("params", {}))
            run_seeds = seeds[:1] if deterministic else seeds
            for seed in run_seeds:
                rng = RngState(int(seed))
                t0 = time.perf_counter()
                value = float(runner(bundle, eps, params, rng))
                millis = (time.perf_counter() - t0) * 1000.0
                oracle = None
                ratio = None
                if want_oracle and oracle_name is not None:
                    oracle = oracle_value(bundle, oracle_name)
                    if oracle > 0:
                        ratio = value / oracle
                records.append(
                    BenchRecord(
                        bundle.ident, name, int(seed), eps, value, oracle, ratio, millis
                    )
                )
    records.sort(key=lambda r: (r.instance, r.algorithm, r.seed))
    return BenchReport(records)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
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
            )
        )
    return "\n".join(lines) + "\n"
