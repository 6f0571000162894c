"""The solver workloads: inputs, set-up, the solver call and its checks.

Inputs come from the workload seed alone.  Set-up generates every fixture
with divopt's seeded generators, writes it and reads it back through
``divopt.io`` (the path a CLI user's instance files take), and computes the
brute-force optimum and the greedy baseline.  The solver then receives only
the loaded instance.  Instance sizes follow a fixed schedule over the fixture
index, so every seed draws the same mix of sizes and only the geometry or set
structure changes.  The ranking workload uses one size: with two size
strata the median latency sat on the boundary between them and jumped from
seed to seed.

Solver, generator, I/O and oracle entry points are looked up on their
modules at call time, so the tracer's attribute replacement reaches them.
The checks and greedy baselines use references taken at import, which stay
untraced.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from divopt import core, dispersion, diversification, generators, io, ranking
from divopt.core import disp as _disp
from divopt.core import dive as _dive
from divopt.dispersion import greedy_dispersion as _greedy_dispersion
from divopt.diversification import DiversificationInstance
from divopt.diversification import greedy_diversification as _greedy_diversification
from divopt.ranking import DCG_STANDARD
from divopt.ranking import dcg_value as _dcg_value

TOL = 1e-9


@dataclass
class Fixture:
    """One loaded instance with its brute-force optimum and greedy baseline."""

    index: int
    inst: object
    n: int
    p: int | None
    optimum: float
    baseline: float | None  # None where divopt has no greedy (ranking)


@dataclass(frozen=True)
class Outcome:
    value: float
    selection: tuple
    bound: float | None = None  # ptas_dcg's LP upper bound


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixtures: int
    seeds_per_fixture: int
    tail_pct: int
    generate: Callable[[int, int], dict]
    prepare: Callable[[int, dict], Fixture]
    solve: Callable[[Fixture, int], Outcome]
    recompute: Callable[[Fixture, Outcome], float]
    permutation: bool = False


# ---------------------------------------------------------------------------
# ranking (ptas_dcg)


def _gen_setsystem(n_of, m_of):
    def generate(i: int, seed: int) -> dict:
        return {"inst": generators.gen_setsystem(n_of(i), m_of(i), 3, seed)}

    return generate


def _prepare_dcg(i: int, loaded: dict) -> Fixture:
    inst = loaded["inst"]
    _, opt = ranking.brute_force_dcg(inst)
    return Fixture(i, inst, inst.n, None, opt, None)


def _ptas(u: int, trials: int):
    def solve(fx: Fixture, seed: int) -> Outcome:
        sol = ranking.ptas_dcg(
            fx.inst, 0.1, core.RngState(seed), u=u, gamma=0.05, trials=trials
        )
        return Outcome(sol.value, tuple(sol.ranking.order), sol.lp_bound)

    return solve


def _recompute_dcg(fx: Fixture, out: Outcome) -> float:
    return _dcg_value(out.selection, fx.inst, DCG_STANDARD)


# ---------------------------------------------------------------------------
# ball schemes (qptas_dispersion, diversify)


def _gen_euclidean(n_of, p_of, universe: int | None = None):
    def generate(i: int, seed: int) -> dict:
        n = n_of(i)
        out = {"inst": generators.gen_random_euclidean(n, 2, seed), "p": p_of(i)}
        if universe is not None:
            out["bonus"] = generators.gen_submodular(n, "coverage", seed + 1, universe=universe)
        return out

    return generate


def _prepare_dispersion(i: int, loaded: dict) -> Fixture:
    inst, p = loaded["inst"], loaded["p"]
    _, opt = dispersion.brute_force_dispersion(inst, p)
    base = _disp(_greedy_dispersion(inst, p), inst)
    return Fixture(i, inst, inst.n, p, opt, base)


def _solve_dispersion(fx: Fixture, seed: int) -> Outcome:
    res = dispersion.qptas_dispersion(
        fx.inst, fx.p, 0.5, core.RngState(seed), inner_mode="exact", inner_gamma=0.02
    )
    return Outcome(res.value, tuple(res.selection))


def _recompute_dispersion(fx: Fixture, out: Outcome) -> float:
    return _disp(out.selection, fx.inst)


def _prepare_diversify(i: int, loaded: dict) -> Fixture:
    dinst = DiversificationInstance(loaded["inst"], loaded["bonus"], loaded["p"])
    _, opt, _, _ = diversification.brute_force_diversification(dinst)
    base = _dive(_greedy_diversification(dinst), dinst.metric, dinst.f)
    return Fixture(i, dinst, dinst.metric.n, dinst.p, opt, base)


def _solve_diversify(fx: Fixture, seed: int) -> Outcome:
    res = diversification.diversify(
        fx.inst, 0.3, core.RngState(seed), inner_mode="exact", inner_gamma=0.02
    )
    return Outcome(res.value, tuple(res.selection))


def _recompute_diversify(fx: Fixture, out: Outcome) -> float:
    return _dive(out.selection, fx.inst.metric, fx.inst.f)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dcg-rounding",
            why=(
                "ptas_dcg, u=2, 200 rounding trials, n 6, m 6: rounding and per-trial RNG "
                "streams dominate and the cut LP is about a fifth"
            ),
            fixtures=16,
            seeds_per_fixture=1,
            tail_pct=65,
            generate=_gen_setsystem(lambda i: 6, lambda i: 6),
            prepare=_prepare_dcg,
            solve=_ptas(u=2, trials=200),
            recompute=_recompute_dcg,
            permutation=True,
        ),
        Workload(
            name="dispersion",
            why=(
                "qptas_dispersion on Euclidean n 8-11, p 3-6 (criterion-8 settings): the inner "
                "one-cell density solve dominates, heavy-tailed at n 11"
            ),
            fixtures=32,
            seeds_per_fixture=1,
            tail_pct=80,
            generate=_gen_euclidean(lambda i: 8 + i % 4, lambda i: 3 + (i // 4) % 4),
            prepare=_prepare_dispersion,
            solve=_solve_dispersion,
            recompute=_recompute_dispersion,
        ),
        Workload(
            name="diversify",
            why=(
                "diversify with a coverage bonus, n 9-11, p 3-5, 3 seeds per fixture: same ball "
                "loop, but the bonus is ranked per candidate, so zero-bonus shortcuts miss"
            ),
            fixtures=9,
            seeds_per_fixture=3,
            tail_pct=80,
            generate=_gen_euclidean(lambda i: 9 + i % 3, lambda i: 3 + (i // 3) % 3, universe=8),
            prepare=_prepare_diversify,
            solve=_solve_diversify,
            recompute=_recompute_diversify,
        ),
    )
}


# ---------------------------------------------------------------------------
# set-up and checks


def seed_words(seed: int, count: int) -> list[int]:
    """``count`` 32-bit seeds drawn deterministically from the workload seed."""
    words = np.random.SeedSequence(int(seed)).generate_state(count, np.uint32)
    return [int(w) for w in words]


def set_up(w: Workload, seed: int, workdir: Path):
    """Generate each fixture, round-trip it through divopt.io, and compute its
    brute-force optimum and greedy baseline.

    Returns the fixtures, the solve list of (fixture, solver seed) pairs and
    the seconds spent in each phase (generate, io, oracles).
    """
    clock = time.perf_counter
    phases = dict.fromkeys(("generate", "io", "oracles"), 0.0)
    words = seed_words(seed, w.fixtures * (1 + w.seeds_per_fixture))
    fxs = []
    for i in range(w.fixtures):
        t0 = clock()
        made = w.generate(i, words[i])
        t1 = clock()
        loaded = dict(made)
        for key in ("inst", "bonus"):
            if key in made:
                path = workdir / f"{w.name}-{i:03d}-{key}.json"
                io.save_instance(made[key], path)
                loaded[key] = io.load_instance(path)
        t2 = clock()
        fxs.append(w.prepare(i, loaded))
        phases["generate"] += t1 - t0
        phases["io"] += t2 - t1
        phases["oracles"] += clock() - t2
    solves = [
        (fx, words[w.fixtures + fx.index * w.seeds_per_fixture + j])
        for fx in fxs
        for j in range(w.seeds_per_fixture)
    ]
    return fxs, solves, phases


def check(w: Workload, fx: Fixture, out: Outcome) -> str | None:
    """Return why an outcome is wrong, or None when every check holds."""
    sel = out.selection
    if w.permutation:
        if sorted(sel) != list(range(fx.n)):
            return "not a permutation of range(n)"
    elif len(sel) != fx.p or len(set(sel)) != fx.p or not all(0 <= v < fx.n for v in sel):
        return f"not {fx.p} distinct indices in range(n)"
    tol = TOL * max(1.0, abs(out.value))
    if not math.isclose(w.recompute(fx, out), out.value, rel_tol=TOL, abs_tol=TOL):
        return "returned value differs from the recomputed objective"
    if fx.baseline is not None and out.value < fx.baseline - tol:
        return "value below the greedy baseline"
    if out.value > fx.optimum + tol:
        return "value above the brute-force optimum"
    if out.bound is not None and out.bound < out.value - tol:
        return "lp_bound below value"
    return None


def digest_line(fx: Fixture, seed: int, out: Outcome | None) -> str:
    if out is None:
        return f"{fx.index}|{seed}|error"
    return f"{fx.index}|{seed}|{out.value!r}|{','.join(str(v) for v in out.selection)}"
