"""Seeded instance generators and the two reduction-style converters.

Every generator stamps provenance (generator name, parameters, seed) into the
instance metadata so saved files are self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import (
    BRUTE_GUARD,
    DksInstance,
    InstanceError,
    MetricInstance,
    RngState,
    SetSystemInstance,
    SubmodularSpec,
    _guarded_argmax,
)

__all__ = [
    "gen_random_euclidean",
    "gen_random_metric",
    "gen_planted_dks",
    "gen_random_dks",
    "dks_to_dispersion",
    "CoverageInstance",
    "gen_regular_coverage",
    "coverage_to_dcg",
    "max_coverage_value",
    "gen_setsystem",
    "gen_submodular",
]


def gen_random_euclidean(n: int, dim: int, seed: int) -> MetricInstance:
    """Uniform points in the unit cube with exact Euclidean distances."""
    if n < 1 or dim < 1:
        raise InstanceError("need n >= 1 and dim >= 1")
    rng = RngState(seed)
    pts = rng.gen.random((n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    dist = (dist + dist.T) / 2.0
    meta = {"generator": "random-euclidean", "n": n, "dim": dim, "seed": int(seed)}
    return MetricInstance(n, dist, points=pts, meta=meta)


def _pair_draws(n: int, rng: RngState, low: float = 0.0, width: float = 1.0) -> np.ndarray:
    """Symmetric n x n matrix, zero diagonal, with pair (i, j), i < j, set to
    low + width * the next uniform draw of ``rng``, pairs in row-major order."""
    i, j = np.triu_indices(n, 1)
    out = np.zeros((n, n))
    out[i, j] = out[j, i] = low + width * rng.gen.random(len(i))
    return out


def gen_random_metric(n: int, seed: int) -> MetricInstance:
    """Symmetric distances drawn uniformly from [1, 2]; triangle holds for free."""
    if n < 1:
        raise InstanceError("need n >= 1")
    dist = _pair_draws(n, RngState(seed), low=1.0)
    meta = {"generator": "random-metric", "n": n, "seed": int(seed)}
    return MetricInstance(n, dist, meta=meta)


def gen_planted_dks(n: int, k: int, seed: int) -> DksInstance:
    """Plant a unit-weight k-clique; every other pair gets weight in [0, 0.5]."""
    if not 2 <= k <= n:
        raise InstanceError("need 2 <= k <= n")
    rng = RngState(seed)
    planted = sorted(int(v) for v in rng.gen.choice(n, size=k, replace=False))
    W = _pair_draws(n, rng, width=0.5)
    for i, j in combinations(planted, 2):
        W[i, j] = W[j, i] = 1.0
    meta = {"generator": "planted-dks", "n": n, "k": k, "seed": int(seed), "planted": planted}
    return DksInstance(n, W, forced=frozenset(), k=k, meta=meta)


def gen_random_dks(n: int, k: int, seed: int, forced_count: int = 0) -> DksInstance:
    """Uniform [0, 1] pair weights, optionally forcing the lowest-seed nodes."""
    if not 1 <= k <= n:
        raise InstanceError("need 1 <= k <= n")
    if not 0 <= forced_count <= k:
        raise InstanceError("need 0 <= forced_count <= k")
    rng = RngState(seed)
    W = _pair_draws(n, rng)
    forced = frozenset(
        int(v) for v in rng.gen.choice(n, size=forced_count, replace=False)
    )
    meta = {
        "generator": "random-dks",
        "n": n,
        "k": k,
        "seed": int(seed),
        "forced_count": forced_count,
    }
    return DksInstance(n, W, forced=forced, k=k, meta=meta)


def dks_to_dispersion(dks: DksInstance) -> tuple[MetricInstance, int]:
    """Distances d = 1 + w turn density into dispersion.

    For any size-k team T: disp(T) = (k (k-1) / 2) (1 + den(T)), so density
    order is preserved and a perfect planted clique reaches disp = k (k-1).
    Requires an empty forced set; weights already live in [0, 1].
    """
    if dks.forced:
        raise InstanceError("reduction requires an empty forced set")
    dist = 1.0 + dks.weights
    np.fill_diagonal(dist, 0.0)
    meta = {"generator": "dks-to-dispersion", "p": dks.k}
    meta.update({f"source_{k}": v for k, v in dks.meta.items()})
    return MetricInstance(dks.n, dist, meta=meta), dks.k


@dataclass
class CoverageInstance:
    """Max-k-coverage input: pick k of the sets to cover universe items."""

    universe: int
    sets: tuple
    k: int
    regular: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = []
        for idx, s in enumerate(self.sets):
            s = frozenset(int(i) for i in s)
            if not s <= set(range(self.universe)):
                raise InstanceError(f"sets[{idx}] outside universe range")
            norm.append(s)
        self.sets = tuple(norm)
        if not 1 <= self.k <= len(self.sets):
            raise InstanceError("need 1 <= k <= number of sets")
        if self.regular:
            sizes = {len(s) for s in self.sets}
            if len(sizes) > 1:
                raise InstanceError("regular instance requires equal-size sets")


def gen_regular_coverage(
    M: int, k: int, seed: int, planted: bool = True, extra_sets: int = 0
) -> CoverageInstance:
    """Equal-size coverage sets; with planted=True the first k form a partition."""
    if M < 1 or k < 1 or M % k != 0:
        raise InstanceError("need k >= 1 dividing M >= 1")
    if extra_sets < 0:
        raise InstanceError(f"extra_sets must be non-negative, got {extra_sets}")
    q = M // k
    rng = RngState(seed)
    sets = []
    if planted:
        perm = [int(v) for v in rng.gen.permutation(M)]
        for i in range(k):
            sets.append(frozenset(perm[i * q : (i + 1) * q]))
    else:
        for _ in range(k):
            sets.append(frozenset(int(v) for v in rng.gen.choice(M, size=q, replace=False)))
    for _ in range(extra_sets):
        sets.append(frozenset(int(v) for v in rng.gen.choice(M, size=q, replace=False)))
    meta = {
        "generator": "regular-coverage",
        "universe": M,
        "k": k,
        "seed": int(seed),
        "planted": bool(planted),
        "extra_sets": extra_sets,
    }
    return CoverageInstance(M, tuple(sets), k, regular=True, meta=meta)


def coverage_to_dcg(cov: CoverageInstance) -> SetSystemInstance:
    """Each universe item becomes a demand set over the coverage sets, k = 1.

    Ranking the k planted partition cells first covers M/k items at each of
    the first k positions, so a planted regular instance has DCG optimum
    sum_{i<=k} (M/k) / log2(i + 1).  Items covered by no set are rejected.
    """
    n = len(cov.sets)
    demands = []
    for item in range(cov.universe):
        members = frozenset(j for j, s in enumerate(cov.sets) if item in s)
        if not members:
            raise InstanceError(f"universe item {item} is covered by no set")
        demands.append((members, 1))
    meta = {"generator": "coverage-to-dcg"}
    meta.update({f"source_{k}": v for k, v in cov.meta.items()})
    if cov.regular and cov.meta.get("planted"):
        q = cov.universe // cov.k
        meta["planted_dcg"] = float(
            sum(q / math.log2(i + 1) for i in range(1, cov.k + 1))
        )
    return SetSystemInstance(n, tuple(demands), meta=meta)


def max_coverage_value(cov: CoverageInstance, guard: int = BRUTE_GUARD) -> float:
    """Brute-force Cov value: best union size over k-subsets of the sets."""
    m, k = len(cov.sets), cov.k
    covered = lambda combo: len(frozenset().union(*(cov.sets[j] for j in combo)))
    return _guarded_argmax(combinations(range(m), k), math.comb(m, k), guard, covered, "subsets")[1]


def gen_setsystem(n: int, m: int, kmax: int, seed: int) -> SetSystemInstance:
    """Random demand sets: sizes in [1, min(n, 4)], thresholds in [1, kmax]."""
    if n < 1 or m < 0 or kmax < 1:
        raise InstanceError("need n >= 1, m >= 0, kmax >= 1")
    rng = RngState(seed)
    sets = []
    for _ in range(m):
        size = int(rng.gen.integers(1, min(n, 4) + 1))
        members = frozenset(int(v) for v in rng.gen.choice(n, size=size, replace=False))
        k = int(rng.gen.integers(1, min(kmax, len(members)) + 1))
        sets.append((members, k))
    meta = {"generator": "setsystem", "n": n, "m": m, "kmax": kmax, "seed": int(seed)}
    return SetSystemInstance(n, tuple(sets), meta=meta)


def gen_submodular(
    n: int, kind: str, seed: int, universe: int | None = None
) -> SubmodularSpec:
    """Random monotone submodular bonus: modular weights or a coverage system."""
    if n < 1:
        raise InstanceError("need n >= 1")
    rng = RngState(seed)
    if kind == "modular":
        return SubmodularSpec(kind="modular", weights=tuple(rng.gen.random(n)))
    if kind == "coverage":
        M = universe if universe is not None else max(4, 2 * n)
        if M < 1:
            raise InstanceError("need universe >= 1")
        covers = []
        for _ in range(n):
            size = int(rng.gen.integers(1, max(1, M // 3) + 1))
            covers.append(frozenset(int(i) for i in rng.gen.choice(M, size=size, replace=False)))
        return SubmodularSpec(kind="coverage", universe=M, covers=tuple(covers))
    raise InstanceError(f"unknown submodular kind {kind!r}")
