"""Submodular-plus-density k-subgraph selection via anchored profile matching.

The solver targets max h(T) + den(T) over T of size k containing the forced
set, where h is monotone submodular and den is the average pairwise edge
weight.  It guesses an anchor subset Q, keeps only candidate blocks whose
weight profile matches Q's, picks one block per partition cell by maximizing
h over that partition matroid, repairs sizes, and finally keeps the best
anchor's team.  With one partition cell and uncapped enumeration the anchor
loop walks every feasible block, which is what the small-instance
equivalence tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    DksInstance,
    GuardExceeded,
    InstanceError,
    RngState,
    as_value_oracle,
)

__all__ = [
    "den",
    "profile_vectors",
    "candidate_admit",
    "SubDksParams",
    "MatroidResult",
    "matroid_maximize",
    "DksResult",
    "submodular_dks",
    "dks_additive",
    "brute_force_subdks",
]


def den(T: Iterable[int], inst: DksInstance) -> float:
    """Average pairwise weight: w(T) / (|T| (|T|-1) / 2)."""
    idx = sorted(set(int(v) for v in T))
    if len(idx) < 2:
        raise InstanceError("den needs at least two nodes")
    sub = inst.weights[np.ix_(idx, idx)]
    total = float(sub.sum() / 2.0)
    pairs = len(idx) * (len(idx) - 1) / 2.0
    return total / pairs


def _den_or_zero(T: Iterable[int], inst: DksInstance) -> float:
    T = set(T)
    return den(T, inst) if len(T) >= 2 else 0.0


def profile_vectors(U: Iterable[int], inst: DksInstance):
    """Mean weight-to-U and membership-indicator profiles, both length n."""
    idx = sorted(set(int(v) for v in U))
    if not idx:
        raise InstanceError("profile of an empty set is undefined")
    ow = inst.weights[:, idx].sum(axis=1) / len(idx)
    oind = np.zeros(inst.n)
    oind[idx] = 1.0 / len(idx)
    return ow, oind


def candidate_admit(U: Iterable[int], Q: Iterable[int], inst: DksInstance, gamma_prime: float) -> bool:
    """Profile-matching admission: Chebyshev condition plus mean-weight condition.

    U is admitted for anchor Q when max_x |ow(U)_x - ow(Q)_x| <= 2 gamma' and
    |oind(U).ow(Q) - oind(Q).ow(Q)| <= 4 gamma'.  Comparisons are non-strict
    at exactly the stated tolerances.
    """
    owU, oiU = profile_vectors(U, inst)
    owQ, oiQ = profile_vectors(Q, inst)
    if float(np.abs(owU - owQ).max()) > 2.0 * gamma_prime:
        return False
    return abs(float(oiU @ owQ) - float(oiQ @ owQ)) <= 4.0 * gamma_prime


@dataclass(frozen=True)
class SubDksParams:
    """Approximation knobs; s / t left as None follow the built-in formulas."""

    gamma: float
    s: int | None = None
    t: float | None = None
    enum_cap: int = 200_000
    mode: str = "greedy"
    exact_budget: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise InstanceError("gamma must lie in (0, 1]")
        if self.mode not in ("greedy", "exact"):
            raise InstanceError("mode must be 'greedy' or 'exact'")
        if self.s is not None and self.s < 1:
            raise InstanceError("s override must be >= 1")
        if self.enum_cap < 1:
            raise InstanceError("enum_cap must be positive")


@dataclass
class MatroidResult:
    chosen: tuple  # per part: candidate tuple or None
    value: float
    mode_used: str
    fell_back: bool = False


def _selection_sort_key(chosen) -> tuple:
    return tuple(c if c is not None else () for c in chosen)


def matroid_maximize(
    pools: Sequence[Sequence[tuple]],
    objective: Callable[[tuple], float],
    mode: str = "greedy",
    tie_break: Callable[[tuple], float] | None = None,
    exact_budget: int = 1_000_000,
) -> MatroidResult:
    """Pick at most one candidate per part to maximize a monotone objective.

    greedy: repeatedly add the feasible candidate with the largest marginal
    gain (ties: larger tie_break, then lowest part, then pool order) until
    every non-empty part is used; classical 1/2 bound for submodular
    objectives.  exact: enumerate one candidate per non-empty part (monotone
    objectives never benefit from skipping a fillable part), guarded by
    exact_budget; over budget falls back to greedy and flags it.
    """
    parts = [list(p) for p in pools]
    tie = tie_break if tie_break is not None else (lambda sel: 0.0)
    if mode not in ("greedy", "exact"):
        raise InstanceError("mode must be 'greedy' or 'exact'")

    if mode == "exact":
        sizes = [len(p) for p in parts if p]
        total = math.prod(sizes) if sizes else 0
        if total > exact_budget:
            res = matroid_maximize(pools, objective, "greedy", tie_break, exact_budget)
            return MatroidResult(res.chosen, res.value, "greedy", True)
        live = [i for i, p in enumerate(parts) if p]
        best = None
        if not live:
            chosen = tuple(None for _ in parts)
            return MatroidResult(chosen, float(objective(chosen)), "exact")
        for combo in product(*(parts[i] for i in live)):
            chosen = [None] * len(parts)
            for i, cand in zip(live, combo):
                chosen[i] = cand
            chosen = tuple(chosen)
            key = (float(objective(chosen)), float(tie(chosen)))
            if best is None or key > best[0] or (
                key == best[0] and _selection_sort_key(chosen) < _selection_sort_key(best[1])
            ):
                best = (key, chosen)
        return MatroidResult(best[1], best[0][0], "exact")

    chosen: list = [None] * len(parts)
    remaining = [i for i, p in enumerate(parts) if p]
    current = float(objective(tuple(chosen)))
    while remaining:
        best_pick = None
        for i in remaining:
            for idx, cand in enumerate(parts[i]):
                trial = list(chosen)
                trial[i] = cand
                trial = tuple(trial)
                gain = float(objective(trial)) - current
                key = (gain, float(tie(trial)), -i, -idx)
                if best_pick is None or key > best_pick[0]:
                    best_pick = (key, i, cand)
        _, part_i, cand = best_pick
        chosen[part_i] = cand
        remaining.remove(part_i)
        current = float(objective(tuple(chosen)))
    return MatroidResult(tuple(chosen), current, "greedy")


@dataclass
class DksResult:
    nodes: tuple
    value: float
    h_value: float
    den_value: float
    diagnostics: dict = field(default_factory=dict)


def _pad_to_size(base: set, kp: int, vp_sorted: Sequence[int]) -> tuple:
    out = set(base)
    for v in vp_sorted:
        if len(out) >= kp:
            break
        if v not in out:
            out.add(v)
    return tuple(sorted(out))


def _enumerate_subsets(nodes: Sequence[int], lo: int, hi: int, cap: int):
    """Lexicographic subsets of sizes lo..hi, truncated at cap."""
    out = []
    hit = False
    for size in range(lo, hi + 1):
        if size > len(nodes):
            break
        for combo in combinations(nodes, size):
            if len(out) >= cap:
                hit = True
                return out, hit
            out.append(combo)
    return out, hit


def submodular_dks(inst: DksInstance, h, params: SubDksParams, rng: RngState) -> DksResult:
    """Anchored profile-matching solver for max h(T) + den(T), |T| = k, I <= T.

    Expected-value guarantee (over the random partition) of
    (1 - 1/e - gamma) h(OPT) + den(OPT) - gamma with theoretical parameters;
    the one-cell case (always at desk scale) is deterministic.
    """
    horacle = as_value_oracle(h)
    n = inst.n
    I = sorted(inst.forced)
    k = inst.k
    kp = k - len(I)
    diagnostics: dict = {"k_prime": kp}
    if kp == 0:
        T = tuple(I)
        hv = float(horacle(frozenset(T)))
        dv = _den_or_zero(T, inst)
        diagnostics["trivial"] = True
        return DksResult(T, hv + dv, hv, dv, diagnostics)

    Vp = sorted(set(range(n)) - set(I))
    gamma = params.gamma
    gp = 0.01 * gamma
    if params.s is not None:
        s = int(params.s)
    elif n < 2:
        s = 1
    else:
        s = max(1, math.floor(0.001 * gp * gp * kp / math.log(n)))
    t = float(params.t) if params.t is not None else kp / s
    lo = max(1, math.ceil((1.0 - gp) * t - 1e-9))
    hi = math.floor((1.0 + gp) * t + 1e-9)
    diagnostics.update(
        {"s": s, "t": t, "gamma_prime": gp, "size_window": (lo, hi), "mode": params.mode}
    )

    # Random partition of the free nodes: each node uniform over s cells.
    if s == 1:
        assignment = {v: 0 for v in Vp}
    else:
        draws = rng.gen.integers(0, s, size=len(Vp))
        assignment = {v: int(d) for v, d in zip(Vp, draws)}
    parts = [[v for v in Vp if assignment[v] == i] for i in range(s)]

    cand_cap_hit = False
    part_cands: list[list[tuple]] = []
    for cell in parts:
        cands, hit = _enumerate_subsets(cell, lo, hi, params.enum_cap)
        cand_cap_hit = cand_cap_hit or hit
        part_cands.append(cands)
    diagnostics["candidates_per_part"] = [len(c) for c in part_cands]
    diagnostics["candidate_cap_hit"] = cand_cap_hit

    anchors, anchor_cap_pre = ([], False)
    if hi >= 1:
        anchors, anchor_cap_pre = _enumerate_subsets(Vp, 1, hi, 10 * params.enum_cap)
    diagnostics["anchors_total"] = len(anchors)

    W = inst.weights
    wI = float(W[np.ix_(I, I)].sum() / 2.0) if len(I) >= 2 else 0.0
    crossI = W[:, I].sum(axis=1) if I else np.zeros(n)

    def team_stats(members: Iterable[int]) -> tuple:
        T = tuple(sorted(set(I) | set(members)))
        hv = float(horacle(frozenset(T)))
        dv = _den_or_zero(T, inst) if k >= 2 else 0.0
        return T, hv, dv

    fallback_T, fallback_h, fallback_d = team_stats(_pad_to_size(set(), kp, Vp))

    if not anchors:
        diagnostics["anchors_used"] = 0
        diagnostics["no_anchor_fallback"] = True
        return DksResult(
            fallback_T, fallback_h + fallback_d, fallback_h, fallback_d, diagnostics
        )

    def batch_profiles(subsets: Sequence[tuple]):
        B = np.zeros((len(subsets), n))
        for r, sub in enumerate(subsets):
            B[r, list(sub)] = 1.0
        sizes = B.sum(axis=1)
        BW = B @ W
        prof = BW / sizes[:, None]
        mn = B / sizes[:, None]
        w_in = (BW * B).sum(axis=1) / 2.0
        w_tot = wI + B @ crossI + w_in
        size_T = sizes + len(I)
        pairs = size_T * (size_T - 1) / 2.0
        dens = np.where(size_T >= 2, w_tot / np.maximum(pairs, 1.0), 0.0)
        return B, sizes, prof, mn, dens

    Ba, asz, aprof, amn, adens = batch_profiles(anchors)
    aself = (amn * aprof).sum(axis=1)

    # Heuristic processing order under the cap: best anchor density first.
    aorder = np.lexsort((np.arange(len(anchors)), -adens))
    if len(aorder) > params.enum_cap:
        aorder = aorder[: params.enum_cap]
        diagnostics["anchor_cap_hit"] = True
    else:
        diagnostics["anchor_cap_hit"] = bool(anchor_cap_pre)
    diagnostics["anchors_used"] = len(aorder)

    use_fast = s == 1 and lo == kp and hi == kp
    diagnostics["fast_path"] = use_fast
    repairs = 0
    best: tuple | None = None  # ((value,), T, h, d)

    def consider(T: tuple, hv: float, dv: float):
        nonlocal best
        val = hv + dv
        if best is None or val > best[0] or (val == best[0] and T < best[1]):
            best = (val, T, hv, dv)

    if use_fast:
        cands = part_cands[0]
        if not cands:
            consider(fallback_T, fallback_h, fallback_d)
        else:
            Bc, csz, cprof, cmn, cdens = batch_profiles(cands)
            if h is None:
                ch = np.zeros(len(cands))
            else:
                ch = np.array([horacle(frozenset(set(I) | set(c))) for c in cands])
            corder = np.lexsort((np.arange(len(cands)), -cdens, -ch))
            cond9 = np.abs(cmn @ aprof.T - aself[None, :]) <= 4.0 * gp  # (c, a)
            chunk = max(1, int(2_000_000 // max(1, len(cands) * n)))
            rows = []
            for start in range(0, len(aorder), chunk):
                sel = aorder[start : start + chunk]
                diff = np.abs(cprof[None, :, :] - aprof[sel, None, :]).max(axis=2)
                rows.append((diff <= 2.0 * gp) & cond9[:, sel].T)
            admitted = np.vstack(rows) if rows else np.zeros((0, len(cands)), dtype=bool)
            adm_ord = admitted[:, corder]
            has = adm_ord.any(axis=1)
            firsts = adm_ord.argmax(axis=1)
            if not has.any():
                consider(fallback_T, fallback_h, fallback_d)
            else:
                win = corder[firsts[has]]
                vals = ch[win] + (cdens[win] if k >= 2 else 0.0)
                top = float(vals.max())
                for w in np.unique(win[vals >= top]):
                    T = tuple(sorted(set(I) | set(cands[int(w)])))
                    consider(T, float(ch[int(w)]), float(cdens[int(w)]) if k >= 2 else 0.0)
                if (~has).any():
                    consider(fallback_T, fallback_h, fallback_d)
    else:
        fell_back = False
        for a_idx in aorder:
            Q = anchors[int(a_idx)]
            pools = []
            for cands in part_cands:
                pool = [c for c in cands if candidate_admit(c, Q, inst, gp)]
                pools.append(pool)
            if any(pools):
                sel_obj = lambda sel: horacle(
                    frozenset(set(I) | set().union(*(set(c) for c in sel if c is not None)))
                )
                sel_tie = lambda sel: _den_or_zero(
                    set(I) | set().union(*(set(c) for c in sel if c is not None)), inst
                )
                res = matroid_maximize(
                    pools, sel_obj, params.mode, sel_tie, params.exact_budget
                )
                fell_back = fell_back or res.fell_back
                Ztilde = sorted(set().union(*(set(c) for c in res.chosen if c is not None)))
            else:
                Ztilde = []
            if len(Ztilde) > kp:
                repairs += 1
                perm = rng.child("repair", int(a_idx)).gen.permutation(len(Ztilde))
                Z = tuple(sorted(Ztilde[i] for i in perm[:kp]))
            elif len(Ztilde) < kp:
                if Ztilde:
                    repairs += 1
                Z = _pad_to_size(set(Ztilde), kp, Vp)
            else:
                Z = tuple(Ztilde)
            consider(*team_stats(Z))
        diagnostics["matroid_fell_back"] = fell_back

    diagnostics["repairs"] = repairs
    assert best is not None
    val, T, hv, dv = best
    return DksResult(T, val, hv, dv, diagnostics)


def dks_additive(
    inst: DksInstance,
    epsilon: float,
    rng: RngState,
    *,
    mode: str = "greedy",
    enum_cap: int = 200_000,
    s: int | None = None,
    t: float | None = None,
    exact_budget: int = 1_000_000,
) -> DksResult:
    """Density-only specialization: h == 0 and gamma = epsilon."""
    params = SubDksParams(
        gamma=epsilon, s=s, t=t, enum_cap=enum_cap, mode=mode, exact_budget=exact_budget
    )
    return submodular_dks(inst, None, params, rng)


def brute_force_subdks(inst: DksInstance, h=None, guard: int = 1_000_000):
    """Exact max of h + den over k-sets containing the forced nodes."""
    horacle = as_value_oracle(h)
    I = sorted(inst.forced)
    kp = inst.k - len(I)
    Vp = sorted(set(range(inst.n)) - set(I))
    count = math.comb(len(Vp), kp)
    if count > guard:
        raise GuardExceeded(f"brute force refuses {count} > {guard} candidate teams")
    best_T, best_val = None, -math.inf
    for combo in combinations(Vp, kp):
        T = tuple(sorted(set(I) | set(combo)))
        val = float(horacle(frozenset(T))) + (_den_or_zero(T, inst) if inst.k >= 2 else 0.0)
        if val > best_val:
            best_T, best_val = T, val
    return best_T, float(best_val)
