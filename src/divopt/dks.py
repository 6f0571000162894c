"""Submodular-plus-density k-subgraph selection via anchored profile matching.

The solver targets max h(T) + den(T) over T of size k containing the forced
set, where h is monotone submodular and den is the average pairwise edge
weight.  It guesses an anchor subset Q, keeps only candidate blocks whose
weight profile matches Q's, picks one block per partition cell by maximizing
h over that partition matroid, repairs sizes, and finally keeps the best
anchor's team.  Every admission test, in either regime, goes through one
batched helper, ``_admit``; its one-pair reference, ``candidate_admit``,
lives in the tests.  With one partition cell and uncapped enumeration the
scan keeps the best of the anchors' winners, each anchor's winner being its
first admitted block in (h, density, index) order.  The solver finds that
block by walking the blocks by (value, index) and stopping at the first that
some anchor admits while admitting no block ranked before it.  The top block
wins outright, with no anchor built, when every anchor is scanned, gamma'
clears the rounding error of its own anchor's admission test, and that
anchor surely rejects every block ahead of it in (h, density, index) order.
The fallback team, the first k' free nodes, is then the first block and is
scored like the others.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, islice, product
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    BRUTE_GUARD,
    DksInstance,
    InstanceError,
    RngState,
    SubmodularSpec,
    _guarded_argmax,
    as_value_oracle,
)

__all__ = [
    "den",
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


def _bonus_oracle(h, inst: DksInstance):
    """Value oracle of the bonus h; a spec must share the graph's ground set."""
    if isinstance(h, SubmodularSpec) and h.n != inst.n:
        raise InstanceError("bonus function ground set must match the dks instance")
    return as_value_oracle(h)


def _den_or_zero(T: Iterable[int], inst: DksInstance) -> float:
    T = set(T)
    return den(T, inst) if len(T) >= 2 else 0.0


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
        if self.exact_budget < 0:
            raise InstanceError("exact_budget must be non-negative")
        if self.t is not None and not (math.isfinite(self.t) and self.t > 0):
            raise InstanceError("t must be finite and positive")


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
    exact_budget: int = SubDksParams.exact_budget,
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
    sizes = range(lo, min(hi, len(nodes)) + 1)
    subsets = chain.from_iterable(combinations(nodes, size) for size in sizes)
    out = list(islice(subsets, cap + 1))
    return out[:cap], len(out) > cap


def _cond9(cmn, aprof, aself, gp: float) -> np.ndarray:
    """Mean-weight half of the admission rule, candidates x all anchors.

    Always one product over every anchor, worked in place: a product of
    another shape may round differently and flip an admission at the tolerance."""
    gap = cmn @ aprof.T
    gap -= aself[None, :]
    return np.abs(gap, out=gap) <= 4.0 * gp


def _admit(aprof, cprof, cond9, gp: float) -> np.ndarray:
    """The admission rule over anchors x candidates, whose one-pair reference,
    ``candidate_admit``, lives in the tests: the Chebyshev half, chunked to
    bound memory, and ``cond9`` (candidates x the same anchors, from
    ``_cond9``).  The Chebyshev half is a max of absolute differences,
    so any slice of it has the same bits as the full tensor."""
    chunk = max(1, int(2_000_000 // max(1, cprof.size)))
    rows = [
        np.abs(cprof[None, :, :] - aprof[start : start + chunk, None, :]).max(axis=2) <= 2.0 * gp
        for start in range(0, len(aprof), chunk)
    ]
    cheb = np.vstack(rows) if rows else np.zeros((0, len(cprof)), dtype=bool)
    return cheb & cond9.T


def _own_anchor_stops_walk(cprof, cmn, c: int, ahead, gp: float) -> bool:
    """Whether candidate c's own anchor, in the anchored scan, surely admits
    c and rejects every candidate in ``ahead``, reading the anchor off c's row.

    Row and scan each round an exact sum of at most n terms of total size
    at most 1 (weights lie in [0, 1]; membership rows sum to 1) to within
    n u (u = 2**-53): the Chebyshev readings differ by at most 2 (n + 1) u,
    the mean-weight ones by (8 n + 2) u.  gp above n 1e-14 (about 90 n u)
    makes anchor c admit c, and a miss by more than that is sure.
    """
    slack, prof = cprof.shape[1] * 1e-14, cprof[c]
    if gp <= slack or not len(ahead):
        return gp > slack
    far = np.abs(cprof[ahead] - prof).max(axis=1) > 2.0 * gp + slack
    off = np.abs(cmn[ahead] @ prof - cmn[c] @ prof) > 4.0 * gp + slack
    return bool((far | off).all())


def _walk_winner(cprof, cond9, aprof, corder, vals, gp: float):
    """First candidate, by (-vals, index), that heads some anchor's admitted
    list in ``corder``: the best of the anchored scan's per-anchor winners.

    Candidate c wins iff some anchor admits c and admits no candidate ahead
    of c in ``corder``.  ``cond9`` and ``aprof`` hold the scanned anchors in
    order.  Returns (winner or None, mask of anchors seen admitting a
    candidate).
    """
    rank = np.empty(len(corder), dtype=np.intp)
    rank[corder] = np.arange(len(corder))
    admits = np.zeros(len(aprof), dtype=bool)
    for c in np.lexsort((np.arange(len(vals)), -vals)):
        fans = np.flatnonzero(_admit(aprof, cprof[c : c + 1], cond9[c : c + 1], gp)[:, 0])
        admits[fans] = True
        ahead = corder[: rank[c]]
        if fans.size and ahead.size:
            taken = _admit(aprof[fans], cprof[ahead], cond9[np.ix_(ahead, fans)], gp)
            fans = fans[~taken.any(axis=1)]
        if fans.size:
            return int(c), admits
    return None, admits


def submodular_dks(inst: DksInstance, h, params: SubDksParams, rng: RngState) -> DksResult:
    """Anchored profile-matching solver for max h(T) + den(T), |T| = k, I <= T.

    Expected-value guarantee (over the random partition) of
    (1 - 1/e - gamma) h(OPT) + den(OPT) - gamma with theoretical parameters;
    the one-cell case (always at desk scale) is deterministic, and
    diagnostics ``randomness_used`` says whether a partition or a repair
    permutation was drawn.  There a ``batchable`` bonus (an unweighted
    coverage spec, or the ball scheme's view of one) scores every candidate
    in one ``batch_value`` call; any other bonus is called per candidate.
    """
    horacle = _bonus_oracle(h, inst)
    n = inst.n
    I = sorted(inst.forced)
    k = inst.k
    kp = k - len(I)
    Vp = sorted(set(range(n)) - set(I))
    if params.s is not None and params.s > len(Vp):
        raise InstanceError(f"s override {params.s} exceeds the {len(Vp)} free nodes")
    diagnostics: dict = {"k_prime": kp, "randomness_used": False}
    if kp == 0:
        T = tuple(I)
        hv = float(horacle(frozenset(T)))
        dv = _den_or_zero(T, inst)
        diagnostics["trivial"] = True
        return DksResult(T, hv + dv, hv, dv, diagnostics)

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
    if lo > hi:  # no integer within gamma' of t: take its neighbours
        lo, hi = max(1, math.floor(t)), math.ceil(t)
    diagnostics.update(
        {"s": s, "t": t, "gamma_prime": gp, "size_window": (lo, hi), "mode": params.mode}
    )

    # Random partition of the free nodes: each node uniform over s cells.
    if s == 1:
        assignment = {v: 0 for v in Vp}
    else:
        draws = rng.gen.integers(0, s, size=len(Vp))
        assignment = {v: int(d) for v, d in zip(Vp, draws)}
        diagnostics["randomness_used"] = True
    parts = [[v for v in Vp if assignment[v] == i] for i in range(s)]

    cand_cap_hit = False
    part_cands: list[list[tuple]] = []
    for cell in parts:
        cands, hit = _enumerate_subsets(cell, lo, hi, params.enum_cap)
        cand_cap_hit = cand_cap_hit or hit
        part_cands.append(cands)
    diagnostics["candidates_per_part"] = [len(c) for c in part_cands]
    diagnostics["candidate_cap_hit"] = cand_cap_hit

    W = inst.weights
    wI = float(W[np.ix_(I, I)].sum() / 2.0) if len(I) >= 2 else 0.0
    crossI = W[:, I].sum(axis=1) if I else np.zeros(n)

    def team_stats(members: Iterable[int]) -> tuple:
        T = tuple(sorted(set(I) | set(members)))
        return T, float(horacle(frozenset(T))), _den_or_zero(T, inst)

    def batch_profiles(subsets: Sequence[tuple]):
        """Membership rows, mean weight profiles, membership profiles and
        team densities of the given free-node subsets."""
        B = np.zeros((len(subsets), n))
        lens = [len(sub) for sub in subsets]
        cols = np.fromiter(chain.from_iterable(subsets), dtype=np.intp, count=sum(lens))
        B[np.repeat(np.arange(len(subsets)), lens), cols] = 1.0
        sizes = B.sum(axis=1)
        BW = B @ W
        prof = BW / sizes[:, None]
        mn = B / sizes[:, None]
        w_in = (BW * B).sum(axis=1) / 2.0
        w_tot = wI + B @ crossI + w_in
        size_T = sizes + len(I)
        pairs = size_T * (size_T - 1) / 2.0
        dens = np.where(size_T >= 2, w_tot / np.maximum(pairs, 1.0), 0.0)
        return B, prof, mn, dens

    repairs = 0
    best: tuple | None = None  # ((value,), T, h, d)

    def consider(T: tuple, hv: float, dv: float):
        nonlocal best
        val = hv + dv
        if best is None or val > best[0] or (val == best[0] and T < best[1]):
            best = (val, T, hv, dv)

    # Anchors are the subsets of the free nodes of sizes 1..hi.  The scan
    # enumerates the first 10 * enum_cap of them and uses the enum_cap
    # densest, so its counts follow in closed form.  t > 0 gives hi >= 1 and
    # k' >= 1 a free node, so there is always an anchor.
    n_anchors = sum(math.comb(len(Vp), r) for r in range(1, min(hi, len(Vp)) + 1))
    diagnostics["anchors_total"] = min(n_anchors, 10 * params.enum_cap)
    diagnostics["anchor_cap_hit"] = n_anchors > params.enum_cap
    diagnostics["anchors_used"] = min(n_anchors, params.enum_cap)
    use_fast = s == 1 and lo == kp and hi == kp
    diagnostics["fast_path"] = use_fast

    def anchor_scan():
        """Scanned anchors in processing order (heuristic under the cap:
        best anchor density first), all enumerated anchors' profiles and
        their self terms."""
        anchors, _ = _enumerate_subsets(Vp, 1, hi, 10 * params.enum_cap)
        _, aprof, amn, adens = batch_profiles(anchors)
        aorder = np.lexsort((np.arange(len(anchors)), -adens))[: params.enum_cap]
        return aorder, aprof, (amn * aprof).sum(axis=1)

    if use_fast:
        # k <= n gives k' <= |V'| and enum_cap >= 1, so cands is never empty.
        cands = part_cands[0]
        B, cprof, cmn, cdens = batch_profiles(cands)
        if h is None:
            ch = np.zeros(len(cands))
        elif getattr(h, "batchable", False):
            B[:, I] = 1.0  # rows now mark each candidate's team
            ch = h.batch_value(B)
        else:
            ch = np.array([horacle(frozenset(set(I) | set(c))) for c in cands])

        @functools.cache
        def scan():
            """Scanned anchors' profiles and cond-9 columns, built on
            first use; the cond-9 product always spans every anchor."""
            aorder, aprof, aself = anchor_scan()
            return aprof[aorder], _cond9(cmn, aprof, aself, gp)[:, aorder]

        def cand_team(c: int) -> tuple:
            return tuple(sorted(set(I) | set(cands[c]))), float(ch[c]), float(cdens[c])

        # Each anchor's winner is its first admitted candidate in corder;
        # the scan keeps the best winner (value, then smallest T, which
        # is the lowest candidate index) and also weighs the fallback
        # team iff some anchor admits nothing.
        corder = np.lexsort((np.arange(len(cands)), -cdens, -ch))
        vals = ch + cdens
        top = int(np.argmax(vals))  # first by (-vals, index)
        ahead = corder[: int(np.argmax(corder == top))]
        # With no anchor capped, anchor `top` is scanned; the walk stops at
        # top when that anchor admits top and nothing ahead of it in corder.
        if n_anchors <= params.enum_cap and _own_anchor_stops_walk(cprof, cmn, top, ahead, gp):
            w, admits = top, np.zeros(n_anchors, dtype=bool)
        else:
            ap, cond9 = scan()
            w, admits = _walk_winner(cprof, cond9, ap, corder, vals, gp)
        if w is not None:
            consider(*cand_team(w))
        # The fallback team, the first k' free nodes, is cands[0].  Without
        # a winner every anchor is lonely; otherwise look for a lonely
        # anchor only if the fallback team could change best.
        fb_T, fb_h, fb_d = fallback = cand_team(0)
        fb = fb_h + fb_d
        if best is None or fb > best[0] or (fb == best[0] and fb_T < best[1]):
            ap, cond9 = scan()
            rest = np.flatnonzero(~admits)
            if best is None or not _admit(ap[rest], cprof, cond9[:, rest], gp).any(axis=1).all():
                consider(*fallback)
    else:
        aorder, aprof, aself = anchor_scan()
        cells = []  # (candidates, scanned anchors x candidates admissions)
        for cands in part_cands:
            _, cprof, cmn, _ = batch_profiles(cands)
            cond9 = _cond9(cmn, aprof, aself, gp)[:, aorder]
            cells.append((cands, _admit(aprof[aorder], cprof, cond9, gp)))
        union = lambda sel: set(I) | set().union(*(set(c) for c in sel if c is not None))
        sel_obj = lambda sel: horacle(frozenset(union(sel)))
        sel_tie = lambda sel: _den_or_zero(union(sel), inst)
        fell_back = False
        for row, a_idx in enumerate(aorder):
            pools = [list(compress(cands, admit[row])) for cands, admit in cells]
            if any(pools):
                res = matroid_maximize(pools, sel_obj, params.mode, sel_tie, params.exact_budget)
                fell_back = fell_back or res.fell_back
                Ztilde = sorted(union(res.chosen).difference(I))
            else:
                Ztilde = []
            if len(Ztilde) > kp:
                repairs += 1
                perm = rng.child("repair", int(a_idx)).gen.permutation(len(Ztilde))
                diagnostics["randomness_used"] = True
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
    enum_cap: int = SubDksParams.enum_cap,
    s: int | None = None,
    t: float | None = None,
    exact_budget: int = SubDksParams.exact_budget,
) -> DksResult:
    """Density-only specialization: h == 0 and gamma = epsilon."""
    params = SubDksParams(
        gamma=epsilon, s=s, t=t, enum_cap=enum_cap, mode=mode, exact_budget=exact_budget
    )
    return submodular_dks(inst, None, params, rng)


def brute_force_subdks(inst: DksInstance, h=None, guard: int = BRUTE_GUARD):
    """Exact max of h + den over k-sets containing the forced nodes."""
    horacle = _bonus_oracle(h, inst)
    I = sorted(inst.forced)
    kp = inst.k - len(I)
    Vp = sorted(set(range(inst.n)) - set(I))
    teams = (tuple(sorted(set(I) | set(combo))) for combo in combinations(Vp, kp))
    objective = lambda T: float(horacle(frozenset(T))) + _den_or_zero(T, inst)
    return _guarded_argmax(teams, math.comb(len(Vp), kp), guard, objective, "candidate teams")
