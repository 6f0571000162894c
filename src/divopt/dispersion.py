"""Max-sum dispersion: pick p points maximizing the sum of pairwise distances.

The approximation scheme guesses a center u and a witness v, keeps the ball
of radius delta* = 20 d(u,v) / epsilon around u, forces the ring between
radius delta and delta*, scales pair distances into [0, 1] edge weights, and
delegates the remaining choice to the density solver.  Pairs that cut the
same two point sets (largest distance first) share one build and one solve,
and the best candidate is kept, never worse than the pair-greedy baseline.
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
    SubmodularSpec,
    as_value_oracle,
    disp,
    disp_cross,
    dive,
    _guarded_argmax,
    validate_metric,
)
from . import dks

__all__ = [
    "PairInadmissible",
    "BallDecomposition",
    "build_dks_from_ball",
    "LemmaCheck",
    "check_structural_lemma",
    "DispersionResult",
    "qptas_dispersion",
    "greedy_dispersion",
    "brute_force_dispersion",
]


class PairInadmissible(Exception):
    """A (center, witness) pair cannot produce a candidate; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class BallDecomposition:
    """Geometry of one (center, witness) guess.

    nodes: sorted members of B(u, delta*), the density instance's ground set
    (local index = position).  forced: the ring B(u, delta*) minus B(u, delta),
    global ids.  outside: points beyond delta*, automatically included in the
    final selection.  k: how many of ``nodes`` the candidate must contain.
    """

    center: int
    witness: int
    delta: float
    delta_star: float
    nodes: tuple
    forced: tuple
    outside: tuple
    k: int


def build_dks_from_ball(
    inst: MetricInstance, p: int, u: int, v: int, epsilon: float
) -> tuple[DksInstance, BallDecomposition]:
    """Reduce one (u, v) guess to a forced-set density instance.

    Edge weights are min(1, 0.5 d(y,z) / delta*); inside the ball distances
    never exceed 2 delta*, so the clamp is inactive there and
    disp(J) = k (k-1) delta* den(J) holds exactly for size-k supersets of the
    forced ring.  Raises PairInadmissible when the guess cannot host a
    candidate: |outside B(u, delta)| >= p (else k - |ring| >= 1), or k < 2.
    """
    if u == v:
        raise PairInadmissible("identical-endpoints")
    d_u = inst.dist[u]
    delta = float(d_u[v])
    if delta <= 0.0:
        raise PairInadmissible("zero-delta")
    delta_star = 20.0 * delta / epsilon
    outside_core = int((d_u > delta).sum())
    if outside_core >= p:
        raise PairInadmissible("outside-core-holds-p")
    nodes = tuple(int(z) for z in np.nonzero(d_u <= delta_star)[0])
    outside = tuple(int(z) for z in np.nonzero(d_u > delta_star)[0])
    k = p - len(outside)
    ring = tuple(z for z in nodes if d_u[z] > delta)
    if k < 2:
        raise PairInadmissible("k-below-two")
    sub = inst.dist[np.ix_(nodes, nodes)]
    W = np.minimum(1.0, 0.5 * sub / delta_star)
    np.fill_diagonal(W, 0.0)
    local = {g: i for i, g in enumerate(nodes)}
    reduced = DksInstance(
        n=len(nodes),
        weights=W,
        forced=frozenset(local[g] for g in ring),
        k=k,
    )
    return reduced, BallDecomposition(u, v, delta, delta_star, nodes, ring, outside, k)


class _BallBonus:
    """The bonus over one ball's local indices, as the density solver sees it:
    h(C) = f(fixed | {nodes[i] : i in C}) / (k (k-1) delta*), where fixed
    holds the points outside the ball and the forced ring.

    Calling it evaluates f once per set.  When f is an unweighted coverage
    spec it is also ``batchable``: ``batch_value`` scores every 0/1 row of a
    local membership matrix in one product, with the bits of the call.
    """

    def __init__(self, f, ball: BallDecomposition):
        self.f = f
        self.oracle = as_value_oracle(f)
        self.fixed = frozenset(ball.outside) | frozenset(ball.forced)
        self.nodes = ball.nodes
        self.scale = ball.k * (ball.k - 1) * ball.delta_star
        self.batchable = isinstance(f, SubmodularSpec) and f.batchable

    def __call__(self, C) -> float:
        return self.oracle(self.fixed | frozenset(self.nodes[i] for i in C)) / self.scale

    def batch_value(self, M: np.ndarray) -> np.ndarray:
        rows = np.zeros((len(M), self.f.n))
        rows[:, list(self.nodes)] = M
        rows[:, list(self.fixed)] = 1.0
        return self.f.batch_value(rows) / self.scale


@dataclass(frozen=True)
class LemmaCheck:
    ratio: float
    center: int
    witness: int | None


def check_structural_lemma(inst: MetricInstance, p: int, Sopt) -> LemmaCheck:
    """Min over witnesses v of disp(S) / (p (p-1) d(u_min, v) / 16).

    u_min is the member of S with the smallest distance sum to S (ties to the
    lowest index).  On an optimal S the ratio is provably >= 1; witnesses at
    distance zero count as infinitely safe.
    """
    return _lemma_ratio(inst, int(p), Sopt, lambda S: disp(S, inst))


def _lemma_ratio(inst: MetricInstance, p: int, Sopt, objective) -> LemmaCheck:
    """Structural ratio with ``objective(S)`` as the numerator."""
    S = sorted(set(int(x) for x in Sopt))
    if S and not 0 <= S[0] <= S[-1] < inst.n:
        raise InstanceError(f"Sopt has points outside range({inst.n})")
    if len(S) != p or p < 2:
        raise InstanceError("Sopt must have exactly p >= 2 distinct points")
    if p == inst.n:
        raise InstanceError("no witness exists when p = n")
    u_min, best = S[0], math.inf
    for cand in S:
        val = disp_cross([cand], S, inst)
        if val < best:
            u_min, best = cand, val
    base = objective(S)
    ratio, witness = math.inf, None
    members = set(S)
    for v in range(inst.n):
        if v in members:
            continue
        denom = p * (p - 1) * inst.d(u_min, v) / 16.0
        r = math.inf if denom <= 0.0 else base / denom
        if r < ratio:
            ratio, witness = r, v
    return LemmaCheck(float(ratio), u_min, witness)


@dataclass
class DispersionResult:
    selection: tuple
    value: float
    origin: str
    diagnostics: dict = field(default_factory=dict)


def qptas_dispersion(
    inst: MetricInstance,
    p: int,
    epsilon: float,
    rng: RngState,
    *,
    inner_mode: str = "exact",
    enum_cap: int = dks.SubDksParams.enum_cap,
    inner_gamma: float | None = None,
    exact_budget: int = dks.SubDksParams.exact_budget,
) -> DispersionResult:
    """Ball-decomposition scheme for max-sum dispersion.

    Tries every ordered (center, witness) pair in descending-distance order,
    solves each distinct ball's reduced density instance once with additive
    accuracy 0.00005 epsilon^2 (overridable), lifts the team back, and
    returns the best candidate, or the pair-greedy baseline when that is
    strictly better or no pair is admissible.
    """
    sel, val, origin, diagnostics = _ball_scheme(
        inst, p, epsilon, rng, None, lambda: greedy_dispersion(inst, p), inner_gamma,
        mode=inner_mode, enum_cap=enum_cap, exact_budget=exact_budget,
    )
    return DispersionResult(sel, val, origin, diagnostics)


def _ball_scheme(
    inst: MetricInstance, p: int, epsilon: float, rng: RngState, f, greedy,
    inner_gamma: float | None, **inner,
) -> tuple[tuple, float, str, dict]:
    """The pair loop of both schemes: maximize disp + f (a SubmodularSpec or
    a value oracle; None means no bonus) against the ``greedy()`` baseline,
    passing ``inner`` (mode, enum_cap, exact_budget) to the density solver;
    returns (selection, value, origin, diagnostics).  A pair's gates and ball
    depend only on the points within delta* and within delta of u, so pairs
    are grouped by those two sets and each group is built once, at its last
    pair: the smallest delta*, where the additive error gamma' k (k-1) delta*
    is least.  Its first pair gives the stream, solve order and ``best_pair``."""
    if not 0.0 < epsilon < 1.0:
        raise InstanceError("epsilon must lie in (0, 1)")
    if not 2 <= p <= inst.n:
        raise InstanceError("need 2 <= p <= n")
    report = validate_metric(inst)
    if not report.ok:
        raise InstanceError(f"dist is not a metric: {report.message}")
    if f is None:
        key, value = "inner_epsilon", lambda sel: disp(sel, inst)
    else:
        key, value = "inner_gamma", lambda sel: dive(sel, inst, f)
    theory = 0.00005 * epsilon**2
    gamma = inner_gamma if inner_gamma is not None else theory
    params = dks.SubDksParams(gamma=gamma, **inner)  # checked even when p == n
    diagnostics: dict = {
        key: gamma,
        f"{key}_theory": theory,
        "inner_mode": inner["mode"],
        "theory_parameters": inner_gamma is None,
        "skip_reasons": {},
        "pairs_admissible": 0,
        "balls_solved": 0,
        "best_pair": None,
        "best_pair_index": None,
        "randomness_used": False,
    }
    if p == inst.n:
        sel = tuple(range(inst.n))
        diagnostics["pairs_total"] = 0
        return sel, value(sel), "trivial", diagnostics

    pairs = [(u, v) for u in range(inst.n) for v in range(inst.n) if u != v]
    pairs.sort(key=lambda uv: (-inst.dist[uv[0], uv[1]], uv[0], uv[1]))
    diagnostics["pairs_total"] = len(pairs)
    skips = diagnostics["skip_reasons"]
    groups: dict = {}  # (delta > 0, ball, core) -> (first pair index, last pair, pairs)
    for idx, (u, v) in enumerate(pairs):
        d_u, delta = inst.dist[u], float(inst.dist[u, v])
        key = (delta > 0, (d_u <= 20.0 * delta / epsilon).tobytes(), (d_u <= delta).tobytes())
        first, _, count = groups.get(key, (idx, None, 0))
        groups[key] = (first, (u, v), count + 1)
    best_sel, best_val, best_idx = None, -math.inf, None
    for idx, (u, v), count in groups.values():
        try:
            sub, ball = build_dks_from_ball(inst, p, u, v, epsilon)
        except PairInadmissible as skip:
            skips[skip.reason] = skips.get(skip.reason, 0) + count
            continue
        diagnostics["pairs_admissible"] += count
        diagnostics["balls_solved"] += 1
        bonus = None if f is None else _BallBonus(f, ball)
        res = dks.submodular_dks(sub, bonus, params, rng.child("pair", idx))
        diagnostics["randomness_used"] |= res.diagnostics["randomness_used"]
        sel = tuple(sorted(set(ball.outside) | {ball.nodes[i] for i in res.nodes}))
        val = value(sel)
        if val > best_val or (val == best_val and (best_sel is None or sel < best_sel)):
            best_val, best_sel, best_idx = val, sel, idx

    greedy_sel = greedy()
    greedy_val = value(greedy_sel)
    diagnostics["greedy_value"] = greedy_val
    if best_sel is None:
        diagnostics["fallback"] = "no-admissible-pair"
    if best_sel is None or greedy_val > best_val:
        return greedy_sel, greedy_val, "greedy", diagnostics
    diagnostics["best_pair"] = list(pairs[best_idx])
    diagnostics["best_pair_index"] = best_idx
    return best_sel, best_val, "ball-candidate", diagnostics


def greedy_dispersion(inst: MetricInstance, p: int) -> tuple:
    """Pair greedy: repeatedly take the farthest remaining pair; if one slot
    stays open, add the point with the largest distance sum to the chosen."""
    if not 0 <= p <= inst.n:
        raise InstanceError("need 0 <= p <= n")
    chosen: list[int] = []
    remaining = set(range(inst.n))
    while len(chosen) + 2 <= p:
        best_pair, best_d = None, -math.inf
        for i, j in combinations(sorted(remaining), 2):
            d = inst.dist[i, j]
            if d > best_d:
                best_pair, best_d = (i, j), d
        chosen.extend(best_pair)
        remaining.discard(best_pair[0])
        remaining.discard(best_pair[1])
    if len(chosen) < p:
        best_x, best_val = None, -math.inf
        for x in sorted(remaining):
            val = disp_cross([x], chosen, inst)
            if val > best_val:
                best_x, best_val = x, val
        chosen.append(best_x)
    return tuple(sorted(chosen))


def brute_force_dispersion(inst: MetricInstance, p: int, guard: int = BRUTE_GUARD):
    """Exact dispersion optimum by subset enumeration (lex-first tie-break)."""
    return _brute_force(inst, p, guard, lambda S: disp(S, inst))


def _brute_force(inst: MetricInstance, p: int, guard: int, objective):
    """Lex-first maximizer of ``objective`` over the p-subsets: (selection, value)."""
    if not 0 <= p <= inst.n:
        raise InstanceError("need 0 <= p <= n")
    count = math.comb(inst.n, p)
    return _guarded_argmax(combinations(range(inst.n), p), count, guard, objective, "subsets")
