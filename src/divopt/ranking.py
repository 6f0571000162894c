"""Coverage-aware DCG ranking: exact semantics, LP relaxation, and a PTAS.

A ranking instance asks for one permutation of range(n).  Each demand set S
with threshold k_S is "covered" at the first position t whose prefix holds
k_S members of S, and contributes gain(t) to the objective.  The LP
relaxation assigns elements fractionally to positions and pays gain(t) for
each set's coverage step at t, capped at 1 per set and bounded by a
knapsack-cover family that is separated on demand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, combinations, permutations
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    BRUTE_GUARD,
    GuardExceeded,
    InstanceError,
    RngState,
    SetSystemInstance,
    _guarded_argmax,
)
from .lp import Constraint, CutLoopResult, LinearProgram, solve_with_cuts

__all__ = [
    "GainFunction",
    "DCG_STANDARD",
    "Ranking",
    "RoundingParams",
    "cover_time",
    "dcg_value",
    "DcgLpLayout",
    "build_dcg_lp",
    "dcg_separation",
    "KnapsackCut",
    "DcgLpResult",
    "solve_dcg_lp",
    "round_lp",
    "ptas_dcg",
    "RankSolution",
    "brute_force_dcg",
]

SEP_TOL = 1e-9
MAX_CUT_ROUNDS = 80  # default cut-round budget of each relaxation solve
PREFIX_CAP = 100_000  # default bound on the prefixes ptas_dcg enumerates
VALUES_BLOCK = 4096  # orders _values scores at a time


@dataclass(frozen=True)
class GainFunction:
    """Non-increasing position gain with values in (0, 1].

    kind "dcg": gain(t) = 1 / log2(t + shift + 1), the usual DCG discount
    evaluated shift positions later (shift=0 gives 1/log2(t+1), so gain(1)=1).
    kind "constant": gain(t) = value everywhere.
    """

    kind: str = "dcg"
    shift: int = 0
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("dcg", "constant"):
            raise InstanceError(f"unknown gain kind {self.kind!r}")
        if self.kind == "constant" and not 0.0 < self.value <= 1.0:
            raise InstanceError("constant gain must lie in (0, 1]")
        if self.shift < 0:
            raise InstanceError("shift must be non-negative")

    def __call__(self, t) -> float:
        if self.kind == "constant":
            return self.value
        t = max(float(t), 1.0)
        return 1.0 / math.log2(t + self.shift + 1.0)

    def shifted(self, extra: int) -> "GainFunction":
        if self.kind == "constant":
            return self
        return GainFunction("dcg", self.shift + int(extra), self.value)


DCG_STANDARD = GainFunction("dcg")


def cover_time(order: Sequence[int], members: Iterable[int], k: int) -> int:
    """1-based position of the k-th appearance of ``members`` in ``order``."""
    members = frozenset(members)
    if not 1 <= k <= len(members):
        raise InstanceError(f"need 1 <= k <= |members|, got k={k}")
    seen = 0
    for pos, e in enumerate(order, start=1):
        if e in members:
            seen += 1
            if seen == k:
                return pos
    raise InstanceError("order does not contain k members of the set")


@dataclass(frozen=True)
class Ranking:
    order: tuple
    cover_times: tuple

    @classmethod
    def from_order(cls, order: Sequence[int], inst: SetSystemInstance) -> "Ranking":
        order = tuple(int(e) for e in order)
        if sorted(order) != list(range(inst.n)):
            raise InstanceError("order must be a permutation of range(n)")
        times = tuple(cover_time(order, S, k) for S, k in inst.sets)
        return cls(order, times)


def dcg_value(ranking, inst: SetSystemInstance, f: GainFunction) -> float:
    """Sum of gain(cover time) over the instance's demand sets."""
    if isinstance(ranking, Ranking):
        return float(sum(f(t) for t in ranking.cover_times))
    order = tuple(ranking)
    return float(sum(f(cover_time(order, S, k)) for S, k in inst.sets))


# ---------------------------------------------------------------------------
# LP relaxation


@dataclass(frozen=True)
class DcgLpLayout:
    """Variable layout: x[e,t] then the coverage steps d[s,t] = y[s,t] - y[s,t-1]
    (y[s,0] = 0), positions t stored 0-based; unpack returns x and y."""

    n: int
    m: int

    @property
    def n_vars(self) -> int:
        return self.n * self.n + self.m * self.n

    def x_index(self, e: int, t: int) -> int:
        return e * self.n + (t - 1)

    def d_index(self, s: int, t: int) -> int:
        return self.n * self.n + s * self.n + (t - 1)

    def tree_basis(self) -> list[int]:
        """Start basis for build_dcg_lp's equality rows: x[e,e] (value 1) for
        every e, then x[e,e+1] (value 0) for e < n - 1 (positions 0-based).

        These edges form the path slot 0, element 0, slot 1, ..., element n-1
        of the assignment graph, a spanning tree, so the basis inverse is
        integral.  With every cap and cut row's slack basic the point is
        x = I, d = 0, which meets every cap and every knapsack-cover row.
        """
        n = self.n
        diag = [self.x_index(e, e + 1) for e in range(n)]
        return diag + [self.x_index(e, e + 2) for e in range(n - 1)]

    def unpack(self, flat: np.ndarray):
        n, m = self.n, self.m
        x = np.asarray(flat[: n * n], dtype=float).reshape(n, n)
        d = np.asarray(flat[n * n :], dtype=float).reshape(m, n) if m else np.zeros((0, n))
        return x, np.cumsum(d, axis=1)


def build_dcg_lp(inst: SetSystemInstance, f: GainFunction):
    """Assignment LP that pays f(t) for each coverage step d[s,t].

    Rows: one equality per position, one per element but the last (the
    position rows and the element rows both sum to n, so the last element
    row is implied), and one ("cap", s) row sum_t d[s,t] <= 1 per set; no
    explicit bounds (x <= 1 follows from the equalities, and y, the prefix
    sums of d >= 0, is monotone and capped).  The knapsack-cover family is
    added lazily via dcg_separation.  ``layout.tree_basis()`` names a
    primal feasible start basis.
    """
    n, m = inst.n, inst.m
    layout = DcgLpLayout(n, m)
    nv = layout.n_vars
    obj = np.zeros(nv)
    obj[n * n :] = np.tile([f(t) for t in range(1, n + 1)], m)
    lp = LinearProgram(nv, obj)
    for t in range(1, n + 1):
        row = np.zeros(nv)
        row[t - 1 : n * n : n] = 1.0  # x[e, t] for every e
        lp.add_constraint(row, "==", 1.0, key=("slot", t))
    for e in range(n - 1):
        row = np.zeros(nv)
        row[e * n : (e + 1) * n] = 1.0  # x[e, t] for every t
        lp.add_constraint(row, "==", 1.0, key=("elem", e))
    for s in range(m):
        row = np.zeros(nv)
        row[layout.d_index(s, 1) : layout.d_index(s, n) + 1] = 1.0
        lp.add_constraint(row, "<=", 1.0, key=("cap", s))
    return lp, layout


@dataclass(frozen=True)
class KnapsackCut:
    """Violated cover constraint for (set_index, t) at witness subset A:
    sum over S - A of x[e,1..t] >= (k - |A|) * (d[s,1] + ... + d[s,t])."""

    set_index: int
    t: int
    A: tuple
    violation: float = 0.0

    def to_constraint(self, inst: SetSystemInstance, layout: DcgLpLayout) -> Constraint:
        members, k = inst.sets[self.set_index]
        coeffs = np.zeros(layout.n_vars)
        for e in members - set(self.A):
            coeffs[layout.x_index(e, 1) : layout.x_index(e, self.t) + 1] = 1.0
        s = self.set_index
        coeffs[layout.d_index(s, 1) : layout.d_index(s, self.t) + 1] = -(k - len(self.A))
        return Constraint(coeffs, ">=", 0.0, key=("kc", self.set_index, self.t, self.A))


def dcg_separation(x: np.ndarray, y: np.ndarray, inst: SetSystemInstance):
    """Find violated knapsack-cover constraints at the point (x, y).

    With z_e(t) = sum of x[e, t'] over prefix positions t' <= t, the family
    over all A subseteq S reduces to the single tightest witness
    A = {e in S : z_e(t) > y[s,t]}; (s, t) is violated exactly when
    sum_{e in S} min(z_e(t), y[s,t]) < k_S * y[s,t] - SEP_TOL.
    Each (set index, t) pair yields at most one cut.
    """
    n = inst.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float) if inst.m else np.zeros((0, n))
    z = np.cumsum(x, axis=1)
    cuts = []
    for s, (members, k) in enumerate(inst.sets):
        idx = sorted(members)
        zE = z[idx, :]
        Y = y[s]
        slack = np.minimum(zE, Y[None, :]).sum(axis=0) - k * Y
        for t0 in np.nonzero(slack < -SEP_TOL)[0]:
            A = tuple(e for li, e in enumerate(idx) if zE[li, t0] > Y[t0])
            cuts.append(KnapsackCut(s, int(t0) + 1, A, float(-slack[t0])))
    return cuts


@dataclass
class DcgLpResult:
    x: np.ndarray
    y: np.ndarray
    objective: float
    loop: CutLoopResult


def solve_dcg_lp(
    inst: SetSystemInstance, f: GainFunction, max_rounds: int = MAX_CUT_ROUNDS
) -> DcgLpResult:
    """Build the relaxation and run constraint generation to completion,
    from the tree basis, each later cut round warm (see solve_with_cuts)."""
    if max_rounds < 0:
        raise InstanceError("max_rounds must be non-negative")
    lp, layout = build_dcg_lp(inst, f)

    def oracle(flat):
        x, y = layout.unpack(flat)
        return [c.to_constraint(inst, layout) for c in dcg_separation(x, y, inst)]

    loop = solve_with_cuts(lp, oracle, max_rounds=max_rounds, start=layout.tree_basis())
    if loop.solution.status != "optimal":
        raise InstanceError(f"relaxation unexpectedly {loop.solution.status}")
    x, y = layout.unpack(loop.solution.x)
    return DcgLpResult(x, y, float(loop.solution.objective), loop)


# ---------------------------------------------------------------------------
# rounding


@dataclass(frozen=True)
class RoundingParams:
    gamma: float
    eta: float
    trials: int = 200

    def __post_init__(self):
        if not self.gamma > 0:
            raise InstanceError("gamma must be positive")
        if self.eta < 2.0 * self.gamma:
            raise InstanceError("need eta >= 2 * gamma")
        if self.trials < 1:
            raise InstanceError("trials must be a positive integer")


def _check_assignment(x: np.ndarray, n: int, tol: float = 1e-6):
    if x.shape != (n, n):
        raise InstanceError(f"x must be {n}x{n}")
    if x.min(initial=0.0) < -tol or x.max(initial=0.0) > 1.0 + tol:
        raise InstanceError("x entries must lie in [0, 1]")
    if np.abs(x.sum(axis=0) - 1.0).max(initial=0.0) > tol:
        raise InstanceError("each position must receive total mass 1")
    if np.abs(x.sum(axis=1) - 1.0).max(initial=0.0) > tol:
        raise InstanceError("each element must place total mass 1")


def _round_orders(
    xstar: np.ndarray,
    inst: SetSystemInstance,
    f: GainFunction,
    params: RoundingParams,
    rng: RngState,
    trials: int,
) -> np.ndarray:
    """Local orders of ``trials`` randomized rounding passes, as (trials, n).

    Phase i targets t_i = min(n, 2^i); element e joins the phase's block
    independently with probability min(1, z_{e,i} / (gamma * f(t_i))) where
    z_{e,i} is e's LP mass on the first t_i positions.  Blocks are
    concatenated (ascending index inside a block, repeats skipped) and any
    leftover elements are appended in ascending order, so each row is a full
    permutation: the elements sorted by (first joining phase, index).  All
    trials draw from ``rng`` in one call: trial t reads the t-th block of
    phases x n uniforms, phase by phase, so its draws depend neither on
    ``trials`` nor on anything drawn from other streams.
    """
    n = inst.n
    xstar = np.asarray(xstar, dtype=float)
    _check_assignment(xstar, n)
    phases = max(0, math.ceil(math.log2(n))) if n > 1 else 0
    targets = [min(n, 2**i) for i in range(1, phases + 1)]
    z = np.array([xstar[:, :t_i].sum(axis=1) for t_i in targets]).reshape(phases, n)
    p = np.minimum(1.0, z / (params.gamma * np.array([f(t_i) for t_i in targets]))[:, None])
    draws = rng.gen.random((trials, phases, n))
    # The always-true last row stands for "never joined"; it is also the only
    # row when n == 1 leaves no phases, so every element gets first phase 0.
    never = np.ones((trials, 1, n), dtype=bool)
    first = np.concatenate([draws < p, never], axis=1).argmax(axis=1)
    return np.argsort(first, axis=1, kind="stable")


def round_lp(
    xstar: np.ndarray,
    inst: SetSystemInstance,
    f: GainFunction,
    params: RoundingParams,
    rng: RngState,
) -> Ranking:
    """One randomized rounding pass over doubling prefixes (see _round_orders).

    Successive calls on one stream read its successive trial blocks, so they
    repeat, in order, the trials ``ptas_dcg`` draws from a prefix set's
    stream and shares among the set's orderings.
    """
    return Ranking.from_order(_round_orders(xstar, inst, f, params, rng, 1)[0], inst)


# ---------------------------------------------------------------------------
# PTAS driver


@dataclass
class RankSolution:
    ranking: Ranking
    value: float
    lp_bound: float | None
    diagnostics: dict = field(default_factory=dict)


def _values(
    orders: np.ndarray, sets: list, gains: np.ndarray, block: int = VALUES_BLOCK
) -> np.ndarray:
    """Gain of the sets each row of ``orders`` covers; ``gains[t-1]`` is f(t).

    Rows hold L <= n distinct elements, and a set counts when its k-th
    smallest member position is at most L; that position is its cover time.
    Gains add set by set from 0.0, the float sums of dcg_value.  Rows are
    scored ``block`` at a time, so temporary arrays stay a block's worth;
    each row's sum is the same whatever the block.
    """
    rows, length = orders.shape
    # Elements past the row sit at position L + 1, which reads gain 0.0.
    padded = np.append(gains[:length], 0.0)
    vals = np.zeros(rows)
    for lo in range(0, rows, block):
        part = orders[lo : lo + block]
        pos = np.full((len(part), len(gains)), length + 1)
        pos[np.arange(len(part))[:, None], part] = np.arange(1, length + 1)
        out = vals[lo : lo + block]
        for members, k in sets:
            out += padded[np.partition(pos[:, members], k - 1, axis=1)[:, k - 1] - 1]
    return vals


def ptas_dcg(
    inst: SetSystemInstance,
    epsilon: float,
    rng: RngState,
    *,
    u: int | None = None,
    gamma: float | None = None,
    eta: float | None = None,
    trials: int | None = None,
    prefix_cap: int = PREFIX_CAP,
    max_cut_rounds: int = MAX_CUT_ROUNDS,
    f: GainFunction = DCG_STANDARD,
) -> RankSolution:
    """Guess the element set of a short prefix, solve the residual LP, round,
    and keep the best ordering of the set followed by a rounded residual.

    Defaults derived from epsilon: eta = epsilon, gamma = eta / (6 ln(1/eta)),
    u = 2, trials = 200.  Small epsilon is the analyzed regime; larger values
    are accepted only together with explicit overrides.  The residual, its
    LP and its roundings depend only on which elements the prefix holds, so
    each u-element set (in ``combinations`` order) is solved and rounded
    once: it draws all its trials from one child stream, ``rng.child(set
    index)``, trial t reading the stream's t-th block, and every ordering of
    the set is scored in one batch against each distinct rounded tail once;
    ties go to the lexicographically smallest order.  ``best_prefix`` and
    ``best_trial`` name the winner (``best_trial`` is the first trial that
    drew its tail, or None when no rounding produced it), ``rounding_streams``
    counts the streams drawn, one per rounded set, and ``randomness_used``
    says whether there were any.  ``lp_solves`` and ``lp_pivots`` count the
    simplex solves and pivots of the residual relaxations.  Prefix length u
    shrinks until at most ``prefix_cap`` ordered prefixes remain; a cap below
    n, the count of one-element prefixes, raises GuardExceeded.  With u >= n
    the one set is the whole ground set: all n! orders are scored once (n! x
    n ints) and the mode is "exhaustive".
    """
    n = inst.n
    if not 0.0 < epsilon < 1.0:
        raise InstanceError("epsilon must lie in (0, 1)")
    overridden = any(v is not None for v in (u, gamma, eta, trials))
    if epsilon >= 0.1 and not overridden:
        raise InstanceError("epsilon >= 0.1 requires explicit parameter overrides")
    eta = epsilon if eta is None else float(eta)
    if not 0.0 < eta < 1.0:
        raise InstanceError("eta must lie in (0, 1)")
    gamma = eta / (6.0 * math.log(1.0 / eta)) if gamma is None else float(gamma)
    params = RoundingParams(gamma=gamma, eta=eta, trials=200 if trials is None else int(trials))
    u = 2 if u is None else int(u)
    if u < 1:
        raise InstanceError("u must be at least 1")
    if prefix_cap < 1:
        raise InstanceError("prefix_cap must be at least 1")
    if max_cut_rounds < 0:
        raise InstanceError("max_cut_rounds must be non-negative")

    u_eff = min(u, n)
    cap_hit = False
    while u_eff > 1 and math.perm(n, u_eff) > prefix_cap:
        u_eff -= 1
        cap_hit = True
    prefixes = math.perm(n, u_eff)
    if prefixes > prefix_cap:
        raise GuardExceeded(f"ptas_dcg refuses {n} one-element prefixes > prefix_cap {prefix_cap}")

    diagnostics = {
        "u_requested": u,
        "u_used": u_eff,
        "prefix_cap": prefix_cap,
        "prefix_cap_hit": cap_hit,
        "eta": eta,
        "gamma": gamma,
        "trials": params.trials,
        "u_theory_log10": (100.0 / epsilon) * math.log10(4.0 / epsilon),
        "cut_rounds": 0,
        "cut_clean": True,
        "prefixes": prefixes,
        "rounding_streams": 0,
        "randomness_used": False,
        "lp_solves": 0,
        "lp_pivots": 0,
    }

    best_order: tuple | None = None
    best_value = -math.inf
    lp_bound = -math.inf
    sets = [(np.array(sorted(members)), k) for members, k in inst.sets]
    gains = np.array([f(t) for t in range(1, n + 1)])
    res_gain = f.shifted(u_eff)
    n_heads = math.factorial(u_eff)
    for sidx, chosen in enumerate(combinations(range(n), u_eff)):
        held = set(chosen)
        heads = np.fromiter(
            chain.from_iterable(permutations(chosen)), dtype=int, count=n_heads * u_eff
        ).reshape(n_heads, u_eff)
        rest = [e for e in range(n) if e not in held]
        to_local = {e: i for i, e in enumerate(rest)}
        residual = tuple(
            (frozenset(to_local[e] for e in members - held), k - len(members & held))
            for members, k in inst.sets
            if len(members & held) < k
        )
        res_obj, local = 0.0, np.arange(len(rest))[None, :]  # unrounded: index order
        if residual:
            res_inst = SetSystemInstance(len(rest), residual)
            res = solve_dcg_lp(res_inst, res_gain, max_rounds=max_cut_rounds)
            diagnostics["cut_rounds"] += res.loop.rounds
            diagnostics["cut_clean"] = diagnostics["cut_clean"] and res.loop.clean
            diagnostics["lp_solves"] += res.loop.solves
            diagnostics["lp_pivots"] += res.loop.pivots
            res_obj = res.objective
            local = _round_orders(res.x, res_inst, res_gain, params, rng.child(sidx), params.trials)
            diagnostics["rounding_streams"] += 1
        # Distinct tails, sorted, each with its first trial.  The heads are
        # sorted too, so the first best row is the smallest best order.
        local, first = np.unique(local, axis=0, return_index=True)
        tails = np.array(rest, dtype=int)[local]
        orders = heads  # u = n: every tail is empty, so the heads are the orders
        if rest:
            orders = np.hstack([np.repeat(heads, len(tails), 0), np.tile(tails, (len(heads), 1))])
        vals = _values(orders, sets, gains)
        head_vals = _values(heads, sets, gains) if residual else vals  # else heads cover all
        lp_bound = max(lp_bound, float(head_vals.max()) + res_obj)
        row = int(vals.argmax())
        val, order = float(vals[row]), tuple(int(e) for e in orders[row])
        if val > best_value or (val == best_value and order < best_order):
            best_value, best_order = val, order
            diagnostics["best_prefix"] = list(order[:u_eff])
            diagnostics["best_trial"] = int(first[row % len(tails)]) if residual else None

    ranking = Ranking.from_order(best_order, inst)
    diagnostics["mode"] = "exhaustive" if u_eff == n else "prefix-lp-rounding"
    diagnostics["randomness_used"] = diagnostics["rounding_streams"] > 0
    return RankSolution(ranking, best_value, float(lp_bound), diagnostics)


def brute_force_dcg(
    inst: SetSystemInstance, f: GainFunction = DCG_STANDARD, guard: int = BRUTE_GUARD
):
    """Exact optimum by permutation enumeration; refuses more than ``guard`` orders."""
    count = math.factorial(inst.n) if inst.n <= 1000 else math.inf  # n! is slow past that
    objective = functools.partial(dcg_value, inst=inst, f=f)
    order, val = _guarded_argmax(permutations(range(inst.n)), count, guard, objective, "orders")
    return Ranking.from_order(order, inst), val
