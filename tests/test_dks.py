"""Tests for density helpers, the partition matroid step, and the DkS solvers."""

import itertools
import math
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divopt import dks
from divopt.core import (
    DksInstance,
    GuardExceeded,
    InstanceError,
    RngState,
    SubmodularSpec,
    as_value_oracle,
)
from divopt.dks import (
    DksResult,
    SubDksParams,
    brute_force_subdks,
    den,
    dks_additive,
    matroid_maximize,
    submodular_dks,
)
from divopt.generators import gen_planted_dks, gen_random_dks, gen_submodular


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
    at exactly the stated tolerances.  The solver applies this rule in
    batches (``_admit``); this one-pair form is the reference for tests.
    """
    owU, oiU = profile_vectors(U, inst)
    owQ, oiQ = profile_vectors(Q, inst)
    if float(np.abs(owU - owQ).max()) > 2.0 * gamma_prime:
        return False
    return abs(float(oiU @ owQ) - float(oiQ @ owQ)) <= 4.0 * gamma_prime


def tiny_instance() -> DksInstance:
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[0, 2] = w[2, 0] = 0.5
    return DksInstance(n=3, weights=w, forced=(), k=2)


class TestDensityHelpers:
    def test_den_hand_values(self):
        inst = tiny_instance()
        assert den((0, 1), inst) == pytest.approx(1.0)
        assert den((0, 2), inst) == pytest.approx(0.5)
        assert den((1, 2), inst) == pytest.approx(0.0)
        assert den((0, 1, 2), inst) == pytest.approx(1.5 / 3.0)

    def test_den_needs_two_nodes(self):
        inst = tiny_instance()
        with pytest.raises(InstanceError):
            den((0,), inst)
        with pytest.raises(InstanceError):
            den((), inst)

    def test_profile_vectors_hand(self):
        inst = tiny_instance()
        ow, oind = profile_vectors((0, 1), inst)
        assert ow == pytest.approx([0.5, 0.5, 0.25])
        assert oind == pytest.approx([0.5, 0.5, 0.0])
        with pytest.raises(InstanceError):
            profile_vectors((), inst)

    def test_candidate_admit_self_and_reference(self):
        # Compare against a direct restatement of the two conditions.
        inst = gen_random_dks(8, 4, seed=3)
        rng = RngState(12)
        subs = [
            tuple(sorted(rng.child(i).gen.choice(8, size=3, replace=False)))
            for i in range(12)
        ]
        for U in subs:
            assert candidate_admit(U, U, inst, 1e-12)
        for U in subs:
            for Q in subs:
                for gp in (0.001, 0.01, 0.05, 0.2):
                    owU, oiU = profile_vectors(U, inst)
                    owQ, oiQ = profile_vectors(Q, inst)
                    want = bool(
                        np.max(np.abs(owU - owQ)) <= 2.0 * gp
                        and abs(float(oiU @ owQ) - float(oiQ @ owQ)) <= 4.0 * gp
                    )
                    assert candidate_admit(U, Q, inst, gp) is want

    def test_candidate_admit_boundary_is_nonstrict(self):
        # Two isolated node pairs whose profiles differ by exactly 2 gamma'.
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 0.96
        inst = DksInstance(n=4, weights=w, forced=(), k=2)
        owU, _ = profile_vectors((0, 1), inst)
        owQ, _ = profile_vectors((2, 3), inst)
        gap = float(np.max(np.abs(owU - owQ)))
        assert candidate_admit((0, 1), (2, 3), inst, gap / 2.0)
        assert not candidate_admit((0, 1), (2, 3), inst, gap / 2.0 - 1e-9)


class TestMatroidMaximize:
    def modular(self, weights):
        def obj(sel):
            return float(sum(weights[c] for c in sel if c is not None))

        return obj

    def test_exact_matches_product_enumeration(self):
        rng = RngState(31)
        for trial in range(20):
            g = rng.child(trial).gen
            pools = []
            weights = {}
            for i in range(3):
                pool = []
                for j in range(int(g.integers(1, 4))):
                    cand = (i * 10 + j,)
                    weights[cand] = float(g.random())
                    pool.append(cand)
                pools.append(pool)
            obj = self.modular(weights)
            res = matroid_maximize(pools, obj, mode="exact")
            best = max(
                obj(combo) for combo in itertools.product(*pools)
            )
            assert res.value == pytest.approx(best)
            assert res.mode_used == "exact"
            assert not res.fell_back

    def test_greedy_half_bound_on_coverage(self):
        # Coverage objectives are monotone submodular, so greedy is a
        # half-approximation of the exact enumeration.
        rng = RngState(77)
        for trial in range(20):
            g = rng.child(trial).gen
            pools = []
            for i in range(3):
                pool = []
                for j in range(int(g.integers(1, 4))):
                    items = tuple(sorted(g.choice(10, size=3, replace=False)))
                    pool.append(items)
                pools.append(pool)

            def obj(sel):
                covered = set()
                for c in sel:
                    if c is not None:
                        covered.update(c)
                return float(len(covered))

            exact = matroid_maximize(pools, obj, mode="exact")
            greedy = matroid_maximize(pools, obj, mode="greedy")
            assert greedy.value >= 0.5 * exact.value - 1e-9
            assert greedy.value <= exact.value + 1e-9

    def test_budget_falls_back_to_greedy(self):
        pools = [[(1,), (2,)], [(3,), (4,)]]
        obj = self.modular({(1,): 1.0, (2,): 2.0, (3,): 3.0, (4,): 4.0})
        res = matroid_maximize(pools, obj, mode="exact", exact_budget=3)
        assert res.fell_back
        assert res.mode_used == "greedy"
        # Modular objective, so greedy still lands on the optimum here.
        assert res.value == pytest.approx(6.0)

    def test_tie_break_prefers_larger_secondary(self):
        pools = [[(0,), (1,)]]
        obj = lambda sel: 0.0
        tie = lambda sel: 1.0 if sel[0] == (1,) else 0.0
        res = matroid_maximize(pools, obj, mode="exact", tie_break=tie)
        assert res.chosen == ((1,),)
        res_g = matroid_maximize(pools, obj, mode="greedy", tie_break=tie)
        assert res_g.chosen == ((1,),)

    def test_empty_pools_and_bad_mode(self):
        res = matroid_maximize([[], []], lambda sel: 0.0, mode="exact")
        assert res.chosen == (None, None)
        with pytest.raises(InstanceError):
            matroid_maximize([], lambda sel: 0.0, mode="split")


def desk_params(**over) -> SubDksParams:
    base = dict(gamma=1.0, s=1, enum_cap=10**6, mode="exact")
    base.update(over)
    return SubDksParams(**base)


def reference_fast_path(inst: DksInstance, h, gamma: float):
    """Uncapped restatement of the one-cell anchored scan."""
    horacle = as_value_oracle(h)
    I = sorted(inst.forced)
    kp = inst.k - len(I)
    Vp = sorted(set(range(inst.n)) - set(I))
    gp = 0.01 * gamma
    hi_anchor = math.floor((1.0 + gp) * kp + 1e-9)

    def stats(members):
        T = tuple(sorted(set(I) | set(members)))
        hv = float(horacle(frozenset(T)))
        dv = den(T, inst) if len(T) >= 2 else 0.0
        return T, hv, dv

    cands = list(itertools.combinations(Vp, kp))
    cstats = [stats(c) for c in cands]
    best = None

    def consider(entry):
        nonlocal best
        T, hv, dv = entry
        val = hv + dv
        if best is None or val > best[0] or (val == best[0] and T < best[1]):
            best = (val, T, hv, dv)

    fallback = stats(Vp[:kp])
    missing = False
    for size in range(1, hi_anchor + 1):
        for Q in itertools.combinations(Vp, size):
            admitted = [
                i for i, c in enumerate(cands) if candidate_admit(c, Q, inst, gp)
            ]
            if not admitted:
                missing = True
                continue
            win = min(admitted, key=lambda i: (-cstats[i][1], -cstats[i][2], i))
            consider(cstats[win])
    if missing:
        consider(fallback)
    return best


class TestSubmodularDks:
    def test_planted_recovery(self):
        for seed in range(8):
            inst = gen_planted_dks(10, 4, seed=seed)
            res = submodular_dks(inst, None, desk_params(), RngState(seed))
            assert res.den_value == pytest.approx(1.0)
            assert res.nodes == tuple(inst.meta["planted"])
            assert res.diagnostics["fast_path"] is True

    def test_one_cell_density_matches_brute(self):
        for seed in range(10):
            inst = gen_random_dks(9, 4, seed=40 + seed, forced_count=seed % 2)
            res = dks_additive(inst, 1.0, RngState(seed), mode="exact", enum_cap=10**6, s=1)
            _, opt = brute_force_subdks(inst)
            assert res.value == pytest.approx(opt, abs=1e-9)
            assert set(inst.forced) <= set(res.nodes)
            assert len(res.nodes) == inst.k

    def test_fast_path_matches_reference(self):
        for seed in range(6):
            inst = gen_random_dks(7, 3, seed=60 + seed)
            h = gen_submodular(7, "coverage", seed=60 + seed, universe=6)
            res = submodular_dks(inst, h, desk_params(), RngState(seed))
            assert res.diagnostics["fast_path"] is True
            want = reference_fast_path(inst, h, 1.0)
            assert res.value == pytest.approx(want[0], abs=1e-12)
            assert res.nodes == want[1]
            assert res.h_value == pytest.approx(want[2])
            assert res.den_value == pytest.approx(want[3])

    def test_value_decomposition_and_size(self):
        inst = gen_random_dks(10, 5, seed=5, forced_count=2)
        h = gen_submodular(10, "coverage", seed=5, universe=8)
        res = submodular_dks(inst, h, desk_params(), RngState(0))
        assert res.value == pytest.approx(res.h_value + res.den_value)
        assert len(res.nodes) == 5
        assert set(inst.forced) <= set(res.nodes)
        assert res.h_value == pytest.approx(h.value(frozenset(res.nodes)))
        assert res.den_value == pytest.approx(den(res.nodes, inst))

    def test_forced_equal_k_is_trivial(self):
        inst = gen_random_dks(6, 3, seed=9)
        forced_inst = DksInstance(
            n=6, weights=inst.weights, forced=(1, 3, 5), k=3
        )
        res = submodular_dks(forced_inst, None, desk_params(), RngState(0))
        assert res.nodes == (1, 3, 5)
        assert res.diagnostics.get("trivial") is True

    def test_multi_cell_invariants(self):
        # Force two cells with an explicit per-cell size target.
        for seed in range(5):
            inst = gen_random_dks(10, 4, seed=80 + seed)
            params = SubDksParams(
                gamma=1.0, s=2, t=2.0, enum_cap=10**5, mode="exact"
            )
            res = submodular_dks(inst, None, params, RngState(seed))
            assert res.diagnostics["fast_path"] is False
            assert res.diagnostics["s"] == 2
            assert len(res.nodes) == 4
            assert res.value == pytest.approx(den(res.nodes, inst))
            again = submodular_dks(inst, None, params, RngState(seed))
            assert again.nodes == res.nodes

    @staticmethod
    def solve_uniform(s: int, t: float | None, seed: int) -> DksResult:
        """Every pair weighs 0.01 (n = 8, k = 4), so every anchor admits
        every candidate; checks the team, its value and a same-seed rerun."""
        n = 8
        w = np.full((n, n), 0.01)
        np.fill_diagonal(w, 0.0)
        inst = DksInstance(n=n, weights=w, forced=(), k=4)
        params = SubDksParams(gamma=1.0, s=s, t=t, mode="exact")
        res = submodular_dks(inst, None, params, RngState(seed))
        assert len(set(res.nodes)) == 4 and set(res.nodes) <= set(range(n))
        assert res.nodes == tuple(sorted(res.nodes))
        assert res.value == den(res.nodes, inst)
        again = submodular_dks(inst, None, params, RngState(seed))
        assert (again.nodes, again.value) == (res.nodes, res.value)
        assert again.diagnostics == res.diagnostics
        return res

    def test_multi_cell_overfull_team_is_cut_by_seeded_permutation(self):
        # Seed 3 puts four nodes in each cell; each cell adds a 3-subset, so
        # every anchor's union of six is cut to k' = 4 by the repair stream.
        diag = self.solve_uniform(2, 3.0, 3).diagnostics
        assert diag["candidates_per_part"] == [4, 4]
        assert diag["anchors_used"] == 8 + 28 + 56
        assert diag["repairs"] == diag["anchors_used"]

    def test_multi_cell_exact_size_team_is_kept(self):
        # Each cell adds a 2-subset, so every anchor's union has exactly k'.
        diag = self.solve_uniform(2, 2.0, 3).diagnostics
        assert diag["candidates_per_part"] == [6, 6]
        assert diag["anchors_used"] == 8 + 28
        assert diag["repairs"] == 0

    def test_nonpositive_t_is_rejected(self):
        # s = 5 gives t = 0.8, whose window is [floor t, ceil t] clamped to
        # [1, 1]; an explicit t <= 0 would leave the window [1, ceil t] empty,
        # with no anchor to scan, so it is invalid input.
        assert self.solve_uniform(5, None, 3).diagnostics["size_window"] == (1, 1)
        for t in (0.0, -2.0):
            with pytest.raises(InstanceError, match="t must be finite and positive"):
                SubDksParams(gamma=1.0, s=5, t=t, mode="exact")

    def test_negative_exact_budget_is_rejected(self):
        inst = gen_random_dks(7, 3, seed=1)
        with pytest.raises(InstanceError, match="exact_budget must be non-negative"):
            dks_additive(inst, 1.0, RngState(0), mode="exact", s=2, t=1.5, exact_budget=-7)
        # A zero budget is valid: every exact enumeration falls back to greedy.
        res = dks_additive(inst, 1.0, RngState(0), mode="exact", s=2, t=1.5, exact_budget=0)
        assert res.diagnostics["matroid_fell_back"] is True

    def test_theory_cell_count_formula(self):
        inst = gen_random_dks(12, 6, seed=11)
        params = SubDksParams(gamma=1.0, enum_cap=10**4, mode="greedy")
        res = submodular_dks(inst, None, params, RngState(2))
        gp = 0.01
        want_s = max(1, math.floor(0.001 * gp * gp * 6 / math.log(12)))
        assert res.diagnostics["s"] == want_s
        assert res.diagnostics["gamma_prime"] == pytest.approx(gp)

    def test_params_validation(self):
        with pytest.raises(InstanceError):
            SubDksParams(gamma=0.0)
        with pytest.raises(InstanceError):
            SubDksParams(gamma=1.5)
        with pytest.raises(InstanceError):
            SubDksParams(gamma=0.5, mode="fastest")
        with pytest.raises(InstanceError):
            SubDksParams(gamma=0.5, s=0)
        with pytest.raises(InstanceError):
            SubDksParams(gamma=0.5, enum_cap=0)
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(InstanceError, match="t must be finite"):
                SubDksParams(gamma=0.5, t=t)

    def test_huge_t_enumerates_only_sizes_that_exist(self):
        # Every size window past the seven free nodes holds no candidate, and
        # every non-empty subset is an anchor.
        inst = gen_random_dks(7, 3, seed=3)
        runs = [submodular_dks(inst, None, SubDksParams(gamma=1.0, s=2, t=t), RngState(0))
                for t in (50.0, 1e6, 1e308)]
        for res in runs:
            assert res.nodes == runs[0].nodes
            assert bits(res.value) == bits(runs[0].value)
            assert res.diagnostics["candidates_per_part"] == [0, 0]
            assert res.diagnostics["anchors_total"] == 2**7 - 1


class TestBruteForce:
    def test_matches_exhaustive_with_bonus(self):
        inst = gen_random_dks(7, 3, seed=21)
        h = gen_submodular(7, "coverage", seed=21, universe=5)
        T, val = brute_force_subdks(inst, h)
        best = max(
            h.value(frozenset(c)) + den(c, inst)
            for c in itertools.combinations(range(7), 3)
        )
        assert val == pytest.approx(best)
        assert val == pytest.approx(h.value(frozenset(T)) + den(T, inst))

    def test_guard(self):
        inst = gen_random_dks(12, 6, seed=2)
        with pytest.raises(GuardExceeded):
            brute_force_subdks(inst, guard=10)


def zero_bonus(S):
    return 0.0


def direct_fixtures():
    """(label, instance, gamma) cases spanning the no-bonus one-cell solve,
    including gammas too small for the top candidate's shortcut."""
    cases = []
    for seed in range(8):
        n, k = 6 + seed % 5, 2 + seed % 4
        for gamma in (1.0, 0.02, 1e-15, 1e-16):
            cases.append((f"random-{seed}-{gamma}", gen_random_dks(n, k, seed=300 + seed), gamma))
    for seed in range(6):
        inst = gen_random_dks(9, 5, seed=320 + seed, forced_count=1 + seed % 3)
        cases.append((f"forced-{seed}", inst, (1.0, 0.02)[seed % 2]))
    for seed in range(5):
        forced = seed % 3
        inst = gen_random_dks(8, forced + 1, seed=340 + seed, forced_count=forced)
        cases.append((f"k1-{seed}", inst, (1.0, 0.02)[seed % 2]))
    for seed in range(5):
        inst = gen_planted_dks(10, 4, seed=360 + seed)
        cases.append((f"planted-{seed}", inst, (1.0, 0.02)[seed % 2]))
    return cases


def bits(x: float) -> str:
    return float(x).hex()


def near_duplicate_instance(n: int, k: int, seed: int) -> DksInstance:
    """Tiny weights, as a ball of nearly coincident points gives: every
    singleton anchor admits some candidate."""
    g = np.random.default_rng(seed)
    w = np.triu(g.random((n, n)) * 1e-3, 1)
    return DksInstance(n=n, weights=w + w.T, forced=(), k=k)


class TestDirectArgmax:
    """The no-bonus one-cell solve, held to the anchored tensor scan."""

    @pytest.mark.parametrize(
        "inst, gamma",
        [pytest.param(inst, gamma, id=label) for label, inst, gamma in direct_fixtures()],
    )
    def test_matches_anchored_scan_bit_for_bit(self, inst, gamma):
        params = desk_params(gamma=gamma)
        direct = submodular_dks(inst, None, params, RngState(1))
        scan, _ = tensor_scan(inst, None, params)
        assert direct.nodes == scan.nodes
        assert bits(direct.value) == bits(scan.value)
        assert bits(direct.den_value) == bits(scan.den_value)
        assert bits(direct.h_value) == bits(scan.h_value)
        assert direct.diagnostics == scan.diagnostics

    def test_anchor_count_at_and_over_the_cap(self):
        inst = gen_random_dks(6, 3, seed=7)
        count = 6 + 15 + 20  # anchors of sizes 1..3 over six free nodes
        at_cap = submodular_dks(inst, None, desk_params(enum_cap=count), RngState(0))
        assert at_cap.diagnostics["anchors_total"] == count
        assert at_cap.diagnostics["anchors_used"] == count
        assert at_cap.diagnostics["anchor_cap_hit"] is False
        over = submodular_dks(inst, None, desk_params(enum_cap=count - 1), RngState(0))
        assert over.diagnostics["anchors_total"] == count
        assert over.diagnostics["anchors_used"] == count - 1
        assert over.diagnostics["anchor_cap_hit"] is True
        assert over.diagnostics["fast_path"] is True
        # Only the first 10 * enum_cap anchors are enumerated.
        far = submodular_dks(inst, None, desk_params(enum_cap=4), RngState(0))
        assert far.diagnostics["anchors_total"] == 40
        assert far.diagnostics["anchors_used"] == 4
        assert far.diagnostics["anchor_cap_hit"] is True
        for res, cap in ((at_cap, count), (over, count - 1), (far, 4)):
            want, _ = tensor_scan(inst, None, desk_params(enum_cap=cap))
            assert res.diagnostics == want.diagnostics

    def test_two_cells_use_the_anchored_scan(self):
        inst = gen_random_dks(8, 4, seed=12)
        params = SubDksParams(gamma=1.0, s=2, t=2.0, enum_cap=10**5, mode="exact")
        res = submodular_dks(inst, None, params, RngState(3))
        assert "direct_argmax" not in res.diagnostics
        assert res.diagnostics["anchors_used"] > 0

    def test_every_singleton_admitting_falls_back_to_the_scan(self):
        for seed in range(4):
            inst = near_duplicate_instance(7, 2 + seed % 3, seed)
            params = desk_params(gamma=1.0)
            res = submodular_dks(inst, None, params, RngState(0))
            scan = submodular_dks(inst, zero_bonus, params, RngState(0))
            assert "direct_argmax" not in res.diagnostics
            assert res.diagnostics["anchors_used"] == res.diagnostics["anchors_total"]
            assert res.nodes == scan.nodes
            assert bits(res.value) == bits(scan.value)
            assert res.diagnostics == scan.diagnostics


def first_subsets(nodes, lo: int, hi: int, cap: int):
    """The first ``cap`` subsets of sizes lo..hi in lexicographic order, and
    whether there were more."""
    subsets = [c for size in range(lo, hi + 1) for c in itertools.combinations(nodes, size)]
    return subsets[:cap], len(subsets) > cap


def scan_profiles(inst: DksInstance, subsets):
    """Mean weight profiles, membership profiles and team densities of the
    given free-node subsets, as the one-cell scan computes them."""
    I = sorted(inst.forced)
    W = inst.weights
    wI = float(W[np.ix_(I, I)].sum() / 2.0) if len(I) >= 2 else 0.0
    crossI = W[:, I].sum(axis=1) if I else np.zeros(inst.n)
    B = np.zeros((len(subsets), inst.n))
    for row, sub in enumerate(subsets):
        B[row, list(sub)] = 1.0
    sizes = B.sum(axis=1)
    BW = B @ W
    w_tot = wI + B @ crossI + (BW * B).sum(axis=1) / 2.0
    size_T = sizes + len(I)
    pairs = size_T * (size_T - 1) / 2.0
    dens = np.where(size_T >= 2, w_tot / np.maximum(pairs, 1.0), 0.0)
    return BW / sizes[:, None], B / sizes[:, None], dens


def tensor_scan(inst: DksInstance, h, params: SubDksParams):
    """The one-cell bonus scan as it stood before the candidate walk.

    It builds the full anchors x candidates x n admission tensor, takes each
    anchor's first admitted candidate in (h, density, index) order, keeps
    the best of those winners, and weighs the fallback team iff some anchor
    admits nothing.  Returns the DksResult and what the scan saw.
    """
    horacle = as_value_oracle(h)
    n, k = inst.n, inst.k
    I = sorted(inst.forced)
    kp = k - len(I)
    Vp = sorted(set(range(n)) - set(I))
    gp = 0.01 * params.gamma
    t = float(kp)
    lo = max(1, math.ceil((1.0 - gp) * t - 1e-9))
    hi = math.floor((1.0 + gp) * t + 1e-9)
    assert params.s == 1 and params.t is None and lo == hi == kp >= 1
    diag = {"k_prime": kp, "s": 1, "t": t, "gamma_prime": gp, "size_window": (lo, hi),
            "mode": params.mode, "randomness_used": False}
    cands, cand_cap_hit = first_subsets(Vp, lo, hi, params.enum_cap)
    diag.update(candidates_per_part=[len(cands)], candidate_cap_hit=cand_cap_hit)

    def team(members):
        T = tuple(sorted(set(I) | set(members)))
        dv = (den(T, inst) if len(T) >= 2 else 0.0) if k >= 2 else 0.0
        return T, float(horacle(frozenset(T))), dv

    anchors, anchor_cap_pre = first_subsets(Vp, 1, hi, 10 * params.enum_cap)
    aprof, amn, adens = scan_profiles(inst, anchors)
    aself = (amn * aprof).sum(axis=1)
    aorder = np.lexsort((np.arange(len(anchors)), -adens))
    diag["anchors_total"] = len(anchors)
    diag["anchor_cap_hit"] = len(aorder) > params.enum_cap or bool(anchor_cap_pre)
    aorder = aorder[: params.enum_cap]
    diag.update(anchors_used=len(aorder), fast_path=True, repairs=0)

    cprof, cmn, cdens = scan_profiles(inst, cands)
    ch = np.array([horacle(frozenset(set(I) | set(c))) for c in cands])
    corder = np.lexsort((np.arange(len(cands)), -cdens, -ch))
    cond9 = np.abs(cmn @ aprof.T - aself[None, :]) <= 4.0 * gp
    cheb = np.abs(cprof[None, :, :] - aprof[aorder, None, :]).max(axis=2) <= 2.0 * gp
    adm_ord = (cheb & cond9[:, aorder].T)[:, corder]
    has = adm_ord.any(axis=1)
    vals = ch + (cdens if k >= 2 else 0.0)
    fallback = team(Vp[:kp])
    seen = {"walk_first": int(np.lexsort((np.arange(len(cands)), -vals))[0]),
            "lonely": bool((~has).any()), "winner": None, "fallback_tied": False,
            "fallback_team": fallback[0], "fallback_value": fallback[1] + fallback[2]}
    entries = []
    if has.any():
        win = corder[adm_ord.argmax(axis=1)[has]]
        top = float(vals[win].max())
        w = int(min(win[vals[win] >= top]))
        seen["winner"] = w
        entries.append((tuple(sorted(set(I) | set(cands[w]))), float(ch[w]),
                        float(cdens[w]) if k >= 2 else 0.0))
        seen["fallback_tied"] = seen["lonely"] and fallback[1] + fallback[2] == top
    if seen["lonely"]:
        entries.append(fallback)
    best = None
    for T, hv, dv in entries:
        if best is None or hv + dv > best[0] or (hv + dv == best[0] and T < best[1]):
            best = (hv + dv, T, hv, dv)
    val, T, hv, dv = best
    return DksResult(T, val, hv, dv, diag), seen


def grid_case(seed: int):
    """Weights and a modular bonus on a dyadic grid, so team values tie exactly."""
    g = np.random.default_rng(seed)
    n, k = int(g.integers(4, 7)), int(g.integers(2, 4))
    step = (1 / 64, 1 / 32, 1 / 16)[seed % 3]
    w = np.triu((0.5 if seed % 2 else 0.0) + g.integers(0, 3, (n, n)) * step, 1)
    h = SubmodularSpec("modular", tuple(g.integers(0, 3, n) * step))
    return DksInstance(n=n, weights=w + w.T, forced=(), k=k), h


def tiny_modular(n: int, seed: int) -> SubmodularSpec:
    """A bonus smaller than the density gaps of near-duplicate weights."""
    return SubmodularSpec("modular", tuple(np.random.default_rng(seed).random(n) * 1e-4))


# scenario -> what the old scan must have seen on the fixture
SCENARIOS = {
    "any": lambda seen, res: True,
    "anchor-cap": lambda seen, res: res.diagnostics["anchor_cap_hit"],
    "all-lonely": lambda seen, res: seen["winner"] is None,
    "fallback-tie": lambda seen, res: seen["fallback_tied"] and seen["winner"] != 0,
    "not-first": lambda seen, res: seen["winner"] not in (None, seen["walk_first"]),
    "fallback-unweighed": lambda seen, res: not seen["lonely"]
    and seen["fallback_value"] > res.value,
    "fallback-wins": lambda seen, res: seen["winner"] not in (None, 0)
    and res.nodes == seen["fallback_team"],
}


def walk_fixtures():
    """(label, instance, bonus, params, scenario) cases for the candidate walk."""
    cases = []
    for seed in range(4):
        inst = gen_random_dks(9, 5, seed=320 + seed, forced_count=1 + seed % 3)
        h = gen_submodular(9, "coverage", seed=320 + seed, universe=6)
        cases.append((f"forced-{seed}", inst, h, desk_params(gamma=(1.0, 0.02)[seed % 2]), "any"))
    for seed in range(4):
        forced = seed % 3
        inst = gen_random_dks(8, forced + 1, seed=340 + seed, forced_count=forced)
        h = gen_submodular(8, ("modular", "coverage")[seed % 2], seed=340 + seed, universe=5)
        cases.append((f"k1-{seed}", inst, h, desk_params(gamma=(1.0, 0.02)[seed % 2]), "any"))
    for seed in range(3):
        # 92 anchors and 56 candidates over eight free nodes: only anchors are capped.
        inst = gen_random_dks(8, 3, seed=360 + seed)
        h = gen_submodular(8, "coverage", seed=360 + seed, universe=6)
        cases.append((f"anchor-cap-{seed}", inst, h, desk_params(enum_cap=60), "anchor-cap"))
    for seed in range(4):
        inst = near_duplicate_instance(7, 2 + seed % 3, seed)
        cases.append((f"near-duplicate-{seed}", inst, tiny_modular(7, seed),
                      desk_params(gamma=(1.0, 0.02)[seed % 2]), "any"))
    for seed in range(3):
        inst = gen_random_dks(8, 3, seed=380 + seed)
        h = gen_submodular(8, "coverage", seed=380 + seed, universe=6)
        cases.append((f"all-lonely-{seed}", inst, h, desk_params(gamma=0.02, enum_cap=1),
                      "all-lonely"))
    inst, h = grid_case(70)
    cases.append(("fallback-tie", inst, h, desk_params(), "fallback-tie"))
    inst, h = grid_case(730)
    cases.append(("fallback-tie-2", inst, h, desk_params(), "fallback-tie"))
    inst, h = grid_case(70)
    cases.append(("not-first-capped", inst, h, desk_params(enum_cap=7), "not-first"))
    inst = near_duplicate_instance(6, 3, 1)
    cases.append(("not-first-near-duplicate", inst, tiny_modular(6, 1), desk_params(gamma=0.02),
                  "not-first"))
    for seed, cap in ((22, 3), (51, 7)):
        # Capped scans whose lonely anchors all sit past the walk's winner.
        inst, h = grid_case(seed)
        cases.append((f"fallback-wins-{seed}", inst, h, desk_params(enum_cap=cap),
                      "fallback-wins"))
    for n in (6, 7):
        # The fallback team beats the winner, but every anchor admits a candidate.
        inst = near_duplicate_instance(n, 2, 1)
        cases.append((f"fallback-unweighed-{n}", inst, tiny_modular(n, 1), desk_params(),
                      "fallback-unweighed"))
    for seed, gamma, kind in itertools.product((301, 302), (1e-15, 1e-16), ("none", "coverage")):
        # Gammas below the shortcut's rounding bound: the walk decides.
        inst = gen_random_dks(7, 3, seed=seed)
        h = gen_submodular(7, "coverage", seed=seed, universe=6) if kind == "coverage" else None
        cases.append((f"tiny-gamma-{seed}-{gamma}-{kind}", inst, h, desk_params(gamma=gamma),
                      "any"))
    return cases


class TestCandidateWalk:
    @pytest.mark.parametrize(
        "inst, h, params, scenario",
        [pytest.param(*case[1:], id=case[0]) for case in walk_fixtures()],
    )
    def test_matches_tensor_scan_bit_for_bit(self, inst, h, params, scenario):
        want, seen = tensor_scan(inst, h, params)
        assert SCENARIOS[scenario](seen, want)
        got = submodular_dks(inst, h, params, RngState(1))
        assert got.nodes == want.nodes
        assert bits(got.value) == bits(want.value)
        assert bits(got.h_value) == bits(want.h_value)
        assert bits(got.den_value) == bits(want.den_value)
        assert got.diagnostics == want.diagnostics

    def test_fallback_tie_keeps_the_smaller_team(self):
        inst, h = grid_case(70)
        res = submodular_dks(inst, h, desk_params(), RngState(0))
        assert res.nodes == (0, 1)
        assert res.value == h.value({0, 1}) + den((0, 1), inst)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 7),
        k=st.integers(1, 4),
        forced=st.integers(0, 3),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["coverage", "modular"]),
        gamma=st.sampled_from([1.0, 0.3, 0.02]),
    )
    def test_matches_reference_property(self, n, k, forced, seed, kind, gamma):
        k = min(k, n)
        inst = gen_random_dks(n, k, seed=seed, forced_count=min(forced, k - 1))
        h = gen_submodular(n, kind, seed=seed, universe=5)
        res = submodular_dks(inst, h, desk_params(gamma=gamma), RngState(seed))
        want = reference_fast_path(inst, h, gamma)
        assert res.nodes == want[1]
        assert res.value == pytest.approx(want[0], abs=1e-12)
        assert res.h_value == pytest.approx(want[2])
        assert res.den_value == pytest.approx(want[3])


def bonus_kinds(n: int, seed: int):
    """An unweighted coverage bonus (scored in one batch), a weighted one and
    a modular one (both scored per candidate)."""
    cover = gen_submodular(n, "coverage", seed=seed, universe=6)
    weighted = SubmodularSpec("coverage", universe=6, covers=cover.covers,
                              uweights=tuple(np.random.default_rng(seed).random(6)))
    return {"coverage": cover, "weighted": weighted,
            "modular": gen_submodular(n, "modular", seed=seed)}


class TestBonusScoring:
    @pytest.mark.parametrize("kind", ["coverage", "weighted", "modular"])
    @pytest.mark.parametrize("n, k, forced, seed", [
        (7, 3, 0, 500), (8, 4, 1, 501), (9, 5, 2, 502), (8, 2, 1, 503),
    ])
    def test_matches_tensor_scan_bit_for_bit(self, monkeypatch, n, k, forced, seed, kind):
        batches = []
        real = SubmodularSpec.batch_value
        monkeypatch.setattr(SubmodularSpec, "batch_value",
                            lambda spec, M: batches.append(len(M)) or real(spec, M))
        inst = gen_random_dks(n, k, seed=seed, forced_count=forced)
        h = bonus_kinds(n, seed)[kind]
        params = desk_params(gamma=0.02)
        want, _ = tensor_scan(inst, h, params)
        got = submodular_dks(inst, h, params, RngState(1))
        assert batches == ([math.comb(n - forced, k - forced)] if kind == "coverage" else [])
        assert got.nodes == want.nodes
        assert bits(got.value) == bits(want.value)
        assert bits(got.h_value) == bits(want.h_value)
        assert bits(got.den_value) == bits(want.den_value)
        assert got.diagnostics == want.diagnostics

    def test_large_universe_is_scored_in_blocks(self):
        # 200,000 items at n 10: a block holds 54 rows and there are 126
        # candidates.
        g = np.random.default_rng(5)
        covers = tuple(frozenset(g.choice(200_000, size=4000, replace=False).tolist())
                       for _ in range(10))
        h = SubmodularSpec(kind="coverage", universe=200_000, covers=covers)
        assert 2_000_000 // h.incidence.shape[1] < math.comb(9, 4)
        inst = gen_random_dks(10, 5, seed=5, forced_count=1)
        got = submodular_dks(inst, h, desk_params(gamma=0.02), RngState(0))
        want = submodular_dks(inst, lambda S: h.value(S), desk_params(gamma=0.02), RngState(0))
        assert got.nodes == want.nodes
        assert bits(got.value) == bits(want.value)
        assert got.diagnostics == want.diagnostics


class TestShortcutBound:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        k=st.integers(1, 6),
        forced=st.integers(0, 3),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["random", "near-one", "near-duplicate"]),
    )
    def test_own_anchor_admits_every_candidate_above_the_bound(self, n, k, forced, seed, kind):
        # gamma' just above n 1e-14, the bound past which the top candidate
        # may win without an anchor scan.
        gp = math.nextafter(n * 1e-14, math.inf)
        g = np.random.default_rng(seed)
        w = {"random": g.random((n, n)), "near-one": 1.0 - g.random((n, n)) * 1e-6,
             "near-duplicate": g.random((n, n)) * 1e-3}[kind]
        w = np.triu(w, 1)
        k = min(k, n)
        inst = DksInstance(n=n, weights=w + w.T, forced=range(min(forced, k - 1)), k=k)
        Vp = sorted(set(range(n)) - inst.forced)
        kp = k - len(inst.forced)
        anchors, _ = first_subsets(Vp, 1, kp, 2**n)
        cands = list(itertools.combinations(Vp, kp))
        own = [anchors.index(c) for c in cands]
        aprof, amn, _ = scan_profiles(inst, anchors)
        cprof, cmn, _ = scan_profiles(inst, cands)
        aself = (amn * aprof).sum(axis=1)
        cond9 = np.abs(cmn @ aprof.T - aself[None, :]) <= 4.0 * gp
        # Rows of a max of absolute differences carry the full tensor's bits.
        cheb = np.abs(cprof - aprof[own]).max(axis=1) <= 2.0 * gp
        assert cheb.all()
        assert cond9[np.arange(len(cands)), own].all()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        k=st.integers(1, 6),
        forced=st.integers(0, 3),
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["random", "near-one", "near-duplicate"]),
    )
    def test_own_anchor_rejects_nothing_the_scan_admits(self, n, k, forced, seed, kind):
        # For sampled (candidate c, candidate d) pairs, gamma' is set to the
        # least value at which the full-product scan has anchor c admit d;
        # the shortcut's reading must not reject d there.
        g = np.random.default_rng(seed)
        w = {"random": g.random((n, n)), "near-one": 1.0 - g.random((n, n)) * 1e-6,
             "near-duplicate": g.random((n, n)) * 1e-3}[kind]
        w = np.triu(w, 1)
        k = min(k, n)
        inst = DksInstance(n=n, weights=w + w.T, forced=range(min(forced, k - 1)), k=k)
        Vp = sorted(set(range(n)) - inst.forced)
        kp = k - len(inst.forced)
        anchors, _ = first_subsets(Vp, 1, kp, 2**n)
        cands = list(itertools.combinations(Vp, kp))
        aprof, amn, _ = scan_profiles(inst, anchors)
        cprof, cmn, _ = scan_profiles(inst, cands)
        aself = (amn * aprof).sum(axis=1)
        mean_gap = np.abs(cmn @ aprof.T - aself[None, :])
        for c, d in zip(g.integers(0, len(cands), 40), g.integers(0, len(cands), 40)):
            a = anchors.index(cands[c])
            gp = max(np.abs(cprof[d] - aprof[a]).max() / 2.0, mean_gap[d, a] / 4.0)
            assert np.abs(cprof[d] - aprof[a]).max() <= 2.0 * gp
            assert mean_gap[d, a] <= 4.0 * gp
            assert not dks._own_anchor_stops_walk(cprof, cmn, int(c), np.array([d]), gp)

    def test_top_behind_the_bonus_leader_wins_without_a_walk(self, monkeypatch):
        walks = []
        real = dks._walk_winner
        monkeypatch.setattr(dks, "_walk_winner", lambda *a: walks.append(a) or real(*a))
        behind = 0
        for seed in range(400, 420):
            inst = gen_random_dks(8, 3, seed=seed)
            # A coverage bonus on the density's scale, as diversify's balls have.
            cover = gen_submodular(8, "coverage", seed=seed, universe=6)
            h = SubmodularSpec("coverage", universe=6, covers=cover.covers,
                               uweights=tuple(np.full(6, 0.05)))
            params = desk_params(gamma=0.02)
            cands = list(itertools.combinations(range(8), 3))
            _, _, cdens = scan_profiles(inst, cands)
            ch = np.array([h.value(c) for c in cands])
            leader = np.lexsort((np.arange(len(cands)), -cdens, -ch))[0]
            want, seen = tensor_scan(inst, h, params)
            if seen["walk_first"] == leader:
                continue
            behind += 1
            got = submodular_dks(inst, h, params, RngState(1))
            assert seen["winner"] == seen["walk_first"]
            assert got.nodes == want.nodes
            assert bits(got.value) == bits(want.value)
            assert got.diagnostics == want.diagnostics
        assert behind >= 3
        assert walks == []

    def test_rejects_only_past_the_slack(self):
        # Rows 0 (the top candidate) and 1 (one ahead of it) on four nodes,
        # where the slack is 4e-14.
        gp = 1 / 64
        for miss, rejected in ((2e-14, False), (8e-14, True)):
            far = np.array([[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5 + 2 * gp + miss]])
            same = np.full((2, 4), 0.25)
            assert dks._own_anchor_stops_walk(far, same, 0, np.array([1]), gp) is rejected
            prof = np.array([0.25, 0.25, 0.25 + 4 * gp + miss, 0.25 + 4 * gp + miss])
            halves = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
            off = np.vstack([prof, prof])
            assert dks._own_anchor_stops_walk(off, halves, 0, np.array([1]), gp) is rejected


def reference_multi_cell(inst: DksInstance, h, params: SubDksParams, seed: int) -> DksResult:
    """The multi-cell anchored scan restated with ``candidate_admit`` per
    (anchor, candidate) pair, and den() for every team."""
    horacle = as_value_oracle(h)
    I = sorted(inst.forced)
    kp = inst.k - len(I)
    Vp = sorted(set(range(inst.n)) - set(I))
    gp = 0.01 * params.gamma
    s = params.s
    t = float(params.t) if params.t is not None else kp / s
    lo = max(1, math.ceil((1.0 - gp) * t - 1e-9))
    hi = math.floor((1.0 + gp) * t + 1e-9)
    if lo > hi:
        lo, hi = max(1, math.floor(t)), math.ceil(t)
    rng = RngState(seed)
    draws = rng.gen.integers(0, s, size=len(Vp))
    cells = [[v for v, d in zip(Vp, draws) if d == i] for i in range(s)]
    part = [first_subsets(cell, lo, hi, params.enum_cap) for cell in cells]
    anchors, _ = first_subsets(Vp, 1, hi, 10 * params.enum_cap)
    _, _, adens = scan_profiles(inst, anchors)
    aorder = np.lexsort((np.arange(len(anchors)), -adens))[: params.enum_cap]
    n_anchors = sum(math.comb(len(Vp), r) for r in range(1, hi + 1))
    diag = {"k_prime": kp, "s": s, "t": t, "gamma_prime": gp, "size_window": (lo, hi),
            "mode": params.mode, "candidates_per_part": [len(c) for c, _ in part],
            "candidate_cap_hit": any(hit for _, hit in part),
            "anchors_total": min(n_anchors, 10 * params.enum_cap),
            "anchor_cap_hit": n_anchors > params.enum_cap,
            "anchors_used": min(n_anchors, params.enum_cap), "fast_path": False,
            "randomness_used": s > 1}

    def team(sel):
        return set(I) | set().union(*(set(c) for c in sel if c is not None))

    def team_den(T):
        return den(T, inst) if len(T) >= 2 else 0.0

    best, repairs, fell_back = None, 0, False
    for a in aorder:
        pools = [[c for c in cands if candidate_admit(c, anchors[a], inst, gp)]
                 for cands, _ in part]
        Z = []
        if any(pools):
            res = matroid_maximize(pools, lambda sel: horacle(frozenset(team(sel))), params.mode,
                                   lambda sel: team_den(team(sel)), params.exact_budget)
            fell_back = fell_back or res.fell_back
            Z = sorted(team(res.chosen) - set(I))
        repairs += 0 < len(Z) != kp
        if len(Z) > kp:
            perm = rng.child("repair", int(a)).gen.permutation(len(Z))
            Z = [Z[i] for i in perm[:kp]]
        Z = Z + [v for v in Vp if v not in Z][: kp - len(Z)]
        T = tuple(sorted(set(I) | set(Z)))
        hv, dv = float(horacle(frozenset(T))), team_den(T)
        if best is None or hv + dv > best[0] or (hv + dv == best[0] and T < best[1]):
            best = (hv + dv, T, hv, dv)
    diag.update(matroid_fell_back=fell_back, repairs=repairs)
    val, T, hv, dv = best
    return DksResult(T, val, hv, dv, diag)


def multi_cell_fixtures():
    """(label, instance, bonus, params, seed) cases with two or three cells.

    Weights of a few gamma' let some anchors admit blocks and others not; t
    is k' / s rounded up, so a team overfills, and the repair cuts it, when
    every cell picks a block, and is padded when some cell picks none."""
    cases = []
    for n, s, mode, bonus, scale in itertools.product(
        (9, 10, 12), (2, 3), ("greedy", "exact"), (False, True), (0.03, 0.1)
    ):
        seed = n + s
        w = np.triu(np.random.default_rng(seed).random((n, n)) * scale, 1)
        inst = DksInstance(n=n, weights=w + w.T, forced=range(seed % 3), k=n // 2 + 1)
        h = gen_submodular(n, "coverage", seed=seed, universe=8) if bonus else None
        params = SubDksParams(gamma=1.0, s=s, t=float(math.ceil((inst.k - seed % 3) / s)),
                              mode=mode)
        label = f"n{n}-s{s}-{mode}-{'bonus' if bonus else 'none'}-w{scale}"
        cases.append((label, inst, h, params, seed))
    return cases


class TestMultiCell:
    @pytest.mark.parametrize(
        "inst, h, params, seed",
        [pytest.param(*case[1:], id=case[0]) for case in multi_cell_fixtures()],
    )
    def test_matches_per_pair_reference_bit_for_bit(self, inst, h, params, seed):
        got = submodular_dks(inst, h, params, RngState(seed))
        want = reference_multi_cell(inst, h, params, seed)
        assert got.nodes == want.nodes
        assert bits(got.value) == bits(want.value)
        assert bits(got.h_value) == bits(want.h_value)
        assert bits(got.den_value) == bits(want.den_value)
        assert got.diagnostics == want.diagnostics

    def test_fixtures_cut_pad_and_keep_teams(self, monkeypatch):
        # The differential cases cut overfull teams (each cut draws one repair
        # stream), pad underfull ones and keep exact-size ones.
        cuts = []
        real = RngState.child
        monkeypatch.setattr(RngState, "child",
                            lambda rng, *keys: cuts.append(keys) or real(rng, *keys))
        repairs = [submodular_dks(inst, h, p, RngState(seed)).diagnostics["repairs"]
                   for _, inst, h, p, seed in multi_cell_fixtures()]
        assert cuts and all(keys[0] == "repair" for keys in cuts)
        assert 0 < len(cuts) < sum(repairs)
        assert 0 in repairs


class TestFallbackScoring:
    @pytest.mark.parametrize("n, k, forced, seed, bonus", [
        (6, 4, 1, 154, False),
        (5, 4, 1, 316, False),
        (8, 7, 0, 462, False),
        (5, 4, 2, 827, True),
    ])
    def test_first_team_winning_builds_no_anchor(self, monkeypatch, n, k, forced, seed, bonus):
        # The batch density of the first k' free nodes is a few ulps off den()
        # here; scored alike, the fallback team cannot beat itself as winner.
        builds = []
        real = dks._cond9
        monkeypatch.setattr(dks, "_cond9", lambda *a: builds.append(1) or real(*a))
        inst = gen_random_dks(n, k, seed=seed, forced_count=forced)
        h = gen_submodular(n, "coverage", seed=seed, universe=6) if bonus else None
        res = submodular_dks(inst, h, desk_params(gamma=0.02), RngState(0))
        free = sorted(set(range(n)) - inst.forced)
        assert res.nodes == tuple(sorted(inst.forced | set(free[: k - forced])))
        assert res.value == res.h_value + res.den_value
        assert res.den_value == pytest.approx(den(res.nodes, inst), rel=1e-14)
        assert builds == []
