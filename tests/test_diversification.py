"""Tests for the dispersion-plus-bonus solvers."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divopt.core import (
    GuardExceeded,
    InstanceError,
    MetricInstance,
    RngState,
    SubmodularSpec,
    disp,
    dive,
)
from divopt.dispersion import (
    PairInadmissible,
    _BallBonus,
    brute_force_dispersion,
    build_dks_from_ball,
    check_structural_lemma,
    greedy_dispersion,
    qptas_dispersion,
)
from divopt.diversification import (
    DiversificationInstance,
    DiversificationResult,
    brute_force_diversification,
    check_div_structural_lemma,
    diversify,
    greedy_diversification,
)
from divopt.generators import gen_random_euclidean, gen_random_metric, gen_submodular


def zero_bonus(n: int) -> SubmodularSpec:
    return SubmodularSpec(kind="modular", weights=tuple(0.0 for _ in range(n)))


def line_metric(points) -> MetricInstance:
    arr = np.array(points, dtype=float)
    dist = np.abs(arr[:, None] - arr[None, :])
    return MetricInstance(n=len(points), dist=dist)


class TestInstanceValidation:
    def test_ground_set_mismatch(self):
        inst = gen_random_euclidean(6, 2, seed=1)
        with pytest.raises(InstanceError):
            DiversificationInstance(inst, gen_submodular(5, "modular", seed=1), 3)

    def test_p_bounds(self):
        inst = gen_random_euclidean(6, 2, seed=1)
        f = zero_bonus(6)
        with pytest.raises(InstanceError):
            DiversificationInstance(inst, f, 0)
        with pytest.raises(InstanceError):
            DiversificationInstance(inst, f, 7)
        dinst = DiversificationInstance(inst, f, 1)
        with pytest.raises(InstanceError):
            diversify(dinst, 0.5, RngState(0))

    def test_epsilon_bounds(self):
        inst = gen_random_euclidean(6, 2, seed=1)
        dinst = DiversificationInstance(inst, zero_bonus(6), 3)
        with pytest.raises(InstanceError):
            diversify(dinst, 0.0, RngState(0))
        with pytest.raises(InstanceError):
            diversify(dinst, 1.0, RngState(0))


class TestZeroBonusEquivalence:
    def test_matches_dispersion_seed_for_seed(self):
        cases = [(gen_random_euclidean(8 + i % 3, 2, seed=900 + i), 3 + i % 3, i)
                 for i in range(5)]
        cases += [(gen_random_metric(8 + i % 3, seed=910 + i), 3 + i % 3, 10 + i)
                  for i in range(5)]
        for inst, p, seed in cases:
            dinst = DiversificationInstance(inst, zero_bonus(inst.n), p)
            a = diversify(dinst, 0.5, RngState(seed))
            b = qptas_dispersion(inst, p, 0.5, RngState(seed))
            assert a.selection == b.selection
            assert a.value == pytest.approx(b.value, rel=1e-12)
            assert a.f_value == 0.0
            assert a.disp_value == pytest.approx(b.value, rel=1e-12)

    def test_shared_loop_reports_the_same_run(self):
        cases = [(gen_random_euclidean(8 + i % 3, 2, seed=900 + i), 3 + i % 3, i)
                 for i in range(5)]
        cases += [(gen_random_metric(8 + i % 3, seed=910 + i), 3 + i % 3, 10 + i)
                  for i in range(5)]
        for inst, p, seed in cases:
            dinst = DiversificationInstance(inst, zero_bonus(inst.n), p)
            a = diversify(dinst, 0.5, RngState(seed))
            b = qptas_dispersion(inst, p, 0.5, RngState(seed))
            assert a.origin == b.origin
            for key in ("pairs_total", "pairs_admissible", "skip_reasons"):
                assert a.diagnostics[key] == b.diagnostics[key], key
            # The baselines differ (marginal greedy vs pair greedy); each is its own.
            assert a.diagnostics["greedy_value"] == disp(greedy_diversification(dinst), inst)
            assert b.diagnostics["greedy_value"] == disp(greedy_dispersion(inst, p), inst)


class TestDiversify:
    def coverage_case(self, seed: int, n: int = 9, p: int = 4):
        inst = gen_random_euclidean(n, 2, seed=seed)
        f = gen_submodular(n, "coverage", seed=seed + 1, universe=6)
        return DiversificationInstance(inst, f, p)

    def test_decomposition_and_consistency(self):
        dinst = self.coverage_case(920)
        res = diversify(dinst, 0.5, RngState(2))
        assert res.value == pytest.approx(res.disp_value + res.f_value)
        assert res.disp_value == pytest.approx(disp(res.selection, dinst.metric))
        assert res.f_value == pytest.approx(dinst.f.value(frozenset(res.selection)))
        assert res.value == pytest.approx(dive(res.selection, dinst.metric, dinst.f))
        assert len(res.selection) == dinst.p

    def test_never_below_greedy(self):
        for seed in range(8):
            dinst = self.coverage_case(930 + seed)
            res = diversify(dinst, 0.5, RngState(seed))
            assert res.value >= res.diagnostics["greedy_value"] - 1e-12

    def test_close_to_optimum_on_small_fixtures(self):
        for seed in range(8):
            dinst = self.coverage_case(940 + seed, n=8, p=3)
            res = diversify(dinst, 0.5, RngState(seed), inner_gamma=0.02)
            _, opt, _, _ = brute_force_diversification(dinst)
            assert res.value >= 0.75 * opt

    def test_deterministic(self):
        dinst = self.coverage_case(950)
        a = diversify(dinst, 0.3, RngState(7))
        b = diversify(dinst, 0.3, RngState(7))
        assert a.selection == b.selection and a.value == b.value

    def test_trivial_full_selection(self):
        inst = gen_random_euclidean(5, 2, seed=951)
        f = gen_submodular(5, "coverage", seed=952, universe=4)
        res = diversify(DiversificationInstance(inst, f, 5), 0.5, RngState(0))
        assert res.origin == "trivial"
        assert res.selection == (0, 1, 2, 3, 4)
        assert res.value == pytest.approx(res.disp_value + res.f_value)

    @pytest.mark.parametrize("bad", [
        {"inner_gamma": 5.0}, {"inner_mode": "bogus"}, {"enum_cap": 0},
    ], ids=["inner-gamma", "inner-mode", "enum-cap"])
    def test_inner_params_are_checked_when_p_is_n(self, bad):
        # p == n returns before the pair loop; the inner params are still checked.
        inst = gen_random_euclidean(5, 2, seed=951)
        f = gen_submodular(5, "coverage", seed=952, universe=4)
        with pytest.raises(InstanceError):
            diversify(DiversificationInstance(inst, f, 5), 0.5, RngState(0), **bad)

    def test_diagnostics_and_overrides(self):
        dinst = self.coverage_case(953)
        res = diversify(dinst, 0.3, RngState(0))
        d = res.diagnostics
        assert d["theory_parameters"] is True
        assert d["inner_gamma"] == pytest.approx(0.00005 * 0.09)
        assert d["inner_gamma"] == d["inner_gamma_theory"]
        over = diversify(dinst, 0.3, RngState(0), inner_gamma=0.02)
        assert over.diagnostics["theory_parameters"] is False
        assert over.diagnostics["inner_gamma"] == pytest.approx(0.02)


class TestStructuralLemma:
    def spike_dinst(self) -> DiversificationInstance:
        dist = np.full((4, 4), 5.0)
        dist[:3, :3] = 1.0
        np.fill_diagonal(dist, 0.0)
        inst = MetricInstance(n=4, dist=dist)
        f = SubmodularSpec(kind="modular", weights=(0.5, 0.5, 0.0, 0.0))
        return DiversificationInstance(inst, f, 2)

    def test_hand_case(self):
        dinst = self.spike_dinst()
        chk = check_div_structural_lemma(dinst, (0, 1))
        assert chk.center == 0
        assert chk.witness == 3
        # dive({0,1}) = 1 + 1 = 2 against denominator 2 * 5 / 16.
        assert chk.ratio == pytest.approx(3.2)

    def test_holds_on_brute_optima(self):
        for seed in range(8):
            inst = gen_random_euclidean(8, 2, seed=960 + seed)
            f = gen_submodular(8, "coverage", seed=seed, universe=5)
            dinst = DiversificationInstance(inst, f, 4)
            sel, _, _, _ = brute_force_diversification(dinst)
            chk = check_div_structural_lemma(dinst, sel)
            assert chk.ratio >= 1.0

    def test_zero_bonus_matches_dispersion_lemma(self):
        for seed in range(8):
            inst = gen_random_euclidean(8, 2, seed=960 + seed)
            sel, _ = brute_force_dispersion(inst, 4)
            dinst = DiversificationInstance(inst, zero_bonus(8), 4)
            assert check_div_structural_lemma(dinst, sel) == check_structural_lemma(inst, 4, sel)

    def test_validation(self):
        dinst = self.spike_dinst()
        with pytest.raises(InstanceError):
            check_div_structural_lemma(dinst, (0, 1, 2))
        full = DiversificationInstance(dinst.metric, dinst.f, 4)
        with pytest.raises(InstanceError):
            check_div_structural_lemma(full, (0, 1, 2, 3))


class TestGreedyAndBrute:
    def test_greedy_prefers_heavy_bonus_first(self):
        inst = line_metric([0.0, 1.0, 3.0, 10.0])
        f = SubmodularSpec(kind="modular", weights=(0.0, 100.0, 0.0, 0.0))
        dinst = DiversificationInstance(inst, f, 2)
        sel = greedy_diversification(dinst)
        assert 1 in sel
        # Second pick maximizes marginal f plus distance to node 1.
        assert sel == (1, 3)

    def test_greedy_zero_bonus_reduces_to_distance_sum(self):
        inst = line_metric([0.0, 1.0, 3.0, 10.0])
        dinst = DiversificationInstance(inst, zero_bonus(4), 2)
        assert greedy_diversification(dinst) == (0, 3)

    def test_brute_parts_sum(self):
        inst = gen_random_euclidean(7, 2, seed=970)
        f = gen_submodular(7, "coverage", seed=971, universe=5)
        dinst = DiversificationInstance(inst, f, 3)
        sel, val, d, fv = brute_force_diversification(dinst)
        assert val == pytest.approx(d + fv)
        best = max(
            disp(c, inst) + f.value(frozenset(c))
            for c in combinations(range(7), 3)
        )
        assert val == pytest.approx(best)

    def test_brute_guard(self):
        inst = gen_random_euclidean(30, 2, seed=972)
        dinst = DiversificationInstance(inst, zero_bonus(30), 15)
        with pytest.raises(GuardExceeded):
            brute_force_diversification(dinst, guard=1000)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    p=st.integers(2, 7),
    seed=st.integers(0, 10_000),
    metric=st.sampled_from(["euclidean", "metric"]),
    kind=st.sampled_from(["modular", "coverage"]),
    epsilon=st.sampled_from([0.3, 0.5, 0.9]),
)
def test_diversify_property(n, p, seed, metric, kind, epsilon):
    # p distinct points, never below the greedy baseline, and the same on a rerun.
    if metric == "euclidean":
        inst = gen_random_euclidean(n, 2, seed=seed)
    else:
        inst = gen_random_metric(n, seed=seed)
    f = gen_submodular(n, kind, seed=seed + 1, universe=5)
    dinst = DiversificationInstance(inst, f, min(p, n))
    a = diversify(dinst, epsilon, RngState(seed))
    assert len(set(a.selection)) == len(a.selection) == dinst.p
    assert set(a.selection) <= set(range(n))
    greedy = dive(greedy_diversification(dinst), inst, dinst.f)
    assert dive(a.selection, inst, dinst.f) >= greedy - 1e-12
    b = diversify(dinst, epsilon, RngState(seed))
    assert (b.selection, b.value, b.origin, b.diagnostics) == (
        a.selection, a.value, a.origin, a.diagnostics
    )


def c9_fixtures():
    """The criterion-9 fixtures: (instance, bonus, p) at epsilon 0.3."""
    for i in range(20):
        n = 7 + i % 3
        inst = gen_random_euclidean(n, 2, seed=800 + i)
        yield inst, gen_submodular(n, "coverage", seed=800 + i, universe=6), 3 + i % 2


def bits(x: float) -> str:
    return float(x).hex()


class TestBallBonus:
    def test_batch_equals_the_per_candidate_closure_on_c9(self):
        pairs = 0
        for inst, f, p in c9_fixtures():
            oracle = f.value
            for u, v in permutations(range(inst.n), 2):
                try:
                    sub, ball = build_dks_from_ball(inst, p, u, v, 0.3)
                except PairInadmissible:
                    continue
                pairs += 1
                fixed = frozenset(ball.outside) | frozenset(ball.forced)
                scale = ball.k * (ball.k - 1) * ball.delta_star

                def bonus(C):
                    return oracle(fixed | frozenset(ball.nodes[i] for i in C)) / scale

                # The forced ring alone, then every team the solver scores.
                forced = tuple(sorted(sub.forced))
                free = sorted(set(range(sub.n)) - sub.forced)
                teams = [forced] + [forced + c for c in combinations(free, sub.k - len(forced))]
                M = np.zeros((len(teams), sub.n))
                for row, T in enumerate(teams):
                    M[row, list(T)] = 1.0
                batched = _BallBonus(f, ball)
                assert batched.batchable
                want = [bits(bonus(T)) for T in teams]
                assert [bits(x) for x in batched.batch_value(M)] == want
                assert [bits(batched(T)) for T in teams] == want
        assert pairs > 100

    def test_c9_diversify_draws_no_random_number(self):
        for inst, f, p in c9_fixtures():
            res = diversify(DiversificationInstance(inst, f, p), 0.3, RngState(0),
                            inner_mode="exact", inner_gamma=0.02)
            assert res.diagnostics["randomness_used"] is False

    def test_plain_callable_bonus_is_scored_per_candidate(self, monkeypatch):
        batches = []
        real = SubmodularSpec.batch_value
        monkeypatch.setattr(SubmodularSpec, "batch_value",
                            lambda spec, M: batches.append(len(M)) or real(spec, M))
        for inst, f, p in list(c9_fixtures())[:6]:
            want = diversify(DiversificationInstance(inst, f, p), 0.3, RngState(0))
            assert batches
            batches.clear()
            calls = []
            plain = DiversificationInstance(inst, lambda S: calls.append(S) or f.value(S), p)
            got = diversify(plain, 0.3, RngState(0))
            assert batches == [] and calls
            assert got.selection == want.selection
            assert bits(got.value) == bits(want.value)
            assert bits(got.f_value) == bits(want.f_value)
            assert got.diagnostics == want.diagnostics

    def test_large_universe_is_scored_in_blocks(self, monkeypatch):
        # 200,000 items at n 10: the covers hold about 36,600 of them, so a
        # block of the batch holds 54 rows and a ball's candidates span
        # several blocks.
        g = np.random.default_rng(5)
        covers = tuple(frozenset(g.choice(200_000, size=4000, replace=False).tolist())
                       for _ in range(10))
        f = SubmodularSpec(kind="coverage", universe=200_000, covers=covers)
        rows = []
        real = SubmodularSpec.batch_value
        monkeypatch.setattr(SubmodularSpec, "batch_value",
                            lambda spec, M: rows.append(len(M)) or real(spec, M))
        inst = gen_random_euclidean(10, 2, seed=5)
        got = diversify(DiversificationInstance(inst, f, 3), 0.3, RngState(0), inner_gamma=0.02)
        assert max(rows) > 2_000_000 // f.incidence.shape[1]
        plain = DiversificationInstance(inst, lambda S: f.value(S), 3)
        want = diversify(plain, 0.3, RngState(0), inner_gamma=0.02)
        assert got.selection == want.selection
        assert bits(got.value) == bits(want.value)
        assert got.diagnostics == want.diagnostics
