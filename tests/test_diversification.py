"""Tests for the dispersion-plus-bonus solvers."""

import math
from itertools import combinations

import numpy as np
import pytest

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
    brute_force_dispersion,
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
