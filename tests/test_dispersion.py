"""Tests for the ball decomposition, structural ratio check, and dispersion solvers."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divopt.core import (
    GuardExceeded,
    InstanceError,
    MetricInstance,
    RngState,
    disp,
    validate_metric,
)
from divopt.dispersion import (
    BallDecomposition,
    PairInadmissible,
    brute_force_dispersion,
    build_dks_from_ball,
    check_structural_lemma,
    greedy_dispersion,
    qptas_dispersion,
)
from divopt import dispersion, dks
from divopt.diversification import DiversificationInstance, diversify
from divopt.dks import den
from divopt.generators import gen_random_euclidean, gen_random_metric, gen_submodular


def line_metric(points) -> MetricInstance:
    arr = np.array(points, dtype=float)
    dist = np.abs(arr[:, None] - arr[None, :])
    return MetricInstance(n=len(points), dist=dist)


class TestBallDecomposition:
    def test_hand_case(self):
        inst = line_metric([0.0, 1.0, 10.0])
        dks, ball = build_dks_from_ball(inst, 2, 0, 1, 0.5)
        assert ball.delta == pytest.approx(1.0)
        assert ball.delta_star == pytest.approx(40.0)
        assert ball.nodes == (0, 1, 2)
        assert ball.outside == ()
        assert ball.k == 2
        assert ball.forced == (2,)
        assert dks.n == 3 and dks.k == 2
        assert dks.forced == frozenset({2})
        assert dks.weights[0, 1] == pytest.approx(0.0125)
        assert dks.weights[0, 2] == pytest.approx(0.125)
        assert dks.weights[1, 2] == pytest.approx(0.1125)

    def test_outside_points_shrink_k(self):
        inst = line_metric([0.0, 1.0, 100.0, 200.0])
        dks, ball = build_dks_from_ball(inst, 4, 0, 1, 0.5)
        assert ball.outside == (2, 3)
        assert ball.k == 2
        assert ball.nodes == (0, 1)

    def test_identical_endpoints(self):
        inst = line_metric([0.0, 1.0, 2.0])
        with pytest.raises(PairInadmissible) as exc:
            build_dks_from_ball(inst, 2, 1, 1, 0.5)
        assert exc.value.reason == "identical-endpoints"

    def test_zero_delta(self):
        inst = line_metric([0.0, 0.0, 5.0])
        assert validate_metric(inst).ok
        with pytest.raises(PairInadmissible) as exc:
            build_dks_from_ball(inst, 2, 0, 1, 0.5)
        assert exc.value.reason == "zero-delta"

    def test_gate_outside_core_holds_p(self):
        inst = line_metric([0.0, 10.0, 11.0, 12.0])
        with pytest.raises(PairInadmissible) as exc:
            build_dks_from_ball(inst, 2, 0, 1, 0.5)
        assert exc.value.reason == "outside-core-holds-p"

    def test_k_below_two(self):
        inst = line_metric([0.0, 1.0, 100.0, 200.0])
        with pytest.raises(PairInadmissible) as exc:
            build_dks_from_ball(inst, 3, 0, 1, 0.5)
        assert exc.value.reason == "k-below-two"

    def test_identity_on_hand_instance(self):
        inst = line_metric([0.0, 1.0, 10.0])
        dks, ball = build_dks_from_ball(inst, 2, 0, 1, 0.5)
        scale = ball.k * (ball.k - 1) * ball.delta_star
        for J in combinations(range(dks.n), ball.k):
            if not dks.forced <= set(J):
                continue
            sel = tuple(ball.nodes[i] for i in J)
            assert disp(sel, inst) == pytest.approx(scale * den(J, dks))

    def test_identity_on_random_balls(self):
        # The clamp stays inactive inside the ball, making dispersion an
        # affine image of density for every candidate team.
        for seed in range(6):
            inst = gen_random_euclidean(9, 3, seed=700 + seed)
            picked = 0
            for u in range(inst.n):
                for v in range(inst.n):
                    if u == v:
                        continue
                    try:
                        dks, ball = build_dks_from_ball(inst, 4, u, v, 0.5)
                    except PairInadmissible:
                        continue
                    picked += 1
                    scale = ball.k * (ball.k - 1) * ball.delta_star
                    for J in combinations(range(dks.n), ball.k):
                        if not dks.forced <= set(J):
                            continue
                        sel = tuple(ball.nodes[i] for i in J)
                        assert disp(sel, inst) == pytest.approx(scale * den(J, dks))
                    if picked >= 3:
                        break
                if picked >= 3:
                    break
            assert picked > 0


class TestStructuralLemma:
    def spike_metric(self) -> MetricInstance:
        dist = np.full((4, 4), 5.0)
        dist[:3, :3] = 1.0
        np.fill_diagonal(dist, 0.0)
        return MetricInstance(n=4, dist=dist)

    def test_hand_case(self):
        inst = self.spike_metric()
        assert validate_metric(inst).ok
        chk = check_structural_lemma(inst, 2, (0, 1))
        assert chk.center == 0
        assert chk.witness == 3
        assert chk.ratio == pytest.approx(1.6)

    def test_suboptimal_selection_can_fail(self):
        inst = line_metric([0.0, 1.0, 2.0, 100.0])
        chk = check_structural_lemma(inst, 2, (0, 1))
        assert chk.ratio < 1.0
        assert chk.witness == 3

    def test_holds_on_brute_optima(self):
        for seed in range(10):
            inst = gen_random_euclidean(8, 2, seed=720 + seed)
            sel, _ = brute_force_dispersion(inst, 4)
            chk = check_structural_lemma(inst, 4, sel)
            assert chk.ratio >= 1.0

    def test_validation(self):
        inst = self.spike_metric()
        with pytest.raises(InstanceError):
            check_structural_lemma(inst, 2, (0, 1, 2))
        with pytest.raises(InstanceError):
            check_structural_lemma(inst, 1, (0,))
        with pytest.raises(InstanceError):
            check_structural_lemma(inst, 4, (0, 1, 2, 3))

    def test_zero_distance_witness_is_safe(self):
        inst = line_metric([0.0, 0.0, 1.0, 3.0])
        chk = check_structural_lemma(inst, 2, (0, 3))
        # The duplicate of the center contributes an infinite ratio, so the
        # binding witness must be another point.
        assert chk.witness in (1, 2)
        assert math.isfinite(chk.ratio)


class TestGreedy:
    def test_hand_case(self):
        inst = line_metric([0.0, 1.0, 3.0, 10.0])
        sel = greedy_dispersion(inst, 3)
        assert sel == (0, 1, 3)
        assert disp(sel, inst) == pytest.approx(20.0)

    def test_pair_only(self):
        inst = line_metric([0.0, 1.0, 3.0, 10.0])
        assert greedy_dispersion(inst, 2) == (0, 3)
        assert greedy_dispersion(inst, 0) == ()
        assert greedy_dispersion(inst, 1) in ((0,), (1,), (2,), (3,))

    def test_half_of_optimum(self):
        for seed in range(30):
            inst = gen_random_euclidean(8 + seed % 4, 2, seed=740 + seed)
            p = 3 + seed % 3
            sel = greedy_dispersion(inst, p)
            assert len(sel) == p
            _, opt = brute_force_dispersion(inst, p)
            assert disp(sel, inst) >= 0.5 * opt - 1e-9

    def test_validation(self):
        inst = line_metric([0.0, 1.0])
        with pytest.raises(InstanceError):
            greedy_dispersion(inst, 3)


class TestBrute:
    def test_lex_first_tie(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        inst = MetricInstance(n=4, dist=dist)
        sel, val = brute_force_dispersion(inst, 2)
        assert sel == (0, 2)
        assert val == pytest.approx(math.sqrt(2.0))

    def test_guard(self):
        inst = gen_random_euclidean(30, 2, seed=1)
        with pytest.raises(GuardExceeded):
            brute_force_dispersion(inst, 15, guard=1000)


class TestQptas:
    def test_deterministic(self):
        inst = gen_random_euclidean(9, 3, seed=760)
        a = qptas_dispersion(inst, 4, 0.5, RngState(3))
        b = qptas_dispersion(inst, 4, 0.5, RngState(3))
        assert a.selection == b.selection
        assert a.value == b.value

    def test_never_below_greedy(self):
        for seed in range(10):
            inst = gen_random_metric(9, seed=770 + seed)
            res = qptas_dispersion(inst, 4, 0.5, RngState(seed))
            assert res.value >= res.diagnostics["greedy_value"] - 1e-12
            assert len(res.selection) == 4

    def test_close_to_optimum_on_small_fixtures(self):
        for seed in range(10):
            inst = gen_random_euclidean(9, 2, seed=780 + seed)
            res = qptas_dispersion(inst, 4, 0.5, RngState(seed))
            _, opt = brute_force_dispersion(inst, 4)
            assert res.value >= 0.75 * opt

    def test_scale_equivariance(self):
        inst = gen_random_euclidean(8, 2, seed=790)
        scaled = MetricInstance(n=8, dist=inst.dist * 3.7)
        a = qptas_dispersion(inst, 4, 0.5, RngState(11))
        b = qptas_dispersion(scaled, 4, 0.5, RngState(11))
        assert a.selection == b.selection
        assert b.value == pytest.approx(3.7 * a.value, rel=1e-12)

    def test_trivial_full_selection(self):
        inst = gen_random_euclidean(5, 2, seed=791)
        res = qptas_dispersion(inst, 5, 0.5, RngState(0))
        assert res.origin == "trivial"
        assert res.selection == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("bad", [
        {"inner_gamma": 5.0}, {"inner_mode": "bogus"}, {"enum_cap": 0},
    ], ids=["inner-gamma", "inner-mode", "enum-cap"])
    def test_inner_params_are_checked_when_p_is_n(self, bad):
        # p == n returns before the pair loop; the inner params are still checked.
        inst = gen_random_euclidean(5, 2, seed=791)
        with pytest.raises(InstanceError):
            qptas_dispersion(inst, 5, 0.5, RngState(0), **bad)

    def test_diagnostics_and_overrides(self):
        inst = gen_random_euclidean(8, 2, seed=792)
        res = qptas_dispersion(inst, 3, 0.5, RngState(0))
        d = res.diagnostics
        assert d["theory_parameters"] is True
        assert d["inner_epsilon"] == pytest.approx(0.00005 * 0.25)
        assert d["inner_epsilon"] == d["inner_epsilon_theory"]
        assert d["pairs_total"] == 8 * 7
        assert d["pairs_admissible"] + sum(d["skip_reasons"].values()) == d["pairs_total"]
        over = qptas_dispersion(inst, 3, 0.5, RngState(0), inner_gamma=0.02)
        assert over.diagnostics["theory_parameters"] is False
        assert over.diagnostics["inner_epsilon"] == pytest.approx(0.02)
        assert over.diagnostics["inner_epsilon_theory"] == pytest.approx(0.00005 * 0.25)

    def test_validation(self):
        inst = gen_random_euclidean(6, 2, seed=793)
        with pytest.raises(InstanceError):
            qptas_dispersion(inst, 4, 0.0, RngState(0))
        with pytest.raises(InstanceError):
            qptas_dispersion(inst, 4, 1.0, RngState(0))
        with pytest.raises(InstanceError):
            qptas_dispersion(inst, 1, 0.5, RngState(0))
        with pytest.raises(InstanceError):
            qptas_dispersion(inst, 7, 0.5, RngState(0))

    def test_winning_pair_reproduces_the_selection(self):
        for seed in range(4):
            inst = gen_random_euclidean(8, 2, seed=794 + seed)
            res = qptas_dispersion(inst, 4, 0.5, RngState(seed))
            assert res.origin == "ball-candidate"
            u, v = res.diagnostics["best_pair"]
            idx = res.diagnostics["best_pair_index"]
            pairs = sorted(
                ((a, b) for a in range(8) for b in range(8) if a != b),
                key=lambda ab: (-inst.dist[ab], ab[0], ab[1]),
            )
            assert pairs[idx] == (u, v)
            sub, ball = build_dks_from_ball(inst, 4, u, v, 0.5)
            params = dks.SubDksParams(gamma=res.diagnostics["inner_epsilon"], mode="exact")
            inner = dks.submodular_dks(sub, None, params, RngState(seed).child("pair", idx))
            sel = tuple(sorted(set(ball.outside) | {ball.nodes[i] for i in inner.nodes}))
            assert sel == res.selection

    def test_winning_pair_is_none_without_a_ball_candidate(self):
        inst = MetricInstance(n=4, dist=np.zeros((4, 4)))
        res = qptas_dispersion(inst, 2, 0.5, RngState(0))
        assert res.origin == "greedy"
        assert res.diagnostics["fallback"] == "no-admissible-pair"
        assert res.diagnostics["best_pair"] is None
        assert res.diagnostics["best_pair_index"] is None


class TestOneSolvePerBall:
    """Both schemes build and solve each distinct ball (nodes, forced, k) once."""

    @staticmethod
    def fixtures():
        for seed in range(4):
            yield seed, gen_random_euclidean(9, 2, seed=830 + seed)
        pts = gen_random_euclidean(6, 2, seed=834).points[[0, 1, 2, 3, 4, 5, 0, 0, 3]]
        diff = pts[:, None, :] - pts[None, :, :]
        yield 4, MetricInstance(n=9, dist=np.sqrt((diff * diff).sum(axis=2)), points=pts)

    @staticmethod
    def solve(scheme, inst, p, seed, inner_gamma):
        if scheme == "dispersion":
            return qptas_dispersion(inst, p, 0.5, RngState(seed), inner_gamma=inner_gamma)
        f = gen_submodular(inst.n, "coverage", seed=seed, universe=2 * inst.n)
        dinst = DiversificationInstance(inst, f, p)
        return diversify(dinst, 0.5, RngState(seed), inner_gamma=inner_gamma)

    @pytest.mark.parametrize("inner_gamma", [None, 0.02, 0.3, 1.0])
    @pytest.mark.parametrize("scheme", ["dispersion", "diversify"])
    def test_each_ball_is_solved_once_at_its_smallest_delta_star(
        self, monkeypatch, scheme, inner_gamma
    ):
        solves = []
        real = dks.submodular_dks

        def spy(sub, bonus, params, rng):
            res = real(sub, bonus, params, rng)
            solves.append((sub, rng.seed, res.nodes))
            return res

        builds = []

        def build_spy(*args):
            try:
                out = build_dks_from_ball(*args)
            except PairInadmissible as skip:
                builds.append(skip.reason)
                raise
            builds.append(out)
            return out

        monkeypatch.setattr(dks, "submodular_dks", spy)
        monkeypatch.setattr(dispersion, "build_dks_from_ball", build_spy)
        for seed, inst in self.fixtures():
            p = 3 + seed % 3
            solves.clear()
            builds.clear()
            res = self.solve(scheme, inst, p, seed, inner_gamma)
            pairs = sorted(
                ((a, b) for a in range(9) for b in range(9) if a != b),
                key=lambda ab: (-inst.dist[ab], ab[0], ab[1]),
            )
            groups: dict = {}  # ball -> [(pair index, build, ball)] in pair order
            cuts, skips = set(), {}  # distinct (delta > 0, ball, core); per-pair skips
            for idx, (u, v) in enumerate(pairs):
                delta = inst.dist[u, v]
                ball_set = frozenset(np.flatnonzero(inst.dist[u] <= 20.0 * delta / 0.5))
                cuts.add((delta > 0, ball_set, frozenset(np.flatnonzero(inst.dist[u] <= delta))))
                try:
                    sub, ball = build_dks_from_ball(inst, p, u, v, 0.5)
                except PairInadmissible as skip:
                    skips[skip.reason] = skips.get(skip.reason, 0) + 1
                    continue
                groups.setdefault((ball.nodes, ball.forced, ball.k), []).append((idx, sub, ball))
            d = res.diagnostics
            assert len(builds) == len(cuts)
            assert sum(not isinstance(b, str) for b in builds) == d["balls_solved"]
            assert d["skip_reasons"] == skips
            assert d["pairs_admissible"] == sum(len(g) for g in groups.values())
            assert len(solves) == d["balls_solved"] == len(groups)
            assert d["balls_solved"] < d["pairs_admissible"]
            lifted = []
            for (sub, rng_seed, nodes), group in zip(solves, groups.values()):
                first, (_, smallest, ball) = group[0][0], group[-1]
                assert ball.delta_star == min(m[2].delta_star for m in group)
                assert np.array_equal(sub.weights, smallest.weights)
                assert (sub.forced, sub.k) == (smallest.forced, smallest.k)
                assert rng_seed == RngState(seed).child("pair", first).seed
                sel = tuple(sorted(set(ball.outside) | {ball.nodes[i] for i in nodes}))
                lifted.append((sel, first))
            assert res.origin == "ball-candidate"
            # Equal selections tie, and the earlier ball keeps the win.
            winner = next(first for sel, first in lifted if sel == res.selection)
            assert d["best_pair_index"] == winner
            assert d["best_pair"] == list(pairs[winner])


@st.composite
def euclidean_cases(draw):
    n = draw(st.integers(3, 9))
    dim = draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(0, 5), min_size=n * dim, max_size=n * dim))
    pts = np.array(coords, dtype=float).reshape(n, dim)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    p = draw(st.integers(2, n))
    epsilon = draw(st.sampled_from([0.25, 0.5, 0.9]))
    seed = draw(st.integers(0, 2**16))
    return MetricInstance(n=n, dist=dist, points=pts), p, epsilon, seed


class TestQptasProperties:
    @settings(max_examples=60, deadline=None)
    @given(euclidean_cases())
    def test_feasible_exact_value_between_greedy_and_optimum(self, case):
        inst, p, epsilon, seed = case
        res = qptas_dispersion(inst, p, epsilon, RngState(seed))
        assert len(res.selection) == p
        assert len(set(res.selection)) == p
        assert all(0 <= v < inst.n for v in res.selection)
        assert res.value == disp(res.selection, inst)
        assert res.value >= disp(greedy_dispersion(inst, p), inst)
        assert res.value <= brute_force_dispersion(inst, p)[1]
        again = qptas_dispersion(inst, p, epsilon, RngState(seed))
        assert (again.selection, again.value, again.origin) == (
            res.selection, res.value, res.origin
        )
        assert again.diagnostics == res.diagnostics


@st.composite
def symmetric_cases(draw):
    """Symmetric non-negative matrices with a zero diagonal, zero off-diagonal
    distances and triangle violations included."""
    n = draw(st.integers(2, 8))
    m = n * (n - 1) // 2
    dist = np.zeros((n, n))
    dist[np.triu_indices(n, 1)] = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    p = draw(st.integers(2, n))
    epsilon = draw(st.sampled_from([0.05, 0.3, 0.5, 0.9]))
    return MetricInstance(n=n, dist=dist + dist.T), p, epsilon


@settings(max_examples=200, deadline=None)
@given(symmetric_cases())
def test_admissible_ball_forces_fewer_than_k(case):
    """Past the outside-core gate, k - |ring| = p - |outside B(u, delta)| >= 1."""
    inst, p, epsilon = case
    for u in range(inst.n):
        for v in range(inst.n):
            try:
                sub, ball = build_dks_from_ball(inst, p, u, v, epsilon)
            except PairInadmissible:
                continue
            assert len(ball.forced) == len(sub.forced) < ball.k == sub.k
