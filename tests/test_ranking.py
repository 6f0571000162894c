"""Tests for the ranking LP, separation oracle, rounding, and the PTAS."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divopt.core import GuardExceeded, InstanceError, RngState, SetSystemInstance
from divopt.generators import gen_setsystem
from divopt import lp as lp_mod
from divopt.lp import Constraint, LinearProgram
from lp_reference import reference_cut_loop
from divopt.ranking import (
    DCG_STANDARD,
    _round_orders,
    _values,
    DcgLpLayout,
    GainFunction,
    KnapsackCut,
    Ranking,
    RoundingParams,
    brute_force_dcg,
    build_dcg_lp,
    cover_time,
    dcg_separation,
    dcg_value,
    ptas_dcg,
    round_lp,
    solve_dcg_lp,
)


def small_instance() -> SetSystemInstance:
    # S0 = {0, 1} with k = 2, S1 = {2} with k = 1.
    return SetSystemInstance(n=3, sets=(((0, 1), 2), ((2,), 1)))


class TestGainFunctions:
    def test_standard_values(self):
        assert DCG_STANDARD(1) == pytest.approx(1.0)
        assert DCG_STANDARD(3) == pytest.approx(0.5)
        assert DCG_STANDARD(7) == pytest.approx(1.0 / 3.0)

    def test_shifted(self):
        g = DCG_STANDARD.shifted(2.0)
        assert g(1) == pytest.approx(1.0 / math.log2(4.0))
        assert g(5) == pytest.approx(1.0 / 3.0)

    def test_constant(self):
        g = GainFunction(kind="constant", value=0.3)
        assert g(1) == g(400) == pytest.approx(0.3)

    def test_nonincreasing(self):
        vals = [DCG_STANDARD(t) for t in range(1, 30)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(InstanceError):
            GainFunction(kind="constant", value=0.0)
        with pytest.raises(InstanceError):
            GainFunction(kind="constant", value=1.5)
        with pytest.raises(InstanceError):
            GainFunction(kind="dcg", shift=-1.0)
        with pytest.raises(InstanceError):
            GainFunction(kind="nope")


class TestCoverTimeAndDcg:
    def test_cover_time_hand(self):
        order = (2, 0, 1)
        assert cover_time(order, (0, 1), 2) == 3
        assert cover_time(order, (0, 1), 1) == 2
        assert cover_time(order, (2,), 1) == 1

    def test_cover_time_errors(self):
        with pytest.raises(InstanceError):
            cover_time((0, 1), (0, 1), 3)
        with pytest.raises(InstanceError):
            cover_time((0, 1), (0, 1), 0)
        with pytest.raises(InstanceError):
            cover_time((0,), (0, 1), 2)

    def test_dcg_value_hand(self):
        inst = small_instance()
        r = Ranking.from_order((2, 0, 1), inst)
        # S0 covered at time 3, S1 at time 1.
        assert dcg_value(r, inst, DCG_STANDARD) == pytest.approx(1.5)
        r2 = Ranking.from_order((0, 1, 2), inst)
        # S0 at time 2, S1 at time 3.
        assert dcg_value(r2, inst, DCG_STANDARD) == pytest.approx(
            1.0 / math.log2(3.0) + 0.5
        )

    def test_ranking_validation(self):
        inst = small_instance()
        with pytest.raises(InstanceError):
            Ranking.from_order((0, 0, 1), inst)
        with pytest.raises(InstanceError):
            Ranking.from_order((0, 1), inst)
        with pytest.raises(InstanceError):
            Ranking.from_order((0, 3, 1), inst)


class TestLpConstruction:
    def test_layout_roundtrip(self):
        layout = DcgLpLayout(n=4, m=2)
        seen = set()
        for e in range(4):
            for t in range(1, 5):
                seen.add(layout.x_index(e, t))
        for s in range(2):
            for t in range(1, 5):
                seen.add(layout.d_index(s, t))
        assert seen == set(range(4 * 4 + 2 * 4))

    def test_row_inventory(self):
        inst = small_instance()
        lp, layout = build_dcg_lp(inst, DCG_STANDARD)
        assert lp.n_vars == 9 + 6
        keys = [row.key for row in lp.rows]
        assert keys.count(("slot", 1)) == 1
        assert sum(1 for k in keys if k[0] == "slot") == 3
        # The last element row is implied by the others and is left out.
        assert [k for k in keys if k[0] == "elem"] == [("elem", 0), ("elem", 1)]
        # One cap row sum_t d[s,t] <= 1 per set; no monotonicity rows and no
        # explicit bounds, since the coverage steps d are only bounded below.
        caps = [row for row in lp.rows if row.key[0] == "cap"]
        assert [row.key for row in caps] == [("cap", 0), ("cap", 1)]
        assert all((row.rel, row.rhs) == ("<=", 1.0) for row in caps)
        assert not any(k[0] == "mono" for k in keys)
        assert np.isinf(lp.upper).all()

    def test_objective_pays_gain_per_step(self):
        inst = small_instance()
        lp, layout = build_dcg_lp(inst, DCG_STANDARD)
        f = DCG_STANDARD
        for s in range(2):
            for t in range(1, 4):
                assert lp.objective[layout.d_index(s, t)] == f(t)
        assert not lp.objective[: 9].any()

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_per_element_restatement(self, seed):
        # Objective, assignment and cap rows and cover cuts, entry by entry, as the
        # layout's index helpers place them; bit-equal to the slices.
        inst = gen_setsystem(5, 4, 3, seed)
        f = GainFunction("dcg", shift=seed)
        lp, layout = build_dcg_lp(inst, f)
        n = inst.n
        obj = np.zeros(layout.n_vars)
        for s in range(inst.m):
            for t in range(1, n + 1):
                obj[layout.d_index(s, t)] = f(t)
        assert lp.objective.tobytes() == obj.tobytes()
        rows = {row.key: row.coeffs for row in lp.rows}
        for s in range(inst.m):
            want = np.zeros(layout.n_vars)
            for t in range(1, n + 1):
                want[layout.d_index(s, t)] = 1.0
            assert rows[("cap", s)].tobytes() == want.tobytes()
        for t in range(1, n + 1):
            want = np.zeros(layout.n_vars)
            for e in range(n):
                want[layout.x_index(e, t)] = 1.0
            assert rows[("slot", t)].tobytes() == want.tobytes()
        for e in range(n - 1):
            want = np.zeros(layout.n_vars)
            for t in range(1, n + 1):
                want[layout.x_index(e, t)] = 1.0
            assert rows[("elem", e)].tobytes() == want.tobytes()
        assert ("elem", n - 1) not in rows
        for s, (members, k) in enumerate(inst.sets):
            for t in range(1, n + 1):
                for size in range(k):
                    for A in itertools.combinations(sorted(members), size):
                        got = KnapsackCut(s, t, A).to_constraint(inst, layout)
                        want = np.zeros(layout.n_vars)
                        for e in sorted(members - set(A)):
                            for tp in range(1, t + 1):
                                want[layout.x_index(e, tp)] += 1.0
                        for tp in range(1, t + 1):
                            want[layout.d_index(s, tp)] = -(k - len(A))
                        assert got.coeffs.tobytes() == want.tobytes()
                        assert (got.rel, got.rhs, got.key) == (">=", 0.0, ("kc", s, t, A))

    def test_single_element_optimum(self):
        inst = SetSystemInstance(n=1, sets=(((0,), 1),))
        res = solve_dcg_lp(inst, DCG_STANDARD)
        assert res.objective == pytest.approx(1.0)


def integral_point(inst: SetSystemInstance, order: tuple) -> tuple:
    """Build the (x, y) vector pair of an actual ranking."""
    n = inst.n
    x = np.zeros((n, n))
    for t, e in enumerate(order, start=1):
        x[e, t - 1] = 1.0
    y = np.zeros((inst.m, n))
    for s, (members, k) in enumerate(inst.sets):
        ct = cover_time(order, members, k)
        y[s, ct - 1 :] = 1.0
    return x, y


class TestSeparation:
    def test_integral_points_are_cut_free(self):
        rng = RngState(5)
        for seed in range(8):
            inst = gen_setsystem(5, 3, 2, seed=seed)
            lp, layout = build_dcg_lp(inst, DCG_STANDARD)
            perm = tuple(int(v) for v in rng.child(seed).gen.permutation(5))
            x, y = integral_point(inst, perm)
            cuts = dcg_separation(x, y, inst, tol=1e-9)
            assert cuts == []
            d = np.diff(y, axis=1, prepend=0.0)
            point = np.concatenate([x.reshape(-1), d.reshape(-1)])
            value = float(lp.objective @ point)
            r = Ranking.from_order(perm, inst)
            assert value == pytest.approx(dcg_value(r, inst, DCG_STANDARD))

    def test_matches_exhaustive_subset_scan(self):
        # Any violated (s, t, A) found by brute enumeration must also be
        # caught by the vectorized oracle, with the same worst violation.
        rng = RngState(11)
        for seed in range(5):
            inst = gen_setsystem(5, 3, 2, seed=100 + seed)
            n = inst.n
            g = rng.child(seed).gen
            for trial in range(200):
                x = g.random((n, n))
                y = g.random((inst.m, n))
                cuts = dcg_separation(x, y, inst, tol=1e-9)
                got = {(c.set_index, c.t): c for c in cuts}
                z = np.cumsum(x, axis=1)
                for s, (members, k) in enumerate(inst.sets):
                    elems = sorted(members)
                    for t in range(1, n + 1):
                        def viol(a):
                            rest = sum(z[e, t - 1] for e in elems if e not in a)
                            return (k - len(a)) * y[s, t - 1] - rest

                        best = 0.0
                        for r in range(len(elems) + 1):
                            for a in itertools.combinations(elems, r):
                                best = max(best, viol(set(a)))
                        cut = got.get((s, t))
                        if best > 1e-9:
                            assert cut is not None
                            assert cut.violation == pytest.approx(best)
                            assert viol(set(cut.A)) == pytest.approx(best)
                        else:
                            assert cut is None

    def test_cut_constraint_shape(self):
        inst = small_instance()
        x = np.zeros((3, 3))
        y = np.ones((2, 3))
        cuts = dcg_separation(x, y, inst, tol=1e-9)
        assert cuts
        row = cuts[0].to_constraint(inst, DcgLpLayout(n=3, m=2))
        assert row.rel == ">="
        assert row.key[0] == "kc"


class TestLpRelaxation:
    def test_bounds_brute_optimum(self):
        for seed in range(20):
            inst = gen_setsystem(4 + seed % 3, 2 + seed % 3, 2, seed=200 + seed)
            res = solve_dcg_lp(inst, DCG_STANDARD)
            assert res.loop.clean
            _, opt = brute_force_dcg(inst)
            assert res.objective >= opt - 1e-6

    def test_monotone_y_rows(self):
        inst = gen_setsystem(6, 4, 2, seed=17)
        res = solve_dcg_lp(inst, DCG_STANDARD)
        diffs = np.diff(res.y, axis=1)
        assert (diffs >= -1e-7).all()


def telescoped_relaxation(inst: SetSystemInstance, f: GainFunction):
    """The relaxation over cumulative coverage y[s,t] (reference).

    Objective f(t) - f(t+1) on y[s,t] (f(n) at t = n), ("mono", s, t) rows
    y[s,t] >= y[s,t-1], bounds y <= 1, and cover cuts with -(k - |A|) on
    y[s,t] alone.  y[s,t] takes the flat index of d[s,t].  Returns the
    cold reference cut loop's last solution and whether it ended clean.
    """
    n, m = inst.n, inst.m
    layout = DcgLpLayout(n, m)
    nv = layout.n_vars
    obj = np.zeros(nv)
    obj[n * n :] = np.tile([f(t) - f(t + 1) for t in range(1, n)] + [f(n)], m)
    upper = np.full(nv, np.inf)
    upper[n * n :] = 1.0
    lp = LinearProgram(nv, obj, upper=upper)
    for t in range(1, n + 1):
        row = np.zeros(nv)
        row[t - 1 : n * n : n] = 1.0
        lp.add_constraint(row, "==", 1.0, key=("slot", t))
    for e in range(n):
        row = np.zeros(nv)
        row[e * n : (e + 1) * n] = 1.0
        lp.add_constraint(row, "==", 1.0, key=("elem", e))
    for s in range(m):
        for t in range(2, n + 1):
            row = np.zeros(nv)
            row[layout.d_index(s, t)] = 1.0
            row[layout.d_index(s, t - 1)] = -1.0
            lp.add_constraint(row, ">=", 0.0, key=("mono", s, t))

    def oracle(flat):
        cuts = []
        for c in dcg_separation(flat[: n * n].reshape(n, n), flat[n * n :].reshape(m, n), inst):
            members, k = inst.sets[c.set_index]
            coeffs = np.zeros(nv)
            for e in members - set(c.A):
                coeffs[layout.x_index(e, 1) : layout.x_index(e, c.t) + 1] = 1.0
            coeffs[layout.d_index(c.set_index, c.t)] = -(k - len(c.A))
            cuts.append(Constraint(coeffs, ">=", 0.0, key=("kc", c.set_index, c.t, c.A)))
        return cuts

    return reference_cut_loop(lp, oracle)


_GAINS = st.one_of(
    st.builds(lambda shift: GainFunction("dcg", shift=shift), st.integers(0, 2)),
    st.builds(lambda v: GainFunction("constant", value=v), st.sampled_from([0.25, 0.5, 1.0])),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(0, 5),
    kmax=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    f=_GAINS,
)
def test_coverage_steps_match_telescoped_relaxation(n, m, kmax, seed, f):
    # Same polytope, two coordinate systems: the optimum agrees, and the
    # prefix sums of the steps are monotone and end at most at 1, though
    # the LP has neither monotonicity rows nor y <= 1 bounds.
    inst = gen_setsystem(n, m, kmax, seed=seed)
    res = solve_dcg_lp(inst, f)
    ref, ref_clean = telescoped_relaxation(inst, f)
    assert res.loop.clean and ref_clean
    assert abs(res.objective - ref.objective) <= 1e-9
    assert (np.diff(res.y, axis=1) >= -1e-9).all()
    assert (res.y[:, -1] <= 1.0 + 1e-7).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(0, 5),
    kmax=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    f=_GAINS,
)
@example(n=1, m=0, kmax=1, seed=0, f=DCG_STANDARD)
@example(n=1, m=3, kmax=3, seed=1, f=DCG_STANDARD)
@example(n=6, m=0, kmax=2, seed=2, f=DCG_STANDARD)
def test_warm_cut_loop_matches_cold_loop(n, m, kmax, seed, f):
    # The tree basis is a feasible start: its basic values are x = I and
    # d = 0 with every cap slack at 1.  The warm loop (tree start, then the
    # dual simplex after each round) ends clean at the optimum of a cold
    # loop over the two-phase reference.
    inst = gen_setsystem(n, m, kmax, seed=seed)
    lp, layout = build_dcg_lp(inst, f)
    T, basis = lp_mod._start_tableau(lp, layout.tree_basis())
    point = np.zeros(lp.n_vars)
    structural = basis < lp.n_vars
    point[basis[structural]] = T[:-1, -1][structural]
    assert (T[:-1, -1] >= 0.0).all()
    x, y = layout.unpack(point)
    assert x.tobytes() == np.eye(n).tobytes()
    assert not y.any()
    res = solve_dcg_lp(inst, f)
    assert res.loop.clean

    def oracle(flat):
        xs, ys = layout.unpack(flat)
        return [c.to_constraint(inst, layout) for c in dcg_separation(xs, ys, inst)]

    cold, cold_clean = reference_cut_loop(lp, oracle, max_rounds=80)
    assert cold_clean
    assert abs(res.objective - cold.objective) <= 1e-9


def test_values_in_blocks_match_one_block():
    # Each row is scored on its own, so the block size moves no bit of any
    # value, nor the first argmax.  Whole orders and short prefixes alike.
    inst = gen_setsystem(7, 5, 3, seed=3)
    sets = [(np.array(sorted(members)), k) for members, k in inst.sets]
    gains = np.array([DCG_STANDARD(t) for t in range(1, 8)])
    perms = np.array(list(itertools.permutations(range(7))))
    for orders in (perms, perms[::6, :3]):
        whole = _values(orders, sets, gains, block=len(orders))
        for block in (1, 7, 1000, 4096):
            part = orders[:300] if block == 1 else orders
            got = _values(part, sets, gains, block=block)
            assert got.tobytes() == whole[: len(part)].tobytes()
            assert got.argmax() == whole[: len(part)].argmax()


class TestRounding:
    def test_outputs_valid_permutations(self):
        inst = gen_setsystem(6, 4, 2, seed=17)
        res = solve_dcg_lp(inst, DCG_STANDARD)
        params = RoundingParams(gamma=0.05, eta=0.1, trials=1)
        rng = RngState(3)
        for t in range(30):
            r = round_lp(res.x, res.y, inst, DCG_STANDARD, params, rng.child(t))
            assert sorted(r.order) == list(range(6))

    def test_deterministic_per_child(self):
        inst = gen_setsystem(6, 4, 2, seed=17)
        res = solve_dcg_lp(inst, DCG_STANDARD)
        params = RoundingParams(gamma=0.05, eta=0.1, trials=1)
        a = round_lp(res.x, res.y, inst, DCG_STANDARD, params, RngState(7).child(1))
        b = round_lp(res.x, res.y, inst, DCG_STANDARD, params, RngState(7).child(1))
        assert a.order == b.order

    def test_best_of_many_tracks_lp(self):
        inst = gen_setsystem(6, 4, 2, seed=17)
        res = solve_dcg_lp(inst, DCG_STANDARD)
        params = RoundingParams(gamma=0.05, eta=0.1, trials=1)
        rng = RngState(99)
        best = max(
            dcg_value(
                round_lp(res.x, res.y, inst, DCG_STANDARD, params, rng.child(t)),
                inst,
                DCG_STANDARD,
            )
            for t in range(100)
        )
        assert best >= 0.8 * res.objective

    def test_rejects_non_assignment(self):
        inst = small_instance()
        x = np.full((3, 3), 0.5)
        y = np.zeros((2, 3))
        params = RoundingParams(gamma=0.05, eta=0.1, trials=1)
        with pytest.raises(InstanceError):
            round_lp(x, y, inst, DCG_STANDARD, params, RngState(0))

    def test_params_validation(self):
        with pytest.raises(InstanceError):
            RoundingParams(gamma=0.0, eta=0.1, trials=1)
        with pytest.raises(InstanceError):
            RoundingParams(gamma=0.2, eta=0.1, trials=1)
        with pytest.raises(InstanceError):
            RoundingParams(gamma=0.05, eta=0.1, trials=0)


class TestPtas:
    def test_exhaustive_branch_matches_brute(self):
        for seed in range(6):
            inst = gen_setsystem(4, 3, 2, seed=300 + seed)
            res = ptas_dcg(inst, 0.3, RngState(seed), u=9, gamma=0.05, trials=5)
            assert res.diagnostics["mode"] == "exhaustive"
            ranking, opt = brute_force_dcg(inst)
            assert (res.value, res.ranking.order, res.lp_bound) == (opt, ranking.order, opt)

    def test_prefix_cap_reduces_u(self):
        inst = gen_setsystem(6, 3, 2, seed=41)
        res = ptas_dcg(
            inst, 0.3, RngState(0), u=3, gamma=0.05, trials=2, prefix_cap=25
        )
        # perm(6, 3) = 120 and perm(6, 2) = 30 both exceed the cap.
        assert res.diagnostics["u_requested"] == 3
        assert res.diagnostics["u_used"] == 1
        assert res.diagnostics["prefix_cap_hit"] is True

    def test_prefix_cap_below_n_is_refused(self):
        # Even one-element prefixes number n = 5; a cap below that is refused.
        inst = gen_setsystem(5, 3, 2, seed=41)
        with pytest.raises(GuardExceeded, match="prefix_cap 4"):
            ptas_dcg(inst, 0.3, RngState(0), u=2, gamma=0.05, trials=2, prefix_cap=4)
        res = ptas_dcg(inst, 0.3, RngState(0), u=2, gamma=0.05, trials=2, prefix_cap=5)
        assert res.diagnostics["u_used"] == 1
        assert res.diagnostics["prefixes"] == 5

    def test_outputs_are_permutations_and_deterministic(self):
        inst = gen_setsystem(6, 4, 2, seed=42)
        a = ptas_dcg(inst, 0.3, RngState(5), u=2, gamma=0.05, trials=20)
        b = ptas_dcg(inst, 0.3, RngState(5), u=2, gamma=0.05, trials=20)
        assert a.ranking.order == b.ranking.order
        assert a.value == b.value
        assert sorted(a.ranking.order) == list(range(6))
        assert a.value == pytest.approx(dcg_value(a.ranking, inst, DCG_STANDARD))

    def test_epsilon_guard(self):
        inst = small_instance()
        with pytest.raises(InstanceError):
            ptas_dcg(inst, 0.15, RngState(0))
        with pytest.raises(InstanceError):
            ptas_dcg(inst, 0.0, RngState(0))
        with pytest.raises(InstanceError):
            ptas_dcg(inst, 1.0, RngState(0))
        res = ptas_dcg(inst, 0.15, RngState(0), gamma=0.05)
        assert res.diagnostics["gamma"] == pytest.approx(0.05)

    def test_diagnostics_inventory(self):
        inst = gen_setsystem(5, 3, 2, seed=9)
        res = ptas_dcg(inst, 0.3, RngState(1), u=2, gamma=0.05, trials=5)
        d = res.diagnostics
        for key in (
            "u_requested",
            "u_used",
            "prefix_cap",
            "prefix_cap_hit",
            "eta",
            "gamma",
            "trials",
            "u_theory_log10",
            "cut_rounds",
            "cut_clean",
            "prefixes",
            "mode",
        ):
            assert key in d
        assert d["u_theory_log10"] == pytest.approx(
            (100.0 / 0.3) * math.log10(4.0 / 0.3)
        )


def loop_round(xstar, inst, f, params, rng):
    """Per-element rounding loop that _round_orders vectorizes (reference)."""
    n = inst.n
    phases = max(0, math.ceil(math.log2(n))) if n > 1 else 0
    placed = []
    for i in range(1, phases + 1):
        t_i = min(n, 2**i)
        p = np.minimum(1.0, xstar[:, :t_i].sum(axis=1) / (params.gamma * f(t_i)))
        draws = rng.gen.random(n)
        placed += [e for e in range(n) if draws[e] < p[e] and e not in placed]
    return tuple(placed + [e for e in range(n) if e not in placed])


def per_trial_ptas(inst, epsilon, rng, u, gamma, trials, f=DCG_STANDARD):
    """ptas_dcg as one round_lp + dcg_value pass per trial and ordering: the
    trials of a prefix set are drawn in turn from its stream rng.child(set
    index), and each is scored after every ordering of the set (reference).

    Returns (value, order, lp_bound, best prefix, best trial).
    """
    params = RoundingParams(gamma=gamma, eta=epsilon, trials=trials)
    res_gain = f.shifted(u)
    best = (-math.inf, None, None, None)
    lp_bound = -math.inf
    for sidx, chosen in enumerate(itertools.combinations(range(inst.n), u)):
        rest = [e for e in range(inst.n) if e not in chosen]
        residual = tuple(
            (frozenset(rest.index(e) for e in members if e in rest), k - len(members & set(chosen)))
            for members, k in inst.sets
            if len(members & set(chosen)) < k
        )
        if residual:
            res_inst = SetSystemInstance(len(rest), residual)
            res = solve_dcg_lp(res_inst, res_gain)
            res_obj, stream = res.objective, rng.child(sidx)
            tails = []
            for trial in range(trials):
                local = round_lp(res.x, res.y, res_inst, res_gain, params, stream)
                tails.append((trial, tuple(rest[i] for i in local.order)))
        else:
            res_obj, tails = 0.0, [(None, tuple(rest))]
        for prefix in itertools.permutations(chosen):
            fixed = 0.0
            for members, k in inst.sets:
                if len(members & set(prefix)) >= k:
                    fixed += f(cover_time(prefix, members, k))
            lp_bound = max(lp_bound, fixed + res_obj)
            for trial, tail in tails:
                order = prefix + tail
                val = dcg_value(order, inst, f)
                if val > best[0] or (val == best[0] and order < best[1]):
                    best = (val, order, list(prefix), trial)
    return best[0], best[1], lp_bound, best[2], best[3]


class TestBatchedTrials:
    # (n, m, kmax, seed, u, trials, gamma, eta); n - u == 1 leaves one-element
    # residuals.  Small gamma makes most join probabilities 1, so equal orders
    # repeat across trials.  In the last four cases trials differ: seed 893
    # is won by trial 2; at u = 2, seed 31 is won by trial 2 of its set, and
    # seed 3 by an order that one stream per ordered prefix would not draw.
    # In seed 89 two elements are in no set, so distinct orders tie as well
    # as repeated trials.
    CASES = [
        (5, 3, 2, 600, 2, 20, 0.05, 0.3),
        (6, 4, 2, 601, 2, 10, 0.05, 0.3),
        (4, 3, 2, 602, 1, 30, 0.05, 0.3),
        (3, 2, 2, 603, 2, 5, 0.05, 0.3),
        (2, 2, 2, 604, 1, 4, 0.05, 0.3),
        (6, 3, 3, 605, 1, 1, 0.05, 0.3),
        (5, 4, 2, 606, 2, 1, 0.05, 0.3),
        (7, 3, 2, 607, 1, 15, 0.05, 0.3),
        (4, 4, 3, 608, 3, 8, 0.05, 0.3),
        (6, 5, 2, 609, 2, 6, 0.05, 0.3),
        (5, 2, 1, 610, 3, 3, 0.05, 0.3),
        (3, 3, 1, 611, 1, 50, 0.05, 0.3),
        (8, 5, 2, 893, 1, 30, 0.45, 0.95),
        (8, 8, 3, 31, 2, 10, 0.45, 0.95),
        (8, 8, 3, 3, 2, 8, 0.45, 0.95),
        (8, 3, 3, 89, 2, 8, 0.45, 0.95),
    ]

    @pytest.mark.parametrize("n, m, kmax, seed, u, trials, gamma, eta", CASES)
    def test_matches_per_trial_loop(self, n, m, kmax, seed, u, trials, gamma, eta):
        inst = gen_setsystem(n, m, kmax, seed=seed)
        got = ptas_dcg(inst, 0.3, RngState(seed), u=u, gamma=gamma, eta=eta, trials=trials)
        value, order, lp_bound, prefix, trial = per_trial_ptas(
            inst, eta, RngState(seed), u, gamma, trials
        )
        assert got.value == value
        assert got.ranking.order == order
        assert got.lp_bound == lp_bound
        assert got.diagnostics["best_prefix"] == prefix == list(order[:u])
        assert got.diagnostics["best_trial"] == trial

    @pytest.mark.parametrize("seed", range(6))
    def test_best_candidate_matches_sequential_scan(self, seed):
        # The last two elements belong to no set, so swapping them keeps the
        # value: candidates can tie between distinct orders as well as
        # between repeated trials, and the winner must be the scan's.
        n = 5 + seed % 3
        u = 1 + seed % 2
        base = gen_setsystem(n - 2, 4, 3, seed=720 + seed)
        inst = SetSystemInstance(n, base.sets)
        got = ptas_dcg(inst, 0.3, RngState(seed), u=u, gamma=0.45, eta=0.95, trials=8)
        value, order, lp_bound, prefix, trial = per_trial_ptas(
            inst, 0.95, RngState(seed), u, 0.45, 8
        )
        swapped = tuple({n - 2: n - 1, n - 1: n - 2}.get(e, e) for e in order)
        assert dcg_value(swapped, inst, DCG_STANDARD) == value
        assert (got.value, got.ranking.order, got.lp_bound) == (value, order, lp_bound)
        assert got.diagnostics["best_prefix"] == prefix
        assert got.diagnostics["best_trial"] == trial

    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (5, 2), (6, 3), (8, 4)])
    def test_rows_match_single_stream_rounding(self, n, seed):
        inst = gen_setsystem(n, 3, 2, seed=700 + seed)
        res = solve_dcg_lp(inst, DCG_STANDARD)
        params = RoundingParams(gamma=0.05, eta=0.1, trials=1)
        rng = RngState(seed)
        rows = _round_orders(res.x, inst, DCG_STANDARD, params, rng.child(seed), 25)
        assert rows.shape == (25, n)
        single_stream, looped_stream = rng.child(seed), rng.child(seed)
        for row in rows:
            single = round_lp(res.x, res.y, inst, DCG_STANDARD, params, single_stream)
            looped = loop_round(res.x, inst, DCG_STANDARD, params, looped_stream)
            assert tuple(row) == single.order == looped

    @pytest.mark.parametrize("n, seed", [(8, 1), (12, 2), (16, 3)])
    def test_trial_rows_do_not_depend_on_trial_count(self, n, seed):
        # A uniform fractional assignment keeps join probabilities below 1,
        # so the trials' orders differ.
        inst = gen_setsystem(n, 3, 2, seed=700 + seed)
        x = np.full((n, n), 1.0 / n)
        params = RoundingParams(gamma=0.45, eta=0.95, trials=1)
        rng = RngState(seed)
        many = _round_orders(x, inst, DCG_STANDARD, params, rng.child(3), 40)
        assert len({tuple(row) for row in many}) > 1
        for trials in (1, 7, 40):
            few = _round_orders(x, inst, DCG_STANDARD, params, rng.child(3), trials)
            assert np.array_equal(few, many[:trials])
        stream = rng.child(3)
        assert [tuple(row) for row in many] == [
            loop_round(x, inst, DCG_STANDARD, params, stream) for _ in range(40)
        ]

    def test_exhaustive_mode_diagnostics(self):
        inst = gen_setsystem(4, 3, 2, seed=612)
        res = ptas_dcg(inst, 0.3, RngState(0), u=9, gamma=0.05, trials=5)
        assert res.diagnostics["best_prefix"] == list(res.ranking.order)
        assert res.diagnostics["best_trial"] is None


class TestRandomnessDiagnostics:
    def test_rounding_prefixes_count_their_streams(self):
        inst = gen_setsystem(5, 3, 2, seed=9)
        res = ptas_dcg(inst, 0.3, RngState(1), u=2, gamma=0.05, trials=7)
        # One stream per two-element set that leaves some demand set uncovered.
        rounded = sum(
            any(len(members & set(chosen)) < k for members, k in inst.sets)
            for chosen in itertools.combinations(range(5), 2)
        )
        assert rounded > 0
        assert res.diagnostics["rounding_streams"] == rounded
        assert res.diagnostics["randomness_used"] is True

    def test_exhaustive_mode_uses_no_randomness(self):
        inst = gen_setsystem(4, 3, 2, seed=612)
        res = ptas_dcg(inst, 0.3, RngState(0), u=9, gamma=0.05, trials=5)
        assert res.diagnostics["mode"] == "exhaustive"
        assert res.diagnostics["rounding_streams"] == 0
        assert res.diagnostics["randomness_used"] is False

    def test_no_lp_residuals_use_no_randomness(self):
        # Every two-element prefix covers both sets, so no residual needs an LP.
        inst = SetSystemInstance(n=3, sets=(((0, 1, 2), 2), ((0, 1, 2), 1)))
        res = ptas_dcg(inst, 0.3, RngState(0), u=2, gamma=0.05, trials=5)
        assert res.diagnostics["mode"] == "prefix-lp-rounding"
        assert res.diagnostics["best_trial"] is None
        assert res.diagnostics["rounding_streams"] == 0
        assert res.diagnostics["randomness_used"] is False


def test_budget_arguments_are_checked():
    inst = gen_setsystem(5, 3, 2, seed=9)
    for kwargs in ({"prefix_cap": 0}, {"prefix_cap": -1}, {"max_cut_rounds": -1}):
        with pytest.raises(InstanceError):
            ptas_dcg(inst, 0.3, RngState(0), u=2, gamma=0.05, trials=2, **kwargs)
    with pytest.raises(InstanceError):
        solve_dcg_lp(inst, DCG_STANDARD, max_rounds=-1)
    assert solve_dcg_lp(inst, DCG_STANDARD, max_rounds=0).loop.rounds == 0


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 7),
    m=st.integers(0, 5),
    kmax=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    u=st.integers(1, 2),
    trials=st.integers(1, 6),
)
def test_ptas_dcg_property(n, m, kmax, seed, u, trials):
    # A permutation of range(n), never above the LP bound, and the same on a rerun.
    inst = gen_setsystem(n, m, kmax, seed=seed)
    a = ptas_dcg(inst, 0.3, RngState(seed), u=u, gamma=0.05, trials=trials)
    assert sorted(a.ranking.order) == list(range(n))
    assert a.value <= a.lp_bound + 1e-9
    b = ptas_dcg(inst, 0.3, RngState(seed), u=u, gamma=0.05, trials=trials)
    assert (b.ranking.order, b.value, b.lp_bound) == (a.ranking.order, a.value, a.lp_bound)
    assert b.diagnostics == a.diagnostics
