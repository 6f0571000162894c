"""Simplex solver and cut loop, checked against a vertex-enumeration oracle."""

from itertools import combinations

import numpy as np
import pytest

from divopt import (
    DCG_STANDARD,
    Constraint,
    DcgLpLayout,
    GainFunction,
    InstanceError,
    LinearProgram,
    LpError,
    LpSolution,
    RngState,
    build_dcg_lp,
    dcg_separation,
    gen_setsystem,
    ptas_dcg,
    solve_dcg_lp,
    solve_lp,
    solve_with_cuts,
)
from divopt import lp as lp_mod
from lp_reference import reference_solve_lp


def _lp(objective, rows=(), upper=None):
    n = len(objective)
    lp = LinearProgram(n, np.asarray(objective, dtype=float), upper=upper)
    for coeffs, rel, rhs in rows:
        lp.add_constraint(np.asarray(coeffs, dtype=float), rel, rhs)
    return lp


def test_hand_solved_inequality_lp():
    # max 3x + 2y st x + y <= 4, x + 3y <= 6 has optimum 12 at (4, 0)
    lp = _lp([3, 2], rows=[([1, 1], "<=", 4), ([1, 3], "<=", 6)])
    sol = solve_lp(lp, start=[])
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(12.0, abs=1e-9)
    assert sol.x == pytest.approx([4.0, 0.0], abs=1e-9)


def test_box_bounds_only():
    # Upper bounds written as rows: x0 <= 0.5, x1 <= 0.25.
    lp = _lp([1, 1], rows=[([1, 0], "<=", 0.5), ([0, 1], "<=", 0.25)])
    sol = solve_lp(lp, start=[])
    assert sol.objective == pytest.approx(0.75, abs=1e-9)


def test_equality_constraint():
    lp = _lp([1], rows=[([1], "==", 0.7), ([1], "<=", 1.0)])
    sol = solve_lp(lp, start=[0])
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.7, abs=1e-9)


def test_geq_constraint_and_negative_lower_bound():
    # max -x over -1 <= x <= 1, as x = x' - 1 with 0 <= x' <= 2.
    lp = _lp([-1], rows=[([1], "<=", 2.0)])
    sol = solve_lp(lp, start=[])
    assert sol.objective + 1.0 == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] - 1.0 == pytest.approx(-1.0, abs=1e-9)

    # x >= 0.25 appended to max -x st x <= 1: the slack basis is infeasible
    # for it, so the dual simplex moves x up to 0.25.
    lp2 = _lp([-1], rows=[([1], "<=", 1.0)])
    first = solve_lp(lp2, start=[])
    lp2.add_constraint([1.0], ">=", 0.25)
    sol2 = solve_lp(lp2, start=first)
    assert sol2.x[0] == pytest.approx(0.25, abs=1e-9)


def test_infeasible_detected():
    # x >= 2 appended to x <= 1: the dual simplex finds no entering column.
    lp = _lp([1], rows=[([1], "<=", 1.0)])
    first = solve_lp(lp, start=[])
    lp.add_constraint([1.0], ">=", 2.0)
    assert solve_lp(lp, start=first).status == "infeasible"
    assert reference_solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = _lp([1])  # x >= 0, no upper bound, maximize x
    assert solve_lp(lp, start=[]).status == "unbounded"


def test_pivot_budget_raises():
    lp = _lp([1, 1], rows=[([1, 0], "<=", 1.0), ([0, 1], "<=", 1.0)])
    with pytest.raises(LpError):
        solve_lp(lp, max_pivots=1, start=[])


def test_bad_inputs_rejected():
    lp = _lp([1, 2])
    with pytest.raises(InstanceError):
        lp.add_constraint([1.0], "<=", 1.0)
    with pytest.raises(InstanceError):
        lp.add_constraint([1.0, 2.0], "<", 1.0)
    with pytest.raises(InstanceError):
        LinearProgram(2, np.array([1.0]))
    with pytest.raises(InstanceError):
        LinearProgram(1, np.array([1.0]), lower=np.array([-np.inf]))


def _vertex_oracle(lp: LinearProgram) -> float | None:
    """Exact optimum by enumerating basic points: every choice of n active
    constraints among rows and bounds.  Returns None when infeasible."""
    n = lp.n_vars
    planes = []
    for c in lp.rows:
        planes.append((np.asarray(c.coeffs, dtype=float), float(c.rhs)))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e.copy(), float(lp.lower[i])))
        if np.isfinite(lp.upper[i]):
            planes.append((e.copy(), float(lp.upper[i])))
    best = None
    for combo in combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        feas = np.all(x >= lp.lower - 1e-9) and np.all(x <= lp.upper + 1e-9)
        for c in lp.rows:
            lhs = float(np.asarray(c.coeffs) @ x)
            if c.rel == "<=" and lhs > c.rhs + 1e-9:
                feas = False
            if c.rel == ">=" and lhs < c.rhs - 1e-9:
                feas = False
            if c.rel == "==" and abs(lhs - c.rhs) > 1e-9:
                feas = False
        if feas:
            val = float(lp.objective @ x)
            best = val if best is None else max(best, val)
    return best


@pytest.mark.parametrize("n_vars", [2, 3])
def test_simplex_matches_vertex_enumeration(n_vars):
    rng = np.random.default_rng(1234 + n_vars)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        A = rng.uniform(-0.5, 1.0, size=(m, n_vars))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(-1.0, 1.0, size=n_vars)
        box = [(row, "<=", 1.0) for row in np.eye(n_vars)]
        lp = _lp(c, rows=[(A[i], "<=", b[i]) for i in range(m)] + box)
        sol = solve_lp(lp, start=[])
        assert sol.status == "optimal"
        expected = _vertex_oracle(lp)
        assert expected is not None
        assert sol.objective == pytest.approx(expected, abs=1e-7)


def test_simplex_with_random_equalities():
    # The equality alone is solved from its largest-weight column, which is
    # feasible there; the rows x_i <= 1 are then appended and the dual
    # simplex reoptimizes.
    rng = np.random.default_rng(77)
    for _ in range(15):
        c = rng.uniform(-1.0, 1.0, size=3)
        w = rng.uniform(0.2, 1.0, size=3)
        total = float(rng.uniform(0.3, w.sum() * 0.9))
        lp = _lp(c, rows=[(w, "==", total)])
        first = solve_lp(lp, start=[int(w.argmax())])
        for row in np.eye(3):
            lp.add_constraint(row, "<=", 1.0)
        sol = solve_lp(lp, start=first)
        assert sol.status == "optimal"
        assert float(w @ sol.x) == pytest.approx(total, abs=1e-7)
        expected = _vertex_oracle(lp)
        assert sol.objective == pytest.approx(expected, abs=1e-7)


def test_cut_loop_converges_clean():
    lp = _lp([1, 1], rows=[([1, 0], "<=", 1.0), ([0, 1], "<=", 1.0)])

    def oracle(x):
        if x[0] + x[1] > 1.0 + 1e-9:
            return [Constraint(np.array([1.0, 1.0]), "<=", 1.0, key="budget")]
        return []

    res = solve_with_cuts(lp, oracle, start=[])
    assert res.clean
    assert res.cuts_added == 1
    assert res.solution.objective == pytest.approx(1.0, abs=1e-9)
    assert res.objective_history[0] == pytest.approx(2.0, abs=1e-9)


def test_cut_loop_reports_stall_on_duplicate_cuts():
    lp = _lp([1], rows=[([1], "<=", 1.0)])

    def oracle(x):
        # Complains forever but always returns the same named cut.
        return [Constraint(np.array([1.0]), "<=", 0.5, key="same")]

    res = solve_with_cuts(lp, oracle, start=[])
    assert not res.clean
    assert res.cuts_added == 1


def test_cut_loop_round_budget_reports_dirty():
    lp = _lp([1], rows=[([1], "<=", 1.0)])
    levels = iter([0.8, 0.6, 0.4, 0.2])

    def oracle(x):
        lvl = next(levels)
        return [Constraint(np.array([1.0]), "<=", lvl, key=("lvl", lvl))]

    res = solve_with_cuts(lp, oracle, max_rounds=2, start=[])
    assert not res.clean
    assert res.cuts_added == 2


def test_warm_cut_loop_reports_infeasible():
    # x2 = 1 is a feasible start basis for the equality; the cut x0 + x1 >= 2
    # then empties the program, which the dual simplex must report.
    lp = _lp([1, 1, 0], rows=[([1, 1, 1], "==", 1.0)])
    cut = Constraint(np.array([1.0, 1.0, 0.0]), ">=", 2.0, key="too-much")
    res = solve_with_cuts(lp, lambda x: [cut], start=[2])
    assert res.solution.status == "infeasible"
    assert not res.clean
    assert (res.solves, res.cuts_added) == (2, 1)
    assert res.objective_history == [pytest.approx(1.0, abs=1e-12)]
    cold = lp.copy()
    cold.add_constraint(cut.coeffs, cut.rel, cut.rhs)
    assert reference_solve_lp(cold).status == "infeasible"


def test_start_basis_is_checked():
    lp = _lp([1, 1], rows=[([1, 1], "==", 1.0), ([1, 0], "<=", 0.5)])
    assert solve_lp(lp, start=[1]).objective == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InstanceError, match="not primal feasible"):
        # x0 = 1 breaks x0 <= 0.5.
        solve_lp(lp, start=[0])
    with pytest.raises(InstanceError, match="one column per equality"):
        solve_lp(lp, start=[])
    with pytest.raises(InstanceError, match="singular"):
        solve_lp(_lp([1, 1], rows=[([1, 0], "==", 1.0), ([2, 0], "==", 2.0)]), start=[0, 1])
    with pytest.raises(InstanceError, match="upper bounds"):
        solve_lp(_lp([1], rows=[([1], "==", 1.0)], upper=np.ones(1)), start=[0])
    with pytest.raises(InstanceError, match="resume"):
        # Only an optimal solve carries a tableau.
        solve_lp(lp, start=solve_lp(_lp([1]), start=[]))


def test_dual_rounds_keep_reduced_costs_feasible(monkeypatch):
    # The dual ratio test keeps every reduced cost non-negative, so the
    # primal cleanup after a warm round has nothing to do.
    seen = []
    real = lp_mod._dual_loop

    def spy(T, basis, max_pivots, pivots_done):
        out = real(T, basis, max_pivots, pivots_done)
        seen.append((out[1] - pivots_done, float(T[-1, :-1].min())))
        return out

    monkeypatch.setattr(lp_mod, "_dual_loop", spy)
    for seed in range(6):
        solve_dcg_lp(gen_setsystem(6, 5, 3, seed), DCG_STANDARD)
    assert sum(pivots for pivots, _ in seen) > 0
    assert min(rc for _, rc in seen) >= -lp_mod.RC_TOL


def test_pivot_budget_in_a_warm_round_raises():
    inst = gen_setsystem(6, 5, 3, 0)
    lp, layout = build_dcg_lp(inst, DCG_STANDARD)
    first = solve_lp(lp, start=layout.tree_basis())
    cuts = dcg_separation(*layout.unpack(first.x), inst)
    assert cuts
    for cut in cuts:
        con = cut.to_constraint(inst, layout)
        lp.add_constraint(con.coeffs, con.rel, con.rhs, con.key)
    with pytest.raises(LpError, match="pivot budget 0 exhausted"):
        solve_lp(lp, max_pivots=0, start=first)
    again = solve_lp(lp, start=first)  # the failed round left ``first`` intact
    assert again.status == "optimal" and again.pivots > 0


# ---------------------------------------------------------------------------
# Exactness: the solver against a verbatim copy of the simplex it replaced
# (tests/lp_reference.py).  On programs that start from the slack basis,
# pivot choice, status, pivot count and every bit of x and the objective
# must agree.


def _outcome(solver, lp, **kwargs):
    """(status, pivots, x bytes, objective bytes), or the LpError message."""
    try:
        sol = solver(lp, **kwargs)
    except LpError as exc:
        return ("LpError", str(exc))
    x = None if sol.x is None else sol.x.tobytes()
    obj = None if sol.objective is None else np.float64(sol.objective).tobytes()
    return (sol.status, sol.pivots, x, obj)


def _dcg_residual_lps(seeds=(0, 1, 2)):
    """Every program ``ptas_dcg`` hands the simplex on ``gen_setsystem(6, 6, 3)``
    fixtures, cut rows included, copied as they were solved."""
    caught = []
    real = lp_mod.solve_lp

    def record(prog, *args, **kwargs):
        caught.append(prog.copy())
        return real(prog, *args, **kwargs)

    lp_mod.solve_lp = record
    try:
        for seed in seeds:
            inst = gen_setsystem(6, 6, 3, seed)
            ptas_dcg(inst, 0.1, RngState(seed), u=2, gamma=0.05, trials=2)
    finally:
        lp_mod.solve_lp = real
    return caught


def _tree_basis(prog):
    """The tree basis of a captured ``build_dcg_lp`` program: its 2n - 1
    equality rows give n, and its n^2 + m n columns give m."""
    n = (sum(con.rel == "==" for con in prog.rows) + 1) // 2
    return DcgLpLayout(n, (prog.n_vars - n * n) // n).tree_basis()


def _random_lp(rng):
    """Small LP over integer-valued data (degenerate vertices are common),
    mixing <=, >= and == rows, nonzero lower bounds and missing upper bounds."""
    n = int(rng.integers(1, 6))
    lower = np.where(rng.random(n) < 0.4, rng.integers(-2, 3, n).astype(float), 0.0)
    upper = np.where(rng.random(n) < 0.7, lower + rng.integers(0, 4, n), np.inf)
    lp = LinearProgram(n, rng.integers(-3, 4, n).astype(float), lower=lower, upper=upper)
    for _ in range(int(rng.integers(0, 6))):
        rel = ("<=", ">=", "==")[int(rng.integers(0, 3))]
        lp.add_constraint(rng.integers(-2, 3, n).astype(float), rel, float(rng.integers(-2, 5)))
    return lp


def _random_slack_lp(rng):
    """Small LP over integer-valued data whose rows are all <= with a
    right-hand side >= 0 (zero ones make degenerate vertices common), so the
    slack basis is feasible.  Most variables get a unit row x_i <= u_i."""
    n = int(rng.integers(1, 6))
    lp = LinearProgram(n, rng.integers(-3, 4, n).astype(float))
    for _ in range(int(rng.integers(0, 6))):
        lp.add_constraint(rng.integers(-2, 3, n).astype(float), "<=", float(rng.integers(0, 5)))
    for i in np.flatnonzero(rng.random(n) < 0.7):
        lp.add_constraint(np.eye(n)[i], "<=", float(rng.integers(0, 4)))
    return lp


def _append_random_rows(lp, rng):
    """1-3 random <= / >= rows over integer data, some with rhs < 0."""
    for _ in range(int(rng.integers(1, 4))):
        rel = ("<=", ">=")[int(rng.integers(0, 2))]
        lp.add_constraint(rng.integers(-2, 3, lp.n_vars).astype(float), rel, float(rng.integers(-2, 5)))


def _special_lps():
    return {
        "unbounded": _lp([1, 1], rows=[([1, -1], "<=", 1.0)]),
        "no-rows-no-vars": LinearProgram(0, np.zeros(0)),
    }


class TestMatchesReferenceSimplex:
    def test_dcg_residual_lps(self):
        # The solver starts from the tree basis and the reference runs phase
        # 1, so the vertex paths differ: only the optimum is compared.
        lps = _dcg_residual_lps()
        assert len(lps) > 100
        assert any(len(p.rows) > 2 * 4 + 6 * 3 for p in lps)  # some carry cut rows
        for prog in lps:
            sol, want = solve_lp(prog, start=_tree_basis(prog)), reference_solve_lp(prog)
            assert sol.status == want.status == "optimal"
            assert abs(sol.objective - want.objective) <= 1e-9

    def test_random_lps(self):
        rng = np.random.default_rng(20261018)
        statuses = set()
        for _ in range(600):
            prog = _random_slack_lp(rng)
            want = _outcome(reference_solve_lp, prog)
            assert _outcome(solve_lp, prog, start=[]) == want
            statuses.add(want[0])
        assert statuses == {"optimal", "unbounded"}

    @pytest.mark.parametrize("name", sorted(_special_lps()))
    def test_special_lps(self, name):
        prog = _special_lps()[name]
        want = _outcome(reference_solve_lp, prog)
        assert _outcome(solve_lp, prog, start=[]) == want
        if name == "unbounded":
            assert want[0] == name

    @pytest.mark.parametrize("budget", [0, 1, 2, 5])
    def test_pivot_budget(self, budget):
        rng = np.random.default_rng(budget)
        statuses = set()
        for _ in range(200):
            prog = _random_slack_lp(rng)
            want = _outcome(reference_solve_lp, prog, max_pivots=budget)
            assert _outcome(solve_lp, prog, max_pivots=budget, start=[]) == want
            statuses.add(want[0])
        assert statuses == {"optimal", "unbounded", "LpError"}

    def test_ptas_dcg_lp_counters(self, monkeypatch):
        inst = gen_setsystem(6, 6, 3, 5)
        got = ptas_dcg(inst, 0.1, RngState(5), u=2, gamma=0.05, trials=3).diagnostics
        solves = []
        real = lp_mod.solve_lp

        def spy(prog, *args, **kwargs):
            sol = real(prog, *args, **kwargs)
            solves.append(sol.pivots)
            return sol

        monkeypatch.setattr(lp_mod, "solve_lp", spy)
        want = ptas_dcg(inst, 0.1, RngState(5), u=2, gamma=0.05, trials=3).diagnostics
        assert got == want
        assert got["lp_pivots"] == sum(solves) > 0
        assert got["lp_solves"] == len(solves)
        # 6 * 5 ordered two-element prefixes.
        assert got["prefixes"] == 30


# ---------------------------------------------------------------------------
# Differential test against HiGHS: objectives and statuses, not vertices.

_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _highs(lp):
    optimize = pytest.importorskip("scipy.optimize")
    ub = [(c.coeffs if c.rel == "<=" else -c.coeffs, c.rhs if c.rel == "<=" else -c.rhs)
          for c in lp.rows if c.rel != "=="]
    eq = [(c.coeffs, c.rhs) for c in lp.rows if c.rel == "=="]

    def stack(pairs):
        if not pairs:
            return None, None
        return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])

    a_ub, b_ub = stack(ub)
    a_eq, b_eq = stack(eq)
    bounds = [(lo, None if np.isinf(hi) else hi) for lo, hi in zip(lp.lower, lp.upper)]
    res = optimize.linprog(-lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                           bounds=bounds, method="highs")
    return _HIGHS_STATUS[res.status], (None if res.status else -res.fun)


class TestAgainstHighs:
    def test_random_lps(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(7)
        for _ in range(300):
            prog = _random_slack_lp(rng)
            sol = solve_lp(prog, start=[])
            status, objective = _highs(prog)
            assert sol.status == status
            if status == "optimal":
                assert sol.objective == pytest.approx(objective, abs=1e-7)

    def test_dual_simplex_on_random_rows(self):
        # Each slack-started optimum gets 1-3 random rows and is resumed:
        # the dual simplex against HiGHS and the two-phase reference.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(11)
        statuses = set()
        for _ in range(400):
            prog = _random_slack_lp(rng)
            first = solve_lp(prog, start=[])
            if first.status != "optimal":
                continue
            _append_random_rows(prog, rng)
            sol, ref = solve_lp(prog, start=first), reference_solve_lp(prog)
            status, objective = _highs(prog)
            assert sol.status == ref.status == status
            if status == "optimal":
                assert sol.objective == pytest.approx(objective, abs=1e-7)
                assert sol.objective == pytest.approx(ref.objective, abs=1e-7)
            statuses.add(status)
        assert statuses == {"optimal", "infeasible"}

    def test_reference_matches_highs(self):
        # The reference stands in for a cold solver wherever a test needs
        # one: bounds, negative lower bounds, equalities, infeasibility.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(7)
        statuses = set()
        for _ in range(300):
            prog = _random_lp(rng)
            sol = reference_solve_lp(prog)
            status, objective = _highs(prog)
            assert sol.status == status
            if status == "optimal":
                assert sol.objective == pytest.approx(objective, abs=1e-7)
            statuses.add(status)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_dcg_residual_lps(self):
        pytest.importorskip("scipy")
        for prog in _dcg_residual_lps(seeds=(0,)):
            sol = solve_lp(prog, start=_tree_basis(prog))
            status, objective = _highs(prog)
            assert sol.status == status == "optimal"
            assert sol.objective == pytest.approx(objective, abs=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_rounds_match_highs(self, seed, monkeypatch):
        # Every round of the warm cut loop, the tree-start solve and each
        # dual reoptimization, against HiGHS on the same rows.
        pytest.importorskip("scipy")
        rounds = []
        real = lp_mod.solve_lp

        def record(prog, *args, **kwargs):
            sol = real(prog, *args, **kwargs)
            rounds.append((prog.copy(), kwargs.get("start"), sol))
            return sol

        monkeypatch.setattr(lp_mod, "solve_lp", record)
        res = solve_dcg_lp(gen_setsystem(6, 5, 3, seed), GainFunction("dcg", shift=seed % 3))
        assert res.loop.clean and len(rounds) == res.loop.solves >= 2
        assert all(isinstance(start, LpSolution) for _, start, _ in rounds[1:])
        for prog, _, sol in rounds:
            status, objective = _highs(prog)
            assert sol.status == status == "optimal"
            assert sol.objective == pytest.approx(objective, abs=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_solve_dcg_lp_matches_full_cover_family(self, seed):
        # HiGHS solves the relaxation with every knapsack-cover row written
        # out; the cut loop must reach the same optimum.
        optimize = pytest.importorskip("scipy.optimize")
        inst = gen_setsystem(5, 4, 3, seed)
        f = GainFunction("dcg", shift=seed % 3)
        n, m = inst.n, inst.m
        nx = n * n

        def x(e, t):
            return e * n + t

        def y(s, t):
            return nx + s * n + t

        c = np.zeros(nx + m * n)
        for s in range(m):
            for t in range(n):
                c[y(s, t)] = f(t + 1) - (f(t + 2) if t + 1 < n else 0.0)
        a_eq, a_ub, b_ub = [], [], []
        for i in range(n):
            slot, elem = np.zeros(len(c)), np.zeros(len(c))
            for j in range(n):
                slot[x(j, i)] = elem[x(i, j)] = 1.0
            a_eq += [slot, elem]
        for s, (members, k) in enumerate(inst.sets):
            for t in range(n):
                if t:
                    row = np.zeros(len(c))
                    row[y(s, t - 1)], row[y(s, t)] = 1.0, -1.0
                    a_ub.append(row)
                    b_ub.append(0.0)
                for size in range(k):
                    for A in combinations(sorted(members), size):
                        row = np.zeros(len(c))
                        for e in set(members) - set(A):
                            for tp in range(t + 1):
                                row[x(e, tp)] = -1.0
                        row[y(s, t)] = k - size
                        a_ub.append(row)
                        b_ub.append(0.0)
        bounds = [(0, None)] * nx + [(0, 1)] * (m * n)
        want = optimize.linprog(-c, A_ub=np.array(a_ub), b_ub=b_ub, A_eq=np.array(a_eq),
                                b_eq=np.ones(2 * n), bounds=bounds, method="highs")
        assert want.status == 0
        got = solve_dcg_lp(inst, f)
        assert got.loop.clean
        assert got.objective == pytest.approx(-want.fun, abs=1e-7)
