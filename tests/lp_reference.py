"""A two-phase dense simplex and a cold cut loop, as oracles for the tests.

``reference_solve_lp`` is a verbatim copy of the simplex ``divopt.lp`` once
had: an np.outer pivot over the whole tableau, rows assembled one by one,
bounds shifted and written as rows, equalities split, phase 1 with one
artificial per negative right-hand side.  It solves any ``LinearProgram``
cold.  On a program whose rows are all <= with a non-negative right-hand
side it runs no phase 1 and starts from the slack basis, as
``solve_lp(prog, start=[])`` does, so the two agree bit for bit there.
``reference_cut_loop`` repeats cold reference solves; it shares no pivot code
with ``divopt.lp``.
"""

import numpy as np

from divopt import LpError, LpSolution
from divopt import lp as lp_mod


def _ref_pivot(T, basis, r, j):
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    basis[r] = j


def _ref_bland_loop(T, basis, n_cols, max_pivots, pivots_done):
    pivots = pivots_done
    while True:
        rc = T[-1, :n_cols]
        candidates = np.nonzero(rc < -lp_mod.RC_TOL)[0]
        if len(candidates) == 0:
            return "optimal", pivots
        j = int(candidates[0])
        col = T[:-1, j]
        pos = np.nonzero(col > lp_mod.PIVOT_TOL)[0]
        if len(pos) == 0:
            return "unbounded", pivots
        ratios = T[:-1, -1][pos] / col[pos]
        best = ratios.min()
        ties = pos[np.nonzero(ratios <= best + lp_mod.PIVOT_TOL * (1.0 + abs(best)))[0]]
        r = int(ties[np.argmin(basis[ties])])
        _ref_pivot(T, basis, r, j)
        pivots += 1
        if pivots > max_pivots:
            raise LpError(f"pivot budget {max_pivots} exhausted")


def reference_solve_lp(lp, max_pivots=None):
    n = lp.n_vars
    shift = lp.lower
    rows_a, rows_b = [], []

    def push(coeffs, rhs):
        rows_a.append(np.asarray(coeffs, dtype=float))
        rows_b.append(float(rhs))

    for con in lp.rows:
        rhs = con.rhs - float(con.coeffs @ shift)
        if con.rel == "<=":
            push(con.coeffs, rhs)
        elif con.rel == ">=":
            push(-con.coeffs, -rhs)
        else:
            push(con.coeffs, rhs)
            push(-con.coeffs, -rhs)
    for i in range(n):
        hi = lp.upper[i] - shift[i]
        if np.isfinite(hi):
            e = np.zeros(n)
            e[i] = 1.0
            push(e, hi)

    m = len(rows_a)
    A = np.vstack(rows_a) if m else np.zeros((0, n))
    b = np.array(rows_b)
    neg = b < 0
    n_art = int(neg.sum())
    n_cols = n + m + n_art
    if max_pivots is None:
        max_pivots = 200 + 40 * (m + n_cols)
    T = np.zeros((m + 1, n_cols + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(n, n + m)
    art = 0
    art_cols = []
    for i in range(m):
        if neg[i]:
            T[i] = -T[i]
            col = n + m + art
            T[i, col] = 1.0
            basis[i] = col
            art_cols.append(col)
            art += 1

    pivots = 0
    if n_art:
        T[-1, :] = 0.0
        for col in art_cols:
            T[-1, col] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                T[-1] -= T[i]
        status, pivots = _ref_bland_loop(T, basis, n_cols, max_pivots, pivots)
        if status == "unbounded":
            raise LpError("phase-1 objective reported unbounded")
        if T[-1, -1] < -lp_mod.FEAS_TOL:
            return LpSolution("infeasible", None, None, pivots)
        drop_rows = []
        for i in range(m):
            if basis[i] not in art_cols:
                continue
            row = T[i, : n + m]
            nz = np.nonzero(np.abs(row) > lp_mod.PIVOT_TOL)[0]
            if len(nz) == 0:
                drop_rows.append(i)
            else:
                _ref_pivot(T, basis, i, int(nz[0]))
                pivots += 1
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            T = np.vstack([T[keep], T[-1:]])
            basis = basis[keep]
            m = len(keep)
        T = np.delete(T, art_cols, axis=1)

    T[-1, :] = 0.0
    T[-1, :n] = -lp.objective
    for i in range(len(basis)):
        j = basis[i]
        if abs(T[-1, j]) > 0:
            T[-1] -= T[-1, j] * T[i]
    n_cols = T.shape[1] - 1
    status, pivots = _ref_bland_loop(T, basis, n_cols, max_pivots, pivots)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = T[i, -1]
    x = x + shift
    return LpSolution("optimal", x, float(lp.objective @ x), pivots)


def reference_cut_loop(lp, oracle, max_rounds=60):
    """Cold cut loop: solve with ``reference_solve_lp``, add the cuts the
    oracle returns that the program lacks (by dedup key), repeat.  Returns
    the last solution and whether the oracle had nothing left to say."""
    work = lp.copy()
    seen = {con.dedup_key() for con in work.rows}
    for _ in range(max_rounds + 1):
        sol = reference_solve_lp(work)
        if sol.status != "optimal":
            return sol, False
        cuts = list(oracle(sol.x))
        if not cuts:
            return sol, True
        fresh = 0
        for cut in cuts:
            if cut.dedup_key() not in seen:
                seen.add(cut.dedup_key())
                work.add_constraint(cut.coeffs, cut.rel, cut.rhs, cut.key)
                fresh += 1
        if not fresh:
            return sol, False
    return sol, False
