"""Dense-tableau linear programming with Bland's rule, plus a cut loop.

The solver is deliberately small: maximize c.x subject to rows of <=, >=,
or == constraints and finite lower / optional upper variable bounds.  Two
phases, artificial variables only where needed, Bland's rule throughout so
cycling is impossible.  Intended for the modest LPs built by the ranking
module, not as a general-purpose solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import InstanceError

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpError",
    "Constraint",
    "CutLoopResult",
    "solve_lp",
    "solve_with_cuts",
]

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
RC_TOL = 1e-9


class LpError(RuntimeError):
    """Numerical failure: the pivot budget ran out before convergence."""


@dataclass(frozen=True)
class Constraint:
    coeffs: np.ndarray
    rel: str
    rhs: float
    key: object = None

    def dedup_key(self):
        if self.key is not None:
            return self.key
        arr = np.asarray(self.coeffs, dtype=float)
        return (self.rel, round(self.rhs, 12), arr.round(12).tobytes())


@dataclass
class LinearProgram:
    """max objective . x subject to rows and box bounds (lower must be finite)."""

    n_vars: int
    objective: np.ndarray
    rows: list = field(default_factory=list)
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.n_vars,):
            raise InstanceError("objective length must equal n_vars")
        if self.lower is None:
            self.lower = np.zeros(self.n_vars)
        else:
            self.lower = np.asarray(self.lower, dtype=float)
        if self.upper is None:
            self.upper = np.full(self.n_vars, np.inf)
        else:
            self.upper = np.asarray(self.upper, dtype=float)
        if not np.all(np.isfinite(self.lower)):
            raise InstanceError("lower bounds must be finite")
        if np.any(self.lower > self.upper):
            raise InstanceError("need lower <= upper for every variable")

    def add_constraint(self, coeffs, rel: str, rhs: float, key=None):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_vars,):
            raise InstanceError("constraint coefficient length must equal n_vars")
        if rel not in ("<=", ">=", "=="):
            raise InstanceError(f"unknown relation {rel!r}")
        self.rows.append(Constraint(coeffs, rel, float(rhs), key))

    def copy(self) -> "LinearProgram":
        lp = LinearProgram(
            self.n_vars,
            self.objective.copy(),
            list(self.rows),
            self.lower.copy(),
            self.upper.copy(),
        )
        return lp


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int):
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    basis[r] = j


def _bland_loop(T, basis, n_cols, max_pivots, pivots_done):
    """Run Bland pivots on tableau T until optimal/unbounded/budget."""
    pivots = pivots_done
    while True:
        rc = T[-1, :n_cols]
        candidates = np.nonzero(rc < -RC_TOL)[0]
        if len(candidates) == 0:
            return "optimal", pivots
        j = int(candidates[0])  # Bland: smallest improving index
        col = T[:-1, j]
        pos = np.nonzero(col > PIVOT_TOL)[0]
        if len(pos) == 0:
            return "unbounded", pivots
        ratios = T[:-1, -1][pos] / col[pos]
        best = ratios.min()
        ties = pos[np.nonzero(ratios <= best + PIVOT_TOL * (1.0 + abs(best)))[0]]
        r = int(ties[np.argmin(basis[ties])])  # Bland: smallest basis index
        _pivot(T, basis, r, j)
        pivots += 1
        if pivots > max_pivots:
            raise LpError(f"pivot budget {max_pivots} exhausted")


def solve_lp(lp: LinearProgram, max_pivots: int | None = None) -> LpSolution:
    """Two-phase dense simplex.  Equalities are split into two inequalities."""
    n = lp.n_vars
    shift = lp.lower

    # Assemble <= rows over shifted variables x' = x - lower.
    rows_a: list[np.ndarray] = []
    rows_b: list[float] = []

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

    # tableau: structural | slack | artificial | rhs, plus one objective row
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
        # Phase 1: maximize -sum(artificials); z-row starts at +1 per artificial.
        T[-1, :] = 0.0
        for col in art_cols:
            T[-1, col] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                T[-1] -= T[i]
        status, pivots = _bland_loop(T, basis, n_cols, max_pivots, pivots)
        if status == "unbounded":
            raise LpError("phase-1 objective reported unbounded")
        if T[-1, -1] < -FEAS_TOL:
            return LpSolution("infeasible", None, None, pivots)
        # Drive any degenerate artificial out of the basis.
        drop_rows = []
        for i in range(m):
            if basis[i] not in art_cols:
                continue
            row = T[i, : n + m]
            nz = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
            if len(nz) == 0:
                drop_rows.append(i)
            else:
                _pivot(T, basis, i, int(nz[0]))
                pivots += 1
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            T = np.vstack([T[keep], T[-1:]])
            basis = basis[keep]
            m = len(keep)
        T = np.delete(T, art_cols, axis=1)

    # Phase 2 objective row.
    T[-1, :] = 0.0
    T[-1, :n] = -lp.objective
    for i in range(len(basis)):
        j = basis[i]
        if abs(T[-1, j]) > 0:
            T[-1] -= T[-1, j] * T[i]
    n_cols = T.shape[1] - 1
    status, pivots = _bland_loop(T, basis, n_cols, max_pivots, pivots)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)

    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = T[i, -1]
    x = x + shift
    return LpSolution("optimal", x, float(lp.objective @ x), pivots)


@dataclass
class CutLoopResult:
    solution: LpSolution
    rounds: int
    cuts_added: int
    clean: bool
    objective_history: list = field(default_factory=list)


def solve_with_cuts(
    lp: LinearProgram,
    oracle: Callable[[np.ndarray], Iterable[Constraint]],
    max_rounds: int = 60,
) -> CutLoopResult:
    """Solve, ask the separation oracle, add new cuts, repeat.

    Stops when the oracle returns nothing new or max_rounds is reached; a
    dirty exit (violations remaining) is reported via ``clean=False``, never
    silently.  Cuts are deduplicated by their dedup key.
    """
    work = lp.copy()
    seen = {c.dedup_key() for c in work.rows}
    history: list[float] = []
    cuts_added = 0
    sol = solve_lp(work)
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        if sol.status != "optimal":
            return CutLoopResult(sol, rounds, cuts_added, False, history)
        history.append(sol.objective)
        returned = list(oracle(sol.x))
        if not returned:
            return CutLoopResult(sol, rounds, cuts_added, True, history)
        fresh = []
        for cut in returned:
            k = cut.dedup_key()
            if k in seen:
                continue
            seen.add(k)
            fresh.append(cut)
        if not fresh:
            # Oracle still complains but offers nothing new: numerical stall.
            return CutLoopResult(sol, rounds, cuts_added, False, history)
        for cut in fresh:
            work.add_constraint(cut.coeffs, cut.rel, cut.rhs, cut.key)
        cuts_added += len(fresh)
        sol = solve_lp(work)
    # Round budget exhausted: say whether violated cuts remain.
    clean = False
    if sol.status == "optimal":
        history.append(sol.objective)
        clean = len(list(oracle(sol.x))) == 0
    return CutLoopResult(sol, rounds, cuts_added, clean, history)
