"""Dense-tableau linear programming with Bland's rule, plus a cut loop.

The solver is deliberately small: maximize c.x over x >= 0 subject to rows
of <=, >= or == constraints.  Every solve starts from a basis, in one of two
ways:

- from a start basis that is primal feasible (one structural column per
  equality row, the slack of every inequality row): the primal simplex runs
  from that basis.  A program whose rows are all <= with a non-negative
  right-hand side starts from its slack basis, ``start=[]``;
- from an earlier optimal solve of the same program with fewer rows: the new
  rows are appended to its tableau, written in its basis, and the dual
  simplex reoptimizes.  This is how the cut loop runs its later rounds.

There is no phase 1, so every caller names a feasible basis or a solution.
Bland's rule throughout, in the primal and the dual simplex, so cycling is
impossible.  Intended for the modest LPs built by the ranking module, not as
a general-purpose solver.
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
# A basic value below -DUAL_TOL leaves in the dual simplex: far below the 1e-9
# violation a cut oracle reports, so every cut appended is enforced.
DUAL_TOL = 1e-12


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
    """max objective . x subject to rows, over x >= 0.

    ``lower`` and ``upper`` are checked box bounds (lower finite), but
    ``solve_lp`` refuses any other than the defaults 0 and inf: a bound is
    written as a row.
    """

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
    """One solve's status, point, objective and pivot count.  An optimal
    solution also carries its tableau and basis, so a later ``solve_lp`` can
    resume from it (``start=solution``) once rows are added."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0
    tableau: np.ndarray | None = field(default=None, repr=False, compare=False)
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int):
    """Pivot on (r, j) in place.  Only rows with a nonzero column-j entry are
    updated; any other row would only subtract a signed zero from each cell."""
    prow = T[r] / T[r, j]
    rows = T[:, j].nonzero()[0]
    block = T.take(rows, axis=0)
    block -= block[:, j : j + 1] * prow
    T[rows] = block
    T[r] = prow  # row r was in the block too; it takes the normalised row
    basis[r] = j


def _bland_loop(T, basis, n_cols, max_pivots, pivots_done):
    """Run Bland pivots on tableau T until optimal/unbounded/budget."""
    pivots = pivots_done
    if not n_cols:
        return "optimal", pivots
    # Views stay current: every pivot updates T in place.
    rc, body, rhs = T[-1, :n_cols], T[:-1], T[:-1, -1]
    while True:
        improving = rc < -RC_TOL
        j = int(improving.argmax())  # Bland: smallest improving index
        if not improving[j]:
            return "optimal", pivots
        col = body[:, j]
        pos = (col > PIVOT_TOL).nonzero()[0]
        if len(pos) > 1:
            ratios = rhs.take(pos) / col.take(pos)
            best = float(np.minimum.reduce(ratios))
            pos = pos[ratios <= best + PIVOT_TOL * (1.0 + abs(best))]
        if len(pos) > 1:
            r = int(pos[basis.take(pos).argmin()])  # Bland: smallest basis index
        elif len(pos):
            r = int(pos[0])
        else:
            return "unbounded", pivots
        _pivot(T, basis, r, j)
        pivots += 1
        if pivots > max_pivots:
            raise LpError(f"pivot budget {max_pivots} exhausted")


def _dual_loop(T, basis, max_pivots, pivots_done):
    """Run dual Bland pivots on a dual feasible tableau T until primal
    feasible (optimal), or until a row shows the program infeasible."""
    pivots = pivots_done
    rc, body, rhs = T[-1, :-1], T[:-1, :-1], T[:-1, -1]
    while True:
        out = (rhs < -DUAL_TOL).nonzero()[0]
        if not len(out):
            return "optimal", pivots
        r = int(out[basis.take(out).argmin()])  # Bland: smallest basic index leaves
        row = body[r]
        neg = (row < -PIVOT_TOL).nonzero()[0]
        if not len(neg):
            return "infeasible", pivots  # row r: a sum of non-negatives < 0
        ratios = rc.take(neg) / -row.take(neg)
        best = float(ratios.min())
        # Bland: the smallest column among the ratio ties enters.
        j = int(neg[(ratios <= best + PIVOT_TOL * (1.0 + abs(best))).argmax()])
        _pivot(T, basis, r, j)
        pivots += 1
        if pivots > max_pivots:
            raise LpError(f"pivot budget {max_pivots} exhausted")


def _append_rows(T, basis, n_vars, rows):
    """T and basis grown by ``rows``, each written in the current basis.

    Tableau layout: one row per constraint (a >= row negated to <=), then the
    objective row; columns are the structural variables, then one slack per
    inequality row in row order, then the rhs.  An appended inequality row
    gets a new slack column, basic in it; an equality row has no basic
    column (-1) until one is pivoted in.
    """
    m, cols = T.shape[0] - 1, T.shape[1] - 1
    eq = np.array([con.rel == "==" for con in rows], dtype=bool)
    sign = np.array([-1.0 if con.rel == ">=" else 1.0 for con in rows])
    slack = np.flatnonzero(~eq)
    out = np.zeros((m + len(rows) + 1, cols + len(slack) + 1))
    out[:m, :cols] = T[:-1, :-1]
    out[:m, -1] = T[:-1, -1]
    out[-1, :cols] = T[-1, :-1]
    out[-1, -1] = T[-1, -1]
    new = out[m:-1]
    coeffs = np.array([con.coeffs for con in rows], dtype=float).reshape(len(rows), n_vars)
    new[:, :n_vars] = coeffs * sign[:, None]
    new[:, -1] = sign * [con.rhs for con in rows]
    new[slack, cols + np.arange(len(slack))] = 1.0
    placed = np.flatnonzero(basis >= 0)
    if len(placed) and len(rows):
        basic = basis[placed]
        new -= new[:, basic] @ out[placed]
        new[:, basic] = 0.0
    basis = np.concatenate((basis, np.full(len(rows), -1)))
    basis[m + slack] = cols + np.arange(len(slack))
    return out, basis


def _start_tableau(lp: LinearProgram, start: Sequence[int]):
    """Tableau and basis of ``lp`` at the start basis: ``start[i]`` is the
    structural column made basic for the i-th equality row, each inequality
    row keeps its slack.  Raises InstanceError unless that basis exists and is
    primal feasible."""
    if lp.lower.any() or np.isfinite(lp.upper).any():
        raise InstanceError("a start basis needs zero lower bounds and no upper bounds")
    eq = [con.rel == "==" for con in lp.rows]
    if len(start) != sum(eq):
        raise InstanceError("a start basis names one column per equality row")
    T = np.zeros((1, lp.n_vars + 1))
    T[0, :-1] = -lp.objective
    T, basis = _append_rows(T, np.zeros(0, dtype=int), lp.n_vars, lp.rows)
    for j in start:
        free = np.flatnonzero(basis < 0)
        size = np.abs(T[free, j])
        if not len(free) or size.max() <= PIVOT_TOL:
            raise InstanceError("start basis is singular")
        _pivot(T, basis, int(free[size.argmax()]), int(j))
    if T[:-1, -1].min(initial=0.0) < -FEAS_TOL:
        raise InstanceError("start basis is not primal feasible")
    return T, basis


def solve_lp(
    lp: LinearProgram, max_pivots: int | None = None, *, start: Sequence[int] | LpSolution
) -> LpSolution:
    """Dense simplex with Bland's rule from a basis; ``max_pivots`` bounds the
    pivots of this call (default 200 + 40 x (rows + columns) of its tableau)
    and raises LpError when exceeded.

    With ``start`` a sequence of column indices: a start basis made of those
    structural columns, one per equality row, and the slack of every
    inequality row (``[]`` when there are no equality rows).  Each column in
    turn is pivoted into the free equality row where its entry is largest.
    The basis must be primal feasible, and the program needs zero lower
    bounds and no upper bounds; the primal simplex runs from there.

    With ``start`` an optimal LpSolution of an earlier call, on the same
    program with fewer rows: the rows added since (inequalities only) are
    appended to a copy of its tableau and the dual simplex reoptimizes.
    Every optimal solution carries its tableau and basis, so it can be
    resumed in turn.
    """
    resume = isinstance(start, LpSolution)
    if resume:
        if start.tableau is None:
            raise InstanceError("can only resume from an optimal solve")
        m = start.tableau.shape[0] - 1
        fresh = lp.rows[m:]
        if any(con.rel == "==" for con in fresh):
            raise InstanceError("rows added to a resumed program must be inequalities")
        T, basis = _append_rows(start.tableau, start.basis, lp.n_vars, fresh)
    else:
        T, basis = _start_tableau(lp, start)
    if max_pivots is None:
        max_pivots = 200 + 40 * (T.shape[0] + T.shape[1] - 2)
    pivots = 0
    if resume:
        status, pivots = _dual_loop(T, basis, max_pivots, pivots)
        if status == "infeasible":
            return LpSolution("infeasible", None, None, pivots)
    # From a start basis, the primal simplex; after the dual simplex, a
    # cleanup of any reduced cost its ratio-test tolerance left negative
    # (usually none).
    status, pivots = _bland_loop(T, basis, T.shape[1] - 1, max_pivots, pivots)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)
    x = np.zeros(lp.n_vars)
    structural = basis < lp.n_vars
    x[basis[structural]] = T[:-1, -1][structural]
    return LpSolution("optimal", x, float(lp.objective @ x), pivots, T, basis)


@dataclass
class CutLoopResult:
    solution: LpSolution
    rounds: int
    cuts_added: int
    clean: bool
    objective_history: list = field(default_factory=list)
    solves: int = 0  # simplex solves, one per round plus one if the budget ran out
    pivots: int = 0  # summed over those solves


def solve_with_cuts(
    lp: LinearProgram,
    oracle: Callable[[np.ndarray], Iterable[Constraint]],
    max_rounds: int = 60,
    *,
    start: Sequence[int] | LpSolution,
) -> CutLoopResult:
    """Solve, ask the separation oracle, add new cuts, repeat.

    Stops when the oracle returns nothing new or max_rounds is reached; a
    dirty exit (violations remaining) is reported via ``clean=False``, never
    silently.  Cuts are deduplicated by their dedup key.  Each round is one
    ``solve_lp`` call.  The first round runs from ``start`` (a primal
    feasible start basis, or an optimal solution to resume; see
    ``solve_lp``), and each later round resumes from the previous optimal
    tableau: the fresh cuts (inequalities, each violated there) are appended
    as rows and the dual simplex reoptimizes.
    """
    work = lp.copy()
    seen = {c.dedup_key() for c in work.rows}
    history: list[float] = []
    cuts_added = 0
    solves = pivots = 0
    sol = start

    def solve():
        nonlocal solves, pivots
        out = solve_lp(work, start=sol)
        solves += 1
        pivots += out.pivots
        return out

    def result(clean: bool) -> CutLoopResult:
        return CutLoopResult(sol, rounds, cuts_added, clean, history, solves, pivots)

    sol = solve()
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        if sol.status != "optimal":
            return result(False)
        history.append(sol.objective)
        returned = list(oracle(sol.x))
        if not returned:
            return result(True)
        fresh = []
        for cut in returned:
            k = cut.dedup_key()
            if k in seen:
                continue
            seen.add(k)
            fresh.append(cut)
        if not fresh:
            # Oracle still complains but offers nothing new: numerical stall.
            return result(False)
        for cut in fresh:
            work.add_constraint(cut.coeffs, cut.rel, cut.rhs, cut.key)
        cuts_added += len(fresh)
        sol = solve()
    # Round budget exhausted: say whether violated cuts remain.
    clean = False
    if sol.status == "optimal":
        history.append(sol.objective)
        clean = len(list(oracle(sol.x))) == 0
    return result(clean)
