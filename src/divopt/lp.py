"""Dense-tableau linear programming with Bland's rule, plus a cut loop.

The solver is deliberately small: maximize c.x subject to rows of <=, >=,
or == constraints and finite lower / optional upper variable bounds.  It
starts in one of three ways:

- cold: two phases, equalities split into two inequalities, artificial
  variables only where needed;
- from a start basis that is primal feasible (one structural column per
  equality row, the slack of every inequality row): no phase 1, the primal
  simplex runs from that basis;
- from an earlier optimal solve of the same program with fewer rows: the new
  rows are appended to its tableau, written in its basis, and the dual
  simplex reoptimizes.  This is how the cut loop runs its later rounds.

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
    # The optimal tableau and basis of a solve given a start, to resume from.
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


def _solve_from(lp: LinearProgram, start, max_pivots: int | None) -> LpSolution:
    """Phase 2 from a start basis, or dual reoptimization from a solution."""
    resume = isinstance(start, LpSolution)
    if resume:
        if start.tableau is None:
            raise InstanceError("can only resume from an optimal solve given a start")
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
    # From a start basis, phase 2; after the dual simplex, a cleanup of any
    # reduced cost its ratio-test tolerance left negative (usually none).
    status, pivots = _bland_loop(T, basis, T.shape[1] - 1, max_pivots, pivots)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)
    x = np.zeros(lp.n_vars)
    structural = basis < lp.n_vars
    x[basis[structural]] = T[:-1, -1][structural]
    return LpSolution("optimal", x, float(lp.objective @ x), pivots, T, basis)


def solve_lp(lp: LinearProgram, max_pivots: int | None = None, *, start=None) -> LpSolution:
    """Dense simplex with Bland's rule; ``max_pivots`` bounds the pivots of
    this call (default 200 + 40 x (rows + columns) of its tableau) and
    raises LpError when exceeded.

    With no ``start``: two phases, equalities split into two inequalities.

    With ``start`` a sequence of column indices: a start basis made of those
    structural columns, one per equality row, and the slack of every
    inequality row.  Each column in turn is pivoted into the free equality
    row where its entry is largest.  The basis must be primal feasible, so
    phase 1 is skipped; this needs zero lower bounds and no upper bounds.

    With ``start`` an optimal LpSolution of an earlier call given a start,
    on the same program with fewer rows: the rows added since (inequalities
    only) are appended to a copy of its tableau and the dual simplex
    reoptimizes.  Solutions from a start carry their tableau and basis, so
    they can be resumed in turn.
    """
    if start is not None:
        return _solve_from(lp, start, max_pivots)
    n = lp.n_vars
    shift = lp.lower

    # <= rows over shifted variables x' = x - lower: each constraint in order
    # (an equality as itself, then its negation), then one unit row per
    # finite upper bound.
    src, sign = [], []
    for i, con in enumerate(lp.rows):
        if con.rel == "==":
            src += (i, i)
            sign += (1.0, -1.0)
        else:
            src.append(i)
            sign.append(-1.0 if con.rel == ">=" else 1.0)
    sign = np.array(sign)
    coeffs = np.array([con.coeffs for con in lp.rows], dtype=float).reshape(len(lp.rows), n)
    rhs = np.array([con.rhs for con in lp.rows], dtype=float)
    # With all lower bounds zero, each coeffs @ shift of finite coefficients
    # is +0.0 and leaves every rhs bit as it is, so the products are skipped.
    if shift.any():
        rhs -= [float(con.coeffs @ shift) for con in lp.rows]
    hi = lp.upper - shift
    bounded = np.flatnonzero(np.isfinite(hi))
    k = len(src)
    m = k + len(bounded)
    b = np.concatenate((rhs[src] * sign, hi[bounded]))

    neg = np.flatnonzero(b < 0)
    n_art = len(neg)
    n_cols = n + m + n_art
    if max_pivots is None:
        max_pivots = 200 + 40 * (m + n_cols)

    # tableau: structural | slack | artificial | rhs, plus one objective row
    T = np.zeros((m + 1, n_cols + 1))
    T[:k, :n] = coeffs[src] * sign[:, None]
    T[k + np.arange(len(bounded)), bounded] = 1.0
    T[:m, -1] = b
    T[np.arange(m), n + np.arange(m)] = 1.0
    basis = np.arange(n, n + m)
    art_cols = n + m + np.arange(n_art)
    T[neg] = -T[neg]
    T[neg, art_cols] = 1.0
    basis[neg] = art_cols

    pivots = 0
    if n_art:
        # Phase 1: maximize -sum(artificials); z-row starts at +1 per
        # artificial, minus each artificial row in turn.
        T[-1, art_cols] = 1.0
        T[-1] = np.subtract.reduce(T[np.append(m, neg)], axis=0)
        status, pivots = _bland_loop(T, basis, n_cols, max_pivots, pivots)
        if status == "unbounded":
            raise LpError("phase-1 objective reported unbounded")
        if T[-1, -1] < -FEAS_TOL:
            return LpSolution("infeasible", None, None, pivots)
        # Drive any degenerate artificial out of the basis.  Its row always
        # has a pivot: the slack column of an artificial's row starts as the
        # negated artificial column and row operations keep it exactly so,
        # so it reads -1 wherever the artificial is basic.
        for i in np.flatnonzero(basis >= n + m):
            _pivot(T, basis, i, int((np.abs(T[i, : n + m]) > PIVOT_TOL).argmax()))
            pivots += 1
        # Drop the artificial columns: the rhs moves next to the slacks.
        T[:, n + m] = T[:, -1]
        T = T[:, : n + m + 1]

    # Phase 2 objective row: -c, minus cost times row for each basic column
    # with a nonzero cost, in row order.  Basic columns are unit vectors, so
    # each cost is the one read before any row is subtracted.
    T[-1] = 0.0
    T[-1, :n] = -lp.objective
    cost = T[-1, basis]
    rows = np.flatnonzero(cost)
    T[-1] = np.subtract.reduce(np.vstack((T[-1:], cost[rows, None] * T[rows])), axis=0)
    n_cols = T.shape[1] - 1
    status, pivots = _bland_loop(T, basis, n_cols, max_pivots, pivots)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, pivots)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = T[:-1, -1][structural]
    x = x + shift
    return LpSolution("optimal", x, float(lp.objective @ x), pivots)


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
    start: Sequence[int] | None = None,
) -> CutLoopResult:
    """Solve, ask the separation oracle, add new cuts, repeat.

    Stops when the oracle returns nothing new or max_rounds is reached; a
    dirty exit (violations remaining) is reported via ``clean=False``, never
    silently.  Cuts are deduplicated by their dedup key.  Each round is one
    ``solve_lp`` call.  Without ``start`` each is a cold two-phase solve.
    With ``start``, a primal feasible start basis (see ``solve_lp``), the
    first round runs from it and each later round resumes from the previous
    optimal tableau: the fresh cuts (inequalities, each violated there) are
    appended as rows and the dual simplex reoptimizes.
    """
    work = lp.copy()
    seen = {c.dedup_key() for c in work.rows}
    history: list[float] = []
    cuts_added = 0
    solves = pivots = 0
    resume = start

    def solve():
        nonlocal solves, pivots, resume
        sol = solve_lp(work, start=resume)
        solves += 1
        pivots += sol.pivots
        if start is not None:
            resume = sol
        return sol

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
