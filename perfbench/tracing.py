"""Outside-in layer trace: spans recorded around divopt's public functions.

The program itself carries no instrumentation.  ``Tracer.installed`` replaces
module and class attributes with timing wrappers for the duration of a
``with`` block and restores the originals afterwards, so untraced passes run
the unmodified code.  Spans (name, start, end, parent, solve id) are kept in
flat arrays in memory; ``layer_table`` turns them into per-layer call counts
and self times (span duration minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from divopt import core, diversification, dispersion, dks, generators, io, lp, ranking

Hook = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` becomes a span called ``name``."""

    owner: object
    attr: str
    name: str
    hook: Hook | None = None


class Tracer:
    """In-memory span store plus per-layer counters fed by result hooks.

    A hook runs after its span has closed, so the little time it takes is
    charged to the parent span's self time.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.solve = array("q")
        self.stack: list[int] = []
        self.solve_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.subproblems: dict[int, set] = defaultdict(set)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook: Hook | None = None):
        nid = self._intern(name)
        clock = time.perf_counter_ns
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.solve.append(self.solve_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for t in targets:
                # Class attributes are read raw, so methods stay plain functions.
                raw = vars(t.owner)[t.attr]
                saved.append((t.owner, t.attr, raw))
                setattr(t.owner, t.attr, self.wrap(t.name, raw, t.hook))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def span_count(self) -> int:
        return len(self.start)

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, total and self time in nanoseconds."""
        if not len(self.start):
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        table = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            table[name] = {
                "calls": int(mask.sum()),
                "total_ns": int(dur[mask].sum()),
                "self_ns": int(self_ns[mask].sum()),
            }
        return table


# ---------------------------------------------------------------------------
# result hooks: counters read from what the layer returned


def _lp_hook(tr: Tracer, args, kwargs, sol):
    lpm = args[0]
    tr.counters["lp.pivots"] += sol.pivots
    tr.counters["lp.tableau_cells"] += tableau_cells(lpm)


def tableau_cells(lpm) -> int:
    """Cells of the dense tableau ``solve_lp`` builds for this program.

    This is a model of ``solve_lp``'s tableau layout, not a reading taken
    from it.  Rows: one per <= / >= constraint, two per equality, one per
    finite upper bound; columns: structural, slack, one artificial per
    negative right-hand side (after shifting by the lower bounds), plus the
    rhs.  A change to that layout (bounds handled inside the simplex, say)
    must update this function and its test in the same change, or the
    counter reports the old layout.
    """
    shift = lpm.lower
    rows = 0
    negative = 0
    for con in lpm.rows:
        rhs = con.rhs - float(con.coeffs @ shift)
        if con.rel == "==":
            rows += 2
            negative += 1 if rhs != 0.0 else 0
        else:
            rows += 1
            b = rhs if con.rel == "<=" else -rhs
            negative += 1 if b < 0 else 0
    hi = lpm.upper - shift
    finite = np.isfinite(hi)
    rows += int(finite.sum())
    negative += int((hi[finite] < 0).sum())
    return (rows + 1) * (lpm.n_vars + rows + negative + 1)


def _cut_loop_hook(tr: Tracer, args, kwargs, loop):
    tr.counters["lp.cut_rounds"] += loop.rounds
    tr.counters["lp.cuts_added"] += loop.cuts_added


def _ptas_hook(tr: Tracer, args, kwargs, sol):
    tr.counters["ranking.prefixes"] += sol.diagnostics.get("prefixes", 0)


def _ball_scheme_hook(tr: Tracer, args, kwargs, res):
    tr.counters["dispersion.pairs_total"] += res.diagnostics.get("pairs_total", 0)
    tr.counters["dispersion.pairs_admissible"] += res.diagnostics.get("pairs_admissible", 0)


def _ball_hook(tr: Tracer, args, kwargs, out):
    dks_inst, ball = out
    tr.subproblems[tr.solve_id].add((ball.nodes, ball.forced, ball.k))


def _dks_hook(tr: Tracer, args, kwargs, res):
    diag = res.diagnostics
    cands = sum(diag.get("candidates_per_part", ()))
    anchors = diag.get("anchors_used", 0)
    tr.counters["dks.candidates"] += cands
    tr.counters["dks.anchors_used"] += anchors
    tr.counters["dks.admission_cells"] += anchors * cands * args[0].n
    tr.counters["dks.fast_path_calls"] += 1 if diag.get("fast_path") else 0


SOLVE_TARGETS = (
    Target(ranking, "ptas_dcg", "ranking.ptas_dcg", _ptas_hook),
    Target(ranking, "solve_dcg_lp", "ranking.solve_dcg_lp"),
    Target(ranking, "solve_with_cuts", "lp.solve_with_cuts", _cut_loop_hook),
    Target(lp, "solve_lp", "lp.solve_lp", _lp_hook),
    Target(ranking, "dcg_separation", "ranking.dcg_separation"),
    Target(ranking.KnapsackCut, "to_constraint", "ranking.KnapsackCut.to_constraint"),
    Target(ranking, "round_lp", "ranking.round_lp"),
    Target(ranking, "dcg_value", "ranking.dcg_value"),
    Target(core.RngState, "child", "core.RngState.child"),
    Target(core.SubmodularSpec, "value", "core.SubmodularSpec.value"),
    Target(dispersion, "qptas_dispersion", "dispersion.qptas_dispersion", _ball_scheme_hook),
    Target(dispersion, "build_dks_from_ball", "dispersion.build_dks_from_ball", _ball_hook),
    Target(diversification, "build_dks_from_ball", "dispersion.build_dks_from_ball", _ball_hook),
    Target(dispersion, "greedy_dispersion", "dispersion.greedy_dispersion"),
    Target(dks, "submodular_dks", "dks.submodular_dks", _dks_hook),
    Target(diversification, "submodular_dks", "dks.submodular_dks", _dks_hook),
    Target(diversification, "diversify", "diversification.diversify", _ball_scheme_hook),
    Target(
        diversification,
        "greedy_diversification",
        "diversification.greedy_diversification",
    ),
)

SETUP_TARGETS = (
    Target(generators, "gen_setsystem", "generators"),
    Target(generators, "gen_random_euclidean", "generators"),
    Target(generators, "gen_submodular", "generators"),
    Target(io, "save_instance", "io.save_instance"),
    Target(io, "loads_instance", "io.loads_instance"),
    Target(ranking, "brute_force_dcg", "oracles.brute_force"),
    Target(dispersion, "brute_force_dispersion", "oracles.brute_force"),
    Target(diversification, "brute_force_diversification", "oracles.brute_force"),
)
