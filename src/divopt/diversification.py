"""Max-sum diversification: maximize disp(S) + f(S) over |S| = p.

The (center, witness) ball loop is the one dispersion uses
(``dispersion._ball_scheme``); the only new ingredient is that the bonus
function rides into the density solver as a rescaled value oracle over the
ball's ground set, with the points outside the core ball fixed inside every
evaluation.  An unweighted coverage bonus is scored for all of a ball's
candidates in one matrix product; any other bonus once per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import (
    InstanceError,
    MetricInstance,
    RngState,
    SubmodularSpec,
    as_value_oracle,
    disp,
    disp_cross,
    dive,
)
from .dispersion import LemmaCheck, _ball_scheme, _brute_force, _lemma_ratio
from .dks import SubDksParams
# Still bound here because perfbench's tracer wraps these attributes by name.
from .dispersion import build_dks_from_ball  # noqa: F401
from .dks import submodular_dks  # noqa: F401

__all__ = [
    "DiversificationInstance",
    "DiversificationResult",
    "diversify",
    "check_div_structural_lemma",
    "greedy_diversification",
    "brute_force_diversification",
]


@dataclass
class DiversificationInstance:
    metric: MetricInstance
    f: SubmodularSpec
    p: int

    def __post_init__(self):
        if isinstance(self.f, SubmodularSpec) and self.f.n != self.metric.n:
            raise InstanceError("bonus function ground set must match the metric")
        if not 1 <= self.p <= self.metric.n:
            raise InstanceError("need 1 <= p <= n")


@dataclass
class DiversificationResult:
    selection: tuple
    value: float
    disp_value: float
    f_value: float
    origin: str
    diagnostics: dict = field(default_factory=dict)


def diversify(
    dinst: DiversificationInstance,
    epsilon: float,
    rng: RngState,
    *,
    inner_mode: str = "exact",
    enum_cap: int = SubDksParams.enum_cap,
    inner_gamma: float | None = None,
    exact_budget: int = SubDksParams.exact_budget,
) -> DiversificationResult:
    """Ball-decomposition scheme for dispersion plus a submodular bonus.

    For each ball the loop solves, the bonus enters the density solver
    as h(C) = f(points outside the core ball, plus C) / (k (k-1) delta*), so
    the solver's h + den value is exactly dive(candidate) rescaled.  Expected
    guarantee (1 - eps) disp(OPT) + (1 - 1/e - eps) f(OPT); with the bonus
    identically zero the run matches qptas_dispersion seed for seed.
    """
    inst = dinst.metric
    oracle = as_value_oracle(dinst.f)
    f = oracle if dinst.f is None else dinst.f
    sel, val, origin, diagnostics = _ball_scheme(
        inst, dinst.p, epsilon, rng, f, lambda: greedy_diversification(dinst), inner_gamma,
        mode=inner_mode, enum_cap=enum_cap, exact_budget=exact_budget,
    )
    return DiversificationResult(
        sel, val, disp(sel, inst), float(oracle(frozenset(sel))), origin, diagnostics
    )


def check_div_structural_lemma(dinst: DiversificationInstance, Sopt) -> LemmaCheck:
    """Min over witnesses v of dive(S) / (p (p-1) d(u_min, v) / 16).

    u_min minimizes the dispersion part only (distance sum to S, ties to the
    lowest index); the bonus strengthens the numerator.
    """
    return _lemma_ratio(dinst.metric, dinst.p, Sopt, lambda S: dive(S, dinst.metric, dinst.f))


def greedy_diversification(dinst: DiversificationInstance) -> tuple:
    """Marginal greedy on bonus gain plus distance sum to the chosen set."""
    inst, p = dinst.metric, dinst.p
    oracle = as_value_oracle(dinst.f)
    chosen: list[int] = []
    current_f = float(oracle(frozenset()))
    for _ in range(p):
        best_x, best_gain = None, -math.inf
        for x in range(inst.n):
            if x in chosen:
                continue
            gain = (
                float(oracle(frozenset(chosen) | {x})) - current_f
                + disp_cross([x], chosen, inst)
            )
            if gain > best_gain:
                best_x, best_gain = x, gain
        chosen.append(best_x)
        current_f = float(oracle(frozenset(chosen)))
    return tuple(sorted(chosen))


def brute_force_diversification(dinst: DiversificationInstance, guard: int = 1_000_000):
    """Exact dive optimum; returns (selection, dive, disp part, bonus part)."""
    inst = dinst.metric
    oracle = as_value_oracle(dinst.f)
    sel, val = _brute_force(inst, dinst.p, guard, lambda S: dive(S, inst, oracle))
    return sel, val, disp(sel, inst), float(oracle(frozenset(sel)))
