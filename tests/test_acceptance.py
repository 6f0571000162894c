"""Acceptance suite: eleven end-to-end checks over seeded fixture families.

Each test prints one PASS/FAIL line with its measured statistic before
asserting, so a full run documents every criterion's outcome.
"""

import filecmp
import itertools
import math
import time

import numpy as np
import pytest

from divopt.cli import main as cli_main
from divopt.core import MetricInstance, RngState, disp, dive, validate_metric
from divopt.diversification import (
    DiversificationInstance,
    brute_force_diversification,
    check_div_structural_lemma,
    diversify,
)
from divopt.dispersion import (
    brute_force_dispersion,
    check_structural_lemma,
    greedy_dispersion,
    qptas_dispersion,
)
from divopt.dks import (
    SubDksParams,
    brute_force_subdks,
    den,
    dks_additive,
    submodular_dks,
)
from divopt.generators import (
    coverage_to_dcg,
    dks_to_dispersion,
    gen_planted_dks,
    gen_random_dks,
    gen_random_euclidean,
    gen_random_metric,
    gen_regular_coverage,
    gen_setsystem,
    gen_submodular,
)
from divopt.ranking import (
    DCG_STANDARD,
    Ranking,
    brute_force_dcg,
    dcg_separation,
    dcg_value,
    ptas_dcg,
    solve_dcg_lp,
)

DKS_FIXTURES = [
    gen_random_dks(
        8 + (seed % 5),
        3 + (seed % 4),
        seed=seed,
        forced_count=1 if seed % 10 == 0 else 0,
    )
    for seed in range(100)
]

_BRUTE_DKS_CACHE: dict = {}


def brute_dks_value(idx: int) -> float:
    if idx not in _BRUTE_DKS_CACHE:
        _BRUTE_DKS_CACHE[idx] = brute_force_subdks(DKS_FIXTURES[idx])[1]
    return _BRUTE_DKS_CACHE[idx]


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")


def test_criterion_1_one_cell_density_equals_brute():
    t0 = time.perf_counter()
    params = SubDksParams(gamma=1.0, s=1, enum_cap=10**6, mode="exact")
    worst = 0.0
    hits = 0
    for idx, inst in enumerate(DKS_FIXTURES):
        res = submodular_dks(inst, None, params, RngState(idx))
        opt = brute_dks_value(idx)
        gap = abs(res.value - opt)
        worst = max(worst, gap)
        if gap <= 1e-9:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits == 100 and elapsed < 120.0
    report(
        1,
        ok,
        f"one-cell exact density matched brute on {hits}/100 fixtures "
        f"(worst gap {worst:.2e}) in {elapsed:.1f}s (budget 120s)",
    )
    assert ok


def test_criterion_2_additive_guarantee_at_default_parameters():
    hits = 0
    worst = -math.inf
    for idx, inst in enumerate(DKS_FIXTURES):
        res = dks_additive(inst, 0.1, RngState(idx), mode="exact")
        opt = brute_dks_value(idx)
        slack = res.value - (opt - 0.1)
        worst = min(worst, slack) if worst != -math.inf else slack
        if res.value >= opt - 0.1 - 1e-12:
            hits += 1
    ok = hits == 100
    report(
        2,
        ok,
        f"density within additive 0.1 of brute on {hits}/100 fixtures "
        f"(tightest slack {worst:.3f})",
    )
    assert ok


def test_criterion_3_mean_bonus_guarantee():
    gamma = 0.1
    failures = []
    margins = []
    for i in range(20):
        seed = 200 + i
        n = 8 + (i % 4)
        k = 4 + (i % 3)
        inst = gen_random_dks(n, k, seed=seed)
        h = gen_submodular(n, "coverage", seed=seed + 1000, universe=8)
        hopt_T, _ = brute_force_subdks(inst, h)
        # Bound uses h(OPT) and den(OPT) of the combined optimum.
        h_opt = h.value(frozenset(hopt_T))
        den_opt = den(hopt_T, inst)
        rhs = (1.0 - 1.0 / math.e - gamma) * h_opt + den_opt - gamma
        params = SubDksParams(gamma=gamma, enum_cap=200_000, mode="exact")
        vals = [
            submodular_dks(inst, h, params, RngState(trial)).value
            for trial in range(50)
        ]
        mean = sum(vals) / len(vals)
        margins.append(mean - rhs)
        if mean < rhs - 1e-6:
            failures.append((seed, mean, rhs))
    ok = not failures
    report(
        3,
        ok,
        f"mean of 50 seeded runs beat the (1-1/e-g) h + den - g bound on "
        f"{20 - len(failures)}/20 fixtures (min margin {min(margins):.3f})",
    )
    assert ok


def test_criterion_4_lp_bounds_and_separation_agreement():
    lp_hits = 0
    for seed in range(100):
        inst = gen_setsystem(4 + (seed % 4), 2 + (seed % 5), 3, seed=seed + 50)
        res = solve_dcg_lp(inst, DCG_STANDARD)
        _, opt = brute_force_dcg(inst)
        if res.objective >= opt - 1e-6:
            lp_hits += 1

    agree = 0
    total = 0
    worst_dev = 0.0
    rng = RngState(4)
    for block in range(10):
        # Generated demand sets never exceed four members, so the subset
        # scan stays at most 2^4 per (set, t).
        inst = gen_setsystem(5, 3, 2, seed=5000 + block)
        g = rng.child(block).gen
        for _ in range(1000):
            x = g.random((inst.n, inst.n))
            y = g.random((inst.m, inst.n))
            cuts = dcg_separation(x, y, inst)
            got = {(c.set_index, c.t): c.violation for c in cuts}
            z = np.cumsum(x, axis=1)
            want = {}
            for s, (members, k) in enumerate(inst.sets):
                elems = sorted(members)
                for t in range(1, inst.n + 1):
                    best = 0.0
                    for r in range(len(elems) + 1):
                        for a in itertools.combinations(elems, r):
                            rest = sum(z[e, t - 1] for e in elems if e not in a)
                            best = max(best, (k - r) * y[s, t - 1] - rest)
                    if best > 1e-9:
                        want[(s, t)] = best
            total += 1
            if set(got) == set(want):
                dev = max(
                    (abs(got[key] - want[key]) for key in got), default=0.0
                )
                worst_dev = max(worst_dev, dev)
                if dev <= 1e-12:
                    agree += 1
    ok = lp_hits == 100 and agree == total
    report(
        4,
        ok,
        f"cut LP bounded brute DCG on {lp_hits}/100 fixtures; separation matched "
        f"exhaustive subset scan on {agree}/{total} random points "
        f"(worst violation deviation {worst_dev:.2e})",
    )
    assert ok


def test_criterion_5_ptas_ratio_and_permutations():
    hits = 0
    perms = 0
    ratios = []
    for seed in range(300, 400):
        n = 5 + (seed % 3)
        inst = gen_setsystem(n, 3 + (seed % 3), 3, seed=seed)
        res = ptas_dcg(inst, 0.1, RngState(seed), u=2, gamma=0.05, trials=200)
        if sorted(res.ranking.order) == list(range(n)):
            perms += 1
        _, opt = brute_force_dcg(inst)
        ratio = res.value / opt if opt > 0 else 1.0
        ratios.append(ratio)
        if res.value >= 0.95 * opt - 1e-12:
            hits += 1
    ok = hits >= 95 and perms == 100
    report(
        5,
        ok,
        f"prefix + rounding hit 0.95 OPT on {hits}/100 fixtures (need >= 95), "
        f"valid permutations {perms}/100 (min ratio {min(ratios):.4f})",
    )
    assert ok


def test_criterion_6_structural_ratio_on_brute_optima():
    checked = 0
    hits = 0
    worst = math.inf
    for seed in range(400, 500):
        inst = gen_random_euclidean(8 + (seed % 5), 2, seed=seed)
        p = 3 + (seed % 4)
        sel, _ = brute_force_dispersion(inst, p)
        chk = check_structural_lemma(inst, p, sel)
        checked += 1
        worst = min(worst, chk.ratio)
        if chk.ratio >= 1.0:
            hits += 1
    for seed in range(500, 600):
        inst = gen_random_metric(8 + (seed % 5), seed=seed)
        p = 3 + (seed % 4)
        f = gen_submodular(inst.n, "coverage", seed=seed, universe=6)
        dinst = DiversificationInstance(inst, f, p)
        sel, _, _, _ = brute_force_diversification(dinst)
        chk = check_div_structural_lemma(dinst, sel)
        checked += 1
        worst = min(worst, chk.ratio)
        if chk.ratio >= 1.0:
            hits += 1
    ok = hits == checked == 200
    report(
        6,
        ok,
        f"center-witness ratio >= 1 on {hits}/{checked} brute optima "
        f"(worst ratio {worst:.3f}, no tolerance)",
    )
    assert ok


def test_criterion_7_planted_reductions_solved_exactly():
    exact = 0
    runs = 0
    greedy_hits = 0
    greedy_runs = 0
    for seed in range(600, 640):
        n = 6 + (seed % 7)
        k = 3 + (seed % 4)
        if k >= n:
            k = n - 1
        dks = gen_planted_dks(n, k, seed=seed)
        metric, p = dks_to_dispersion(dks)
        target = float(k * (k - 1))
        for sub_seed in range(2):
            res = qptas_dispersion(metric, p, 0.5, RngState(sub_seed))
            runs += 1
            if res.value == target:
                exact += 1
        _, opt = brute_force_dispersion(metric, p)
        gsel = greedy_dispersion(metric, p)
        greedy_runs += 1
        if disp(gsel, metric) >= 0.5 * opt - 1e-12:
            greedy_hits += 1
    ok = exact == runs and greedy_hits == greedy_runs
    report(
        7,
        ok,
        f"planted reduction solved exactly (float equality) on {exact}/{runs} runs; "
        f"pair greedy >= 0.5 OPT on {greedy_hits}/{greedy_runs} fixtures",
    )
    assert ok


def test_criterion_8_dispersion_ratio_with_desk_overrides():
    hits = 0
    flags_ok = 0
    ratios = []
    for seed in range(700, 800):
        inst = gen_random_euclidean(8 + (seed % 5), 2, seed=seed)
        p = 3 + (seed % 4)
        res = qptas_dispersion(
            inst, p, 0.5, RngState(seed), inner_mode="exact", inner_gamma=0.02
        )
        if res.diagnostics["theory_parameters"] is False:
            flags_ok += 1
        _, opt = brute_force_dispersion(inst, p)
        ratio = res.value / opt if opt > 0 else 1.0
        ratios.append(ratio)
        if res.value >= 0.9 * opt - 1e-12:
            hits += 1
    ok = hits >= 95 and flags_ok == 100
    report(
        8,
        ok,
        f"ball scheme hit 0.9 OPT on {hits}/100 fixtures (need >= 95, "
        f"min ratio {min(ratios):.4f}); override recorded as non-theoretical "
        f"on {flags_ok}/100",
    )
    assert ok


def test_criterion_9_diversification_mean_guarantee():
    eps = 0.3
    failures = []
    margins = []
    for i in range(20):
        seed = 800 + i
        n = 7 + (i % 3)
        p = 3 + (i % 2)
        inst = gen_random_euclidean(n, 2, seed=seed)
        f = gen_submodular(n, "coverage", seed=seed, universe=6)
        dinst = DiversificationInstance(inst, f, p)
        sel, _, disp_opt, f_opt = brute_force_diversification(dinst)
        rhs = (1.0 - eps) * disp_opt + (1.0 - 1.0 / math.e - eps) * f_opt
        vals = [
            diversify(
                dinst, eps, RngState(trial), inner_mode="exact", inner_gamma=0.02
            ).value
            for trial in range(50)
        ]
        mean = sum(vals) / len(vals)
        margins.append(mean - rhs)
        if mean < rhs - 1e-6:
            failures.append(seed)
    ok = not failures
    report(
        9,
        ok,
        f"mean diversification value beat (1-e)disp + (1-1/e-e)f on "
        f"{20 - len(failures)}/20 fixtures (min margin {min(margins):.3f})",
    )
    assert ok


def test_criterion_10_reduction_identities_and_metric_validity():
    # Planted-ordering DCG value under the coverage reduction.
    dcg_ok = True
    for M, k, extras in ((12, 3, 2), (8, 2, 0), (20, 4, 3), (9, 3, 1)):
        cov = gen_regular_coverage(M, k, seed=M * 10 + k, extra_sets=extras)
        inst = coverage_to_dcg(cov)
        order = tuple(range(inst.n))
        value = dcg_value(Ranking.from_order(order, inst), inst, DCG_STANDARD)
        want = sum((M / k) / math.log2(i + 1) for i in range(1, k + 1))
        if abs(value - want) > 1e-9 or abs(inst.meta["planted_dcg"] - want) > 1e-9:
            dcg_ok = False

    # Affine density identity, exhaustively over all teams of size >= 2.
    affine_ok = True
    dks = gen_random_dks(10, 4, seed=77)
    metric, _ = dks_to_dispersion(dks)
    for size in range(2, 11):
        for T in itertools.combinations(range(10), size):
            pairs = size * (size - 1) / 2.0
            if abs(disp(T, metric) - pairs * (1.0 + den(T, dks))) > 1e-9:
                affine_ok = False

    # Every generated metric validates.
    valid = 0
    total = 0
    for seed in range(20):
        for inst in (
            gen_random_euclidean(10, 3, seed=seed),
            gen_random_metric(10, seed=seed),
            dks_to_dispersion(gen_random_dks(9, 3, seed=seed))[0],
            dks_to_dispersion(gen_planted_dks(9, 3, seed=seed))[0],
        ):
            total += 1
            if validate_metric(inst).ok:
                valid += 1
    ok = dcg_ok and affine_ok and valid == total
    report(
        10,
        ok,
        f"planted-ordering DCG identity {'held' if dcg_ok else 'failed'}; "
        f"affine disp/den identity {'held on all 1013 teams' if affine_ok else 'failed'}; "
        f"metric validation {valid}/{total}",
    )
    assert ok


def test_criterion_11_cli_reruns_are_byte_identical(tmp_path):
    gen_jobs = [
        ("m.json", ["gen", "euclidean", "--n", "8", "--seed", "21"]),
        ("d.json", ["gen", "random-dks", "--n", "7", "--k", "3", "--seed", "21"]),
        ("ss.json", ["gen", "setsystem", "--n", "5", "--m", "3", "--seed", "21"]),
        ("f.json", ["gen", "submodular", "--n", "8", "--sub-kind", "coverage",
                    "--universe", "5", "--seed", "21"]),
        ("f7.json", ["gen", "submodular", "--n", "7", "--sub-kind", "coverage",
                     "--universe", "5", "--seed", "21"]),
    ]
    for name, argv in gen_jobs:
        assert cli_main(argv + ["--out", str(tmp_path / name)]) == 0

    solve_jobs = [
        ("dcg", ["solve-dcg", "--in", str(tmp_path / "ss.json"),
                 "--epsilon", "0.3", "--u", "2", "--gamma", "0.05",
                 "--trials", "50", "--seed", "13"]),
        ("disp", ["solve-dispersion", "--in", str(tmp_path / "m.json"),
                  "--p", "3", "--epsilon", "0.5", "--seed", "13"]),
        ("dive", ["solve-diversification", "--in", str(tmp_path / "m.json"),
                  "--bonus", str(tmp_path / "f.json"), "--p", "3",
                  "--epsilon", "0.5", "--seed", "13"]),
        ("dks", ["solve-dks", "--in", str(tmp_path / "d.json"),
                 "--epsilon", "1.0", "--mode", "exact", "--s", "1",
                 "--seed", "13"]),
        ("dksb", ["solve-dks", "--in", str(tmp_path / "d.json"),
                  "--bonus", str(tmp_path / "f7.json"),
                  "--epsilon", "1.0", "--mode", "exact", "--s", "1",
                  "--seed", "13"]),
    ]
    identical = 0
    for tag, argv in solve_jobs:
        first = tmp_path / f"{tag}.1.json"
        second = tmp_path / f"{tag}.2.json"
        code1 = cli_main(argv + ["--out", str(first)])
        code2 = cli_main(argv + ["--out", str(second)])
        if code1 == 0 and code2 == 0 and filecmp.cmp(first, second, shallow=False):
            identical += 1
    ok = identical == len(solve_jobs)
    report(
        11,
        ok,
        f"identical seed and flags reproduced byte-identical result JSON for "
        f"{identical}/{len(solve_jobs)} solver invocations",
    )
    assert ok
