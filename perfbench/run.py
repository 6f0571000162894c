#!/usr/bin/env python3
"""divopt benchmark: solver workloads in a closed loop, with a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload dcg-rounding --seed 1 --seconds 30 --trace 0

One process, one client: each solver call starts when the previous one has
returned, as in a researcher's batch run.  BLAS threads are pinned to 1.
Set-up (generate, divopt.io round-trip, brute-force oracles, greedy
baselines) runs once before the timed phase and is repeated between solves
about once every ``SETUP_EVERY_S`` seconds of the run; ``setup_s`` is the
median of the repeats.  The timed phase runs whole passes over the solve
list, at least ``MIN_PASSES`` and then until the next pass would overrun
``--seconds``; every solve is checked.  ``solve_p50_ms`` and
``solve_tail_ms`` are percentiles over every solve of every pass (the tail
percentile is fixed per workload: the highest with at least ten samples
beyond it in two passes); ``solves_per_s`` is the median over passes of
solves per second of pass wall time, set-up repeats excluded; ``ratio_mean``
and ``ratio_min`` compare each value with the brute-force optimum;
``success_rate`` is 1 minus failed over attempted solves.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the same solves and prints per-layer metrics:
calls, counters and self times per pass from spans recorded around divopt's
public functions (solve layers as shares of the traced solve time, set-up
layers in ms), plus the tracing overhead.  Before the result, one
``{"report": ...}`` line records the machine, versions, thread settings,
seed, solve count, tail percentile, output digest, set-up time per phase and
the times of a fixed reference loop run next to each set-up repeat.  The
last line is the result object.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported in this process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up takes 0.04-0.16 s while a shared machine's speed switches by up to
# 1.5x every few seconds, so repeats made back to back all land in one state.
# Repeating set-up between solves about once a second spreads the repeats
# over the whole run, and their median sees the same mix of states as the
# solves.
SETUP_EVERY_S = 1.0

# Iterations of the reference loop timed next to every set-up repeat.
REFERENCE_LOOP = 100_000

# Every solve list is run at least twice, so each run also checks that
# repeated solves return identical outputs.
MIN_PASSES = 2

END_TO_END = {
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "ratio_mean": "ratio",
    "ratio_min": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lp.solve_lp.calls": "count",
    "lp.solve_lp.self_share": "ratio",
    "lp.pivots": "count",
    "lp.tableau_cells": "count",
    "lp.cut_rounds": "count",
    "lp.cuts_added": "count",
    "lp.solve_with_cuts.self_share": "ratio",
    "ranking.ptas_dcg.self_share": "ratio",
    "ranking.prefixes": "count",
    "ranking.solve_dcg_lp.calls": "count",
    "ranking.solve_dcg_lp.self_share": "ratio",
    "ranking.lp_cache_hit_ratio": "ratio",
    "ranking.dcg_separation.self_share": "ratio",
    "ranking.KnapsackCut.to_constraint.self_share": "ratio",
    "ranking.round_lp.calls": "count",
    "ranking.round_lp.self_share": "ratio",
    "ranking.dcg_value.calls": "count",
    "ranking.dcg_value.self_share": "ratio",
    "core.RngState.child.calls": "count",
    "core.RngState.child.self_share": "ratio",
    "core.SubmodularSpec.value.calls": "count",
    "core.SubmodularSpec.value.self_share": "ratio",
    "dispersion.qptas_dispersion.self_share": "ratio",
    "dispersion.pairs_total": "count",
    "dispersion.pairs_admissible": "count",
    "dispersion.build_dks_from_ball.self_share": "ratio",
    "dispersion.greedy_dispersion.self_share": "ratio",
    "dispersion.distinct_subproblem_ratio": "ratio",
    "dks.submodular_dks.calls": "count",
    "dks.submodular_dks.self_share": "ratio",
    "dks.candidates": "count",
    "dks.anchors_used": "count",
    "dks.admission_cells": "count",
    "dks.fast_path_share": "ratio",
    "diversification.diversify.self_share": "ratio",
    "diversification.greedy_diversification.self_share": "ratio",
    "diversification.seed_invariant_share": "ratio",
    "io.save_instance.self_ms": "ms",
    "io.loads_instance.self_ms": "ms",
    "generators.self_ms": "ms",
    "oracles.brute_force.self_ms": "ms",
    "trace.solve_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.self_time_share": "ratio",
    "trace.spans": "count",
}

# Solve-phase self times are reported as shares of the traced solve time
# (``trace.solve_ms`` per pass), so a layer a workload never enters reads a
# share of 0 rather than a constant time; set-up layers run on every workload
# and are reported in ms.  Below: span names whose call counts are reported,
# and counters read from results.
CALL_COUNTS = (
    "lp.solve_lp",
    "ranking.solve_dcg_lp",
    "ranking.round_lp",
    "ranking.dcg_value",
    "core.RngState.child",
    "core.SubmodularSpec.value",
    "dks.submodular_dks",
)
COUNTERS = (
    "lp.pivots",
    "lp.tableau_cells",
    "lp.cut_rounds",
    "lp.cuts_added",
    "ranking.prefixes",
    "dispersion.pairs_total",
    "dispersion.pairs_admissible",
    "dks.candidates",
    "dks.anchors_used",
    "dks.admission_cells",
)


def import_divopt():
    """Import divopt from this checkout's ``src``; exit with status 1 when it is absent."""
    if not (SRC / "divopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no divopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import divopt

    if Path(divopt.__file__).resolve().parent != (SRC / "divopt").resolve():
        sys.exit(f"perfbench: imported divopt from {divopt.__file__}, not from {SRC}")


class PassResult:
    """Latencies, outcomes and check failures of one pass over the solve list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.lines: list[str] = []
        self.outcomes: list = []
        self.failures: list[str] = []
        self.wall = 0.0  # the whole pass, checks included

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


def run_pass(w, solves, checked: bool, tracer=None, between=None) -> PassResult:
    """Solve every (fixture, seed) in order; ``between`` runs after each
    solve, and its time is left out of the pass wall time."""
    from workloads import check, digest_line

    res = PassResult()
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    for sid, (fx, seed) in enumerate(solves):
        if tracer is not None:
            tracer.solve_id = sid
        t0 = clock()
        try:
            out = w.solve(fx, seed)
            err = None
        except Exception as exc:  # a failed solve is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        res.latencies.append(clock() - t0)
        res.outcomes.append(out)
        res.lines.append(digest_line(fx, seed, out))
        if checked:
            if err is None:
                err = check(w, fx, out)
            if err is not None:
                res.failures.append(f"fixture {fx.index} seed {seed}: {err}")
        if between is not None:
            t0 = clock()
            between()
            paused += clock() - t0
    res.wall = clock() - start - paused
    return res


def set_up_timed(w, seed: int, workdir: Path, log: list, tracer=None):
    """Set up once, under ``tracer`` when one is given; append the seconds it
    took and its per-phase seconds to ``log``; return fixtures and solves."""
    from tracing import SETUP_TARGETS
    from workloads import set_up

    sub = workdir / f"setup-{len(log)}"
    sub.mkdir()
    t0 = time.perf_counter()
    with tracer.installed(SETUP_TARGETS) if tracer is not None else nullcontext():
        fxs, solves, phases = set_up(w, seed, sub)
    log.append((time.perf_counter() - t0, phases))
    shutil.rmtree(sub)
    return fxs, solves


def reference_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes: a gauge of the machine's speed
    at that moment that no change to divopt moves, so a report can show
    whether a run met a slow period of a shared machine."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - t0


def closed_loop(seconds: float, step, min_steps: int):
    """Call ``step`` at least ``min_steps`` times, then until the next call
    would overrun ``seconds``."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - t0
        if len(results) >= min_steps and elapsed + elapsed / len(results) > seconds:
            return results


def seed_invariant_share(solves, outcomes) -> float:
    """Share of multi-seed fixtures whose outcome is the same for every seed."""
    by_fixture: dict[int, list] = {}
    for (fx, _), out in zip(solves, outcomes):
        key = None if out is None else (out.value, out.selection)
        by_fixture.setdefault(fx.index, []).append(key)
    multi = [set(keys) for keys in by_fixture.values() if len(keys) > 1]
    return sum(len(keys) == 1 for keys in multi) / len(multi) if multi else 0.0


def end_to_end_metrics(w, passes, solves, setup_log):
    lat_ms = [x * 1000.0 for p in passes for x in p.latencies]
    first = passes[0]
    ratios = [
        out.value / fx.optimum
        for (fx, _), out in zip(solves, first.outcomes)
        if out is not None and fx.optimum > 0
    ]
    attempted = len(lat_ms)
    failed = sum(len(p.failures) for p in passes)
    values = {
        "solve_p50_ms": statistics.median(lat_ms),
        "solve_tail_ms": statistics.quantiles(lat_ms, n=100, method="inclusive")[w.tail_pct - 1],
        "solves_per_s": statistics.median(len(p.latencies) / p.wall for p in passes),
        "setup_s": statistics.median(t for t, _ in setup_log),
        "ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "ratio_min": min(ratios) if ratios else 0.0,
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for x in lat_ms if x > values["solve_tail_ms"])
    info = {
        "tail_percentile": w.tail_pct,
        "samples": attempted,
        "samples_beyond_tail": beyond,
        "setup_repeats": len(setup_log),
        "setup_s_each": [t for t, _ in setup_log],
        "setup_phase_s_median": {
            phase: statistics.median(p[phase] for _, p in setup_log) for phase in setup_log[0][1]
        },
    }
    return values, attempted, failed, info


def layer_metrics(solve_tracer, setup_tracer, traced, untraced, solves, first_outcomes):
    tpasses = len(traced)
    table = solve_tracer.layer_table()
    setup_table = setup_tracer.layer_table()
    counters = solve_tracer.counters

    def calls(name):
        return table.get(name, {}).get("calls", 0) / tpasses

    traced_busy = sum(p.busy for p in traced)
    values = {f"{name}.calls": calls(name) for name in CALL_COUNTS}
    values.update({name: counters.get(name, 0.0) / tpasses for name in COUNTERS})
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "self_share":
            values[name] = table.get(layer, {}).get("self_ns", 0) / 1e9 / traced_busy
        elif kind == "self_ms":
            values[name] = setup_table.get(layer, {}).get("self_ns", 0) / 1e6
    prefixes = values["ranking.prefixes"]
    values["ranking.lp_cache_hit_ratio"] = (
        1.0 - values["ranking.solve_dcg_lp.calls"] / prefixes if prefixes else 0.0
    )
    admissible = values["dispersion.pairs_admissible"]
    distinct = sum(len(s) for s in solve_tracer.subproblems.values())
    values["dispersion.distinct_subproblem_ratio"] = distinct / admissible if admissible else 0.0
    dks_calls = values["dks.submodular_dks.calls"]
    values["dks.fast_path_share"] = (
        counters.get("dks.fast_path_calls", 0.0) / tpasses / dks_calls if dks_calls else 0.0
    )
    values["diversification.seed_invariant_share"] = seed_invariant_share(solves, first_outcomes)
    untraced_busy = sum(p.busy for p in untraced)
    self_total = sum(v["self_ns"] for v in table.values()) / 1e9
    values["trace.solve_ms"] = traced_busy * 1000.0 / tpasses
    values["trace.overhead_ratio"] = traced_busy / untraced_busy
    values["trace.self_time_share"] = self_total / traced_busy
    values["trace.spans"] = solve_tracer.span_count() / tpasses
    top = sorted(
        ((k, v["self_ns"] / 1e9 / tpasses) for k, v in table.items()),
        key=lambda kv: -kv[1],
    )
    info = {
        "traced_passes": tpasses,
        "traced_busy_s_per_pass": traced_busy / tpasses,
        "untraced_busy_s_per_pass": untraced_busy / len(untraced),
        "self_s_per_pass": [[k, round(v, 6)] for k, v in top if v > 0],
    }
    return values, info


def machine_info() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return (result object, report dict)."""
    from tracing import SOLVE_TARGETS, Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_work"))
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    report.update(machine_info())
    try:
        if not trace:
            setup_log: list = []
            reference: list[float] = []
            fxs, solves = set_up_timed(w, seed, workdir, setup_log)
            last_setup = time.perf_counter()

            def between():
                nonlocal last_setup
                if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                    set_up_timed(w, seed, workdir, setup_log)
                    reference.append(reference_loop_s())
                    last_setup = time.perf_counter()

            def step():
                return run_pass(w, solves, True, between=between)

            passes = closed_loop(seconds, step, MIN_PASSES)
            metrics, attempted, failed, info = end_to_end_metrics(w, passes, solves, setup_log)
            report.update(info)
            report["reference_loop_ms"] = [x * 1000.0 for x in reference]
            digests = {p.digest() for p in passes}
            report["passes"] = len(passes)
            failures = [f for p in passes for f in p.failures]
            first = passes[0]
        else:
            setup_tracer = Tracer()
            fxs, solves = set_up_timed(w, seed, workdir, [], setup_tracer)
            solve_tracer = Tracer()

            def pair():
                plain = run_pass(w, solves, True)
                with solve_tracer.installed(SOLVE_TARGETS):
                    traced = run_pass(w, solves, False, solve_tracer)
                return plain, traced

            pairs = closed_loop(seconds, pair, 1)
            untraced = [p for p, _ in pairs]
            traced = [t for _, t in pairs]
            first = untraced[0]
            failures = [f for p in untraced for f in p.failures]
            for t in traced:
                for sid, (line, ref) in enumerate(zip(t.lines, first.lines)):
                    if line != ref:
                        failures.append(f"solve {sid}: traced output differs: {line}")
            attempted = sum(len(p.latencies) for p in untraced + traced)
            failed = len(failures)
            metrics, info = layer_metrics(
                solve_tracer, setup_tracer, traced, untraced, solves, first.outcomes
            )
            report.update(info)
            digests = {p.digest() for p in untraced + traced}
            report["passes"] = len(pairs)
        report["solves_per_pass"] = len(solves)
        report["fixtures"] = len(fxs)
        report["digest"] = first.digest()
        report["digests_agree"] = len(digests) == 1
        report["failures"] = failures[:20]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_divopt()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
