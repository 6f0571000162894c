"""Command-line front end.

Subcommands: gen, convert, solve-dcg, solve-dispersion, solve-diversification,
solve-dks, oracle, check, bench.  Every subcommand accepts --seed, --out, and
--format.  Exit codes: 0 success, 1 usage error, 2 instance or argument
validation error, 3 refused brute-force guard / enumeration or pivot budget.

Solver result JSON deliberately contains no timing, so identical inputs with
identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import CSV_HEADER, records_to_csv, run_bench
from .core import (
    DksInstance,
    GuardExceeded,
    InstanceError,
    MetricInstance,
    RngState,
    SetSystemInstance,
    SubmodularSpec,
    validate_metric,
)
from .diversification import (
    DiversificationInstance,
    brute_force_diversification,
    check_div_structural_lemma,
    diversify,
)
from .dispersion import (
    brute_force_dispersion,
    check_structural_lemma,
    qptas_dispersion,
)
from .dks import SubDksParams, brute_force_subdks, submodular_dks
from .generators import (
    CoverageInstance,
    coverage_to_dcg,
    dks_to_dispersion,
    gen_planted_dks,
    gen_random_dks,
    gen_random_euclidean,
    gen_random_metric,
    gen_regular_coverage,
    gen_setsystem,
    gen_submodular,
    max_coverage_value,
)
from .io import _jsonable, dumps_instance, load_instance
from .lp import LpError
from .ranking import DCG_STANDARD, brute_force_dcg, ptas_dcg, solve_dcg_lp

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    common.add_argument("--out", default=None, help="write output here instead of stdout")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )

    # Shared flags live in parents; argparse lists parent flags first, so --in,
    # --bonus and the scheme flags are separate parents to keep the help order.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--in", dest="infile", required=True)
    bonus = argparse.ArgumentParser(add_help=False)
    bonus.add_argument("--bonus", required=True, help="submodular spec file")
    ball = argparse.ArgumentParser(add_help=False)
    ball.add_argument("--p", type=int, required=True)
    ball.add_argument("--epsilon", type=float, required=True)
    ball.add_argument("--inner", choices=("exact", "scheme"), default="exact")
    ball.add_argument("--enum-cap", type=int, default=200_000)
    ball.add_argument("--inner-gamma", type=float, default=None)
    ball.add_argument("--exact-budget", type=int, default=1_000_000)

    parser = _Parser(prog="divopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", parents=[common], help="generate a seeded instance")
    p.add_argument(
        "type",
        choices=(
            "euclidean",
            "metric",
            "planted-dks",
            "random-dks",
            "coverage",
            "setsystem",
            "submodular",
        ),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--universe", type=int)
    p.add_argument("--extra-sets", type=int, default=0)
    p.add_argument("--no-plant", action="store_true")
    p.add_argument("--forced-count", type=int, default=0)
    p.add_argument("--sub-kind", choices=("modular", "coverage"), default="modular")

    p = sub.add_parser("convert", parents=[common, source], help="apply a reduction to a file")
    p.add_argument("reduction", choices=("dks-to-dispersion", "coverage-to-dcg"))

    p = sub.add_parser("solve-dcg", parents=[common, source], help="prefix + LP rounding ranking")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--prefix-cap", type=int, default=100_000)
    p.add_argument("--max-cut-rounds", type=int, default=80)
    p.add_argument("--dump-lp", default=None, help="also write the cut-LP solution here")

    sub.add_parser(
        "solve-dispersion", parents=[common, source, ball], help="ball-decomposition dispersion"
    )
    sub.add_parser(
        "solve-diversification",
        parents=[common, source, bonus, ball],
        help="dispersion plus submodular bonus",
    )

    p = sub.add_parser("solve-dks", parents=[common, source], help="dense subgraph selection")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--bonus", default=None, help="optional submodular spec file")
    p.add_argument("--mode", choices=("greedy", "exact"), default="greedy")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--enum-cap", type=int, default=200_000)
    p.add_argument("--exact-budget", type=int, default=1_000_000)

    p = sub.add_parser("oracle", parents=[common, source], help="brute-force optimum of a file")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--bonus", default=None)
    p.add_argument("--guard", type=int, default=None)

    p = sub.add_parser(
        "check", parents=[common, source], help="validate a file, optionally a lemma"
    )
    p.add_argument("--selection", default=None, help="comma-separated point ids")
    p.add_argument("--bonus", default=None)

    p = sub.add_parser("bench", parents=[common], help="run a bench spec")
    p.add_argument("--spec", required=True)

    return parser


def _need(args, attr: str, flag: str):
    value = getattr(args, attr)
    if value is None:
        raise UsageError(f"gen {args.type}: missing required {flag}")
    return value


def _result_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _solve_csv(instance: str, algorithm: str, seed: int, epsilon, value: float) -> str:
    row = [instance, algorithm, str(seed), repr(float(epsilon)), repr(float(value)), "", "", ""]
    return CSV_HEADER + "\n" + ",".join(row) + "\n"


def _load_as(path, cls, label: str):
    obj = load_instance(path)
    if not isinstance(obj, cls):
        raise InstanceError(f"{path}: expected a {label} instance")
    return obj


def _load_bonus(path) -> SubmodularSpec:
    return _load_as(path, SubmodularSpec, "submodular-spec")


def _cmd_gen(args) -> str:
    seed = args.seed
    t = args.type
    if t == "euclidean":
        inst = gen_random_euclidean(_need(args, "n", "--n"), args.dim, seed)
    elif t == "metric":
        inst = gen_random_metric(_need(args, "n", "--n"), seed)
    elif t == "planted-dks":
        inst = gen_planted_dks(_need(args, "n", "--n"), _need(args, "k", "--k"), seed)
    elif t == "random-dks":
        inst = gen_random_dks(
            _need(args, "n", "--n"), _need(args, "k", "--k"), seed, args.forced_count
        )
    elif t == "coverage":
        inst = gen_regular_coverage(
            _need(args, "universe", "--universe"),
            _need(args, "k", "--k"),
            seed,
            planted=not args.no_plant,
            extra_sets=args.extra_sets,
        )
    elif t == "setsystem":
        inst = gen_setsystem(
            _need(args, "n", "--n"), _need(args, "m", "--m"), args.kmax, seed
        )
    else:
        inst = gen_submodular(
            _need(args, "n", "--n"), args.sub_kind, seed, universe=args.universe
        )
    return dumps_instance(inst)


def _cmd_convert(args) -> str:
    if args.reduction == "dks-to-dispersion":
        dks = _load_as(args.infile, DksInstance, "dks")
        metric, _p = dks_to_dispersion(dks)
        return dumps_instance(metric)
    cov = _load_as(args.infile, CoverageInstance, "maxcov")
    return dumps_instance(coverage_to_dcg(cov))


def _cmd_solve_dcg(args) -> str:
    inst = _load_as(args.infile, SetSystemInstance, "setsystem")
    if args.dump_lp:
        lpres = solve_dcg_lp(inst, DCG_STANDARD, max_rounds=args.max_cut_rounds)
        Path(args.dump_lp).write_text(
            _result_json(
                {
                    "objective": lpres.objective,
                    "rounds": lpres.loop.rounds,
                    "cuts_added": lpres.loop.cuts_added,
                    "clean": lpres.loop.clean,
                    "objective_history": list(lpres.loop.objective_history),
                    "x": [[float(v) for v in row] for row in lpres.x],
                    "y": [[float(v) for v in row] for row in lpres.y],
                }
            ),
            encoding="utf-8",
        )
    res = ptas_dcg(
        inst,
        args.epsilon,
        RngState(args.seed),
        u=args.u,
        gamma=args.gamma,
        eta=args.eta,
        trials=args.trials,
        prefix_cap=args.prefix_cap,
        max_cut_rounds=args.max_cut_rounds,
    )
    if args.format == "csv":
        return _solve_csv(args.infile, "ptas-dcg", args.seed, args.epsilon, res.value)
    return _result_json(
        {
            "algorithm": "ptas-dcg",
            "instance": args.infile,
            "seed": args.seed,
            "epsilon": args.epsilon,
            "value": res.value,
            "order": list(res.ranking.order),
            "lp_bound": res.lp_bound,
            "diagnostics": res.diagnostics,
        }
    )


def _inner_mode(flag: str) -> str:
    return "greedy" if flag == "scheme" else "exact"


def _cmd_solve_dispersion(args) -> str:
    inst = _load_as(args.infile, MetricInstance, "metric")
    res = qptas_dispersion(
        inst,
        args.p,
        args.epsilon,
        RngState(args.seed),
        inner_mode=_inner_mode(args.inner),
        enum_cap=args.enum_cap,
        inner_gamma=args.inner_gamma,
        exact_budget=args.exact_budget,
    )
    if args.format == "csv":
        return _solve_csv(args.infile, "qptas-dispersion", args.seed, args.epsilon, res.value)
    return _result_json(
        {
            "algorithm": "qptas-dispersion",
            "instance": args.infile,
            "seed": args.seed,
            "epsilon": args.epsilon,
            "p": args.p,
            "value": res.value,
            "selection": list(res.selection),
            "origin": res.origin,
            "diagnostics": res.diagnostics,
        }
    )


def _cmd_solve_diversification(args) -> str:
    inst = _load_as(args.infile, MetricInstance, "metric")
    bonus = _load_bonus(args.bonus)
    dinst = DiversificationInstance(inst, bonus, args.p)
    res = diversify(
        dinst,
        args.epsilon,
        RngState(args.seed),
        inner_mode=_inner_mode(args.inner),
        enum_cap=args.enum_cap,
        inner_gamma=args.inner_gamma,
        exact_budget=args.exact_budget,
    )
    if args.format == "csv":
        return _solve_csv(args.infile, "diversify", args.seed, args.epsilon, res.value)
    return _result_json(
        {
            "algorithm": "diversify",
            "instance": args.infile,
            "seed": args.seed,
            "epsilon": args.epsilon,
            "p": args.p,
            "value": res.value,
            "disp_value": res.disp_value,
            "f_value": res.f_value,
            "selection": list(res.selection),
            "origin": res.origin,
            "diagnostics": res.diagnostics,
        }
    )


def _cmd_solve_dks(args) -> str:
    inst = _load_as(args.infile, DksInstance, "dks")
    bonus = _load_bonus(args.bonus) if args.bonus else None
    params = SubDksParams(
        gamma=args.epsilon,
        s=args.s,
        t=args.t,
        enum_cap=args.enum_cap,
        mode=args.mode,
        exact_budget=args.exact_budget,
    )
    res = submodular_dks(inst, bonus, params, RngState(args.seed))
    name = "submodular-dks" if bonus is not None else "dks-additive"
    if args.format == "csv":
        return _solve_csv(args.infile, name, args.seed, args.epsilon, res.value)
    return _result_json(
        {
            "algorithm": name,
            "instance": args.infile,
            "seed": args.seed,
            "epsilon": args.epsilon,
            "value": res.value,
            "h_value": res.h_value,
            "den_value": res.den_value,
            "nodes": list(res.nodes),
            "diagnostics": res.diagnostics,
        }
    )


def _cmd_oracle(args) -> str:
    obj = load_instance(args.infile)
    bonus = _load_bonus(args.bonus) if args.bonus else None
    payload: dict = {"instance": args.infile}
    if isinstance(obj, SetSystemInstance):
        kwargs = {"guard": args.guard} if args.guard is not None else {}
        ranking, value = brute_force_dcg(obj, **kwargs)
        payload.update({"algorithm": "brute-dcg", "value": value, "order": list(ranking.order)})
    elif isinstance(obj, MetricInstance):
        if args.p is None:
            raise UsageError("oracle on a metric instance needs --p")
        kwargs = {"guard": args.guard} if args.guard is not None else {}
        if bonus is not None:
            dinst = DiversificationInstance(obj, bonus, args.p)
            sel, value, dpart, fpart = brute_force_diversification(dinst, **kwargs)
            payload.update(
                {
                    "algorithm": "brute-diversification",
                    "value": value,
                    "disp_value": dpart,
                    "f_value": fpart,
                    "selection": list(sel),
                }
            )
        else:
            sel, value = brute_force_dispersion(obj, args.p, **kwargs)
            payload.update(
                {"algorithm": "brute-dispersion", "value": value, "selection": list(sel)}
            )
    elif isinstance(obj, DksInstance):
        kwargs = {"guard": args.guard} if args.guard is not None else {}
        sel, value = brute_force_subdks(obj, bonus, **kwargs)
        payload.update({"algorithm": "brute-dks", "value": value, "selection": list(sel)})
    elif isinstance(obj, CoverageInstance):
        kwargs = {"guard": args.guard} if args.guard is not None else {}
        value = max_coverage_value(obj, **kwargs)
        payload.update({"algorithm": "brute-coverage", "value": value})
    else:
        raise InstanceError(f"{args.infile}: no oracle for this instance kind")
    return _result_json(payload)


def _cmd_check(args):
    obj = load_instance(args.infile)
    payload: dict = {"instance": args.infile}
    exit_code = 0
    if isinstance(obj, MetricInstance):
        report = validate_metric(obj)
        payload["validation"] = {
            "ok": report.ok,
            "kind": report.kind,
            "witness": report.witness,
            "message": report.message,
        }
        if not report.ok:
            exit_code = 2
    else:
        payload["validation"] = {
            "ok": True,
            "kind": None,
            "witness": None,
            "message": "instance ok",
        }
    if args.selection is not None:
        if not isinstance(obj, MetricInstance):
            raise UsageError("--selection needs a metric instance")
        sel = [int(x) for x in args.selection.split(",") if x.strip() != ""]
        if args.bonus:
            dinst = DiversificationInstance(obj, _load_bonus(args.bonus), len(sel))
            lemma = check_div_structural_lemma(dinst, sel)
        else:
            lemma = check_structural_lemma(obj, len(sel), sel)
        payload["lemma"] = {
            "ratio": lemma.ratio,
            "center": lemma.center,
            "witness": lemma.witness,
        }
    return _result_json(payload), exit_code


def _cmd_bench(args) -> str:
    spec_path = Path(args.spec)
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{args.spec}: invalid JSON: {exc}") from exc
    report = run_bench(spec, spec_path.parent)
    if args.format == "csv":
        return records_to_csv(report.records)
    return _result_json(
        {
            "records": [vars(r).copy() for r in report.records],
            "aggregates": report.aggregates(),
        }
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "convert": _cmd_convert,
        "solve-dcg": _cmd_solve_dcg,
        "solve-dispersion": _cmd_solve_dispersion,
        "solve-diversification": _cmd_solve_diversification,
        "solve-dks": _cmd_solve_dks,
        "oracle": _cmd_oracle,
        "check": _cmd_check,
        "bench": _cmd_bench,
    }
    if args.format == "csv" and args.command not in (
        "bench",
        "solve-dcg",
        "solve-dispersion",
        "solve-diversification",
        "solve-dks",
    ):
        print(f"divopt {args.command}: --format csv is not supported here", file=sys.stderr)
        return 1
    try:
        out = handlers[args.command](args)
    except UsageError as exc:
        print(f"divopt: {exc}", file=sys.stderr)
        return 1
    except InstanceError as exc:
        print(f"divopt: invalid input: {exc}", file=sys.stderr)
        return 2
    except (GuardExceeded, LpError) as exc:
        print(f"divopt: refused: {exc}", file=sys.stderr)
        return 3
    exit_code = 0
    if isinstance(out, tuple):
        out, exit_code = out
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
