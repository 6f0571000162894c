"""Command-line front end.

Subcommands: gen, convert, solve-dcg, solve-dispersion, solve-diversification,
solve-dks, oracle, check, bench.  Every subcommand accepts --seed, --out, and
--format.  Exit codes: 0 success, 1 usage error, 2 instance or argument
validation error, 3 refused brute-force guard / enumeration or pivot budget
or not enough memory.

Solver result JSON deliberately contains no timing, so identical inputs with
identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import SOLVERS, _Bundle, _csv_table, records_to_csv, run_bench
from .core import (
    BRUTE_GUARD,
    DksInstance,
    GuardExceeded,
    InstanceError,
    MetricInstance,
    RngState,
    SetSystemInstance,
    SubmodularSpec,
    ValidationReport,
    validate_metric,
)
from .diversification import (
    DiversificationInstance,
    brute_force_diversification,
    check_div_structural_lemma,
)
from .dispersion import brute_force_dispersion, check_structural_lemma
from .dks import brute_force_subdks
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
from .io import _jsonable, _parse_json, _read_text, dumps_instance, load_instance
from .lp import LpError
from .ranking import DCG_STANDARD, brute_force_dcg, solve_dcg_lp

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

    # Shared flags live in parents; argparse lists parent flags first, so each
    # is its own parent and a command lists them in its help order.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--in", dest="infile", required=True)
    bonus = argparse.ArgumentParser(add_help=False)
    bonus.add_argument("--bonus", required=True, help="submodular spec file")
    maybe_bonus = argparse.ArgumentParser(add_help=False)
    maybe_bonus.add_argument("--bonus", default=None, help="optional submodular spec file")
    pick = argparse.ArgumentParser(add_help=False)
    pick.add_argument("--p", type=int, required=True)
    epsilon = argparse.ArgumentParser(add_help=False)
    epsilon.add_argument("--epsilon", type=float, required=True)

    parser = _Parser(prog="divopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # Each gen kind takes only its generator's flags; ``make`` calls it.
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--n", type=int, required=True)
    team = argparse.ArgumentParser(add_help=False)
    team.add_argument("--k", type=int, required=True)
    kinds = sub.add_parser("gen", help="generate a seeded instance").add_subparsers(
        dest="kind", required=True, parser_class=_Parser
    )

    def kind(name, make, *parents):
        p = kinds.add_parser(name, parents=[common, *parents])
        p.set_defaults(make=make)
        return p

    p = kind("euclidean", lambda a: gen_random_euclidean(a.n, a.dim, a.seed), size)
    p.add_argument("--dim", type=int, default=2)
    kind("metric", lambda a: gen_random_metric(a.n, a.seed), size)
    kind("planted-dks", lambda a: gen_planted_dks(a.n, a.k, a.seed), size, team)
    p = kind("random-dks", lambda a: gen_random_dks(a.n, a.k, a.seed, a.forced_count), size, team)
    p.add_argument("--forced-count", type=int, default=0)
    p = kind(
        "coverage",
        lambda a: gen_regular_coverage(a.universe, a.k, a.seed, not a.no_plant, a.extra_sets),
        team,
    )
    p.add_argument("--universe", type=int, required=True)
    p.add_argument("--extra-sets", type=int, default=0)
    p.add_argument("--no-plant", action="store_true")
    p = kind("setsystem", lambda a: gen_setsystem(a.n, a.m, a.kmax, a.seed), size)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kmax", type=int, default=2)
    p = kind("submodular", lambda a: gen_submodular(a.n, a.sub_kind, a.seed, a.universe), size)
    p.add_argument("--sub-kind", choices=("modular", "coverage"), default="modular")
    p.add_argument("--universe", type=int)

    p = sub.add_parser("convert", parents=[common, source], help="apply a reduction to a file")
    p.add_argument("reduction", choices=("dks-to-dispersion", "coverage-to-dcg"))

    def solve(command, algorithm, text, *parents):
        """A solve-* command taking its algorithm's options as flags."""
        p = sub.add_parser(command, parents=[common, source, *parents], help=text)
        for opt in SOLVERS[algorithm].options:
            p.add_argument(
                opt.cli_flag, dest=opt.key, type=opt.type, default=opt.default, choices=opt.choices
            )
        p.set_defaults(algorithm=algorithm)
        return p

    p = solve("solve-dcg", "ptas-dcg", "prefix + LP rounding ranking", epsilon)
    p.add_argument("--dump-lp", default=None, help="also write the cut-LP solution here")
    solve("solve-dispersion", "qptas-dispersion", "ball-decomposition dispersion", pick, epsilon)
    solve(
        "solve-diversification",
        "diversify",
        "dispersion plus submodular bonus",
        bonus,
        pick,
        epsilon,
    )
    solve("solve-dks", "submodular-dks", "dense subgraph selection", epsilon, maybe_bonus)

    p = sub.add_parser("oracle", parents=[common, source], help="brute-force optimum of a file")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--bonus", default=None)
    p.add_argument("--guard", type=int, default=BRUTE_GUARD)

    p = sub.add_parser(
        "check", parents=[common, source], help="validate a file, optionally a lemma"
    )
    p.add_argument("--selection", default=None, help="comma-separated point ids")
    p.add_argument("--bonus", default=None)

    p = sub.add_parser("bench", parents=[common], help="run a bench spec")
    p.add_argument("--spec", required=True)

    return parser


def _result_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InstanceError(f"cannot write {path}: {exc}") from exc


def _solve_result(args, algorithm: str, value, **extra) -> str:
    """A solve-* result: the common keys as one CSV row under ``CSV_HEADER``,
    or as sorted-key JSON together with the command's own ``extra`` keys."""
    if args.format == "csv":
        eps, val = repr(float(args.epsilon)), repr(float(value))
        return _csv_table([[args.infile, algorithm, str(args.seed), eps, val, "", "", ""]])
    common = {
        "algorithm": algorithm,
        "instance": args.infile,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "value": value,
    }
    return _result_json({**common, **extra})


def _load_as(path, cls, label: str):
    return _Bundle(path, load_instance(path)).kind(cls, label)


def _load_bonus(path) -> SubmodularSpec:
    return _load_as(path, SubmodularSpec, "submodular-spec")


def _cmd_gen(args) -> str:
    return dumps_instance(args.make(args))


def _cmd_convert(args) -> str:
    if args.reduction == "dks-to-dispersion":
        dks = _load_as(args.infile, DksInstance, "dks")
        metric, _p = dks_to_dispersion(dks)
        return dumps_instance(metric)
    cov = _load_as(args.infile, CoverageInstance, "maxcov")
    return dumps_instance(coverage_to_dcg(cov))


def _cmd_solve(args) -> str:
    obj = load_instance(args.infile)
    bonus = _load_bonus(args.bonus) if getattr(args, "bonus", None) else None
    bundle = _Bundle(args.infile, obj, getattr(args, "p", None), bonus)
    algorithm = args.algorithm
    if algorithm == "submodular-dks" and bonus is None:
        algorithm = "dks-additive"  # solve-dks without --bonus: the density-only solver
    solver = SOLVERS[algorithm]
    options = {}
    for opt in solver.options:
        value = getattr(args, opt.key)
        options[opt.key] = opt.choices[value] if opt.choices else value
    res = solver.call(bundle, args.epsilon, RngState(args.seed), **options)
    if getattr(args, "dump_lp", None):
        lpres = solve_dcg_lp(bundle.setsystem(), DCG_STANDARD, max_rounds=args.max_cut_rounds)
        _write(
            args.dump_lp,
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
        )
    fields = dict(vars(res))
    if "ranking" in fields:
        fields["order"] = list(fields.pop("ranking").order)
    if bundle.p is not None:
        fields["p"] = bundle.p
    return _solve_result(args, algorithm, fields.pop("value"), **fields)


def _cmd_oracle(args) -> str:
    obj = load_instance(args.infile)
    if args.p is not None and not isinstance(obj, MetricInstance):
        raise UsageError("--p needs a metric instance")
    if args.bonus and not isinstance(obj, (MetricInstance, DksInstance)):
        raise UsageError("--bonus needs a metric or dks instance")
    bonus = _load_bonus(args.bonus) if args.bonus else None
    if args.guard < 0:
        raise InstanceError("guard must be non-negative")
    payload: dict = {"instance": args.infile}
    if isinstance(obj, SetSystemInstance):
        ranking, value = brute_force_dcg(obj, guard=args.guard)
        payload.update({"algorithm": "brute-dcg", "value": value, "order": list(ranking.order)})
    elif isinstance(obj, MetricInstance):
        if args.p is None:
            raise UsageError("oracle on a metric instance needs --p")
        if bonus is not None:
            dinst = DiversificationInstance(obj, bonus, args.p)
            sel, value, dpart, fpart = brute_force_diversification(dinst, args.guard)
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
            sel, value = brute_force_dispersion(obj, args.p, args.guard)
            payload.update(
                {"algorithm": "brute-dispersion", "value": value, "selection": list(sel)}
            )
    elif isinstance(obj, DksInstance):
        sel, value = brute_force_subdks(obj, bonus, args.guard)
        payload.update({"algorithm": "brute-dks", "value": value, "selection": list(sel)})
    elif isinstance(obj, CoverageInstance):
        value = max_coverage_value(obj, args.guard)
        payload.update({"algorithm": "brute-coverage", "value": value})
    else:
        raise InstanceError(f"{args.infile}: no oracle for this instance kind")
    return _result_json(payload)


def _cmd_check(args):
    if args.bonus and args.selection is None:
        raise UsageError("--bonus needs --selection")
    obj = load_instance(args.infile)
    if isinstance(obj, MetricInstance):
        report = validate_metric(obj)
    else:
        report = ValidationReport(True, message="instance ok")
    payload: dict = {"instance": args.infile, "validation": vars(report)}
    if args.selection is not None:
        if not isinstance(obj, MetricInstance):
            raise UsageError("--selection needs a metric instance")
        try:
            sel = [int(x) for x in args.selection.split(",") if x.strip() != ""]
        except ValueError:
            raise InstanceError("--selection: expected comma-separated point ids") from None
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
    return _result_json(payload), 0 if report.ok else 2


def _cmd_bench(args) -> str:
    report = run_bench(_parse_json(_read_text(args.spec)), Path(args.spec).parent)
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
        "solve-dcg": _cmd_solve,
        "solve-dispersion": _cmd_solve,
        "solve-diversification": _cmd_solve,
        "solve-dks": _cmd_solve,
        "oracle": _cmd_oracle,
        "check": _cmd_check,
        "bench": _cmd_bench,
    }
    if args.format == "csv" and not (args.command == "bench" or args.command.startswith("solve-")):
        print(f"divopt {args.command}: --format csv is not supported here", file=sys.stderr)
        return 1
    try:
        out = handlers[args.command](args)
        exit_code = 0
        if isinstance(out, tuple):
            out, exit_code = out
        if args.out:
            _write(args.out, out)
        else:
            sys.stdout.write(out)
    except UsageError as exc:
        print(f"divopt: {exc}", file=sys.stderr)
        return 1
    except InstanceError as exc:
        print(f"divopt: invalid input: {exc}", file=sys.stderr)
        return 2
    except (GuardExceeded, LpError, MemoryError) as exc:
        print(f"divopt: refused: {str(exc) or 'not enough memory'}", file=sys.stderr)
        return 3
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
