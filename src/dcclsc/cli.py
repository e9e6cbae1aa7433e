"""Command-line front end: solve, sweep, table4, verify, simulate.

Exit codes: 0 success, 1 usage or domain error (including an output path
that cannot be written, and a result beyond float range), 2 verification
failure (including ill-posed numeric instances), 3 singular evaluation.

A flat key=value config file can preload any flag of the chosen subcommand
(``--config run.cfg`` or ``--config=run.cfg``); explicit flags always win.
Reports go to stdout, data goes to ``--out`` paths, and output files are
byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, closed_form, market, oracle, report, suites
from .errors import BoxBoundary, NonConcave, OutOfDomain, Singularity
from .market import MrDemandVariant
from .params import ALL_DECISION_FIELDS, DecisionSet, ModelId, Params, decision_fields

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_SINGULAR = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_VARIANTS = {"adopted": MrDemandVariant.ADOPTED, "as-printed": MrDemandVariant.AS_PRINTED}


def _add_param_flags(p: _Parser, required: bool = True):
    p.add_argument("--alpha", type=float, required=required, help="direct-channel preference in (0,1)")
    p.add_argument("--cm", type=float, required=required, help="unit manufacturing cost")
    p.add_argument("--cr", type=float, required=required, help="unit remanufacturing cost")
    p.add_argument("--s", type=float, default=0.0, help="government unit subsidy (default 0)")


def build_parser() -> _Parser:
    top = _Parser(prog="dcclsc", description=__doc__)
    top.add_argument("--version", action="version", version=f"dcclsc {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", parents=[], help="one closed-form equilibrium",
                           description="Evaluate one closed-form equilibrium; "
                                       "--verify adds the numeric cross-check.")
    solve.error = top.error
    solve.add_argument("--config", help="flat key=value file preloading flags")
    solve.add_argument("--model", required=True, help="m, r, or mr")
    _add_param_flags(solve)
    solve.add_argument("--guard", type=float, default=closed_form.DEFAULT_GUARD,
                       help="half-width (>= 0) of the singularity guard band on alpha")
    solve.add_argument("--variant", choices=sorted(_VARIANTS), default="adopted",
                       help="joint-model segment-3 demand variant")
    solve.add_argument("--verify", action="store_true",
                       help="also solve numerically and report deltas")
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.add_argument("--out", help="write the payload here instead of stdout")

    sweep = sub.add_parser("sweep", help="alpha sweep to CSV (and optional charts)")
    sweep.error = top.error
    sweep.add_argument("--config")
    sweep.add_argument("--preset", choices=sorted(suites.FIGURE_PRESETS),
                       help="figure parameter preset; explicit flags override")
    sweep.add_argument("--model")
    sweep.add_argument("--alpha-from", type=float, dest="alpha_from")
    sweep.add_argument("--alpha-to", type=float, dest="alpha_to")
    sweep.add_argument("--alpha-step", type=float, dest="alpha_step", default=0.01)
    sweep.add_argument("--cm", type=float)
    sweep.add_argument("--cr", type=float)
    sweep.add_argument("--s", type=float)
    sweep.add_argument("--guard", type=float, default=closed_form.DEFAULT_GUARD)
    sweep.add_argument("--variant", choices=sorted(_VARIANTS), default="adopted")
    sweep.add_argument("--outputs", default="decisions,demands,profits,validity",
                       help="comma list of column groups to fill")
    sweep.add_argument("--out", help="CSV path (default: stdout)")
    sweep.add_argument("--plot-dir", dest="plot_dir",
                       help="emit one SVG line chart per decision variable here")

    table4 = sub.add_parser("table4", help="published sensitivity table vs recomputation")
    table4.error = top.error
    table4.add_argument("--config")
    table4.add_argument("--format", choices=("text", "json", "csv"), default="text")
    table4.add_argument("--out")

    verify = sub.add_parser("verify", help="seeded verification suites")
    verify.error = top.error
    verify.add_argument("suite", choices=("oracle", "props", "mc", "endpoints", "all"))
    verify.add_argument("--config")
    verify.add_argument("--samples", type=int, default=0,
                        help="draws per suite (0 = suite default)")
    verify.add_argument("--seed", type=int, default=0, help="0 = suite default")
    verify.add_argument("--tol", type=float, help="oracle agreement tolerance "
                        "(default: the suite's)")
    verify.add_argument("--n", type=int, help="Monte Carlo sample count (default: the suite's)")
    verify.add_argument("--out", help="write the machine-readable report here")

    simulate = sub.add_parser("simulate", help="Monte Carlo choice simulation")
    simulate.error = top.error
    simulate.add_argument("--config")
    simulate.add_argument("--model", required=True)
    simulate.add_argument("--alpha", type=float, required=True)
    simulate.add_argument("--cm", type=float, default=0.5)
    simulate.add_argument("--cr", type=float, default=0.25)
    simulate.add_argument("--s", type=float, default=0.1)
    simulate.add_argument("--pm", type=float, required=True)
    simulate.add_argument("--pr", type=float, required=True)
    simulate.add_argument("--w", type=float, required=True)
    simulate.add_argument("--bm", type=float)
    simulate.add_argument("--br", type=float)
    simulate.add_argument("--t", type=float)
    simulate.add_argument("--n", type=int, default=1_000_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out")

    return top


#: Picks ``--config`` out of argv in either spelling; built once, since
#: building a parser costs more than a parse.
_CONFIG_FLAG = _Parser(prog="dcclsc", add_help=False)
_CONFIG_FLAG.add_argument("--config")


def _apply_config(argv: list[str], top: _Parser) -> list[str]:
    """Expand ``--config PATH`` (or ``--config=PATH``) into the flags its
    key = value lines set, placed before the explicit flags so those win."""
    known, rest = _CONFIG_FLAG.parse_known_args(argv)
    if known.config is None:
        return argv
    path = Path(known.config)
    if not path.exists():
        top.error(f"config file not found: {path}")
    if not rest:
        top.error("--config requires a subcommand")
    subparsers = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    sub_name = rest[0]
    if sub_name not in subparsers.choices:
        top.error(f"unknown subcommand {sub_name!r}")
    flags = {a.dest: a for a in subparsers.choices[sub_name]._actions
             if a.option_strings and a.dest != "help"}
    from_file = []
    for line_no, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        action = flags.get(key.replace("-", "_"))
        if not sep or action is None:
            top.error(f"{path}:{line_no}: expected key = value with a {sub_name} option as key")
        if action.nargs != 0:
            from_file.append(f"{action.option_strings[0]}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):  # a switch
            from_file.append(action.option_strings[0])
    return [sub_name, *from_file, *rest[1:]]


def _echo(args: argparse.Namespace, skip=("command", "config", "out", "plot_dir")) -> str:
    # output paths are not part of the computation's configuration; leaving
    # them out keeps emitted payloads byte-identical across destinations
    pairs = sorted((k, v) for k, v in vars(args).items() if k not in skip)
    return " ".join(f"{k}={v}" for k, v in pairs)


def _write_or_print(text: str, out: str | None, label: str):
    if out:
        Path(out).write_text(text)
        print(f"wrote {label} to {out}")
    else:
        sys.stdout.write(text)


def _params_from(args) -> Params:
    return Params(alpha=args.alpha, c_m=args.cm, c_r=args.cr, s=args.s)


def cmd_solve(args) -> int:
    model = ModelId.parse(args.model)
    params = _params_from(args)
    variant = _VARIANTS[args.variant]
    try:
        eq = closed_form.equilibrium(model, params, guard=args.guard, variant=variant)
    except OutOfDomain as exc:
        if not args.verify:
            raise
        try:  # the cross-check's own refusal of the same input belongs in the report
            oracle.solve_stackelberg_numeric(model, params, None, variant)
        except OutOfDomain as numeric:
            raise OutOfDomain(exc.violations + numeric.violations) from None
        except (NonConcave, BoxBoundary):
            pass
        raise
    payload = eq.as_dict()
    payload["command"] = "solve " + _echo(args)
    payload["version"] = __version__
    if args.verify:
        cfg = oracle.OracleConfig(leader_box=oracle.default_leader_box(params))
        numeric = oracle.solve_stackelberg_numeric(model, params, cfg, variant)
        deltas = {name: numeric.decisions.as_dict()[name] - value
                  for name, value in eq.decisions.as_dict().items()}
        payload["oracle"] = {
            "decisions": numeric.decisions.as_dict(),
            "deltas_vs_closed_form": deltas,
            "config": cfg.as_dict(),
        }
        if model is ModelId.MR:
            payload["oracle"]["certified_demand_variant"] = eq.certified_demand_variant
    if args.format == "json":
        _write_or_print(report.to_json(payload), args.out, "equilibrium")
    else:
        _write_or_print(report.rows_to_csv([report.equilibrium_row(eq)]), args.out,
                        "equilibrium")
    return EXIT_OK


_OUTPUT_GROUPS = {
    "decisions": ALL_DECISION_FIELDS,
    "demands": ("q1", "q2", "q3", "q4"),
    "profits": ("pi_m", "pi_r", "pi_s"),
    "validity": ("interior_valid",),
}


def cmd_sweep(args) -> int:
    top_error = build_parser().error
    names = ("model", "alpha_from", "alpha_to", "cm", "cr", "s")
    if args.preset:
        model, *preset = suites.FIGURE_PRESETS[args.preset]
        for name, value in zip(names, (model.value, *preset)):
            if getattr(args, name) is None:
                setattr(args, name, value)
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        top_error("missing " + ", ".join(sorted(missing)) + " (flag or preset)")
    model = ModelId.parse(args.model)
    if not (0.0 < args.alpha_from <= args.alpha_to < 1.0 and args.alpha_step > 0.0):
        top_error("need 0 < alpha-from <= alpha-to < 1 and alpha-step > 0")
    groups = set(g.strip() for g in args.outputs.split(",") if g.strip())
    unknown = groups - set(_OUTPUT_GROUPS)
    if unknown:
        top_error(f"unknown output groups {sorted(unknown)}")

    count = int((args.alpha_to - args.alpha_from) / args.alpha_step + 1e-9) + 1
    variant = _VARIANTS[args.variant]
    rows = []
    for k in range(count):
        alpha = args.alpha_from + k * args.alpha_step
        params = Params(alpha=alpha, c_m=args.cm, c_r=args.cr, s=args.s)
        try:
            # no column prints the MR certification verdict
            eq = closed_form.equilibrium(model, params, args.guard, variant, certify=False)
        except Singularity:
            rows.append(report.singular_row(model, params))
            continue
        row = report.equilibrium_row(eq)
        for group, columns in _OUTPUT_GROUPS.items():
            if group not in groups:
                for column in columns:
                    row[column] = None
        rows.append(row)

    csv_text = report.rows_to_csv(rows)
    print(f"sweep {_echo(args)}")
    print(f"rows={len(rows)} singular={sum(1 for r in rows if r['singular'])}")
    _write_or_print(csv_text, args.out, "sweep CSV")
    if args.plot_dir:
        plot_dir = Path(args.plot_dir)
        plot_dir.mkdir(parents=True, exist_ok=True)
        xs = [r["alpha"] for r in rows if not r["singular"]]
        for var in decision_fields(model):
            ys = [r[var] for r in rows if not r["singular"]]
            if all(y is None for y in ys):
                continue
            svg = report.line_chart_svg(
                f"model {model.value}: {var} vs alpha", xs,
                [float(y) for y in ys], y_label=var)
            path = plot_dir / f"{model.value}_{var}.svg"
            path.write_text(svg)
            print(f"wrote chart {path}")
    return EXIT_OK


def cmd_table4(args) -> int:
    cells = []
    for model, alpha, c_m, c_r, s, published in suites.PUBLISHED_TABLE_ROWS:
        params = Params(alpha=alpha, c_m=c_m, c_r=c_r, s=s)
        eq = closed_form.equilibrium(model, params, certify=False)
        computed = eq.decisions.as_dict()
        q1 = eq.demands.q1
        for variable, pub in published.items():
            cells.append({
                "model": model.value, "alpha": alpha, "c_m": c_m, "c_r": c_r,
                "delta": params.delta, "s": s, "variable": variable,
                "published": float(pub), "computed": computed[variable],
                "abs_gap": abs(computed[variable] - pub),
                "interior_valid": eq.validity.interior,
                "q1": q1,
            })
    if args.format == "json":
        text = report.to_json({"command": "table4", "version": __version__,
                               "cells": cells})
    elif args.format == "csv":
        header = list(cells[0])
        lines = [",".join(header)]
        for cell in cells:
            lines.append(",".join(report.format_value(cell[h]) for h in header))
        text = "\n".join(lines) + "\n"
    else:
        lines = ["published sensitivity table vs closed-form recomputation",
                 f"{'row':<16}{'var':<6}{'published':>12}{'computed':>14}{'gap':>12}"]
        seen = set()
        for cell in cells:
            row_id = f"{cell['model']} a={cell['alpha']} s={cell['s']}"
            if row_id not in seen:
                seen.add(row_id)
                flag = "" if cell["interior_valid"] else \
                    f"   [interior violated: q1={cell['q1']:.4f}]"
                lines.append(f"-- {row_id}{flag}")
            lines.append(f"{'':<16}{cell['variable']:<6}{cell['published']:>12.4f}"
                         f"{cell['computed']:>14.6f}{cell['abs_gap']:>12.6f}")
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out, "table comparison")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 0:
        build_parser().error("--samples must be >= 0")
    # only the flags the user set; 0 for --samples or --seed means the suite default
    given = {"samples": args.samples or None, "seed": args.seed or None,
             "tol": args.tol, "n": args.n}
    overrides = {k: v for k, v in given.items() if v is not None}
    if args.suite == "all":
        reports, code = suites.suite_all(**overrides)
    else:
        fn = getattr(suites, f"suite_{args.suite}")
        rep, code = fn(**suites.suite_options(fn, overrides))
        reports = [rep]
    for rep in reports:
        print(rep.render_text())
    if args.out:
        payload = [rep.as_dict() for rep in reports]
        Path(args.out).write_text(report.to_json(payload))
        print(f"wrote report to {args.out}")
    return code


def cmd_simulate(args) -> int:
    model = ModelId.parse(args.model)
    params = _params_from(args)
    flag_map = {n: getattr(args, n.replace("_", "")) for n in ALL_DECISION_FIELDS}
    needed = decision_fields(model)
    missing = [name for name in needed if flag_map[name] is None]
    if missing:
        build_parser().error(
            f"model {model.value} needs --" +
            ", --".join(n.replace('_', '') for n in missing))
    decisions = DecisionSet(model=model, **{n: flag_map[n] for n in needed})
    mc = oracle.monte_carlo_demand(model, decisions, params, n=args.n, seed=args.seed)
    payload = {
        "command": "simulate " + _echo(args),
        "version": __version__,
        "model": model.value,
        "n": args.n,
        "seed": args.seed,
        "shares": mc.shares.as_dict(),
        "stderr": mc.stderr.as_dict(),
        "analytic": market.demand(model, decisions, params).as_dict(),
    }
    if model is ModelId.MR:
        payload["analytic_as_printed"] = market.demand(
            model, decisions, params, MrDemandVariant.AS_PRINTED).as_dict()
    _write_or_print(report.to_json(payload), args.out, "simulation")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "table4": cmd_table4,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    top = build_parser()
    try:
        args = top.parse_args(_apply_config(argv, top))
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # usage errors (exit 1), --help and --version (exit 0)
        return exc.code
    except OutOfDomain as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Singularity as exc:
        print(f"singular: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (NonConcave, BoxBoundary) as exc:
        print(f"numeric verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
