"""Command-line front end: solve, sweep, table4, verify, simulate.

Exit codes: 0 success, 1 usage or domain error (including a config file
that cannot be read, an output path that cannot be written, and a result
beyond float range), 2 verification failure (including ill-posed numeric
instances), 3 singular evaluation.

A flat key=value file, where a line starting with ``#`` is a comment, preloads
the subcommand's flags (``--config run.cfg`` or ``--config=run.cfg``); flags win.
Reports go to stdout, data goes to ``--out`` paths, and output files are
byte-stable for identical inputs. The CSV columns are defined once, in
``report``; sweep rows stay below alpha 1, and a row within the fixed band
``closed_form.DEFAULT_GUARD`` of a pole is marked singular.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import __version__, closed_form, market, oracle, report, suites
from .errors import NonConcave, OutOfDomain, Singularity
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


def build_parser() -> _Parser:
    top = _Parser(prog="dcclsc", description=__doc__)
    top.add_argument("--version", action="version", version=f"dcclsc {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for name, text in (("solve", "one closed-form equilibrium"),
                       ("sweep", "alpha sweep to CSV (and optional charts)"),
                       ("table4", "published sensitivity table vs recomputation"),
                       ("verify", "seeded verification suites"),
                       ("simulate", "Monte Carlo choice simulation")):
        parser = sub.add_parser(name, help=text)
        parser.error = top.error  # usage errors exit 1 from every subcommand
        parser.add_argument("--config", help="flat key=value file preloading flags")
    solve, sweep, table4, verify, simulate = sub.choices.values()

    solve.description = ("Evaluate one closed-form equilibrium; "
                         "--verify adds the numeric cross-check.")
    solve.add_argument("--model", required=True, help="m, r, or mr")
    solve.add_argument("--alpha", type=float, required=True,
                       help="direct-channel preference in (0,1)")
    solve.add_argument("--cm", type=float, required=True, help="unit manufacturing cost")
    solve.add_argument("--cr", type=float, required=True, help="unit remanufacturing cost")
    solve.add_argument("--s", type=float, default=0.0, help="government unit subsidy (default 0)")
    solve.add_argument("--variant", choices=("adopted", "as-printed"), default="adopted",
                       help="joint-model segment-3 demand variant")
    solve.add_argument("--verify", action="store_true",
                       help="also solve numerically and report deltas")
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.add_argument("--out", help="write the payload here instead of stdout")

    sweep.add_argument("--preset", choices=sorted(suites.FIGURE_PRESETS),
                       help="figure parameter preset; explicit flags override")
    sweep.add_argument("--model")
    sweep.add_argument("--alpha-from", type=float, dest="alpha_from")
    sweep.add_argument("--alpha-to", type=float, dest="alpha_to")
    sweep.add_argument("--alpha-step", type=float, dest="alpha_step", default=0.01)
    sweep.add_argument("--cm", type=float)
    sweep.add_argument("--cr", type=float)
    sweep.add_argument("--s", type=float)
    sweep.add_argument("--variant", choices=("adopted", "as-printed"), default="adopted")
    sweep.add_argument("--out", help="CSV path (default: stdout)")
    sweep.add_argument("--plot-dir", dest="plot_dir",
                       help="emit one SVG line chart per decision variable here")

    table4.add_argument("--format", choices=("text", "json", "csv"), default="text")
    table4.add_argument("--out")

    verify.add_argument("suite", choices=(*suites.SUITES, "all"))
    verify.add_argument("--samples", type=int,
                        help="draws per suite, >= 1 (default: the suite's)")
    verify.add_argument("--seed", type=int, help="suite seed, >= 0 (default: the suite's)")
    verify.add_argument("--n", type=int, help="Monte Carlo sample count (default: the suite's)")
    verify.add_argument("--out", help="write the machine-readable report here")

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


@functools.cache
def _parser() -> _Parser:
    """The process's one parser, built on first use rather than at import
    (building one costs more than a parse); every usage error goes through it."""
    return build_parser()


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
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        top.exit(EXIT_USAGE, f"error: cannot read config file {path}: {exc}\n")
    if not rest:
        top.error("--config requires a subcommand")
    subparsers = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    sub_name = rest[0]
    if sub_name not in subparsers.choices:
        top.error(f"unknown subcommand {sub_name!r}")
    # "config" is no key: a file does not load another
    flags = {a.dest: a for a in subparsers.choices[sub_name]._actions
             if a.option_strings and a.dest not in ("help", "config")}
    from_file = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):  # a "#" inside a value is part of it
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        action = flags.get(key.replace("-", "_"))
        if not sep or action is None:
            top.error(f"{path}:{line_no}: expected key = value with a {sub_name} option as key")
        if action.nargs != 0:
            from_file.append(f"{action.option_strings[0]}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):  # a switch
            from_file.append(action.option_strings[0])
        elif value.lower() not in ("0", "false", "no", "off"):
            top.error(f"{path}:{line_no}: {key} is a switch: expected 1, true, yes or on, "
                      "or 0, false, no or off")
    return [sub_name, *from_file, *rest[1:]]


def _echo(args: argparse.Namespace) -> str:
    # output paths are not part of the computation's configuration; leaving
    # them out keeps emitted payloads byte-identical across destinations
    skip = ("command", "config", "out", "plot_dir")
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
    if args.verify and args.format == "csv":
        _parser().error("--verify needs --format json: the CSV row has no oracle columns")
    model = ModelId(args.model)
    params = _params_from(args)
    eq = closed_form.equilibrium(model, params, args.variant)
    if args.format == "csv":  # the CSV row has no verdict column
        _write_or_print(report.rows_to_csv([report.equilibrium_row(eq)]), args.out, "equilibrium")
        return EXIT_OK
    payload = eq.as_dict()
    certified = oracle.certify_mr_variant(eq.decisions, params) if model is ModelId.MR else None
    if certified is not None:
        payload["certified_demand_variant"] = certified
    payload["command"] = "solve " + _echo(args)
    payload["version"] = __version__
    if args.verify:
        if eq.demand_variant is MrDemandVariant.AS_PRINTED:  # refused outside MR
            raise NonConcave("as-printed variant: the leader's reduced profit is convex along b_m")
        numeric = oracle.solve_stackelberg_numeric(model, params)
        deltas = {name: numeric.decisions.as_dict()[name] - value
                  for name, value in eq.decisions.as_dict().items()}
        payload["oracle"] = {"decisions": numeric.decisions.as_dict(),
                             "deltas_vs_closed_form": deltas}
    _write_or_print(report.to_json(payload), args.out, "equilibrium")
    return EXIT_OK


#: Most rows one sweep may ask for; each row is held in memory until written.
MAX_SWEEP_ROWS = 100_000


def cmd_sweep(args) -> int:
    top_error = _parser().error
    names = ("model", "alpha_from", "alpha_to", "cm", "cr", "s")
    if args.preset:
        model, *preset = suites.FIGURE_PRESETS[args.preset]
        for name, value in zip(names, (model.value, *preset)):
            if getattr(args, name) is None:
                setattr(args, name, value)
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        top_error("missing " + ", ".join(sorted(missing)) + " (flag or preset)")
    model = ModelId(args.model)
    if not (0.0 < args.alpha_from <= args.alpha_to < 1.0 and 0.0 < args.alpha_step < math.inf):
        top_error("need 0 < --alpha-from <= --alpha-to < 1 and a finite --alpha-step > 0")

    steps = (args.alpha_to - args.alpha_from) / args.alpha_step + 1e-9  # rounding slack
    if steps >= MAX_SWEEP_ROWS:  # refused before any row is built
        raise OutOfDomain.single("alpha_step", args.alpha_step,
                                 f"asks for more than {MAX_SWEEP_ROWS:,} sweep rows")
    alphas = [args.alpha_from + k * args.alpha_step for k in range(int(steps) + 1)]
    if alphas[-1] >= 1.0:  # the slack's one row beyond --alpha-to, at alpha 1
        alphas.pop()
    rows = []
    for alpha in alphas:
        params = Params(alpha=alpha, c_m=args.cm, c_r=args.cr, s=args.s)
        try:
            eq = closed_form.equilibrium(model, params, args.variant)
            rows.append(report.equilibrium_row(eq))
        except Singularity:
            rows.append(report.singular_row(model, params))

    csv_text = report.rows_to_csv(rows)
    print(f"sweep {_echo(args)}")
    print(f"rows={len(rows)} singular={sum(1 for r in rows if r['singular'])}")
    _write_or_print(csv_text, args.out, "sweep CSV")
    if args.plot_dir:
        plot_dir = Path(args.plot_dir)
        plot_dir.mkdir(parents=True, exist_ok=True)
        solved = [r for r in rows if not r["singular"]]
        xs = [r["alpha"] for r in solved]
        for var in decision_fields(model) if solved else ():  # no chart of singular rows only
            ys = [r[var] for r in solved]
            svg = report.line_chart_svg(f"model {model.value}: {var} vs alpha", xs, ys,
                                        y_label=var)
            path = plot_dir / f"{model.value}_{var}.svg"
            path.write_text(svg)
            print(f"wrote chart {path}")
    return EXIT_OK


def cmd_table4(args) -> int:
    cells = []
    lines = ["published sensitivity table vs closed-form recomputation",
             f"{'row':<16}{'var':<6}{'published':>12}{'computed':>14}{'gap':>12}"]
    for model, alpha, c_m, c_r, s, published in suites.PUBLISHED_TABLE_ROWS:
        params = Params(alpha=alpha, c_m=c_m, c_r=c_r, s=s)
        eq = closed_form.equilibrium(model, params)
        interior, q1 = eq.validity.interior, eq.demands.q1
        flag = "" if interior else f"   [interior violated: q1={q1:.4f}]"
        lines.append(f"-- {model.value} a={alpha} s={s}{flag}")
        for variable, pub in published.items():
            computed = getattr(eq.decisions, variable)
            gap = abs(computed - pub)
            cells.append({"model": model.value, **params.as_dict(), "variable": variable,
                          "published": pub, "computed": computed, "abs_gap": gap,
                          "interior_valid": interior, "q1": q1})
            lines.append(f"{'':<16}{variable:<6}{pub:>12.4f}{computed:>14.6f}{gap:>12.6f}")
    if args.format == "json":
        text = report.to_json({"command": "table4", "version": __version__, "cells": cells})
    elif args.format == "csv":
        text = report.rows_to_csv(cells, list(cells[0]))
    else:
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out, "table comparison")
    return EXIT_OK


def cmd_verify(args) -> int:
    # only the flags the user set; "all" gives each suite the ones it takes
    given = {"samples": args.samples, "seed": args.seed, "n": args.n}
    overrides = {k: v for k, v in given.items() if v is not None}
    fn = suites.SUITES.get(args.suite)
    unused = sorted(overrides.keys() - suites.suite_options(fn, overrides).keys()) if fn else []
    if unused:
        _parser().error(f"verify {args.suite} does not take " + ", ".join(f"--{k}" for k in unused))
    reports = [fn(**overrides)] if fn else suites.suite_all(**overrides)
    for rep in reports:
        print(rep.render_text())
    if args.out:
        payload = [rep.as_dict() for rep in reports]
        Path(args.out).write_text(report.to_json(payload))
        print(f"wrote report to {args.out}")
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_VERIFY


def cmd_simulate(args) -> int:
    model = ModelId(args.model)
    params = _params_from(args)
    # DecisionSet refuses a missing decision flag, and one the model does not use
    decisions = DecisionSet(model=model, **{n: getattr(args, n.replace("_", ""))
                                            for n in ALL_DECISION_FIELDS})
    analytic = market.demand(model, decisions, params).as_dict()
    mc = oracle.monte_carlo_demand(model, decisions, params, n=args.n, seed=args.seed)
    payload = {
        "command": "simulate " + _echo(args),
        "version": __version__,
        "model": model.value,
        "n": args.n,
        "seed": args.seed,
        "shares": mc.shares.as_dict(),
        "stderr": mc.stderr.as_dict(),
        "analytic": analytic,
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
    top = _parser()
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
    except NonConcave as exc:
        print(f"numeric verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
