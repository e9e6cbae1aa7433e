"""One workload in its own process: set up, run passes of its op list, report.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``. With ``--setup-only``
it stops after set-up and prints ``ready``, which is what ``setup_s`` times.
Otherwise it runs passes of the workload's fixed op list in a closed loop on
one thread, and prints one JSON line with the raw measurements.

With ``--trace 1`` the first half of the time runs untraced passes (the
reference for the tracing overhead), then the tracer is installed and exactly
two traced passes run. Their hardware-independent counts must repeat exactly.
"""

from __future__ import annotations

import argparse
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

import numpy as np

import dcclsc
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Per-layer counts that do not depend on the hardware; two traced passes of
#: the same op list must give identical values.
REPEATABLE_COUNTS = ("market.profit_calls", "market.profit_points", "oracle.mc_draws",
                     "report.bytes", "report.rows")


def _ns_s(ns: int) -> float:
    return ns / 1e9


def layer_metrics(agg: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the tracer's per-name aggregates."""

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def total(names, key):
        return sum(get(n, key) for n in names)

    equilibria = ("closed_form.equilibrium", "closed_form.equilibrium_m",
                  "closed_form.equilibrium_r", "closed_form.equilibrium_mr")
    solve, mc = "oracle.solve_stackelberg_numeric", "oracle.monte_carlo_demand"
    profit = "market.profit_values"
    solve_calls = get(solve, "calls")
    mc_s = _ns_s(get(mc, "total_ns"))
    out = {
        "market.profit_calls": get(profit, "calls"),
        "market.profit_calls_batched": get(profit, "batched"),
        "market.profit_points": get(profit, "size"),
        "market.profit_s": _ns_s(get(profit, "total_ns")),
        "market.make_equilibrium_s": _ns_s(get("market.make_equilibrium", "total_ns")),
        "oracle.solve_calls": solve_calls,
        "oracle.solve_s": _ns_s(get(solve, "total_ns")),
        "oracle.solve_self_s": _ns_s(get(solve, "self_ns")),
        "oracle.solve_failures": get(solve, "failed"),
        "oracle.points_per_solve": (get(profit, "size") / solve_calls) if solve_calls else 0.0,
        "oracle.mc_calls": get(mc, "calls"),
        "oracle.mc_draws": get(mc, "size"),
        "oracle.mc_s": mc_s,
        "oracle.mc_draws_per_s": get(mc, "size") / mc_s if mc_s else 0.0,
        "oracle.certify_calls": get("oracle.certify_mr_variant", "calls"),
        "oracle.certify_s": _ns_s(get("oracle.certify_mr_variant", "total_ns")),
        "oracle.stationarity_s": _ns_s(get("oracle.stationarity_residuals", "total_ns")),
        "oracle.soc_s": _ns_s(get("oracle.check_soc", "total_ns")),
        "closed_form.equilibrium_calls": total(equilibria[1:], "calls"),
        "closed_form.equilibrium_self_s": _ns_s(total(equilibria, "self_ns")),
        "closed_form.decision_values_calls": get("closed_form.decision_values", "calls"),
        "report.rows": total(("report.equilibrium_row", "report.singular_row"), "calls"),
        "report.bytes": total(("report.rows_to_csv", "report.to_json",
                               "report.line_chart_svg"), "size"),
    }
    for kind in ("ordering", "monotonicity", "endpoints"):
        out[f"audit.{kind}_calls"] = get(f"audit.audit_{kind}", "calls")
        out[f"audit.{kind}_s"] = _ns_s(get(f"audit.audit_{kind}", "total_ns"))
    for layer in ("params", "market", "closed_form", "oracle", "audit", "suites",
                  "report", "cli"):
        out[f"{layer}.self_s"] = _ns_s(sum(a["self_ns"] for name, a in agg.items()
                                           if name.startswith(layer + ".")))
    out["report.s"] = out["report.self_s"]  # report functions never nest
    return out


class Runner:
    """Closed-loop runner of one op list; collects latencies and failures."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.pass_elapsed: list[float] = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, record: bool = True):
        """One pass of the op list; ``record=False`` checks and counts the ops
        but keeps their timings out of the metrics (the warm-up pass)."""
        started = time.perf_counter()
        wall = 0.0
        for op in self.ops:
            if self.tracer is not None:
                self.tracer.active = True
            error = None
            t0 = time.perf_counter()
            try:
                with self.tracer.span(f"op.{op.kind}") if self.tracer else nullcontext():
                    out = op.run()
            except Exception as exc:  # an op failure is counted, never fatal
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
            if error is None:
                try:
                    op.check(out)
                except workloads.CheckFailed as exc:
                    error = f"check failed: {exc}"
                except Exception as exc:  # a crashing check fails the op too
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if record:
                self.latencies.append(latency)
            wall += latency
            if error is not None:
                self.failed += 1
                self.failures.append(f"{'traced ' if self.tracer else ''}pass {self.passes} "
                                     f"{op.kind} {op.label}: {error}")
        self.passes += 1
        if record:
            self.pass_walls.append(wall)
            self.pass_elapsed.append(time.perf_counter() - started)
        return wall

    def run_for(self, budget: float):
        """Passes until another would overrun ``budget`` seconds (at least one)."""
        started = time.perf_counter()
        while True:
            self.run_pass()
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(self.pass_elapsed) > budget:
                return


def measure(ops, seconds: float, trace: bool, spans_path: Path) -> dict:
    started = time.perf_counter()
    runner = Runner(ops)
    # the first pass in a fresh process runs up to 1.5x slower (allocator and
    # cache warm-up); it is checked but kept out of the timings
    warmup = runner.run_pass(record=False)
    runner.run_for((seconds / 2 if trace else seconds) - (time.perf_counter() - started))
    result = {"warmup_pass_wall_s": warmup, "untraced_pass_wall_s": runner.pass_walls}
    if trace:
        tracer = Tracer()
        tracer.install()
        traced = Runner(ops, tracer)
        per_pass = []
        for _ in range(2):
            lo = tracer.mark()
            traced.run_pass()
            per_pass.append(layer_metrics(tracer.aggregate(lo, tracer.mark())))
        tracer.write(spans_path)
        runner.attempted += traced.attempted
        runner.failed += traced.failed
        runner.failures += traced.failures
        result.update(
            count_mismatches=[f"{name}: {per_pass[0][name]} vs {per_pass[1][name]}"
                              for name in REPEATABLE_COUNTS
                              if per_pass[0][name] != per_pass[1][name]],
            traced_pass_wall_s=traced.pass_walls,
            layers={name: value if isinstance(value, int) else (value + per_pass[1][name]) / 2
                    for name, value in per_pass[0].items()},
            layers_per_pass=per_pass,
            spans=len(tracer.start),
        )
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        latencies_s=runner.latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(),
        numpy=np.__version__,
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    source = Path(dcclsc.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"dcclsc imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json.gz"
        result = measure(ops, args.seconds, bool(args.trace), spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
