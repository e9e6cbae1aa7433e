"""dcclsc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload oracle_mr --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
(nothing is installed). The metric names and units come from
``BENCHMARK.json``. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, measured untraced; with ``--trace 1`` it carries the
per-layer metrics of a traced run. Lines above it give the machine, the op
count, the error rate, every failed op, the 90th-percentile latency where a
run has at least 100 ops, and for traced runs the full per-layer table and
the tracing overhead. Everything is also written under
``perfbench/results/``.

Each workload runs in its own child process (``worker.py``) with BLAS and
OpenMP pinned to one thread, so peak RSS and set-up time belong to that
workload alone. ``setup_s`` is the median over several fresh processes of
the time from process start to the first op being ready.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("oracle_mr", "verify_all", "sweeps_audits")
SETUP_RUNS = 8
P90_MIN_OPS = 100
MAX_PRINTED_FAILURES = 50  # the results file lists every one
DEADLINE_S = 170.0  # the whole run, set-ups included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result (as opposed to a failed op)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def worker_argv(args, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def time_setup(args, env, timeout: float) -> float:
    """Seconds from spawning a worker to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker_argv(args, "--setup-only"), cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up process timed out") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


def run_worker(args, env, timeout: float) -> dict:
    proc = subprocess.Popen(worker_argv(args), cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload did not finish within {timeout:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload failed (exit {proc.returncode}): {err.strip()}")
    return json.loads(lines[-1])


def machine(raw: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": raw["python"],
            "numpy": raw["numpy"]}


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """The metrics of BENCHMARK.json, and notes with the per-op latencies
    (printed only: their run-to-run spread on a shared host exceeds any
    bound BENCHMARK.json allows)."""
    latencies_ms = [t * 1e3 for t in raw["latencies_s"]]
    n = len(latencies_ms)
    values = {
        "setup_s": statistics.median(setups),
        # mean, not median: a shared host's speed flips between a fast and a
        # slow state for seconds at a time, and a median over passes snaps to
        # whichever state dominates one run
        "wall_s": statistics.mean(raw["untraced_pass_wall_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    passes = len(raw["untraced_pass_wall_s"])
    notes = [f"setup_s: median of {len(setups)} fresh processes",
             f"wall_s: mean over {passes} passes of the op list, after a warm-up pass "
             f"of {raw['warmup_pass_wall_s']:.4f} s",
             f"op_p50_ms = {statistics.median(latencies_ms):.4f} ms (over {n} ops)"]
    if n >= P90_MIN_OPS:
        p90 = statistics.quantiles(latencies_ms, n=10)[-1]
        notes.append(f"op_p90_ms = {p90:.4f} ms (over {n} ops)")
    else:
        notes.append(f"op_p90_ms: not reported, {n} ops < {P90_MIN_OPS}")
    return values, notes


def unit_of(name: str) -> str:
    return "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "count"


def traced(raw: dict, listed: set[str]) -> list[str]:
    untraced = statistics.median(raw["untraced_pass_wall_s"])
    with_trace = statistics.median(raw["traced_pass_wall_s"])
    lines = [f"tracing overhead: traced pass {with_trace:.4f} s vs untraced "
             f"{untraced:.4f} s = {with_trace - untraced:+.4f} s "
             f"({(with_trace / untraced - 1.0) * 100:+.1f}%), {raw['spans']} spans",
             "per-layer metrics per pass (mean of two traced passes; * = in BENCHMARK.json):"]
    lines += [f"  {'*' if name in listed else ' '} {name} = {value!r} {unit_of(name)}"
              for name, value in sorted(raw["layers"].items())]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dcclsc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no dcclsc package under {ROOT / 'src'} (or no BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = child_env()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    # set-ups are timed half before and half after the workload, so that a
    # slow or fast phase of a shared machine does not decide them alone
    try:
        setups = []
        if not args.trace:
            time_setup(args, env, remaining())  # warm-up: bytecode and page caches
            setups += [time_setup(args, env, remaining()) for _ in range(SETUP_RUNS // 2)]
        raw = run_worker(args, env, remaining())
        if not args.trace:
            setups += [time_setup(args, env, remaining())
                       for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, notes = raw["layers"], traced(raw, {m["name"] for m in wanted})
    else:
        values, notes = end_to_end(raw, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    mismatches = raw.get("count_mismatches", [])
    correct = raw["failed"] == 0 and not mismatches
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    host = machine(raw)
    lines = [f"machine: {json.dumps(host)}",
             f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{raw['attempted']} ops, {raw['failed']} failed",
             f"error_rate = {raw['failed'] / raw['attempted']!r} "
             f"({raw['failed']} of {raw['attempted']} ops)"]
    if not args.trace:
        lines += [f"{m['name']} = {values[m['name']]!r} {m['unit']}" for m in wanted]
    lines += notes
    lines += [f"FAILED {f}" for f in raw["failures"][:MAX_PRINTED_FAILURES]]
    if raw["failed"] > MAX_PRINTED_FAILURES:
        lines.append(f"... {raw['failed'] - MAX_PRINTED_FAILURES} more failed ops, "
                     "all listed in the results file")
    lines += [f"COUNT MISMATCH between traced passes: {m}" for m in mismatches]

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"machine": host, "args": vars(args), "lines": lines, "result": result,
              "setup_s": setups, **{k: v for k, v in raw.items() if k != "latencies_s"}}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
