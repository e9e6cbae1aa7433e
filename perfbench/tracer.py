"""In-memory span tracer for the dcclsc layers, installed from outside the package.

``Tracer.install`` wraps the public functions of each module (the layers) and
rebinds every reference to them inside the loaded ``dcclsc`` modules: module
attributes such as ``closed_form.make_equilibrium`` (imported by name from
``market``) and dispatch tables such as ``cli._COMMANDS``. Nothing under
``src/`` changes; the wrappers live only in the traced process.

A span records its name, start, end, parent span and a size: the number of
profit points evaluated by ``market.profit_values`` (so batched grid calls and
scalar polish or certification calls separate), the draws of
``oracle.monte_carlo_demand``, or the characters written by a ``report``
serializer. Self time is a span's duration minus the time its child spans
cover. Spans stay in memory until ``write`` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Public functions wrapped per layer. ``Class.method`` names patch the class.
LAYERS = {
    "params": ("Params.__post_init__", "DecisionSet.__post_init__", "validate_params"),
    "market": ("utilities", "choice_segment", "profit_values", "demand", "profits",
               "validity", "make_equilibrium"),
    "closed_form": ("decision_values", "limits", "mr_helpers", "equilibrium",
                    "equilibrium_m", "equilibrium_r", "equilibrium_mr"),
    "oracle": ("best_response_retailer", "solve_stackelberg_numeric", "check_soc",
               "monte_carlo_demand", "stationarity_residuals", "certify_mr_variant",
               "sample_params"),
    "audit": ("thresholds", "audit_ordering", "audit_monotonicity", "audit_uniqueness",
              "audit_endpoints"),
    "suites": ("suite_oracle", "suite_props", "suite_mc", "suite_endpoints", "suite_all",
               "sample_interior_case"),
    "report": ("equilibrium_row", "singular_row", "rows_to_csv", "to_json",
               "line_chart_svg"),
    "cli": ("main", "build_parser", "cmd_solve", "cmd_sweep", "cmd_table4", "cmd_verify",
            "cmd_simulate"),
}


def _profit_points(args, kwargs, result) -> int:
    # profit_values(model, p_m, p_r, w, b_m, b_r, t, params, ...): every caller
    # in the package passes the six decisions positionally
    arrays = [v for v in args[1:7] if isinstance(v, np.ndarray)]
    return int(np.broadcast(*arrays).size) if arrays else 1


def _mc_draws(args, kwargs, result) -> int:
    return int(kwargs["n"] if "n" in kwargs else args[3])


def _text_size(args, kwargs, result) -> int:
    return len(result)


_SIZES = {
    "market.profit_values": _profit_points,
    "oracle.monte_carlo_demand": _mc_draws,
    "report.rows_to_csv": _text_size,
    "report.to_json": _text_size,
    "report.line_chart_svg": _text_size,
}


class Tracer:
    """Span store plus the wrappers that feed it.

    Spans are columnar ``array`` buffers so a pass with ~10^5 profit calls
    stays a few MB. ``mark()`` returns a span index used to split passes.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.parent = array("i")
        self.size = array("q")
        self.failed = array("b")
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self.active = False

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0)
        self.self_ns.append(0)
        self.size.append(0)
        self.failed.append(0)
        self._stack.append([idx, 0])
        self.start.append(time.perf_counter_ns())

    def _close(self, size: int, failed: bool):
        now = time.perf_counter_ns()
        idx, children = self._stack.pop()
        duration = now - self.start[idx]
        self.end[idx] = now
        self.self_ns[idx] = duration - children
        self.size[idx] = size
        self.failed[idx] = failed
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        if not self.active:
            yield
            return
        self._open(self._id(name))
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(0, failed)

    def mark(self) -> int:
        return len(self.start)

    def _wrap(self, qualname: str, fn):
        name_id = self._id(qualname)
        sizer = _SIZES.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(0, True)
                raise
            tracer._close(sizer(args, kwargs, result) if sizer else 0, False)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every function in ``LAYERS`` and rebind all references to it."""
        import dcclsc.cli  # noqa: F401  (loads every layer module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dcclsc" or name.startswith("dcclsc."))]
        for layer, functions in LAYERS.items():
            module = sys.modules[f"dcclsc.{layer}"]
            for attr in functions:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, fn_name)
                wrapped = self._wrap(f"{layer}.{attr}", original)
                if owner_name:
                    setattr(owner, fn_name, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                        elif isinstance(value, dict):
                            for k, v in value.items():
                                if v is original:
                                    value[k] = wrapped

    # -- reduction -----------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict[str, dict]:
        """Per span name over spans [lo, hi): calls, total/self ns, size, failures,
        and calls whose size exceeds one (batched kernel calls)."""
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            agg = out.get(self.names[self.name[i]])
            if agg is None:
                agg = out[self.names[self.name[i]]] = {
                    "calls": 0, "total_ns": 0, "self_ns": 0, "size": 0,
                    "failed": 0, "batched": 0}
            agg["calls"] += 1
            agg["total_ns"] += self.end[i] - self.start[i]
            agg["self_ns"] += self.self_ns[i]
            agg["size"] += self.size[i]
            agg["failed"] += self.failed[i]
            agg["batched"] += self.size[i] > 1
        return out

    def write(self, path):
        """Dump every span as columnar gzip-compressed JSON."""
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "self_ns": self.self_ns.tolist(),
            "parent": self.parent.tolist(),
            "size": self.size.tolist(),
            "failed": self.failed.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
