"""The benchmark under perfbench/ binds to the package by name; keep every binding alive."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves():
    for layer, names in _load("tracer").LAYERS.items():
        module = importlib.import_module(f"dcclsc.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}.{name}"


@pytest.mark.parametrize("workload", ["oracle_mr", "verify_all", "sweeps_audits"])
def test_every_workload_builds_its_ops(workload, tmp_path):
    # builds the op list only; nothing is run
    workloads = _load("workloads")
    ops = workloads.BUILDERS[workload](3, tmp_path)
    assert ops and all(callable(op.run) and callable(op.check) for op in ops)
