"""The package's public surface, and every demo script runs to completion against it."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dcclsc

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # a copy in tmp_path, so demos that write next to themselves leave the tree alone
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    # -W error: pyproject's filterwarnings does not reach a subprocess, and a
    # numpy RuntimeWarning in a demo should fail it
    proc = subprocess.run([sys.executable, "-W", "error", str(copy)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    # the one python block under "## Library" in README.md
    library = (REPO / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, flags=re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr


#: One entry per concept; the per-model wrappers and scalar duplicates left it.
PUBLIC = {
    "BoxBoundary", "DEFAULT_GUARD", "DcclscError", "DecisionSet", "DemandProfile",
    "Equilibrium", "ModelId", "MonteCarloDemand", "MrDemandVariant", "NonConcave",
    "OracleConfig", "OutOfDomain", "Params", "ProfitProfile", "Singularity", "SocReport",
    "ValidityReport", "certify_mr_variant", "check_soc", "decision_fields", "decision_values",
    "demand", "equilibrium", "limits", "monte_carlo_demand", "singularity_distance",
    "solve_stackelberg_numeric", "stationarity_residuals",
}
DROPPED = ("equilibrium_m", "equilibrium_r", "equilibrium_mr", "mr_helpers", "MRHelpers",
           "retailer_reaction_m", "profits", "utilities", "validity", "best_response_retailer",
           "validate_params")


def test_public_surface():
    assert len(dcclsc.__all__) == len(PUBLIC) == 28
    assert set(dcclsc.__all__) == PUBLIC
    for name in dcclsc.__all__:
        assert getattr(dcclsc, name) is not None, name
    assert [name for name in DROPPED if hasattr(dcclsc, name)] == []
