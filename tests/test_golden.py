"""Byte identity of the seeded CLI outputs against the files in tests/golden/.

Each case runs ``cli.main`` in-process with ``--out`` pointing into a
temporary directory and compares the written file byte for byte with its
recorded twin. A change that moves any output bit fails here.

Re-record (only when an output change is intended, and name every changed
file in CHANGES.md; the script prints whether each file's bytes changed):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from dcclsc.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_MR_POINT = ("--alpha", "0.6", "--cm", "1", "--cr", "0.5", "--s", "0.2")
_SIM_POINT = ("--alpha", "0.6", "--cm", "1", "--cr", "0.5", "--s", "0.2",
              "--pm", "0.5", "--pr", "0.8", "--w", "0.6", "--n", "100000", "--seed", "7")

#: Output file name -> CLI arguments (without --out).
CASES = {
    "sweep_fig3.csv": ("sweep", "--preset", "fig3"),
    "sweep_fig4.csv": ("sweep", "--preset", "fig4"),
    "sweep_fig5.csv": ("sweep", "--preset", "fig5"),
    "sweep_mr_from_0.1.csv": ("sweep", "--model", "mr", "--alpha-from", "0.1",
                              "--alpha-to", "0.9", "--alpha-step", "0.02", *_MR_POINT[2:]),
    "table4.csv": ("table4", "--format", "csv"),
    "table4.json": ("table4", "--format", "json"),
    "solve_m_verify.json": ("solve", "--model", "m", *_MR_POINT, "--verify"),
    "solve_r_verify.json": ("solve", "--model", "r", *_MR_POINT, "--verify"),
    "solve_mr_verify.json": ("solve", "--model", "mr", *_MR_POINT, "--verify"),
    # the numeric solve under the printed variant ends in NonConcave (exit 2)
    "solve_mr_as_printed.json": ("solve", "--model", "mr", *_MR_POINT, "--variant", "as-printed"),
    "simulate_m.json": ("simulate", "--model", "m", *_SIM_POINT, "--bm", "0.3"),
    "simulate_r.json": ("simulate", "--model", "r", *_SIM_POINT, "--br", "0.2", "--t", "0.4"),
    "simulate_mr.json": ("simulate", "--model", "mr", *_SIM_POINT, "--bm", "0.3",
                         "--br", "0.2", "--t", "0.4"),
    "verify_oracle.json": ("verify", "oracle"),
    "verify_props.json": ("verify", "props"),
    "verify_endpoints.json": ("verify", "endpoints"),
    "verify_mc.json": ("verify", "mc", "--samples", "2", "--n", "20000"),
}


def _write(name: str, directory: Path) -> Path:
    path = directory / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*CASES[name], "--out", str(path)])
    assert code == 0, f"{name}: exit {code}"
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert _write(name, tmp_path).read_bytes() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        path = GOLDEN_DIR / case
        before = path.read_bytes() if path.exists() else None
        print("changed  " if _write(case, GOLDEN_DIR).read_bytes() != before else "unchanged", path)
    sys.exit(0)
