"""Command-line surface: flags, schemas, exit codes, byte-stable outputs."""

import dataclasses
import io
import json
import math
import re
import shlex
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from dcclsc import (ModelId, OutOfDomain, Params, cli, decision_fields, equilibrium, market,
                    oracle, report, suites)
from dcclsc.cli import main
from dcclsc.closed_form import decision_values
from dcclsc.report import CSV_COLUMNS
from dcclsc.suites import FIGURE_PRESETS, suite_endpoints, suite_mc, suite_oracle


def run(capsys, *argv) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "m", "--alpha", "0.9",
                           "--cm", "0.15", "--cr", "0.12", "--s", "0.02")
        assert code == 0
        payload = json.loads(out)
        assert payload["decisions"]["p_m"] == pytest.approx(0.648387, abs=1e-6)
        assert payload["provenance"] == "closed_form"
        assert payload["validity"]["interior"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "m", "--alpha", "0.9",
                           "--cm", "0.15", "--cr", "0.12", "--s", "0.02",
                           "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["p_m"]) == pytest.approx(0.648387, abs=1e-6)
        assert cells["b_r"] == ""  # absent fields stay empty, never zero
        assert cells["interior_valid"] == "true"

    @pytest.mark.parametrize("fmt,calls", [("json", 2), ("csv", 0)])
    def test_only_json_certifies(self, capsys, monkeypatch, fmt, calls):
        # the CSV row has no verdict column, so it costs no certification:
        # no identification, one parts-kernel call on more than one point
        seen = []
        kernel = market.profit_parts

        def counting(*args, **kwargs):
            out = kernel(*args, **kwargs)
            seen.extend([out] if np.size(out[0][0]) > 1 else [])
            return out

        monkeypatch.setattr(market, "profit_parts", counting)
        code, _, _ = run(capsys, "solve", "--model", "mr", "--alpha", "0.6", "--cm", "1",
                         "--cr", "0.5", "--s", "0.2", "--format", fmt)
        assert code == 0
        assert len(seen) == calls

    @pytest.mark.parametrize("alpha", ["0.21", "0.6"])
    def test_verify_with_csv_is_a_usage_error(self, capsys, monkeypatch, alpha):
        # once a numeric solve whose result the CSV threw away: exit 0 at 0.6,
        # and exit 2 at 0.21, where the plain CSV exits 0
        monkeypatch.setattr(cli.closed_form, "equilibrium", None)
        code, out, err = run(capsys, "solve", "--model", "r", "--alpha", alpha, "--cm", "1",
                             "--cr", "0.5", "--s", "0.2", "--verify", "--format", "csv")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == ("error: --verify needs --format json: "
                                        "the CSV row has no oracle columns")

    def test_verify_adds_oracle_block(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "mr", "--alpha", "0.6",
                           "--cm", "1", "--cr", "0.5", "--s", "0.2", "--verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified_demand_variant"] == "none"
        oracle_block = payload["oracle"]
        # the box bounds no answer and the seed seeds nothing, so neither is
        # echoed; the verdict is printed once, at the top level
        assert set(oracle_block) == {"decisions", "deltas_vs_closed_form"}
        assert oracle_block["decisions"]["p_m"] == pytest.approx(1.0102803738, abs=1e-6)
        # printed closed form differs from the numeric optimum here
        assert abs(oracle_block["deltas_vs_closed_form"]["p_r"]) > 1.0

    @pytest.mark.parametrize("preset", ["fig3", "fig4"])
    def test_verify_at_figure_parameters(self, capsys, preset):
        # the figures' costly parameters solve: the solver reads no step or
        # box that scales with the costs
        model, lo, hi, c_m, c_r, s = FIGURE_PRESETS[preset]
        for alpha in (lo, 0.5, hi):
            code, out, _ = run(capsys, "solve", "--model", model.value,
                               "--alpha", str(alpha), "--cm", str(c_m), "--cr", str(c_r),
                               "--s", str(s), "--verify")
            assert code == 0, (preset, alpha)
            payload = json.loads(out)
            for name, value in payload["decisions"].items():
                assert payload["oracle"]["decisions"][name] == pytest.approx(value, rel=1e-3)

    def test_mr_follower_non_concave_is_a_verdict(self, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", "--model", "mr", "--alpha", "0.2",
                           "--cm", "0.5", "--cr", "0.25", "--s", "0.1")
        assert code == 0
        assert json.loads(out)["certified_demand_variant"] == "follower_non_concave"
        csv = tmp_path / "mr.csv"
        code, _, _ = run(capsys, "sweep", "--model", "mr", "--alpha-from", "0.1",
                         "--alpha-to", "0.9", "--alpha-step", "0.1", "--cm", "0.5",
                         "--cr", "0.25", "--s", "0.1", "--out", str(csv))
        assert code == 0
        assert len(csv.read_text().splitlines()) == 1 + 9

    def test_mr_leader_non_concave_is_a_verdict(self, capsys):
        # above alpha 1/4 the retailer is concave, but the leader only above 0.27689
        code, out, _ = run(capsys, "solve", "--model", "mr", "--alpha", "0.26",
                           "--cm", "1", "--cr", "0.5", "--s", "0.2")
        assert code == 0
        assert json.loads(out)["certified_demand_variant"] == "leader_non_concave"

    def test_as_printed_verify_fails_without_solving(self, capsys, monkeypatch):
        # under the as-printed variant no alpha has a numeric equilibrium
        monkeypatch.setattr(oracle, "solve_stackelberg_numeric", None)
        code, out, err = run(capsys, "solve", "--model", "mr", "--alpha", "0.6",
                             "--cm", "1", "--cr", "0.5", "--s", "0.2",
                             "--variant", "as-printed", "--verify")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "as-printed variant" in err

    @pytest.mark.parametrize("model", ["m", "r"])
    def test_as_printed_variant_outside_model_mr_is_a_domain_error(self, capsys, model):
        # once exit 0, echoing a variant nothing read
        code, out, err = run(capsys, "solve", "--model", model, "--alpha", "0.6",
                             "--cm", "1", "--cr", "0.5", "--variant", "as-printed")
        assert (code, out) == (1, "")
        assert err == (f"error: variant='as_printed' violates: model {model.upper()} "
                       f"has no segment-3 demand variant\n")
        code, out, _ = run(capsys, "sweep", "--model", model, "--alpha-from", "0.3",
                           "--alpha-to", "0.4", "--alpha-step", "0.05", "--cm", "1",
                           "--cr", "0.5", "--s", "0.1", "--variant", "as-printed")
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("argv", [
        ["solve", "--model", "r", "--alpha", "0.2222222", "--cm", "1", "--cr", "0.5"],
        ["sweep", "--model", "r", "--alpha-from", "0.2222222", "--alpha-to", "0.2222223",
         "--alpha-step", "0.0000001", "--cm", "1", "--cr", "0.5", "--s", "0.1"],
    ], ids=["solve", "sweep"])
    def test_as_printed_variant_is_refused_inside_the_guard_band(self, capsys, argv):
        # once exit 3 (solve) and two singular rows with exit 0 (sweep): the guard
        # band near R's pole at 2/9 was checked before the variant
        code, out, err = run(capsys, *argv, "--variant", "as-printed")
        assert (code, out) == (1, "")
        assert err == ("error: variant='as_printed' violates: model R "
                       "has no segment-3 demand variant\n")

    def test_decisions_beyond_float_range_are_named(self, capsys):
        # the closed form refuses its own overflow, before DecisionSet sees it
        code, out, err = run(capsys, "solve", "--model", "m", "--alpha", "0.5",
                             "--cm", "1e308", "--cr", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: p_m=inf violates: must be finite; float arithmetic "
                              "overflows here; p_r=nan violates")

    def test_unwritable_output_path_exit_code(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--model", "m", "--alpha", "0.9",
                           "--cm", "0.15", "--cr", "0.12",
                           "--out", str(tmp_path / "missing" / "eq.json"))
        assert code == 1
        assert "cannot write output" in err
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code, _, err = run(capsys, "sweep", "--preset", "fig3",
                           "--out", str(tmp_path / "fig3.csv"),
                           "--plot-dir", str(blocker / "charts"))
        assert code == 1
        assert "cannot write output" in err

    def test_negative_guard_rejected(self, capsys):
        # the band is fixed (DEFAULT_GUARD): --guard is no flag of solve or sweep
        for argv in (["solve", "--model", "m", "--alpha", "0.9", "--cm", "0.15", "--cr", "0.12"],
                     ["sweep", "--preset", "fig4"]):
            code, out, err = run(capsys, *argv, "--guard", "-0.1")
            assert (code, out) == (1, "")
            assert err.splitlines()[-1] == "error: unrecognized arguments: --guard -0.1"

    @pytest.mark.parametrize("command", ["solve --model m --alpha 0.9 --cm 0.15 --cr 0.12",
                                         "sweep --preset fig4"])
    def test_infinite_guard_rejected(self, capsys, command):
        # once the sweep wrote every row singular and exited 0, and solve exited 3
        code, out, err = run(capsys, *command.split(), "--guard", "inf")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "error: unrecognized arguments: --guard inf"

    def test_singularity_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "r", "--alpha", "0.2222222",
                           "--cm", "0.5", "--cr", "0.25", "--s", "0.1")
        assert code == 3
        assert "2.222e-08" in err or "singular" in err

    def test_usage_exit_code(self, capsys):
        code, _, _ = run(capsys, "solve", "--model", "m", "--alpha", "0.9")
        assert code == 1
        code, _, _ = run(capsys, "solve", "--model", "m", "--alpha", "0.9",
                         "--cm", "0.15", "--cr", "0.12", "--nope", "1")
        assert code == 1

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "m", "--alpha", "1.5",
                           "--cm", "0.15", "--cr", "0.12")
        assert code == 1
        assert "alpha" in err

    @pytest.mark.parametrize("argv, cause", [
        (["--model", "r", "--cm", "1e300", "--cr", "1", "--s", "1e300"], "overflows"),
        (["--model", "m", "--cm", "1e160", "--cr", "1"], "overflows"),
    ])
    def test_profit_beyond_float_range_is_a_domain_error(self, capsys, argv, cause):
        # once a numeric linear-algebra traceback, once a false "not concave";
        # c_m = 1e160 was also refused as too large to resolve the curvature
        # while the difference step stayed 0.5 at every cost level
        code, _, err = run(capsys, "solve", "--alpha", "0.5", *argv, "--verify")
        assert code == 1
        assert cause in err

    @pytest.mark.parametrize("command", [
        "--model m --alpha 0.9 --cm 4.345315881496663e+153 --cr 1 --verify",
        "--model r --alpha 0.9 --cm 4.439933167901492e+153 --cr 1 --verify",
        "--model mr --alpha 0.75 --cm 2.97640373535405e+153 --cr 1 --s 1e153",
    ])
    def test_stencil_differences_beyond_float_range_are_a_domain_error(self, capsys, command):
        # profits just below the float limit: once RuntimeWarnings and a
        # LinAlgError traceback (m, r), or exit 0 with a false
        # "follower_non_concave" verdict at alpha 0.75 (mr); the quadratic
        # form's curvature terms at the point overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "solve", *command.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: profit=") and err.count("\n") == 1
        assert "overflows in the game's quadratic form" in err

    @pytest.mark.parametrize("model, alpha", [("r", "0.2225"), ("mr", "0.277"), ("mr", "0.28")])
    def test_verify_just_above_a_pole_answers(self, capsys, model, alpha):
        # once exit 2: the optimum lay outside the search box (BoxBoundary)
        code, out, err = run(capsys, "solve", "--model", model, "--alpha", alpha, "--cm", "1",
                             "--cr", "0.5", "--s", "0.2", "--verify")
        assert (code, err) == (0, "")
        oracle_decisions = json.loads(out)["oracle"]["decisions"]
        assert set(oracle_decisions) == set(decision_fields(model))

    @pytest.mark.parametrize("argv", [
        ["--model", "r", "--cm", "1e300", "--cr", "1", "--s", "1e300"],
        ["--model", "m", "--cm", "1e160", "--cr", "1"],
    ])
    def test_closed_form_refusal_stands_under_verify(self, capsys, monkeypatch, argv):
        # the closed form's refusal is the report: the numeric solver is not
        # run a second time to append its own
        monkeypatch.setattr(oracle, "solve_stackelberg_numeric", None)
        code, out, err = run(capsys, "solve", "--alpha", "0.5", *argv, "--verify")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("model", ["m", "r", "mr"])
    def test_closed_form_beyond_float_range_is_a_domain_error(self, capsys, model):
        # once exit 0 with Infinity or NaN in the JSON (m, r), and numpy
        # overflow warnings on stderr (mr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "solve", "--model", model, "--alpha", "0.5",
                                 "--cm", "1e200", "--cr", "1", "--s", "1e200")
        assert code == 1
        assert out == ""
        assert "Warning" not in err
        # mr once ran its certification first and named the oracle's stencil
        assert "pi_m" in err and "pi_s" in err and "stencil" not in err

    @pytest.mark.parametrize("model", ["m", "r", "mr"])
    @pytest.mark.parametrize("c_m", [3e5, 1e9, 1e50, 1e150])
    def test_verify_at_large_costs(self, capsys, model, c_m):
        # once refused with exit 1: a fixed difference step of 0.5 could not
        # resolve the curvature of profits this large
        code, out, _ = run(capsys, "solve", "--model", model, "--alpha", "0.6",
                           "--cm", repr(c_m), "--cr", repr(c_m / 2), "--s", "0.2", "--verify")
        assert code == 0
        if model != "mr":
            exact = decision_values(model.upper(), Fraction(0.6), Fraction(c_m),
                                    Fraction(c_m) - Fraction(c_m / 2), Fraction(0.2))
            numeric = json.loads(out)["oracle"]["decisions"]
            scale = max(abs(v) for v in exact.values())
            for name, value in exact.items():
                assert abs(Fraction(numeric[name]) - value) <= Fraction(1e-14) * scale, name


class TestSweep:
    def test_costs_beyond_float_range_write_no_csv(self, tmp_path, capsys):
        # once a CSV with inf profit cells; the costs apply to every row
        path = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "sweep", "--model", "m", "--alpha-from", "0.1",
                               "--alpha-to", "0.2", "--alpha-step", "0.05", "--cm", "1e300",
                               "--cr", "1", "--s", "1e300", "--out", str(path))
        assert code == 1
        assert not path.exists()
        assert "pi_m" in err and "finite" in err

    def test_degenerate_sweep_matches_solve(self, capsys):
        code, sweep_out, _ = run(capsys, "sweep", "--model", "m",
                                 "--alpha-from", "0.5", "--alpha-to", "0.5",
                                 "--alpha-step", "1", "--cm", "0.6", "--cr", "0.3",
                                 "--s", "0.1")
        assert code == 0
        sweep_rows = [l for l in sweep_out.splitlines() if l.startswith("M,")]
        assert len(sweep_rows) == 1
        code, solve_out, _ = run(capsys, "solve", "--model", "m", "--alpha", "0.5",
                                 "--cm", "0.6", "--cr", "0.3", "--s", "0.1",
                                 "--format", "csv")
        solve_row = [l for l in solve_out.splitlines() if l.startswith("M,")][0]
        assert sweep_rows[0] == solve_row

    def test_row_count(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", "--model", "m", "--alpha-from", "0.1",
                         "--alpha-to", "0.9", "--alpha-step", "0.1",
                         "--cm", "0.6", "--cr", "0.3", "--s", "0.1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 9  # header + floor((0.9-0.1)/0.1) + 1 rows

    def test_singular_rows_marked_not_dropped(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, "sweep", "--model", "r", "--alpha-from", "0.20",
                         "--alpha-to", "0.25", "--alpha-step", "0.0022222",
                         "--cm", "0.6", "--cr", "0.3", "--s", "0.1", "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert len(rows) == 23
        idx = {name: i for i, name in enumerate(CSV_COLUMNS)}
        singular = [i for i, r in enumerate(rows) if r[idx["singular"]] == "true"]
        # only row 10, alpha = 0.222222, sits within the fixed band of 1e-6 around 2/9
        assert singular == [10]
        assert abs(float(rows[10][idx["alpha"]]) - 2 / 9) < 1e-6
        assert rows[10][idx["p_m"]] == "" and rows[10][idx["pi_s"]] == ""

    def test_fig4_preset_subsidy_decreases(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code, _, _ = run(capsys, "sweep", "--preset", "fig4", "--out", str(out))
        assert code == 0
        idx = {name: i for i, name in enumerate(CSV_COLUMNS)}
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert len(rows) == 56
        b_r = [float(r[idx["b_r"]]) for r in rows]
        assert all(b_r[i] > b_r[i + 1] for i in range(len(b_r) - 1))
        assert all(float(r[idx["p_r"]]) > float(r[idx["p_m"]]) for r in rows)

    def test_csv_columns_pinned(self):
        assert CSV_COLUMNS == (
            "model", "alpha", "c_m", "c_r", "delta", "s", "p_m", "p_r", "w", "b_m", "b_r", "t",
            "q1", "q2", "q3", "q4", "pi_m", "pi_r", "pi_s", "interior_valid", "singular")

    @pytest.mark.parametrize("alpha_from, alpha_to, step, last", [
        ("0.01", "0.99999999999", "0.01", "0.99"),
        ("0.5", "0.9999999999", "0.5", "0.5"),
    ])
    def test_no_row_at_alpha_one(self, capsys, alpha_from, alpha_to, step, last):
        # the row count's slack once added a row at alpha 1.0, which exited 1
        code, out, err = run(capsys, "sweep", "--model", "m", "--alpha-from", alpha_from,
                             "--alpha-to", alpha_to, "--alpha-step", step, "--cm", "1",
                             "--cr", "0.5", "--s", "0")
        assert (code, err) == (0, "")
        rows = out.splitlines()[3:]
        assert len(rows) == round((float(last) - float(alpha_from)) / float(step)) + 1
        assert out.splitlines()[1] == f"rows={len(rows)} singular=0"
        assert rows[-1].split(",")[1] == last

    def test_sweep_needs_preset_or_full_flags(self, capsys):
        code, _, _ = run(capsys, "sweep", "--model", "m")
        assert code == 1

    def test_infinite_step_is_a_usage_error(self, capsys, tmp_path):
        # the first row was once 0.5 + 0 * inf, refused as "alpha=nan"
        path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--model", "m", "--alpha-from", "0.5",
                             "--alpha-to", "0.5", "--alpha-step", "inf", "--cm", "1",
                             "--cr", "0.5", "--s", "0", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            "error: need 0 < --alpha-from <= --alpha-to < 1 and a finite --alpha-step > 0")
        assert not path.exists()

    @pytest.mark.parametrize("step", ["1e-9", "5e-324"])
    def test_row_cap_refuses_before_any_row(self, tmp_path, capsys, monkeypatch, step):
        # --alpha-step 1e-9 once asked for 980 million rows held in one list
        def no_row(*args, **kwargs):
            raise AssertionError("a row was built")

        monkeypatch.setattr(cli.closed_form, "equilibrium", no_row)
        path = tmp_path / "sweep.csv"
        code, text, err = run(capsys, "sweep", "--preset", "fig3", "--alpha-step", step,
                              "--out", str(path))
        assert (code, text) == (1, "")
        assert not path.exists()
        assert err.splitlines() == [
            f"error: alpha_step={float(step)!r} violates: asks for more than 100,000 sweep rows"]

    @pytest.mark.parametrize("rows, refused", [(100_000, False), (100_001, True)])
    def test_row_cap_boundary(self, capsys, monkeypatch, rows, refused):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli.closed_form, "equilibrium", reached)
        step = 2.0 ** -20  # binary steps keep the row count exact
        argv = ["sweep", "--model", "m", "--cm", "1", "--cr", "0.5", "--s", "0.1",
                "--alpha-from", "0.25", f"--alpha-to={0.25 + (rows - 1) * step!r}",
                f"--alpha-step={step!r}"]
        if refused:
            assert run(capsys, *argv)[0] == 1
        else:
            with pytest.raises(Reached):
                main(argv)

    def test_flat_chart_of_huge_values(self, tmp_path, capsys):
        # a 0.5 pad cannot widen a flat range beyond |y| of about 4.5e15: the
        # chart once divided by its zero height after the CSV was written
        plot_dir = tmp_path / "plots"
        code, _, err = run(capsys, "sweep", "--model", "m", "--alpha-from", "0.5",
                           "--alpha-to", "0.5", "--cm", "1e20", "--cr", "1", "--s", "0",
                           "--out", str(tmp_path / "x.csv"), "--plot-dir", str(plot_dir))
        assert (code, err) == (0, "")
        charts = sorted(plot_dir.glob("*.svg"))
        assert len(charts) == 4
        assert not any("nan" in chart.read_text() for chart in charts)

    @pytest.mark.parametrize("xs, ys", [
        ([0.1, 0.2], [-1e308, 1e308]),  # a y range wider than the float range
        ([-1e308, 1e308], [0.0, 1.0]),  # the same on the x axis
        ([1e20], [1.0]),  # a flat x range where a 0.5 pad is below the spacing
        ([math.nan, 0.2, math.inf], [0.0, 1.0, 2.0]),  # points off the x axis are dropped
    ])
    def test_chart_axes_beyond_float_spacing(self, xs, ys):
        # once nan coordinates (the spans overflowed) or a ZeroDivisionError
        svg = report.line_chart_svg("t", xs, ys, "y")
        points = svg.split('<polyline points="')[1].split('"')[0].split()
        coords = [float(c) for point in points for c in point.split(",")]
        coords += [float(v) for v in re.findall(r'<text x="([^"]+)"', svg)]
        coords += [float(v) for v in re.findall(r'<text x="[^"]+" y="([^"]+)"', svg)]
        assert all(0.0 <= c <= 640.0 for c in coords), coords
        assert "nan" not in svg and "inf" not in svg

    def test_plots_emitted(self, tmp_path, capsys):
        plot_dir = tmp_path / "charts"
        code, _, _ = run(capsys, "sweep", "--model", "m", "--alpha-from", "0.2",
                         "--alpha-to", "0.8", "--alpha-step", "0.1", "--cm", "0.6",
                         "--cr", "0.3", "--s", "0.1", "--out", str(tmp_path / "x.csv"),
                         "--plot-dir", str(plot_dir))
        assert code == 0
        names = sorted(p.name for p in plot_dir.iterdir())
        assert names == ["M_b_m.svg", "M_p_m.svg", "M_p_r.svg", "M_w.svg"]
        assert "<svg" in (plot_dir / "M_p_m.svg").read_text()

    def test_no_chart_without_the_decisions(self, tmp_path, capsys):
        # every row is singular, its decision columns blank: nothing to draw
        plot_dir = tmp_path / "charts"
        code, out, _ = run(capsys, "sweep", "--model", "r", "--alpha-from", "0.2222222",
                           "--alpha-to", "0.2222223", "--alpha-step", "0.0000001", "--cm", "0.6",
                           "--cr", "0.3", "--s", "0.1", "--plot-dir", str(plot_dir))
        assert code == 0
        assert out.splitlines()[1] == "rows=2 singular=2"
        assert list(plot_dir.iterdir()) == []
        assert "wrote chart" not in out

    def test_unknown_output_group_is_usage_error(self, capsys):
        # every row fills every column its model uses: --outputs is no flag of sweep
        code, out, err = run(capsys, "sweep", "--model", "m", "--alpha-from", "0.2",
                             "--alpha-to", "0.8", "--cm", "0.6", "--cr", "0.3", "--s", "0.1",
                             "--outputs", "demands,nope")
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == "error: unrecognized arguments: --outputs demands,nope"


class TestCertificationCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        certify = oracle.certify_mr_variant

        def counting(*args, **kwargs):
            seen.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(oracle, "certify_mr_variant", counting)
        return seen

    @pytest.mark.parametrize("argv", [["sweep", "--preset", "fig5"],
                                      ["table4", "--format", "csv"]])
    def test_outputs_without_a_verdict_column_skip_it(self, capsys, calls, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert calls == []

    def test_plain_mr_solve_still_certifies(self, capsys, calls):
        code, out, _ = run(capsys, "solve", "--model", "mr", "--alpha", "0.6",
                           "--cm", "1", "--cr", "0.5", "--s", "0.2")
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["certified_demand_variant"] == "none"


class TestTable4:
    def test_spot_checked_cells(self, capsys):
        code, out, _ = run(capsys, "table4", "--format", "json")
        assert code == 0
        cells = {(c["model"], c["alpha"], c["variable"]): c
                 for c in json.loads(out)["cells"]}
        m_pm = cells[("M", 0.7, "p_m")]
        assert m_pm["published"] == 1.3
        assert m_pm["computed"] == pytest.approx(0.960606, abs=1e-6)
        r_t = cells[("R", 0.65, "t")]
        assert r_t["published"] == 0.4
        assert r_t["computed"] == pytest.approx(0.350812, abs=1e-6)
        r_pr = cells[("R", 0.65, "p_r")]
        assert r_pr["published"] == 1.5
        assert r_pr["computed"] == pytest.approx(1.532305, abs=1e-6)

    def test_interior_violations_flagged_for_costly_rows(self, capsys):
        code, out, _ = run(capsys, "table4", "--format", "json")
        assert code == 0
        for cell in json.loads(out)["cells"]:
            if cell["c_m"] > 1.0:
                assert cell["q1"] < 0.0
                assert cell["interior_valid"] is False

    def test_six_rows_compared(self, capsys):
        code, out, _ = run(capsys, "table4", "--format", "json")
        rows = {(c["model"], c["alpha"]) for c in json.loads(out)["cells"]}
        assert len(rows) == 6

    def test_text_format_never_asserts(self, capsys):
        code, out, _ = run(capsys, "table4")
        assert code == 0
        assert "published" in out


class TestVerify:
    def test_endpoints_suite_passes(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code, text, _ = run(capsys, "verify", "endpoints", "--samples", "5",
                            "--out", str(out))
        assert code == 0
        assert "PASS" in text
        payload = json.loads(out.read_text())
        assert payload[0]["ok"] is True
        assert "elapsed" not in json.dumps(payload)

    def test_props_suite_flags_known_erratum(self, capsys):
        code, text, _ = run(capsys, "verify", "props", "--samples", "5")
        assert code == 0
        assert "flagged as expected" in text

    def test_oracle_suite_small(self, capsys):
        code, text, _ = run(capsys, "verify", "oracle", "--samples", "3")
        assert code == 0
        assert "max relative deviation" in text

    def test_unreachable_tolerance_fails(self, capsys, monkeypatch):
        # below one ulp in relative terms: only exact agreement on every
        # decision could pass (the worst roundoff on these draws is 1.1e-15)
        monkeypatch.setattr(suites, "ORACLE_TOL", 1e-17)
        code, text, _ = run(capsys, "verify", "oracle", "--samples", "2")
        assert code == 2
        assert "FAIL" in text
        assert "config tol = 1e-17" in text

    def test_mc_suite_small(self, capsys):
        code, text, _ = run(capsys, "verify", "mc", "--samples", "2", "--n", "200000")
        assert code == 0
        assert "adopted variant confirmed" in text

    def test_mc_gate_corrects_for_the_number_of_checks(self, capsys):
        # one of these 30 checks lands at 3.05 sigma: a per-check three-sigma
        # gate fails this correct simulation
        code, text, _ = run(capsys, "verify", "mc", "--samples", "3", "--seed", "66",
                            "--n", "20000")
        assert code == 0
        assert "worst_sigma = 3.053" in text

    def test_mc_simulations_share_no_stream(self, monkeypatch):
        # case idx of every model was once simulated with seed + idx, so M, R
        # and MR shared pairs and --seed 1 and --seed 2 shared all but one stream
        seeds = []
        simulate = oracle.monte_carlo_demand

        def recording(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(suites.oracle, "monte_carlo_demand", recording)
        for seed in (1, 2):
            suite_mc(samples=3, seed=seed, n=10)
        assert len(seeds) == 20 and len(set(seeds)) == 20

    def test_mc_gate_catches_a_one_percent_mass_error(self, monkeypatch):
        demand = suites.market.demand
        first = []

        def skewed(*args, **kwargs):
            out = demand(*args, **kwargs)
            if not first:
                first.append(out)
                out = dataclasses.replace(out, q1=out.q1 + 0.01)
            return out

        monkeypatch.setattr(suites.market, "demand", skewed)
        report = suite_mc(samples=1, n=1_000_000)
        assert not report.ok
        assert report.counts["failures"] == 1
        assert "M case 0 segment q1" in report.findings[0]

    @pytest.mark.parametrize("failing", [False, True])
    def test_one_failing_suite_fails_verify(self, capsys, monkeypatch, failing):
        # suites return reports; only the command maps their verdicts to exit 2
        if failing:
            def stub(samples: int = 1, seed: int = 0) -> suites.RunReport:
                return suites.RunReport(command="verify endpoints", seed=seed, ok=False)
            monkeypatch.setitem(suites.SUITES, "endpoints", stub)
        want = 2 if failing else 0
        assert run(capsys, "verify", "endpoints", "--samples", "1")[0] == want
        assert run(capsys, "verify", "all", "--samples", "1", "--n", "2000")[0] == want

    def test_suite_choices_are_the_suite_table(self):
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == (*suites.SUITES, "all")

    def test_unset_flags_keep_each_suite_default(self, capsys, tmp_path):
        out = tmp_path / "all.json"
        code, _, _ = run(capsys, "verify", "all", "--samples", "1", "--n", "2000",
                         "--out", str(out))
        assert code == 0
        reports = {rep["command"]: rep for rep in json.loads(out.read_text())}
        assert {cmd: rep["seed"] for cmd, rep in reports.items()} == {
            "verify oracle": 42, "verify props": 7, "verify mc": 1, "verify endpoints": 5}
        assert reports["verify oracle"]["config"]["tol"] == 1e-3
        assert reports["verify mc"]["config"] == {"samples": 1, "n": 2000}

    def test_seed_zero_is_seed_zero(self, capsys, tmp_path):
        # 0 once stood for the suite default, so --seed 0 ran and reported seed 5
        out = tmp_path / "rep.json"
        code, _, _ = run(capsys, "verify", "endpoints", "--seed", "0", "--samples", "1",
                         "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())[0]["seed"] == 0

    def test_zero_samples_is_a_usage_error(self, capsys):
        # the library's refusal, as for every other domain error
        code, text, err = run(capsys, "verify", "endpoints", "--samples", "0")
        assert code == 1
        assert text == ""
        assert err == "error: samples=0 violates: must be >= 1\n"

    def test_flag_the_suite_does_not_take_is_a_usage_error(self, capsys):
        # once exit 0, not using the flag
        code, text, err = run(capsys, "verify", "endpoints", "--samples", "1", "--n", "3")
        assert (code, text) == (1, "")
        assert err.splitlines()[-1] == "error: verify endpoints does not take --n"

    @pytest.mark.parametrize("suite", list(suites.SUITES))
    def test_zero_draws_are_a_domain_error_in_the_library(self, suite):
        # once a pass on zero draws: "max relative deviation 0.000e+00 at None"
        with pytest.raises(OutOfDomain, match=r"^samples=0 violates: must be >= 1$"):
            suites.SUITES[suite](samples=0)

    @pytest.mark.parametrize("tol, shown", [("-1", "-1.0"), ("nan", "nan")])
    def test_negative_or_nan_tolerance_is_a_domain_error(self, capsys, tol, shown):
        # once a verification FAIL with exit 2; the tolerance is fixed
        # (suites.ORACLE_TOL), so --tol is no flag of verify and exits 1 unread
        code, text, err = run(capsys, "verify", "oracle", f"--tol={tol}", "--samples", "1")
        assert code == 1
        assert text == ""
        assert err.splitlines()[-1] == f"error: unrecognized arguments: --tol={tol}"
        assert f"error: tol={shown} violates" not in err

    def test_infinite_tolerance_is_a_domain_error(self, capsys, tmp_path):
        # once exit 0, writing "tol": Infinity into the report
        out = tmp_path / "o.json"
        code, text, err = run(capsys, "verify", "oracle", "--samples", "1", "--tol", "inf",
                              "--out", str(out))
        assert (code, text) == (1, "")
        assert err.splitlines()[-1] == "error: unrecognized arguments: --tol inf"
        assert not out.exists()

    def test_one_draw_simulations_report_a_finite_worst_sigma(self, capsys, tmp_path):
        # with n = 1 every empirical standard error is 0; "worst_sigma" was once Infinity
        out = tmp_path / "mc.json"
        code, _, _ = run(capsys, "verify", "mc", "--samples", "1", "--n", "1",
                         "--out", str(out))
        assert code in (0, 2)
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert math.isfinite(json.loads(text)[0]["counts"]["worst_sigma"])

    @pytest.mark.parametrize("suite", ["oracle", "props", "mc", "endpoints", "all"])
    def test_negative_seed_is_a_domain_error(self, capsys, suite):
        n = ["--n", "10"] if suite in ("mc", "all") else []  # only those take --n
        code, text, err = run(capsys, "verify", suite, "--seed", "-1", "--samples", "1", *n)
        assert code == 1
        assert text == ""
        assert err.splitlines() == ["error: seed=-1 violates: must be >= 0"]


class TestSimulate:
    def test_equal_subsidy_case(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "mr", "--alpha", "0.6",
                           "--pm", "0.3", "--pr", "0.6", "--w", "0.4",
                           "--bm", "0.3", "--br", "0.3", "--t", "0.35",
                           "--n", "200000", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["shares"]["q3"] == 0.0
        assert payload["analytic"]["q3"] == 0.0
        assert payload["analytic_as_printed"]["q3"] == 1.0

    def test_masses_beyond_float_range_are_a_domain_error(self, capsys):
        # once exit 0 with "q1": -Infinity, "q2": Infinity in both analytic blocks
        code, out, err = run(capsys, "simulate", "--model", "mr", "--alpha", "0.6",
                             "--pm", "1e308", "--pr=-1e308", "--w", "0.4", "--bm", "0.3",
                             "--br", "0.2", "--t", "0.3", "--cm", "0.5", "--cr", "0.25",
                             "--s", "0.1", "--n", "10")
        assert code == 1
        assert out == ""
        assert "q1=-inf" in err and "q2=inf" in err

    def test_missing_decision_flag(self, capsys):
        code, out, err = run(capsys, "simulate", "--model", "m", "--alpha", "0.5",
                             "--pm", "0.3", "--pr", "0.6", "--w", "0.4")
        assert code == 1
        assert out == ""
        # once shown as b_m=nan
        assert err == "error: b_m=None violates: model M requires a finite b_m\n"

    @pytest.mark.parametrize("model, flag, field", [("m", "--t", "t"), ("m", "--br", "b_r"),
                                                    ("r", "--bm", "b_m")])
    def test_decision_flag_the_model_does_not_use(self, capsys, model, flag, field):
        # once exit 0, the flag echoed in the payload's command and otherwise ignored
        own = {"m": ("--bm", "0.2"), "r": ("--br", "0.2", "--t", "0.3")}[model]
        code, out, err = run(capsys, "simulate", "--model", model, "--alpha", "0.5",
                             "--pm", "0.3", "--pr", "0.6", "--w", "0.4", *own, flag, "3",
                             "--n", "100")
        assert (code, out) == (1, "")
        assert err == (f"error: {field}=3.0 violates: model {model.upper()} "
                       f"does not use {field}\n")


class TestConfigFile:
    def test_config_loads_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = m\nalpha = 0.9\ncm = 0.15\ncr = 0.12\ns = 0.02\n")
        code, out, _ = run(capsys, "--config", str(cfg), "solve")
        assert code == 0
        assert json.loads(out)["params"]["alpha"] == 0.9
        code, out, _ = run(capsys, "--config", str(cfg), "solve", "--alpha", "0.5")
        assert code == 0
        assert json.loads(out)["params"]["alpha"] == 0.5

    def test_config_with_equals_sign(self, tmp_path, capsys):
        # "--config=PATH" was once taken for the subcommand's own flag and ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = m\nalpha = 0.9\ncm = 0.15\ncr = 0.12\ns = 0.02\n")
        code, out, _ = run(capsys, "solve", f"--config={cfg}")
        assert code == 0
        assert json.loads(out)["params"]["s"] == 0.02
        code, out, _ = run(capsys, "solve", f"--config={cfg}", "--model", "m", "--alpha", "0.5",
                           "--cm", "0.15", "--cr", "0.12")
        assert code == 0
        params = json.loads(out)["params"]
        assert (params["alpha"], params["s"]) == (0.5, 0.02)

    def test_hash_starts_a_comment_only_at_line_start(self, tmp_path, capsys):
        # "out = run#1.json" once wrote to "run"
        out = tmp_path / "run#1.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment line\n  # an indented one\nmodel = m\nalpha = 0.9\n"
                       f"cm = 0.15\ncr = 0.12\ns = 0.02\nout = {out}\n")
        code, text, _ = run(capsys, "--config", str(cfg), "solve")
        assert code == 0
        assert text == f"wrote equilibrium to {out}\n"
        assert json.loads(out.read_text())["params"]["alpha"] == 0.9
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value, verified", [("true", True), ("off", False), ("No", False)])
    def test_switch_set_in_config(self, tmp_path, capsys, value, verified):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = m\nalpha = 0.9\ncm = 0.15\ncr = 0.12\nverify = {value}\n")
        code, out, _ = run(capsys, "--config", str(cfg), "solve")
        assert code == 0
        assert ("oracle" in json.loads(out)) is verified

    @pytest.mark.parametrize("value", ["tru", "flase", ""])
    def test_mistyped_switch_in_config_is_usage_error(self, tmp_path, capsys, value):
        # once read as "off": exit 0 with no oracle block
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = m\nalpha = 0.9\ncm = 0.15\ncr = 0.12\nverify = {value}\n")
        code, out, err = run(capsys, "--config", str(cfg), "solve")
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == (f"error: {cfg}:5: verify is a switch: expected 1, true, "
                                        "yes or on, or 0, false, no or off")

    @pytest.mark.parametrize("argv, message", [
        ((), "--config requires a subcommand"),
        (("frobnicate",), "unknown subcommand 'frobnicate'"),
    ])
    def test_config_without_a_known_subcommand(self, tmp_path, capsys, argv, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = m\n")
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == f"error: {message}"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        code, _, _ = run(capsys, "--config", str(cfg), "solve")
        assert code == 1

    @pytest.mark.parametrize("argv, key, value", [
        (("solve", "--model", "m", "--alpha", "0.9", "--cm", "0.15", "--cr", "0.12"),
         "guard", "1e-06"),
        (("sweep", "--preset", "fig4"), "guard", "1e-06"),
        (("sweep", "--preset", "fig4"), "outputs", "decisions,demands,profits,validity"),
        (("verify", "oracle", "--samples", "1"), "tol", "0.001"),
    ], ids=["solve-guard", "sweep-guard", "sweep-outputs", "verify-tol"])
    def test_removed_flag_in_config_is_usage_error(self, tmp_path, capsys, argv, key, value):
        # the band, the columns and the oracle tolerance are fixed: even the
        # value each flag once defaulted to names no option
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# the flag's old default\n{key} = {value}\n")
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (f"error: {cfg}:2: expected key = value with a "
                                        f"{argv[0]} option as key")

    def test_config_key_is_usage_error(self, tmp_path, capsys):
        # "config = other.cfg" was once dropped unread, so other.cfg never loaded
        other = tmp_path / "other.cfg"
        other.write_text("alpha = 0.9\ncm = 0.15\ncr = 0.12\n")
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"model = m\nconfig = {other}\n")
        code, out, err = run(capsys, "--config", str(cfg), "solve", "--alpha", "0.9",
                             "--cm", "0.15", "--cr", "0.12")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (f"error: {cfg}:2: expected key = value with a solve "
                                        "option as key")

    @pytest.mark.parametrize("case", ["not-utf8", "directory"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, case):
        # once a UnicodeDecodeError traceback, or "cannot write output" for a directory
        cfg = tmp_path / "bad.cfg"
        if case == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"model = m\xff\n")
        code, out, err = run(capsys, "--config", str(cfg), "solve")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: cannot read config file {cfg}: ")


class TestParser:
    def test_main_builds_at_most_one_parser(self, monkeypatch, capsys):
        # once one per main call, plus one more on each sweep, verify or
        # simulate usage error
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        assert run(capsys, "sweep", "--model", "m")[0] == 1
        assert run(capsys, "verify", "endpoints", "--samples", "0")[0] == 1
        assert run(capsys, "solve", "--model", "m", "--alpha", "0.5", "--cm", "1",
                   "--cr", "0.5")[0] == 0
        assert len(built) <= 1


class TestReadme:
    def test_command_line_examples_parse(self):
        # parsed, not run: verify mc and verify all take seconds
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("dcclsc ")]
        assert len(lines) == 11
        top = cli._parser()
        for line in lines:
            argv = shlex.split(line)[1:]
            with redirect_stderr(io.StringIO()) as err:
                try:
                    top.parse_args(cli._apply_config(argv, top))
                except SystemExit as exc:
                    pytest.fail(f"{line!r} exits {exc.code}: {err.getvalue()}")


class TestDeterminism:
    def test_sweep_bytes_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--preset", "fig3", "--out")
        assert run(capsys, *args, str(a))[0] == 0
        assert run(capsys, *args, str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_report_bytes_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("verify", "endpoints", "--samples", "4", "--seed", "9", "--out")
        assert run(capsys, *args, str(a))[0] == 0
        assert run(capsys, *args, str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_numpy_params_write_the_plain_float_csv(self):
        # once cells such as np.float64(0.6): format_value wrote a float's repr
        def csv(alpha, c_m):
            eq = equilibrium(ModelId.M, Params(alpha, c_m, 0.5, 0.2))
            return report.rows_to_csv([report.equilibrium_row(eq)])
        assert csv(np.float64(0.6), np.float64(1.0)) == csv(0.6, 1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_refuses_non_standard_tokens(self, value):
        # Infinity and NaN are not JSON; a payload carrying one is a bug upstream
        with pytest.raises(ValueError):
            report.to_json({"x": value})

    def test_charts_bytes_stable(self, tmp_path, capsys):
        dirs = [tmp_path / "c1", tmp_path / "c2"]
        for d in dirs:
            d.mkdir()
            code, _, _ = run(capsys, "sweep", "--model", "m", "--alpha-from", "0.2",
                             "--alpha-to", "0.6", "--alpha-step", "0.2", "--cm", "0.6",
                             "--cr", "0.3", "--s", "0.1", "--out", str(d / "x.csv"),
                             "--plot-dir", str(d))
            assert code == 0
        assert (dirs[0] / "M_p_m.svg").read_bytes() == (dirs[1] / "M_p_m.svg").read_bytes()


class TestSuiteInternals:
    def test_oracle_suite_report_shape(self):
        report = suite_oracle(samples=2, seed=3)
        assert report.ok
        assert report.counts["comparisons"] == 2 * 9
        assert report.as_dict()["ok"] is True

    def test_oracle_suite_default_run_agrees_at_roundoff(self):
        # the run of verify oracle: the solver solves every draw at
        # roundoff, and the report echoes no box or seed of the solver
        report = suite_oracle()
        assert float(report.findings[0].split()[3]) < 1e-12
        assert report.config == {"samples": 100, "tol": 1e-3}

    def test_endpoint_suite_pattern_is_exact(self):
        report = suite_endpoints(samples=3, seed=11)
        assert report.ok
        assert report.counts["pattern_deviations"] == 0

    def test_endpoint_suite_reports_each_deviation(self, monkeypatch):
        flipped = {key: not agree for key, agree in suites.EXPECTED_ENDPOINT_AGREEMENT.items()}
        monkeypatch.setattr(suites, "EXPECTED_ENDPOINT_AGREEMENT", flipped)
        report = suite_endpoints(samples=1, seed=11)
        assert not report.ok
        assert report.counts["pattern_deviations"] == report.counts["checks"] > 0
        assert len(report.findings) == report.counts["checks"]
        assert all(re.fullmatch(r"draw 0 [MR] \w+ alpha->[01]: agree=(True|False), "
                                r"expected (True|False)", f) for f in report.findings)


#: Values from the corners of the float range: huge, tiny, negative, non-finite.
_EDGES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12, -1e-300, -1.0, 1e12, 1e160,
                     1e300, -1e300, 1e308, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _fuzz(draw, value: float) -> float:
    """``value`` four times in five, else a corner value."""
    return value if draw(st.integers(0, 4)) else draw(_EDGES)


@st.composite
def _param_flags(draw) -> dict:
    alpha, cm = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 20.0))
    admissible = {"alpha": alpha, "cm": cm, "cr": cm * draw(st.floats(0.01, 0.99)),
                  "s": draw(st.floats(0.0, 10.0))}
    return {name: _fuzz(draw, value) for name, value in admissible.items()}


@st.composite
def _decision_flags(draw) -> dict:
    return {name: _fuzz(draw, draw(st.floats(-1.0, 2.0)))
            for name in ("pm", "pr", "w", "bm", "br", "t")}


def _flags(values: dict) -> list[str]:
    # "--flag=value" keeps negative and non-finite values from reading as flags
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process run."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


_MODELS = st.sampled_from(["m", "r", "mr"])


class TestFuzzedFlags:
    """Any flag values end in a documented exit code, never in an exception."""

    @given(model=_MODELS, verify=st.booleans(), params=_param_flags())
    @settings(max_examples=100, deadline=None)
    def test_solve(self, model, verify, params):
        argv = ["solve", "--model", model, *_flags(params)] + ["--verify"] * verify
        code, out = _run_quietly(argv)
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert "Infinity" not in out and "NaN" not in out

    @given(model=_MODELS, params=_param_flags(), decisions=_decision_flags(),
           all_six=st.booleans(), n=st.integers(-1, 10_000), seed=st.integers(-2**64, 2**65))
    @settings(max_examples=60, deadline=None)
    def test_simulate(self, model, params, decisions, all_six, n, seed):
        # all six decision flags are refused outside model MR, so half the
        # runs pass only the model's own
        if not all_six:
            own = [name.replace("_", "") for name in decision_fields(model.upper())]
            decisions = {name: value for name, value in decisions.items() if name in own}
        argv = ["simulate", "--model", model, *_flags(params), *_flags(decisions), f"--n={n}",
                f"--seed={seed}"]
        code, out = _run_quietly(argv)
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert "Infinity" not in out and "NaN" not in out

    @given(model=_MODELS, params=_param_flags(), alpha_to=st.floats(0.01, 0.99),
           alpha_step=st.one_of(st.floats(1e-3, 1.0),
                                st.sampled_from([0.0, -0.1, math.inf, math.nan, 1e-9, 5e-324])),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep(self, model, params, alpha_to, alpha_step, data):
        # a step of at least 1e-3 keeps a sweep under about 1,000 rows; the
        # tiny steps ask for more rows than the cap and are refused
        alpha_from = params.pop("alpha")
        flags = {"alpha_from": min(alpha_from, alpha_to),
                 "alpha_to": _fuzz(data.draw, max(alpha_from, alpha_to)),
                 "alpha_step": alpha_step, **params}
        code, out = _run_quietly(["sweep", "--model", model, *_flags(flags)])
        assert code in (0, 1, 2, 3)
        if code == 0:  # two report lines, then the CSV
            cells = {cell for line in out.splitlines()[2:] for cell in line.split(",")}
            assert not cells & {"inf", "-inf", "nan"}

    @given(suite=st.sampled_from(["oracle", "props", "mc", "endpoints", "all"]),
           samples=st.integers(-1, 2), seed=st.integers(-2, 2**64),
           n=st.integers(-1, 50), all_three=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_verify(self, suite, samples, seed, n, all_three):
        # a flag the suite does not take is refused, so half the runs pass
        # only the suite's own ("all" takes all three)
        flags = {"samples": samples, "seed": seed, "n": n}
        if not all_three and suite != "all":
            flags = suites.suite_options(suites.SUITES[suite], flags)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            code, _ = _run_quietly(["verify", suite, *_flags(flags), f"--out={out}"])
            assert code in (0, 1, 2, 3)
            if out.exists():
                text = out.read_text()
                assert "Infinity" not in text and "NaN" not in text
