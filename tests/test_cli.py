"""Command-line surface: flags, schemas, exit codes, byte-stable outputs."""

import dataclasses
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st
import pytest

from dcclsc import oracle, suites
from dcclsc.cli import main
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

    def test_verify_adds_oracle_block(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "mr", "--alpha", "0.6",
                           "--cm", "1", "--cr", "0.5", "--s", "0.2", "--verify")
        assert code == 0
        payload = json.loads(out)
        oracle_block = payload["oracle"]
        assert oracle_block["certified_demand_variant"] == "none"
        assert oracle_block["decisions"]["p_m"] == pytest.approx(1.0102803738, abs=1e-6)
        # printed closed form differs from the numeric optimum here
        assert abs(oracle_block["deltas_vs_closed_form"]["p_r"]) > 1.0

    @pytest.mark.parametrize("preset", ["fig3", "fig4"])
    def test_verify_at_figure_parameters(self, capsys, preset):
        # the default search box scales with the costs, so the figures'
        # costly parameters are cross-checked instead of hitting the box
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
        code, _, err = run(capsys, "solve", "--model", "m", "--alpha", "0.9",
                           "--cm", "0.15", "--cr", "0.12", "--guard", "-0.1")
        assert code == 1
        assert "guard" in err
        code, _, _ = run(capsys, "sweep", "--preset", "fig4", "--guard", "-0.1")
        assert code == 1

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
        (["--model", "m", "--cm", "1e160", "--cr", "1"], "curvature"),
    ])
    def test_profit_beyond_float_range_is_a_domain_error(self, capsys, argv, cause):
        # once a numeric linear-algebra traceback, once a false "not concave"
        code, _, err = run(capsys, "solve", "--alpha", "0.5", *argv, "--verify")
        assert code == 1
        assert "profit" in err and cause in err

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
                         "--alpha-to", "0.25", "--alpha-step", "0.005",
                         "--cm", "0.6", "--cr", "0.3", "--s", "0.1",
                         "--guard", "0.004", "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert len(rows) == 11
        idx = {name: i for i, name in enumerate(CSV_COLUMNS)}
        singular = [r for r in rows if r[idx["singular"]] == "true"]
        assert len(singular) == 2  # alpha = 0.220 and 0.225 sit within 0.004 of 2/9
        for r in singular:
            assert r[idx["p_m"]] == "" and r[idx["pi_s"]] == ""

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

    def test_outputs_filter(self, capsys):
        code, out, _ = run(capsys, "sweep", "--model", "m", "--alpha-from", "0.5",
                           "--alpha-to", "0.5", "--alpha-step", "1", "--cm", "0.6",
                           "--cr", "0.3", "--s", "0.1", "--outputs", "decisions")
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("M,")][0].split(",")
        idx = {name: i for i, name in enumerate(CSV_COLUMNS)}
        assert row[idx["p_m"]] != ""
        assert row[idx["q1"]] == "" and row[idx["pi_m"]] == ""

    def test_sweep_needs_preset_or_full_flags(self, capsys):
        code, _, _ = run(capsys, "sweep", "--model", "m")
        assert code == 1

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

    def test_unreachable_tolerance_fails(self, capsys):
        code, text, _ = run(capsys, "verify", "oracle", "--samples", "2",
                            "--tol", "1e-15")
        assert code == 2
        assert "FAIL" in text

    def test_mc_suite_small(self, capsys):
        code, text, _ = run(capsys, "verify", "mc", "--samples", "2", "--n", "200000")
        assert code == 0
        assert "adopted variant confirmed" in text

    def test_mc_gate_corrects_for_the_number_of_checks(self, capsys):
        # one of these 30 checks lands at 3.04 sigma: a per-check three-sigma
        # gate failed this correct simulation
        code, text, _ = run(capsys, "verify", "mc", "--samples", "3", "--seed", "9",
                            "--n", "20000")
        assert code == 0
        assert "worst_sigma = 3.043" in text

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
        report, code = suite_mc(samples=1, n=1_000_000)
        assert code == 2
        assert report.counts["failures"] == 1
        assert "M case 0 segment q1" in report.findings[0]

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

    def test_missing_decision_flag(self, capsys):
        code, _, _ = run(capsys, "simulate", "--model", "m", "--alpha", "0.5",
                         "--pm", "0.3", "--pr", "0.6", "--w", "0.4")
        assert code == 1


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

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        code, _, _ = run(capsys, "--config", str(cfg), "solve")
        assert code == 1


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
        report, code = suite_oracle(samples=2, seed=3, tol=1e-3)
        assert code == 0
        assert report.counts["comparisons"] == 2 * 9
        assert report.as_dict()["ok"] is True

    def test_endpoint_suite_pattern_is_exact(self):
        report, code = suite_endpoints(samples=3, seed=11)
        assert code == 0
        assert report.counts["pattern_deviations"] == 0


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
           n=st.integers(-1, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_simulate(self, model, params, decisions, n):
        argv = ["simulate", "--model", model, *_flags(params), *_flags(decisions), f"--n={n}"]
        assert _run_quietly(argv)[0] in (0, 1, 2, 3)

    @given(model=_MODELS, params=_param_flags(), alpha_to=st.floats(0.01, 0.99),
           alpha_step=st.one_of(st.floats(1e-3, 1.0),
                                st.sampled_from([0.0, -0.1, math.inf, math.nan])),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep(self, model, params, alpha_to, alpha_step, data):
        # a step of at least 1e-3 keeps every sweep under about 1,000 rows
        alpha_from = params.pop("alpha")
        flags = {"alpha_from": min(alpha_from, alpha_to),
                 "alpha_to": _fuzz(data.draw, max(alpha_from, alpha_to)),
                 "alpha_step": alpha_step, **params}
        code, out = _run_quietly(["sweep", "--model", model, *_flags(flags)])
        assert code in (0, 1, 2, 3)
        if code == 0:  # two report lines, then the CSV
            cells = {cell for line in out.splitlines()[2:] for cell in line.split(",")}
            assert not cells & {"inf", "-inf", "nan"}
