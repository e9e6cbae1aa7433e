"""Findings about the paper's own figures and table, pinned at measured values.

Each test states one finding of the README: the published figure sweeps have
no interior row, fig5 is not drawn from the game's MR solution, the
published MR table rows match the game rather than the published MR
expressions, no seeded draw is interior in all three models' games, and the
published expressions and the game decide the abstract's cross-framework
claims differently.
"""

import csv

import pytest

from dcclsc import closed_form, oracle
from dcclsc.cli import main
from dcclsc.params import ModelId, Params
from dcclsc.suites import FIGURE_PRESETS, PUBLISHED_TABLE_ROWS


def _sweep_rows(capsys, preset: str) -> list[dict]:
    assert main(["sweep", "--preset", preset]) == 0
    return list(csv.DictReader(capsys.readouterr().out.splitlines()[2:]))


def _largest_gap(computed: dict, published: dict) -> float:
    return max(abs(computed[name] - value) for name, value in published.items())


@pytest.mark.parametrize("preset, rows", [("fig3", 99), ("fig4", 56), ("fig5", 56)])
def test_no_figure_row_is_an_interior_equilibrium(capsys, preset, rows):
    swept = _sweep_rows(capsys, preset)
    assert len(swept) == rows
    assert {row["singular"] for row in swept} == {"false"}
    assert {row["interior_valid"] for row in swept} == {"false"}


def test_fig5_is_not_the_games_mr_solution(capsys):
    # measured 2.21 to 3.10: the largest gap over the decisions, relative to
    # max(1, |decision|) of the numeric solve
    *_, c_m, c_r, s = FIGURE_PRESETS["fig5"]
    gaps = []
    for row in _sweep_rows(capsys, "fig5"):
        params = Params(alpha=float(row["alpha"]), c_m=c_m, c_r=c_r, s=s)
        published = closed_form.equilibrium(ModelId.MR, params).decisions.as_dict()
        game = oracle.solve_stackelberg_numeric(ModelId.MR, params).decisions.as_dict()
        gaps.append(max(abs(published[k] - v) / max(1.0, abs(v)) for k, v in game.items()))
    assert len(gaps) == 56
    assert min(gaps) > 2.0


@pytest.mark.parametrize("row", PUBLISHED_TABLE_ROWS,
                         ids=[f"{r[0].value}-{r[1]}" for r in PUBLISHED_TABLE_ROWS])
def test_published_table_rows_follow_the_game(row):
    model, alpha, c_m, c_r, s, table = row
    params = Params(alpha=alpha, c_m=c_m, c_r=c_r, s=s)
    published = closed_form.equilibrium(model, params).decisions.as_dict()
    game = oracle.solve_stackelberg_numeric(model, params).decisions.as_dict()
    if model is ModelId.MR:
        # measured 0.171 and 0.174 from the game, 2.714 and 2.844 from the expressions
        assert _largest_gap(game, table) < 0.18
        assert _largest_gap(published, table) > 2.7
    else:
        # measured 0.30 to 0.51; the two routes agree to roundoff
        assert max(abs(published[k] - v) for k, v in game.items()) < 1e-12
        assert 0.29 < _largest_gap(published, table) < 0.52
        assert 0.29 < _largest_gap(game, table) < 0.52


@pytest.fixture(scope="module")
def seeded_games():
    """Each draw of sample_params(300, 11) with its numeric solve in every model."""
    return [(params, {model: oracle.solve_stackelberg_numeric(model, params)
                      for model in ModelId})
            for params in oracle.sample_params(300, 11)]


def test_no_draw_is_interior_in_all_three_games(seeded_games):
    # every draw solves numerically in M, R and MR; measured interior counts
    # M 33, R 67 and MR 0 of 300
    interior = [[games[model].validity.interior for model in ModelId]
                for _, games in seeded_games]
    assert [sum(flags) for flags in zip(*interior)] == [33, 67, 0]
    assert not any(all(flags) for flags in interior)


def _cross_framework_claims(solved: dict) -> tuple[bool, ...]:
    """The abstract's claims on one draw: MR's p_r below M's and R's, MR's p_m
    below M's, MR's trade-in mass q3 + q4 above M's and R's q3, and R's
    subsidy b_r above M's b_m."""
    m, r, mr = solved[ModelId.M], solved[ModelId.R], solved[ModelId.MR]
    return (mr.decisions.p_r < min(m.decisions.p_r, r.decisions.p_r),
            mr.decisions.p_m < m.decisions.p_m,
            mr.demands.q3 + mr.demands.q4 > max(m.demands.q3, r.demands.q3),
            r.decisions.b_r > m.decisions.b_m)


def test_routes_disagree_on_the_abstracts_cross_framework_claims(seeded_games):
    # measured draws of 300 where each claim holds: the published expressions
    # affirm lower MR prices and the game denies them, and the reverse for
    # MR's trade-ins; the two routes agree only on the subsidies
    published = [_cross_framework_claims({model: closed_form.equilibrium(model, params)
                                          for model in ModelId})
                 for params, _ in seeded_games]
    game = [_cross_framework_claims(games) for _, games in seeded_games]
    assert [sum(held) for held in zip(*published)] == [300, 16, 0, 130]
    assert [sum(held) for held in zip(*game)] == [0, 0, 300, 130]
