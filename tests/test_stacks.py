"""Stacked evaluations return each row bit for bit as a lone call does.

A run evaluates its metrics once, on the stack of its iterates, so every
function on that path must give each row of a ``(4, dim)`` stack the bytes
a call on that row alone gives.
"""
import numpy as np
import pytest

from sqvi.diagnostics import dist_to_solution, lower_level_subopt, natural_residual
from sqvi.errors import InvalidParameters
from sqvi.operators import evaluate_mean
from sqvi.problems import (
    LinearCoupling,
    QuadraticPayoff,
    SyntheticGame,
    make_coupled_sp,
    make_regression_game,
    make_translated_box_qvi,
)
from sqvi.sets import squared_norms


def _same_rows(stacked, lone_calls):
    stacked = np.asarray(stacked, dtype=float)
    assert stacked.shape[0] == len(lone_calls)
    for row, lone in zip(stacked, lone_calls):
        assert row.tobytes() == np.asarray(lone, dtype=float).tobytes()


@pytest.fixture(scope="module", params=[5, 20])
def box(request):
    return make_translated_box_qvi(n=request.param, seed=11, noise_level=0.5)


def _box_stack(problem, seed=3):
    # rows inside the box, on its faces and far outside it
    rng = np.random.default_rng(seed)
    return rng.standard_normal((4, problem.operator.dim)) * np.array([[0.2], [0.8], [2.0], [5.0]])


def test_box_mean_and_map_rows_match_lone_calls(box):
    xs = _box_stack(box)
    us = _box_stack(box, seed=4)
    _same_rows(evaluate_mean(box.operator, xs), [evaluate_mean(box.operator, x) for x in xs])
    _same_rows(box.map.shift(xs), [box.map.shift(x) for x in xs])
    projected = box.map.exact_project(xs, us)
    _same_rows(projected, [box.map.exact_project(x, u) for x, u in zip(xs, us)])
    # some rows move onto the translated box's faces, some stay
    assert not (projected == us).all()


def test_box_metric_rows_match_lone_calls(box):
    xs = _box_stack(box)
    _same_rows(dist_to_solution(box, xs), [dist_to_solution(box, x) for x in xs])
    res = natural_residual(box, xs, eta=0.3)
    _same_rows(res.value, [natural_residual(box, x, eta=0.3).value for x in xs])
    assert (res.error_bound == 0.0).all()
    assert isinstance(dist_to_solution(box, xs[0]), float)
    assert isinstance(natural_residual(box, xs[0]).value, float)


def test_squared_norms_rows_match_lone_dot():
    d = np.random.default_rng(5).standard_normal((4, 250))
    _same_rows(squared_norms(d), [row @ row for row in d])
    assert squared_norms(d[0]) == d[0] @ d[0]


@pytest.fixture(scope="module", params=[1, 5, 11])
def game(request):
    return make_regression_game(SyntheticGame(seed=request.param), sigma=1e-2)


def _game_stacks(problem, seed):
    # rows about the training fit, from on it to far off it: the surrogate
    # leaves every block of the first rows inside its ball, cuts some blocks
    # of the third back onto the sphere and every block of the last
    rng = np.random.default_rng(seed)
    game_data = problem.lower_level.game
    fit = np.linalg.lstsq(game_data.train_matrix, game_data.train_rhs, rcond=None)[0]
    scale = game_data.radius / np.sqrt(game_data.feature_dim) * np.array([[0.0], [0.01], [0.5], [30.0]])
    return fit + rng.standard_normal((2, 4, fit.size)) * scale


def test_game_mean_linear_and_subopt_rows_match_lone_calls(game):
    xs, _ = _game_stacks(game, 7)
    _same_rows(evaluate_mean(game.operator, xs), [evaluate_mean(game.operator, x) for x in xs])
    _same_rows(game.map.linear(xs), [game.map.linear(x) for x in xs])
    _same_rows(lower_level_subopt(game, xs), [lower_level_subopt(game, x) for x in xs])
    assert isinstance(lower_level_subopt(game, xs[0]), float)


def test_game_exact_projection_rows_match_lone_calls(game):
    game_data = game.lower_level.game
    mixed = 0
    for seed in (1, 5, 11):
        xs, us = _game_stacks(game, seed)
        ys = game.map.exact_project(xs, us)
        _same_rows(ys, [game.map.exact_project(x, u) for x, u in zip(xs, us)])
        res = natural_residual(game, xs)
        _same_rows(res.value, [natural_residual(game, x).value for x in xs])
        # rows with blocks the balls cut back and blocks they leave alone
        norms = np.linalg.norm(ys.reshape(4, game_data.players, -1), axis=-1)
        on_sphere = np.isclose(norms, game_data.radius, rtol=1e-12)
        mixed += int((on_sphere.any(axis=1) & ~on_sphere.all(axis=1)).sum())
    assert mixed


def test_inexact_residual_loops_rows_with_one_budget():
    problem = make_coupled_sp(
        QuadraticPayoff(P=[[1.0]], Q=[[1.0]], R=[[1.0]], p=[0.0], q=[0.0]),
        LinearCoupling(a_u=[1.0], a_w=[1.0], c=-0.5),
    )
    assert not problem.map.exact
    xs = np.array([[0.2, 0.1], [-0.2, 0.1], [0.3, -0.9], [0.0, 0.0]])
    for budget in (None, 10, 160):
        res = natural_residual(problem, xs, budget=budget)
        lone = [natural_residual(problem, x, budget=budget) for x in xs]
        _same_rows(res.value, [r.value for r in lone])
        _same_rows(res.error_bound, [r.error_bound for r in lone])
    with pytest.raises(InvalidParameters, match="inner budget must be >= 1"):
        natural_residual(problem, xs, budget=0)
