import numpy as np
import pytest

from sqvi.diagnostics import (
    dist_to_solution,
    fit_linear_rate,
    lower_level_subopt,
    natural_residual,
)
from sqvi.errors import InsufficientData, InvalidParameters, NoReferenceSolution, WrongProblemKind
from sqvi.maps import FixedSet
from sqvi.operators import OperatorSpec
from sqvi.problems import (
    LinearCoupling,
    ProblemInstance,
    QuadraticPayoff,
    make_coupled_sp,
    make_translated_box_qvi,
)
from sqvi.sets import AffineSet, Box


def small_problem(mean_eval, reference=None, box=(-5.0, 5.0), dim=2, eta=1.0):
    amb = Box(np.full(dim, box[0]), np.full(dim, box[1]))
    return ProblemInstance(
        name="stub",
        operator=OperatorSpec(dim=dim, lipschitz=5.0, qg_mu=0.5, mean_eval=mean_eval),
        map=FixedSet(amb),
        ambient=amb,
        x0=np.zeros(dim),
        suggested_eta=eta,
        reference_projector=reference,
    )


def test_dist_worked_values():
    p = small_problem(lambda x: x, reference=lambda z: np.zeros(2))
    assert dist_to_solution(p, np.zeros(2)) == 0.0
    assert abs(dist_to_solution(p, np.array([3.0, 4.0])) - 5.0) <= 1e-15

    aff = AffineSet([[1.0, 0.0]], [0.0])
    p2 = small_problem(lambda x: x, reference=aff.project)
    assert abs(dist_to_solution(p2, np.array([2.0, 7.0])) - 2.0) <= 1e-12


def test_dist_requires_reference():
    p = small_problem(lambda x: x)
    with pytest.raises(NoReferenceSolution):
        dist_to_solution(p, np.zeros(2))


@pytest.mark.parametrize("budget", [0, -5])
def test_natural_residual_rejects_budget_below_one_on_exact_maps(budget):
    # the exact branch never uses the budget, but it is checked all the same
    p = make_translated_box_qvi(n=4, seed=1)
    assert p.map.exact
    with pytest.raises(InvalidParameters):
        natural_residual(p, np.zeros(4), budget=budget)


def _coupled_problem():
    return make_coupled_sp(
        QuadraticPayoff(P=[[1.0]], Q=[[1.0]], R=[[1.0]], p=[0.0], q=[0.0]),
        LinearCoupling(a_u=[1.0], a_w=[1.0], c=-0.5),
    )


@pytest.mark.parametrize("budget", [[10, 20], 1.5, "3", True, np.float64(4.0)])
@pytest.mark.parametrize("exact", [True, False])
def test_natural_residual_rejects_a_budget_that_is_not_an_integer(budget, exact):
    # a list, a float or a string is an InvalidParameters on both branches,
    # not a TypeError from the comparison or from the inner solver
    p = make_translated_box_qvi(n=2, seed=1) if exact else _coupled_problem()
    assert p.map.exact is exact
    with pytest.raises(InvalidParameters, match="inner budget must be >= 1 and an integer"):
        natural_residual(p, np.zeros(2), budget=budget)
    # numpy integers are integers
    assert natural_residual(p, np.zeros(2), budget=np.int64(3)) == natural_residual(p, np.zeros(2), budget=3)


def test_natural_residual_fixed_interval():
    # F(x) = x - 1 on the interval [0, 2]: at x=0 with eta=1 the step lands at 1
    amb = Box([0.0], [2.0])
    p = ProblemInstance(
        name="interval",
        operator=OperatorSpec(dim=1, lipschitz=1.0, qg_mu=1.0, mean_eval=lambda x: x - 1.0),
        map=FixedSet(amb),
        ambient=amb,
        x0=np.zeros(1),
        suggested_eta=1.0,
    )
    res = natural_residual(p, np.array([0.0]), eta=1.0)
    assert abs(res.value - 1.0) <= 1e-15 and res.error_bound == 0.0
    # x = 1 solves the problem
    res2 = natural_residual(p, np.array([1.0]), eta=1.0)
    assert res2.value <= 1e-10


def test_natural_residual_at_reference(box_problem):
    x_star = box_problem.reference_projector(np.zeros(20))
    for eta in (0.2, 0.5, 0.9):
        res = natural_residual(box_problem, x_star, eta=eta)
        assert res.value <= 1e-10


def test_lower_level_subopt(game_problem, rng):
    x = game_problem.ambient.project(rng.standard_normal(game_problem.operator.dim))
    val = lower_level_subopt(game_problem, x)
    data = game_problem.lower_level.game
    direct = 0.5 * float(np.sum((data.train_matrix @ x - data.train_rhs) ** 2))
    assert abs(val - (direct - game_problem.lower_level.min_value)) <= 1e-9
    assert val >= 0


def test_lower_level_requires_game(box_problem):
    with pytest.raises(WrongProblemKind):
        lower_level_subopt(box_problem, box_problem.x0)


def test_fit_linear_rate_exact_geometric():
    series = 0.9 ** np.arange(30)
    fit = fit_linear_rate(series)
    assert abs(fit.slope - np.log10(0.9)) <= 1e-12
    assert abs(fit.r_squared - 1.0) <= 1e-12


def test_fit_linear_rate_constant():
    fit = fit_linear_rate(np.full(10, 0.5))
    assert abs(fit.slope) <= 1e-12


def test_fit_linear_rate_insufficient():
    with pytest.raises(InsufficientData):
        fit_linear_rate(np.array([1.0, 0.5, 0.25]))
    with pytest.raises(InsufficientData):
        fit_linear_rate(np.full(20, 1e-16))  # everything below the noise floor


def test_residual_and_distance_vanish_together(box_problem):
    from sqvi.solvers import Deterministic, SolverConfig, run_ieg_sqvi

    cfg = SolverConfig(
        eta=box_problem.suggested_eta, alpha=0.9, b=1.0,
        schedule=Deterministic(), max_outer=40, seed=0,
    )
    trace = run_ieg_sqvi(box_problem, cfg, metrics=("dist", "residual"))
    final_dist = trace.rows[-1].metrics["dist"]
    final_res = trace.rows[-1].metrics["residual"]
    assert final_dist <= 1e-6 and final_res <= 1e-6
    samples = trace.metric_series("residual")
    assert len(samples) == 40 and all(s >= 0 for s in samples)
