import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqvi.errors import (
    InvalidConstants,
    InvalidParameters,
    InvalidSchedule,
    NoAdmissibleStep,
    NonfiniteIterate,
    NotReached,
    WrongProblemKind,
)
from sqvi import diagnostics
from sqvi.maps import ArgminSet, FixedSet, NonlinearConvex
from sqvi.operators import OperatorSpec
from sqvi.problems import ProblemInstance, make_translated_box_qvi
from sqvi.sets import Box
from sqvi.solvers import (
    ConstantMinibatch,
    DampedInner,
    Deterministic,
    IncreasingSample,
    SolverConfig,
    admissible_eta_interval,
    contraction_factor,
    derive_beta,
    derive_params,
    oracle_complexity_report,
    run_ieg_sqvi,
    run_ig_sqvi,
    schedule_values,
)

# ---------------------------------------------------------------------------
# parameter algebra


def test_derive_beta_worked_values():
    assert abs(derive_beta(1, 1, 0, 1) - 0.0) <= 1e-12
    assert abs(derive_beta(1, 1, 0, 0.5) - 0.5) <= 1e-12
    assert abs(derive_beta(2, 1, 0.05, 0.25) - (0.05 + math.sqrt(0.75))) <= 1e-12


def test_derive_beta_rejects_mu_above_l():
    with pytest.raises(InvalidConstants):
        derive_beta(1.0, 2.0, 0.0, 0.5)


def test_admissible_interval_worked_values():
    lo, hi = admissible_eta_interval(1, 1, 0)
    assert abs(lo) <= 1e-12 and abs(hi - 2) <= 1e-12
    lo, hi = admissible_eta_interval(1, 1, 0.1)
    assert abs(lo - 0.1) <= 1e-12 and abs(hi - 1.9) <= 1e-12
    with pytest.raises(NoAdmissibleStep):
        admissible_eta_interval(1, 0.5, 0.5)


def test_no_admissible_step_names_only_failing_conditions():
    # gamma = 3: L^2(2 gamma - gamma^2) = -3 < mu^2 holds, gamma + 1 < 1 fails
    with pytest.raises(NoAdmissibleStep) as err:
        admissible_eta_interval(1, 0, 3)
    assert "gamma + sqrt(1 - mu^2/L^2) < 1 (got 4)" in str(err.value)
    assert "2*gamma - gamma^2" not in str(err.value)
    # gamma = 0.5, mu = 0.5: both fail, and both are named
    with pytest.raises(NoAdmissibleStep) as err:
        admissible_eta_interval(1, 0.5, 0.5)
    assert "mu^2 > L^2(2*gamma - gamma^2) (got 0.25 vs 0.75)" in str(err.value)
    assert "gamma + sqrt(1 - mu^2/L^2) < 1" in str(err.value)


def test_contraction_factor_worked_values():
    assert abs(contraction_factor(0.5, 0.5, 1) - 0.375) <= 1e-15
    assert abs(contraction_factor(0.5, 0.5, 0) - 0.25) <= 1e-15
    assert abs(contraction_factor(0.9, 0.0, 123.0) - 0.9) <= 1e-15
    with pytest.raises(InvalidParameters):
        contraction_factor(1.5, 0.5, 0)
    with pytest.raises(InvalidParameters):
        contraction_factor(0.5, 0.5, 3.0)


@settings(max_examples=200, deadline=None)
@given(
    lip=st.floats(0.5, 3.0),
    ratio=st.floats(0.55, 0.999),
    frac=st.floats(0.0, 0.95),
)
def test_beta_equals_one_at_interval_endpoints(lip, ratio, frac):
    mu = ratio * lip
    gamma = frac * (1.0 - math.sqrt(1.0 - ratio * ratio))
    lo, hi = admissible_eta_interval(lip, mu, gamma)
    assert abs(derive_beta(lip, mu, gamma, lo) - 1.0) <= 1e-10
    assert abs(derive_beta(lip, mu, gamma, hi) - 1.0) <= 1e-10
    mid = 0.5 * (lo + hi)
    assert derive_beta(lip, mu, gamma, mid) < 1.0


# ---------------------------------------------------------------------------
# schedules


def test_schedule_worked_values():
    assert schedule_values(IncreasingSample(0.5), 0.9, 3) == (64, 83)
    assert schedule_values(IncreasingSample(0.5), 0.9, 0) == (1, 1)
    assert schedule_values(ConstantMinibatch(32), 0.5, 2) == (32, 24)


def test_schedule_rejects_small_rho():
    with pytest.raises(InvalidSchedule):
        schedule_values(IncreasingSample(0.3), 0.5, 1)


def test_damped_schedule_floors_at_one():
    assert schedule_values(DampedInner(), None, 0) == (1, 1)
    assert schedule_values(DampedInner(), None, 1) == (1, 1)
    n5, t5 = schedule_values(DampedInner(), None, 5)
    assert n5 == 1 and t5 == math.ceil(5 * math.log(6.0) ** 2 * (1 - 1e-3) ** 5)


def test_deterministic_default_rho_stays_valid():
    # tiny q pushes 1 - q + 0.05 above 1; the default must stay in (1-q, 1)
    n, t = schedule_values(Deterministic(), 0.01, 3)
    assert n == 1 and t >= 1


@settings(max_examples=80, deadline=None)
@given(rho=st.floats(0.55, 0.99), k=st.integers(0, 40))
def test_increasing_schedule_grows_monotonically(rho, k):
    n0, t0 = schedule_values(IncreasingSample(rho), None, k)
    n1, t1 = schedule_values(IncreasingSample(rho), None, k + 1)
    assert n1 >= n0 >= 1
    assert t0 >= 1 and t1 >= 1
    # the prescribed batch is the ceiled geometric value exactly
    assert n0 == math.ceil(rho ** (-2 * k))


# ---------------------------------------------------------------------------
# run loops


def singleton_problem(target, alpha_dim=2):
    tgt = np.asarray(target, dtype=float)
    op = OperatorSpec(dim=alpha_dim, lipschitz=1.0, qg_mu=1.0, mean_eval=lambda x: x - tgt)
    box = Box(tgt, tgt)
    ambient = Box(tgt - 4.0, tgt + 4.0)
    return ProblemInstance(
        name="singleton",
        operator=op,
        map=FixedSet(box),
        ambient=ambient,
        x0=tgt + np.array([3.0, -2.0]),
        suggested_eta=1.0,
        reference_projector=lambda z: tgt,
    )


def orthant_face_problem():
    # F(x) = x - (1, -0.5) on the nonpositive orthant {y : I y <= 0}; two
    # halfspace rows have no closed form, so every projection runs APD. The
    # solution (0, -0.5) lies inside a face of the set.
    shift = np.array([1.0, -0.5])
    solution = np.array([0.0, -0.5])
    op = OperatorSpec(dim=2, lipschitz=1.0, qg_mu=1.0, mean_eval=lambda x: x - shift)
    a, b = np.eye(2), np.zeros(2)
    ambient = Box(np.full(2, -2.0), np.full(2, 2.0))
    return ProblemInstance(
        name="orthant_face",
        operator=op,
        map=NonlinearConvex(
            ambient=ambient,
            constraint=lambda x, y: a @ y - b,
            jacobian=lambda x, y: a,
            jacobian_bound=1.0,
        ),
        ambient=ambient,
        x0=np.array([-1.5, 1.0]),
        suggested_eta=0.5,
        reference_projector=lambda z: solution,
    )


def test_singleton_constraint_contracts_at_exactly_one_minus_alpha():
    prob = singleton_problem([0.5, -1.0])
    for runner in (run_ieg_sqvi, run_ig_sqvi):
        cfg = SolverConfig(eta=1.0, alpha=0.7, b=0.5, schedule=Deterministic(), max_outer=25, seed=0)
        trace = runner(prob, cfg, metrics=("dist",))
        d = np.concatenate([[trace.initial_metrics["dist"]], trace.metric_series("dist")])
        ratios = d[1:] / d[:-1]
        usable = d[:-1] > 1e-6  # below this, absolute rounding dominates the ratio
        assert np.all(np.abs(ratios[usable] - 0.3) <= 1e-9)


def test_traces_are_deterministic(noisy_box_problem):
    cfg = SolverConfig(
        eta=noisy_box_problem.suggested_eta, alpha=0.8, b=1.0,
        schedule=IncreasingSample(0.9), max_outer=15, seed=42,
    )
    t1 = run_ieg_sqvi(noisy_box_problem, cfg, metrics=("dist", "residual"))
    t2 = run_ieg_sqvi(noisy_box_problem, cfg, metrics=("dist", "residual"))
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.metrics == r2.metrics and r1.n_k == r2.n_k and r1.t_k == r2.t_k


def test_trace_matches_schedule_exactly(noisy_box_problem):
    cfg = SolverConfig(
        eta=noisy_box_problem.suggested_eta, alpha=0.8, b=1.0,
        schedule=IncreasingSample(0.9), max_outer=12, seed=1,
    )
    trace = run_ieg_sqvi(noisy_box_problem, cfg, metrics=("dist",))
    params = derive_params(noisy_box_problem, cfg, extra_gradient=True)
    for row in trace.rows:
        n_k, t_k = schedule_values(cfg.schedule, params.q, row.k)
        assert (row.n_k, row.t_k) == (n_k, t_k)
    # two batches per extra-gradient iteration
    assert trace.rows[-1].cum_samples == 2 * sum(r.n_k for r in trace.rows)
    cums = [(r.cum_samples, r.cum_inner) for r in trace.rows]
    assert cums == sorted(cums)


def test_iterates_stay_in_ambient(noisy_box_problem):
    cfg = SolverConfig(
        eta=noisy_box_problem.suggested_eta, alpha=0.8, b=1.0,
        schedule=IncreasingSample(0.9), max_outer=20, seed=5,
    )
    trace = run_ieg_sqvi(noisy_box_problem, cfg, metrics=("dist",))
    final = np.asarray(trace.summary["final_point"])
    assert noisy_box_problem.ambient.contains(final, 1e-10)


def test_metric_floor_stops_early(box_problem):
    cfg = SolverConfig(
        eta=box_problem.suggested_eta, alpha=0.9, b=1.0,
        schedule=Deterministic(), max_outer=200, seed=0,
        metric_floor=("dist", 1e-6),
    )
    trace = run_ieg_sqvi(box_problem, cfg, metrics=("dist",))
    assert trace.summary["stopped_early"]
    assert trace.rows[-1].metrics["dist"] <= 1e-6
    assert len(trace.rows) < 200


_METRIC_FUNCTIONS = {"dist": "dist_to_solution", "residual": "natural_residual"}


@pytest.mark.parametrize("floor", [("dist", 5e-3), ("residual", 2e-3)])
def test_floored_run_stops_where_the_unfloored_run_crosses(noisy_box_problem, floor, monkeypatch):
    # the loop tests the floor on the lone iterate and the rows come from the
    # stacked evaluation after it: both stop at the same k, with the same bytes
    base = dict(
        eta=noisy_box_problem.suggested_eta, alpha=0.9, b=1.0,
        schedule=IncreasingSample(0.9), max_outer=60, seed=4,
    )
    metrics = ("dist", "residual")
    full = run_ieg_sqvi(noisy_box_problem, SolverConfig(**base), metrics=metrics)
    metric, value = floor
    seen = []
    lone = getattr(diagnostics, _METRIC_FUNCTIONS[metric])

    def spy(problem, x, *args, **kwargs):
        seen.append(np.ndim(x))
        return lone(problem, x, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(diagnostics, _METRIC_FUNCTIONS[metric], spy)
        floored = run_ieg_sqvi(noisy_box_problem, SolverConfig(**base, metric_floor=floor), metrics=metrics)
    # the floor's metric is evaluated once per iterate, x0 included, and never on the stack
    assert seen == [1] * (len(floored.rows) + 1)
    first_k = next(row.k for row in full.rows if row.metrics[metric] <= value)
    assert first_k < 59 and floored.summary["stopped_early"]
    assert [row.k for row in floored.rows] == list(range(first_k + 1))
    assert floored.initial_metrics == full.initial_metrics
    for mine, theirs in zip(floored.rows, full.rows):
        assert mine == theirs
        for name in metrics:
            assert np.float64(mine.metrics[name]).tobytes() == np.float64(theirs.metrics[name]).tobytes()


def test_invalid_eta_rejected(box_problem):
    cfg = SolverConfig(eta=50.0, alpha=0.5, schedule=Deterministic(), max_outer=5, seed=0)
    with pytest.raises(InvalidParameters):
        run_ig_sqvi(box_problem, cfg, metrics=("dist",))


def test_nonfinite_iterate_raises():
    # F is -1 below 0.5 and NaN from there: x1 = 0.5 is finite, x2 is not
    op = OperatorSpec(
        dim=2, lipschitz=1.0, qg_mu=1.0, mean_eval=lambda x: np.where(x < 0.5, -1.0, np.nan)
    )
    prob = ProblemInstance(
        name="nan",
        operator=op,
        map=FixedSet(Box(-np.ones(2), np.ones(2))),
        ambient=Box(-np.ones(2), np.ones(2)),
        x0=np.zeros(2),
        suggested_eta=1.0,
        reference_projector=lambda z: np.zeros(2),
    )
    cfg = SolverConfig(eta=1.0, alpha=0.5, schedule=Deterministic(), max_outer=3, seed=0)
    with pytest.raises(NonfiniteIterate):
        run_ig_sqvi(prob, cfg, metrics=())
    with pytest.raises(NonfiniteIterate, match="iteration 1") as err:
        run_ig_sqvi(prob, cfg, metrics=("dist", "residual"))
    # str() is the message alone, as `sqvi run` prints it; the carried trace
    # holds the finite iterates' rows with their metrics
    assert str(err.value) == "iterate became nonfinite at iteration 1"
    trace = err.value.args[1]
    assert trace.initial_metrics == {"dist": 0.0, "residual": math.sqrt(2.0)}
    assert [row.k for row in trace.rows] == [0]
    assert trace.rows[0].metrics["dist"] == math.sqrt(0.5)
    assert math.isnan(trace.rows[0].metrics["residual"])


def test_unknown_metric_raises_before_any_operator_call(noisy_box_problem, monkeypatch):
    import sqvi.solvers as solvers

    def no_work(*args, **kwargs):
        raise AssertionError("the run did work before rejecting its metric")

    for name in ("evaluate_mean", "sample_batch", "inexact_project"):
        monkeypatch.setattr(solvers, name, no_work)
    cfg = SolverConfig(
        eta=noisy_box_problem.suggested_eta, alpha=0.8, b=1.0,
        schedule=IncreasingSample(0.9), max_outer=3, seed=1,
    )
    with pytest.raises(InvalidParameters, match="unknown metric id 'gap'"):
        run_ieg_sqvi(noisy_box_problem, cfg, metrics=("dist", "gap"))


def test_unavailable_metric_raises_before_any_operator_call(noisy_box_problem, monkeypatch):
    import sqvi.solvers as solvers

    def no_work(*args, **kwargs):
        raise AssertionError("the run did work before rejecting its metric")

    for name in ("evaluate_mean", "sample_batch", "inexact_project"):
        monkeypatch.setattr(solvers, name, no_work)
    cfg = SolverConfig(
        eta=noisy_box_problem.suggested_eta, alpha=0.8, b=1.0,
        schedule=IncreasingSample(0.9), max_outer=3, seed=1,
    )
    with pytest.raises(WrongProblemKind):
        run_ieg_sqvi(noisy_box_problem, cfg, metrics=("dist", "lower_subopt"))


def _one_point_problem(case):
    # callables written for one point, as an operator or a reference
    # solution set may be given; each maps a stack of `dim` rows to an array
    # of the right shape with the wrong rows, or raises on the stack
    a = np.array([[2.0, 1.0, 0.0], [-1.0, 2.0, 0.5], [0.0, -0.5, 1.0]])
    c = np.array([0.3, -0.2, 0.1])
    mean = {"affine": lambda x: a @ x + c, "stacked": lambda x: np.matmul(a, x[..., None])[..., 0] + c}
    proj = {"affine": lambda z: np.diag([1.0, 0.0, 0.0]) @ z, "stacked": lambda z: z * [1.0, 0.0, 0.0]}
    mean_case, proj_case = case
    return ProblemInstance(
        name="one-point",
        operator=OperatorSpec(dim=3, lipschitz=3.0, qg_mu=1.0, mean_eval=mean[mean_case]),
        map=FixedSet(Box(-np.ones(3), np.ones(3))),
        ambient=Box(-np.ones(3), np.ones(3)),
        x0=np.array([1.0, 0.5, -0.5]),
        suggested_eta=0.1,
        reference_projector=proj[proj_case],
    )


@pytest.mark.parametrize(
    "case, metric", [(("affine", "stacked"), "residual"), (("stacked", "affine"), "dist")]
)
def test_one_point_callable_raises_instead_of_wrong_rows(case, metric):
    # max_outer = dim - 1 stacks dim iterates, where `a @ X` has the shape of X
    problem = _one_point_problem(case)
    cfg = SolverConfig(eta=0.1, alpha=0.5, schedule=Deterministic(), max_outer=2, seed=0)
    with pytest.raises(InvalidParameters, match=f"metric '{metric}': .* row by row"):
        run_ig_sqvi(problem, cfg, metrics=("dist", "residual"))
    cfg = SolverConfig(eta=0.1, alpha=0.5, schedule=Deterministic(), max_outer=4, seed=0)
    with pytest.raises(InvalidParameters, match="row by row"):
        run_ig_sqvi(problem, cfg, metrics=("dist", "residual"))
    fine = run_ig_sqvi(_one_point_problem(("stacked", "stacked")), cfg, metrics=("dist", "residual"))
    assert len(fine.rows) == 4


def test_rotation_field_written_for_one_point_raises():
    # np.array([-x[1], x[0]]) takes rows of a stack for coordinates; the
    # rotation is merely monotone, so no step size is admissible and the run
    # must opt out of validation and name its rho
    op = OperatorSpec(dim=2, lipschitz=1.0, qg_mu=0.0, mean_eval=lambda x: np.array([-x[1], x[0]]))
    prob = ProblemInstance(
        name="rotation",
        operator=op,
        map=FixedSet(Box(-np.ones(2), np.ones(2))),
        ambient=Box(-np.ones(2), np.ones(2)),
        x0=np.array([0.5, 0.25]),
        suggested_eta=0.5,
    )
    for max_outer in (1, 3):
        cfg = SolverConfig(
            eta=0.5, alpha=0.5, schedule=Deterministic(rho=0.9), max_outer=max_outer, seed=0,
            allow_out_of_range=True,
        )
        with pytest.raises(InvalidParameters, match="metric 'residual': .* row by row"):
            run_ig_sqvi(prob, cfg, metrics=("residual",))


def test_fixed_box_vi_contraction_within_theory():
    # plain affine VI over a fixed box (zero shift): per-iteration distance
    # contraction stays within the theoretical factor 1-q plus slack
    prob = make_translated_box_qvi(n=12, shift_slope=0.0, seed=11)
    cfg = SolverConfig(
        eta=prob.suggested_eta, alpha=0.9, b=2.0, schedule=Deterministic(), max_outer=30, seed=0
    )
    q = derive_params(prob, cfg, extra_gradient=True).q
    trace = run_ieg_sqvi(prob, cfg, metrics=("dist",))
    d = np.concatenate([[trace.initial_metrics["dist"]], trace.metric_series("dist")])
    usable = d[:-1] > 1e-9
    ratios = (d[1:] / d[:-1])[usable]
    assert np.all(ratios[2:] <= 1 - q + 0.02)


# ---------------------------------------------------------------------------
# complexity report


def test_complexity_report_crossing(box_problem):
    cfg = SolverConfig(
        eta=box_problem.suggested_eta, alpha=0.9, b=1.0,
        schedule=Deterministic(), max_outer=40, seed=0,
    )
    trace = run_ieg_sqvi(box_problem, cfg, metrics=("dist",))
    rep = oracle_complexity_report(trace, 1e-4, metric="dist")
    assert rep.outer_iterations == rep.first_k + 1
    assert rep.total_samples == sum(r.n_k for r in trace.rows[: rep.first_k + 1])
    assert trace.rows[rep.first_k].metrics["dist"] <= 1e-4
    if rep.first_k > 0:
        assert trace.rows[rep.first_k - 1].metrics["dist"] > 1e-4

    big = oracle_complexity_report(trace, 1e9, metric="dist")
    assert big == (0, 0, 0, 0)
    with pytest.raises(NotReached):
        oracle_complexity_report(trace, 1e-300, metric="dist")


def test_inner_iteration_totals_scale_like_inverse_epsilon():
    # inner iterations actually run to reach epsilon, against (1/eps)*log(1/eps).
    # The paper's bound is an upper bound, tight when the run contracts at about
    # the schedule's rho: this instance contracts at 1-q = 0.6875 and rho = 0.75
    # sits just above it, so the ratio should stay within a modest band
    prob = orthant_face_problem()
    cfg = SolverConfig(
        eta=0.5, alpha=0.5, b=0.5, schedule=Deterministic(rho=0.75),
        max_outer=60, seed=0, metric_floor=("dist", 1e-3),
    )
    trace = run_ieg_sqvi(prob, cfg, metrics=("dist",))
    grid = (1e-1, 1e-2, 1e-3)
    reports = [oracle_complexity_report(trace, eps, metric="dist") for eps in grid]
    # premise: over the crossing window the run contracts at the theory's 1-q
    d = trace.metric_series("dist")
    lo, hi = reports[0].first_k, reports[-1].first_k
    rate = (d[hi] / d[lo]) ** (1.0 / (hi - lo))
    assert abs(rate - (1.0 - trace.summary["q"])) <= 1e-2
    ratios = []
    for eps, rep in zip(grid, reports):
        consumed = trace.rows[rep.first_k].cum_inner
        assert consumed > 0
        ratios.append(consumed / ((1.0 / eps) * math.log(1.0 / eps)))
    assert max(ratios) / min(ratios) <= 10.0


def test_game_projection_certificates_sound_along_run(game_problem, monkeypatch):
    # every projection of a run under the solver's relative stop is within its
    # certified bound of the surrogate's closed-form solution
    original = ArgminSet.project
    calls = []

    def checked(self, x, u, t, rel_tol):
        res = original(self, x, u, t, rel_tol)
        dist = float(np.linalg.norm(res.point - self.exact_project(x, u)))
        assert dist <= res.error_bound + 1e-12
        calls.append((res.inner_iterations, t))
        return res

    monkeypatch.setattr(ArgminSet, "project", checked)
    # budgets 1, 5, 24, 83, 257, 728: the last two exceed what the stop needs
    cfg = SolverConfig(
        eta=1e-2, alpha=9e-1, b=12e-1, schedule=Deterministic(rho=0.5), max_outer=6, seed=1,
        allow_out_of_range=True,
    )
    run_ieg_sqvi(game_problem, cfg, metrics=("lower_subopt",))
    assert len(calls) == 12
    assert any(ran < t for ran, t in calls)


@pytest.mark.parametrize("seed", ["12", 1.5, True])
@pytest.mark.parametrize("runner", [run_ieg_sqvi, run_ig_sqvi])
def test_non_integer_seed_raises_before_any_work(noisy_box_problem, monkeypatch, seed, runner):
    # a string seed once sampled from the stream of its characters, "12" from (1, 2)
    import sqvi.solvers as solvers

    def no_work(*args, **kwargs):
        raise AssertionError("the run did work before rejecting its seed")

    for name in ("_eval_metrics", "sample_batch"):
        monkeypatch.setattr(solvers, name, no_work)
    cfg = SolverConfig(
        eta=noisy_box_problem.suggested_eta, alpha=0.8, b=1.0,
        schedule=IncreasingSample(0.9), max_outer=3, seed=seed,
    )
    with pytest.raises(InvalidParameters, match="seeds must be integers"):
        runner(noisy_box_problem, cfg)


@pytest.mark.parametrize("schedule", [Deterministic(0.9), DampedInner()])
@pytest.mark.parametrize("runner", [run_ieg_sqvi, run_ig_sqvi])
def test_exact_mean_schedules_need_a_mean_field(noisy_box_problem, schedule, runner):
    op = noisy_box_problem.operator
    sample_only = OperatorSpec(op.dim, op.lipschitz, op.qg_mu, batch_mean=op.batch_mean, noise=op.noise)
    problem = replace(noisy_box_problem, operator=sample_only)
    cfg = SolverConfig(eta=problem.suggested_eta, alpha=0.8, b=1.0, schedule=schedule, max_outer=3,
                       allow_out_of_range=True)
    with pytest.raises(InvalidParameters, match="deterministic schedules need a closed-form mean field"):
        runner(problem, cfg)
