import re

import numpy as np
import pytest
import scipy.optimize

from sqvi.errors import InfeasibleSubproblem, InvalidParameters, NonfiniteValue
from sqvi.maps import ArgminSet, FixedSet, NonlinearConvex, TranslatedSet
from sqvi.operators import evaluate_mean
from sqvi.problems import BlockBalls
from sqvi.projection import (
    CHUNK,
    RESUME,
    BlockQuadratic,
    apd_solve,
    feasibility_witness,
    fista_solve,
    inexact_project,
    projection_rate_audit,
    reference_project,
)
from sqvi.sets import Ball, Box, Halfspaces


def ball_constraint_map(bound=5.0):
    return NonlinearConvex(
        ambient=Box(np.full(2, -bound), np.full(2, bound)),
        constraint=lambda x, y: np.array([float(y @ y) - 1.0]),
        jacobian=lambda x, y: 2.0 * y[None, :],
    )


def rank_deficient_argmin(rng, n=10, rows=4, radius=3.0, sigma=1e-2):
    b_mat = rng.standard_normal((rows, n))
    c = b_mat @ rng.standard_normal(n)
    return ArgminSet(
        feasible=Ball(np.zeros(n), radius),
        hessian=b_mat.T @ b_mat,
        linear=lambda x: -b_mat.T @ c,
        regularization=sigma,
    )


# ---------------------------------------------------------------------------
# FISTA


def unit_quadratic(strong_convexity=1.0):
    # f(y) = y^2/2 in one dimension: M = [[1]], whose eigenvector is 1
    return BlockQuadratic(np.ones((1, 1)), np.ones((1, 1, 1)), strong_convexity)


# f(y) = y^2/2 on [-1, 1] from y0 = 1 with L = mu = 1: the momentum
# (sqrt(L/mu) - 1)/(sqrt(L/mu) + 1) is 0. Step 1 from z = 1 gives
# y+ = P(1 - 1) = 0 with certificate 2 L |z - y+| / mu = 2; step 2 from z = 0
# gives y+ = 0 with certificate 0, and every later step repeats it. The
# smallest certificate seen is 2 after one step and 0 after two or more.


def test_fista_box_quadratic_worked_value():
    res = fista_solve(
        unit_quadratic(),
        c=np.zeros(1),
        feasible=Box([-1.0], [1.0]),
        y0=np.array([1.0]),
        t=10,
    )
    assert res.dist_bound == 0.0 and res.iterations == 10
    assert abs(float(res.point[0])) <= res.dist_bound


def test_fista_single_step_bound():
    res = fista_solve(
        unit_quadratic(),
        c=np.zeros(1),
        feasible=Box([-1.0], [1.0]),
        y0=np.array([1.0]),
        t=1,
    )
    assert abs(res.dist_bound - 2.0) <= 1e-15 and res.iterations == 1
    np.testing.assert_allclose(res.point, [0.0])  # one projected gradient step from 1
    assert abs(float(res.point[0])) <= res.dist_bound


@pytest.mark.parametrize("strong_convexity", [1.0])
def test_fista_nonfinite_gradient_raises(strong_convexity):
    with pytest.raises(NonfiniteValue):
        fista_solve(
            unit_quadratic(strong_convexity),
            c=np.full(1, np.nan),
            feasible=Box([-1.0], [1.0]),
            y0=np.array([1.0]),
            t=5,
        )


@pytest.mark.parametrize("strong_convexity", [0.0, -1.0, np.nan])
def test_fista_needs_positive_strong_convexity(strong_convexity):
    # without a modulus there is no certificate, so there is no loop to run
    with pytest.raises(InvalidParameters, match="strong convexity"):
        fista_solve(
            unit_quadratic(strong_convexity),
            c=np.zeros(1),
            feasible=Box([-1.0], [1.0]),
            y0=np.array([1.0]),
            t=5,
        )


def test_fista_gap_decay_exponent(rng):
    # random strongly convex quadratic over the unit ball
    n = 10
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = np.linspace(1.0, 50.0, n)
    a = q @ np.diag(eigs) @ q.T
    c = rng.standard_normal(n) * 3.0
    ball = Ball(np.zeros(n), 1.0)
    val = lambda y: 0.5 * float(y @ (a @ y)) + float(c @ y)
    quad = BlockQuadratic(eigs[None], q[None], eigs[0])
    y0 = ball.project(rng.standard_normal(n))
    ref = fista_solve(quad, -c, ball, y0, t=100000).point
    fstar = val(ref)
    gaps = []
    budgets = [10, 20, 40, 80, 160]
    for t in budgets:
        pt = fista_solve(quad, -c, ball, y0, t=t).point
        gaps.append(max(val(pt) - fstar, 1e-16))
    slope = np.polyfit(np.log10(budgets), np.log10(gaps), 1)[0]
    assert slope <= -1.9



def test_fista_positive_rel_tol_needs_an_anchor():
    with pytest.raises(InvalidParameters, match="anchor"):
        fista_solve(unit_quadratic(), np.zeros(1), Box([-1.0], [1.0]), np.array([1.0]), t=5, rel_tol=0.1)


def reference_fista(eig_vals, eig_vecs, c, feasible, y0, t, rel_tol=0.0, anchor=None):
    """FISTA one projected step per NumPy call, on M = V diag(eig_vals) V'
    with modulus 1: the loop the chunked solver must reproduce. Also returns
    whether a constraint moved each step's point."""
    L = max(float(np.max(eig_vals)), 1e-15)
    matrix = (eig_vecs * eig_vals[:, None, :]) @ eig_vecs.transpose(0, 2, 1)
    shape = eig_vals.shape + (1,)
    momentum = (np.sqrt(L) - 1.0) / (np.sqrt(L) + 1.0)
    scale, stop2 = 2.0 * L, (rel_tol / (2.0 * L)) ** 2
    y = z = np.asarray(y0, dtype=float)
    best, best_d2, active = y, np.inf, []
    for it in range(1, t + 1):
        w = z - (np.matmul(matrix, z.reshape(shape)).reshape(-1) - c) / L
        y_new = feasible.project(w)
        active.append(bool(np.any(y_new != w)))
        d2 = float((z - y_new) @ (z - y_new))
        if not np.isfinite(d2):
            raise NonfiniteValue("reference iterate left the finite floats")
        if d2 < best_d2:
            best, best_d2 = y_new, d2
        if rel_tol > 0 and d2 <= stop2 * float((anchor - y_new) @ (anchor - y_new)):
            break
        z = y_new + momentum * (y_new - y)
        y = y_new
    return best, scale * np.sqrt(best_d2), it, active


def _block_quadratic_problem(rng, kind, reach=2.0, spread=0.1, opposite=False):
    # 3 blocks of 4 with eigenvalues 1 and three in [20, 400]. The
    # unconstrained minimizer is small along the stiff directions and at
    # ``reach`` along the eigenvalue-1 one, which FISTA approaches slowly: from
    # y0 near the center the iterates leave the set only after some
    # unconstrained steps. From y0 on the side ``opposite`` the minimizer the
    # stiff directions overshoot, so constraints turn on, off and on again
    vals = np.concatenate([np.ones((3, 1)), np.sort(rng.uniform(20.0, 400.0, (3, 3)), axis=1)], axis=1)
    vecs = np.linalg.qr(rng.standard_normal((3, 4, 4)))[0]
    feasible = {
        "block-balls": BlockBalls(3, 4, 1.0),
        "ball": Ball(np.full(12, 0.1), 1.5),
        "box": Box(np.full(12, -0.6), np.full(12, 0.6)),
    }[kind]
    y_star_hat = np.concatenate([np.full((3, 1), reach), spread * rng.standard_normal((3, 3))], axis=1)
    c = (vals * y_star_hat)[:, None, :] @ vecs.transpose(0, 2, 1)
    if opposite:
        y0 = -3.0 * (y_star_hat[:, None, :] @ vecs.transpose(0, 2, 1)).reshape(-1)
    else:
        y0 = 0.05 * rng.standard_normal(12)
    return vals, vecs, c.reshape(-1), feasible, feasible.project(y0)


def _assert_matches_step_loop(vals, vecs, c, feasible, y0, t, rel_tol, anchor):
    want, want_bound, want_it, active = reference_fista(vals, vecs, c, feasible, y0, t, rel_tol, anchor)
    got = fista_solve(BlockQuadratic(vals, vecs, 1.0), c, feasible, y0, t, rel_tol, anchor)
    assert got.iterations == want_it
    assert np.linalg.norm(got.point - want) <= 1e-12 * np.linalg.norm(want)
    # a certificate is 2L ||z - y+||: with z and y+ known to 1e-12 relative it
    # is known to 2L 1e-12 ||y|| absolute, past 1e-12 relative once it is small
    floor = 2.0 * float(np.max(vals)) * 1e-12 * np.linalg.norm(want)
    assert abs(got.dist_bound - want_bound) <= 1e-12 * want_bound + floor
    return "".join("x" if a else "." for a in active)


@pytest.mark.parametrize("kind", ["block-balls", "ball", "box"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
@pytest.mark.parametrize("t", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK + 5])
def test_chunked_fista_matches_step_loop(kind, rel_tol, t):
    rng = np.random.default_rng(17)
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(rng, kind)
    anchor = 0.5 * rng.standard_normal(12)
    active = _assert_matches_step_loop(vals, vecs, c, feasible, y0, t, rel_tol, anchor)
    # a constraint turned active after unconstrained steps, inside a chunk
    first_active = active.find("x") + 1
    assert 1 < first_active and first_active % CHUNK != 0


@pytest.mark.parametrize("kind", ["block-balls", "ball", "box"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
def test_chunked_fista_matches_step_loop_when_constraints_switch(kind, rel_tol):
    rng = np.random.default_rng(1)
    problem = _block_quadratic_problem(rng, kind, reach=1.2, spread=0.3, opposite=True)
    anchor = 0.5 * rng.standard_normal(12)
    active = _assert_matches_step_loop(*problem, 130, rel_tol, anchor)
    # a constraint turns off for RESUME steps in a row, so chunking resumes,
    # and on again inside a resumed chunk
    assert re.search("x" + "." * RESUME + r"\.*x", active), active


@pytest.mark.parametrize("kind", ["block-balls", "ball", "box"])
def test_chunked_fista_nan_linear_term_raises(kind):
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(np.random.default_rng(17), kind)
    c[5] = np.nan
    with pytest.raises(NonfiniteValue):
        fista_solve(BlockQuadratic(vals, vecs, 1.0), c, feasible, y0, t=2 * CHUNK)

# ---------------------------------------------------------------------------
# accelerated primal-dual


def test_apd_linear_constraint_matches_closed_form():
    hs = Halfspaces([[1.0, 2.0]], [1.0])
    u = np.array([2.0, 2.0])
    res = apd_solve(u, lambda y: hs.normals @ y - hs.offsets, lambda y: hs.normals, t=500)
    np.testing.assert_allclose(res.point, hs.project(u), atol=1e-6)


def test_apd_ball_boundary():
    res = apd_solve(
        np.array([2.0, 0.0]),
        lambda y: np.array([float(y @ y) - 1.0]),
        lambda y: 2.0 * y[None, :],
        t=2000,
        ambient=Box(np.full(2, -5.0), np.full(2, 5.0)),
    )
    np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-5)


def test_apd_inactive_constraint_returns_query():
    u = np.array([0.2, -0.1])
    res = apd_solve(
        u,
        lambda y: np.array([float(y @ y) - 1.0]),
        lambda y: 2.0 * y[None, :],
        t=25,
    )
    np.testing.assert_allclose(res.point, u, atol=1e-14)
    assert res.violation == 0.0


def test_apd_matches_slsqp_oracle(rng):
    # independent oracle for a nonlinear constrained projection
    u = np.array([1.5, 2.5])
    cons = {"type": "ineq", "fun": lambda y: 1.0 - y @ y}
    ref = scipy.optimize.minimize(
        lambda y: 0.5 * np.sum((y - u) ** 2),
        x0=np.zeros(2),
        constraints=[cons],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 500},
    ).x
    res = apd_solve(
        u,
        lambda y: np.array([float(y @ y) - 1.0]),
        lambda y: 2.0 * y[None, :],
        t=5000,
    )
    np.testing.assert_allclose(res.point, ref, atol=1e-5)


def test_inexact_project_detects_empty_constraint_set():
    m = NonlinearConvex(
        ambient=Box([0.0], [1.0]),
        constraint=lambda x, y: np.array([2.0 - y[0]]),  # y >= 2 inside [0,1]: empty
        jacobian=lambda x, y: np.array([[-1.0]]),
    )
    with pytest.raises(InfeasibleSubproblem):
        inexact_project(m, np.zeros(1), np.array([0.5]), t=100)


def test_feasibility_witness_and_infeasible_detection():
    box = Box([0.0], [1.0])
    wit = feasibility_witness(
        lambda y: np.array([0.5 - y[0]]), lambda y: np.array([[-1.0]]), box, np.array([0.0])
    )
    assert 0.5 - wit[0] <= 1e-8
    with pytest.raises(InfeasibleSubproblem):
        feasibility_witness(
            lambda y: np.array([y[0] + 1.0]), lambda y: np.array([[1.0]]), box, np.array([0.0]),
            budget=200,
        )


# ---------------------------------------------------------------------------
# inexact_project dispatch


def test_inexact_project_translated_exact():
    m = TranslatedSet(base_set=Ball(np.zeros(2), 1.0), shift=lambda x: 0.5 * x, shift_lipschitz=0.5)
    res = inexact_project(m, np.zeros(2), np.array([3.0, 4.0]), t=1)
    np.testing.assert_allclose(res.point, [0.6, 0.8])
    assert res.error_bound == 0.0 and res.inner_iterations == 0


def test_inexact_project_nonlinear_ball(rng):
    m = ball_constraint_map()
    target = np.array([0.6, 0.8])
    res = inexact_project(m, np.zeros(2), np.array([3.0, 4.0]), t=200)
    assert np.linalg.norm(res.point - target) <= res.error_bound + 1e-9


def test_inexact_project_singleton_argmin():
    m = ArgminSet(
        feasible=Box([0.0], [1.0]),
        hessian=[[1.0]],
        linear=lambda x: np.array([-2.0]),
        regularization=1e-2,
    )
    res = inexact_project(m, np.array([2.0]), np.array([-0.3]), t=400)
    assert abs(res.point[0] - 1.0) <= res.error_bound + 1e-9
    assert abs(res.point[0] - 1.0) <= 2e-3


def test_inexact_project_multi_halfspace_fixed_set():
    a, b = np.eye(2), np.array([0.5, 0.25])
    m = NonlinearConvex(
        ambient=Box(np.full(2, -5.0), np.full(2, 5.0)),
        constraint=lambda x, y: a @ y - b,
        jacobian=lambda x, y: a,
        jacobian_bound=1.0,
    )
    res = inexact_project(m, np.zeros(2), np.array([2.0, 2.0]), t=800)
    np.testing.assert_allclose(res.point, [0.5, 0.25], atol=1e-6)


def test_inexact_project_method_compatibility():
    m = ball_constraint_map()
    with pytest.raises(InvalidParameters):
        inexact_project(m, np.zeros(2), np.ones(2), t=0)


def test_inexact_project_snaps_to_ambient():
    m = FixedSet(Box(np.full(2, -2.0), np.full(2, 2.0)))
    amb = Box(np.full(2, -1.0), np.full(2, 1.0))
    res = inexact_project(m, np.zeros(2), np.array([5.0, 5.0]), t=1, ambient=amb)
    assert amb.contains(res.point, 1e-12)


def test_error_bound_monotone_in_budget(rng):
    m = rank_deficient_argmin(rng)
    u = rng.standard_normal(10)
    bounds = [inexact_project(m, np.zeros(10), u, t=t).error_bound for t in (5, 10, 50, 100, 500)]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_forced_budget_runs_every_iteration(game_problem):
    # rel_tol defaults to 0, which runs exactly t iterations
    p = game_problem
    x = np.asarray(p.x0, dtype=float)
    u = x - 1e-2 * evaluate_mean(p.operator, x)
    res = inexact_project(p.map, x, u, t=50)
    assert res.inner_iterations == 50


def test_certificate_soundness_fista_path(rng):
    m = rank_deficient_argmin(rng)
    u = rng.standard_normal(10) * 2
    ref = reference_project(m, np.zeros(10), u, budget=100000)
    for t in (10, 40, 160):
        res = inexact_project(m, np.zeros(10), u, t=t)
        assert np.linalg.norm(res.point - ref) <= res.error_bound + 1e-9


# ---------------------------------------------------------------------------
# rate audits


def test_rate_audit_exact_path():
    m = TranslatedSet(base_set=Ball(np.zeros(2), 1.0), shift=lambda x: 0.1 * x, shift_lipschitz=0.1)
    audit = projection_rate_audit(m, np.zeros(2), np.array([3.0, 4.0]), [5, 10, 20])
    assert audit.exact and audit.passed


def test_rate_audit_fista(rng):
    m = rank_deficient_argmin(rng)
    u = rng.standard_normal(10) * 2
    audit = projection_rate_audit(m, np.zeros(10), u, [10, 20, 40, 80, 160])
    assert audit.passed and audit.slope <= -0.95


def test_rate_audit_apd():
    m = ball_constraint_map()
    audit = projection_rate_audit(
        m, np.zeros(2), np.array([3.0, 4.0]), [10, 20, 40, 80, 160]
    )
    assert audit.passed and audit.slope <= -0.95


def test_projection_module_does_not_import_maps():
    # the maps call the inner solvers; an import back would reintroduce the cycle
    import ast
    from pathlib import Path

    import sqvi.projection

    tree = ast.parse(Path(sqvi.projection.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "maps" in name.split(".")]
