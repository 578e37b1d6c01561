import numpy as np
import pytest

from sqvi.diagnostics import natural_residual
from sqvi.errors import ConstructionFailed, DimensionMismatch, EmptyFile, InvalidParameters, ParseError
from sqvi.maps import member
from sqvi.operators import estimate_qg, estimate_strong_monotonicity, evaluate_mean
from sqvi.problems import (
    PRESETS,
    DatasetGame,
    LinearCoupling,
    QuadraticPayoff,
    SyntheticGame,
    _min_norm_solution,
    audit_instance,
    build_problem,
    load_libsvm,
    make_coupled_sp,
    make_regression_game,
    make_translated_box_qvi,
)
from sqvi.sets import BlockBalls, Box

# ---------------------------------------------------------------------------
# translated box


def test_plain_vi_interior_solution():
    p = make_translated_box_qvi(n=1, shift_slope=0.0, matrix=[[1.0]], offset=[-1.0], box=(-2, 2))
    np.testing.assert_allclose(p.reference_projector(np.zeros(1)), [1.0], atol=1e-12)


def test_shifted_interval_solution():
    p = make_translated_box_qvi(n=1, shift_slope=0.1, matrix=[[1.0]], offset=[0.0], box=(1, 2))
    np.testing.assert_allclose(p.reference_projector(np.zeros(1)), [10.0 / 9.0], atol=1e-10)


def test_offset_without_matrix_replaces_the_generated_offset():
    plain = make_translated_box_qvi(n=3, seed=2)
    moved = make_translated_box_qvi(n=3, seed=2, offset=[9.0, 9.0, 9.0])
    x = np.array([0.1, -0.2, 0.3])
    a_x = plain.operator.mean_eval(x) - plain.operator.mean_eval(np.zeros(3))
    np.testing.assert_array_equal(moved.operator.mean_eval(np.zeros(3)), [9.0, 9.0, 9.0])
    np.testing.assert_allclose(moved.operator.mean_eval(x), a_x + 9.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("offset", [[0.5], [0.5, 0.5, 0.5]])
@pytest.mark.parametrize("matrix", [np.eye(2), None])
def test_offset_of_the_wrong_shape_raises(matrix, offset):
    with pytest.raises(DimensionMismatch, match="offset has shape"):
        make_translated_box_qvi(n=2, matrix=matrix, offset=offset)


def test_reference_residual_small(box_problem):
    assert box_problem.metadata["reference_residual"] <= 1e-12


def test_reference_is_fixed_point_for_any_eta(box_problem):
    # the fixed-point optimality condition holds for every positive step size
    x_star = box_problem.reference_projector(None)
    for eta in (0.15, 0.4, 0.9):
        step = box_problem.map.exact_project(
            x_star, x_star - eta * evaluate_mean(box_problem.operator, x_star)
        )
        assert np.linalg.norm(step - x_star) <= 1e-10


@pytest.mark.parametrize("probes", [0, 1, 2])
def test_audit_instance_needs_three_probes(box_problem, probes):
    # fewer probes than one pair and one triple used to report
    # monotone_min=inf and a passing gamma report on no evidence
    with pytest.raises(InvalidParameters):
        audit_instance(box_problem, probes=probes)


def test_side_condition_enforced():
    with pytest.raises(ConstructionFailed):
        make_translated_box_qvi(n=4, shift_slope=0.45, seed=0)


def test_box_instance_audits(box_problem):
    audit = audit_instance(box_problem, probes=400)
    assert audit.monotone_min >= -1e-10
    assert audit.lipschitz_ratio <= box_problem.operator.lipschitz + 1e-8
    assert audit.gamma_report.passed
    assert audit.x0_feasible


def test_solution_in_own_constraint_set(box_problem):
    x_star = box_problem.reference_projector(None)
    assert member(box_problem.map, x_star, x_star, tol=1e-9)
    assert box_problem.ambient.contains(x_star, 1e-9)


# ---------------------------------------------------------------------------
# regression game


def test_block_balls_project_stack(rng):
    # each point of a (..., dim) stack is projected exactly as on its own
    balls = BlockBalls(3, 4, 1.5)
    stack = rng.standard_normal((2, 5, balls.dim))
    out = balls.project(stack)
    assert out.shape == stack.shape
    assert np.any(out != stack) and np.any(out == stack)
    for row, u in zip(out.reshape(-1, balls.dim), stack.reshape(-1, balls.dim)):
        np.testing.assert_array_equal(row, balls.project(u))


def test_game_interpolation_minimum(game_problem):
    assert abs(game_problem.lower_level.min_value) <= 1e-10


def test_game_monotone_but_not_strongly(game_problem, rng):
    pts = [game_problem.ambient.project(rng.standard_normal(game_problem.operator.dim)) for _ in range(2)]
    modulus = estimate_strong_monotonicity(game_problem.operator, pts)
    assert modulus <= 1e-8


def test_game_quadratic_growth_positive(game_problem, training_minimizer_projector, rng):
    dim = game_problem.operator.dim
    pts = [game_problem.ambient.project(0.8 * rng.standard_normal(dim) / np.sqrt(25)) for _ in range(50)]
    qg = estimate_qg(game_problem.operator, training_minimizer_projector, pts)
    assert qg >= 1e-3


def test_game_has_no_reference_solution_set(game_problem):
    assert game_problem.reference_projector is None
    assert game_problem.operator.qg_mu == 0.0
    assert "qg_audit" not in game_problem.metadata


def test_game_exact_projection_matches_long_fista(game_problem, rng):
    from sqvi.projection import inexact_project

    dim = game_problem.operator.dim
    x = game_problem.ambient.project(0.3 * rng.standard_normal(dim))
    u = game_problem.ambient.project(0.3 * rng.standard_normal(dim))
    exact = game_problem.map.exact_project(x, u)
    iterative = inexact_project(game_problem.map, x, u, t=30000).point
    assert np.linalg.norm(exact - iterative) <= 1e-6


def _bisection_reg_project(game, x, u):
    """Scalar reference for the game's regularized projection.

    Per player: ridge solve in the eigenbasis of A_i^T A_i; a block outside
    the ball bisects the secular equation ||y(theta)|| = radius for theta.
    """
    feats, lam, w = game.feature_dim, game.radius, 1.0 / game.regularization
    base = game.train_matrix @ x - game.train_rhs
    out = np.empty(game.players * feats)
    for i in range(game.players):
        blk = slice(i * feats, (i + 1) * feats)
        a_i = game.train_matrix[:, blk]
        eig_vals, eig_vecs = np.linalg.eigh(a_i.T @ a_i)
        cross = a_i.T @ (base - a_i @ x[blk])
        rhs = eig_vecs.T @ (u[blk] - w * cross)
        denom = 1.0 + w * eig_vals
        lo, hi = 0.0, 0.0
        if np.sum((rhs / denom) ** 2) > lam * lam:
            hi = 1.0
            while np.sum((rhs / (denom + hi)) ** 2) > lam * lam:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if np.sum((rhs / (denom + mid)) ** 2) > lam * lam:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-15 * max(1.0, hi):
                    break
        out[blk] = eig_vecs @ (rhs / (denom + 0.5 * (lo + hi)))
    return out


def _bisection_probes(game_problem):
    game = game_problem.lower_level.game
    rng = np.random.default_rng(11)
    x_fit = np.linalg.lstsq(game.train_matrix, game.train_rhs, rcond=None)[0]
    # near the training fit the unconstrained blocks stay inside the ball;
    # large pushes on every other block drive those onto its boundary
    mixed = (x_fit + 0.01 * rng.standard_normal(x_fit.size)).reshape(game.players, game.feature_dim)
    mixed[::2] += 5.0 * rng.standard_normal(mixed[::2].shape)
    return [(x_fit, mixed.reshape(-1))] + [
        (game_problem.ambient.project(s * rng.standard_normal(x_fit.size)), s * rng.standard_normal(x_fit.size))
        for s in (0.1, 0.3, 1.0, 10.0)
    ]


def test_game_exact_projection_matches_scalar_bisection(game_problem):
    game = game_problem.lower_level.game
    players, feats, lam = game.players, game.feature_dim, game.radius
    saw_mixed = saw_active = False
    for x, u in _bisection_probes(game_problem):
        fast = game_problem.map.exact_project(x, u)
        ref = _bisection_reg_project(game, x, u)
        assert np.linalg.norm(fast - ref) <= 1e-12
        ref_norms = np.linalg.norm(ref.reshape(players, feats), axis=1)
        norms = np.linalg.norm(fast.reshape(players, feats), axis=1)
        active = ref_norms >= lam * (1.0 - 1e-9)
        assert np.all(np.abs(norms[active] - lam) <= 1e-12 * lam)
        assert np.all(norms[~active] < lam)
        saw_mixed |= bool(np.any(~active) and np.any(active))
        saw_active |= bool(np.all(active))
    assert saw_mixed and saw_active


def test_game_exact_projection_batched(game_problem):
    # a stacked (n, dim) batch, inactive, mixed and all-active rows together,
    # solves each row as a single call does
    game = game_problem.lower_level.game
    probes = _bisection_probes(game_problem)
    xs, us = np.stack([x for x, _ in probes]), np.stack([u for _, u in probes])
    batch = game_problem.map.exact_project(xs, us)
    assert batch.shape == xs.shape
    for row, (x, u) in zip(batch, probes):
        assert np.linalg.norm(row - game_problem.map.exact_project(x, u)) <= 1e-13
        assert np.linalg.norm(row - _bisection_reg_project(game, x, u)) <= 1e-12


def test_game_surrogate_gradient_matches_training_loss(game_problem, rng):
    # the surrogate FISTA minimizes, 0.5 y'My - c'y with M from the eigenpairs
    # of the game's hessian, has the gradient in y of
    # 0.5||y-u||^2 + (1/sigma) sum_i 0.5||A x - b + A_i (y_i - x_i)||^2
    game, mapping = game_problem.lower_level.game, game_problem.map
    feats, sigma = game.feature_dim, game.regularization
    assert mapping.hessian.shape == (game.players, feats, feats)
    dim = game_problem.operator.dim
    for _ in range(3):
        x, y, u = 0.3 * rng.standard_normal((3, dim))
        base = game.train_matrix @ x - game.train_rhs
        lower = np.concatenate([
            game.train_matrix[:, i * feats : (i + 1) * feats].T
            @ (base + game.train_matrix[:, i * feats : (i + 1) * feats] @ (y - x)[i * feats : (i + 1) * feats])
            for i in range(game.players)
        ])
        expected = (y - u) + lower / sigma
        got = mapping._surrogate.times(y) - (u - mapping.linear(x) / sigma)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_block_balls_interior_points_come_back_bit_for_bit():
    balls = BlockBalls(3, 4, 2.0)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((6, 3, 4))
    u *= (rng.uniform(0.1, 1.9, (6, 3)) / np.linalg.norm(u, axis=-1))[..., None]
    u = u.reshape(6, 12)
    for point in (u, u[0]):
        out = balls.project(point)
        assert out.shape == point.shape and out.tobytes() == point.tobytes()
        assert not np.shares_memory(out, point)


def test_block_balls_exterior_and_mixed_rows():
    balls = BlockBalls(3, 4, 2.0)
    rng = np.random.default_rng(6)
    u = rng.standard_normal((5, 3, 4))
    norms = rng.uniform(0.5, 6.0, (5, 3))
    norms[0] = [3.0, 4.0, 5.0]  # a row with every block outside
    norms[1] = [0.5, 1.0, 1.5]  # a row with every block inside
    u *= (norms / np.linalg.norm(u, axis=-1))[..., None]
    out = balls.project(u.reshape(5, 12)).reshape(5, 3, 4)
    outside = norms > 2.0
    assert outside.any() and (~outside).any()
    np.testing.assert_allclose(np.linalg.norm(out[outside], axis=-1), 2.0, rtol=1e-12)
    np.testing.assert_allclose(out[outside], 2.0 * u[outside] / norms[outside][:, None], rtol=1e-12)
    assert out[~outside].tobytes() == u[~outside].tobytes()
    for row, point in zip(out, u):
        np.testing.assert_array_equal(row.reshape(12), balls.project(point.reshape(12)))


def test_game_audit_values_pinned(game_problem):
    # table1-synthetic at seed 1: the certified bound ||M^-1/2 D|| / sigma
    assert game_problem.map.gamma == pytest.approx(9.896089785539, rel=1e-10)
    assert "gamma_audit" not in game_problem.metadata
    # the Lipschitz constant is the largest validation-gram eigenvalue, to the
    # bit as one eigvalsh call per player gives it
    grams = [a.T @ a for a, _ in game_problem.lower_level.game.validation]
    assert game_problem.operator.lipschitz == max(float(np.linalg.eigvalsh(g)[-1]) for g in grams)


def _dataset_game(tmp_path, rng):
    # 40 rows of 6 features for 4 players: 8 training rows per player, more
    # than its 6 features, so A A' is singular and no interpolant exists
    lines = []
    for i in range(40):
        feats = rng.standard_normal(6)
        toks = " ".join(f"{j + 1}:{feats[j]:.6f}" for j in range(6))
        lines.append(f"{rng.standard_normal():.6f} {toks}")
    f = tmp_path / "game.txt"
    f.write_text("\n".join(lines) + "\n")
    return make_regression_game(DatasetGame(path=str(f), players=4), sigma=1e-1)


@pytest.mark.parametrize("kind", ["synthetic-1", "synthetic-11", "dataset", "zero-row"])
def test_game_interpolant_matches_lstsq(kind, tmp_path, rng, monkeypatch):
    if kind == "zero-row":
        # a training row of all-zero features: A A' is exactly singular, yet
        # an interpolant exists
        a, b = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]), np.array([1.0, 0.0])
    else:
        if kind == "dataset":
            game = _dataset_game(tmp_path, rng).lower_level.game
        else:
            game = make_regression_game(SyntheticGame(seed=int(kind.split("-")[1]))).lower_level.game
        a, b = game.train_matrix, game.train_rhs
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    got = _min_norm_solution(a, b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the dataset game's training matrix is tall (32 x 24): its A A' is
    # singular, so no normal-equations solve is formed at all
    assert len(solves) == (0 if kind == "dataset" else 1)
    # only the dataset game's fit leaves a residual
    residual = np.linalg.norm(a @ got - b) / np.linalg.norm(b)
    assert (residual > 1e-3) if kind == "dataset" else (residual <= 1e-12)


@pytest.mark.parametrize("seed", [1, 11])
def test_game_gamma_bounds_interior_slope_sharply(seed):
    # where no ball is active the surrogate projection is linear in x with
    # slope M^-1 D / sigma; a step along its top right-singular vector must
    # move the projection by at most the declared gamma, and by at least
    # 0.8 gamma, so the bound is also close to sharp
    params = dict(PRESETS["table1-synthetic"]["problem_params"], seed=seed)
    p = build_problem("regression_game", params)
    game = p.lower_level.game
    sigma, feats = game.regularization, game.feature_dim
    d = game.train_matrix.T @ game.train_matrix
    m = np.eye(p.operator.dim)
    for i in range(game.players):
        blk = slice(i * feats, (i + 1) * feats)
        m[blk, blk] += d[blk, blk] / sigma
        d[blk, blk] = 0.0
    direction = np.linalg.svd(np.linalg.solve(m, d))[2][0]
    x0, step = p.x0, 1e-4
    u = p.map.linear(x0) / sigma
    y0 = p.map.exact_project(x0, u)
    y1 = p.map.exact_project(x0 + step * direction, u)
    for y in (y0, y1):
        assert np.max(np.linalg.norm(y.reshape(game.players, feats), axis=1)) < 0.5 * game.radius
    ratio = np.linalg.norm(y1 - y0) / step
    gamma = p.map.gamma
    assert 0.8 * gamma <= ratio <= gamma


def test_game_instance_audits(game_problem):
    audit = audit_instance(game_problem, probes=120)
    assert audit.monotone_min >= -1e-10
    assert audit.lipschitz_ratio <= game_problem.operator.lipschitz + 1e-8
    assert audit.gamma_report.passed
    assert audit.x0_feasible


def test_game_radius_rejects_tight_ball():
    with pytest.raises(ConstructionFailed):
        make_regression_game(SyntheticGame(players=2, points=40, features=10), lam=1e-6)


def test_game_too_few_rows():
    with pytest.raises(DimensionMismatch):
        make_regression_game(SyntheticGame(players=40, points=50, features=4))


# ---------------------------------------------------------------------------
# coupled saddle point


def test_bilinear_saddle_uncoupled():
    p = make_coupled_sp(QuadraticPayoff(P=[[0.0]], Q=[[0.0]], R=[[1.0]], p=[0.0], q=[0.0]))
    assert p.reference_projector is None
    assert natural_residual(p, np.zeros(2)).value <= 1e-12


def test_coupled_sp_inactive_constraint():
    pay = QuadraticPayoff(P=[[1.0]], Q=[[1.0]], R=[[1.0]], p=[0.0], q=[0.0])
    p = make_coupled_sp(pay, LinearCoupling([1.0], [1.0], 1.0))
    assert natural_residual(p, np.zeros(2), budget=5000).value <= 1e-12


# F(u, w) = (u + w, w - u) under the shared constraint u + w <= -0.5: every
# point of the segment u + w = -0.5 with w <= u (-0.25 <= u <= 0.5) solves
# the QVI; (-0.3, -0.2) lies on the line but off the segment
@pytest.mark.parametrize(
    "point, solves",
    [((-0.25, -0.25), True), ((-0.2, -0.3), True), ((0.0, -0.5), True), ((-0.3, -0.2), False)],
    ids=["sol(-0.25,-0.25)", "sol(-0.2,-0.3)", "sol(0.0,-0.5)", "nonsol(-0.3,-0.2)"],
)
def test_coupled_sp_active_constraint(point, solves):
    pay = QuadraticPayoff(P=[[1.0]], Q=[[1.0]], R=[[1.0]], p=[0.0], q=[0.0])
    p = make_coupled_sp(pay, LinearCoupling([1.0], [1.0], -0.5))
    res = natural_residual(p, np.array(point), budget=5000)
    if solves:
        assert res.value <= 1e-6
    else:  # certified: the exact residual is at least value - error_bound
        assert res.value - res.error_bound >= 1e-2


@pytest.mark.parametrize("budget", [0, -1])
def test_natural_residual_budget_below_one_raises(budget):
    # only None takes the default budget; 0 used to run 2000 iterations
    pay = QuadraticPayoff(P=[[1.0]], Q=[[1.0]], R=[[1.0]], p=[0.0], q=[0.0])
    p = make_coupled_sp(pay, LinearCoupling([1.0], [1.0], -0.5))
    with pytest.raises(InvalidParameters):
        natural_residual(p, np.zeros(2), budget=budget)


def test_coupled_gamma_bounds_two_coordinate_slope():
    # two coordinates per block, a = (1, 0.05): at this x the box clips u_1
    # and the coupling is active, so u_2 alone absorbs a move of the offset
    # c - a_w'x_w, at a rate of 1/0.05 = 20 per unit of x_w1
    eye = np.eye(2).tolist()
    pay = QuadraticPayoff(P=eye, Q=eye, R=eye, p=[0.0, 0.0], q=[0.0, 0.0])
    a, c = np.array([1.0, 0.05]), -0.5
    p = make_coupled_sp(pay, LinearCoupling(a, a, c))

    def project_u(x, u):
        # the u-block of P_K(x)(u): clip(u - theta a) with a'y = c - a'x_w
        offset = c - a @ x[2:]
        y = lambda th: np.clip(u[:2] - th * a, -1.0, 1.0)
        lo, hi = 0.0, 1.0
        if a @ y(0.0) <= offset:
            return y(0.0)
        while a @ y(hi) > offset:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if a @ y(mid) > offset else (lo, mid)
        return y(hi)

    x, u, step = np.array([0.0, 0.0, 0.475, 0.0]), np.array([-5.0, 5.0, 0.0, 0.0]), 1e-3
    y0 = project_u(x, u)
    np.testing.assert_allclose(y0, [-1.0, 0.5], rtol=1e-12)
    # the map's u-row of the coupling is active there
    assert abs(p.map.constraint(x, np.concatenate([y0, u[2:]]))[0]) <= 1e-12
    ratio = np.linalg.norm(project_u(x + step * np.eye(4)[2], u) - y0) / step
    gamma = p.map.gamma
    assert gamma == pytest.approx(np.linalg.norm(a) / 0.05, rel=1e-15)
    assert 0.99 * gamma <= ratio <= gamma


def test_coupled_sp_rejects_nonconvex():
    with pytest.raises(ConstructionFailed):
        make_coupled_sp(QuadraticPayoff(P=[[-1.0]], Q=[[1.0]], R=[[1.0]], p=[0.0], q=[0.0]))


@pytest.mark.parametrize("p, q", [([0.0, 1.0], [0.0]), ([0.0], [0.0, 1.0]), ([0.0], [[0.0]])])
def test_coupled_sp_rejects_payoff_vectors_of_the_wrong_length(p, q):
    with pytest.raises(ConstructionFailed, match="expected"):
        make_coupled_sp(QuadraticPayoff(P=[[1.0]], Q=[[1.0]], R=[[1.0]], p=p, q=q))


def test_coupled_constraint_is_one_matrix_over_one_box():
    # unequal blocks, a zero entry in each coupling vector
    nu, nw = 2, 3
    a_u, a_w, c = np.array([0.0, 0.7]), np.array([-1.3, 0.0, 2.1]), 0.25
    rng = np.random.default_rng(29)
    pay = QuadraticPayoff(
        P=np.eye(nu), Q=np.eye(nw), R=rng.standard_normal((nu, nw)), p=np.zeros(nu), q=np.zeros(nw)
    )
    prob = make_coupled_sp(pay, LinearCoupling(a_u, a_w, c), u_box=(-1.0, 2.0), w_box=(-0.5, 0.5))
    g = prob.map.constraint
    on_u = np.concatenate([np.ones(nu), np.zeros(nw)])
    on_w = 1.0 - on_u
    for _ in range(50):
        x, y = 3.0 * rng.standard_normal((2, nu + nw))
        rows = [a_u @ y[:nu] + a_w @ x[nu:] - c, a_u @ x[:nu] + a_w @ y[nu:] - c]
        scale = np.abs(np.concatenate([a_u, a_w])) @ (np.abs(x) + np.abs(y)) + c
        np.testing.assert_allclose(g(x, y), rows, rtol=0.0, atol=4 * np.finfo(float).eps * scale)
        # row 0 reads y_u and x_w only, row 1 x_u and y_w only
        g0 = g(x, y)
        assert g(x, y + on_w)[0] == g0[0] and g(x + on_u, y)[0] == g0[0]
        assert g(x, y + on_u)[1] == g0[1] and g(x + on_w, y)[1] == g0[1]
        assert g(x, y + on_u)[0] != g0[0] and g(x, y + on_w)[1] != g0[1]

    box_u, box_w = Box(np.full(nu, -1.0), np.full(nu, 2.0)), Box(np.full(nw, -0.5), np.full(nw, 0.5))
    blocks = lambda y: np.concatenate([box_u.project(y[..., :nu]), box_w.project(y[..., nu:])], axis=-1)
    assert prob.ambient is prob.map.ambient
    pts = np.concatenate([
        3.0 * rng.standard_normal((200, nu + nw)),
        # outside on both blocks, above and below, and on the faces
        [[5.0, -5.0, 1.0, -1.0, 0.7], [-2.0, 3.0, -0.6, 0.6, -9.0], [-1.0, 2.0, -0.5, 0.5, -0.0]],
    ])
    assert prob.ambient.project(pts).tobytes() == blocks(pts).tobytes()
    for pt in pts:
        assert prob.ambient.project(pt).tobytes() == blocks(pt).tobytes()
    assert prob.x0.tobytes() == np.concatenate([box_u.anchor(), box_w.anchor()]).tobytes()


# ---------------------------------------------------------------------------
# LIBSVM loader


def test_libsvm_basic_line(tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("1.5 1:2.0 3:-1.0\n")
    mat, y = load_libsvm(f)
    np.testing.assert_allclose(mat, [[2.0, 0.0, -1.0]])
    np.testing.assert_allclose(y, [1.5])


def test_libsvm_empty_file(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("\n\n")
    with pytest.raises(EmptyFile):
        load_libsvm(f)


def test_libsvm_non_ascending(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 3:1 2:1\n")
    with pytest.raises(ParseError, match="line 1"):
        load_libsvm(f)


def test_libsvm_bad_entries(tmp_path):
    f = tmp_path / "bad2.txt"
    f.write_text("1 1:2\nx 1:2\n")
    with pytest.raises(ParseError, match="line 2"):
        load_libsvm(f)
    f2 = tmp_path / "bad3.txt"
    f2.write_text("1 0:2\n")
    with pytest.raises(ParseError, match="1-based"):
        load_libsvm(f2)


def test_libsvm_roundtrip_property(tmp_path):
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    @settings(max_examples=30, deadline=None)
    @given(
        mat=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 5)),
            elements=st.floats(-100, 100, allow_nan=False, width=32),
        ),
        labels_seed=st.integers(0, 2**20),
    )
    def check(mat, labels_seed):
        labels = np.random.default_rng(labels_seed).standard_normal(mat.shape[0])
        lines = []
        for lbl, row in zip(labels, mat):
            # all columns serialized (even zeros) so the width survives the round trip
            toks = [f"{j + 1}:{float(v)!r}" for j, v in enumerate(row)]
            lines.append(" ".join([repr(float(lbl))] + toks))
        f = tmp_path / "rt.txt"
        f.write_text("\n".join(lines) + "\n")
        got, y = load_libsvm(f)
        np.testing.assert_array_equal(got, mat)
        np.testing.assert_array_equal(y, labels)

    check()


def test_dataset_game_roundtrip(tmp_path, rng):
    p = _dataset_game(tmp_path, rng)
    assert p.operator.dim == 24
    assert p.lower_level.game.players == 4
    # a dataset game's training matrix is block diagonal, so K(x) does not move
    assert p.map.gamma == 0.0


# ---------------------------------------------------------------------------
# presets and factory


def test_presets_carry_tuned_values():
    syn = PRESETS["table1-synthetic"]
    assert syn["eta"] == 1e-2
    assert syn["alpha"] == 9e-1
    assert syn["b"] == 12e-1
    assert syn["problem_params"]["sigma"] == 1e-2
    eun = PRESETS["table1-eunite2001"]
    assert (eun["eta"], eun["problem_params"]["sigma"]) == (3e-1, 1e-1)
    tri = PRESETS["table1-triazines"]
    assert (tri["eta"], tri["problem_params"]["sigma"]) == (5e-2, 1e0)


def test_build_problem_factory():
    p = build_problem("translated_box", {"n": 3, "seed": 1})
    assert p.operator.dim == 3
    with pytest.raises(ConstructionFailed):
        build_problem("nope", {})
