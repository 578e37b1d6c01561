import numpy as np
import pytest

from sqvi.diagnostics import natural_residual
from sqvi.errors import ConstructionFailed, EmptyFile, ParseError, ShapeError
from sqvi.maps import member, translated_projection
from sqvi.operators import estimate_qg, estimate_strong_monotonicity, evaluate_mean
from sqvi.problems import (
    PRESETS,
    DatasetGame,
    LinearCoupling,
    QuadraticPayoff,
    SyntheticGame,
    audit_instance,
    build_problem,
    load_libsvm,
    make_coupled_sp,
    make_regression_game,
    make_translated_box_qvi,
)

# ---------------------------------------------------------------------------
# translated box


def test_plain_vi_interior_solution():
    p = make_translated_box_qvi(n=1, shift_slope=0.0, matrix=[[1.0]], offset=[-1.0], box=(-2, 2))
    np.testing.assert_allclose(p.reference_projector(np.zeros(1)), [1.0], atol=1e-12)


def test_shifted_interval_solution():
    p = make_translated_box_qvi(n=1, shift_slope=0.1, matrix=[[1.0]], offset=[0.0], box=(1, 2))
    np.testing.assert_allclose(p.reference_projector(np.zeros(1)), [10.0 / 9.0], atol=1e-10)


def test_reference_residual_small(box_problem):
    assert box_problem.metadata["reference_residual"] <= 1e-12


def test_reference_is_fixed_point_for_any_eta(box_problem):
    # the fixed-point optimality condition holds for every positive step size
    x_star = box_problem.reference_projector(None)
    for eta in (0.15, 0.4, 0.9):
        step = translated_projection(
            box_problem.map, x_star, x_star - eta * evaluate_mean(box_problem.operator, x_star)
        )
        assert np.linalg.norm(step - x_star) <= 1e-10


def test_side_condition_enforced():
    with pytest.raises(ConstructionFailed):
        make_translated_box_qvi(n=4, shift_slope=0.45, seed=0)


def test_box_instance_audits(box_problem):
    audit = audit_instance(box_problem, probes=400)
    assert audit.monotone_min >= -1e-10
    assert audit.lipschitz_ratio <= box_problem.constants.lipschitz + 1e-8
    assert audit.gamma_report.passed
    assert audit.x0_feasible


def test_solution_in_own_constraint_set(box_problem):
    x_star = box_problem.reference_projector(None)
    assert member(box_problem.map, x_star, x_star, tol=1e-9)
    assert box_problem.ambient.contains(x_star, 1e-9)


# ---------------------------------------------------------------------------
# regression game


def test_game_interpolation_minimum(game_problem):
    assert abs(game_problem.lower_level.min_value) <= 1e-10


def test_game_monotone_but_not_strongly(game_problem, rng):
    pts = [game_problem.ambient.project(rng.standard_normal(game_problem.operator.dim)) for _ in range(2)]
    modulus = estimate_strong_monotonicity(game_problem.operator, pts)
    assert modulus <= 1e-8


def test_game_quadratic_growth_positive(game_problem, rng):
    dim = game_problem.operator.dim
    pts = [game_problem.ambient.project(0.8 * rng.standard_normal(dim) / np.sqrt(25)) for _ in range(50)]
    qg = estimate_qg(game_problem.operator, game_problem.reference_projector, pts)
    assert qg >= 1e-3


def test_game_reference_projector_lands_on_training_optimum(game_problem, rng):
    z = game_problem.ambient.project(rng.standard_normal(game_problem.operator.dim))
    proj = game_problem.reference_projector(z)
    data = game_problem.lower_level.game
    assert np.max(np.abs(data.train_matrix @ proj - data.train_rhs)) <= 1e-7
    assert game_problem.ambient.contains(proj, 1e-8)


def test_game_exact_projection_matches_long_fista(game_problem, rng):
    from sqvi.projection import inexact_project

    dim = game_problem.operator.dim
    x = game_problem.ambient.project(0.3 * rng.standard_normal(dim))
    u = game_problem.ambient.project(0.3 * rng.standard_normal(dim))
    exact = game_problem.map.exact_reg_project(x, u)
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


def test_game_exact_projection_matches_scalar_bisection(game_problem):
    game = game_problem.lower_level.game
    players, feats, lam = game.players, game.feature_dim, game.radius
    rng = np.random.default_rng(11)
    x_fit = np.linalg.lstsq(game.train_matrix, game.train_rhs, rcond=None)[0]
    # near the training fit the unconstrained blocks stay inside the ball;
    # large pushes on every other block drive those onto its boundary
    mixed = (x_fit + 0.01 * rng.standard_normal(x_fit.size)).reshape(players, feats)
    mixed[::2] += 5.0 * rng.standard_normal(mixed[::2].shape)
    probes = [(x_fit, mixed.reshape(-1))] + [
        (game_problem.ambient.project(s * rng.standard_normal(x_fit.size)), s * rng.standard_normal(x_fit.size))
        for s in (0.1, 0.3, 1.0, 10.0)
    ]
    saw_mixed = saw_active = False
    for x, u in probes:
        fast = game_problem.map.exact_reg_project(x, u)
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


def test_game_audit_values_pinned(game_problem):
    # table1-synthetic at seed 1; the projection solver must not move these
    assert game_problem.metadata["gamma_audit"] == pytest.approx(1.2566508583700173, rel=1e-10)
    assert game_problem.metadata["qg_audit"] == pytest.approx(0.6319003842449055, rel=1e-10)


def test_game_instance_audits(game_problem):
    audit = audit_instance(game_problem, probes=120)
    assert audit.monotone_min >= -1e-10
    assert audit.lipschitz_ratio <= game_problem.constants.lipschitz + 1e-8
    assert audit.gamma_report.passed  # declared gamma carries a 1.5x margin
    assert audit.x0_feasible


def test_game_radius_rejects_tight_ball():
    with pytest.raises(ConstructionFailed):
        make_regression_game(SyntheticGame(players=2, points=40, features=10), lam=1e-6)


def test_game_too_few_rows():
    with pytest.raises(ShapeError):
        make_regression_game(SyntheticGame(players=40, points=50, features=4))


# ---------------------------------------------------------------------------
# coupled saddle point


def test_bilinear_saddle_uncoupled():
    p = make_coupled_sp(QuadraticPayoff(P=[[0.0]], Q=[[0.0]], R=[[1.0]], p=[0.0], q=[0.0]))
    np.testing.assert_allclose(p.reference_projector(np.zeros(2)), [0.0, 0.0], atol=1e-9)
    assert natural_residual(p, np.zeros(2)).value <= 1e-12


def test_coupled_sp_inactive_constraint():
    pay = QuadraticPayoff(P=[[1.0]], Q=[[1.0]], R=[[1.0]], p=[0.0], q=[0.0])
    p = make_coupled_sp(pay, LinearCoupling([1.0], [1.0], 1.0))
    np.testing.assert_allclose(p.reference_projector(np.zeros(2)), [0.0, 0.0], atol=1e-8)


def test_coupled_sp_active_constraint():
    pay = QuadraticPayoff(P=[[1.0]], Q=[[1.0]], R=[[1.0]], p=[0.0], q=[0.0])
    p = make_coupled_sp(pay, LinearCoupling([1.0], [1.0], -0.5))
    sol = p.reference_projector(np.zeros(2))
    np.testing.assert_allclose(sol, [-0.25, -0.25], atol=1e-7)
    res = natural_residual(p, sol, budget=5000)
    assert res.value <= 1e-6


def test_coupled_sp_rejects_nonconvex():
    with pytest.raises(ConstructionFailed):
        make_coupled_sp(QuadraticPayoff(P=[[-1.0]], Q=[[1.0]], R=[[1.0]], p=[0.0], q=[0.0]))


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
    lines = []
    for i in range(40):
        feats = rng.standard_normal(6)
        toks = " ".join(f"{j + 1}:{feats[j]:.6f}" for j in range(6))
        lines.append(f"{rng.standard_normal():.6f} {toks}")
    f = tmp_path / "game.txt"
    f.write_text("\n".join(lines) + "\n")
    p = make_regression_game(DatasetGame(path=str(f), players=4), sigma=1e-1)
    assert p.operator.dim == 24
    assert p.lower_level.game.players == 4


# ---------------------------------------------------------------------------
# presets and factory


def test_presets_carry_tuned_values():
    syn = PRESETS["table1-synthetic"]
    assert syn["solver_params"]["eta"] == 1e-2
    assert syn["solver_params"]["alpha"] == 9e-1
    assert syn["solver_params"]["b"] == 12e-1
    assert syn["sigma"] == 1e-2
    eun = PRESETS["table1-eunite2001"]
    assert (eun["solver_params"]["eta"], eun["sigma"]) == (3e-1, 1e-1)
    tri = PRESETS["table1-triazines"]
    assert (tri["solver_params"]["eta"], tri["sigma"]) == (5e-2, 1e0)


def test_build_problem_factory():
    p = build_problem("translated_box", {"n": 3, "seed": 1})
    assert p.operator.dim == 3
    with pytest.raises(ConstructionFailed):
        build_problem("nope", {})
