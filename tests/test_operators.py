import numpy as np
import pytest

from sqvi.errors import DimensionMismatch, EmptySample, InvalidConstants, MissingMeanField
from sqvi.operators import (
    OperatorSpec,
    check_monotone,
    estimate_lipschitz,
    estimate_qg,
    estimate_strong_monotonicity,
    evaluate_mean,
    gaussian_operator,
    sample_batch,
)

identity_op = OperatorSpec(dim=2, lipschitz=1.0, qg_mu=1.0, mean_eval=lambda x: x)
rotation_op = OperatorSpec(
    dim=2, lipschitz=1.0, qg_mu=0.0, mean_eval=lambda x: np.array([-x[1], x[0]])
)


def test_evaluate_mean_identity_zero():
    np.testing.assert_allclose(evaluate_mean(identity_op, [0.0, 0.0]), [0.0, 0.0])


def test_evaluate_mean_regression_player_block():
    # validation gradient (A'Ax - A'b) with A = I and b = (1,1) at x = (1,1)
    a = np.eye(2)
    b = np.ones(2)
    op = OperatorSpec(dim=2, lipschitz=1.0, qg_mu=1.0, mean_eval=lambda x: a.T @ (a @ x - b))
    np.testing.assert_allclose(evaluate_mean(op, [1.0, 1.0]), [0.0, 0.0])


def test_evaluate_mean_affine():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    c = np.array([1.0, -1.0])
    op = OperatorSpec(dim=2, lipschitz=2.0, qg_mu=1.0, mean_eval=lambda x: a @ x + c)
    np.testing.assert_allclose(evaluate_mean(op, [1.0, 1.0]), [3.0, 0.0])


def test_evaluate_mean_errors():
    sampler_only = OperatorSpec(
        dim=1, lipschitz=1.0, qg_mu=1.0,
        batch_mean=lambda x, rng, n: x,
    )
    with pytest.raises(MissingMeanField):
        evaluate_mean(sampler_only, [1.0])
    with pytest.raises(DimensionMismatch):
        evaluate_mean(identity_op, [1.0, 2.0, 3.0])


def test_operator_constants_validated():
    with pytest.raises(InvalidConstants):
        OperatorSpec(dim=1, lipschitz=1.0, qg_mu=2.0, mean_eval=lambda x: x)
    with pytest.raises(InvalidConstants):
        OperatorSpec(dim=1, lipschitz=-1.0, qg_mu=0.5, mean_eval=lambda x: x)


def test_sample_batch_zero_noise_is_exact():
    res = sample_batch(identity_op, [0.3, -0.7], 17, stream=5)
    np.testing.assert_allclose(res, [0.3, -0.7])


def test_sample_batch_deterministic_replay():
    op = gaussian_operator(lambda x: x, dim=4, lipschitz=1.0, qg_mu=1.0, noise_level=1.0)
    a = sample_batch(op, np.ones(4), 64, stream=(3, 2))
    b = sample_batch(op, np.ones(4), 64, stream=(3, 2))
    assert np.array_equal(a, b)
    c = sample_batch(op, np.ones(4), 64, stream=(3, 3))
    assert not np.array_equal(a, c)


def test_sample_batch_monte_carlo_accuracy():
    # batch mean within 0.05*sqrt(n) of the mean field for >= 95% of streams
    n = 4
    op = gaussian_operator(lambda x: x, dim=n, lipschitz=1.0, qg_mu=1.0, noise_level=1.0)
    x = np.full(n, 0.5)
    hits = 0
    for rep in range(100):
        est = sample_batch(op, x, 10000, stream=(77, rep))
        if np.linalg.norm(est - x) <= 0.05 * np.sqrt(n):
            hits += 1
    assert hits >= 95


def test_batch_mean_concentration_bound():
    # ||mean of M draws - F(x)|| <= 4 nu / sqrt(M) with frequency >= 0.95
    n, m_draws, nu = 6, 256, 1.5
    op = gaussian_operator(lambda x: x, dim=n, lipschitz=1.0, qg_mu=1.0, noise_level=nu)
    x = np.zeros(n)
    hits = sum(
        np.linalg.norm(sample_batch(op, x, m_draws, stream=(5, rep)) - x)
        <= 4 * nu / np.sqrt(m_draws)
        for rep in range(100)
    )
    assert hits >= 95


def test_estimate_qg_identity(rng):
    pts = [p / np.linalg.norm(p) for p in rng.standard_normal((20, 2))]
    val = estimate_qg(identity_op, lambda x: np.zeros(2), pts)
    assert abs(val - 1.0) <= 1e-12


def test_estimate_qg_rank_deficient(rng):
    # F = grad of 0.5*||A x||^2 with A = [[1, 0]]; solution set is {x1 = 0}
    op = OperatorSpec(dim=2, lipschitz=1.0, qg_mu=1.0, mean_eval=lambda x: np.array([x[0], 0.0]))
    proj = lambda x: np.array([0.0, x[1]])
    pts = rng.standard_normal((30, 2))
    val = estimate_qg(op, proj, list(pts))
    assert abs(val - 1.0) <= 1e-10


def test_estimate_qg_rotation_is_zero(rng):
    pts = rng.standard_normal((30, 2))
    val = estimate_qg(rotation_op, lambda x: np.zeros(2), list(pts))
    assert abs(val) <= 1e-10


def test_estimate_qg_empty(rng):
    with pytest.raises(EmptySample):
        estimate_qg(identity_op, lambda x: x, [np.ones(2), -np.ones(2)])


def test_check_monotone(rng):
    pts = rng.standard_normal((10, 2, 2))
    rep = check_monotone(identity_op, list(pts))
    assert rep.passed and rep.minimum >= 0

    anti = OperatorSpec(dim=1, lipschitz=1.0, qg_mu=0.0, mean_eval=lambda x: -x)
    rep2 = check_monotone(anti, [(np.array([1.0]), np.array([0.0]))])
    assert not rep2.passed
    assert abs(rep2.minimum + 1.0) <= 1e-15

    rep3 = check_monotone(rotation_op, list(pts))
    assert rep3.passed and abs(rep3.minimum) <= 1e-10


def test_lipschitz_audit_affine(rng):
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    op = OperatorSpec(dim=2, lipschitz=2.0, qg_mu=1.0, mean_eval=lambda x: a @ x)
    pairs = [(p, q) for p, q in rng.standard_normal((1000, 2, 2))]
    assert estimate_lipschitz(op, pairs) <= 2.0 + 1e-8


def test_strong_monotonicity_estimates(rng):
    pts = list(rng.standard_normal((3, 2)))
    assert abs(estimate_strong_monotonicity(identity_op, pts) - 1.0) <= 1e-6
    assert abs(estimate_strong_monotonicity(rotation_op, pts)) <= 1e-8
