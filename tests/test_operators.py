from dataclasses import replace

import numpy as np
import pytest

from sqvi.errors import DimensionMismatch, EmptySample, InvalidConstants, InvalidParameters, MissingMeanField
from sqvi.operators import (
    OperatorSpec,
    check_monotone,
    estimate_lipschitz,
    estimate_qg,
    estimate_strong_monotonicity,
    evaluate_mean,
    gaussian_operator,
    sample_batch,
    stream_key,
)
from sqvi.problems import make_translated_box_qvi
from sqvi.solvers import IncreasingSample, SolverConfig, run_ieg_sqvi, run_ig_sqvi

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
    res = sample_batch(identity_op, [0.3, -0.7], 17, np.random.default_rng(5))
    np.testing.assert_allclose(res, [0.3, -0.7])


def test_sample_batch_deterministic_replay():
    op = gaussian_operator(lambda x: x, dim=4, lipschitz=1.0, qg_mu=1.0, noise_level=1.0)
    a = sample_batch(op, np.ones(4), 64, np.random.default_rng((3, 2)))
    b = sample_batch(op, np.ones(4), 64, np.random.default_rng((3, 2)))
    assert np.array_equal(a, b)
    c = sample_batch(op, np.ones(4), 64, np.random.default_rng((3, 3)))
    assert not np.array_equal(a, c)


def test_sample_batch_monte_carlo_accuracy():
    # batch mean within 0.05*sqrt(n) of the mean field for >= 95% of streams
    n = 4
    op = gaussian_operator(lambda x: x, dim=n, lipschitz=1.0, qg_mu=1.0, noise_level=1.0)
    x = np.full(n, 0.5)
    hits = 0
    for rep in range(100):
        est = sample_batch(op, x, 10000, np.random.default_rng((77, rep)))
        if np.linalg.norm(est - x) <= 0.05 * np.sqrt(n):
            hits += 1
    assert hits >= 95


def test_batch_mean_concentration_bound():
    # ||mean of M draws - F(x)|| <= 4 nu / sqrt(M) with frequency >= 0.95
    n, m_draws, nu = 6, 256, 1.5
    op = gaussian_operator(lambda x: x, dim=n, lipschitz=1.0, qg_mu=1.0, noise_level=nu)
    x = np.zeros(n)
    hits = sum(
        np.linalg.norm(sample_batch(op, x, m_draws, np.random.default_rng((5, rep))) - x)
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


def test_check_monotone_empty_sample_raises():
    # no pairs certify nothing, as in estimate_qg
    with pytest.raises(EmptySample):
        check_monotone(identity_op, [])


def test_lipschitz_audit_affine(rng):
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    op = OperatorSpec(dim=2, lipschitz=2.0, qg_mu=1.0, mean_eval=lambda x: a @ x)
    pairs = [(p, q) for p, q in rng.standard_normal((1000, 2, 2))]
    assert estimate_lipschitz(op, pairs) <= 2.0 + 1e-8


def test_strong_monotonicity_estimates(rng):
    pts = list(rng.standard_normal((3, 2)))
    assert abs(estimate_strong_monotonicity(identity_op, pts) - 1.0) <= 1e-6
    assert abs(estimate_strong_monotonicity(rotation_op, pts)) <= 1e-8


@pytest.mark.parametrize("key", [(0,), (11, 299, 54, 1), (2**32 - 1, 0), (2**32, 3), (2**70,)])
def test_sample_batch_stream_matches_default_rng(key):
    op = OperatorSpec(
        dim=3, lipschitz=1.0, qg_mu=1.0, batch_mean=lambda x, rng, n: x + rng.standard_normal(3)
    )
    expected = np.random.default_rng(key).standard_normal(3)
    got = sample_batch(op, np.zeros(3), 5, np.random.default_rng(key))
    assert got.tobytes() == expected.tobytes()


def _recording_box(draws):
    # the noisy box with a batch mean that keeps each batch's standard normals
    problem = make_translated_box_qvi(n=3, seed=2, noise_level=0.5)
    op = problem.operator

    def batch_mean(x, rng, count):
        draws.append(rng.standard_normal(op.dim))
        return op.mean_eval(x) + draws[-1] / count

    spec = OperatorSpec(op.dim, op.lipschitz, op.qg_mu, mean_eval=op.mean_eval, batch_mean=batch_mean, noise=op.noise)
    return replace(problem, operator=spec)


def _sampled_config(problem, seed):
    return SolverConfig(eta=problem.suggested_eta, alpha=0.9, b=1.5, schedule=IncreasingSample(0.9),
                        max_outer=6, seed=seed)


@pytest.mark.parametrize(
    "prefix",
    [(), (0,), (11,), (11, 0), (11, 299), (0, 0), (2**32 - 1, 5), (5, 6, 7), (1, 2, 3, 4),
     (7, 8, 9, 10, 11), (2**32, 3), (2**70,)],
)
def test_sample_streams_match_default_rng(prefix):
    # a sampled IEG run draws each phase's batches in iteration order from
    # one generator, np.random.default_rng(seed + (phase,))
    draws = []
    problem = _recording_box(draws)
    run_ieg_sqvi(problem, _sampled_config(problem, prefix))
    assert len(draws) == 12
    for phase in (0, 1):
        expected = np.random.default_rng(prefix + (phase,))
        for k, got in enumerate(draws[phase::2]):
            assert got.tobytes() == expected.standard_normal(3).tobytes(), (k, phase)


@pytest.mark.parametrize("seed", [11, (3, 4)])
def test_ig_draws_the_phase_zero_batches_of_ieg(seed):
    ieg, ig = [], []
    for draws, runner in ((ieg, run_ieg_sqvi), (ig, run_ig_sqvi)):
        problem = _recording_box(draws)
        runner(problem, _sampled_config(problem, seed))
    assert len(ig) == 6 and [d.tobytes() for d in ig] == [d.tobytes() for d in ieg[0::2]]


def test_sample_batch_uses_a_positioned_generator():
    # each call draws from the generator where the last one left it
    op = OperatorSpec(dim=3, lipschitz=1.0, qg_mu=1.0, batch_mean=lambda x, rng, n: x + rng.standard_normal(3))
    rng, replay = np.random.default_rng((11, 4, 7, 1)), np.random.default_rng((11, 4, 7, 1))
    for _ in range(3):
        assert sample_batch(op, np.zeros(3), 8, rng).tobytes() == replay.standard_normal(3).tobytes()


@pytest.mark.parametrize("prefix", [(-1,), (3, -2)])
def test_sample_streams_negative_part_raises(prefix):
    # numpy seeds no generator from a negative part, so a sampled run raises
    problem = make_translated_box_qvi(n=3, seed=2, noise_level=0.5)
    with pytest.raises(ValueError):
        run_ieg_sqvi(problem, _sampled_config(problem, prefix))


@pytest.mark.parametrize("bad", ["12", 1.5, True, None, (3, "4"), (np.bool_(True),)])
def test_stream_key_rejects_non_integer_parts(bad):
    with pytest.raises(InvalidParameters, match="seeds must be integers"):
        stream_key(bad)
    assert stream_key(np.int64(7)) == (7,) and stream_key([1, np.uint32(2)]) == (1, 2)
