"""Each input check of the library API raises its error type with its cause.

The config front-end reaches none of these checks: ``tests/test_runner.py``
covers the ones a run configuration can reach.
"""
import numpy as np
import pytest

from sqvi.errors import (
    DimensionMismatch,
    EmptySample,
    InvalidConstants,
    InvalidParameters,
    InvalidSchedule,
    UnsupportedSet,
)
from sqvi.maps import ArgminSet, FixedSet, member
from sqvi.operators import OperatorSpec, estimate_strong_monotonicity, gaussian_operator, sample_batch
from sqvi.problems import make_translated_box_qvi
from sqvi.projection import apd_solve
from sqvi.sets import BlockBalls, Box, Halfspaces, Simplex
from sqvi.solvers import Deterministic, SolverConfig, contraction_factor, run_ieg_sqvi, schedule_values

identity = lambda x: x


def _wrong_batch_shape():
    op = OperatorSpec(dim=2, lipschitz=1.0, qg_mu=1.0, batch_mean=lambda x, rng, n: np.zeros(3))
    sample_batch(op, np.zeros(2), 1, np.random.default_rng(0))


def _two_dimensional_point():
    op = gaussian_operator(identity, dim=1, lipschitz=1.0, qg_mu=1.0, noise_level=1.0)
    sample_batch(op, np.zeros((1, 1)), 1, np.random.default_rng(0))


def _unknown_metric():
    problem = make_translated_box_qvi(n=2)
    run_ieg_sqvi(problem, SolverConfig(eta=problem.suggested_eta, alpha=0.5, b=0.5, max_outer=1), metrics=["bogus"])


def _argmin_over_a_box():
    mapping = ArgminSet(Box(-np.ones(2), np.ones(2)), np.eye(2), lambda x: np.zeros(2), regularization=1.0)
    mapping.exact_project(np.zeros(2), np.zeros(2))


@pytest.mark.parametrize(
    "call, error, cause",
    [
        (lambda: OperatorSpec(dim=0, lipschitz=1.0, qg_mu=1.0, mean_eval=identity), DimensionMismatch,
         "operator dimension must be >= 1"),
        (lambda: OperatorSpec(dim=1, lipschitz=1.0, qg_mu=-0.5, mean_eval=identity), InvalidConstants,
         "quadratic-growth constant must be nonnegative"),
        (lambda: OperatorSpec(dim=1, lipschitz=1.0, qg_mu=0.5), InvalidConstants,
         "needs a mean field or a batch mean"),
        (_wrong_batch_shape, DimensionMismatch, r"batch mean has shape \(3,\)"),
        (lambda: gaussian_operator(identity, dim=1, lipschitz=1.0, qg_mu=1.0, noise_level=-1.0), InvalidConstants,
         "noise_level must be nonnegative"),
        (lambda: estimate_strong_monotonicity(OperatorSpec(1, 1.0, 1.0, mean_eval=identity), []), EmptySample,
         "no probe points supplied"),
        (_two_dimensional_point, DimensionMismatch, r"point must be one-dimensional, got shape \(1, 1\)"),
        (lambda: BlockBalls(0, 2, 1.0), DimensionMismatch, "blocks and block_dim must be >= 1"),
        (lambda: Simplex(0), DimensionMismatch, "simplex dimension must be >= 1"),
        (lambda: Simplex(2, scale=0.0), UnsupportedSet, "simplex scale must be positive"),
        (lambda: Halfspaces(np.zeros(2), 1.0), UnsupportedSet, "halfspace normal must be nonzero"),
        (lambda: contraction_factor(0.5, 0.5, -1.0), InvalidParameters, "b must be nonnegative"),
        (lambda: schedule_values(Deterministic(rho=0.9), None, -1), InvalidSchedule,
         "iteration index must be >= 0"),
        (_unknown_metric, InvalidParameters, "unknown metric id 'bogus'"),
        (_argmin_over_a_box, UnsupportedSet, "no closed form over Box"),
        (lambda: member(FixedSet(Box(-np.ones(2), np.ones(2))), np.zeros(2), np.zeros(3)), DimensionMismatch,
         r"candidate has shape \(3,\), expected \(2,\)"),
        (lambda: apd_solve(np.zeros(2), lambda y: np.array([y @ y - 1.0]), lambda y: np.ones((1, 3)), 5),
         DimensionMismatch, r"jacobian has shape \(1, 3\), expected \(1,2\)"),
    ],
    ids=["operator-dim-0", "operator-qg-negative", "operator-no-field", "batch-mean-shape", "noise-negative",
         "strong-monotonicity-no-points", "point-2d", "block-balls-0", "simplex-dim-0", "simplex-scale-0",
         "halfspace-zero-normal", "contraction-b-negative", "schedule-k-negative", "run-unknown-metric",
         "argmin-no-closed-form", "member-candidate-shape", "apd-jacobian-shape"],
)
def test_api_input_errors_name_their_cause(call, error, cause):
    with pytest.raises(error, match=cause):
        call()
