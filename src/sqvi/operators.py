"""Stochastic operator model: mean field, mini-batch sampling, audits.

An operator is a mapping F on R^n available through a closed-form mean
field, through a draw of the mean of a batch of stochastic samples, or both.
All randomness flows through seeded generator streams so that every batch
is a pure function of (point, batch size, stream).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySample,
    InvalidConstants,
    MissingMeanField,
)

Array = np.ndarray
MeanEval = Callable[[Array], Array]
# batch_mean(x, rng, count) -> dim vector equal in law to the mean of `count` draws
BatchMean = Callable[[Array, np.random.Generator, int], Array]


def _check_point(x, dim) -> Array:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({dim},)")
    return x


@dataclass(frozen=True)
class OperatorSpec:
    """A mapping F with declared Lipschitz and quadratic-growth constants.

    Parameters
    ----------
    dim : ambient dimension n.
    lipschitz : L, a Lipschitz bound for F on the feasible region.
    qg_mu : quadratic-growth modulus of F relative to the solution set.
    mean_eval : closed-form F(x), when the expectation is available.
    batch_mean : draw of the mean of ``count`` stochastic samples G(x, xi_j);
        None for a noise-free operator.
    """

    dim: int
    lipschitz: float
    qg_mu: float
    mean_eval: Optional[MeanEval] = None
    batch_mean: Optional[BatchMean] = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("operator dimension must be >= 1")
        if not (self.lipschitz > 0):
            raise InvalidConstants("lipschitz constant must be positive")
        if self.qg_mu < 0:
            # zero is allowed so that merely monotone toys can be declared honestly
            raise InvalidConstants("quadratic-growth constant must be nonnegative")
        if self.qg_mu > self.lipschitz * (1 + 1e-12):
            raise InvalidConstants(
                f"qg_mu={self.qg_mu} exceeds lipschitz={self.lipschitz}"
            )
        if self.mean_eval is None and self.batch_mean is None:
            raise InvalidConstants("operator needs a mean field or a batch mean")


def stream_key(stream) -> tuple:
    """A seed or a tuple of seeds as a tuple of ints, the key of a generator stream."""
    if isinstance(stream, (int, np.integer)):
        return (int(stream),)
    return tuple(int(s) for s in stream)


def evaluate_mean(op: OperatorSpec, x) -> Array:
    """Closed-form F(x). Raises MissingMeanField for sample-only operators."""
    x = _check_point(x, op.dim)
    if op.mean_eval is None:
        raise MissingMeanField("operator has no closed-form mean field")
    out = np.asarray(op.mean_eval(x), dtype=float)
    if out.shape != (op.dim,):
        raise DimensionMismatch(f"mean field returned shape {out.shape}")
    return out


def sample_batch(op: OperatorSpec, x, n: int, stream) -> Array:
    """Mean of ``n`` fresh operator draws at ``x`` from ``stream``.

    Deterministic in (x, n, stream): replaying the same triple reproduces the
    batch bit for bit. Noise-free operators short-circuit to the mean field.
    """
    x = _check_point(x, op.dim)
    if n < 1:
        raise DimensionMismatch("batch size must be >= 1")
    if op.batch_mean is None:
        return evaluate_mean(op, x)
    est = np.asarray(op.batch_mean(x, np.random.default_rng(stream_key(stream)), n), dtype=float)
    if est.shape != (op.dim,):
        raise DimensionMismatch(f"batch mean has shape {est.shape}")
    return est


def gaussian_operator(
    mean_eval: MeanEval,
    dim: int,
    lipschitz: float,
    qg_mu: float,
    noise_level: float = 0.0,
) -> OperatorSpec:
    """Operator with additive zero-mean Gaussian noise around ``mean_eval``.

    The per-coordinate standard deviation is noise_level/sqrt(dim), so a
    single draw w satisfies E||w||^2 = noise_level^2 and a batch of N draws
    satisfies E||w_bar||^2 = noise_level^2 / N. The batch mean is drawn
    directly as one Gaussian with standard deviation scaled by 1/sqrt(N),
    equal in law to averaging N draws, so fast-growing batches stay cheap.
    """
    if noise_level < 0:
        raise InvalidConstants("noise_level must be nonnegative")
    if noise_level == 0.0:
        return OperatorSpec(dim=dim, lipschitz=lipschitz, qg_mu=qg_mu, mean_eval=mean_eval)
    coord_sd = noise_level / np.sqrt(dim)

    def _batch_mean(x, rng, count):
        return np.asarray(mean_eval(x)) + (coord_sd / np.sqrt(count)) * rng.standard_normal(dim)

    return OperatorSpec(
        dim=dim,
        lipschitz=lipschitz,
        qg_mu=qg_mu,
        mean_eval=mean_eval,
        batch_mean=_batch_mean,
    )


class MonotoneReport(NamedTuple):
    minimum: float
    passed: bool


def check_monotone(op: OperatorSpec, pairs: Sequence) -> MonotoneReport:
    """Minimum of <F(x)-F(y), x-y> over the supplied pairs."""
    worst = np.inf
    for x, y in pairs:
        fx = evaluate_mean(op, x)
        fy = evaluate_mean(op, y)
        worst = min(worst, float((fx - fy) @ (np.asarray(x, float) - np.asarray(y, float))))
    return MonotoneReport(minimum=worst, passed=worst >= -1e-10)


def estimate_qg(op: OperatorSpec, reference_projector, points: Sequence) -> float:
    """Empirical quadratic-growth modulus against a solution-set projector.

    Returns min over points of <F(x)-F(y), x-y> / ||x-y||^2 with y the
    projection of x onto the solution set; points already on the solution
    set (within 1e-12) are skipped.
    """
    best = np.inf
    for x in points:
        x = _check_point(x, op.dim)
        y = np.asarray(reference_projector(x), dtype=float)
        d = x - y
        nrm2 = float(d @ d)
        if nrm2 < 1e-24:
            continue
        num = float((evaluate_mean(op, x) - evaluate_mean(op, y)) @ d)
        best = min(best, num / nrm2)
    if not np.isfinite(best):
        raise EmptySample("all probe points lie on the solution set")
    return best


def estimate_lipschitz(op: OperatorSpec, pairs: Sequence) -> float:
    """Max of ||F(x)-F(y)|| / ||x-y|| over the supplied pairs."""
    worst = 0.0
    for x, y in pairs:
        x = _check_point(x, op.dim)
        y = _check_point(y, op.dim)
        nrm = float(np.linalg.norm(x - y))
        if nrm < 1e-12:
            continue
        worst = max(worst, float(np.linalg.norm(evaluate_mean(op, x) - evaluate_mean(op, y))) / nrm)
    return worst


def estimate_strong_monotonicity(op: OperatorSpec, points: Sequence, step: float = 1e-6) -> float:
    """Smallest eigenvalue of the symmetrized numerical Jacobian of F.

    Random pair sampling cannot certify a zero modulus, so the audit
    minimizes the Rayleigh quotient exactly through an eigendecomposition of
    the finite-difference Jacobian at each base point.
    """
    worst = np.inf
    eye = np.eye(op.dim)
    for x in points:
        x = _check_point(x, op.dim)
        cols = []
        for j in range(op.dim):
            fp = evaluate_mean(op, x + step * eye[j])
            fm = evaluate_mean(op, x - step * eye[j])
            cols.append((fp - fm) / (2 * step))
        jac = np.column_stack(cols)
        sym = 0.5 * (jac + jac.T)
        worst = min(worst, float(np.linalg.eigvalsh(sym)[0]))
    if not np.isfinite(worst):
        raise EmptySample("no probe points supplied")
    return worst
