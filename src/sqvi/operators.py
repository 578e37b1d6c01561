"""Stochastic operator model: mean field, mini-batch sampling, audits.

An operator is a mapping F on R^n available through a closed-form mean
field, through a draw of the mean of a batch of stochastic samples, or both.
All randomness flows through seeded generator streams so that every batch
is a pure function of (point, batch size, stream).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySample,
    InvalidConstants,
    InvalidParameters,
    MissingMeanField,
)
from .sets import Array, _points, _vec

MeanEval = Callable[[Array], Array]
# batch_mean(x, rng, count) -> dim vector equal in law to the mean of `count` draws
BatchMean = Callable[[Array, np.random.Generator, int], Array]


@dataclass(frozen=True)
class OperatorSpec:
    """A mapping F with declared Lipschitz and quadratic-growth constants.

    Parameters
    ----------
    dim : ambient dimension n.
    lipschitz : L, a Lipschitz bound for F on the feasible region.
    qg_mu : quadratic-growth modulus of F relative to the solution set.
    mean_eval : closed-form F(x), when the expectation is available. It maps
        one point ``(dim,)`` or each row of a stack ``(..., dim)``, each row
        bit for bit as a lone call; the metrics evaluate a run's iterates
        as one stack, and the run raises InvalidParameters where its first
        row differs from the lone call at x0.
    batch_mean : draw of the mean of ``count`` stochastic samples G(x, xi_j);
        None for a noise-free operator.
    noise : declared sampling noise level, sqrt(E||G(x, xi) - F(x)||^2);
        0 for a noise-free operator.
    """

    dim: int
    lipschitz: float
    qg_mu: float
    mean_eval: Optional[MeanEval] = None
    batch_mean: Optional[BatchMean] = None
    noise: float = 0.0

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
    """A seed or a sequence of seeds as a tuple of ints, the key of a generator
    stream. Raises InvalidParameters for a part that is not an integer: a
    string, float, bool or None."""
    parts = stream if isinstance(stream, (tuple, list, np.ndarray)) else (stream,)
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, np.integer)):
            raise InvalidParameters(f"seeds must be integers, got {part!r}")
    return tuple(map(int, parts))


def evaluate_mean(op: OperatorSpec, x) -> Array:
    """Closed-form F(x) at one point, or at each row of a stack ``(..., dim)``.
    Raises MissingMeanField for sample-only operators."""
    x = _points(x, op.dim)
    if op.mean_eval is None:
        raise MissingMeanField("operator has no closed-form mean field")
    out = np.asarray(op.mean_eval(x), dtype=float)
    if out.shape != x.shape:
        raise DimensionMismatch(f"mean field returned shape {out.shape} for points of shape {x.shape}")
    return out


def sample_batch(op: OperatorSpec, x, n: int, stream: np.random.Generator) -> Array:
    """Mean of ``n`` fresh operator draws at ``x`` from the generator ``stream``.

    The draw advances ``stream``: a sampled run passes each call the
    generator of its phase, so consecutive calls draw consecutive batches.
    ``batch_mean`` must not keep the generator after the call. Deterministic
    in (x, n, stream): replaying the same triple, the generator at the same
    state, reproduces the batch bit for bit. Noise-free operators
    short-circuit to the mean field. ``n`` must be an integer >= 1 (a
    Python or numpy int), or InvalidParameters is raised.
    """
    x = _vec(x, op.dim, "point")
    if type(n) is not int or n < 1:  # one test on the common case
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidParameters(f"batch size must be an integer >= 1, got {n!r}")
    if op.batch_mean is None:
        return evaluate_mean(op, x)
    est = np.asarray(op.batch_mean(x, stream, n), dtype=float)
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
        return OperatorSpec(dim, lipschitz, qg_mu, mean_eval=mean_eval, noise=noise_level)
    coord_sd = noise_level / math.sqrt(dim)

    def _batch_mean(x, rng, count):
        return np.asarray(mean_eval(x)) + (coord_sd / math.sqrt(count)) * rng.standard_normal(dim)

    return OperatorSpec(
        dim=dim,
        lipschitz=lipschitz,
        qg_mu=qg_mu,
        mean_eval=mean_eval,
        batch_mean=_batch_mean,
        noise=noise_level,
    )


class MonotoneReport(NamedTuple):
    minimum: float
    passed: bool


def check_monotone(op: OperatorSpec, pairs: Sequence) -> MonotoneReport:
    """Minimum of <F(x)-F(y), x-y> over the supplied pairs; raises
    EmptySample when there are none."""
    pairs = list(pairs)
    if not pairs:
        raise EmptySample("no probe pairs supplied")
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
        x = _vec(x, op.dim, "point")
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
        x = _vec(x, op.dim, "point")
        y = _vec(y, op.dim, "point")
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
        x = _vec(x, op.dim, "point")
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
