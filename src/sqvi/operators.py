"""Stochastic operator model: mean field, mini-batch sampling, audits.

An operator is a mapping F on R^n available through a closed-form mean
field, through a draw of the mean of a batch of stochastic samples, or both.
All randomness flows through seeded generator streams so that every batch
is a pure function of (point, batch size, stream).

A sampled run draws from the streams ``prefix + (k, phase)``, and
:class:`SampleStreams` seeds all of them at once: numpy's SeedSequence hash
uses constants that do not depend on the data, so one pass of uint32 array
ops hashes every key, and PCG64 seeding is two 128-bit LCG steps. Each
stream starts from the state ``np.random.default_rng(key)`` starts from, bit
for bit; the table checks its first state against numpy's own PCG64 and
raises on a mismatch, so a numpy release that seeds differently fails
loudly instead of moving every trace.
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


# numpy's SeedSequence hash over a pool of four uint32 words (NEP 19), and
# the multiplier of PCG64's 128-bit LCG
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uint32_words(part: int) -> list:
    """The little-endian uint32 words SeedSequence reads from an int (0 is
    one word); raises ValueError for a negative int, as numpy does."""
    if part < 0:
        raise ValueError(f"expected non-negative integer, got {part}")
    return [part >> shift & _MASK32 for shift in range(0, max(part.bit_length(), 1), 32)]


def _hash_constants(init: int, mult: int, count: int) -> Array:
    """The successive hash constants init * mult**j (mod 2**32), j < count, as a column."""
    return np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in range(count)], dtype=np.uint32)[:, None]


def _hashmix(values: Array, consts: Array) -> Array:
    # one SeedSequence hash per row of consts[:-1]: xor with the row's
    # constant, multiply by the next one
    out = (values ^ consts[:-1]) * consts[1:]
    return out ^ (out >> 16)


def _mix(x: Array, y: Array) -> Array:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


class SampleStreams:
    """The generators ``np.random.default_rng(prefix + (k, phase))`` for
    every k < count and phase in (0, 1), seeded in one vectorized pass.

    ``generator(k, phase)`` positions one reused PCG64 at the start of that
    stream and returns its Generator, so the previous stream's generator
    must not be drawn from afterwards. Raises ValueError for a negative
    prefix part, and RuntimeError if the first state differs from the one
    numpy seeds itself.
    """

    def __init__(self, prefix: tuple, count: int):
        prefix_words = [word for part in prefix for word in _uint32_words(part)]
        keys = np.arange(2 * count)
        entropy = np.empty((len(prefix_words) + 2, keys.size), dtype=np.uint32)
        entropy[:-2] = np.array(prefix_words, dtype=np.uint32)[:, None]
        entropy[-2], entropy[-1] = keys // 2, keys % 2
        # 4 initial hashes, 3 per mixing source, 4 per word beyond the pool
        hash_a = _hash_constants(_INIT_A, _MULT_A, _POOL * max(len(entropy), _POOL) + 1)
        pool = np.zeros((_POOL, keys.size), dtype=np.uint32)
        pool[: len(entropy)] = entropy[:_POOL]
        pool = _hashmix(pool, hash_a[: _POOL + 1])
        used = _POOL
        for src in range(_POOL):
            dst = [i for i in range(_POOL) if i != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a[used : used + _POOL]))
            used += _POOL - 1
        for word in entropy[_POOL:]:
            pool = _mix(pool, _hashmix(word, hash_a[used : used + _POOL + 1]))
            used += _POOL
        # generate_state(4, uint64): eight words read cyclically from the pool
        words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 9))
        seeds = words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << 32
        self._states = []
        for hi_state, lo_state, hi_seq, lo_seq in zip(*seeds.tolist()):
            inc = ((hi_seq << 64 | lo_seq) << 1 | 1) & _MASK128
            state = ((inc + (hi_state << 64 | lo_state)) * _PCG_MULT + inc) & _MASK128
            self._states.append((state, inc))
        first = tuple(prefix) + (0, 0)
        self._bits = np.random.PCG64(first)
        self._generator = np.random.Generator(self._bits)
        expected = self._bits.state["state"]
        if (expected["state"], expected["inc"]) != self._states[0]:
            raise RuntimeError(f"SampleStreams seeds {first} differently from numpy {np.__version__}")

    def generator(self, k: int, phase: int) -> np.random.Generator:
        state, inc = self._states[2 * k + phase]
        self._bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
        return self._generator


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


def sample_batch(op: OperatorSpec, x, n: int, stream) -> Array:
    """Mean of ``n`` fresh operator draws at ``x`` from ``stream``.

    ``stream`` is a key (see :func:`stream_key`), seeded as
    ``np.random.default_rng(key)``, or a generator already positioned at its
    stream, such as :meth:`SampleStreams.generator` returns, which is used
    as given. ``batch_mean`` must not keep the generator after the call.
    Deterministic in (x, n, stream): replaying the same triple reproduces
    the batch bit for bit. Noise-free operators short-circuit to the mean
    field.
    """
    x = _vec(x, op.dim, "point")
    if n < 1:
        raise DimensionMismatch("batch size must be >= 1")
    if op.batch_mean is None:
        return evaluate_mean(op, x)
    if isinstance(stream, np.random.Generator):
        rng = stream
    else:
        rng = np.random.default_rng(stream_key(stream))
    est = np.asarray(op.batch_mean(x, rng, n), dtype=float)
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
