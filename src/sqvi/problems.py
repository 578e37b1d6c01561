"""Benchmark problem instances.

Includes a synthetic translated-box QVI with a computable reference
solution, an over-parameterized regression game (bilevel generalized Nash
problem over a shared training objective), a coupled-constraint saddle
point toy, and a LIBSVM text loader for building game instances from
dataset files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import (
    ConstructionFailed,
    DimensionMismatch,
    EmptyFile,
    ParseError,
)
from .maps import (
    ArgminSet,
    ContractivityReport,
    FixedSet,
    NonlinearConvex,
    SetValuedMap,
    TranslatedSet,
    contractivity_audit,
    stacked_projector,
)
from .operators import (
    OperatorSpec,
    check_monotone,
    estimate_lipschitz,
    estimate_qg,
    gaussian_operator,
)
from .projection import reference_project
from .sets import Array, Box, ProductSet, SimpleSet

# ---------------------------------------------------------------------------
# instance containers


@dataclass(frozen=True)
class Constants:
    lipschitz: float
    qg_mu: float
    gamma: float
    noise: float


@dataclass(frozen=True, eq=False)
class RegressionGameData:
    """Raw data of a regression game instance."""

    players: int
    feature_dim: int
    train_matrix: Array  # (players*rows_per_player, players*feature_dim)
    train_rhs: Array
    validation: tuple  # per player: (A_i, b_i)
    radius: float
    regularization: float


@dataclass(frozen=True, eq=False)
class LowerLevelData:
    """Shared training objective and its precomputed constrained minimum."""

    value: Callable[[Array], float]
    min_value: float
    game: Optional[RegressionGameData] = None


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    name: str
    operator: OperatorSpec
    map: SetValuedMap
    ambient: SimpleSet
    x0: Array
    constants: Constants
    suggested_eta: float
    reference_projector: Optional[Callable[[Array], Array]] = None
    lower_level: Optional[LowerLevelData] = None
    metadata: dict = field(default_factory=dict)

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "dim": int(self.operator.dim),
            "constants": {
                "lipschitz": self.constants.lipschitz,
                "qg_mu": self.constants.qg_mu,
                "gamma": self.constants.gamma,
                "noise": self.constants.noise,
            },
            "suggested_eta": self.suggested_eta,
            "metadata": dict(self.metadata),
        }


class BlockBalls(SimpleSet):
    """Product of ``blocks`` origin-centered balls of equal radius, vectorized."""

    def __init__(self, blocks: int, block_dim: int, radius: float):
        if blocks < 1 or block_dim < 1:
            raise DimensionMismatch("blocks and block_dim must be >= 1")
        if not radius > 0:
            raise DimensionMismatch("radius must be positive")
        self.blocks = blocks
        self.block_dim = block_dim
        self.radius = radius

    @property
    def dim(self) -> int:
        return self.blocks * self.block_dim

    def _norms(self, y: Array) -> Array:
        return np.linalg.norm(y.reshape(self.blocks, self.block_dim), axis=1)

    def project(self, u: Array) -> Array:
        """Projection of one point, or of each row of a stack ``(..., dim)``."""
        u = np.asarray(u, dtype=float)
        mat = u.reshape(u.shape[:-1] + (self.blocks, self.block_dim))
        nrm = np.linalg.norm(mat, axis=-1)
        scale = np.where(nrm > self.radius, self.radius / np.maximum(nrm, 1e-300), 1.0)
        return (mat * scale[..., None]).reshape(u.shape)

    def contains(self, y: Array, tol: float = 0.0) -> bool:
        return bool(np.all(self._norms(np.asarray(y, float)) <= self.radius + tol))

    def anchor(self) -> Array:
        return np.zeros(self.dim)

    def diameter(self) -> float:
        return 2.0 * self.radius * math.sqrt(self.blocks)


# ---------------------------------------------------------------------------
# translated-box QVI


def make_translated_box_qvi(
    n: int = 20,
    shift_slope: float = 0.04,
    seed: int = 0,
    matrix: Optional[Array] = None,
    offset: Optional[Array] = None,
    box: Tuple[float, float] = (-1.0, 1.0),
    noise_level: float = 0.0,
) -> ProblemInstance:
    """Affine QVI over a box that translates with the iterate.

    The operator is F(x) = A x + c with A = I + S, S a random Gram matrix
    rescaled to spectral norm 0.25 (explicit ``matrix``/``offset`` override
    the generator). The constraint map is K(x) = shift_slope*x + box. The
    reference solution is the unique fixed point of the exact-projection
    step map, computed to 1e-13 and verified against the fixed-point
    optimality condition.
    """
    rng = np.random.default_rng((seed, 101))
    if matrix is not None:
        a_mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        if a_mat.shape != (n, n):
            raise DimensionMismatch(f"matrix has shape {a_mat.shape}, expected ({n},{n})")
        c_vec = (
            np.zeros(n)
            if offset is None
            else np.atleast_1d(np.asarray(offset, dtype=float))
        )
    else:
        m = rng.standard_normal((n, n)) / math.sqrt(n)
        gram = m.T @ m
        top = float(np.linalg.eigvalsh(gram)[-1])
        a_mat = np.eye(n) + (0.25 / max(top, 1e-12)) * gram
        target = rng.uniform(-1.5, 1.5, size=n) / max(1.0 - shift_slope, 1e-9)
        c_vec = -a_mat @ target
    sym = 0.5 * (a_mat + a_mat.T)
    eigs = np.linalg.eigvalsh(sym)
    mu = float(eigs[0])
    lip = float(np.linalg.norm(a_mat, 2))
    if mu <= 0:
        raise ConstructionFailed("generated operator is not strongly monotone")
    gamma = 2.0 * shift_slope
    side = gamma + math.sqrt(max(1.0 - (mu / lip) ** 2, 0.0))
    if side >= 1.0:
        raise ConstructionFailed(
            f"step-size condition violated: 2*shift_slope + sqrt(1 - (mu/L)^2) = {side:.4f} >= 1"
        )
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise ConstructionFailed("box must have lo < hi")
    base = Box(np.full(n, lo), np.full(n, hi))
    scale = 1.0 / (1.0 - shift_slope)
    ambient = Box(np.full(n, lo * scale), np.full(n, hi * scale))
    slope = shift_slope

    def shift(x):
        return slope * np.asarray(x, dtype=float)

    mapping = TranslatedSet(base_set=base, shift=shift, shift_lipschitz=shift_slope)

    def mean_eval(x):
        return a_mat @ x + c_vec

    op = gaussian_operator(
        mean_eval, dim=n, lipschitz=lip, qg_mu=mu, noise_level=noise_level
    )
    eta_star = mu / lip**2
    x_star = ambient.anchor()
    for _ in range(200000):
        step = mapping.exact_project(x_star, x_star - eta_star * mean_eval(x_star))
        delta = float(np.linalg.norm(step - x_star))
        x_star = step
        if delta <= 1e-13:
            break
    resid = float(
        np.linalg.norm(
            x_star - mapping.exact_project(x_star, x_star - eta_star * mean_eval(x_star))
        )
    )
    if resid > 1e-12:
        raise ConstructionFailed(f"reference fixed point did not converge (residual {resid:.2e})")
    solution = x_star.copy()

    return ProblemInstance(
        name=f"translated_box(n={n},slope={shift_slope},seed={seed})",
        operator=op,
        map=mapping,
        ambient=ambient,
        x0=ambient.anchor(),
        constants=Constants(lipschitz=lip, qg_mu=mu, gamma=gamma, noise=noise_level),
        suggested_eta=eta_star,
        reference_projector=lambda z: solution,
        metadata={
            "n": n,
            "shift_slope": shift_slope,
            "seed": seed,
            "noise_level": noise_level,
            "box": [lo, hi],
            "reference_residual": resid,
        },
    )


# ---------------------------------------------------------------------------
# regression game


@dataclass(frozen=True)
class SyntheticGame:
    """Generator knobs for the synthetic over-parameterized regression game.

    Each player owns a training shard of points*0.8/players rows over
    ``features`` columns (fewer rows than columns, so the per-player design
    is column-rank-deficient) plus a small dense cross-player coupling block
    scaled by ``coupling``.
    """

    players: int = 10
    points: int = 250
    features: int = 25
    seed: int = 1
    coupling: float = 0.02
    target_noise: float = 0.1


@dataclass(frozen=True)
class DatasetGame:
    path: str
    players: int


GameSource = Union[SyntheticGame, DatasetGame]


def load_libsvm(path) -> Tuple[Array, Array]:
    """Dense design matrix and target vector from a LIBSVM-format text file.

    Lines are "label idx:val idx:val ..." with 1-based strictly ascending
    indices; absent entries are zero. Raises ParseError with the offending
    line number, or EmptyFile for a file without data lines.
    """
    rows: List[dict] = []
    labels: List[float] = []
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"line {lineno}: bad label {parts[0]!r}") from None
            entries = {}
            prev = 0
            for tok in parts[1:]:
                if ":" not in tok:
                    raise ParseError(f"line {lineno}: expected idx:val, got {tok!r}")
                idx_str, val_str = tok.split(":", 1)
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad entry {tok!r}") from None
                if idx < 1:
                    raise ParseError(f"line {lineno}: index {idx} is not 1-based")
                if idx <= prev:
                    raise ParseError(f"line {lineno}: indices must be ascending ({idx} after {prev})")
                prev = idx
                entries[idx] = val
                max_idx = max(max_idx, idx)
            rows.append(entries)
            labels.append(label)
    if not rows:
        raise EmptyFile(f"{path}: no data lines")
    mat = np.zeros((len(rows), max_idx))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            mat[i, idx - 1] = val
    return mat, np.asarray(labels, dtype=float)


def _game_arrays(source: GameSource):
    """Training matrix, rhs, and per-player validation pairs for a game source."""
    if isinstance(source, SyntheticGame):
        players, points, feats = source.players, source.points, source.features
        rng = np.random.default_rng((source.seed, 202))
        design = rng.standard_normal((points, feats))
        targets = None
    else:
        design, targets = load_libsvm(source.path)
        players = source.players
        points, feats = design.shape
    if points < players:
        raise DimensionMismatch(f"dataset has {points} rows but {players} players")
    train_count = int(0.8 * points)
    rows_tr = train_count // players
    rows_val = (points - train_count) // players
    if rows_tr < 1 or rows_val < 1:
        raise DimensionMismatch(
            f"too few rows per player (train {rows_tr}, validation {rows_val})"
        )
    dim = players * feats
    a_tr = np.zeros((players * rows_tr, dim))
    b_tr = np.zeros(players * rows_tr)
    scale = 1.0 / math.sqrt(rows_tr)
    if isinstance(source, SyntheticGame):
        rng = np.random.default_rng((source.seed, 203))
        planted = rng.standard_normal((players, feats)) / math.sqrt(feats)
        for i in range(players):
            shard = design[i * rows_tr : (i + 1) * rows_tr] * scale
            a_tr[i * rows_tr : (i + 1) * rows_tr, i * feats : (i + 1) * feats] = shard
            if source.coupling > 0:
                cross = rng.standard_normal((rows_tr, dim)) * (source.coupling * scale)
                cross[:, i * feats : (i + 1) * feats] = 0.0
                a_tr[i * rows_tr : (i + 1) * rows_tr] += cross
        b_tr = a_tr @ planted.reshape(-1)
        b_tr += source.target_noise * scale * rng.standard_normal(b_tr.shape[0])
    else:
        for i in range(players):
            shard = design[i * rows_tr : (i + 1) * rows_tr] * scale
            a_tr[i * rows_tr : (i + 1) * rows_tr, i * feats : (i + 1) * feats] = shard
            b_tr[i * rows_tr : (i + 1) * rows_tr] = targets[i * rows_tr : (i + 1) * rows_tr] * scale
    validation = []
    val_start = train_count
    vscale = 1.0 / math.sqrt(rows_val)
    for i in range(players):
        sl = slice(val_start + i * rows_val, val_start + (i + 1) * rows_val)
        a_val = design[sl] * vscale
        if isinstance(source, SyntheticGame):
            rng_v = np.random.default_rng((source.seed, 204, i))
            b_val = a_val @ planted[i] + source.target_noise * vscale * rng_v.standard_normal(rows_val)
        else:
            b_val = targets[sl] * vscale
        validation.append((a_val, b_val))
    return players, feats, a_tr, b_tr, tuple(validation)


def _dykstra(project_a, project_b, z, iters=2000):
    x = np.asarray(z, dtype=float).copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        y = project_a(x + p)
        p = x + p - y
        x_new = project_b(y + q)
        q = y + q - x_new
        if np.linalg.norm(x_new - x) <= 1e-14:
            x = x_new
            break
        x = x_new
    return x


# probe points of the game's qg audit and (x, y, u) triples of its gamma audit
_AUDIT_PROBES = 64
_GAMMA_TRIPLES = 200
# triples drawn and projected per batch of the gamma audit: on table1-synthetic
# one batch of all 200 raised a run's peak memory from 47.6 to 54.1 MB, and
# chunks of 25 build as fast as larger ones (CHANGES.md has the measurements)
_AUDIT_BLOCK = 25


def make_regression_game(
    source: GameSource,
    lam: Optional[float] = None,
    sigma: float = 1e-2,
) -> ProblemInstance:
    """Bilevel generalized Nash regression game as a QVI.

    Each player i minimizes a validation loss over the set of minimizers of
    the shared training loss in its own block, within a ball of radius
    ``lam`` (chosen automatically to contain an interpolating solution when
    omitted). The operator stacks per-player validation-loss gradients; the
    constraint map is the product of per-player training-argmin sets,
    projected through a regularized surrogate with weight 1/``sigma``.
    """
    players, feats, a_tr, b_tr, validation = _game_arrays(source)
    dim = players * feats
    blocks = [a_tr[:, i * feats : (i + 1) * feats] for i in range(players)]
    grams_tr = np.stack([blk.T @ blk for blk in blocks])
    at_tensor = a_tr.T.reshape(players, feats, -1)  # (players, feats, rows), a view, not a copy of a_tr
    eig_vals, eig_vecs = np.linalg.eigh(grams_tr)  # (players, feats), (players, feats, feats)

    x_interp, *_ = np.linalg.lstsq(a_tr, b_tr, rcond=None)
    block_norms = np.linalg.norm(x_interp.reshape(players, feats), axis=1)
    if lam is None:
        lam = 1.5 * float(np.max(block_norms)) + 1e-6
    elif float(np.max(block_norms)) > lam:
        raise ConstructionFailed(
            f"radius {lam} excludes the interpolating solution (max block norm "
            f"{float(np.max(block_norms)):.4g})"
        )
    feasible = BlockBalls(players, feats, lam)

    grams_val = np.stack([a.T @ a for a, _ in validation])
    rhs_val = np.stack([a.T @ b for a, b in validation])
    lip = float(max(np.linalg.eigvalsh(g)[-1] for g in grams_val))

    def mean_eval(x):
        xm = x.reshape(players, feats)
        return (np.einsum("pfg,pg->pf", grams_val, xm) - rhs_val).reshape(-1)

    def train_value(x):
        r = a_tr @ x - b_tr
        return 0.5 * float(r @ r)

    min_value = train_value(x_interp)

    # best-response objective: sum over players of the training loss with
    # only player i's block replaced by y_i
    def map_objective(x, y):
        base = a_tr @ x - b_tr
        xm = x.reshape(players, feats)
        ym = y.reshape(players, feats)
        total = 0.0
        for i in range(players):
            r = base + blocks[i] @ (ym[i] - xm[i])
            total += 0.5 * float(r @ r)
        return total

    def _block_residual_grads(x):
        # per player: A_i^T (base - A_i x_i) precomputed once per projection,
        # for one point or each row of a stack (..., dim); on one point
        # x @ a_tr.T runs the same matrix-vector product as a_tr @ x
        base = x @ a_tr.T - b_tr
        xm = x.reshape(x.shape[:-1] + (players, feats))
        return np.einsum("pfr,...r->...pf", at_tensor, base) - np.einsum("pfg,...pg->...pf", grams_tr, xm)

    def map_grad(x):
        cross = _block_residual_grads(x)

        def grad(y):
            ym = y.reshape(players, feats)
            return (np.einsum("pfg,pg->pf", grams_tr, ym) + cross).reshape(-1)

        return grad

    curvature = float(np.max(eig_vals))

    def exact_reg_project(x, u):
        # Per-player ridge solve in the eigenbasis of A_i^T A_i, all players at
        # once. A block whose unconstrained solution leaves the ball takes the
        # multiplier theta >= 0 that solves the secular equation
        # phi(theta) = 1/||y(theta)|| - 1/lam = 0, y(theta) = rhs / (denom + theta).
        # phi is concave and increasing, so Newton's method from theta = 0
        # rises monotonically to the root (More & Sorensen 1983). x and u are
        # one point each or stacks (..., dim); one Newton loop serves every
        # active (point, player) row.
        w = 1.0 / sigma
        u = np.asarray(u, dtype=float)
        um = u.reshape(u.shape[:-1] + (players, feats))
        rhs = np.einsum("pgf,...pg->...pf", eig_vecs, um - w * _block_residual_grads(x))
        denom = 1.0 + w * eig_vals
        active = np.sum((rhs / denom) ** 2, axis=-1) > lam * lam
        r2, d = rhs[active] ** 2, np.broadcast_to(denom, rhs.shape)[active]
        th = np.zeros((r2.shape[0], 1))
        for _ in range(100):
            norm2 = np.sum(r2 / (d + th) ** 2, axis=1, keepdims=True)
            norm = np.sqrt(norm2)
            slope = np.sum(r2 / (d + th) ** 3, axis=1, keepdims=True)
            th = th + (norm - lam) / lam * norm2 / slope
            if np.all(norm - lam <= 1e-14 * lam):
                break
        else:
            raise ConstructionFailed("secular equation did not converge")
        theta = np.zeros(rhs.shape[:-1] + (1,))
        theta[active] = th
        return np.einsum("pfg,...pg->...pf", eig_vecs, rhs / (denom + theta)).reshape(u.shape)

    mapping = ArgminSet(
        feasible=feasible,
        objective=map_objective,
        grad=map_grad,
        curvature=curvature,
        regularization=sigma,
        gamma=0.0,
        exact_reg_project=exact_reg_project,
    )

    pinv_tr = np.linalg.pinv(a_tr)

    def reference_projector(z):
        z = np.asarray(z, dtype=float)
        affine = lambda v: v - pinv_tr @ (a_tr @ v - b_tr)
        cand = affine(z)
        if feasible.contains(cand, 1e-9):
            return cand
        return _dykstra(affine, feasible.project, z)

    seed = source.seed if isinstance(source, SyntheticGame) else 7
    rng = np.random.default_rng((seed, 205))
    probe_scale = 0.5 * lam / math.sqrt(feats)
    op_plain = OperatorSpec(dim=dim, lipschitz=lip, qg_mu=lip, mean_eval=mean_eval)
    probes = feasible.project(probe_scale * rng.standard_normal((_AUDIT_PROBES, dim)))
    qg_hat = estimate_qg(op_plain, reference_projector, probes)
    qg_mu = max(min(0.9 * qg_hat, lip), 1e-8)
    operator = OperatorSpec(dim=dim, lipschitz=lip, qg_mu=qg_mu, mean_eval=mean_eval)

    def triple_batches():
        # drawn as the audit reads them, _AUDIT_BLOCK triples at a time; the
        # generator yields the numbers of one (_GAMMA_TRIPLES, 3, dim) draw
        for start in range(0, _GAMMA_TRIPLES, _AUDIT_BLOCK):
            batch = probe_scale * rng.standard_normal((min(_AUDIT_BLOCK, _GAMMA_TRIPLES - start), 3, dim))
            batch[:, :2] = feasible.project(batch[:, :2])
            yield batch

    audit = contractivity_audit(mapping, exact_reg_project, triple_batches(), declared=np.inf)
    gamma = 1.5 * audit.max_ratio + 1e-9
    mapping = replace(mapping, gamma=gamma)

    game = RegressionGameData(
        players=players,
        feature_dim=feats,
        train_matrix=a_tr,
        train_rhs=b_tr,
        validation=validation,
        radius=lam,
        regularization=sigma,
    )
    src_tag = (
        f"synthetic(seed={source.seed})" if isinstance(source, SyntheticGame) else f"dataset({source.path})"
    )
    return ProblemInstance(
        name=f"regression_game[{src_tag},N={players},d={feats}]",
        operator=operator,
        map=mapping,
        ambient=feasible,
        x0=feasible.anchor(),
        constants=Constants(lipschitz=lip, qg_mu=qg_mu, gamma=gamma, noise=0.0),
        suggested_eta=1e-2,
        reference_projector=reference_projector,
        lower_level=LowerLevelData(value=train_value, min_value=min_value, game=game),
        metadata={
            "players": players,
            "feature_dim": feats,
            "radius": lam,
            "regularization": sigma,
            "qg_audit": qg_hat,
            "gamma_audit": audit.max_ratio,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# coupled saddle point


@dataclass(frozen=True, eq=False)
class QuadraticPayoff:
    """Payoff 0.5 u'Pu + u'Rw - 0.5 w'Qw + p'u + q'w (convex in u, concave in w)."""

    P: Array
    Q: Array
    R: Array
    p: Array
    q: Array

    def __post_init__(self):
        for name in ("P", "Q", "R"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), float)))
        for name in ("p", "q"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), float)))


@dataclass(frozen=True, eq=False)
class LinearCoupling:
    """Shared constraint a_u' u + a_w' w <= c."""

    a_u: Array
    a_w: Array
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a_u", np.atleast_1d(np.asarray(self.a_u, float)))
        object.__setattr__(self, "a_w", np.atleast_1d(np.asarray(self.a_w, float)))


def make_coupled_sp(
    payoff: QuadraticPayoff,
    coupling: Optional[LinearCoupling] = None,
    u_box: Tuple[float, float] = (-1.0, 1.0),
    w_box: Tuple[float, float] = (-1.0, 1.0),
) -> ProblemInstance:
    """Saddle-point game with an optional shared linear coupling constraint.

    The stacked first-order operator is [grad_u payoff; -grad_w payoff]; the
    constraint map fixes the opponent block inside the coupling inequality.
    A shared constraint can make the solutions a continuum (Facchinei &
    Kanzow 2007), so no instance carries a reference solution set:
    ``reference_projector`` is None and runs are judged by the natural
    residual.
    """
    nu = payoff.P.shape[0]
    nw = payoff.Q.shape[0]
    if payoff.R.shape != (nu, nw):
        raise ConstructionFailed(f"R has shape {payoff.R.shape}, expected ({nu},{nw})")
    if float(np.linalg.eigvalsh(0.5 * (payoff.P + payoff.P.T))[0]) < -1e-10:
        raise ConstructionFailed("payoff is not convex in u")
    if float(np.linalg.eigvalsh(0.5 * (payoff.Q + payoff.Q.T))[0]) < -1e-10:
        raise ConstructionFailed("payoff is not concave in w")
    mat = np.block([[payoff.P, payoff.R], [-payoff.R.T, payoff.Q]])
    off = np.concatenate([payoff.p, -payoff.q])
    dim = nu + nw

    def mean_eval(x):
        return mat @ x + off

    lip = float(np.linalg.norm(mat, 2))
    mu = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
    boxes = ProductSet(
        (
            Box(np.full(nu, float(u_box[0])), np.full(nu, float(u_box[1]))),
            Box(np.full(nw, float(w_box[0])), np.full(nw, float(w_box[1]))),
        )
    )
    operator = OperatorSpec(dim=dim, lipschitz=lip, qg_mu=max(mu, 1e-12), mean_eval=mean_eval)

    if coupling is None:
        mapping: SetValuedMap = FixedSet(boxes)
        gamma = 0.0
    else:
        a_u, a_w, cc = coupling.a_u, coupling.a_w, coupling.c
        if a_u.shape != (nu,) or a_w.shape != (nw,):
            raise ConstructionFailed("coupling vectors do not match block dimensions")

        def constraint(x, y):
            return np.array(
                [
                    float(a_u @ y[:nu]) + float(a_w @ x[nu:]) - cc,
                    float(a_u @ x[:nu]) + float(a_w @ y[nu:]) - cc,
                ]
            )

        jac_rows = np.zeros((2, dim))
        jac_rows[0, :nu] = a_u
        jac_rows[1, nu:] = a_w

        def jacobian(x, y):
            return jac_rows

        gamma = float(np.linalg.norm(a_w) / max(np.linalg.norm(a_u), 1e-12))
        gamma = max(gamma, float(np.linalg.norm(a_u) / max(np.linalg.norm(a_w), 1e-12)))
        mapping = NonlinearConvex(
            ambient=boxes,
            constraint=constraint,
            jacobian=jacobian,
            gamma=gamma,
            jacobian_bound=float(np.linalg.norm(jac_rows, 2)),
        )

    return ProblemInstance(
        name=f"coupled_sp(nu={nu},nw={nw},coupled={coupling is not None})",
        operator=operator,
        map=mapping,
        ambient=boxes,
        x0=boxes.anchor(),
        constants=Constants(lipschitz=lip, qg_mu=max(mu, 1e-12), gamma=gamma, noise=0.0),
        suggested_eta=0.5,
        metadata={"nu": nu, "nw": nw, "coupled": coupling is not None},
    )


# ---------------------------------------------------------------------------
# audits and presets


class InstanceAudit(NamedTuple):
    monotone_min: float
    lipschitz_ratio: float
    gamma_report: Optional[ContractivityReport]
    x0_feasible: bool


def audit_instance(problem: ProblemInstance, probes: int = 1000, seed: int = 0) -> InstanceAudit:
    """Empirical checks of the declared constants on random feasible probes."""
    rng = np.random.default_rng((seed, 301))
    dim = problem.operator.dim
    anchor = problem.ambient.anchor()
    spread = problem.ambient.diameter()
    if not np.isfinite(spread):
        spread = 4.0
    pts = [
        problem.ambient.project(anchor + 0.5 * spread * rng.standard_normal(dim) / math.sqrt(dim))
        for _ in range(probes)
    ]
    pairs = list(zip(pts[::2], pts[1::2]))
    mono = check_monotone(problem.operator, pairs)
    lip = estimate_lipschitz(problem.operator, pairs)
    gamma_rep = None
    if not isinstance(problem.map, FixedSet):
        triples = [
            (pts[3 * i % len(pts)], pts[(3 * i + 1) % len(pts)], pts[(3 * i + 2) % len(pts)])
            for i in range(min(200, probes // 3))
        ]
        gamma_rep = contractivity_audit(
            problem.map,
            stacked_projector(lambda x, u: reference_project(problem.map, x, u, budget=4000)),
            [np.reshape(triples, (-1, 3, dim))],
        )
    return InstanceAudit(
        monotone_min=mono.minimum,
        lipschitz_ratio=lip,
        gamma_report=gamma_rep,
        x0_feasible=problem.ambient.contains(problem.x0, 1e-10),
    )


#: tuned partial run configurations for the regression-game experiments;
#: the keys of a config that names one override its keys
PRESETS = {
    "table1-synthetic": {
        "problem": "regression_game",
        "problem_params": {"source": "synthetic", "players": 10, "points": 250, "features": 25, "seed": 1,
                           "sigma": 1e-2},
        "eta": 1e-2, "alpha": 9e-1, "b": 12e-1, "schedule": "damped", "allow_out_of_range": True,
    },
    "table1-eunite2001": {
        "problem": "regression_game",
        "problem_params": {"source": "dataset", "players": 4, "sigma": 1e-1},
        "eta": 3e-1, "alpha": 5e-1, "b": 5e-1, "schedule": "damped", "allow_out_of_range": True,
    },
    "table1-triazines": {
        "problem": "regression_game",
        "problem_params": {"source": "dataset", "players": 6, "sigma": 1e0},
        "eta": 5e-2, "alpha": 1e-1, "b": 1e-1, "schedule": "damped", "allow_out_of_range": True,
    },
}


def build_problem(kind: str, params: Optional[dict] = None) -> ProblemInstance:
    """Problem factory used by the run configuration layer."""
    params = dict(params or {})
    if kind == "translated_box":
        return make_translated_box_qvi(**params)
    if kind == "regression_game":
        src_kind = params.pop("source", "synthetic")
        sigma = params.pop("sigma", 1e-2)
        lam = params.pop("lam", None)
        if src_kind == "synthetic":
            source: GameSource = SyntheticGame(**params)
        elif src_kind == "dataset":
            source = DatasetGame(**params)
        else:
            raise ConstructionFailed(f"unknown game source {src_kind!r}")
        return make_regression_game(source, lam=lam, sigma=sigma)
    if kind == "coupled_sp":
        payoff = QuadraticPayoff(
            P=params.get("P", [[1.0]]),
            Q=params.get("Q", [[1.0]]),
            R=params.get("R", [[1.0]]),
            p=params.get("p", [0.0]),
            q=params.get("q", [0.0]),
        )
        coupling = None
        if "coupling" in params and params["coupling"] is not None:
            cp = params["coupling"]
            coupling = LinearCoupling(a_u=cp["a_u"], a_w=cp["a_w"], c=float(cp["c"]))
        return make_coupled_sp(
            payoff,
            coupling,
            u_box=tuple(params.get("u_box", (-1.0, 1.0))),
            w_box=tuple(params.get("w_box", (-1.0, 1.0))),
        )
    raise ConstructionFailed(f"unknown problem kind {kind!r}")
