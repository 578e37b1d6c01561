"""Benchmark problem instances.

Includes a synthetic translated-box QVI with a computable reference
solution, an over-parameterized regression game (bilevel generalized Nash
problem over a shared training objective), a coupled-constraint saddle
point toy, and a LIBSVM text loader for building game instances from
dataset files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import (
    ConstructionFailed,
    DimensionMismatch,
    EmptyFile,
    InvalidParameters,
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
)
from .operators import (
    OperatorSpec,
    check_monotone,
    estimate_lipschitz,
    # unused here: perfbench's tracer patches sqvi.problems.estimate_qg by
    # name and fails to install, failing every traced run, when it is missing
    estimate_qg,
    gaussian_operator,
)
from .projection import reference_project
from .sets import Array, BlockBalls, Box, SimpleSet, squared_norms

# ---------------------------------------------------------------------------
# instance containers


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
    """Shared training objective and its precomputed constrained minimum.
    ``value`` takes one point or a stack ``(..., dim)``, one value per row."""

    value: Callable[[Array], float]
    min_value: float
    game: Optional[RegressionGameData] = None


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A QVI instance. Its declared constants have one owner each: the
    operator's ``lipschitz``, ``qg_mu`` and ``noise``, and the map's
    ``gamma``; the parameter algebra and ``manifest()`` read them there."""

    name: str
    operator: OperatorSpec
    map: SetValuedMap
    ambient: SimpleSet
    x0: Array
    suggested_eta: float
    # maps one point, or each row of a stack (..., dim), to its nearest
    # solution; a run whose stack's first row differs from the lone call's
    # bits raises InvalidParameters
    reference_projector: Optional[Callable[[Array], Array]] = None
    lower_level: Optional[LowerLevelData] = None
    metadata: dict = field(default_factory=dict)

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "dim": int(self.operator.dim),
            "constants": {"lipschitz": self.operator.lipschitz, "qg_mu": self.operator.qg_mu,
                          "gamma": self.map.gamma, "noise": self.operator.noise},
            "suggested_eta": self.suggested_eta,
            "metadata": dict(self.metadata),
        }


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
    rescaled to spectral norm 0.25, and c = -A z for a random target z. An
    explicit ``matrix`` (n, n) replaces A and sets c = 0; an explicit
    ``offset`` (n,) replaces c, with or without ``matrix``. The constraint
    map is K(x) = shift_slope*x + box. The reference solution is the unique fixed point of the exact-projection
    step map, computed to 1e-13 and verified against the fixed-point
    optimality condition.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ConstructionFailed(f"n must be an integer >= 1, got {n!r}")
    rng = np.random.default_rng((seed, 101))
    if matrix is not None:
        a_mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        if a_mat.shape != (n, n):
            raise DimensionMismatch(f"matrix has shape {a_mat.shape}, expected ({n},{n})")
        c_vec = np.zeros(n)
    else:
        m = rng.standard_normal((n, n)) / math.sqrt(n)
        gram = m.T @ m
        top = float(np.linalg.eigvalsh(gram)[-1])
        a_mat = np.eye(n) + (0.25 / max(top, 1e-12)) * gram
        target = rng.uniform(-1.5, 1.5, size=n) / max(1.0 - shift_slope, 1e-9)
        c_vec = -a_mat @ target
    if offset is not None:
        c_vec = np.atleast_1d(np.asarray(offset, dtype=float))
        if c_vec.shape != (n,):
            raise DimensionMismatch(f"offset has shape {c_vec.shape}, expected ({n},)")
    sym = 0.5 * (a_mat + a_mat.T)
    eigs = np.linalg.eigvalsh(sym)
    mu = float(eigs[0])
    lip = float(np.linalg.norm(a_mat, 2))
    if mu <= 0:
        raise ConstructionFailed("generated operator is not strongly monotone")
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise ConstructionFailed("box must have lo < hi")
    slope = shift_slope

    def shift(x):
        return slope * np.asarray(x, dtype=float)

    base = Box(np.full(n, lo), np.full(n, hi))
    mapping = TranslatedSet(base_set=base, shift=shift, shift_lipschitz=shift_slope)
    side = mapping.gamma + math.sqrt(max(1.0 - (mu / lip) ** 2, 0.0))
    if side >= 1.0:
        raise ConstructionFailed(
            f"step-size condition violated: gamma + sqrt(1 - (mu/L)^2) = {side:.4f} >= 1"
        )
    scale = 1.0 / (1.0 - shift_slope)
    ambient = Box(np.full(n, lo * scale), np.full(n, hi * scale))

    def mean_eval(x):
        # one matrix-vector product per row, the one a lone a_mat @ x takes
        return np.matmul(a_mat, x[..., None])[..., 0] + c_vec

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


def _split_game(design: Array, players: int):
    """Block-diagonal training matrix, its scale, and per player the
    validation rows and their scaled design, then the validation scale.

    The first 80 % of the design rows train and the rest validate; each
    player gets an equal share of both, scaled by 1/sqrt(its share)."""
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
    a_tr = np.zeros((players * rows_tr, players * feats))
    scale = 1.0 / math.sqrt(rows_tr)
    for i in range(players):
        shard = design[i * rows_tr : (i + 1) * rows_tr] * scale
        a_tr[i * rows_tr : (i + 1) * rows_tr, i * feats : (i + 1) * feats] = shard
    val_rows = [slice(train_count + i * rows_val, train_count + (i + 1) * rows_val) for i in range(players)]
    vscale = 1.0 / math.sqrt(rows_val)
    return a_tr, scale, val_rows, [design[sl] * vscale for sl in val_rows], vscale


def _game_arrays(source: GameSource):
    """A game source's name tag and metadata, then its training matrix, rhs,
    and per-player validation pairs.

    A synthetic game draws its design from the stream (seed, 202), its
    planted weights, cross-player coupling and training noise from (seed,
    203), and player i's validation noise from (seed, 204, i); a dataset
    game reads design and targets from its file.
    """
    players = source.players
    if not (isinstance(players, (int, np.integer)) and players >= 1):
        raise ConstructionFailed(f"players must be an integer >= 1, got {players!r}")
    if isinstance(source, SyntheticGame):
        tag, origin = f"synthetic(seed={source.seed})", {"seed": source.seed}
        feats = source.features
        design = np.random.default_rng((source.seed, 202)).standard_normal((source.points, feats))
        a_tr, scale, _, a_val, vscale = _split_game(design, players)
        rows_tr = a_tr.shape[0] // players
        rng = np.random.default_rng((source.seed, 203))
        planted = rng.standard_normal((players, feats)) / math.sqrt(feats)
        if source.coupling > 0:
            for i in range(players):
                cross = rng.standard_normal((rows_tr, a_tr.shape[1])) * (source.coupling * scale)
                cross[:, i * feats : (i + 1) * feats] = 0.0
                a_tr[i * rows_tr : (i + 1) * rows_tr] += cross
        b_tr = a_tr @ planted.reshape(-1)
        b_tr += source.target_noise * scale * rng.standard_normal(b_tr.shape[0])
        b_val = []
        for i, a in enumerate(a_val):
            rng_v = np.random.default_rng((source.seed, 204, i))
            b_val.append(a @ planted[i] + source.target_noise * vscale * rng_v.standard_normal(a.shape[0]))
    else:
        tag, origin = f"dataset({source.path})", {}
        design, targets = load_libsvm(source.path)
        feats = design.shape[1]
        a_tr, scale, val_rows, a_val, vscale = _split_game(design, players)
        b_tr = targets[: a_tr.shape[0]] * scale
        b_val = [targets[sl] * vscale for sl in val_rows]
    return tag, origin, players, feats, a_tr, b_tr, tuple(zip(a_val, b_val))


def _min_norm_solution(a: Array, b: Array) -> Array:
    """The minimum-norm least-squares solution. Where a has no more rows
    than columns it is a' solve(a a', b), in the row space of a, so a zero
    residual certifies it; ``lstsq`` serves a taller a, where a a' is
    singular, and a wide one with no interpolant or an exactly singular a a'."""
    if a.shape[0] <= a.shape[1]:
        try:
            x = a.T @ np.linalg.solve(a @ a.T, b)
            if np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b):
                return x
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(a, b, rcond=None)[0]


def make_regression_game(
    source: GameSource,
    lam: Optional[float] = None,
    sigma: float = 1e-2,
) -> ProblemInstance:
    """Bilevel generalized Nash regression game as a QVI.

    Each player i minimizes a validation loss over the set of minimizers of
    the shared training loss in its own block, within a ball of radius
    ``lam``, 1.5 times the largest block norm of the minimum-norm training
    fit when omitted (see :func:`_min_norm_solution`; the fit also sets the
    training minimum). The operator stacks per-player validation-loss
    gradients; the constraint map is the product of per-player
    training-argmin sets.

    The run solves the sigma-surrogate of that map: projecting u onto K(x)
    minimizes 0.5||y - u||^2 plus 1/``sigma`` times the training loss over
    the balls. The solver, the ``residual`` metric and the declared gamma all
    use this surrogate. The QVI's solution set is not known in closed form,
    so the instance has no ``reference_projector``, offers no ``dist``
    metric and declares ``qg_mu = 0`` (merely monotone); ``lower_subopt``
    measures the training loss against its minimum.

    The declared gamma is a certified bound. The surrogate's solution is the
    projection of M^-1 c onto the balls in the M-norm, with M = I + H/sigma,
    c = u - linear(x)/sigma and linear(x) = D x - A'b, where D is A'A with
    its diagonal blocks zeroed. That projection is nonexpansive in the
    M-norm and M >= I, so gamma = ||M^-1/2 D|| / sigma bounds the map's
    slope in x (a dataset game's block-diagonal A gives D = 0 and gamma 0).

    D and A'b are formed once per built game, so linear(x) is one
    matrix-vector product per point and gamma reads the same D. D is a dense
    (dim, dim) array: 500 kB at the table1-synthetic preset's dim 250.
    """
    if not sigma > 0:
        raise ConstructionFailed(f"sigma must be positive, got {sigma!r}")
    tag, origin, players, feats, a_tr, b_tr, validation = _game_arrays(source)
    dim = players * feats
    # player i's training columns, transposed: (players, feats, rows)
    cols = a_tr.reshape(-1, players, feats).transpose(1, 2, 0)
    grams_tr = np.stack([c @ c.T for c in cols])

    x_interp = _min_norm_solution(a_tr, b_tr)
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
    lip = float(np.max(np.linalg.eigvalsh(grams_val)[:, -1]))

    def mean_eval(x):
        xm = x.reshape(x.shape[:-1] + (players, feats))
        return (np.einsum("pfg,...pg->...pf", grams_val, xm) - rhs_val).reshape(x.shape)

    def train_value(x):
        r = np.matmul(a_tr, x[..., None])[..., 0] - b_tr
        return 0.5 * squared_norms(r)

    min_value = float(train_value(x_interp))

    # D = A'A with its diagonal blocks zeroed, and A'b, held once. Block
    # (i, j) of D is A_i'A_j, one small product per pair i < j, mirrored:
    # OpenBLAS runs each on one thread at the presets' sizes, while one A'A
    # product splits over threads and moves D's last bits with their count
    coupling = np.zeros((dim, dim))
    grid = coupling.reshape(players, feats, players, feats)
    for i in range(players):
        for j in range(i + 1, players):
            grid[i, :, j] = cols[i] @ cols[j].T
            grid[j, :, i] = grid[i, :, j].T
    rhs_tr = a_tr.T @ b_tr

    def _block_residual_grads(x):
        # the training loss's gradient in y at y = 0 with player i's block of x
        # replaced by y_i: D x - A'b, for one point or each row of a stack
        # (..., dim); one matrix-vector product per row, so each row is bit
        # for bit a lone call's
        return np.matmul(coupling, x[..., None])[..., 0] - rhs_tr

    # ||M^-1/2 D|| is ||L^-1 D|| with M = LL' (L^-1 M^1/2 is orthogonal); L^-1
    # is block diagonal, so it acts on D one block row per player
    chol_inv = np.linalg.inv(np.linalg.cholesky(np.eye(feats) + grams_tr / sigma))
    s = (chol_inv @ coupling.reshape(players, feats, dim)).reshape(dim, dim)
    gamma = math.sqrt(max(float(np.linalg.eigvalsh(s @ s.T)[-1]), 0.0)) / sigma
    mapping = ArgminSet(
        feasible=feasible,
        hessian=grams_tr,
        linear=_block_residual_grads,
        regularization=sigma,
        gamma=gamma,
    )
    operator = OperatorSpec(dim=dim, lipschitz=lip, qg_mu=0.0, mean_eval=mean_eval)

    game = RegressionGameData(
        players=players,
        feature_dim=feats,
        train_matrix=a_tr,
        train_rhs=b_tr,
        validation=validation,
        radius=lam,
        regularization=sigma,
    )
    return ProblemInstance(
        name=f"regression_game[{tag},N={players},d={feats}]",
        operator=operator,
        map=mapping,
        ambient=feasible,
        x0=feasible.anchor(),
        suggested_eta=1e-2,
        lower_level=LowerLevelData(value=train_value, min_value=min_value, game=game),
        metadata=dict(origin, players=players, feature_dim=feats, radius=lam, regularization=sigma),
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
        object.__setattr__(self, "c", float(self.c))


def _box_ends(name: str, ends) -> Tuple[float, float]:
    try:
        lo, hi = map(float, ends)
    except (TypeError, ValueError):
        raise ConstructionFailed(f"{name} must be two numbers lo <= hi, got {ends!r}") from None
    if not lo <= hi:
        raise ConstructionFailed(f"{name} must be two numbers lo <= hi, got {ends!r}")
    return lo, hi


def _check_coupled_sets(box: Box, jac: Array, c: float, x0: Array) -> None:
    """Raise ConstructionFailed where the shared set {y in box : a_u.u + a_w.w
    <= c} or K(x0) is empty. Over the box, a linear form a.y is smallest at
    the sum of min(a_i lo_i, a_i hi_i); row 0 of ``jac`` is a_u on the
    u-block, row 1 a_w on the w-block."""
    lowest = np.minimum(jac * box.lo, jac * box.hi).sum(axis=1)
    shared = float(lowest.sum())
    if shared > c:
        raise ConstructionFailed(
            f"the shared set {{y in box : a_u.u + a_w.w <= c}} is empty: its smallest a_u.u + a_w.w is "
            f"{shared:.17g} > c = {c:.17g}"
        )
    # row 0 holds y's u-block against x0's w-block, row 1 the reverse
    needs = lowest + jac[::-1] @ x0
    for block, need in zip("uw", needs):
        if need > c:
            raise ConstructionFailed(
                f"K(x0) is empty: its {block}-block row needs at least {need:.17g} > c = {c:.17g} at x0"
            )


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

    The declared gamma is max(||a_w|| / min_nz |a_u|, ||a_u|| / min_nz |a_w|)
    (min_nz: the smallest nonzero magnitude). The u-block of the projection
    is piecewise affine in the offset c - a_w'x_w, moving by a_S/||a_S||^2
    per unit where coordinates S are free; the w-block likewise. The bound
    is attained where one coordinate is free.
    """
    nu = payoff.P.shape[0]
    nw = payoff.Q.shape[0]
    for name, square in (("P", payoff.P), ("Q", payoff.Q)):
        if square.shape[0] != square.shape[1]:
            raise ConstructionFailed(f"{name} has shape {square.shape}, expected a square matrix")
    if payoff.R.shape != (nu, nw):
        raise ConstructionFailed(f"R has shape {payoff.R.shape}, expected ({nu},{nw})")
    if payoff.p.shape != (nu,) or payoff.q.shape != (nw,):
        raise ConstructionFailed(f"p, q have shapes {payoff.p.shape}, {payoff.q.shape}, expected ({nu},), ({nw},)")
    if float(np.linalg.eigvalsh(0.5 * (payoff.P + payoff.P.T))[0]) < -1e-10:
        raise ConstructionFailed("payoff is not convex in u")
    if float(np.linalg.eigvalsh(0.5 * (payoff.Q + payoff.Q.T))[0]) < -1e-10:
        raise ConstructionFailed("payoff is not concave in w")
    mat = np.block([[payoff.P, payoff.R], [-payoff.R.T, payoff.Q]])
    off = np.concatenate([payoff.p, -payoff.q])
    dim = nu + nw

    def mean_eval(x):
        return np.matmul(mat, x[..., None])[..., 0] + off

    lip = float(np.linalg.norm(mat, 2))
    mu = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
    # the lower bounds, then the upper: each the u-block's, then the w-block's
    lo, hi = np.repeat(np.array([_box_ends("u_box", u_box), _box_ends("w_box", w_box)]).T, (nu, nw), axis=1)
    box = Box(lo, hi)
    operator = OperatorSpec(dim=dim, lipschitz=lip, qg_mu=max(mu, 1e-12), mean_eval=mean_eval)

    if coupling is None:
        mapping: SetValuedMap = FixedSet(box)
        gamma = 0.0
    else:
        a_u, a_w, cc = coupling.a_u, coupling.a_w, coupling.c
        if a_u.shape != (nu,) or a_w.shape != (nw,):
            raise ConstructionFailed("coupling vectors do not match block dimensions")
        # row 0 constrains the u-block, row 1 the w-block; each row fixes the
        # opponent block at x, which the rows in swapped order pick out
        jac = np.zeros((2, dim))
        jac[0, :nu] = a_u
        jac[1, nu:] = a_w

        def constraint(x, y):
            return jac @ y + jac[::-1] @ x - cc

        def jacobian(x, y):
            return jac

        _check_coupled_sets(box, jac, cc, box.anchor())
        # min_nz of an all-zero vector is inf: that block's projection stays fixed
        nz_u, nz_w = (np.min(np.abs(a), where=a != 0.0, initial=np.inf) for a in (a_u, a_w))
        gamma = float(max(np.linalg.norm(a_w) / nz_u, np.linalg.norm(a_u) / nz_w))
        mapping = NonlinearConvex(
            ambient=box,
            constraint=constraint,
            jacobian=jacobian,
            gamma=gamma,
            jacobian_bound=float(np.linalg.norm(jac, 2)),
        )

    return ProblemInstance(
        name=f"coupled_sp(nu={nu},nw={nw},coupled={coupling is not None})",
        operator=operator,
        map=mapping,
        ambient=box,
        x0=box.anchor(),
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
    """Empirical checks of the declared constants on random feasible probes.

    ``probes`` must be at least 3, so that the audit sees one monotonicity
    pair and one contractivity triple.
    """
    if probes < 3:
        raise InvalidParameters(f"audit_instance needs probes >= 3, got {probes}")
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
            lambda x, u: reference_project(problem.map, x, u, budget=4000),
            triples,
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


def regression_game(
    source: str = "synthetic", sigma: float = 1e-2, lam: Optional[float] = None, **fields
) -> ProblemInstance:
    """A regression game from a config: ``source`` names the game source
    (``synthetic``: :class:`SyntheticGame`, ``dataset``: :class:`DatasetGame`),
    which takes the other fields."""
    try:
        source_type = {"synthetic": SyntheticGame, "dataset": DatasetGame}[source]
    except (KeyError, TypeError):  # a JSON list or object names no source either
        raise ConstructionFailed(f"unknown game source {source!r}") from None
    return make_regression_game(source_type(**fields), lam=lam, sigma=sigma)


def coupled_sp(
    P=((1.0,),), Q=((1.0,),), R=((1.0,),), p=(0.0,), q=(0.0,), coupling=None, u_box=(-1.0, 1.0), w_box=(-1.0, 1.0)
) -> ProblemInstance:
    """A coupled saddle point from a config: the payoff's arrays (see
    :class:`QuadraticPayoff`), the fields of a :class:`LinearCoupling` or
    None, and the two boxes."""
    payoff = QuadraticPayoff(P=P, Q=Q, R=R, p=p, q=q)
    return make_coupled_sp(payoff, None if coupling is None else LinearCoupling(**coupling), u_box, w_box)


_BUILDERS = {"translated_box": make_translated_box_qvi, "regression_game": regression_game, "coupled_sp": coupled_sp}


def build_problem(kind: str, params: Optional[dict] = None) -> ProblemInstance:
    """The problem of a run configuration: ``params`` are the keyword
    arguments of the kind's builder, so a key it does not take raises
    TypeError naming that key."""
    try:
        builder = _BUILDERS[kind]
    except (KeyError, TypeError):
        raise ConstructionFailed(f"unknown problem kind {kind!r}") from None
    return builder(**(params or {}))
