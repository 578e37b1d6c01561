"""Inner solvers and the projection entry points, with certified error bounds.

The inner solvers are an accelerated proximal-gradient method (FISTA),
which argmin-set maps run on a Tikhonov regularized surrogate, and an
accelerated primal-dual scheme on the Lagrangian of the projection
subproblem, which inequality-constrained maps run. Both return a
certificate: a bound on the distance from the returned point to the target
projection. FISTA minimizes a strongly convex block quadratic
(:class:`BlockQuadratic`, the one objective argmin-set surrogates have)
entirely in the quadratic's eigenbasis, where a chunk of steps is one
array expression and a ball is tested by its norms. It reports the
a-posteriori gradient-mapping certificate and, given a relative tolerance,
stops as soon as that certificate meets it, so the inner budget t is a cap
and the iterations actually run are reported. The primal-dual scheme
reports the a-priori C/t bound and always runs t iterations. Called with a
forced budget (relative tolerance 0), both paths run exactly t iterations
and their error decays at least like 1/t.

The entry points ``inexact_project`` and ``reference_project`` delegate to
the map, which owns its projection, membership test and exactness (see
:mod:`sqvi.maps`); this module does not import the maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InfeasibleSubproblem, InvalidParameters, NonfiniteValue
from .sets import Array, Ball, BlockBalls, SimpleSet


@dataclass(slots=True)
class ProjectionResult:
    """An approximate projection plus its certified error bound: the one
    record that the inner solvers, the maps' ``project`` and
    :func:`inexact_project` return.

    ``error_bound`` bounds the Euclidean distance from ``point`` to the true
    projection target (the regularized surrogate's solution for argmin-set
    maps). Exact paths report a bound of zero. ``inner_iterations`` counts
    the iterations actually run (0 on exact paths). ``feasibility_violation``
    is the largest constraint value at ``point`` for inequality-constrained
    maps, and 0 elsewhere.
    """

    point: Array
    error_bound: float
    inner_iterations: int
    feasibility_violation: float = 0.0


# FISTA steps advanced per array call at most. Replaying the 240 projections
# (29,648 steps) of the seed-11 game-fista workload in one process took,
# best of 20, 0.19 / 0.13 / 0.10 / 0.17 / 0.26 s with chunks of
# 8 / 16 / 32 / 64 / 128, and 1.1 s with one step per call (2-core x86 VM,
# one BLAS thread). Longer chunks waste more rows past the stop.
CHUNK = 32

# Steps from a fresh start that BlockQuadratic tabulates, in two
# (FRESH + 2, dim) float arrays. The seed-5 and seed-11 game-fista solves
# stop within 147 steps; past the table a solve continues on the chunk
# recurrence.
FRESH = 6 * CHUNK

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


class BlockQuadratic:
    """The fixed part of the objective 0.5 y'My - c'y that :func:`fista_solve`
    minimizes, prepared once for many linear terms c.

    M is block diagonal on consecutive length-b blocks of y, given by each
    block's eigenvalues ``eig_vals`` (blocks, b) and orthonormal eigenvector
    columns ``eig_vecs`` (blocks, b, b). ``strong_convexity`` mu > 0 is the
    modulus the certificate uses (at most M's smallest eigenvalue); the
    curvature L is M's largest eigenvalue, floored at 1e-15.

    Where no constraint is active a FISTA step is linear (O'Donoghue &
    Candes 2015, Found. Comput. Math. 15): in the eigenbasis, the error
    e = y - M^-1 c of each coordinate with eigenvalue m follows
    e_{j+1} = a ((1 + beta) e_j - beta e_{j-1}) with a = 1 - m/L and the
    momentum beta. ``coefs`` holds, for j = -1 .. CHUNK, the rows A_j and
    B_j of e_j = A_j e_0 + B_j e_{-1}, so a chunk of steps is one array
    expression. The step from y_j to y_{j+1} starts at z_j, and z_j - y_{j+1}
    is ``gain1`` e_j - ``gain0`` e_{j-1}.

    A solve starts with e_{-1} = e_0, so until a constraint moves a step its
    errors are fixed gains times one vector: e_j = C_j e_0. ``fresh`` holds
    these gains and the squared step gains
    G_j^2 = (gain1 C_{j-1} - gain0 C_{j-2})^2, so the squared certificate
    of step j is G_j^2 . e_0^2. The table is filled at its first use and
    has FRESH + 2 rows of each whatever the budget. Beside it ``fresh_max``
    holds c_j = max_i |C_ji|, so that for any grouping of the coordinates
    the triangle inequality bounds every fresh candidate's group b about a
    point v by ||(target - v)_b|| + c_j ||e_0,b|| without forming it
    (:func:`fista_solve` derives the rounding margin).
    """

    def __init__(self, eig_vals: Array, eig_vecs: Array, strong_convexity: float):
        if not strong_convexity > 0:
            raise InvalidParameters(f"strong convexity modulus must be positive, got {strong_convexity}")
        vals = np.asarray(eig_vals, dtype=float)
        self.vecs = np.asarray(eig_vecs, dtype=float)
        self.vecs_t = self.vecs.transpose(0, 2, 1)
        self.matrix = (self.vecs * vals[:, None, :]) @ self.vecs_t
        self.eig_vals = vals.reshape(-1)
        L = max(float(np.max(vals)), 1e-15)
        self.step = 1.0 / L
        root = math.sqrt(L / strong_convexity)
        self.momentum = (root - 1.0) / (root + 1.0)
        self.scale = 2.0 * L / strong_convexity
        self.gain0 = self.eig_vals * self.step * self.momentum
        self.gain1 = self.eig_vals * self.step + self.gain0
        self.coefs = self._recurrence(np.array([[[0.0], [1.0]], [[1.0], [0.0]]]), CHUNK)

    def _recurrence(self, start: Array, steps: int) -> Array:
        """``steps`` + 2 rows of the eigenbasis error recurrence for each
        leading index of ``start`` (..., 2, n), which holds the first two."""
        a = 1.0 - self.eig_vals * self.step
        p, q = a * (1.0 + self.momentum), a * self.momentum
        rows = np.zeros(start.shape[:-2] + (steps + 2, self.eig_vals.size))
        rows[..., :2, :] = start
        for j in range(2, steps + 2):
            rows[..., j, :] = p * rows[..., j - 1, :] - q * rows[..., j - 2, :]
        return rows

    @cached_property
    def fresh(self):
        """The fresh-start gains C, rows j = -1 .. FRESH, and the squared
        step gains G^2, rows j = 1 .. FRESH + 2, as two (FRESH + 2, n) views
        of one array. G_j is a fixed combination of C_{j-1} and C_{j-2}, so
        it follows the same recurrence from G_1 = gain1 - gain0 and
        G_2 = gain1 C_1 - gain0, with C_1 = 1 - m/L."""
        c1 = 1.0 - self.eig_vals * self.step
        start = [[np.ones_like(c1)] * 2, [self.gain1 - self.gain0, self.gain1 * c1 - self.gain0]]
        gains, steps = self._recurrence(np.array(start), FRESH)
        steps *= steps
        return gains, steps

    @cached_property
    def fresh_max(self) -> Array:
        """c_j = max_i |C_ji| for each row of the fresh-start gains, taken as
        max(row max, -row min) so that no table-sized temporary is made."""
        gains = self.fresh[0]
        return np.maximum(gains.max(axis=1), -gains.min(axis=1))

    def times(self, y: Array) -> Array:
        """M y for one point, as one matmul."""
        return np.matmul(self.matrix, y.reshape(self.vecs.shape[:2] + (1,))).reshape(-1)

    def rotate(self, mat: Array, y: Array) -> Array:
        """Each row of an (n, dim) stack times ``mat`` blockwise, as one
        matmul: ``vecs`` takes rows into the eigenbasis, ``vecs_t`` back."""
        n, (blocks, b) = y.shape[0], self.vecs.shape[:2]
        return np.matmul(y.reshape(n, blocks, b).transpose(1, 0, 2), mat).transpose(1, 0, 2).reshape(n, -1)


class _NormView:
    """A ball about ``centre`` (None: the origin), or a product of such balls
    on consecutive groups of ``group`` coordinates, in the eigenbasis. An
    orthonormal block rotation keeps the norms that decide ball membership,
    so a ball of the original coordinates whose centre is rotated in, or a
    product of balls on the quadratic's blocks, stays a ball there."""

    def __init__(self, centre: Optional[Array], group: int, radius: float):
        self.centre, self.group, self.radius = centre, group, radius

    def screen(self, ys: Array):
        """How many leading rows of ``ys`` the set leaves in place, and the
        projection of the next row (None when every row is left in place)."""
        d = ys if self.centre is None else ys - self.centre
        d = d.reshape(ys.shape[0], -1, self.group)
        r2 = self.radius * self.radius
        n2 = np.einsum("ijk,ijk->ij", d, d)
        moved = (n2.max(axis=1) > r2).nonzero()[0]
        if not moved.size:
            return ys.shape[0], None
        k = int(moved[0])
        # each group outside its ball is scaled onto the sphere, as Ball and
        # BlockBalls project, from the norms in hand
        p = (d[k] * (self.radius / np.sqrt(np.maximum(n2[k], r2)))[:, None]).reshape(-1)
        return k, p if self.centre is None else self.centre + p

    def fresh_floors(self, quadratic: BlockQuadratic, target: Array, e0: Array, anchor: Array, stop2: float):
        """Per fresh step j = 1 .. FRESH, the squared certificate that the
        step must exceed for :func:`fista_solve` to skip it: +inf where the
        norm bound cannot prove that the set leaves the candidate
        target + C_j e0 in place, else a bound on the step's stop threshold
        when ``stop2`` is positive and -inf when it is not. The bounds and
        their rounding margin are derived in :func:`fista_solve`."""
        n, eps = target.size, _EPS
        norm = lambda v: math.sqrt(v @ v)
        groups = lambda v: np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
        gain_max = quadratic.fresh_max[2:]
        off = target if self.centre is None else target - self.centre
        size = norm(target) + norm(anchor) + (0.0 if self.centre is None else norm(self.centre))
        slack = eps * size + math.sqrt(n * _TINY)
        # (groups, steps): group b of step j is bounded by ||off_b|| + c_j ||e0_b||
        reach = groups(off.reshape(-1, self.group)) + groups(e0.reshape(-1, self.group)) * gain_max
        clear = (1.0 + (self.group + 8) * eps) * reach.max(axis=0) + slack <= self.radius
        if not stop2 > 0:
            return np.where(clear, -np.inf, np.inf)
        bound = (1.0 + (n + 8) * eps) * (norm(anchor - target) + gain_max * norm(e0)) + slack
        return np.where(clear, stop2 * (bound * bound), np.inf)


class _RotatedView:
    """Any other set in the eigenbasis: rows are rotated out, projected by the
    set, and a moved row's projection is rotated back in."""

    def __init__(self, feasible: SimpleSet, quadratic: BlockQuadratic):
        self.feasible, self.q = feasible, quadratic

    def screen(self, ys: Array):
        """As :meth:`_NormView.screen`."""
        out = self.q.rotate(self.q.vecs_t, ys)
        ps = self.feasible.project(out)
        moved = (ps != out).any(axis=1).nonzero()[0]
        if not moved.size:
            return ys.shape[0], None
        k = int(moved[0])
        return k, self.q.rotate(self.q.vecs, ps[k : k + 1])[0]

    def fresh_floors(self, quadratic: BlockQuadratic, target: Array, e0: Array, anchor: Array, stop2: float):
        """As :meth:`_NormView.fresh_floors`: a set without a norm bound
        certifies no step, so every fresh chunk is screened."""
        return None


def _eigenbasis_view(feasible: SimpleSet, quadratic: BlockQuadratic):
    """``feasible`` as :func:`fista_solve` sees it, in ``quadratic``'s eigenbasis."""
    q, b = quadratic, quadratic.vecs.shape[1]
    if isinstance(feasible, Ball):
        return _NormView(q.rotate(q.vecs, feasible.center[None])[0], feasible.dim, feasible.radius)
    if isinstance(feasible, BlockBalls) and feasible.block_dim == b:
        return _NormView(None, b, feasible.radius)
    return _RotatedView(feasible, q)


def fista_solve(
    quadratic: BlockQuadratic,
    c: Array,
    feasible: SimpleSet,
    y0: Array,
    t: int,
    rel_tol: float = 0.0,
    anchor: Optional[Array] = None,
) -> ProjectionResult:
    """Accelerated proximal-gradient minimization of 0.5 y'My - c'y over a
    simple set, with M given by ``quadratic``.

    Runs at most t projected accelerated gradient steps from y0 with the
    constant momentum (sqrt(L/mu) - 1)/(sqrt(L/mu) + 1). Each step
    y+ = P(z - (Mz - c)/L) yields the gradient-mapping certificate
    2 L ||z - y+|| / mu, which bounds ||y+ - y*|| at no extra gradient
    (Nesterov 2013, Math. Program. 140). The iterate with the smallest
    certificate (the first, on ties) is returned as a
    :class:`ProjectionResult`: ``point`` is that iterate, ``error_bound`` its
    certificate and ``inner_iterations`` the steps run. When ``rel_tol`` is
    positive the loop stops as soon as the certificate is at most
    ``rel_tol`` times ||anchor - y+||, and an anchor is required; with
    ``rel_tol`` 0 it runs exactly t steps.

    The whole solve runs in the eigenbasis of ``quadratic``: c, y0 and the
    anchor are rotated in once, certificates and the stop test are row
    norms there (the rotation is orthonormal), and the returned iterate is
    rotated back once. Steps go in chunks of up to ``CHUNK``: the chunk's
    candidates come from the eigenbasis recurrence of ``quadratic`` at once,
    and the feasible set screens the stack. While no step has been moved
    and the chunk ends within the first ``FRESH`` steps, the candidates are
    read from the quadratic's fresh-start table as the target plus gains
    times e_0, and the chunk's squared certificates are one matrix-vector
    product of its squared step gains with e_0's squares. From the first
    moved step, or the first chunk that would pass the table's last row,
    the recurrence runs on from the last two errors. A ball, or a product of
    balls on the quadratic's blocks, tests the candidates by their norms in
    the eigenbasis; any other set rotates them out and projects them.
    Candidates are accepted while the set leaves them in place. The first
    that meets the stop ends the solve. The first that the set moves is
    replaced by its projection, which is the step. The chunk after a moved
    step holds one step, and a chunk accepted whole is followed by one twice
    as long, up to ``CHUNK``.

    On a ball, or balls on the quadratic's blocks, a fresh chunk that a norm
    bound certifies is skipped: no candidates, screen or stop test, only its
    squared certificates d2_j (the product above) and its best candidate.
    Candidate j is target + C_j e_0, so with off = target - centre,
    w = anchor - target and c_j = max_i |C_ji| the triangle inequality
    bounds its group b about the centre by ||off_b|| + c_j ||e_0,b|| and its
    stop distance by ||w|| + c_j ||e_0||. The chunk is certified when every
    step's group bound, with margin, is at most the radius; when rel_tol is
    positive, every d2_j exceeds stop2 times the squared stop bound with
    margin; and every d2_j is finite. NaN passes no test.

    The margin covers the loop's rounded decision, not only the exact one
    (Higham 2002, Accuracy and Stability of Numerical Algorithms, ch. 3).
    With u = eps/2 each rounded operation errs by at most u relative, and a
    product that underflows by at most 2^-1075. A rounded candidate entry
    is within u |target| + (2 + u) u |C_j e_0| of the exact one (the
    product, then the sum); centring it or subtracting it from the anchor
    adds u relative, as do the single subtractions that form off and w. A
    rounded sum of k squares exceeds the exact one by at most
    gamma_k = k u / (1 - k u) relative, and the bound's own norms, sum and
    product run low by at most as much. So, to first order in u, the norm
    the loop compares exceeds the bound as computed by a factor of at most
    1 + (k + 9) u, plus u ||target||, with k the group size for the screen
    and the dimension n for the stop: (k/2 + 3.5) u from the loop's
    rounding, (k/2 + 3) u from the bound's and 2 u from the test's own. The
    test takes (1 + (k + 8) eps) times the bound, an excess of (2k + 16) u
    that leaves room for the higher-order terms, plus
    eps (||target|| + ||centre|| + ||anchor||) + sqrt(n tiny). The absolute
    term cannot be relative, because anchor - y+ cancels as the iterate
    nears the anchor; its last part keeps the squared bound in the normal
    range, where underflow errs by far less than u relative.
    Rounding is monotone, so a bound B <= radius gives
    fl(B^2) <= fl(radius^2), and fl(stop2 B^2) is at least the loop's stop
    threshold.
    """
    if type(t) is not int or t < 1:  # one test on the common case
        _check_budget(t)
    if rel_tol > 0 and anchor is None:
        raise InvalidParameters("a positive rel_tol needs an anchor to measure the stop against")
    q, view = quadratic, _eigenbasis_view(feasible, quadratic)
    y0 = np.asarray(y0, dtype=float)
    # without an anchor y0 stands in for it; no stop test reads it then
    rows = [np.asarray(c, dtype=float), y0, y0 if anchor is None else np.asarray(anchor, dtype=float)]
    c_hat, y_hat, anchor_hat = q.rotate(q.vecs, np.stack(rows))
    # the unconstrained minimizer M^-1 c, and the errors e_0, e_{-1} from it
    target = c_hat / q.eig_vals
    e0 = em1 = y_hat - target
    # while no step has been moved the errors are the fresh-start gains
    # times the first error, and the squared certificates their step gains
    # times its squares
    gains, step_gains2 = q.fresh
    first, first2, fresh = e0, e0 * e0, True
    # the loop compares squared certificates: cert <= rel_tol ||anchor - y+||
    # reads ||z - y+||^2 <= stop2 ||anchor - y+||^2
    stop2 = (rel_tol / q.scale) ** 2
    # a fresh chunk whose squared certificates all exceed these floors is
    # certified: no candidate is moved and none meets the stop
    floor2 = view.fresh_floors(q, target, first, anchor_hat, stop2)
    best, best_d2 = y_hat, math.inf
    it, size = 0, CHUNK
    while it < t:
        n = min(size, t - it)
        if fresh and it + n > FRESH:
            # fresh chunks start at multiples of CHUNK, so this is step FRESH:
            # the table is used up and the recurrence runs on from its last
            # two rows
            em1, e0 = gains[it : it + 2] * first
            fresh = False
        if fresh:
            d2 = step_gains2[it : it + n] @ first2
            if floor2 is not None and (d2 > floor2[it : it + n]).all() and d2.max() < math.inf:
                # only the best candidate is formed; a fresh solve keeps
                # chunks of CHUNK, so the chunk-size rule has nothing to update
                j = int(d2.argmin())
                if d2[j] < best_d2:
                    best, best_d2 = target + gains[it + j + 2] * first, float(d2[j])
                it += n
                continue
            # rows j = -1 .. n of the chunk's errors
            e = gains[it : it + n + 2] * first
        else:
            e = q.coefs[0, : n + 2] * e0 + q.coefs[1, : n + 2] * em1
        # the chunk's candidates y_1 .. y_n
        ys = target + e[2:]
        k, p = view.screen(ys)
        # the steps taken: the k candidates left in place, then a moved one
        m = min(k + 1, n)
        if not (fresh and k == n):
            d = q.gain1 * e[1 : m + 1] - q.gain0 * e[:m]
            if k < n:
                # the moved candidate's projection p is the step: z - p is
                # (z - candidate) + (candidate - p)
                d[k] += ys[k] - p
                ys[k], e[k + 2] = p, p - target
                fresh = False
            d2 = np.einsum("ij,ij->i", d, d)
        stopped = False
        if rel_tol > 0:
            r = anchor_hat - ys[:m]
            hits = (d2 <= stop2 * np.einsum("ij,ij->i", r, r)).nonzero()[0]
            if hits.size:
                m, stopped = int(hits[0]) + 1, True
                d2 = d2[:m]
        # any nonfinite entry of an iterate makes its certificate nonfinite
        if not np.isfinite(d2).all():
            raise NonfiniteValue("iterate left the finite floats; check problem scaling")
        j = int(d2.argmin())
        if d2[j] < best_d2:
            best, best_d2 = ys[j], float(d2[j])
        it += m
        if stopped:
            break
        e0, em1 = e[m + 1], e[m]
        # one step after a moved step, else a chunk twice as long, up to CHUNK
        size = 1 if k < n else min(2 * size, CHUNK)
    point = q.rotate(q.vecs_t, best[None])[0]
    return ProjectionResult(point, q.scale * math.sqrt(best_d2), it)


def apd_solve(
    u: Array,
    constraint: Callable[[Array], Array],
    jacobian: Callable[[Array], Array],
    t: int,
    ambient: Optional[SimpleSet] = None,
    jacobian_bound: Optional[float] = None,
) -> ProjectionResult:
    """Accelerated primal-dual solve of min 0.5||y-u||^2 s.t. g(y) <= 0, y in ambient.

    Primal-dual iterations with extrapolation on the primal and step sizes
    driven by the unit strong convexity of the objective, which yields an
    O(1/t^2) decay of suboptimality and infeasibility. Returns a
    :class:`ProjectionResult`: ``point`` is the last primal iterate,
    ``error_bound`` the a priori estimate C/t, with C derived from the
    Jacobian norm and the domain size, ``inner_iterations`` is t, and
    ``feasibility_violation`` is max(g(point), 0).
    """
    if type(t) is not int or t < 1:  # one test on the common case
        _check_budget(t)
    u = np.asarray(u, dtype=float)
    y = ambient.project(u) if ambient is not None else u.copy()
    g0 = np.atleast_1d(np.asarray(constraint(y), dtype=float))
    m = g0.shape[0]
    lam = np.zeros(m)
    jac = np.atleast_2d(np.asarray(jacobian(y), dtype=float))
    if jac.shape != (m, u.shape[0]):
        raise DimensionMismatch(f"jacobian has shape {jac.shape}, expected ({m},{u.shape[0]})")
    lj = jacobian_bound if jacobian_bound is not None else 2.0 * float(np.linalg.norm(jac, 2)) + 1e-6
    lj = max(lj, 1e-9)
    tau = 1.0 / lj
    sigma = 1.0 / lj
    theta = 1.0
    y_prev = y.copy()
    for _ in range(t):
        y_bar = y + theta * (y - y_prev)
        lam = np.maximum(lam + sigma * np.atleast_1d(np.asarray(constraint(y_bar), float)), 0.0)
        jac = np.atleast_2d(np.asarray(jacobian(y), dtype=float))
        y_prev = y
        target = (y + tau * (u - jac.T @ lam)) / (1.0 + tau)
        y = ambient.project(target) if ambient is not None else target
        if not np.all(np.isfinite(y)):
            raise NonfiniteValue("primal-dual iterate left the finite floats")
        # unit strong convexity of the quadratic drives the acceleration
        theta = 1.0 / math.sqrt(1.0 + 2.0 * tau)
        tau = tau * theta
        sigma = sigma / theta
    gy = np.atleast_1d(np.asarray(constraint(y), dtype=float))
    violation = float(np.max(np.maximum(gy, 0.0), initial=0.0))
    if ambient is not None and np.isfinite(ambient.diameter()):
        d = ambient.diameter()
    else:
        d = 2.0 * float(np.linalg.norm(y - u)) + 1.0
    return ProjectionResult(y, 8.0 * max(1.0, lj) * max(d, 1.0) / t, t, violation)


_WITNESS_TOL = 1e-8


def feasibility_witness(
    constraint: Callable[[Array], Array],
    jacobian: Callable[[Array], Array],
    ambient: Optional[SimpleSet],
    start: Array,
    budget: int = 2000,
) -> Array:
    """A point with componentwise g <= ``_WITNESS_TOL``, found by minimizing
    the squared hinge.

    Raises InfeasibleSubproblem when no such point is found within budget.
    """
    y = np.asarray(start, dtype=float)
    if ambient is not None:
        y = ambient.project(y)
    jac = np.atleast_2d(np.asarray(jacobian(y), float))
    lj = float(np.linalg.norm(jac, 2)) + 1e-9
    step = 1.0 / (2.0 * lj * lj + 1e-9)
    for _ in range(budget):
        g = np.atleast_1d(np.asarray(constraint(y), float))
        viol = np.maximum(g, 0.0)
        if float(np.max(viol, initial=0.0)) <= _WITNESS_TOL:
            return y
        jac = np.atleast_2d(np.asarray(jacobian(y), float))
        y = y - step * (jac.T @ viol)
        if ambient is not None:
            y = ambient.project(y)
    g = np.atleast_1d(np.asarray(constraint(y), float))
    if float(np.max(np.maximum(g, 0.0), initial=0.0)) <= _WITNESS_TOL:
        return y
    raise InfeasibleSubproblem(
        f"no feasibility witness found within {budget} iterations "
        f"(residual {float(np.max(np.maximum(g, 0.0))):.3e})"
    )


def _check_budget(budget) -> None:
    """Raise InvalidParameters unless ``budget`` is an integer >= 1: a Python
    or numpy int, not a bool, float, string or sequence."""
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 1:
        raise InvalidParameters(f"inner budget must be >= 1 and an integer, got {budget!r}")


def inexact_project(
    mapping, x, u, t: int, ambient: Optional[SimpleSet] = None, rel_tol: float = 0.0
) -> ProjectionResult:
    """Approximate projection of u onto the map K(x) with an inner budget of at most t iterations.

    The map runs its own solver path (see :mod:`sqvi.maps`): closed forms
    report an error bound of 0, argmin-set maps run FISTA on the regularized
    surrogate, inequality-constrained maps the accelerated primal-dual
    scheme. A positive ``rel_tol`` lets a solver with an a-posteriori
    certificate (FISTA) stop once its bound is at most ``rel_tol`` times the
    distance from x to its iterate; with the default 0 every iterative path
    runs exactly t iterations. ``t`` must be an integer >= 1 (a Python or
    numpy int) on every map, closed forms included, or InvalidParameters is
    raised.

    This is the one place where a map's point is snapped onto the caller's
    ``ambient`` set, when one is supplied, so that solver iterates never
    leave it. The snap keeps the map's error bound and inner iterations: the
    target projection lies in the ambient set and the ambient projection is
    nonexpansive, so the snapped point is no farther from the target.
    """
    if type(t) is not int or t < 1:  # one test on the common case
        _check_budget(t)
    res = mapping.project(np.asarray(x, dtype=float), np.asarray(u, dtype=float), t, rel_tol)
    if ambient is not None:
        res.point = ambient.project(res.point)
    return res


def reference_project(mapping, x, u, budget: int = 20000) -> Array:
    """High-accuracy projection onto K(x): the map's closed form when it is
    exact, else ``budget`` iterations of its solver path. ``budget`` must be
    an integer >= 1 on every map, as ``inexact_project``'s ``t``.

    For argmin-set maps the target is the regularized surrogate's solution.
    """
    _check_budget(budget)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if mapping.exact:
        return mapping.exact_project(x, u)
    return inexact_project(mapping, x, u, t=budget).point


_RATE_AUDIT_REFERENCE_BUDGET = 100000


class RateAudit(NamedTuple):
    slope: Optional[float]
    errors: tuple
    budgets: tuple
    exact: bool
    passed: bool


def projection_rate_audit(mapping, x, u, budgets: Sequence[int]) -> RateAudit:
    """Fit of log error against log inner budget across a budget grid.

    The error at each budget is the distance to ``reference_project`` with
    ``_RATE_AUDIT_REFERENCE_BUDGET`` iterations. A fitted slope of at most
    -0.95 certifies the contract that the distance decays at least like 1/t;
    exact paths report ``exact=True`` instead.
    """
    reference = reference_project(mapping, x, u, budget=_RATE_AUDIT_REFERENCE_BUDGET)
    errs = []
    for t in budgets:
        res = inexact_project(mapping, x, u, int(t))
        errs.append(float(np.linalg.norm(res.point - reference)))
    errs_arr = np.asarray(errs)
    if np.all(errs_arr <= 1e-13):
        return RateAudit(None, tuple(errs), tuple(int(b) for b in budgets), True, True)
    logs = np.log10(np.maximum(errs_arr, 1e-16))
    slope = float(np.polyfit(np.log10(np.asarray(budgets, float)), logs, 1)[0])
    return RateAudit(slope, tuple(errs), tuple(int(b) for b in budgets), False, slope <= -0.95)
