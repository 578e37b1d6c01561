"""Inner solvers and the projection entry points, with certified error bounds.

The inner solvers are an accelerated proximal-gradient method (FISTA),
which argmin-set maps run on a Tikhonov regularized surrogate, and an
accelerated primal-dual scheme on the Lagrangian of the projection
subproblem, which inequality-constrained maps run. Both return a
certificate: a bound on the distance from the returned point to the target
projection. FISTA minimizes a strongly convex block quadratic
(:class:`BlockQuadratic`, the one objective argmin-set surrogates have),
advancing the steps where no constraint is active a chunk at a time in
each block's eigenbasis. It reports the a-posteriori gradient-mapping
certificate and, given a relative tolerance, stops as soon as that
certificate meets it, so the inner budget t is a cap and the iterations
actually run are reported. The primal-dual scheme
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
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InfeasibleSubproblem, InvalidParameters, NonfiniteValue
from .sets import Array, SimpleSet


@dataclass(frozen=True)
class ProjectionResult:
    """An approximate projection plus its certified error bound.

    ``error_bound`` bounds the Euclidean distance from ``point`` to the true
    projection target (the regularized surrogate's solution for argmin-set
    maps). Exact paths report a bound of zero. ``inner_iterations`` counts
    the iterations actually run (0 on exact paths).
    """

    point: Array
    error_bound: float
    inner_iterations: int
    feasibility_violation: float = 0.0


class FistaResult(NamedTuple):
    point: Array
    dist_bound: float
    iterations: int


# Unconstrained FISTA steps advanced per array call. Replaying the 240
# projections (29,648 steps) of the seed-11 game-fista workload in one
# process took, best of five, 0.35 / 0.19 / 0.16 / 0.19 / 0.40 s with chunks
# of 8 / 16 / 32 / 64 / 128, against 0.58-0.68 s one step per call (2-core
# x86 VM, one BLAS thread). Longer chunks waste more rows past the stop.
CHUNK = 32

# One-at-a-time steps in a row that leave every constraint inactive before
# chunking resumes, with a chunk of 2 * RESUME that doubles while it is
# accepted whole. On a (10, 25, 25) block quadratic over balls a chunk of
# 1 / 4 / 8 / 32 candidates cost 45 / 72 / 81 / 179 us against about 20 us
# for one step (same host), so a constraint that turns on every few steps
# is served one step at a time.
RESUME = 4


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
    expression.
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
        a = 1.0 - self.eig_vals * self.step
        p, q = a * (1.0 + self.momentum), a * self.momentum
        coefs = np.zeros((2, CHUNK + 2, self.eig_vals.size))
        coefs[0, 1] = coefs[1, 0] = 1.0
        for j in range(2, CHUNK + 2):
            coefs[:, j] = p * coefs[:, j - 1] - q * coefs[:, j - 2]
        self.coefs = coefs

    def times(self, y: Array) -> Array:
        """M y for one point, as one matmul."""
        return np.matmul(self.matrix, y.reshape(self.vecs.shape[:2] + (1,))).reshape(-1)

    def rotate(self, mat: Array, y: Array) -> Array:
        """Each row of an (n, dim) stack times ``mat`` blockwise, as one
        matmul: ``vecs`` takes rows into the eigenbasis, ``vecs_t`` back."""
        n, (blocks, b) = y.shape[0], self.vecs.shape[:2]
        return np.matmul(y.reshape(n, blocks, b).transpose(1, 0, 2), mat).transpose(1, 0, 2).reshape(n, -1)


def fista_solve(
    quadratic: BlockQuadratic,
    c: Array,
    feasible: SimpleSet,
    y0: Array,
    t: int,
    rel_tol: float = 0.0,
    anchor: Optional[Array] = None,
) -> FistaResult:
    """Accelerated proximal-gradient minimization of 0.5 y'My - c'y over a
    simple set, with M given by ``quadratic``.

    Runs at most t projected accelerated gradient steps from y0 with the
    constant momentum (sqrt(L/mu) - 1)/(sqrt(L/mu) + 1). Each step
    y+ = P(z - (Mz - c)/L) yields the gradient-mapping certificate
    2 L ||z - y+|| / mu, which bounds ||y+ - y*|| at no extra gradient
    (Nesterov 2013, Math. Program. 140). The iterate with the smallest
    certificate (the first, on ties) is returned, with that certificate as
    ``dist_bound``. When ``rel_tol`` is positive the loop stops as soon as
    the certificate is at most ``rel_tol`` times ||anchor - y+||, and an
    anchor is required; with ``rel_tol`` 0 it runs exactly t steps.
    ``iterations`` counts the steps run.

    Steps where no constraint is active go in chunks of up to ``CHUNK``:
    the chunk's candidates come from the eigenbasis recurrence of
    ``quadratic`` at once, and the stack is projected once. Candidates are
    accepted while the projection leaves them unchanged. The first that
    meets the stop ends the solve. The first that a constraint moves is
    replaced by its projection, already in hand, and the steps after it are
    taken one at a time until ``RESUME`` in a row leave every constraint
    inactive; then chunking resumes, with a short chunk that doubles up to
    ``CHUNK`` while it is accepted whole.
    """
    if t < 1:
        raise InvalidParameters("inner budget t must be >= 1")
    if rel_tol > 0 and anchor is None:
        raise InvalidParameters("a positive rel_tol needs an anchor to measure the stop against")
    q, c = quadratic, np.asarray(c, dtype=float)
    beta, gain = q.momentum, q.eig_vals * q.step
    c_hat, y_hat = q.rotate(q.vecs, np.stack([c, np.asarray(y0, dtype=float)]))
    # the unconstrained minimizer M^-1 c, and the errors e_0, e_{-1} from it
    target = c_hat / q.eig_vals
    e0 = em1 = y_hat - target
    # the loop compares squared certificates: cert <= rel_tol ||anchor - y+||
    # reads ||z - y+||^2 <= stop2 ||anchor - y+||^2
    stop2 = (rel_tol / q.scale) ** 2
    best, best_d2 = np.asarray(y0, dtype=float), math.inf
    it, chunked, size, run = 0, True, CHUNK, 0
    while it < t:
        if chunked:
            n = min(size, t - it)
            # rows j = -1 .. n of the errors, and the candidates y_1 .. y_n
            e = q.coefs[0, : n + 2] * e0 + q.coefs[1, : n + 2] * em1
            ys = q.rotate(q.vecs_t, target + e[2:])
            ps = feasible.project(ys)
            free = (ps == ys).all(axis=1)
            k = n if free.all() else int(np.argmin(free))
            # z_{j-1} - y_j is gain * (z_{j-1} - target) in the eigenbasis
            d = gain * ((1.0 + beta) * e[1 : k + 1] - beta * e[:k])
            d2 = np.einsum("ij,ij->i", d, d)
            stopped = False
            if rel_tol > 0:
                r = anchor - ys[:k]
                hits = np.flatnonzero(d2 <= stop2 * np.einsum("ij,ij->i", r, r))
                if hits.size:
                    k, stopped = int(hits[0]) + 1, True
                    d2 = d2[:k]
            if k:
                # any nonfinite entry of an iterate makes its certificate nonfinite
                if not np.isfinite(d2).all():
                    raise NonfiniteValue("iterate left the finite floats; check problem scaling")
                j = int(np.argmin(d2))
                if d2[j] < best_d2:
                    best, best_d2 = ys[j].copy(), float(d2[j])
                it, e0, em1 = it + k, e[k + 1], e[k]
            if stopped:
                break
            if k == n:
                size = min(2 * size, CHUNK)
                continue
            # a constraint moves candidate k: its projection is the next step,
            # and the steps after it go one at a time
            chunked = False
            y, y_prev = q.rotate(q.vecs_t, target + np.stack([e0, em1]))
            z = y + beta * (y - y_prev)
            w, y_new = ys[k], ps[k]
        else:
            z = y + beta * (y - y_prev)
            w = z - q.step * (q.times(z) - c)
            y_new = feasible.project(w)
        d = z - y_new
        d2 = float(d @ d)
        if not math.isfinite(d2):
            raise NonfiniteValue("iterate left the finite floats; check problem scaling")
        if d2 < best_d2:
            best, best_d2 = y_new, d2
        it, y, y_prev = it + 1, y_new, y
        if rel_tol > 0:
            r = anchor - y_new
            if d2 <= stop2 * float(r @ r):
                break
        run = run + 1 if (y_new == w).all() else 0
        if run == RESUME:
            chunked, size = True, 2 * RESUME
            e0, em1 = q.rotate(q.vecs, np.stack([y, y_prev])) - target
    return FistaResult(point=best, dist_bound=q.scale * math.sqrt(best_d2), iterations=it)


class ApdResult(NamedTuple):
    point: Array
    dist_bound: float
    violation: float


def apd_solve(
    u: Array,
    constraint: Callable[[Array], Array],
    jacobian: Callable[[Array], Array],
    t: int,
    ambient: Optional[SimpleSet] = None,
    jacobian_bound: Optional[float] = None,
) -> ApdResult:
    """Accelerated primal-dual solve of min 0.5||y-u||^2 s.t. g(y) <= 0, y in ambient.

    Primal-dual iterations with extrapolation on the primal and step sizes
    driven by the unit strong convexity of the objective, which yields an
    O(1/t^2) decay of suboptimality and infeasibility. The reported distance
    bound is the a priori estimate C/t, with C derived from the Jacobian
    norm and the domain size.
    """
    if t < 1:
        raise InvalidParameters("inner budget t must be >= 1")
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
    dist_bound = 8.0 * max(1.0, lj) * max(d, 1.0) / t
    return ApdResult(point=y, dist_bound=dist_bound, violation=violation)


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
    runs exactly t iterations. The returned point is snapped onto
    ``ambient`` when one is supplied so that solver iterates never leave the
    ambient set.
    """
    if t < 1:
        raise InvalidParameters("inner budget t must be >= 1")
    return mapping.project(np.asarray(x, dtype=float), np.asarray(u, dtype=float), t, ambient, rel_tol)


def reference_project(mapping, x, u, budget: int = 20000) -> Array:
    """High-accuracy projection onto K(x): the map's closed form when it is
    exact, else ``budget`` iterations of its solver path.

    For argmin-set maps the target is the regularized surrogate's solution.
    """
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
