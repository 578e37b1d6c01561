"""Inner solvers and the projection entry points, with certified error bounds.

The inner solvers are an accelerated proximal-gradient method (FISTA),
which argmin-set maps run on a Tikhonov regularized surrogate, and an
accelerated primal-dual scheme on the Lagrangian of the projection
subproblem, which inequality-constrained maps run. Both return a
certificate: a bound on the distance from the returned point to the target
projection. FISTA needs a strongly convex objective: it reports the
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


def fista_solve(
    grad: Callable[[Array], Array],
    curvature: float,
    strong_convexity: float,
    feasible: SimpleSet,
    y0: Array,
    t: int,
    rel_tol: float = 0.0,
    anchor: Optional[Array] = None,
) -> FistaResult:
    """Accelerated proximal-gradient minimization of a strongly convex
    objective over a simple set.

    Runs at most t projected accelerated gradient steps on a smooth objective
    with gradient Lipschitz constant ``curvature`` L and strong convexity
    modulus ``strong_convexity`` mu > 0. The momentum is the constant
    (sqrt(L/mu) - 1)/(sqrt(L/mu) + 1), and each step y+ = P(z - grad(z)/L)
    yields the gradient-mapping certificate 2 L ||z - y+|| / mu, which bounds
    ||y+ - y*|| at no extra gradient (Nesterov 2013, Math. Program. 140).
    The iterate with the smallest certificate is returned, with that
    certificate as ``dist_bound``. When ``rel_tol`` is positive the loop
    stops as soon as the certificate is at most ``rel_tol`` times
    ||anchor - y+||; with ``rel_tol`` 0 it runs exactly t steps.
    ``iterations`` counts the steps run. A modulus mu <= 0 raises
    InvalidParameters: without one there is no certificate.
    """
    if t < 1:
        raise InvalidParameters("inner budget t must be >= 1")
    if not strong_convexity > 0:
        raise InvalidParameters(f"strong convexity modulus must be positive, got {strong_convexity}")
    L = max(float(curvature), 1e-15)
    step = 1.0 / L
    y = np.asarray(y0, dtype=float)
    z = y.copy()
    root = math.sqrt(L / strong_convexity)
    momentum = (root - 1.0) / (root + 1.0)
    scale = 2.0 * L / strong_convexity
    # the loop compares squared certificates: cert <= rel_tol ||anchor - y+||
    # reads ||z - y+||^2 <= stop2 ||anchor - y+||^2
    stop2 = (rel_tol / scale) ** 2
    best, best_d2 = y, math.inf
    for it in range(1, t + 1):
        y_new = feasible.project(z - step * np.asarray(grad(z), dtype=float))
        d = z - y_new
        d2 = float(d @ d)
        # any nonfinite entry of y_new makes the certificate nonfinite
        if not math.isfinite(d2):
            raise NonfiniteValue("iterate left the finite floats; check problem scaling")
        if d2 < best_d2:
            best, best_d2 = y_new, d2
        if rel_tol > 0:
            r = anchor - y_new
            if d2 <= stop2 * float(r @ r):
                break
        z = y_new + momentum * (y_new - y)
        y = y_new
    return FistaResult(point=best, dist_bound=scale * math.sqrt(best_d2), iterations=it)


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
