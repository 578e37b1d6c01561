"""Set-valued constraint maps K(x): projection, membership, exactness, audits.

Four map shapes are supported: a fixed set, a translated set m(x) + K, a
set cut out by convex inequalities g(x, y) <= 0 inside an ambient set, and
the solution set of a parametric convex lower-level problem. Every map
carries a declared contractivity constant ``gamma`` bounding how fast the
projection onto K(x) moves with x.

Each map owns its projection: ``project(x, u, t, ambient)`` runs its solver
path (closed form, accelerated primal-dual or FISTA) with a certified error
bound, ``exact`` says whether ``exact_project(x, u)`` is a closed form,
``contains(x, y, tol)`` tests membership, and ``certificate_constant`` is
the C of the C/t certificate when known up front. The inner solvers live in
:mod:`sqvi.projection`, which does not import this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, UnsupportedBaseSet, UnsupportedSet
from .projection import ProjectionResult, apd_solve, feasibility_witness, fista_solve
from .sets import Array, Halfspaces, SimpleSet, has_closed_form


def _snap(point: Array, ambient: Optional[SimpleSet]) -> Array:
    # the target projection lies in the ambient set, so snapping onto it
    # never increases the certified error
    return point if ambient is None else ambient.project(point)


def _capped(bound: float, domain: SimpleSet) -> float:
    diam = domain.diameter()
    return min(bound, diam) if np.isfinite(diam) else bound


class _Map:
    """Protocol defaults: no closed form, no up-front certificate constant."""

    exact = False
    certificate_constant = None


@dataclass(frozen=True, eq=False)
class FixedSet(_Map):
    """K(x) = base_set for every x; gamma is 0 by definition.

    Closed-form bases are projected exactly; a system of several halfspaces
    runs the accelerated primal-dual scheme.
    """

    base_set: SimpleSet

    @property
    def gamma(self) -> float:
        return 0.0

    @property
    def dim(self) -> int:
        return self.base_set.dim

    @property
    def exact(self) -> bool:
        return has_closed_form(self.base_set)

    def exact_project(self, x: Array, u: Array) -> Array:
        return self.base_set.project(u)

    def project(self, x: Array, u: Array, t: int, ambient: Optional[SimpleSet]) -> ProjectionResult:
        if self.exact:
            return ProjectionResult(_snap(self.base_set.project(u), ambient), 0.0, 0, 0.0)
        if not isinstance(self.base_set, Halfspaces):
            raise UnsupportedSet("iterative path for fixed sets requires halfspace systems")
        hs = self.base_set
        res = apd_solve(
            u, constraint=lambda y: hs.normals @ y - hs.offsets, jacobian=lambda y: hs.normals, t=t,
            ambient=ambient, jacobian_bound=float(np.linalg.norm(hs.normals, 2)),
        )
        return ProjectionResult(res.point, res.dist_bound, t, res.violation)

    def contains(self, x: Array, y: Array, tol: float) -> bool:
        return self.base_set.contains(y, tol)


@dataclass(frozen=True, eq=False)
class TranslatedSet(_Map):
    """K(x) = shift(x) + base_set with shift Lipschitz constant shift_lipschitz.

    The declared gamma defaults to twice the shift constant, which is what
    the translation identity for projections yields.
    """

    base_set: SimpleSet
    shift: Callable[[Array], Array]
    shift_lipschitz: float
    gamma: Optional[float] = None

    exact = True

    def __post_init__(self):
        if self.shift_lipschitz < 0:
            raise DimensionMismatch("shift Lipschitz constant must be nonnegative")
        if self.gamma is None:
            object.__setattr__(self, "gamma", 2.0 * self.shift_lipschitz)

    @property
    def dim(self) -> int:
        return self.base_set.dim

    def exact_project(self, x: Array, u: Array) -> Array:
        return translated_projection(self, x, u)

    def project(self, x: Array, u: Array, t: int, ambient: Optional[SimpleSet]) -> ProjectionResult:
        return ProjectionResult(_snap(translated_projection(self, x, u), ambient), 0.0, 0, 0.0)

    def contains(self, x: Array, y: Array, tol: float) -> bool:
        return self.base_set.contains(y - np.asarray(self.shift(x), float), tol)


@dataclass(frozen=True, eq=False)
class NonlinearConvex(_Map):
    """K(x) = {y in ambient : constraint(x, y) <= 0 componentwise}.

    ``constraint(x, y)`` returns an (m,) vector convex in y for each fixed x;
    ``jacobian(x, y)`` its (m, dim) derivative in y. ``jacobian_bound`` caps
    the Jacobian spectral norm over the ambient set (estimated on demand if
    omitted); ``dist_constant`` scales the inexact-projection certificate.
    """

    ambient: SimpleSet
    constraint: Callable[[Array, Array], Array]
    jacobian: Callable[[Array, Array], Array]
    gamma: float = 0.0
    jacobian_bound: Optional[float] = None
    dist_constant: Optional[float] = None

    @property
    def dim(self) -> int:
        return self.ambient.dim

    @property
    def certificate_constant(self) -> Optional[float]:
        # without a declared constant it is derived per call from the query point
        return self.dist_constant

    def project(self, x: Array, u: Array, t: int, ambient: Optional[SimpleSet]) -> ProjectionResult:
        g_x = lambda y: self.constraint(x, y)
        j_x = lambda y: self.jacobian(x, y)
        res = apd_solve(
            u, constraint=g_x, jacobian=j_x, t=t, ambient=self.ambient,
            jacobian_bound=self.jacobian_bound, dist_constant=self.dist_constant,
        )
        # a grossly violated output on a generous budget suggests K(x) may be
        # empty; confirm with a feasibility probe before giving up
        if t >= 30 and res.violation > 0.05 * max(1.0, float(np.linalg.norm(u))):
            feasibility_witness(g_x, j_x, self.ambient, res.point, budget=1000)
        bound = _capped(res.dist_bound, self.ambient)
        return ProjectionResult(_snap(res.point, ambient), bound, t, res.violation)

    def contains(self, x: Array, y: Array, tol: float) -> bool:
        if not self.ambient.contains(y, tol):
            return False
        g = np.atleast_1d(np.asarray(self.constraint(x, y), float))
        return bool(np.all(g <= tol))


@dataclass(frozen=True, eq=False)
class ArgminSet(_Map):
    """K(x) = argmin of a parametric convex objective over a feasible set.

    objective(x, y) is convex in y with gradient grad(x, y) whose Lipschitz
    constant in y is bounded by ``curvature``. Projections onto this set are
    computed through a Tikhonov-regularized surrogate with weight
    1/``regularization`` on the lower objective; ``exact_reg_project``, when
    supplied by a problem constructor, solves that surrogate in closed form
    and serves as the reference projector.
    """

    feasible: SimpleSet
    objective: Callable[[Array, Array], float]
    grad: Callable[[Array, Array], Array]
    curvature: float
    regularization: float
    gamma: float = 0.0
    exact_reg_project: Optional[Callable[[Array, Array], Array]] = None
    # optional factory hoisting the x-dependent part of the gradient out of
    # the inner loop: grad_at(x) returns y -> grad(x, y)
    grad_at: Optional[Callable[[Array], Callable[[Array], Array]]] = None
    min_value_budget: int = 20000

    def __post_init__(self):
        if not (self.regularization > 0):
            raise DimensionMismatch("regularization weight must be positive")
        if not (self.curvature >= 0):
            raise DimensionMismatch("curvature bound must be nonnegative")

    @property
    def dim(self) -> int:
        return self.feasible.dim

    @property
    def exact(self) -> bool:
        return self.exact_reg_project is not None

    @property
    def certificate_constant(self) -> Optional[float]:
        diam = self.feasible.diameter()
        if not np.isfinite(diam):
            return None
        return 2.0 * math.sqrt(1.0 + self.curvature / self.regularization) * diam

    def exact_project(self, x: Array, u: Array) -> Array:
        return np.asarray(self.exact_reg_project(x, u), dtype=float)

    def project(self, x: Array, u: Array, t: int, ambient: Optional[SimpleSet]) -> ProjectionResult:
        # FISTA on the 1-strongly convex surrogate 0.5||y-u||^2 + objective/regularization
        w = 1.0 / self.regularization
        inner_grad = self.grad_at(x) if self.grad_at is not None else (lambda y: self.grad(x, y))
        res = fista_solve(
            value=lambda y: 0.5 * float((y - u) @ (y - u)) + w * float(self.objective(x, y)),
            grad=lambda y: (y - u) + w * np.asarray(inner_grad(y), dtype=float),
            curvature=1.0 + w * self.curvature,
            strong_convexity=1.0,
            feasible=self.feasible,
            y0=self.feasible.project(u),
            t=t,
            dist0_bound=self.feasible.diameter(),
        )
        bound = _capped(res.dist_bound, self.feasible)
        return ProjectionResult(_snap(res.point, ambient), bound, t, 0.0)

    def contains(self, x: Array, y: Array, tol: float) -> bool:
        if not self.feasible.contains(y, tol):
            return False
        return float(self.objective(x, y)) - self.min_value(x) <= tol

    def min_value(self, x: Array, budget: Optional[int] = None) -> float:
        """High-accuracy minimum of the lower objective at parameter x."""
        budget = budget or self.min_value_budget
        try:
            y0 = self.feasible.anchor()
        except UnsupportedSet:
            y0 = np.zeros(self.dim)
        res = fista_solve(
            value=lambda y: self.objective(x, y),
            grad=lambda y: self.grad(x, y),
            curvature=max(self.curvature, 1e-12),
            strong_convexity=0.0,
            feasible=self.feasible,
            y0=y0,
            t=budget,
        )
        return float(self.objective(x, res.point))


SetValuedMap = Union[FixedSet, TranslatedSet, NonlinearConvex, ArgminSet]


def member(mapping: SetValuedMap, x, y, tol: float = 0.0) -> bool:
    """Whether y lies in K(x) up to tol.

    For inequality-constrained maps the test is componentwise g(x, y) <= tol
    inside the ambient set; for argmin maps it is lower-objective
    suboptimality <= tol inside the feasible set.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (mapping.dim,):
        raise DimensionMismatch(f"candidate has shape {y.shape}, expected ({mapping.dim},)")
    return mapping.contains(x, y, tol)


def translated_projection(mapping: TranslatedSet, x, u) -> Array:
    """Exact projection onto a translated set: shift(x) + P_base(u - shift(x))."""
    if not isinstance(mapping, TranslatedSet):
        raise TypeError("translated_projection requires a TranslatedSet")
    if not has_closed_form(mapping.base_set):
        raise UnsupportedBaseSet("base set lacks a closed-form projection")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    m = np.asarray(mapping.shift(x), dtype=float)
    return m + mapping.base_set.project(u - m)



class ContractivityReport(NamedTuple):
    max_ratio: float
    passed: bool
    declared: float
    skipped: int


def contractivity_audit(
    mapping: SetValuedMap,
    projector: Callable[[Array, Array], Array],
    triples: Sequence,
    declared: Optional[float] = None,
) -> ContractivityReport:
    """Max over triples (x, y, u) of ||P_K(x)[u] - P_K(y)[u]|| / ||x - y||.

    ``projector(x, u)`` must be a high-accuracy projection onto K(x).
    Triples with ||x - y|| < 1e-12 are degenerate and skipped. Passes when
    the ratio does not exceed the declared gamma plus 1e-6.
    """
    declared = mapping.gamma if declared is None else declared
    worst = 0.0
    skipped = 0
    for x, y, u in triples:
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        nrm = float(np.linalg.norm(x - y))
        if nrm < 1e-12:
            skipped += 1
            continue
        px = np.asarray(projector(x, u), float)
        py = np.asarray(projector(y, u), float)
        worst = max(worst, float(np.linalg.norm(px - py)) / nrm)
    return ContractivityReport(
        max_ratio=worst, passed=worst <= declared + 1e-6, declared=declared, skipped=skipped
    )
