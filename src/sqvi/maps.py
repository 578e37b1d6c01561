"""Set-valued constraint maps K(x): projection, membership, exactness, audits.

Four map shapes are supported: a fixed set, a translated set m(x) + K, a
set cut out by convex inequalities g(x, y) <= 0 inside an ambient set (a
system of halfspaces among them), and the solution set of a parametric
convex lower-level problem. Every map carries a declared contractivity
constant ``gamma`` bounding how fast the projection onto K(x) moves with x.

Each map owns its projection: ``project(x, u, t, ambient, rel_tol)`` runs
its solver path (closed form, accelerated primal-dual or FISTA) for at most
t inner iterations with a certified error bound, ``exact`` says whether
``exact_project(x, u)`` is a closed form, and ``contains(x, y, tol)``
tests membership without an inner solve. The inner solvers live in
:mod:`sqvi.projection`, which does not import this module.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch
from .projection import BlockQuadratic, ProjectionResult, apd_solve, feasibility_witness, fista_solve
from .sets import Array, SimpleSet


def _snap(point: Array, ambient: Optional[SimpleSet]) -> Array:
    # the target projection lies in the ambient set, so snapping onto it
    # never increases the certified error
    return point if ambient is None else ambient.project(point)


def _capped(bound: float, domain: SimpleSet) -> float:
    diam = domain.diameter()
    return min(bound, diam) if np.isfinite(diam) else bound


@dataclass(frozen=True, eq=False)
class FixedSet:
    """K(x) = base_set for every x; gamma is 0 by definition."""

    base_set: SimpleSet

    exact = True

    @property
    def gamma(self) -> float:
        return 0.0

    @property
    def dim(self) -> int:
        return self.base_set.dim

    def exact_project(self, x: Array, u: Array) -> Array:
        return self.base_set.project(u)

    def project(
        self, x: Array, u: Array, t: int, ambient: Optional[SimpleSet], rel_tol: float
    ) -> ProjectionResult:
        """The closed form; ``t`` and ``rel_tol`` are ignored."""
        return ProjectionResult(_snap(self.base_set.project(u), ambient), 0.0, 0, 0.0)

    def contains(self, x: Array, y: Array, tol: float) -> bool:
        return self.base_set.contains(y, tol)


@dataclass(frozen=True, eq=False)
class TranslatedSet:
    """K(x) = shift(x) + base_set with shift Lipschitz constant shift_lipschitz.

    The declared gamma is twice the shift constant, which is what the
    translation identity for projections yields.
    """

    base_set: SimpleSet
    shift: Callable[[Array], Array]
    shift_lipschitz: float

    exact = True

    def __post_init__(self):
        if self.shift_lipschitz < 0:
            raise DimensionMismatch("shift Lipschitz constant must be nonnegative")

    @property
    def gamma(self) -> float:
        return 2.0 * self.shift_lipschitz

    @property
    def dim(self) -> int:
        return self.base_set.dim

    def exact_project(self, x: Array, u: Array) -> Array:
        """shift(x) + P_base(u - shift(x))."""
        m = np.asarray(self.shift(np.asarray(x, dtype=float)), dtype=float)
        return m + self.base_set.project(np.asarray(u, dtype=float) - m)

    def project(
        self, x: Array, u: Array, t: int, ambient: Optional[SimpleSet], rel_tol: float
    ) -> ProjectionResult:
        """The closed form; ``t`` and ``rel_tol`` are ignored."""
        return ProjectionResult(_snap(self.exact_project(x, u), ambient), 0.0, 0, 0.0)

    def contains(self, x: Array, y: Array, tol: float) -> bool:
        return self.base_set.contains(y - np.asarray(self.shift(x), float), tol)


@dataclass(frozen=True, eq=False)
class NonlinearConvex:
    """K(x) = {y in ambient : constraint(x, y) <= 0 componentwise}.

    ``constraint(x, y)`` returns an (m,) vector convex in y for each fixed x;
    ``jacobian(x, y)`` its (m, dim) derivative in y. ``jacobian_bound`` caps
    the Jacobian spectral norm over the ambient set (estimated on demand if
    omitted).
    """

    ambient: SimpleSet
    constraint: Callable[[Array, Array], Array]
    jacobian: Callable[[Array, Array], Array]
    gamma: float = 0.0
    jacobian_bound: Optional[float] = None

    exact = False

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def project(
        self, x: Array, u: Array, t: int, ambient: Optional[SimpleSet], rel_tol: float
    ) -> ProjectionResult:
        """``t`` primal-dual iterations with the a-priori C/t bound; ``rel_tol``
        is ignored, since the scheme has no a-posteriori certificate to stop on."""
        g_x = lambda y: self.constraint(x, y)
        j_x = lambda y: self.jacobian(x, y)
        res = apd_solve(
            u, constraint=g_x, jacobian=j_x, t=t, ambient=self.ambient,
            jacobian_bound=self.jacobian_bound,
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
class ArgminSet:
    """K(x) = argmin over a feasible set of a parametric convex quadratic in y.

    The lower objective's gradient in y is ``hessian @ y + linear(x)``.
    ``hessian`` is a symmetric positive semidefinite ``(blocks, b, b)``
    stack acting on consecutive length-b blocks of y (a ``(dim, dim)`` array
    is one block), and ``linear(x)`` is the gradient at y = 0. The objective
    is thus known up to a constant in y, which neither projection nor
    membership needs. ``curvature`` is derived as the largest eigenvalue of
    the hessian, from one eigendecomposition. Projections onto this set are
    computed through a Tikhonov-regularized surrogate with weight
    1/``regularization`` on the lower objective; ``exact_reg_project``, when
    supplied by a problem constructor, solves that surrogate in closed form
    and serves as the reference projector.
    """

    feasible: SimpleSet
    hessian: Array
    linear: Callable[[Array], Array]
    regularization: float
    gamma: float = 0.0
    exact_reg_project: Optional[Callable[[Array, Array], Array]] = None
    curvature: float = field(init=False)
    # I + hessian/regularization, the surrogate's hessian, in its eigenbasis
    _surrogate: BlockQuadratic = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.regularization > 0):
            raise DimensionMismatch("regularization weight must be positive")
        h = np.asarray(self.hessian, dtype=float)
        h = h[None] if h.ndim == 2 else h
        if h.ndim != 3 or h.shape[1] != h.shape[2] or h.shape[0] * h.shape[1] != self.feasible.dim:
            raise DimensionMismatch(
                f"hessian has shape {np.shape(self.hessian)}, expected (blocks, b, b) with "
                f"blocks*b = {self.feasible.dim}"
            )
        eigs, vecs = np.linalg.eigh(h)
        size = max(1.0, float(np.max(np.abs(h))))
        if not (np.max(np.abs(h - h.transpose(0, 2, 1))) <= 1e-12 * size and np.min(eigs) >= -1e-10 * size):
            raise DimensionMismatch("hessian must be symmetric positive semidefinite")
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "curvature", float(np.max(eigs)))
        object.__setattr__(self, "_surrogate", BlockQuadratic(1.0 + eigs / self.regularization, vecs, 1.0))

    @property
    def dim(self) -> int:
        return self.feasible.dim

    @property
    def exact(self) -> bool:
        return self.exact_reg_project is not None

    def exact_project(self, x: Array, u: Array) -> Array:
        return np.asarray(self.exact_reg_project(x, u), dtype=float)

    def project(
        self, x: Array, u: Array, t: int, ambient: Optional[SimpleSet], rel_tol: float
    ) -> ProjectionResult:
        """FISTA on the 1-strongly convex surrogate 0.5||y-u||^2 + objective/regularization,
        which is 0.5 y'My - c'y up to a constant, with M = I + H/sigma and
        c = u - linear(x)/sigma.

        The error bound is FISTA's gradient-mapping certificate. A positive
        ``rel_tol`` stops the solve once that certificate is at most
        ``rel_tol`` times the distance from x to the current iterate, so
        ``inner_iterations`` may fall below the cap t; with 0 it runs t steps.
        """
        res = fista_solve(
            self._surrogate,
            u - np.asarray(self.linear(x), dtype=float) / self.regularization,
            feasible=self.feasible,
            y0=self.feasible.project(u),
            t=t,
            rel_tol=rel_tol,
            anchor=x,
        )
        bound = _capped(res.dist_bound, self.feasible)
        return ProjectionResult(_snap(res.point, ambient), bound, res.iterations, 0.0)

    def contains(self, x: Array, y: Array, tol: float) -> bool:
        """Whether y lies in the feasible set up to ``tol`` and one projected
        gradient step y -> P(y - (H y + linear(x))/L), with L the curvature
        floored at 1e-15 as in FISTA, moves it by at most ``tol``. A point is
        a lower-level minimizer exactly when that step fixes it (Beck 2017,
        First-Order Methods in Optimization, Thm 10.7), so ``tol`` 0 is exact.
        """
        if not self.feasible.contains(y, tol):
            return False
        hy = np.matmul(self.hessian, y.reshape(self.hessian.shape[:2] + (1,))).reshape(-1)
        grad = hy + np.asarray(self.linear(x), dtype=float)
        step = y - self.feasible.project(y - grad / max(self.curvature, 1e-15))
        return float(np.linalg.norm(step)) <= tol


SetValuedMap = Union[FixedSet, TranslatedSet, NonlinearConvex, ArgminSet]


def member(mapping: SetValuedMap, x, y, tol: float = 0.0) -> bool:
    """Whether y lies in K(x) up to tol.

    For inequality-constrained maps the test is componentwise g(x, y) <= tol
    inside the ambient set. For argmin maps y must lie in the feasible set
    up to tol, and ``tol`` bounds how far one projected gradient step of the
    lower objective (step 1/curvature) moves y: the step fixes exactly the
    lower-level minimizers.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (mapping.dim,):
        raise DimensionMismatch(f"candidate has shape {y.shape}, expected ({mapping.dim},)")
    return mapping.contains(x, y, tol)


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

    ``projector(x, u)`` must be a high-accuracy projection of u onto K(x).
    Triples with ||x - y|| < 1e-12 are degenerate: they are skipped before
    projecting and counted. Passes when the ratio does not exceed the
    declared gamma plus 1e-6.
    """
    declared = mapping.gamma if declared is None else declared
    worst = 0.0
    skipped = 0
    for x, y, u in triples:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        nrm = float(np.linalg.norm(x - y))
        if nrm < 1e-12:
            skipped += 1
            continue
        diff = np.asarray(projector(x, u), dtype=float) - np.asarray(projector(y, u), dtype=float)
        worst = max(worst, float(np.linalg.norm(diff)) / nrm)
    return ContractivityReport(
        max_ratio=worst, passed=worst <= declared + 1e-6, declared=declared, skipped=skipped
    )
