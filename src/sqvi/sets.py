"""Closed convex sets with closed-form Euclidean projections.

Concrete carriers for constraint sets: balls, products of equal
origin-centred balls, boxes, the probability simplex, a halfspace and
affine sets. Every set projects exactly up to floating point, one point or
each row of a stack. A system of two or more halfspaces has no closed form,
so it is not a set here but a :class:`sqvi.maps.NonlinearConvex` map with
linear constraints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedSet

Array = np.ndarray


def _vec(x, dim=None, name="vector") -> Array:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    elif v.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dimension {v.shape[0]}, expected {dim}")
    return v


def _points(u, dim: int) -> Array:
    """One point ``(dim,)`` or a stack ``(..., dim)`` of points, as floats; a
    0-d input is one point of a one-dimensional set."""
    v = np.asarray(u, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape[-1] != dim:
        raise DimensionMismatch(f"point has dimension {v.shape[-1]}, expected {dim}")
    return v


def squared_norms(d: Array) -> Array:
    """d . d of one vector, or of each row of a stack ``(..., dim)``: one dot
    product per row, the one a lone ``d @ d`` takes, so each row is bit for
    bit the lone value."""
    return np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0]


class SimpleSet:
    """Interface: exact projection, membership, anchor point, diameter."""

    dim: int

    def project(self, u: Array) -> Array:
        """Projection of one point ``(dim,)``, or of each row of a stack
        ``(..., dim)`` bit for bit as a lone call would project it."""
        raise NotImplementedError

    def contains(self, y: Array, tol: float = 0.0) -> bool:
        raise NotImplementedError

    def anchor(self) -> Array:
        """A canonical point of the set, used as a default start/initial point."""
        raise UnsupportedSet(f"{type(self).__name__} has no canonical anchor point")

    def diameter(self) -> float:
        return float("inf")


@dataclass(frozen=True, eq=False)
class Ball(SimpleSet):
    """Euclidean ball {y : ||y - center|| <= radius}."""

    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center, name="center"))
        if not self.radius > 0:
            raise UnsupportedSet("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def project(self, u: Array) -> Array:
        """A point inside comes back bit for bit."""
        u = _points(u, self.dim)
        d = u - self.center
        # a lone point and each row of a stack take the same sum of squares,
        # so a row projects bit for bit as it would alone
        nrm = np.sqrt((d * d).sum(axis=-1, keepdims=True))
        # radius / nrm where the row is outside; 1 (and no division by 0) inside
        scale = self.radius / np.maximum(nrm, self.radius)
        return np.where(nrm <= self.radius, u, self.center + d * scale)

    def contains(self, y: Array, tol: float = 0.0) -> bool:
        y = _vec(y, self.dim, "point")
        return float(np.linalg.norm(y - self.center)) <= self.radius + tol

    def anchor(self) -> Array:
        return self.center.copy()

    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True, eq=False)
class BlockBalls(SimpleSet):
    """Product of ``blocks`` origin-centred balls of equal ``radius``, one on
    each consecutive length-``block_dim`` block of y."""

    blocks: int
    block_dim: int
    radius: float

    def __post_init__(self):
        if self.blocks < 1 or self.block_dim < 1:
            raise DimensionMismatch("blocks and block_dim must be >= 1")
        if not self.radius > 0:
            raise UnsupportedSet("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.blocks * self.block_dim

    def project(self, u: Array) -> Array:
        u = _points(u, self.dim)
        mat = u.reshape(u.shape[:-1] + (self.blocks, self.block_dim))
        # every row inside (the game's FISTA start points and snapped results): unscaled
        if ((mat * mat).sum(axis=-1) <= self.radius * self.radius).all():
            return u.copy()
        nrm = np.linalg.norm(mat, axis=-1)
        scale = np.where(nrm > self.radius, self.radius / np.maximum(nrm, 1e-300), 1.0)
        return (mat * scale[..., None]).reshape(u.shape)

    def contains(self, y: Array, tol: float = 0.0) -> bool:
        norms = np.linalg.norm(_vec(y, self.dim, "point").reshape(self.blocks, self.block_dim), axis=1)
        return bool(np.all(norms <= self.radius + tol))

    def anchor(self) -> Array:
        return np.zeros(self.dim)

    def diameter(self) -> float:
        return 2.0 * self.radius * math.sqrt(self.blocks)


@dataclass(frozen=True, eq=False)
class Box(SimpleSet):
    """Axis-aligned box {y : lo <= y <= hi} componentwise. lo == hi is allowed."""

    lo: Array
    hi: Array

    def __post_init__(self):
        object.__setattr__(self, "lo", _vec(self.lo, name="lo"))
        object.__setattr__(self, "hi", _vec(self.hi, self.lo.shape[0], "hi"))
        # written so that a NaN bound fails it too
        if not np.all(self.lo <= self.hi):
            raise UnsupportedSet("box requires lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def project(self, u: Array) -> Array:
        u = _points(u, self.dim)
        # np.clip's result bit for bit (signed zeros and NaN included), at
        # less than half its call overhead on short vectors
        out = np.maximum(u, self.lo)
        return np.minimum(out, self.hi, out=out)

    def contains(self, y: Array, tol: float = 0.0) -> bool:
        y = _vec(y, self.dim, "point")
        return bool(np.all(y >= self.lo - tol) and np.all(y <= self.hi + tol))

    def anchor(self) -> Array:
        return 0.5 * (self.lo + self.hi)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))


@dataclass(frozen=True, eq=False)
class Simplex(SimpleSet):
    """Scaled probability simplex {y : y >= 0, sum(y) = scale}."""

    dim: int
    scale: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("simplex dimension must be >= 1")
        if not self.scale > 0:
            raise UnsupportedSet("simplex scale must be positive")

    def project(self, u: Array) -> Array:
        # sort-based, O(n log n) per row and exact
        u = _points(u, self.dim)
        srt = np.sort(u, axis=-1)[..., ::-1]
        css = np.cumsum(srt, axis=-1)
        cond = srt - (css - self.scale) / np.arange(1, self.dim + 1) > 0
        # the last index where cond holds
        rho = self.dim - 1 - np.argmax(cond[..., ::-1], axis=-1)[..., None]
        theta = (np.take_along_axis(css, rho, axis=-1) - self.scale) / (rho + 1.0)
        return np.maximum(u - theta, 0.0)

    def contains(self, y: Array, tol: float = 0.0) -> bool:
        y = _vec(y, self.dim, "point")
        return bool(np.all(y >= -tol) and abs(float(np.sum(y)) - self.scale) <= tol + 1e-15)

    def anchor(self) -> Array:
        return np.full(self.dim, self.scale / self.dim)

    def diameter(self) -> float:
        return float(np.sqrt(2.0) * self.scale)


@dataclass(frozen=True, eq=False)
class Halfspaces(SimpleSet):
    """Halfspace {y : a'y <= b}, given as one row ``normals`` and one ``offsets``.

    Two or more rows have no closed-form projection and raise UnsupportedSet;
    a system A y <= b is the map ``NonlinearConvex(ambient, constraint=lambda
    x, y: A @ y - b, jacobian=lambda x, y: A)``.
    """

    normals: Array
    offsets: Array

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.normals, dtype=float))
        if a.shape[0] != 1:
            raise UnsupportedSet(
                f"Halfspaces takes one row, got {a.shape[0]}: a system A y <= b has no closed-form "
                "projection; write it as NonlinearConvex(constraint=A @ y - b, jacobian=A)"
            )
        b = _vec(self.offsets, 1, "offsets")
        if np.any(np.linalg.norm(a, axis=1) == 0.0):
            raise UnsupportedSet("halfspace normal must be nonzero")
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def project(self, u: Array) -> Array:
        u = _points(u, self.dim)
        a = self.normals[0]
        viol = (u * a).sum(axis=-1, keepdims=True) - self.offsets[0]
        return np.where(viol <= 0.0, u, u - (viol / float(a @ a)) * a)

    def contains(self, y: Array, tol: float = 0.0) -> bool:
        y = _vec(y, self.dim, "point")
        return bool(np.all(self.normals @ y - self.offsets <= tol))


@dataclass(frozen=True, eq=False)
class AffineSet(SimpleSet):
    """Affine set {y : A y = b}."""

    A: Array
    b: Array

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        rhs = _vec(self.b, a.shape[0], "b")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", rhs)
        object.__setattr__(self, "_pinv", np.linalg.pinv(a))

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def project(self, u: Array) -> Array:
        u = _points(u, self.dim)
        # one (1, dim) row product per point, so a row of a stack rounds as
        # it would alone
        rows = u[..., None, :]
        return u - ((rows @ self.A.T - self.b) @ self._pinv.T)[..., 0, :]

    def contains(self, y: Array, tol: float = 0.0) -> bool:
        y = _vec(y, self.dim, "point")
        return float(np.max(np.abs(self.A @ y - self.b), initial=0.0)) <= tol

    def anchor(self) -> Array:
        return self._pinv @ self.b
