import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqvi.errors import DimensionMismatch, UnsupportedSet
from sqvi.sets import (
    AffineSet,
    Ball,
    BlockBalls,
    Box,
    Halfspaces,
    Simplex,
)

KINDS = {
    "ball": Ball(np.zeros(3), 1.5),
    "box": Box(-np.ones(3), np.ones(3)),
    "simplex": Simplex(3, scale=1.0),
    "halfspace": Halfspaces([[1.0, -2.0, 0.5]], [0.7]),
    "affine": AffineSet([[1.0, 1.0, 0.0]], [1.0]),
    "block-balls": BlockBalls(3, 1, 1.5),
}

coords = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
vectors3 = st.lists(coords, min_size=3, max_size=3).map(np.asarray)


def test_ball_projection_radial():
    np.testing.assert_allclose(Ball(np.zeros(2), 1.0).project([3.0, 4.0]), [0.6, 0.8])


def test_box_projection_clamps():
    np.testing.assert_allclose(Box([0.0, 0.0], [1.0, 1.0]).project([-1.0, 0.5]), [0.0, 0.5])


def test_simplex_projection_worked_value():
    np.testing.assert_allclose(Simplex(2).project([0.4, 0.4]), [0.5, 0.5], atol=1e-15)


def test_simplex_projection_beats_grid_oracle():
    # brute force over a fine grid of the 2-simplex
    s = Simplex(2)
    grid = np.linspace(0.0, 1.0, 2001)
    cand = np.stack([grid, 1.0 - grid], axis=1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.uniform(-2, 2, size=2)
        p = s.project(u)
        best = cand[np.argmin(np.sum((cand - u) ** 2, axis=1))]
        assert np.linalg.norm(p - u) <= np.linalg.norm(best - u) + 1e-9
        assert s.contains(p, 1e-12)


def test_halfspace_projection_formula():
    hs = Halfspaces([[1.0, 0.0]], [0.5])
    np.testing.assert_allclose(hs.project([2.0, 1.0]), [0.5, 1.0])
    np.testing.assert_allclose(hs.project([0.2, -3.0]), [0.2, -3.0])


def test_affine_projection_coordinates():
    aff = AffineSet([[1.0, 0.0]], [0.0])
    np.testing.assert_allclose(aff.project([2.0, 7.0]), [0.0, 7.0])


def test_multi_halfspace_has_no_closed_form():
    # a system of halfspaces is a NonlinearConvex map, not a set
    with pytest.raises(UnsupportedSet, match="NonlinearConvex"):
        Halfspaces([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])


def test_invalid_constructions():
    with pytest.raises(UnsupportedSet):
        Ball(np.zeros(2), 0.0)
    with pytest.raises(UnsupportedSet):
        Box([1.0], [0.0])
    # a NaN bound, in lo or in hi, fails lo <= hi too
    with pytest.raises(UnsupportedSet):
        Box([np.nan, 0.0], [1.0, np.inf])
    with pytest.raises(UnsupportedSet):
        Box([0.0, -np.inf], [np.nan, 1.0])
    with pytest.raises(DimensionMismatch):
        Ball(np.zeros(2), 1.0).project([1.0, 2.0, 3.0])


@pytest.mark.parametrize("make", [lambda r: Ball(np.zeros(2), r), lambda r: BlockBalls(2, 3, r)])
@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_non_positive_radius_is_an_unsupported_set(make, radius):
    # a caller catching one set error catches every ball's
    with pytest.raises(UnsupportedSet, match="radius must be positive"):
        make(radius)


def test_degenerate_box_is_a_point():
    pt = Box([0.3, -0.2], [0.3, -0.2])
    np.testing.assert_allclose(pt.project([9.0, 9.0]), [0.3, -0.2])


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(u=vectors3, v=vectors3)
def test_nonexpansive(kind, u, v):
    s = KINDS[kind]
    pu, pv = s.project(u), s.project(v)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-10
    assert np.linalg.norm(pu - pv) <= s.diameter() + 1e-10


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(u=vectors3, w=vectors3)
def test_variational_characterization(kind, u, w):
    s = KINDS[kind]
    pu = s.project(u)
    x = s.project(w)  # a feasible point
    assert float((pu - u) @ (x - pu)) >= -1e-10 * max(1.0, np.linalg.norm(u)) * max(1.0, np.linalg.norm(x))


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(u=vectors3)
def test_idempotent(kind, u):
    s = KINDS[kind]
    pu = s.project(u)
    assert np.linalg.norm(s.project(pu) - pu) <= 1e-12 * max(1.0, np.linalg.norm(pu))
    assert s.contains(pu, 1e-10 * max(1.0, np.linalg.norm(u)))


def test_anchors_are_members():
    for name, s in KINDS.items():
        if name == "halfspace":
            with pytest.raises(UnsupportedSet):
                s.anchor()
            continue
        assert s.contains(s.anchor(), 1e-9), name


def _clip_parity(box, u):
    got = box.project(u)
    want = np.clip(np.atleast_1d(np.asarray(u, dtype=float)), box.lo, box.hi)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (u, got, want)


def test_box_projection_is_np_clip_bit_for_bit(rng):
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 2.5, -2.5]
    for lo, hi in [(-1.0, 1.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (-0.0, -0.0), (0.0, 1.0), (-1.0, -0.0)]:
        box = Box(np.full(len(special), lo), np.full(len(special), hi))
        _clip_parity(box, special)
        _clip_parity(box, special[::-1])
    # random points, per-coordinate bounds, and lo == hi coordinates
    lo = rng.standard_normal(40)
    hi = np.where(rng.random(40) < 0.25, lo, lo + rng.random(40))
    box = Box(lo, hi)
    for _ in range(50):
        _clip_parity(box, 2.0 * rng.standard_normal(40))
    point = Box([0.5, -0.0], [0.5, -0.0])
    _clip_parity(point, [3.0, 0.0])
    # a 0-d input to a one-dimensional box
    _clip_parity(Box([-1.0], [1.0]), np.float64(-0.0))
    _clip_parity(Box([-1.0], [1.0]), 7.0)


def test_box_projection_shape_errors():
    box = Box(-np.ones(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        box.project(np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch):
        box.project(np.zeros(4))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("shape", [(4,), (2, 4), (2,)])
def test_wrong_size_point_is_a_dimension_mismatch(kind, shape):
    # every set is three-dimensional here
    s = KINDS[kind]
    with pytest.raises(DimensionMismatch):
        s.project(np.zeros(shape))
    if len(shape) == 1:
        with pytest.raises(DimensionMismatch):
            s.contains(np.zeros(shape))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stacked_projection_matches_lone_rows(kind):
    # a (4, dim) stack projects each row byte for byte as a lone call does
    s = KINDS[kind]
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4, s.dim)) * np.array([[0.2], [0.8], [2.0], [5.0]])
    out = s.project(stack)
    assert out.shape == stack.shape and not np.shares_memory(out, stack)
    assert not (out == stack).all()
    for row, u in zip(out, stack):
        assert row.tobytes() == s.project(u).tobytes()
    # a point inside a ball or box comes back untouched, in a stack too
    if kind in ("ball", "box", "block-balls"):
        assert (out == stack).all(axis=1).any()
