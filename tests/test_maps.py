import numpy as np
import pytest

from sqvi.errors import DimensionMismatch
from sqvi.maps import (
    ArgminSet,
    FixedSet,
    NonlinearConvex,
    TranslatedSet,
    contractivity_audit,
    member,
)
from sqvi.projection import ProjectionResult, inexact_project, reference_project
from sqvi.sets import Ball, BlockBalls, Box

unit_ball = Ball(np.zeros(2), 1.0)


def half_shift_ball():
    return TranslatedSet(base_set=unit_ball, shift=lambda x: 0.5 * x, shift_lipschitz=0.5)


def test_member_fixed_ball():
    assert member(FixedSet(unit_ball), np.zeros(2), np.array([0.5, 0.0]), tol=0.0)
    assert not member(FixedSet(unit_ball), np.zeros(2), np.array([1.5, 0.0]), tol=0.0)


def test_member_translated_boundary():
    m = half_shift_ball()
    assert member(m, np.array([2.0, 0.0]), np.array([2.0, 0.0]), tol=0.0)


def test_member_nonlinear_convex():
    m = NonlinearConvex(
        ambient=Box(np.full(2, -5.0), np.full(2, 5.0)),
        constraint=lambda x, y: np.array([float(y @ y) - x[0]]),
        jacobian=lambda x, y: 2.0 * y[None, :],
    )
    assert not member(m, np.array([1.0, 0.0]), np.array([1.1, 0.0]), tol=1e-6)
    assert member(m, np.array([1.0, 0.0]), np.array([0.9, 0.0]), tol=1e-6)


def test_member_argmin_set():
    # lower objective 0.5*(y-2)^2 over [0,1]: argmin is {1}
    m = ArgminSet(
        feasible=Box([0.0], [1.0]),
        hessian=[[1.0]],
        linear=lambda x: np.array([-2.0]),
        regularization=1e-2,
    )
    assert member(m, np.zeros(1), np.array([1.0]), tol=1e-8)
    assert not member(m, np.zeros(1), np.array([0.4]), tol=1e-3)


def test_member_argmin_rank_deficient_block_quadratic():
    # each 3-dim block's hessian has rank 1, so the minimizers are the
    # minimizer c plus the null space of H, cut by the balls
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((2, 1, 3))
    stack = rows.transpose(0, 2, 1) @ rows
    c = np.array([0.2, -0.1, 0.3, -0.3, 0.1, 0.2])
    h = np.zeros((6, 6))
    h[:3, :3], h[3:, 3:] = stack
    m = ArgminSet(
        feasible=BlockBalls(2, 3, 1.0), hessian=stack, linear=lambda x: -h @ c, regularization=1e-2
    )
    null = np.linalg.svd(h)[2][2:]  # the last four right singular vectors span the null space
    n = 0.15 * null.T @ rng.standard_normal(4)
    assert m.feasible.contains(c + n) and np.linalg.norm(h @ n) <= 1e-12
    x = np.zeros(6)
    assert member(m, x, c + n, tol=1e-10)
    v = 0.1 * rows.reshape(2, 3).ravel()  # in the range of H, inside the balls
    assert m.feasible.contains(c + v)
    assert not member(m, x, c + v, tol=1e-3)


def test_argmin_set_derives_curvature_from_hessian():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((3, 5, 4))
    stack = b.transpose(0, 2, 1) @ b
    top = max(float(np.linalg.eigvalsh(h)[-1]) for h in stack)
    lin = lambda x: np.zeros(12)
    m = ArgminSet(feasible=BlockBalls(3, 4, 1.0), hessian=stack, linear=lin, regularization=0.1)
    assert m.curvature == pytest.approx(top, rel=1e-12)
    # a (dim, dim) array is one block
    one = ArgminSet(feasible=Ball(np.zeros(4), 1.0), hessian=stack[0], linear=lin, regularization=0.1)
    assert one.hessian.shape == (1, 4, 4)
    assert one.curvature == pytest.approx(float(np.linalg.eigvalsh(stack[0])[-1]), rel=1e-12)
    bad = {
        "not square": np.zeros((3, 4, 5)),
        "wrong dim": np.zeros((2, 4, 4)),
        "indefinite": -stack,
        "asymmetric": stack + np.triu(np.ones((4, 4)), 1),
    }
    for hessian in bad.values():
        with pytest.raises(DimensionMismatch):
            ArgminSet(feasible=BlockBalls(3, 4, 1.0), hessian=hessian, linear=lin, regularization=0.1)


def test_translated_projection_worked_values():
    m = half_shift_ball()
    np.testing.assert_allclose(
        m.exact_project(np.array([2.0, 0.0]), np.array([2.0, 0.0])), [2.0, 0.0]
    )
    np.testing.assert_allclose(
        m.exact_project(np.zeros(2), np.array([3.0, 4.0])), [0.6, 0.8]
    )
    box_map = TranslatedSet(
        base_set=Box(-np.ones(2), np.ones(2)), shift=lambda x: np.zeros(2), shift_lipschitz=0.0
    )
    np.testing.assert_allclose(
        box_map.exact_project(np.zeros(2), np.array([2.0, -3.0])), [1.0, -1.0]
    )


def _translated_parity(m, ambient, x, u):
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    point = inexact_project(m, x, u, 1, ambient).point
    expected = m.exact_project(x, u) if ambient is None else ambient.project(m.exact_project(x, u))
    assert point.shape == expected.shape and point.tobytes() == expected.tobytes()


def test_translated_projection_is_exact_project_snapped_bit_for_bit(rng):
    # the solver path's bits are those of the closed form snapped onto the
    # ambient set, signed zeros and NaN included
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 2.5, -2.5])
    dim = special.size
    for lo, hi, slope in [(-1.0, 1.0, 0.04), (-0.0, 0.0, 0.5), (0.0, 1.0, 0.1), (-1.0, -0.0, 0.0)]:
        m = TranslatedSet(Box(np.full(dim, lo), np.full(dim, hi)), lambda x, s=slope: s * x, slope)
        scale = 1.0 / (1.0 - slope)
        for ambient in (None, Box(np.full(dim, lo * scale), np.full(dim, hi * scale))):
            # on the faces of both boxes, and through the special values
            pairs = [(np.zeros(dim), np.full(dim, lo)), (np.zeros(dim), np.full(dim, hi)),
                     (np.full(dim, hi * scale), np.full(dim, hi * scale)), (np.zeros(dim), special),
                     (special, special[::-1]), (-special, special)]
            for x, u in pairs:
                with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf
                    _translated_parity(m, ambient, x, u)
    # random points and stacks around per-coordinate faces, on a box and a ball
    lo = rng.standard_normal(20)
    hi = np.where(rng.random(20) < 0.25, lo, lo + rng.random(20))
    ambient = Box(lo - 3.0, hi + 3.0)
    for base in (Box(lo, hi), Ball(np.zeros(20), 1.5)):
        m = TranslatedSet(base, lambda x: 0.3 * x, 0.3)
        for _ in range(30):
            x, u = 2.0 * rng.standard_normal((2, 20))
            _translated_parity(m, ambient, x, u)
            _translated_parity(m, None, x, u)
        xs, us = 2.0 * rng.standard_normal((2, 5, 20))
        _translated_parity(m, ambient, xs, us)
        _translated_parity(m, ambient, xs[0], us)


@pytest.mark.parametrize("shape", [(3,), (5,), (1,), (2, 3)])
def test_translated_projection_rejects_a_wrong_size_target(shape):
    m = TranslatedSet(Box(-np.ones(4), np.ones(4)), lambda x: 0.1 * x, 0.1)
    with pytest.raises(DimensionMismatch):
        m.exact_project(np.zeros(4), np.zeros(shape))
    with pytest.raises(DimensionMismatch):
        m.project(np.zeros(4), np.zeros(shape), 1, 0.0)
    with pytest.raises(DimensionMismatch):
        inexact_project(m, np.zeros(4), np.zeros(shape), 1, ambient=Box(-2 * np.ones(4), 2 * np.ones(4)))


def test_gamma_defaults_to_twice_shift_constant():
    assert half_shift_ball().gamma == 1.0
    assert FixedSet(unit_ball).gamma == 0.0


def test_contractivity_fixed_set_is_zero(rng):
    m = FixedSet(unit_ball)
    triples = rng.standard_normal((50, 3, 2))
    rep = contractivity_audit(m, lambda x, u: unit_ball.project(u), triples)
    assert rep.max_ratio == 0.0 and rep.passed


def test_contractivity_translated_bound(rng):
    m = TranslatedSet(base_set=unit_ball, shift=lambda x: 0.1 * x, shift_lipschitz=0.1)
    triples = [tuple(3.0 * rng.standard_normal((3, 2))) for _ in range(10000)]
    rep = contractivity_audit(m, m.exact_project, triples)
    assert rep.max_ratio <= 0.2 + 1e-9
    assert rep.passed


def test_contractivity_collinear_far_query():
    # u far out along the shift direction: the exact ratio approaches the
    # shift constant, half the declared bound
    m = TranslatedSet(base_set=unit_ball, shift=lambda x: 0.1 * x, shift_lipschitz=0.1)
    e = np.array([1.0, 0.0])
    triples = [(0.5 * e, 1.5 * e, 1e6 * e)]
    rep = contractivity_audit(m, m.exact_project, triples)
    assert abs(rep.max_ratio - 0.1) <= 1e-5


def test_contractivity_skips_degenerate_triples(rng):
    m = FixedSet(unit_ball)
    x = rng.standard_normal(2)
    triples = [(x, x.copy(), rng.standard_normal(2))]
    rep = contractivity_audit(m, lambda x, u: unit_ball.project(u), triples)
    assert rep.skipped == 1


def test_reference_project_closed_forms():
    np.testing.assert_allclose(
        reference_project(FixedSet(unit_ball), np.zeros(2), np.array([3.0, 4.0])), [0.6, 0.8]
    )
    m = half_shift_ball()
    np.testing.assert_allclose(
        reference_project(m, np.zeros(2), np.array([3.0, 4.0])), [0.6, 0.8]
    )


# ---------------------------------------------------------------------------
# the map protocol: project, exact, exact_project, contains


def _lower_argmin(feasible):
    # lower objective 0.5*(y-2)^2 over [0,1]; the surrogate
    # 0.5*(y-u)^2 + 0.5*(y-2)^2/sigma solves to clip((u + 2/sigma)/(1 + 1/sigma), 0, 1)
    return ArgminSet(
        feasible=feasible,
        hessian=[[1.0]],
        linear=lambda x: np.array([-2.0]),
        regularization=1e-2,
    )


def _mismatched_block_balls():
    # lower objective 0.5||y - (2, 2)||^2 over [-1, 1]^2, written as two
    # one-dimensional balls under one 2 x 2 hessian block: no closed form
    return ArgminSet(
        feasible=BlockBalls(2, 1, 1.0),
        hessian=np.eye(2),
        linear=lambda x: np.full(2, -2.0),
        regularization=1e-2,
    )


def _halfspace_system():
    # a system of halfspaces has no closed form; it is a NonlinearConvex map
    a, b = np.eye(2), np.array([0.5, 0.25])
    return NonlinearConvex(
        ambient=Box(np.full(2, -5.0), np.full(2, 5.0)),
        constraint=lambda x, y: a @ y - b,
        jacobian=lambda x, y: a,
        jacobian_bound=1.0,
    )


PROTOCOL_CASES = {
    # name: (map factory, exact, solver path is a closed form)
    "fixed-ball": (lambda: FixedSet(unit_ball), True, True),
    "fixed-halfspaces": (_halfspace_system, False, False),
    "translated-ball": (half_shift_ball, True, True),
    "fixed-block-balls": (lambda: FixedSet(BlockBalls(2, 2, 1.0)), True, True),
    "translated-block-balls": (
        lambda: TranslatedSet(base_set=BlockBalls(2, 2, 1.0), shift=lambda x: 0.5 * x, shift_lipschitz=0.5),
        True,
        True,
    ),
    "nonlinear-convex": (
        lambda: NonlinearConvex(
            ambient=Box(np.full(2, -5.0), np.full(2, 5.0)),
            constraint=lambda x, y: np.array([float(y @ y) - 1.0]),
            jacobian=lambda x, y: 2.0 * y[None, :],
        ),
        False,
        False,
    ),
    "argmin": (lambda: _lower_argmin(Box([0.0], [1.0])), False, False),
    # over a ball the surrogate has a closed form, so references are exact;
    # the solver still runs FISTA. [0, 1] is the ball about 0.5 of radius 0.5
    "argmin-closed-form": (lambda: _lower_argmin(Ball([0.5], 0.5)), True, False),
    "argmin-block-size-mismatch": (_mismatched_block_balls, False, False),
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_map_protocol_contract(name):
    make_map, exact, closed_form = PROTOCOL_CASES[name]
    m = make_map()
    x, u = np.full(m.dim, 0.3), np.full(m.dim, 2.0)
    assert m.exact is exact
    ref = reference_project(m, x, u, budget=4000)
    first = inexact_project(m, x, u, t=1)
    if closed_form:
        assert first.error_bound == 0.0 and first.inner_iterations == 0
        np.testing.assert_array_equal(first.point, ref)
    else:
        assert np.linalg.norm(first.point - ref) <= first.error_bound + 1e-12 and first.inner_iterations == 1
        long_run = inexact_project(m, x, u, t=4000)
        if exact:
            np.testing.assert_allclose(long_run.point, ref, atol=long_run.error_bound)
        else:
            np.testing.assert_array_equal(long_run.point, ref)
    assert member(m, x, ref, tol=1e-6)
    # the map returns its solver's record, and inexact_project alone snaps
    # its point onto a caller's ambient set, keeping bound and iterations
    own = m.project(x, u, 1, 0.0)
    assert isinstance(own, ProjectionResult)
    assert inexact_project(m, x, u, 1).point.tobytes() == own.point.tobytes()
    ambient = Box(np.full(m.dim, -0.5), np.full(m.dim, 0.5))
    snapped = inexact_project(m, x, u, 1, ambient)
    assert (snapped.error_bound, snapped.inner_iterations) == (own.error_bound, own.inner_iterations)
    assert snapped.point.tobytes() == ambient.project(own.point).tobytes()
    assert snapped.point.tobytes() != own.point.tobytes()


def _argmin_over_balls(kind):
    # lower objective 0.5||B_i (y_i - c_i)||^2 + y'Dx per block, each B_i of
    # rank b - 2, over one ball about a nonzero centre or over block balls of
    # radius 1; the minimizers c_i lie 0.5, 4 and 1.5 from the centre
    rng = np.random.default_rng(21)
    blocks, b = (1, 6) if kind == "centred-ball" else (3, 4)
    rows = rng.standard_normal((blocks, b - 2, b))
    stack = rows.transpose(0, 2, 1) @ rows
    feasible = Ball(np.full(b, 0.4), 1.0) if kind == "centred-ball" else BlockBalls(blocks, b, 1.0)
    c = rng.standard_normal((blocks, b))
    c *= (np.array([0.5, 4.0, 1.5])[:blocks] / np.linalg.norm(c, axis=1))[:, None]
    hc = (stack @ (c.reshape(-1) + feasible.anchor()).reshape(blocks, b, 1)).reshape(-1)
    d = 0.1 * rng.standard_normal((blocks * b, blocks * b))
    m = ArgminSet(feasible=feasible, hessian=stack, linear=lambda x: x @ d.T - hc, regularization=0.1)
    return m, rng


@pytest.mark.parametrize("kind", ["centred-ball", "block-balls"])
def test_argmin_closed_form_within_long_fista_certificate(kind):
    m, rng = _argmin_over_balls(kind)
    assert m.exact
    xs, us = 0.3 * rng.standard_normal((2, 4, m.dim))
    batch = m.exact_project(xs, us)
    assert batch.shape == xs.shape
    saw_active = saw_inactive = False
    for x, u, y in zip(xs, us, batch):
        np.testing.assert_allclose(m.exact_project(x, u), y, rtol=0, atol=1e-13)
        res = inexact_project(m, x, u, t=3000)
        assert res.error_bound <= 1e-10
        assert np.linalg.norm(y - res.point) <= res.error_bound + 1e-12
        if isinstance(m.feasible, Ball):
            norms = np.array([np.linalg.norm(y - m.feasible.center)])
        else:
            norms = np.linalg.norm(y.reshape(3, 4), axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        saw_active |= bool(np.any(norms >= 1.0 - 1e-12))
        saw_inactive |= bool(np.any(norms < 1.0 - 1e-3))
    assert saw_active and saw_inactive


@pytest.mark.parametrize("kind", ["centred-ball", "block-balls"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
def test_argmin_fista_certificate_bounds_distance_to_closed_form(kind, rel_tol):
    # FISTA decides ball membership in the hessian's eigenbasis; at every
    # budget its certificate still bounds the distance to the closed form
    m, rng = _argmin_over_balls(kind)
    xs, us = 0.3 * rng.standard_normal((2, 4, m.dim))
    for x, u in zip(xs, us):
        y = m.exact_project(x, u)
        for t in (1, 3, 10, 30, 100, 300):
            res = inexact_project(m, x, u, t, rel_tol=rel_tol)
            assert np.linalg.norm(res.point - y) <= res.error_bound, t
