import math
import re

import numpy as np
import pytest
import scipy.optimize

from sqvi.errors import InfeasibleSubproblem, InvalidConstants, InvalidParameters, NonfiniteValue
from sqvi.maps import ArgminSet, FixedSet, NonlinearConvex, TranslatedSet
from sqvi.operators import evaluate_mean, gaussian_operator, sample_batch
from sqvi.projection import (
    CHUNK,
    FRESH,
    BlockQuadratic,
    ProjectionResult,
    _eigenbasis_view,
    _NormView,
    _RotatedView,
    apd_solve,
    feasibility_witness,
    fista_solve,
    inexact_project,
    projection_rate_audit,
    reference_project,
)
from sqvi.sets import Ball, BlockBalls, Box, Halfspaces


def ball_constraint_map(bound=5.0):
    return NonlinearConvex(
        ambient=Box(np.full(2, -bound), np.full(2, bound)),
        constraint=lambda x, y: np.array([float(y @ y) - 1.0]),
        jacobian=lambda x, y: 2.0 * y[None, :],
    )


def rank_deficient_argmin(rng, n=10, rows=4, radius=3.0, sigma=1e-2):
    b_mat = rng.standard_normal((rows, n))
    c = b_mat @ rng.standard_normal(n)
    return ArgminSet(
        feasible=Ball(np.zeros(n), radius),
        hessian=b_mat.T @ b_mat,
        linear=lambda x: -b_mat.T @ c,
        regularization=sigma,
    )


# ---------------------------------------------------------------------------
# FISTA


def unit_quadratic(strong_convexity=1.0):
    # f(y) = y^2/2 in one dimension: M = [[1]], whose eigenvector is 1
    return BlockQuadratic(np.ones((1, 1)), np.ones((1, 1, 1)), strong_convexity)


# f(y) = y^2/2 on [-1, 1] from y0 = 1 with L = mu = 1: the momentum
# (sqrt(L/mu) - 1)/(sqrt(L/mu) + 1) is 0. Step 1 from z = 1 gives
# y+ = P(1 - 1) = 0 with certificate 2 L |z - y+| / mu = 2; step 2 from z = 0
# gives y+ = 0 with certificate 0, and every later step repeats it. The
# smallest certificate seen is 2 after one step and 0 after two or more.


def test_fista_box_quadratic_worked_value():
    res = fista_solve(
        unit_quadratic(),
        c=np.zeros(1),
        feasible=Box([-1.0], [1.0]),
        y0=np.array([1.0]),
        t=10,
    )
    assert isinstance(res, ProjectionResult)
    assert res.error_bound == 0.0 and res.inner_iterations == 10
    assert abs(float(res.point[0])) <= res.error_bound


def test_fista_single_step_bound():
    res = fista_solve(
        unit_quadratic(),
        c=np.zeros(1),
        feasible=Box([-1.0], [1.0]),
        y0=np.array([1.0]),
        t=1,
    )
    assert abs(res.error_bound - 2.0) <= 1e-15 and res.inner_iterations == 1
    np.testing.assert_allclose(res.point, [0.0])  # one projected gradient step from 1
    assert abs(float(res.point[0])) <= res.error_bound


@pytest.mark.parametrize("strong_convexity", [1.0])
def test_fista_nonfinite_gradient_raises(strong_convexity):
    with pytest.raises(NonfiniteValue):
        fista_solve(
            unit_quadratic(strong_convexity),
            c=np.full(1, np.nan),
            feasible=Box([-1.0], [1.0]),
            y0=np.array([1.0]),
            t=5,
        )


@pytest.mark.parametrize("strong_convexity", [0.0, -1.0, np.nan])
def test_fista_needs_positive_strong_convexity(strong_convexity):
    # without a modulus there is no certificate, so there is no loop to run
    with pytest.raises(InvalidParameters, match="strong convexity"):
        fista_solve(
            unit_quadratic(strong_convexity),
            c=np.zeros(1),
            feasible=Box([-1.0], [1.0]),
            y0=np.array([1.0]),
            t=5,
        )


def _closed_form_minimizer(a, c, ball):
    # argmin of 0.5 y'Ay + c'y over a ball: the argmin map's surrogate at u = 0
    # with regularization 1 and lower hessian A - I, solved in closed form
    zero = np.zeros(a.shape[0])
    m = ArgminSet(feasible=ball, hessian=a - np.eye(a.shape[0]), linear=lambda x: c, regularization=1.0)
    return m.exact_project(zero, zero)


def test_fista_gap_decay_exponent(rng):
    # random strongly convex quadratic over the unit ball
    n = 10
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = np.linspace(1.0, 50.0, n)
    a = q @ np.diag(eigs) @ q.T
    c = rng.standard_normal(n) * 3.0
    ball = Ball(np.zeros(n), 1.0)
    val = lambda y: 0.5 * float(y @ (a @ y)) + float(c @ y)
    quad = BlockQuadratic(eigs[None], q[None], eigs[0])
    y0 = ball.project(rng.standard_normal(n))
    fstar = val(_closed_form_minimizer(a, c, ball))
    gaps = []
    budgets = [10, 20, 40, 80, 160]
    for t in budgets:
        pt = fista_solve(quad, -c, ball, y0, t=t).point
        gaps.append(max(val(pt) - fstar, 1e-16))
    slope = np.polyfit(np.log10(budgets), np.log10(gaps), 1)[0]
    assert slope <= -1.9



def test_fista_positive_rel_tol_needs_an_anchor():
    with pytest.raises(InvalidParameters, match="anchor"):
        fista_solve(unit_quadratic(), np.zeros(1), Box([-1.0], [1.0]), np.array([1.0]), t=5, rel_tol=0.1)


def reference_fista(eig_vals, eig_vecs, c, feasible, y0, t, rel_tol=0.0, anchor=None):
    """FISTA one projected step per NumPy call, on M = V diag(eig_vals) V'
    with modulus 1: the loop the chunked solver must reproduce. Also returns
    whether a constraint moved each step's point, and the points."""
    L = max(float(np.max(eig_vals)), 1e-15)
    matrix = (eig_vecs * eig_vals[:, None, :]) @ eig_vecs.transpose(0, 2, 1)
    shape = eig_vals.shape + (1,)
    momentum = (np.sqrt(L) - 1.0) / (np.sqrt(L) + 1.0)
    scale, stop2 = 2.0 * L, (rel_tol / (2.0 * L)) ** 2
    y = z = np.asarray(y0, dtype=float)
    best, best_d2, active, points = y, np.inf, [], []
    for it in range(1, t + 1):
        w = z - (np.matmul(matrix, z.reshape(shape)).reshape(-1) - c) / L
        y_new = feasible.project(w)
        active.append(bool(np.any(y_new != w)))
        points.append(y_new)
        d2 = float((z - y_new) @ (z - y_new))
        if not np.isfinite(d2):
            raise NonfiniteValue("reference iterate left the finite floats")
        if d2 < best_d2:
            best, best_d2 = y_new, d2
        if rel_tol > 0 and d2 <= stop2 * float((anchor - y_new) @ (anchor - y_new)):
            break
        z = y_new + momentum * (y_new - y)
        y = y_new
    return best, scale * np.sqrt(best_d2), it, active, points


def _block_quadratic_problem(rng, kind, reach=2.0, spread=0.1, opposite=False):
    # 3 blocks of 4 with eigenvalues 1 and three in [20, 400]. The
    # unconstrained minimizer is small along the stiff directions and at
    # ``reach`` along the eigenvalue-1 one, which FISTA approaches slowly: from
    # y0 near the center the iterates leave the set only after some
    # unconstrained steps. From y0 on the side ``opposite`` the minimizer the
    # stiff directions overshoot, so constraints turn on, off and on again
    vals = np.concatenate([np.ones((3, 1)), np.sort(rng.uniform(20.0, 400.0, (3, 3)), axis=1)], axis=1)
    vecs = np.linalg.qr(rng.standard_normal((3, 4, 4)))[0]
    feasible = {
        "block-balls": BlockBalls(3, 4, 1.0),
        "ball": Ball(np.full(12, 0.1), 1.5),
        "box": Box(np.full(12, -0.6), np.full(12, 0.6)),
    }[kind]
    y_star_hat = np.concatenate([np.full((3, 1), reach), spread * rng.standard_normal((3, 3))], axis=1)
    c = (vals * y_star_hat)[:, None, :] @ vecs.transpose(0, 2, 1)
    if opposite:
        y0 = -3.0 * (y_star_hat[:, None, :] @ vecs.transpose(0, 2, 1)).reshape(-1)
    else:
        y0 = 0.05 * rng.standard_normal(12)
    return vals, vecs, c.reshape(-1), feasible, feasible.project(y0)


def _assert_matches_step_loop(vals, vecs, c, feasible, y0, t, rel_tol, anchor):
    want, want_bound, want_it, active, _ = reference_fista(vals, vecs, c, feasible, y0, t, rel_tol, anchor)
    got = fista_solve(BlockQuadratic(vals, vecs, 1.0), c, feasible, y0, t, rel_tol, anchor)
    assert got.inner_iterations == want_it
    assert np.linalg.norm(got.point - want) <= 1e-12 * np.linalg.norm(want)
    # a certificate is 2L ||z - y+||: with z and y+ known to 1e-12 relative it
    # is known to 2L 1e-12 ||y|| absolute, past 1e-12 relative once it is small
    floor = 2.0 * float(np.max(vals)) * 1e-12 * np.linalg.norm(want)
    assert abs(got.error_bound - want_bound) <= 1e-12 * want_bound + floor
    return "".join("x" if a else "." for a in active)


@pytest.mark.parametrize("kind", ["block-balls", "ball", "box"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
@pytest.mark.parametrize("t", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK + 5])
def test_chunked_fista_matches_step_loop(kind, rel_tol, t):
    rng = np.random.default_rng(17)
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(rng, kind)
    anchor = 0.5 * rng.standard_normal(12)
    active = _assert_matches_step_loop(vals, vecs, c, feasible, y0, t, rel_tol, anchor)
    # a constraint turned active after unconstrained steps, inside a chunk
    # read from the fresh-start table
    first_active = active.find("x") + 1
    assert 1 < first_active < FRESH and first_active % CHUNK != 0


@pytest.mark.parametrize("kind", ["block-balls", "ball", "box"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
@pytest.mark.parametrize("t", [1, CHUNK + 1, FRESH - 5, FRESH + CHUNK + 3])
def test_fresh_table_matches_step_loop(kind, rel_tol, t):
    # the minimizer lies well inside the set and no constraint binds, so
    # the solve stays fresh: its chunks are read from the table up to its
    # last row, and a longer budget runs on the recurrence from there. The
    # balls are screened by norms ("ball" is centred off the origin), the
    # box by rotating candidates out
    rng = np.random.default_rng(17)
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(rng, kind, reach=0.3)
    anchor = 0.5 * rng.standard_normal(12)
    active = _assert_matches_step_loop(vals, vecs, c, feasible, y0, t, rel_tol, anchor)
    assert "x" not in active
    if rel_tol == 0:
        assert len(active) == t
    elif t > FRESH:
        # a positive rel_tol stops the fresh solve inside the table
        assert CHUNK < len(active) < FRESH


def test_fresh_table_does_not_grow_with_the_budget():
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(np.random.default_rng(17), "block-balls", reach=0.3)
    sizes = []
    for t in (200, 20_000):
        quadratic = BlockQuadratic(vals, vecs, 1.0)
        assert fista_solve(quadratic, c, feasible, y0, t).inner_iterations == t
        sizes.append([(table.shape[0], table.nbytes) for table in quadratic.fresh])
    assert sizes[0] == sizes[1] == [(FRESH + 2, (FRESH + 2) * 12 * 8)] * 2


def _count_screens(monkeypatch):
    # the sizes of the stacks the eigenbasis views screen
    sizes = []

    def counting(screen):
        def counted(view, ys):
            sizes.append(len(ys))
            return screen(view, ys)

        return counted

    for view in (_NormView, _RotatedView):
        monkeypatch.setattr(view, "screen", counting(view.screen))
    return sizes


@pytest.mark.parametrize("kind", ["block-balls", "ball"])
def test_certified_fresh_chunks_are_not_screened(kind, monkeypatch):
    # no constraint binds, so a norm bound certifies every fresh chunk but
    # the one the stop fires in, and at rel_tol 0 every chunk of the table
    rng = np.random.default_rng(17)
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(rng, kind, reach=0.3)
    anchor = 0.5 * rng.standard_normal(12)
    quadratic = BlockQuadratic(vals, vecs, 1.0)
    screened = _count_screens(monkeypatch)
    assert fista_solve(quadratic, c, feasible, y0, FRESH, 1e-2, anchor).inner_iterations > 3 * CHUNK
    assert len(screened) == 1
    screened.clear()
    t = FRESH + CHUNK + 3
    assert fista_solve(quadratic, c, feasible, y0, t, 0.0, anchor).inner_iterations == t
    assert screened == [CHUNK, 3]


@pytest.mark.parametrize("kind, seed", [("block-balls", 3), ("box", 2)])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
def test_chunks_grow_again_after_a_brief_binding(kind, seed, rel_tol, monkeypatch):
    # from y0 on the far side of a minimizer inside the set, a constraint
    # binds for three steps in the first chunk (5-7 on the balls, 3-5 on the
    # box) and never again; at rel_tol 0 the solve runs on past the table
    rng = np.random.default_rng(seed)
    problem = _block_quadratic_problem(rng, kind, reach=0.3, spread=0.3, opposite=True)
    anchor = 0.5 * rng.standard_normal(12)
    screened = _count_screens(monkeypatch)
    t = FRESH + CHUNK + 3
    active = _assert_matches_step_loop(*problem, t, rel_tol, anchor)
    assert active.strip(".") == "xxx"
    assert len(active) == t if rel_tol == 0 else len(active) < FRESH
    # after the last moved step one step, then chunks doubling up to CHUNK
    it, size, grown = active.rfind("x") + 1, 1, []
    while it < len(active):
        grown.append(min(size, t - it))
        it, size = it + grown[-1], min(2 * size, CHUNK)
    assert screened == [CHUNK, 1, 1] + grown


def _free_steps(vals, vecs, c, y0):
    # the unconstrained steps 1 .. FRESH, (FRESH, 12), and each one's
    # ||z - y+||, which the certificate scales
    free = Box(np.full(12, -np.inf), np.full(12, np.inf))
    points = np.array(reference_fista(vals, vecs, c, free, y0, FRESH)[4])
    root = np.sqrt(np.max(vals))
    ys = np.vstack([y0, y0, points])
    z = ys[1:-1] + (root - 1.0) / (root + 1.0) * (ys[1:-1] - ys[:-2])
    return points, np.linalg.norm(z - points, axis=1)


def _line_problem(slow):
    # The first block has the one eigenvalue ``slow`` and starts at 0, the
    # other two are stiff and start at the target, and the modulus is 1. The
    # first block's fresh steps then lie on the line through the target,
    # target (1 - C_j) with C_j its fresh gain, and so does anchor - y+ for
    # an anchor on that line: where they point away from the target, their
    # norms are the norm bounds' to rounding
    rng = np.random.default_rng(17)
    vals = np.array([[slow] * 4, [1e3, 2e3, 5e3, 1e4], [1.5e3, 3e3, 6e3, 9e3]])
    vecs = np.linalg.qr(rng.standard_normal((3, 4, 4)))[0]
    target = np.concatenate([[0.3, 0.0, 0.0, 0.0], 0.02 * rng.standard_normal(8)])
    c = np.concatenate([m @ b for m, b in zip(BlockQuadratic(vals, vecs, 1.0).matrix, target.reshape(3, 4))])
    return vals, vecs, c, np.concatenate([np.zeros(4), target[4:]]), target


@pytest.mark.parametrize("side", [1.0 + 1e-9, 1.0 - 1e-9])
def test_certified_skip_matches_step_loop_at_the_sphere(side, monkeypatch):
    # Against eigenvalue 16.15 and curvature 1e4 the first block's gain
    # swings slowly: it overshoots most in the third chunk, and its
    # magnitude over the second chunk stays below that overshoot. With the
    # radius within 1e-9 relative of the largest norm, just outside it every
    # chunk but the first is certified and none moved; just inside it the
    # second chunk is certified and the peak step, the first moved, lies in
    # the third
    vals, vecs, c, y0, _ = _line_problem(16.15)
    norms = np.linalg.norm(_free_steps(vals, vecs, c, y0)[0].reshape(FRESH, 3, 4), axis=2)
    peak = norms.max(axis=1).argmax() + 1
    assert 2 * CHUNK < peak <= 3 * CHUNK and norms.argmax() % 3 == 0
    screened = _count_screens(monkeypatch)
    active = _assert_matches_step_loop(vals, vecs, c, BlockBalls(3, 4, side * norms.max()), y0, FRESH, 0.0, None)
    if side > 1:
        assert active == "." * FRESH and screened == [CHUNK]
    else:
        # after the moved step the next chunk holds one step
        assert active.find("x") + 1 == peak and screened[:3] == [CHUNK, CHUNK, 1]


@pytest.mark.parametrize("side", [1.0 + 1e-9, 1.0 - 1e-9])
def test_certified_skip_matches_step_loop_at_the_stop(side, monkeypatch):
    # Against eigenvalue 1 the first block's gain stays positive and the
    # ratio of certificate to ||anchor - y+|| falls step by step, for the
    # anchor 2 target - y0. With rel_tol within 1e-9 relative of that ratio
    # at step 2 CHUNK: just above it the stop fires there, on the second
    # chunk's last row, and the second chunk is screened; just below it the
    # second chunk is certified and the stop fires on the third's first row
    vals, vecs, c, y0, target = _line_problem(1.0)
    anchor = 2.0 * target - y0
    points, steps = _free_steps(vals, vecs, c, y0)
    ratio = 2.0 * np.max(vals) * steps / np.linalg.norm(anchor - points, axis=1)
    assert np.all(np.diff(ratio[: 2 * CHUNK + 1]) < -1e-6 * ratio[1 : 2 * CHUNK + 1])
    screened = _count_screens(monkeypatch)
    feasible = BlockBalls(3, 4, 10.0)
    active = _assert_matches_step_loop(vals, vecs, c, feasible, y0, FRESH, side * ratio[2 * CHUNK - 1], anchor)
    assert len(active) == (2 * CHUNK if side > 1 else 2 * CHUNK + 1) and screened == [CHUNK]


def _tight_problems(slow):
    # The first block has the one eigenvalue ``slow`` and the others the
    # curvature 4096, a power of two, so their gains vanish from step 1 on
    # and max_i |C_ji| is the first block's |C_j|. The eigenvectors are the
    # identity, and y0 is 0 in the first block and the target elsewhere, so
    # e_0 is minus the target in the first block and 0 elsewhere: step j is
    # (1 - C_j) target there, and the target elsewhere. Yields the quadratic,
    # c, the target and y0 for four targets
    vals = np.array([[slow] * 4, [4096.0] * 4, [4096.0] * 4])
    quadratic = BlockQuadratic(vals, np.broadcast_to(np.eye(4), (3, 4, 4)), 1.0)
    assert not quadratic.fresh[0][2:, 4:].any()
    rng = np.random.default_rng(17)
    for first in rng.uniform(-0.5, 0.5, (4, 4)):
        target = np.concatenate([first, 0.02 * rng.standard_normal(8)])
        yield quadratic, vals.reshape(-1) * target, target, np.concatenate([np.zeros(4), target[4:]])


def _skip_changes_no_bit(monkeypatch, screened, quadratic, c, feasible, y0, rel_tol, anchor):
    # the solve equals, bit for bit, the same solve with every chunk
    # screened; returns its steps, and leaves its screens in ``screened``
    with monkeypatch.context() as patch:
        patch.setattr(_NormView, "fresh_floors", lambda *args: None)
        want = fista_solve(quadratic, c, feasible, y0, FRESH, rel_tol, anchor)
    screened.clear()
    got = fista_solve(quadratic, c, feasible, y0, FRESH, rel_tol, anchor)
    assert (got.point.tobytes(), got.error_bound, got.inner_iterations) == (
        want.point.tobytes(), want.error_bound, want.inner_iterations
    )
    return got.inner_iterations


def test_certified_skip_changes_no_bit_where_the_screen_bound_is_tight(monkeypatch):
    # Against eigenvalue 16, C_j is least at step 51 and no |C_j| in the
    # second chunk exceeds that step's. Where C_j < 0 the first block's norm
    # (1 - C_j) ||target|| is the norm bound ||target|| + |C_j| ||e_0||, so
    # over radii a few dozen ulps about step 51's norm the margin alone
    # decides the second chunk: a moved step, a screened chunk or a skipped one
    screened = _count_screens(monkeypatch)
    for quadratic, c, target, y0 in _tight_problems(16.0):
        gains = quadratic.fresh[0][2:]
        assert np.abs(gains[CHUNK : 2 * CHUNK, 0]).max() == -gains[50, 0] == -gains[:, 0].min()
        # the fresh steps as the solve forms them, and their squared block norms
        d = (target + gains * (y0 - target)).reshape(FRESH, 3, 4)
        n2 = np.einsum("ijk,ijk->ij", d, d)
        assert n2.max(axis=1).argmax() + 1 == 51 and n2.argmax() % 3 == 0
        peak, regimes = math.sqrt(n2.max()), set()
        for ulps in range(-32, 33):
            feasible = BlockBalls(3, 4, peak + ulps * np.spacing(peak))
            _skip_changes_no_bit(monkeypatch, screened, quadratic, c, feasible, y0, 0.0, None)
            regimes.add(tuple(screened[:3]))
        # step 51 moved, the second chunk screened whole, the second chunk skipped
        assert regimes == {(CHUNK, CHUNK, 1), (CHUNK, CHUNK), (CHUNK,)}


def test_certified_skip_changes_no_bit_where_the_stop_bound_is_tight(monkeypatch):
    # Against eigenvalue 1, C_j falls from 1 and stays positive. With the
    # anchor at 3 target in the first block and the target elsewhere,
    # anchor - y+ is (2 + C_j) target in the first block, whose norm is the
    # stop bound ||anchor - target|| + |C_j| ||e_0||. The ratio of
    # certificate to ||anchor - y+|| falls step by step, so over rel_tol a
    # few dozen ulps about its value at step 2 CHUNK the margin alone decides
    # the second chunk: the stop fires in it, it is screened and the stop
    # fires on the next step, or it is skipped
    screened, feasible = _count_screens(monkeypatch), BlockBalls(3, 4, 10.0)
    for quadratic, c, target, y0 in _tight_problems(1.0):
        gains, step_gains2 = quadratic.fresh
        assert np.all(np.diff(gains[2:, 0]) < 0) and gains[-1, 0] > 0
        anchor = np.concatenate([3.0 * target[:4], target[4:]])
        first = y0 - target
        r = anchor - (target + gains[2:] * first)
        ratio = quadratic.scale * np.sqrt(step_gains2[:FRESH] @ (first * first) / np.einsum("ij,ij->i", r, r))
        assert np.all(np.diff(ratio[: 2 * CHUNK + 1]) < -1e-6 * ratio[1 : 2 * CHUNK + 1])
        at, regimes = ratio[2 * CHUNK - 1], set()
        for ulps in range(-32, 33):
            rel_tol = at + ulps * np.spacing(at)
            steps = _skip_changes_no_bit(monkeypatch, screened, quadratic, c, feasible, y0, rel_tol, anchor)
            regimes.add((steps, len(screened)))
        assert regimes == {(2 * CHUNK, 1), (2 * CHUNK + 1, 2), (2 * CHUNK + 1, 1)}


def test_certified_skip_changes_no_bit_where_anchor_minus_step_cancels(monkeypatch):
    # The anchor is the target and y0 is within 1e-4 relative of it, in the
    # first block only, so anchor - y+ is -C_j e_0 computed as target -
    # (target + C_j e_0): it cancels, and its rounding, u ||target||, is far
    # above the stop bound's relative margin. Against the one eigenvalue 1
    # the ratio of certificate to ||anchor - y+|| is the same at every step
    # but for that rounding, so over rel_tol a few dozen ulps about its least
    # value the stop fires or not by rounding alone
    screened, feasible = _count_screens(monkeypatch), BlockBalls(3, 4, 10.0)
    for quadratic, c, _, _ in _tight_problems(1.0):
        gains, step_gains2 = quadratic.fresh
        # the target and anchor as the solve forms them in the eigenbasis
        anchor = c / quadratic.eig_vals
        y0 = np.concatenate([(1.0 - 1e-4) * anchor[:4], anchor[4:]])
        first = y0 - anchor
        r = anchor - (anchor + gains[2:] * first)
        assert np.linalg.norm(r, axis=1).max() <= 2e-4 * np.linalg.norm(anchor)
        ratio = quadratic.scale * np.sqrt(step_gains2[:FRESH] @ (first * first) / np.einsum("ij,ij->i", r, r))
        at, steps = ratio.min(), set()
        for ulps in range(-32, 33):
            rel_tol = at + ulps * np.spacing(at)
            steps.add(_skip_changes_no_bit(monkeypatch, screened, quadratic, c, feasible, y0, rel_tol, anchor))
        assert FRESH in steps and min(steps) < FRESH
        # the skip is live here: a little below the threshold every chunk is certified
        _skip_changes_no_bit(monkeypatch, screened, quadratic, c, feasible, y0, at * (1.0 - 1e-6), anchor)
        assert screened == []


def test_certified_skip_changes_no_bit_where_the_squared_norms_underflow(monkeypatch):
    # The screen-tight problems scaled by 2^-504 .. 2^-521: the squared block
    # norms fall from the normal range into the subnormal one, where each
    # rounded square errs by up to 2^-1075 absolute, which no relative margin
    # covers; the norm bound then falls below the norm the screen computes by
    # up to 1e-10 relative. Over radii just below step 51's norm as the screen
    # computes it, the screen moves a step while the bound, without its
    # absolute floor sqrt(n tiny), would certify the chunk
    screened, regimes = _count_screens(monkeypatch), set()
    for k in range(504, 522):
        for quadratic, c, target, y0 in _tight_problems(16.0):
            c, target, y0 = (math.ldexp(1.0, -k) * v for v in (c, target, y0))
            gains = quadratic.fresh[0][2:]
            d = (target + gains * (y0 - target)).reshape(FRESH, 3, 4)
            peak = math.sqrt(np.einsum("ijk,ijk->ij", d, d)[CHUNK : 2 * CHUNK].max())
            for side in [1.0 - math.ldexp(1.0, -m) for m in range(33, 51)] + [2.0]:
                feasible = BlockBalls(3, 4, side * peak)
                _skip_changes_no_bit(monkeypatch, screened, quadratic, c, feasible, y0, 0.0, None)
                regimes.add((k, side == 2.0, tuple(screened[:3])))
    # just below the norm the step moves at every scale; at twice the norm
    # the floor leaves the skip live down to 2^-507 and off from 2^-510 on
    moved = {k for k, wide, first in regimes if not wide and first == (CHUNK, CHUNK, 1)}
    assert moved == set(range(504, 522))
    skipped = {k for k, wide, first in regimes if wide and first == ()}
    assert set(range(504, 508)) <= skipped and not skipped & set(range(510, 522))


@pytest.mark.parametrize("kind", ["block-balls", "ball"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
def test_certified_skip_matches_step_loop_with_the_anchor_at_the_target(kind, rel_tol):
    # anchor - y+ is then the error itself, which the stop bound must cover
    # however far it cancels
    rng = np.random.default_rng(17)
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(rng, kind, reach=0.3)
    matrix = BlockQuadratic(vals, vecs, 1.0).matrix
    target = np.concatenate([np.linalg.solve(m, b) for m, b in zip(matrix, c.reshape(3, 4))])
    active = _assert_matches_step_loop(vals, vecs, c, feasible, y0, FRESH + CHUNK, rel_tol, target)
    assert "x" not in active


@pytest.mark.parametrize("kind", ["block-balls", "ball"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certified_skip_still_raises_on_a_nonfinite_linear_term(kind, rel_tol, bad):
    # a problem whose finite solves are certified chunk by chunk
    rng = np.random.default_rng(17)
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(rng, kind, reach=0.3)
    anchor = 0.5 * rng.standard_normal(12)
    c[5] = bad
    # inf - inf in the rotation makes NaN, which numpy warns of
    with pytest.raises(NonfiniteValue), np.errstate(invalid="ignore"):
        fista_solve(BlockQuadratic(vals, vecs, 1.0), c, feasible, y0, FRESH, rel_tol, anchor)


def test_certified_skip_still_raises_when_a_certificate_overflows():
    # every eigenvalue is the curvature, so step 1's squared certificate is
    # ||e_0||^2, which overflows while each block's norm, all the norm bound
    # reads, stays finite
    vecs = np.linalg.qr(np.random.default_rng(17).standard_normal((3, 4, 4)))[0]
    quadratic = BlockQuadratic(np.full((3, 4), 4.0), vecs, 1.0)
    with pytest.raises(NonfiniteValue), np.errstate(over="ignore"):
        fista_solve(quadratic, np.zeros(12), BlockBalls(3, 4, 1e160), np.full(12, 5e153), CHUNK, 0.0, np.zeros(12))


@pytest.mark.parametrize("kind", ["block-balls", "ball", "box"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
def test_chunked_fista_matches_step_loop_when_constraints_switch(kind, rel_tol):
    rng = np.random.default_rng(1)
    problem = _block_quadratic_problem(rng, kind, reach=1.2, spread=0.3, opposite=True)
    anchor = 0.5 * rng.standard_normal(12)
    active = _assert_matches_step_loop(*problem, 130, rel_tol, anchor)
    # a constraint turns off for two steps in a row, so chunks grow again,
    # and on again inside a grown chunk
    assert re.search(r"x\.{2,}x", active), active


@pytest.mark.parametrize("kind", ["block-balls", "ball", "box"])
def test_chunked_fista_nan_linear_term_raises(kind):
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(np.random.default_rng(17), kind)
    c[5] = np.nan
    with pytest.raises(NonfiniteValue):
        fista_solve(BlockQuadratic(vals, vecs, 1.0), c, feasible, y0, t=2 * CHUNK)


def _view_problem(name):
    # constraint-switching problems: from y0 on the far side of the minimizer
    # a constraint turns on, off for at least two steps, and on again
    if name == "block-balls-of-another-size":
        # one 2 x 2 block with eigenvalues 1 and 40 under a random rotation,
        # over [-1, 1]^2 written as two one-dimensional balls
        rng = np.random.default_rng(1)
        vals = np.array([[1.0, 40.0]])
        vecs = np.linalg.qr(rng.standard_normal((1, 2, 2)))[0]
        y_star_hat = np.array([[1.3, 0.2 * rng.standard_normal()]])
        y_star = (y_star_hat[:, None, :] @ vecs.transpose(0, 2, 1)).reshape(-1)
        c = ((vals * y_star_hat)[:, None, :] @ vecs.transpose(0, 2, 1)).reshape(-1)
        feasible = BlockBalls(2, 1, 1.0)
        return vals, vecs, c, feasible, feasible.project(-3.0 * y_star)
    if name == "box":
        return _block_quadratic_problem(np.random.default_rng(1), "box", reach=1.2, spread=0.3, opposite=True)
    # a ball about a nonzero centre, spanning all three blocks of 4
    rng = np.random.default_rng(3)
    vals, vecs, c, _, y0 = _block_quadratic_problem(rng, "ball", reach=1.2, spread=0.3, opposite=True)
    feasible = Ball(0.3 * rng.standard_normal(12), 1.5)
    return vals, vecs, c, feasible, feasible.project(y0)


@pytest.mark.parametrize(
    "name, view",
    [("block-balls-of-another-size", _RotatedView), ("box", _RotatedView), ("off-centre-ball", _NormView)],
)
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
def test_eigenbasis_view_matches_step_loop(name, view, rel_tol):
    # a ball, or balls on the quadratic's blocks, is screened by its norms in
    # the eigenbasis; any other set rotates the candidates out and back
    vals, vecs, c, feasible, y0 = _view_problem(name)
    assert type(_eigenbasis_view(feasible, BlockQuadratic(vals, vecs, 1.0))) is view
    anchor = 0.5 * np.random.default_rng(5).standard_normal(c.size)
    active = _assert_matches_step_loop(vals, vecs, c, feasible, y0, 130, rel_tol, anchor)
    assert re.search(r"x\.{2,}x", active), active


@pytest.mark.parametrize("kind", ["block-balls", "ball"])
@pytest.mark.parametrize("rel_tol", [0.0, 1e-2])
def test_fista_point_is_feasible_when_constraints_switch(kind, rel_tol):
    # membership is decided by norms in the eigenbasis, yet the returned point,
    # rotated back, lies in the set
    rng = np.random.default_rng(1)
    vals, vecs, c, feasible, y0 = _block_quadratic_problem(rng, kind, reach=1.2, spread=0.3, opposite=True)
    anchor = 0.5 * rng.standard_normal(12)
    quadratic = BlockQuadratic(vals, vecs, 1.0)
    for t in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 130):
        point = fista_solve(quadratic, c, feasible, y0, t, rel_tol, anchor).point
        assert feasible.contains(point, 1e-12), t

# ---------------------------------------------------------------------------
# accelerated primal-dual


def test_apd_linear_constraint_matches_closed_form():
    hs = Halfspaces([[1.0, 2.0]], [1.0])
    u = np.array([2.0, 2.0])
    res = apd_solve(u, lambda y: hs.normals @ y - hs.offsets, lambda y: hs.normals, t=500)
    np.testing.assert_allclose(res.point, hs.project(u), atol=1e-6)


def test_apd_ball_boundary():
    res = apd_solve(
        np.array([2.0, 0.0]),
        lambda y: np.array([float(y @ y) - 1.0]),
        lambda y: 2.0 * y[None, :],
        t=2000,
        ambient=Box(np.full(2, -5.0), np.full(2, 5.0)),
    )
    np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-5)


def test_apd_inactive_constraint_returns_query():
    u = np.array([0.2, -0.1])
    res = apd_solve(
        u,
        lambda y: np.array([float(y @ y) - 1.0]),
        lambda y: 2.0 * y[None, :],
        t=25,
    )
    np.testing.assert_allclose(res.point, u, atol=1e-14)
    assert isinstance(res, ProjectionResult) and res.inner_iterations == 25
    assert res.feasibility_violation == 0.0


def test_apd_matches_slsqp_oracle(rng):
    # independent oracle for a nonlinear constrained projection
    u = np.array([1.5, 2.5])
    cons = {"type": "ineq", "fun": lambda y: 1.0 - y @ y}
    ref = scipy.optimize.minimize(
        lambda y: 0.5 * np.sum((y - u) ** 2),
        x0=np.zeros(2),
        constraints=[cons],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 500},
    ).x
    res = apd_solve(
        u,
        lambda y: np.array([float(y @ y) - 1.0]),
        lambda y: 2.0 * y[None, :],
        t=5000,
    )
    np.testing.assert_allclose(res.point, ref, atol=1e-5)


def test_inexact_project_detects_empty_constraint_set():
    m = NonlinearConvex(
        ambient=Box([0.0], [1.0]),
        constraint=lambda x, y: np.array([2.0 - y[0]]),  # y >= 2 inside [0,1]: empty
        jacobian=lambda x, y: np.array([[-1.0]]),
    )
    with pytest.raises(InfeasibleSubproblem):
        inexact_project(m, np.zeros(1), np.array([0.5]), t=100)


def test_feasibility_witness_and_infeasible_detection():
    box = Box([0.0], [1.0])
    wit = feasibility_witness(
        lambda y: np.array([0.5 - y[0]]), lambda y: np.array([[-1.0]]), box, np.array([0.0])
    )
    assert 0.5 - wit[0] <= 1e-8
    with pytest.raises(InfeasibleSubproblem):
        feasibility_witness(
            lambda y: np.array([y[0] + 1.0]), lambda y: np.array([[1.0]]), box, np.array([0.0]),
            budget=200,
        )


# ---------------------------------------------------------------------------
# inexact_project dispatch


@pytest.mark.parametrize("budget", [[10, 20], 1.5, "3", True, 0])
@pytest.mark.parametrize("exact", [True, False])
def test_inner_budgets_must_be_integers_on_every_map(budget, exact):
    # a closed form ignores its budget, but checks it all the same
    m = TranslatedSet(Ball(np.zeros(2), 1.0), lambda x: 0.5 * x, 0.5) if exact else ball_constraint_map()
    x, u = np.zeros(2), np.array([3.0, 1.0])
    with pytest.raises(InvalidParameters, match="inner budget must be >= 1 and an integer"):
        inexact_project(m, x, u, t=budget)
    with pytest.raises(InvalidParameters, match="inner budget must be >= 1 and an integer"):
        reference_project(m, x, u, budget=budget)
    for t in (np.int64(5), np.uint8(5)):
        assert inexact_project(m, x, u, t=t).point.tobytes() == inexact_project(m, x, u, t=5).point.tobytes()
        assert reference_project(m, x, u, budget=t).tobytes() == reference_project(m, x, u, budget=5).tobytes()


def _noisy_operator():
    return gaussian_operator(lambda x: x, dim=2, lipschitz=1.0, qg_mu=1.0, noise_level=0.5)


_ONE_INPUT_RULE = [
    *(
        (f"fista t={t!r}", InvalidParameters, "inner budget must be >= 1 and an integer",
         lambda t=t: fista_solve(unit_quadratic(), np.ones(1), Box(-np.ones(1), np.ones(1)), np.ones(1), t))
        for t in (1.5, True, 0, "3")
    ),
    *(
        (f"apd t={t!r}", InvalidParameters, "inner budget must be >= 1 and an integer",
         lambda t=t: apd_solve(np.ones(2), lambda y: np.array([y @ y - 1.0]), lambda y: 2.0 * y[None], t))
        for t in (1.5, True, 0)
    ),
    *(
        (f"sample_batch n={n!r}", InvalidParameters, "batch size must be an integer >= 1",
         lambda n=n: sample_batch(_noisy_operator(), np.zeros(2), n, np.random.default_rng(7)))
        for n in (0, -3, 2.5, True, "4")
    ),
    ("translated shift constant -0.5", InvalidConstants, "shift Lipschitz constant must be nonnegative",
     lambda: TranslatedSet(Box(-np.ones(2), np.ones(2)), lambda x: x, -0.5)),
    *(
        (f"argmin regularization {w!r}", InvalidParameters, "regularization weight must be positive",
         lambda w=w: ArgminSet(Ball(np.zeros(2), 1.0), np.eye(2), lambda x: x, w))
        for w in (0.0, -1.0, np.nan)
    ),
]


@pytest.mark.parametrize("case, error, match, call", _ONE_INPUT_RULE, ids=[c[0] for c in _ONE_INPUT_RULE])
def test_inner_solvers_and_sampling_share_one_input_rule(case, error, match, call):
    # a budget or batch size is an integer >= 1, not a bool or float; a bad
    # constant is a constant or parameter error, not a shape error
    with pytest.raises(error, match=match):
        call()


def test_inner_solvers_and_sampling_take_numpy_integers():
    fista = lambda t: fista_solve(unit_quadratic(), np.ones(1), Box(-np.ones(1), np.ones(1)), np.ones(1), t)
    assert fista(np.int64(3)).point.tobytes() == fista(3).point.tobytes()
    apd = lambda t: apd_solve(np.ones(2), lambda y: np.array([y @ y - 1.0]), lambda y: 2.0 * y[None], t)
    assert apd(np.uint8(4)).point.tobytes() == apd(4).point.tobytes()
    op = _noisy_operator()
    draws = [sample_batch(op, np.zeros(2), n, np.random.default_rng(7)) for n in (np.int64(4), 4)]
    assert draws[0].tobytes() == draws[1].tobytes()


def test_inexact_project_translated_exact():
    m = TranslatedSet(base_set=Ball(np.zeros(2), 1.0), shift=lambda x: 0.5 * x, shift_lipschitz=0.5)
    res = inexact_project(m, np.zeros(2), np.array([3.0, 4.0]), t=1)
    np.testing.assert_allclose(res.point, [0.6, 0.8])
    assert res.error_bound == 0.0 and res.inner_iterations == 0


def test_inexact_project_nonlinear_ball(rng):
    m = ball_constraint_map()
    target = np.array([0.6, 0.8])
    res = inexact_project(m, np.zeros(2), np.array([3.0, 4.0]), t=200)
    assert np.linalg.norm(res.point - target) <= res.error_bound + 1e-9


def test_inexact_project_singleton_argmin():
    m = ArgminSet(
        feasible=Box([0.0], [1.0]),
        hessian=[[1.0]],
        linear=lambda x: np.array([-2.0]),
        regularization=1e-2,
    )
    res = inexact_project(m, np.array([2.0]), np.array([-0.3]), t=400)
    assert abs(res.point[0] - 1.0) <= res.error_bound + 1e-9
    assert abs(res.point[0] - 1.0) <= 2e-3


def test_inexact_project_multi_halfspace_fixed_set():
    a, b = np.eye(2), np.array([0.5, 0.25])
    m = NonlinearConvex(
        ambient=Box(np.full(2, -5.0), np.full(2, 5.0)),
        constraint=lambda x, y: a @ y - b,
        jacobian=lambda x, y: a,
        jacobian_bound=1.0,
    )
    res = inexact_project(m, np.zeros(2), np.array([2.0, 2.0]), t=800)
    np.testing.assert_allclose(res.point, [0.5, 0.25], atol=1e-6)


def test_inexact_project_method_compatibility():
    m = ball_constraint_map()
    with pytest.raises(InvalidParameters):
        inexact_project(m, np.zeros(2), np.ones(2), t=0)


def test_inexact_project_snaps_to_ambient():
    m = FixedSet(Box(np.full(2, -2.0), np.full(2, 2.0)))
    amb = Box(np.full(2, -1.0), np.full(2, 1.0))
    res = inexact_project(m, np.zeros(2), np.array([5.0, 5.0]), t=1, ambient=amb)
    assert amb.contains(res.point, 1e-12)


def test_error_bound_monotone_in_budget(rng):
    m = rank_deficient_argmin(rng)
    u = rng.standard_normal(10)
    bounds = [inexact_project(m, np.zeros(10), u, t=t).error_bound for t in (5, 10, 50, 100, 500)]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_forced_budget_runs_every_iteration(game_problem):
    # rel_tol defaults to 0, which runs exactly t iterations
    p = game_problem
    x = np.asarray(p.x0, dtype=float)
    u = x - 1e-2 * evaluate_mean(p.operator, x)
    res = inexact_project(p.map, x, u, t=50)
    assert res.inner_iterations == 50


def test_certificate_soundness_fista_path(rng):
    m = rank_deficient_argmin(rng)
    u = rng.standard_normal(10) * 2
    ref = reference_project(m, np.zeros(10), u, budget=100000)
    for t in (10, 40, 160):
        res = inexact_project(m, np.zeros(10), u, t=t)
        assert np.linalg.norm(res.point - ref) <= res.error_bound + 1e-9


# ---------------------------------------------------------------------------
# rate audits


def test_rate_audit_exact_path():
    m = TranslatedSet(base_set=Ball(np.zeros(2), 1.0), shift=lambda x: 0.1 * x, shift_lipschitz=0.1)
    audit = projection_rate_audit(m, np.zeros(2), np.array([3.0, 4.0]), [5, 10, 20])
    assert audit.exact and audit.passed


def test_rate_audit_fista(rng):
    m = rank_deficient_argmin(rng)
    u = rng.standard_normal(10) * 2
    audit = projection_rate_audit(m, np.zeros(10), u, [10, 20, 40, 80, 160])
    assert audit.passed and audit.slope <= -0.95


def test_rate_audit_apd():
    m = ball_constraint_map()
    audit = projection_rate_audit(
        m, np.zeros(2), np.array([3.0, 4.0]), [10, 20, 40, 80, 160]
    )
    assert audit.passed and audit.slope <= -0.95


def test_projection_module_does_not_import_maps():
    # the maps call the inner solvers; an import back would reintroduce the cycle
    import ast
    from pathlib import Path

    import sqvi.projection

    tree = ast.parse(Path(sqvi.projection.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "maps" in name.split(".")]
