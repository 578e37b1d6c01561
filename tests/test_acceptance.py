"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""
import json
import math

import numpy as np
import pytest

from sqvi.diagnostics import fit_linear_rate, mean_metric_series
from sqvi.errors import NoAdmissibleStep
from sqvi.maps import ArgminSet, NonlinearConvex
from sqvi.operators import estimate_qg, estimate_strong_monotonicity
from sqvi.problems import make_translated_box_qvi
from sqvi.projection import BlockQuadratic, fista_solve, projection_rate_audit
from sqvi.runner import parse_config, run_experiment
from sqvi.sets import AffineSet, Ball, Box, Halfspaces, Simplex
from sqvi.solvers import (
    ConstantMinibatch,
    DampedInner,
    Deterministic,
    IncreasingSample,
    SolverConfig,
    admissible_eta_interval,
    contraction_factor,
    derive_beta,
    derive_params,
    oracle_complexity_report,
    run_ieg_sqvi,
    run_ig_sqvi,
)


def announce(cid, ok, detail):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def stochastic_box():
    return make_translated_box_qvi(n=20, seed=7, noise_level=0.5)


def _ieg_cfg(problem, **kw):
    base = dict(eta=problem.suggested_eta, alpha=0.9, b=2.0, seed=0)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------


def test_c01_parameter_algebra():
    ok = True
    ok &= abs(derive_beta(1, 1, 0, 1) - 0.0) <= 1e-10
    ok &= abs(derive_beta(1, 1, 0, 0.5) - 0.5) <= 1e-10
    ok &= abs(derive_beta(2, 1, 0.05, 0.25) - (0.05 + math.sqrt(0.75))) <= 1e-10
    lo, hi = admissible_eta_interval(1, 1, 0)
    ok &= abs(lo) <= 1e-10 and abs(hi - 2) <= 1e-10
    lo, hi = admissible_eta_interval(1, 1, 0.1)
    ok &= abs(lo - 0.1) <= 1e-10 and abs(hi - 1.9) <= 1e-10
    try:
        admissible_eta_interval(1, 0.5, 0.5)
        ok = False
    except NoAdmissibleStep:
        pass
    ok &= abs(contraction_factor(0.5, 0.5, 1) - 0.375) <= 1e-10
    ok &= abs(contraction_factor(0.5, 0.5, 0) - 0.25) <= 1e-10
    ok &= abs(contraction_factor(0.9, 0.0, 7.0) - 0.9) <= 1e-10

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        lip = rng.uniform(0.5, 3.0)
        mu = rng.uniform(0.55, 0.999) * lip
        gamma = rng.uniform(0.0, 0.95) * (1.0 - math.sqrt(1.0 - (mu / lip) ** 2))
        lo, hi = admissible_eta_interval(lip, mu, gamma)
        worst = max(
            worst,
            abs(derive_beta(lip, mu, gamma, lo) - 1.0),
            abs(derive_beta(lip, mu, gamma, hi) - 1.0),
        )
    ok &= worst <= 1e-10
    announce("C01", ok, f"worked values exact; endpoint |beta-1| max {worst:.2e} <= 1e-10")


def test_c02_projection_properties():
    kinds = {
        "ball": Ball(np.array([0.3, -0.2, 0.5]), 1.2),
        "box": Box(-np.ones(3), np.ones(3)),
        "simplex": Simplex(3, scale=1.0),
        "halfspace": Halfspaces([[1.0, -2.0, 0.5]], [0.7]),
        "affine": AffineSet([[1.0, 1.0, 0.0]], [1.0]),
    }
    rng = np.random.default_rng(1)
    worst_ne, worst_vc = 0.0, 0.0
    for s in kinds.values():
        for _ in range(1000):
            u, v, w = 4.0 * rng.standard_normal((3, 3))
            pu, pv = s.project(u), s.project(v)
            worst_ne = max(worst_ne, np.linalg.norm(pu - pv) - np.linalg.norm(u - v))
            x = s.project(w)
            worst_vc = max(worst_vc, -float((pu - u) @ (x - pu)))
    ok = worst_ne <= 1e-10 and worst_vc <= 1e-10
    announce("C02", ok, f"nonexpansive excess {worst_ne:.2e}, variational violation {worst_vc:.2e} (tol 1e-10)")


def test_c03_inner_solver_contract():
    rng = np.random.default_rng(3)
    budgets = [10, 20, 40, 80, 160]

    # argmin-set path: rank-deficient quadratic over a ball, solved by FISTA
    n = 10
    b_mat = rng.standard_normal((4, n))
    c = b_mat @ rng.standard_normal(n)
    argmin_map = ArgminSet(
        feasible=Ball(np.zeros(n), 3.0),
        hessian=b_mat.T @ b_mat,
        linear=lambda x: -b_mat.T @ c,
        regularization=1e-2,
    )
    fista_audit = projection_rate_audit(
        argmin_map, np.zeros(n), 2.0 * rng.standard_normal(n), budgets
    )

    # inequality path: nonlinear ball constraint, solved by the primal-dual scheme
    apd_map = NonlinearConvex(
        ambient=Box(np.full(2, -5.0), np.full(2, 5.0)),
        constraint=lambda x, y: np.array([float(y @ y) - 1.0]),
        jacobian=lambda x, y: 2.0 * y[None, :],
    )
    apd_audit = projection_rate_audit(
        apd_map, np.zeros(2), np.array([3.0, 4.0]), budgets
    )

    # FISTA objective-gap decay exponent on a strongly convex quadratic
    q_mat = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = np.linspace(1.0, 50.0, n)
    a = q_mat @ np.diag(eigs) @ q_mat.T
    lin = 3.0 * rng.standard_normal(n)
    ball = Ball(np.zeros(n), 1.0)
    val = lambda y: 0.5 * float(y @ (a @ y)) + float(lin @ y)
    quad = BlockQuadratic(eigs[None], q_mat[None], eigs[0])
    y0 = ball.project(rng.standard_normal(n))
    # the minimizer in closed form: the argmin map's surrogate at u = 0 with
    # regularization 1 and lower hessian A - I is 0.5 y'Ay + lin'y
    exact_map = ArgminSet(feasible=ball, hessian=a - np.eye(n), linear=lambda x: lin, regularization=1.0)
    fstar = val(exact_map.exact_project(np.zeros(n), np.zeros(n)))
    gaps = [
        max(val(fista_solve(quad, -lin, ball, y0, t=t).point) - fstar, 1e-16)
        for t in budgets
    ]
    gap_exponent = -float(np.polyfit(np.log10(budgets), np.log10(gaps), 1)[0])

    ok = fista_audit.slope <= -0.95 and apd_audit.slope <= -0.95 and gap_exponent >= 1.9
    announce(
        "C03",
        ok,
        f"rate slopes: fista {fista_audit.slope:.3f}, primal-dual {apd_audit.slope:.3f} "
        f"(<= -0.95); gap exponent {gap_exponent:.2f} (>= 1.9)",
    )


def test_c04_linear_convergence_extragradient(stochastic_box):
    p = stochastic_box
    q = derive_params(p, _ieg_cfg(p, schedule=Deterministic(), max_outer=1), True).q
    rho = max(1 - q + 0.05, 0.9)
    traces = [
        run_ieg_sqvi(
            p, _ieg_cfg(p, schedule=IncreasingSample(rho), max_outer=55, seed=(100, r)), metrics=("dist",)
        )
        for r in range(10)
    ]
    fit = fit_linear_rate(mean_metric_series(traces, "dist"), window=(5, 50))
    ok = fit.slope <= np.log10(rho) + 0.05 and fit.r_squared >= 0.9
    announce(
        "C04",
        ok,
        f"mean-of-10 slope {fit.slope:.4f} <= log10({rho})+0.05 = {np.log10(rho)+0.05:.4f}, "
        f"r2 {fit.r_squared:.3f} >= 0.9",
    )


def test_c05_gradient_convergence_and_comparison(stochastic_box):
    p = stochastic_box
    cfg_probe = SolverConfig(eta=p.suggested_eta, alpha=0.9, schedule=Deterministic(), max_outer=1)
    q_g = derive_params(p, cfg_probe, extra_gradient=False).q
    rho_g = max(1 - q_g + 0.05, 0.9)
    traces_g = [
        run_ig_sqvi(
            p,
            SolverConfig(eta=p.suggested_eta, alpha=0.9, schedule=IncreasingSample(rho_g),
                         max_outer=55, seed=(100, r)),
            metrics=("dist",),
        )
        for r in range(10)
    ]
    fit_g = fit_linear_rate(mean_metric_series(traces_g, "dist"), window=(5, 50))
    ok = fit_g.slope <= np.log10(rho_g) + 0.05 and fit_g.r_squared >= 0.9

    # paired runs, shared seeds, identical (eta, alpha): extra-gradient must
    # contract at least as fast as the gradient method
    q_e = derive_params(p, _ieg_cfg(p, schedule=Deterministic(), max_outer=1), True).q
    rho_e = max(1 - q_e + 0.05, 0.9)
    traces_e = [
        run_ieg_sqvi(
            p, _ieg_cfg(p, schedule=IncreasingSample(rho_e), max_outer=55, seed=(100, r)), metrics=("dist",)
        )
        for r in range(10)
    ]
    fit_e = fit_linear_rate(mean_metric_series(traces_e, "dist"), window=(5, 50))
    contraction_e, contraction_g = 10**fit_e.slope, 10**fit_g.slope
    ok &= contraction_e <= contraction_g + 0.02

    # noise-free paired runs show the lookahead advantage directly
    det = make_translated_box_qvi(n=20, seed=7)
    tr_e = run_ieg_sqvi(det, _ieg_cfg(det, schedule=Deterministic(), max_outer=14), metrics=("dist",))
    tr_g = run_ig_sqvi(
        det,
        SolverConfig(eta=det.suggested_eta, alpha=0.9, schedule=Deterministic(), max_outer=14),
        metrics=("dist",),
    )
    de = np.concatenate([[tr_e.initial_metrics["dist"]], tr_e.metric_series("dist")])
    dg = np.concatenate([[tr_g.initial_metrics["dist"]], tr_g.metric_series("dist")])
    rate_e = float(np.mean(de[3:13] / de[2:12]))
    rate_g = float(np.mean(dg[3:13] / dg[2:12]))
    ok &= rate_e <= rate_g + 0.02
    announce(
        "C05",
        ok,
        f"iG slope {fit_g.slope:.4f} (r2 {fit_g.r_squared:.3f}); contraction iEG {contraction_e:.4f} "
        f"<= iG {contraction_g:.4f}+0.02; noise-free rates {rate_e:.3f} <= {rate_g:.3f}+0.02",
    )


def test_c06_deterministic_case():
    p = make_translated_box_qvi(n=20, seed=7)
    trace = run_ieg_sqvi(p, _ieg_cfg(p, schedule=Deterministic(), max_outer=40), metrics=("dist",))
    eps_grid = [1e-2, 1e-4, 1e-6]
    iters, calls = [], []
    for eps in eps_grid:
        rep = oracle_complexity_report(trace, eps, metric="dist")
        iters.append(rep.outer_iterations)
        calls.append(2 * rep.outer_iterations)  # two mean evaluations per iteration
    logs = np.log10(1.0 / np.asarray(eps_grid))
    fit_iters = np.polyfit(logs, iters, 1)
    pred = np.polyval(fit_iters, logs)
    ss_res = float(np.sum((iters - pred) ** 2))
    ss_tot = float(np.sum((iters - np.mean(iters)) ** 2))
    r2_iters = 1.0 - ss_res / max(ss_tot, 1e-30)
    pred_c = np.polyval(np.polyfit(logs, calls, 1), logs)
    r2_calls = 1.0 - float(np.sum((calls - pred_c) ** 2)) / max(
        float(np.sum((calls - np.mean(calls)) ** 2)), 1e-30
    )
    ok = r2_iters >= 0.95 and r2_calls >= 0.95 and iters[-1] < 40
    announce(
        "C06",
        ok,
        f"iterations to eps {iters} fit c*log(1/eps) with r2 {r2_iters:.3f}; "
        f"operator calls {calls} r2 {r2_calls:.3f} (>= 0.95)",
    )


def test_c07_oracle_complexity(stochastic_box):
    p = stochastic_box
    q = derive_params(p, _ieg_cfg(p, schedule=Deterministic(), max_outer=1), True).q
    rho = max(1 - q + 0.05, 0.9)
    traces = [
        run_ieg_sqvi(
            p, _ieg_cfg(p, schedule=IncreasingSample(rho), max_outer=60, seed=(100, r)), metrics=("dist",)
        )
        for r in range(10)
    ]
    mean = mean_metric_series(traces, "dist")
    sums = []
    for eps in (1e-1, 3e-2, 1e-2):
        crossed = np.nonzero(mean <= eps)[0]
        assert crossed.size, f"mean curve never crossed {eps}"
        k = int(crossed[0])
        total_n = sum(traces[0].rows[j].n_k for j in range(k + 1))
        sums.append(total_n * eps**2)
    c = float(np.exp(np.mean(np.log(sums))))
    ok = all(c / 4 <= s <= 4 * c for s in sums)
    announce(
        "C07",
        ok,
        f"sum(N_k)*eps^2 across the grid: {[round(s, 4) for s in sums]} all within 4x of c={c:.4f}",
    )


def test_c08_constant_minibatch_floor(stochastic_box):
    p = stochastic_box
    plateaus = {}
    for n_batch in (4, 16):
        traces = [
            run_ieg_sqvi(
                p,
                _ieg_cfg(p, schedule=ConstantMinibatch(n_batch), max_outer=60, seed=(7, n_batch, r)),
                metrics=("dist",),
            )
            for r in range(10)
        ]
        mean = mean_metric_series(traces, "dist")
        plateaus[n_batch] = float(np.mean(mean[-20:]))
        # a genuine plateau: the last stretch no longer decays geometrically
        assert plateaus[n_batch] > 1e-3
    ratio = plateaus[4] / plateaus[16]
    ok = 1.4 <= ratio <= 2.9
    announce(
        "C08",
        ok,
        f"plateau(N=4) {plateaus[4]:.4f} / plateau(N=16) {plateaus[16]:.4f} = {ratio:.3f} in [1.4, 2.9]",
    )


def test_c09_regression_game_convergence(game_problem):
    p = game_problem
    results = {}
    for runner, name in ((run_ieg_sqvi, "iEG"), (run_ig_sqvi, "iG")):
        cfg = SolverConfig(
            eta=1e-2, alpha=9e-1, b=12e-1, schedule=DampedInner(), max_outer=80, seed=1,
            allow_out_of_range=True,
        )
        trace = runner(p, cfg, metrics=("lower_subopt", "residual"))
        rel_sub = trace.rows[-1].metrics["lower_subopt"] / trace.initial_metrics["lower_subopt"]
        rel_res = trace.rows[-1].metrics["residual"] / trace.initial_metrics["residual"]
        results[name] = (rel_sub, rel_res)
    ok = all(rs <= 1e-3 and rr <= 1e-3 for rs, rr in results.values())
    announce(
        "C09",
        ok,
        "relative lower-level suboptimality / residual after 80 iterations: "
        + ", ".join(f"{k}: {v[0]:.2e}/{v[1]:.2e}" for k, v in results.items())
        + " (<= 1e-3)",
    )


def test_c10_non_strong_monotonicity_exhibit(game_problem, training_minimizer_projector):
    p = game_problem
    rng = np.random.default_rng(4)
    dim = p.operator.dim
    pts = [p.ambient.project(rng.standard_normal(dim)) for _ in range(2)]
    modulus = estimate_strong_monotonicity(p.operator, pts)
    probes = [p.ambient.project(0.8 * rng.standard_normal(dim) / 5.0) for _ in range(50)]
    qg = estimate_qg(p.operator, training_minimizer_projector, probes)
    ok = modulus <= 1e-8 and qg >= 1e-3
    announce(
        "C10",
        ok,
        f"strong-monotonicity modulus {modulus:.2e} <= 1e-8; quadratic-growth modulus {qg:.4f} >= 1e-3",
    )


def test_c11_contraction_recursion():
    p = make_translated_box_qvi(n=20, seed=7)  # zero noise, closed-form projections
    cfg = SolverConfig(
        eta=p.suggested_eta, alpha=0.3, b=2.0, schedule=Deterministic(), max_outer=100, seed=0
    )
    q = derive_params(p, cfg, extra_gradient=True).q
    trace = run_ieg_sqvi(p, cfg, metrics=("dist",))
    d = np.concatenate([[trace.initial_metrics["dist"]], trace.metric_series("dist")])
    excess = float(np.max(d[1:] - (1 - q) * d[:-1]))
    ok = excess <= 1e-9 and len(trace.rows) == 100
    announce("C11", ok, f"max violation of dist_(k+1) <= (1-q) dist_k over 100 steps: {excess:.2e} <= 1e-9")


def test_c12_reproducibility(tmp_path):
    cfg = parse_config(
        json.dumps(
            {
                "problem": "translated_box",
                "problem_params": {"noise_level": 0.5},
                "solver": "ieg",
                "eta": 0.64,
                "alpha": 0.9,
                "b": 2.0,
                "schedule": "increasing",
                "rho": 0.9,
                "T": 30,
                "seed": 11,
                "replicates": 3,
            }
        )
    )
    a = run_experiment(cfg, out_dir=str(tmp_path / "a"))
    b = run_experiment(cfg, out_dir=str(tmp_path / "b"))
    same = all(
        open(pa, "rb").read() == open(pb, "rb").read()
        for pa, pb in zip(a.trace_paths + (a.mean_path,), b.trace_paths + (b.mean_path,))
    )
    announce("C12", same, "replicate and mean trace CSVs byte-identical across reruns")
