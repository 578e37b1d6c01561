"""Inexact extra-gradient and gradient solvers for stochastic QVIs.

Both solvers damp a projected step with a retraction: the gradient variant
projects once per iteration, the extra-gradient variant inserts a lookahead
projection at an intermediate point before retracting. Projections may be
inexact with certified error, operator values are mini-batch averages, and
batch sizes / inner budgets follow one of several schedules whose knobs are
tied to the contraction factor q of the distance recursion.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import diagnostics
from .errors import (
    DimensionMismatch,
    InvalidConstants,
    InvalidParameters,
    InvalidSchedule,
    NoAdmissibleStep,
    NonfiniteIterate,
    NotReached,
)
from .operators import evaluate_mean, sample_batch, stream_key
from .projection import inexact_project


# ---------------------------------------------------------------------------
# parameter algebra


def _check_constants(lipschitz: float, mu: float, gamma: float) -> None:
    # every comparison with NaN is false, so a NaN constant fails too
    if not (lipschitz > 0 and 0 <= mu <= lipschitz * (1 + 1e-12) and gamma >= 0):
        raise InvalidConstants(
            f"need L > 0, 0 <= mu <= L and gamma >= 0, got L={lipschitz}, mu={mu}, gamma={gamma}"
        )


def derive_beta(lipschitz: float, mu: float, gamma: float, eta: float) -> float:
    """Per-step expansion factor gamma + sqrt(1 + L^2 eta^2 - 2 eta mu).

    The radicand equals (1 - eta*mu)^2 + eta^2 (L^2 - mu^2), hence is
    nonnegative whenever mu <= L.
    """
    _check_constants(lipschitz, mu, gamma)
    try:
        radicand = 1.0 + (lipschitz * eta) ** 2 - 2.0 * eta * mu
    except OverflowError:
        raise InvalidParameters(f"eta={eta!r} overflows beta: (L eta)^2 exceeds the floats") from None
    return gamma + math.sqrt(max(radicand, 0.0))


def admissible_eta_interval(lipschitz: float, mu: float, gamma: float):
    """Open interval of step sizes for which the expansion factor stays below 1.

    Requires mu^2 > L^2 (2 gamma - gamma^2) and gamma + sqrt(1 - mu^2/L^2) < 1.
    The two conditions agree when gamma < 1; for gamma >= 1 the second
    always fails, while the first holds for every gamma > 2. At either endpoint
    the expansion factor equals exactly 1. The error names only the
    conditions that fail.
    """
    _check_constants(lipschitz, mu, gamma)
    l2 = lipschitz * lipschitz
    disc = mu * mu - l2 * (2.0 * gamma - gamma * gamma)
    side = gamma + math.sqrt(max(1.0 - (mu * mu) / l2, 0.0))
    failed = []
    if disc <= 0.0:
        failed.append(
            f"mu^2 > L^2(2*gamma - gamma^2) (got {mu * mu:.6g} vs {l2 * (2 * gamma - gamma * gamma):.6g})"
        )
    if side >= 1.0:
        failed.append(f"gamma + sqrt(1 - mu^2/L^2) < 1 (got {side:.6g})")
    if failed:
        raise NoAdmissibleStep("no admissible step size: need " + " and ".join(failed))
    delta = math.sqrt(disc)
    return ((mu - delta) / l2, (mu + delta) / l2)


def contraction_factor(alpha: float, beta: float, b: float = 0.0) -> float:
    """Distance-recursion contraction q = alpha (1 - beta)(1 + beta b).

    b = 0 gives the gradient-method factor alpha (1 - beta).
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidParameters(f"alpha must lie in (0,1), got {alpha}")
    if not (0.0 <= beta < 1.0):
        raise InvalidParameters(f"beta must lie in [0,1), got {beta}")
    if b < 0.0:
        raise InvalidParameters(f"b must be nonnegative, got {b}")
    # b is irrelevant when beta = 0, so the upper bound is only enforced
    # for a genuinely expansive map
    if beta > 0.0 and not (b < 1.0 / (1.0 - beta)):
        raise InvalidParameters(f"b must lie in [0, 1/(1-beta)), got {b}")
    return alpha * (1.0 - beta) * (1.0 + beta * b)


# ---------------------------------------------------------------------------
# schedules


def _inner_budget(k: int, contraction: float) -> int:
    """t_k = ceil((k+1) ln^2(k+2) / contraction^k), floored at 1."""
    return max(int(math.ceil((k + 1.0) * math.log(k + 2.0) ** 2 / contraction**k)), 1)


def _geometric_rho(rho: Optional[float], q: Optional[float]) -> float:
    """``rho`` if given, else max(1 - q + 0.05, 0.9), or the midpoint 1 - q/2
    of (1 - q, 1) when that reaches 1; it must lie in (1 - q, 1)."""
    if rho is None:
        if q is None:
            raise InvalidSchedule("schedule needs rho or q")
        rho = max(1.0 - q + 0.05, 0.9)
        if rho >= 1.0:
            rho = 1.0 - 0.5 * q
    if q is not None and not (rho > 1.0 - q):
        raise InvalidSchedule(f"rho must exceed 1-q (rho={rho}, 1-q={1.0 - q})")
    if not (0.0 < rho < 1.0):
        raise InvalidSchedule(f"rho must lie in (0,1), got {rho}")
    return rho


@dataclass(frozen=True)
class IncreasingSample:
    """Geometrically growing batches N_k = ceil(rho^(-2k)) with matching inner
    budgets t_k = ceil((k+1) ln^2(k+2) / rho^k); ``rho`` as in :func:`_geometric_rho`."""

    rho: Optional[float] = None
    exact_mean = False

    def values(self, q: Optional[float], k: int):
        rho = _geometric_rho(self.rho, q)
        return max(int(math.ceil(rho ** (-2 * k))), 1), _inner_budget(k, rho)


@dataclass(frozen=True)
class ConstantMinibatch:
    """Fixed batch size; inner budgets t_k = ceil((k+1) ln^2(k+2) / (1-q)^k)."""

    batch: Optional[int] = None
    exact_mean = False

    def values(self, q: Optional[float], k: int):
        if self.batch is None or not (self.batch >= 1 and self.batch % 1 == 0):
            # batch % 1 is nan for nan and inf
            raise InvalidSchedule(f"constant schedule needs an integer batch size >= 1, got {self.batch}")
        if q is None or not (0.0 < q < 1.0):
            raise InvalidSchedule("constant mini-batch schedule needs q in (0,1)")
        return int(self.batch), _inner_budget(k, 1.0 - q)


@dataclass(frozen=True)
class Deterministic:
    """Exact mean evaluations (N_k = 1); inner budgets as in the increasing-sample
    schedule, with the same ``rho`` rule."""

    rho: Optional[float] = None
    exact_mean = True

    def values(self, q: Optional[float], k: int):
        return 1, _inner_budget(k, _geometric_rho(self.rho, q))


@dataclass(frozen=True)
class DampedInner:
    """Inner budgets t_k = ceil(k ln^2(k+1) decay^k), floored at 1; exact means.

    The experiment preset for the regression game uses this with
    decay = 1 - 1e-3.
    """

    decay: float = 1.0 - 1e-3
    exact_mean = True

    def values(self, q: Optional[float], k: int):
        if not self.decay > 0:
            raise InvalidSchedule(f"damped schedule needs decay > 0, got {self.decay}")
        return 1, max(int(math.ceil(k * math.log(k + 1.0) ** 2 * self.decay**k)), 1)


Schedule = Union[IncreasingSample, ConstantMinibatch, Deterministic, DampedInner]

_SCHEDULE_NAMES = {
    "increasing": IncreasingSample,
    "constant": ConstantMinibatch,
    "deterministic": Deterministic,
    "damped": DampedInner,
}


def schedule_values(schedule: Schedule, q: Optional[float], k: int):
    """Batch size and inner budget (N_k, t_k) prescribed for outer iteration k.

    Each schedule computes its own values; its ``exact_mean`` says whether
    iterations evaluate the closed-form mean instead of drawing a batch.
    """
    if k < 0:
        raise InvalidSchedule("iteration index must be >= 0")
    return schedule.values(q, k)


def schedule_from_name(name: str, **params) -> Schedule:
    """The schedule called ``name``, given the ``params`` that are not None.

    A param the schedule has no field for raises InvalidSchedule, rather
    than being dropped; the schedule's ``values`` reports a missing one.
    """
    try:
        cls = _SCHEDULE_NAMES[name]
    except KeyError:
        raise InvalidSchedule(f"unknown schedule name {name!r}") from None
    given = {key: value for key, value in params.items() if value is not None}
    unused = sorted(given.keys() - {f.name for f in fields(cls)})
    if unused:
        raise InvalidSchedule(f"schedule {name!r} takes no {', '.join(unused)}")
    return cls(**given)


# ---------------------------------------------------------------------------
# configuration and traces


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for the two solvers.

    ``b`` is the extra-gradient retraction weight (ignored by the gradient
    solver). ``allow_out_of_range`` turns parameter-validation failures into
    the ``violations`` of the derived parameters, which the tuned experiment
    presets rely on.
    """

    eta: float
    alpha: float
    b: float = 0.0
    schedule: Schedule = Deterministic()
    max_outer: int = 100
    seed: Union[int, tuple] = 0
    metric_floor: Optional[tuple] = None  # (metric id, value)
    record_timing: bool = False
    allow_out_of_range: bool = False


class DerivedParams(NamedTuple):
    beta: float
    q: Optional[float]
    eta_interval: Optional[tuple]
    violations: tuple  # preconditions of the theory that fail; empty when certified
    rho: Optional[float]  # the rho a geometric schedule runs with; None for the others


def derive_params(problem, config: SolverConfig, extra_gradient: bool) -> DerivedParams:
    """Expansion factor, contraction factor, admissible step interval, and
    the effective rho of an ``increasing`` or ``deterministic`` schedule.

    Raises on invalid parameters unless the config opts out, in which case
    the issues are returned as ``violations`` with a best-effort q (possibly
    None). L and mu are the operator's, gamma the map's. A rho the schedule
    cannot use is left None here; the schedule raises it when asked for its
    values.
    """
    constants = (problem.operator.lipschitz, problem.operator.qg_mu, problem.map.gamma)
    beta = derive_beta(*constants, config.eta)
    interval = None
    problems = []
    try:
        interval = admissible_eta_interval(*constants)
        if not (interval[0] < config.eta < interval[1]):
            problems.append(
                f"eta={config.eta} outside the admissible interval "
                f"({interval[0]:.6g}, {interval[1]:.6g})"
            )
    except NoAdmissibleStep as exc:
        problems.append(str(exc))
    q = None
    try:
        q = contraction_factor(config.alpha, beta, config.b if extra_gradient else 0.0)
    except InvalidParameters as exc:
        problems.append(str(exc))
    if problems and not config.allow_out_of_range:
        raise InvalidParameters("; ".join(problems))
    rho = None
    if hasattr(config.schedule, "rho"):
        try:
            rho = _geometric_rho(config.schedule.rho, q)
        except InvalidSchedule:
            pass
    return DerivedParams(beta=beta, q=q, eta_interval=interval, violations=tuple(problems), rho=rho)


@dataclass(slots=True)
class TraceRow:
    k: int
    n_k: int
    t_k: int
    cum_samples: int
    cum_inner: int
    metrics: dict
    wall_ms: Optional[float] = None


@dataclass
class IterationTrace:
    """Per-iteration solver record plus a terminal summary.

    Row k holds the schedule values used in iteration k and the metrics of
    the iterate produced by it; metrics of the initial point live in
    ``initial_metrics``.
    """

    problem_name: str
    solver: str
    metrics: tuple
    initial_metrics: dict
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def metric_series(self, metric: str) -> np.ndarray:
        return np.asarray([row.metrics.get(metric, np.nan) for row in self.rows], dtype=float)


class ComplexityReport(NamedTuple):
    """Schedule totals up to the first iteration whose metric meets epsilon.

    ``total_samples`` is sum N_k and ``total_inner`` is sum t_k, each counted
    once per outer iteration. They are schedule figures, not work consumed:
    IEG draws 2 sum N_k samples and runs two projections per iteration, and
    closed-form projections run no inner iterations. The consumed counts are
    ``cum_samples``/``cum_inner`` of trace row ``first_k``.
    """

    outer_iterations: int
    total_samples: int
    total_inner: int
    first_k: int


def oracle_complexity_report(trace: IterationTrace, epsilon: float, metric: str = "dist") -> ComplexityReport:
    """Iterations, scheduled samples, and scheduled inner steps to cross epsilon.

    Totals are the schedule sums over iterations 0..k at the first k whose
    recorded metric is at or below epsilon (see ``ComplexityReport`` for what
    they do and do not count). A threshold already met by the initial point
    reports zeros.
    """
    init = trace.initial_metrics.get(metric)
    if init is not None and init <= epsilon:
        return ComplexityReport(0, 0, 0, 0)
    for row in trace.rows:
        val = row.metrics.get(metric)
        if val is not None and val <= epsilon:
            upto = [r for r in trace.rows if r.k <= row.k]
            return ComplexityReport(
                outer_iterations=row.k + 1,
                total_samples=int(sum(r.n_k for r in upto)),
                total_inner=int(sum(r.t_k for r in upto)),
                first_k=row.k,
            )
    raise NotReached(f"metric {metric!r} never crossed {epsilon}")


# ---------------------------------------------------------------------------
# run loops


# the residual metric projects with ten times the step's inner budget, so its
# certified projection error is a tenth of the step's
_RESIDUAL_BUDGET_SCALE = 10


# relative tolerance of the solver's projections: an inner solver with an
# a-posteriori certificate stops once its bound is at most this fraction of
# the step length ||x - P(x - eta F)||, with t_k as the cap
_INNER_REL_TOL = 1e-2


def _projected_step(problem, config, streams, x, n_k, t_k, phase):
    """Project the batch-operator step at x onto K(x) with budget at most t_k;
    a batch is the next draw from ``streams[phase]``, the generator
    ``np.random.default_rng(seed + (phase,))``.

    Returns the projected point, the inner iterations run and the operator
    draws spent (an exact mean evaluation counts as one draw).
    """
    if config.schedule.exact_mean:
        fhat, drawn = evaluate_mean(problem.operator, x), 1
    else:
        fhat, drawn = sample_batch(problem.operator, x, n_k, streams[phase]), n_k
    res = inexact_project(
        problem.map, x, x - config.eta * fhat, t_k, ambient=problem.ambient, rel_tol=_INNER_REL_TOL
    )
    return res.point, res.inner_iterations, drawn


_METRICS = ("dist", "residual", "lower_subopt")


def _metric(problem, name, x, config, budget=None):
    # one metric at one point or at each row of a stack
    if name == "dist":
        return diagnostics.dist_to_solution(problem, x)
    if name == "residual":
        return diagnostics.natural_residual(problem, x, eta=config.eta, budget=budget).value
    return diagnostics.lower_level_subopt(problem, x)


_ROW_BY_ROW = "mean_eval and reference_projector must map stacks row by row"


def _stacked(problem, name, xs, config, lone) -> list:
    # one metric on the whole stack; row 0 must be the lone call's bits
    try:
        column = np.asarray(_metric(problem, name, xs, config)).tolist()
    except (ValueError, IndexError, DimensionMismatch) as err:
        raise InvalidParameters(f"metric {name!r}: {_ROW_BY_ROW}") from err
    if np.float64(column[0]).tobytes() != np.float64(lone).tobytes():
        raise InvalidParameters(f"metric {name!r}: {_ROW_BY_ROW}")
    return column


def _eval_metrics(problem, xs, metrics, config, known) -> list:
    """Each metric at each row of the stack xs (x0 first), as one dict per
    row. ``known`` gives per metric its values from lone calls, from row 0
    on: x0's, computed before the run, and the per-iterate ones of ``_run``.
    The rest is one call per metric on the stack, checked by its row 0, so a
    mean field or reference projector that maps only one point raises
    InvalidParameters."""
    values = [{} for _ in xs]
    for name in metrics:
        column = known[name]
        if len(column) < len(xs):
            column = _stacked(problem, name, xs, config, column[0])
        for out, value in zip(values, column):
            out[name] = value
    return values


def _trace(problem, config, solver, metrics, iterates, rows, known) -> IterationTrace:
    """The trace of a run from its iterates, x0 first, per iteration k the
    tuple (k, n_k, t_k, cum_samples, cum_inner, wall_ms), and the metric
    values already computed by lone calls (see ``_eval_metrics``); the other
    values are evaluated on the stack of iterates.
    """
    values = _eval_metrics(problem, np.stack(iterates), metrics, config, known)
    trace = IterationTrace(problem_name=problem.name, solver=solver, metrics=metrics, initial_metrics=values[0])
    trace.rows = [
        TraceRow(k, n_k, t_k, samples, inner, m, wall)
        for (k, n_k, t_k, samples, inner, wall), m in zip(rows, values[1:])
    ]
    return trace


def _run(problem, config: SolverConfig, metrics, extra_gradient: bool) -> IterationTrace:
    params = derive_params(problem, config, extra_gradient)
    if config.schedule.exact_mean and problem.operator.mean_eval is None:
        raise InvalidParameters("deterministic schedules need a closed-form mean field")
    metrics = tuple(metrics)
    for name in metrics:
        if name not in _METRICS:
            raise InvalidParameters(f"unknown metric id {name!r}")
    floor = config.metric_floor
    if floor is not None and floor[0] not in metrics:
        raise InvalidParameters(f"metric floor references {floor[0]!r}, which is not recorded")
    solver = "ieg" if extra_gradient else "ig"
    # one generator per phase, drawn in iteration order: phase 0 for the
    # step at x, phase 1 for the lookahead, so IG at a seed draws IEG's phase 0
    seed_key = stream_key(config.seed)
    phases = range(2 if extra_gradient else 1)
    streams = None if config.schedule.exact_mean else [np.random.default_rng(seed_key + (p,)) for p in phases]
    x = np.asarray(problem.x0, dtype=float).copy()
    # x0's metrics by lone calls, so a metric the problem lacks fails here;
    # ``lone`` are lone calls at each new iterate too, the others one call on
    # the stack of iterates after the loop (or before NonfiniteIterate). The
    # residual's budget at x0 is that of iteration 0, as at x_{k+1} that of k
    t_0 = schedule_values(config.schedule, params.q, 0)[1]
    known = {name: [_metric(problem, name, x, config, _RESIDUAL_BUDGET_SCALE * t_0)] for name in metrics}
    # the floor's metric, and the residual on a map with no closed form
    lone = [n for n in metrics if (floor is not None and n == floor[0])
            or (n == "residual" and not problem.map.exact)]
    iterates = [x]
    rows = []
    cum_samples = 0
    cum_inner = 0
    stopped_early = False
    for k in range(config.max_outer):
        tic = time.perf_counter()
        n_k, t_k = schedule_values(config.schedule, params.q, k)
        point, inner, drawn = _projected_step(problem, config, streams, x, n_k, t_k, 0)
        cum_inner += inner
        cum_samples += drawn
        if extra_gradient:
            u = (1.0 - config.b) * x + config.b * point
            point, inner, drawn = _projected_step(problem, config, streams, u, n_k, t_k, 1)
            cum_inner += inner
            cum_samples += drawn
        x_new = (1.0 - config.alpha) * x + config.alpha * point
        if not np.isfinite(x_new).all():
            trace = _trace(problem, config, solver, metrics, iterates, rows, known)
            raise NonfiniteIterate(f"iterate became nonfinite at iteration {k}", trace)
        x = x_new
        wall = (time.perf_counter() - tic) * 1e3
        iterates.append(x)
        rows.append((k, n_k, t_k, cum_samples, cum_inner, wall if config.record_timing else None))
        for name in lone:
            known[name].append(_metric(problem, name, x, config, _RESIDUAL_BUDGET_SCALE * t_k))
        if floor is not None and known[floor[0]][-1] <= floor[1]:
            stopped_early = True
            break
    trace = _trace(problem, config, solver, metrics, iterates, rows, known)
    trace.summary = {
        "iterations": len(trace.rows),
        "stopped_early": stopped_early,
        "beta": params.beta,
        "q": params.q,
        "rho": params.rho,
        "eta_interval": params.eta_interval,
        "violations": list(params.violations),
        "final_metrics": dict(trace.rows[-1].metrics) if trace.rows else dict(trace.initial_metrics),
        "final_point": x.tolist(),
    }
    return trace


def run_ieg_sqvi(problem, config: SolverConfig, metrics: Sequence[str] = ("dist",)) -> IterationTrace:
    """Inexact extra-gradient run.

    Per outer iteration k: project the batch-operator step at x_k onto
    K(x_k) with budget t_k, retract with weight b to the lookahead point
    u_k, project a fresh batch step at u_k onto K(u_k), then retract with
    weight alpha to form x_{k+1}.
    """
    return _run(problem, config, metrics, extra_gradient=True)


def run_ig_sqvi(problem, config: SolverConfig, metrics: Sequence[str] = ("dist",)) -> IterationTrace:
    """Inexact gradient run: one projected batch step per iteration, retracted by alpha."""
    return _run(problem, config, metrics, extra_gradient=False)
