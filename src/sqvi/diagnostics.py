"""Solution-quality metrics and convergence-rate fitting."""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InsufficientData, NoReferenceSolution, WrongProblemKind
from .operators import evaluate_mean
from .projection import _check_budget, inexact_project, reference_project
from .sets import Array, squared_norms

# values at or below either floor are rounding noise and excluded from fits
_VALUE_FLOOR = 1e-14
_RELATIVE_FLOOR = 1e-12  # times the largest value of the series


def _lone_or_rows(values: Array):
    # a float for one point, as callers of a lone call expect; an array for a stack
    return float(values) if values.ndim == 0 else values


def dist_to_solution(problem, x):
    """Distance from x to the problem's reference solution set, for one point
    (a float) or each row of a stack ``(..., dim)`` (an array), each row bit
    for bit as a lone call; the reference projector must map stacks row by
    row."""
    if problem.reference_projector is None:
        raise NoReferenceSolution(f"problem {problem.name!r} has no reference solution set")
    x = np.asarray(x, dtype=float)
    d = x - np.asarray(problem.reference_projector(x), dtype=float)
    return _lone_or_rows(np.sqrt(squared_norms(d)))


class Residual(NamedTuple):
    value: float
    error_bound: float


def natural_residual(problem, x, eta: Optional[float] = None, budget: Optional[int] = None) -> Residual:
    """Fixed-point violation ||x - P_K(x)(x - eta F(x))|| with a certified projection.

    Uses the exact projection where a closed form (or closed-form surrogate)
    exists and an iterative solve with ``budget`` inner iterations otherwise
    (2000 when None); the projection's error bound certifies the residual to
    within that bound. A budget that is not an integer >= 1 raises
    InvalidParameters on every map, exact or not.

    ``x`` is one point, giving floats, or a stack ``(R, dim)``, giving value
    and bound as arrays of R. On an exact map the stack is projected at once,
    each row bit for bit as a lone call, so the operator's mean field and
    the map's closed form must map stacks row by row. On an inexact map the
    rows are solved one at a time, each with ``budget`` and a lone mean
    evaluation.
    """
    if budget is not None:
        _check_budget(budget)
    x = np.asarray(x, dtype=float)
    if eta is None:
        eta = problem.suggested_eta
    if problem.map.exact:
        target = x - eta * evaluate_mean(problem.operator, x)
        d = x - reference_project(problem.map, x, target)
        value = _lone_or_rows(np.sqrt(squared_norms(d)))
        return Residual(value=value, error_bound=_lone_or_rows(np.zeros(x.shape[:-1])))
    if x.ndim == 1:
        return _projected_residual(problem, x, eta, budget)
    rows = [_projected_residual(problem, row, eta, budget) for row in x]
    return Residual(np.array([r.value for r in rows]), np.array([r.error_bound for r in rows]))


def _projected_residual(problem, x, eta, budget) -> Residual:
    # one point through the map's solver path
    target = x - eta * evaluate_mean(problem.operator, x)
    res = inexact_project(problem.map, x, target, t=2000 if budget is None else budget, ambient=problem.ambient)
    return Residual(value=float(np.linalg.norm(x - res.point)), error_bound=res.error_bound)


def lower_level_subopt(problem, x):
    """Training-objective suboptimality for bilevel game instances, for one
    point (a float) or each row of a stack ``(..., dim)`` (an array)."""
    if problem.lower_level is None:
        raise WrongProblemKind(f"problem {problem.name!r} has no lower-level objective")
    x = np.asarray(x, dtype=float)
    ll = problem.lower_level
    return _lone_or_rows(np.asarray(ll.value(x) - ll.min_value, dtype=float))


class RateFit(NamedTuple):
    slope: float
    r_squared: float
    samples: int


def fit_linear_rate(values, window: Optional[tuple] = None) -> RateFit:
    """Least-squares fit of log10(values[k]) against the iteration index k.

    The fit uses values above 1e-14 and above 1e-12 times the largest value
    of the whole series inside the inclusive window of k, and needs at least
    five of them. Returns the slope per iteration in log10 and the
    coefficient of determination.
    """
    values = np.asarray(values, dtype=float)
    ks = np.arange(values.shape[0], dtype=float)
    largest = float(np.max(values, where=np.isfinite(values), initial=0.0))
    floor = max(_VALUE_FLOOR, _RELATIVE_FLOOR * largest)
    if window is not None:
        lo, hi = window
        sel = (ks >= lo) & (ks <= hi)
        values, ks = values[sel], ks[sel]
    mask = np.isfinite(values) & (values > floor)
    values, ks = values[mask], ks[mask]
    if values.shape[0] < 5:
        raise InsufficientData(f"need >= 5 usable samples, got {values.shape[0]}")
    logs = np.log10(values)
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), r_squared=r2, samples=int(values.shape[0]))


def mean_metric_series(traces: Sequence, metric: str) -> np.ndarray:
    """Elementwise mean of a metric across replicate traces (truncated to the
    shortest): entry k is the 1-D pairwise ``np.mean`` of the values at k."""
    series = [t.metric_series(metric) for t in traces]
    n = min(s.shape[0] for s in series)
    return np.mean(np.stack([s[:n] for s in series], axis=1), axis=1)
