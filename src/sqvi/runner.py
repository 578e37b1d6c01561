"""Batch experiment front-end: config parsing, replicated runs, CSV output."""
from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import __version__
from .diagnostics import fit_linear_rate, mean_metric_series
from .errors import ConfigError, InsufficientData, InvalidSchedule, NotReached
from .problems import PRESETS, ProblemInstance, build_problem
from .solvers import (
    _METRICS,
    DerivedParams,
    IterationTrace,
    SolverConfig,
    derive_params,
    oracle_complexity_report,
    run_ieg_sqvi,
    run_ig_sqvi,
    schedule_from_name,
    schedule_values,
)

log = logging.getLogger(__name__)

CSV_HEADER = ",".join(["k", "N_k", "t_k", "cum_samples", "cum_inner", *_METRICS, "wall_ms"])
# _csv writes one column for each of these names, so a metric added to
# _METRICS fails this unpacking at import until _csv writes its column too
_FIRST, _SECOND, _THIRD = _METRICS


class Validated(NamedTuple):
    problem: ProblemInstance
    params: DerivedParams
    build_s: float  # seconds spent building and validating
    scheduled: tuple  # (sum N_k, sum t_k) over the run's k < T


def _is_number(value) -> bool:
    # JSON true/false arrive as bools, which Python counts as ints
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_seed_part(value) -> bool:
    # numpy seeds a stream only from non-negative ints
    return _is_integer(value) and value >= 0


def _is_list_of(value, item_ok) -> bool:
    return isinstance(value, (list, tuple)) and all(map(item_ok, value))


@dataclass(frozen=True)
class RunConfig:
    """One run, with its values in the JSON shapes they were given in.

    ``validated`` builds the problem and checks every rule the run relies
    on, once per config object; :func:`parse_config` computes it.
    """

    problem: str
    solver: str
    eta: float
    alpha: float
    b: float = 0.0
    schedule: str = "deterministic"
    rho: Optional[float] = None
    batch: Optional[int] = None
    decay: Optional[float] = None
    T: int = 100
    seed: Union[int, list] = 0
    replicates: int = 1
    metrics: Optional[list] = None
    floor: Optional[dict] = None  # {"metric": ..., "value": ...}
    problem_params: dict = field(default_factory=dict)
    out: Optional[str] = None
    label: Optional[str] = None
    record_timing: bool = False
    allow_out_of_range: bool = False
    report_epsilons: list = field(default_factory=list)

    def solver_config(self, seed=None) -> SolverConfig:
        return SolverConfig(
            eta=self.eta,
            alpha=self.alpha,
            b=self.b,
            schedule=schedule_from_name(self.schedule, rho=self.rho, batch=self.batch, decay=self.decay),
            max_outer=self.T,
            seed=self.seed if seed is None else seed,
            metric_floor=None if self.floor is None else (self.floor["metric"], self.floor["value"]),
            record_timing=self.record_timing,
            allow_out_of_range=self.allow_out_of_range,
        )

    @cached_property
    def validated(self) -> Validated:
        """The built problem and its derived parameters; raises ConfigError
        for any value the run could not use."""
        tic = time.perf_counter()
        if self.solver not in ("ieg", "ig"):
            raise ConfigError(f"solver must be 'ieg' or 'ig', got {self.solver!r}")
        for name in ("T", "replicates"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("eta", "alpha", "b", "rho", "batch", "decay"):
            value = getattr(self, name)
            if not (value is None or _is_number(value)):  # a missing required value fails below
                raise ConfigError(f"{name} must be a number, got {value!r}")
        # a string such as "false" is truthy, so only JSON booleans may set a flag
        for name in ("allow_out_of_range", "record_timing"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        for name in ("label", "out"):
            value = getattr(self, name)
            if not (value is None or isinstance(value, str)):
                raise ConfigError(f"{name} must be a string or null, got {value!r}")
        # replicate r samples from the stream (seed, r), so only a single run takes a list
        if not (_is_seed_part(self.seed) or (self.replicates == 1 and _is_list_of(self.seed, _is_seed_part))):
            raise ConfigError(f"seed must be a non-negative integer or a list of them, got {self.seed!r}")
        if self.metrics is not None and not _is_list_of(self.metrics, _METRICS.__contains__):
            raise ConfigError(f"metrics must be a list drawn from {_METRICS}, got {self.metrics!r}")
        if not _is_list_of(self.report_epsilons, _is_number):
            raise ConfigError(f"report_epsilons must be a list of numbers, got {self.report_epsilons!r}")
        floor = self.floor
        if floor is not None and not (
            isinstance(floor, dict) and {"metric", "value"} <= floor.keys() and _is_number(floor["value"])
        ):
            raise ConfigError(f"floor must be an object with 'metric' and a numeric 'value', got {floor!r}")
        try:
            problem = build_problem(self.problem, self.problem_params)
        except Exception as exc:
            raise ConfigError(f"problem construction failed: {exc}") from exc
        computable = default_metrics(problem)
        missing = [m for m in self.metrics or () if m not in computable]
        if missing:
            raise ConfigError(
                f"metrics {missing} are not computable on {problem.name}, which offers {list(computable)}"
            )
        if floor is not None and floor["metric"] not in (self.metrics or computable):
            raise ConfigError(f"floor metric {floor['metric']!r} is not recorded")
        try:
            sc = self.solver_config()
            params = derive_params(problem, sc, extra_gradient=self.solver == "ieg")
        except Exception as exc:
            raise ConfigError(str(exc)) from exc
        # the run evaluates the schedule at every k < T; any failure there is a
        # config error, reported before the run starts
        draws = inner = 0
        try:
            for k in range(self.T):
                n_k, t_k = schedule_values(sc.schedule, params.q, k)
                draws, inner = draws + n_k, inner + t_k
        except (InvalidSchedule, ArithmeticError) as exc:
            raise ConfigError(f"schedule {self.schedule!r} fails at iteration {k}: {exc}") from exc
        return Validated(problem, params, time.perf_counter() - tic, (draws, inner))


_KNOWN_KEYS = {f.name for f in fields(RunConfig)} | {"preset"}


def _apply_preset(data: dict) -> dict:
    name = data.pop("preset")
    try:
        preset = PRESETS[name]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown preset {name!r}") from None
    params = {**preset["problem_params"], **data.get("problem_params", {})}
    return {"solver": "ieg", "label": name, **preset, **data, "problem_params": params}


def _finite(literal: str) -> float:
    # json's hook for float literals (1e999 reads as inf) and for NaN and +-Infinity
    value = float(literal)
    if not np.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {literal}")
    return value


def parse_config(text: str) -> RunConfig:
    """Validated run configuration from JSON text.

    Accepts either a bare configuration object or a manifest produced by
    :func:`run_experiment` (whose ``config`` entry is reused verbatim, which
    makes manifests rerunnable). Every number in the text must be finite,
    and every key known: an unknown key at the top level raises ConfigError
    here, and one in ``problem_params`` (or its ``coupling``) when the
    problem is built.
    """
    try:
        data = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if isinstance(data.get("config"), dict):
        data = data["config"]
    if not isinstance(data.get("problem_params", {}), dict):
        raise ConfigError("problem_params must be an object")
    if "preset" in data:
        data = _apply_preset(data)
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for req in ("problem", "solver", "eta", "alpha"):
        if req not in data:
            raise ConfigError(f"missing required config key {req!r}")
    cfg = RunConfig(**data)
    cfg.validated
    return cfg


def default_metrics(problem: ProblemInstance) -> tuple:
    """Every metric the problem can compute: ``dist`` needs a reference
    solution set, which only the translated box has (the coupled saddle
    point's solutions can form a continuum, and the regression game's are
    not known in closed form), and ``lower_subopt`` a lower-level
    objective, which only the regression game has."""
    out = []
    if problem.reference_projector is not None:
        out.append("dist")
    out.append("residual")
    if problem.lower_level is not None:
        out.append("lower_subopt")
    return tuple(out)


def _fmt(value) -> str:
    if type(value) is float:  # the metric cells, as the solvers record them
        return f"{value:.17g}"
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        get = row.metrics.get
        lines.append(
            f"{row.k},{row.n_k},{row.t_k},{row.cum_samples},{row.cum_inner},"
            f"{_fmt(get(_FIRST))},{_fmt(get(_SECOND))},{_fmt(get(_THIRD))},{_fmt(row.wall_ms)}"
        )
    return "\n".join(lines) + "\n"


def trace_to_csv(trace: IterationTrace) -> str:
    return _csv(trace.rows)


class ReplicateRecord(NamedTuple):
    """What a finished replicate leaves once its trace CSV is written."""

    series: dict  # recorded metric -> float64 array, one value per trace row
    entry: dict  # the replicate's entry in summary.json

    def metric_series(self, metric: str) -> np.ndarray:
        # as IterationTrace.metric_series, so mean_metric_series takes records
        return self.series[metric]


def _record(trace: IterationTrace, metrics, projections: int) -> ReplicateRecord:
    rows = trace.rows
    entry = {
        "final_metrics": trace.summary["final_metrics"],
        "iterations": trace.summary["iterations"],
        # inner iterations the schedule allowed, and those the projections ran
        "inner_scheduled": projections * sum(row.t_k for row in rows),
        "inner_consumed": rows[-1].cum_inner if rows else 0,
    }
    return ReplicateRecord({metric: trace.metric_series(metric) for metric in metrics}, entry)


def mean_csv(rows: Sequence, means: dict) -> str:
    """The replicate means (metric -> :func:`mean_metric_series`, cut to the
    shortest replicate) as CSV; ``rows`` (the first replicate's trace rows)
    give the integer columns, and wall time is not aggregated."""
    columns = {metric: series.tolist() for metric, series in means.items()}
    n = min(len(column) for column in columns.values())
    return _csv(
        replace(row, metrics={metric: column[k] for metric, column in columns.items()}, wall_ms=None)
        for k, row in enumerate(rows[:n])
    )


class RunArtifacts(NamedTuple):
    out_dir: str
    trace_paths: tuple
    mean_path: str
    manifest_path: str
    summary_path: str
    summary: dict


def run_experiment(cfg: RunConfig, out_dir: Optional[str] = None) -> RunArtifacts:
    """Execute the configured runs and write traces, manifest, and summary.

    Writes one CSV per replicate, a mean-over-replicates CSV, a manifest
    that reproduces the run when fed back to ``parse_config``, and a summary
    with final metrics and fitted rates.
    """
    problem, params, build_s, _ = cfg.validated
    if params.violations:
        log.warning("parameter validation bypassed: %s", "; ".join(params.violations))
    out_dir = out_dir or cfg.out or os.path.join("runs", cfg.label or cfg.problem)
    os.makedirs(out_dir, exist_ok=True)
    metrics = cfg.metrics or default_metrics(problem)
    runner = run_ieg_sqvi if cfg.solver == "ieg" else run_ig_sqvi
    projections = 2 if cfg.solver == "ieg" else 1  # per outer iteration
    # only the first replicate's trace outlives its CSV: the mean CSV takes
    # its integer columns and the summary its theory values and crossings
    first = None
    records = []
    trace_paths = []
    solve_s = []
    for rep in range(cfg.replicates):
        seed = cfg.seed if cfg.replicates == 1 else (cfg.seed, rep)
        tic = time.perf_counter()
        trace = runner(problem, cfg.solver_config(seed=seed), metrics=metrics)
        solve_s.append(time.perf_counter() - tic)
        path = os.path.join(out_dir, f"trace_rep{rep:02d}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace_to_csv(trace))
        trace_paths.append(path)
        first = first or trace
        records.append(_record(trace, metrics, projections))
    # one mean per metric, which both the mean CSV and the fitted rates read
    means = {metric: mean_metric_series(records, metric) for metric in metrics}
    mean_path = os.path.join(out_dir, "trace_mean.csv")
    with open(mean_path, "w", encoding="utf-8") as fh:
        fh.write(mean_csv(first.rows, means))

    manifest = {
        "version": __version__,
        "config": asdict(cfg),
        "problem_manifest": problem.manifest(),
        "derived": params._asdict(),
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    summary = _summarize(cfg, metrics, first, records, means)
    if cfg.record_timing:  # timings vary run to run; by default the summary repeats exactly
        summary["timing"] = {"build_s": build_s, "solve_s": solve_s}
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunArtifacts(
        out_dir=out_dir,
        trace_paths=tuple(trace_paths),
        mean_path=mean_path,
        manifest_path=manifest_path,
        summary_path=summary_path,
        summary=summary,
    )


def _summarize(cfg: RunConfig, metrics, first: IterationTrace, records: Sequence[ReplicateRecord], means) -> dict:
    mean_finals = {}
    for metric in metrics:
        vals = [rec.entry["final_metrics"].get(metric) for rec in records]
        if all(v is not None for v in vals):
            mean_finals[metric] = float(np.mean([float(v) for v in vals]))
    fits = {}
    for metric, series in means.items():
        try:
            fit = fit_linear_rate(series, window=(5, series.shape[0] - 1))
            fits[metric] = {"slope_log10": fit.slope, "r_squared": fit.r_squared}
        except InsufficientData:
            fits[metric] = None
    crossings = {}
    for eps in cfg.report_epsilons:
        try:
            rep = oracle_complexity_report(first, eps, metric=metrics[0])
            row = first.rows[rep.first_k] if rep.outer_iterations else None
            crossings[_fmt(eps)] = {
                "outer_iterations": rep.outer_iterations,
                "total_samples": rep.total_samples,
                "total_inner": rep.total_inner,
                "cum_samples": row.cum_samples if row else 0,
                "cum_inner": row.cum_inner if row else 0,
            }
        except NotReached:
            crossings[_fmt(eps)] = None
    return {
        "solver": cfg.solver,
        "metrics": list(metrics),
        "replicates": [rec.entry for rec in records],
        "mean_final_metrics": mean_finals,
        "fitted_rates": fits,
        "epsilon_crossings": crossings,
        "beta_q": {"beta": first.summary["beta"], "q": first.summary["q"]},
        "rho": first.summary["rho"],
    }
