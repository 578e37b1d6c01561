"""Batch experiment front-end: config parsing, replicated runs, CSV output."""
from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .diagnostics import fit_linear_rate, mean_metric_series
from .errors import ConfigError, InsufficientData, InvalidSchedule, NotReached, UnknownKey
from .problems import PRESETS, ProblemInstance, build_problem
from .solvers import (
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

CSV_HEADER = "k,N_k,t_k,cum_samples,cum_inner,dist,residual,lower_subopt,wall_ms"
_METRIC_COLUMNS = ("dist", "residual", "lower_subopt")


@dataclass(frozen=True)
class RunConfig:
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
    seed: int = 0
    replicates: int = 1
    metrics: Optional[tuple] = None
    floor: Optional[tuple] = None
    problem_params: dict = field(default_factory=dict)
    out: Optional[str] = None
    label: Optional[str] = None
    record_timing: bool = False
    allow_out_of_range: bool = False
    report_epsilons: tuple = ()

    def solver_config(self, seed=None) -> SolverConfig:
        return SolverConfig(
            eta=self.eta,
            alpha=self.alpha,
            b=self.b,
            schedule=schedule_from_name(self.schedule, rho=self.rho, batch=self.batch, decay=self.decay),
            max_outer=self.T,
            seed=self.seed if seed is None else seed,
            metric_floor=self.floor,
            record_timing=self.record_timing,
            allow_out_of_range=self.allow_out_of_range,
        )


_KNOWN_KEYS = {f.name for f in fields(RunConfig)} | {"preset"}


def _apply_preset(data: dict) -> dict:
    name = data.pop("preset")
    try:
        preset = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}") from None
    merged = dict(data)
    merged.setdefault("problem", preset["problem"])
    merged.setdefault("solver", "ieg")
    params = dict(preset["problem_params"])
    params.setdefault("sigma", preset["sigma"])
    params.update(merged.get("problem_params", {}))
    merged["problem_params"] = params
    for key, val in preset["solver_params"].items():
        merged.setdefault(key, val)
    merged.setdefault("label", name)
    return merged


def parse_config(text: str, strict: bool = False) -> RunConfig:
    """Validated run configuration from JSON text.

    Accepts either a bare configuration object or a manifest produced by
    :func:`run_experiment` (whose ``config`` entry is reused verbatim, which
    makes manifests rerunnable).
    """
    return check_config(text, strict)[0]


def check_config(text: str, strict: bool = False) -> Tuple[RunConfig, DerivedParams]:
    """:func:`parse_config` plus the derived parameters its validation computed;
    their ``violations`` list what ``allow_out_of_range`` let through."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    data = dict(data)
    if "preset" in data:
        data = _apply_preset(data)
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        msg = f"unknown config key(s): {', '.join(sorted(unknown))}"
        if strict:
            raise UnknownKey(msg)
        log.warning("%s (ignored)", msg)
        for key in unknown:
            data.pop(key)
    for req in ("problem", "solver", "eta", "alpha"):
        if req not in data:
            raise ConfigError(f"missing required config key {req!r}")
    if data["solver"] not in ("ieg", "ig"):
        raise ConfigError(f"solver must be 'ieg' or 'ig', got {data['solver']!r}")
    if "floor" in data and data["floor"] is not None:
        fl = data["floor"]
        if not (isinstance(fl, dict) and "metric" in fl and "value" in fl):
            raise ConfigError("floor must be an object with 'metric' and 'value'")
        data["floor"] = (str(fl["metric"]), float(fl["value"]))
    if "metrics" in data and data["metrics"] is not None:
        data["metrics"] = tuple(data["metrics"])
    if "report_epsilons" in data:
        data["report_epsilons"] = tuple(float(e) for e in data["report_epsilons"])
    if "problem_params" in data and not isinstance(data["problem_params"], dict):
        raise ConfigError("problem_params must be an object")
    try:
        cfg = RunConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, _validate(cfg)[1]


def _validate(cfg: RunConfig) -> Tuple[ProblemInstance, DerivedParams]:
    if cfg.T < 1:
        raise ConfigError("T must be >= 1")
    if cfg.replicates < 1:
        raise ConfigError("replicates must be >= 1")
    try:
        problem = build_problem(cfg.problem, cfg.problem_params)
    except Exception as exc:
        raise ConfigError(f"problem construction failed: {exc}") from exc
    try:
        sc = cfg.solver_config()
        params = derive_params(problem, sc, extra_gradient=cfg.solver == "ieg")
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    # the run evaluates the schedule at every k < T; any failure there is a
    # config error, reported before the run starts
    try:
        for k in range(cfg.T):
            schedule_values(sc.schedule, params.q, k)
    except (InvalidSchedule, ArithmeticError) as exc:
        raise ConfigError(f"schedule {cfg.schedule!r} fails at iteration {k}: {exc}") from exc
    for metric in cfg.metrics or ():
        if metric not in _METRIC_COLUMNS:
            raise ConfigError(f"unknown metric {metric!r}")
    return problem, params


def default_metrics(problem: ProblemInstance) -> tuple:
    out = []
    if problem.reference_projector is not None:
        out.append("dist")
    out.append("residual")
    if problem.lower_level is not None:
        out.append("lower_subopt")
    return tuple(out)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def trace_to_csv(trace: IterationTrace) -> str:
    lines = [CSV_HEADER]
    for row in trace.rows:
        cells = [str(row.k), str(row.n_k), str(row.t_k), str(row.cum_samples), str(row.cum_inner)]
        for metric in _METRIC_COLUMNS:
            cells.append(_fmt(row.metrics.get(metric)))
        cells.append(_fmt(row.wall_ms))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def mean_csv(traces: Sequence[IterationTrace]) -> str:
    """Elementwise average of the metric columns across replicate traces."""
    n = min(len(t.rows) for t in traces)
    lines = [CSV_HEADER]
    for i in range(n):
        base = traces[0].rows[i]
        cells = [str(base.k), str(base.n_k), str(base.t_k), str(base.cum_samples), str(base.cum_inner)]
        for metric in _METRIC_COLUMNS:
            vals = [t.rows[i].metrics.get(metric) for t in traces]
            if any(v is None for v in vals):
                cells.append("")
            else:
                cells.append(_fmt(float(np.mean([float(v) for v in vals]))))
        cells.append("")  # wall time is not aggregated
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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
    tic = time.perf_counter()
    problem, params = _validate(cfg)
    build_s = time.perf_counter() - tic
    if params.violations:
        log.warning("parameter validation bypassed: %s", "; ".join(params.violations))
    out_dir = out_dir or cfg.out or os.path.join("runs", cfg.label or cfg.problem)
    os.makedirs(out_dir, exist_ok=True)
    metrics = cfg.metrics or default_metrics(problem)
    runner = run_ieg_sqvi if cfg.solver == "ieg" else run_ig_sqvi
    traces = []
    trace_paths = []
    solve_s = []
    for rep in range(cfg.replicates):
        seed = cfg.seed if cfg.replicates == 1 else (cfg.seed, rep)
        tic = time.perf_counter()
        trace = runner(problem, cfg.solver_config(seed=seed), metrics=metrics)
        solve_s.append(time.perf_counter() - tic)
        traces.append(trace)
        path = os.path.join(out_dir, f"trace_rep{rep:02d}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace_to_csv(trace))
        trace_paths.append(path)
    mean_path = os.path.join(out_dir, "trace_mean.csv")
    with open(mean_path, "w", encoding="utf-8") as fh:
        fh.write(mean_csv(traces))

    manifest = {
        "version": __version__,
        "config": _config_dict(cfg),
        "problem_manifest": problem.manifest(),
        "derived": {
            "beta": params.beta,
            "q": params.q,
            "eta_interval": list(params.eta_interval) if params.eta_interval else None,
            "violations": list(params.violations),
        },
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    summary = _summarize(cfg, metrics, traces)
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


def _config_dict(cfg: RunConfig) -> dict:
    data = asdict(cfg)
    if data.get("floor") is not None:
        data["floor"] = {"metric": data["floor"][0], "value": data["floor"][1]}
    if data.get("metrics") is not None:
        data["metrics"] = list(data["metrics"])
    data["report_epsilons"] = list(data["report_epsilons"])
    return data


def _summarize(cfg: RunConfig, metrics, traces) -> dict:
    per_rep = []
    for trace in traces:
        entry = {"final_metrics": trace.summary["final_metrics"], "iterations": trace.summary["iterations"]}
        per_rep.append(entry)
    mean_finals = {}
    for metric in metrics:
        vals = [t.summary["final_metrics"].get(metric) for t in traces]
        if all(v is not None for v in vals):
            mean_finals[metric] = float(np.mean([float(v) for v in vals]))
    fits = {}
    for metric in metrics:
        series = mean_metric_series(traces, metric)
        try:
            fit = fit_linear_rate(series, window=(5, series.shape[0] - 1))
            fits[metric] = {"slope_log10": fit.slope, "r_squared": fit.r_squared}
        except InsufficientData:
            fits[metric] = None
    crossings = {}
    for eps in cfg.report_epsilons:
        try:
            rep = oracle_complexity_report(traces[0], eps, metric=metrics[0])
            row = traces[0].rows[rep.first_k] if rep.outer_iterations else None
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
        "replicates": per_rep,
        "mean_final_metrics": mean_finals,
        "fitted_rates": fits,
        "epsilon_crossings": crossings,
        "beta_q": {"beta": traces[0].summary["beta"], "q": traces[0].summary["q"]},
    }
