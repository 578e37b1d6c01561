"""The benchmark's span tracer (perfbench/tracer.py) still finds every name it patches.

The tracer wraps sqvi functions at the module attribute their caller looks
up; a name that moves or is renamed breaks traced benchmark runs, and so
does a change in how often those names are called per replicate. These
tests only read perfbench/.
"""
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

from sqvi import diagnostics, problems, runner, solvers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PATCHED = {
    runner: ("build_problem", "run_ieg_sqvi", "run_ig_sqvi", "trace_to_csv", "mean_csv"),
    problems: ("contractivity_audit", "estimate_qg"),
    solvers: ("schedule_values", "inexact_project", "sample_batch", "evaluate_mean"),
    diagnostics: (
        "dist_to_solution", "natural_residual", "lower_level_subopt", "inexact_project", "reference_project",
    ),
}


def test_tracer_patches_and_restores_every_name(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    originals = {(mod, name): getattr(mod, name) for mod, names in PATCHED.items() for name in names}
    tracer = tracer_mod.Tracer()
    restore = tracer_mod.install(tracer)
    try:
        for (mod, name), original in originals.items():
            assert getattr(mod, name) is not original, f"{mod.__name__}.{name} not patched"
        # a small sampled run reaches the wrapped names through their callers
        cfg = {
            "problem": "translated_box", "solver": "ieg", "eta": 0.64, "alpha": 0.9, "b": 2.0,
            "schedule": "increasing", "rho": 0.9, "T": 3, "seed": 1, "metrics": ["dist", "residual"],
        }
        runner.run_experiment(runner.parse_config(json.dumps(cfg)), out_dir=str(tmp_path))
        # a small instance audit reaches the name that maps.contractivity_audit_s
        # times, which no game build calls; estimate_qg stays patched though
        # nothing in sqvi.problems calls it
        game = runner.build_problem("regression_game", {"players": 2, "points": 40, "features": 4})
        problems.audit_instance(game, probes=6)
    finally:
        restore()
    for (mod, name), original in originals.items():
        assert getattr(mod, name) is original, f"{mod.__name__}.{name} not restored"
    spans = {span.name for span in tracer.spans}
    assert {
        "problems.build", "solvers.run", "solvers.schedule", "projection", "operators",
        "diagnostics", "diagnostics.residual_projection", "runner.format",
        "maps.contractivity_audit",
    } <= spans


def test_traced_counters_match_csv_sums(monkeypatch, tmp_path):
    # perfbench/worker.py fails every traced run whose counters differ from
    # the work its CSVs record; a change that calls the traced names once per
    # replicate stack instead of once per replicate would fail here first
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    worker = importlib.import_module("worker")
    tracer = tracer_mod.Tracer()
    work = Counter()
    restore = tracer_mod.install(tracer)
    try:
        for solver in ("ieg", "ig"):
            cfg = {
                "problem": "translated_box", "problem_params": {"n": 5, "seed": 3, "noise_level": 0.5},
                "solver": solver, "eta": 0.5, "alpha": 0.9, "b": 2.0, "schedule": "increasing",
                "rho": 0.9, "T": 6, "seed": 3, "replicates": 3,
            }
            cfg = runner.parse_config(json.dumps(cfg))
            artifacts = runner.run_experiment(cfg, out_dir=str(tmp_path / solver))
            assert isinstance(artifacts.trace_paths, tuple) and len(artifacts.trace_paths) == 3
            for path in artifacts.trace_paths:
                work.update(worker._csv_work(path, 2 if solver == "ieg" else 1))
    finally:
        restore()
    layers = tracer_mod.layer_metrics(tracer, 0)
    assert work["outer_iters"] == 2 * 3 * 6 and work["cum_samples"] > 0
    for counter, column in worker._CSV_CHECKS.items():
        assert layers[counter] == work[column], (counter, column)
