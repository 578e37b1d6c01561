"""The benchmark's workloads: `sqvi run` configurations made from a seed.

Each workload is a list of labelled run configurations, passed as JSON text
to ``sqvi.runner.parse_config`` exactly as ``sqvi run`` would, plus the
quality metric (a key of the summary's ``mean_final_metrics``) that a run
must bring under ``tolerance`` to count as correct.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Replicates of the box run: enough that one run lasts a few seconds, so that
# the operator and solver-loop layers dominate process noise.
BOX_REPLICATES = 300


@dataclass(frozen=True)
class Workload:
    name: str
    quality_metric: str
    tolerance: float
    seeded: bool
    # seed -> [(label, config dict)]; needs ``sqvi`` importable
    configs: Callable[[int], list]


def _game(seed: int) -> list:
    # the pair of runs scripts/run_regression_game.py makes, with the seed
    # also driving the synthetic data
    base = {
        "preset": "table1-synthetic",
        "problem_params": {"seed": seed},
        "T": 80,
        "seed": seed,
        "metrics": ["lower_subopt", "residual"],
    }
    return [(solver, dict(base, solver=solver)) for solver in ("ieg", "ig")]


def _coupled(seed: int) -> list:
    # no randomness: deterministic mean field, grid-searched reference
    del seed
    cfg = {
        "problem": "coupled_sp",
        "problem_params": {
            "P": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
            "coupling": {"a_u": [1.0], "a_w": [1.0], "c": -0.5},
        },
        "solver": "ieg",
        "eta": 0.5,
        "alpha": 0.5,
        "b": 0.5,
        "schedule": "deterministic",
        "rho": 0.9,
        "T": 25,
        "seed": 0,
        "allow_out_of_range": True,
        "metrics": ["residual"],
    }
    return [("ieg", cfg)]


def _box(seed: int) -> list:
    from sqvi.problems import make_translated_box_qvi

    params = {"n": 20, "seed": seed, "noise_level": 0.5}
    eta = make_translated_box_qvi(**params).suggested_eta
    cfg = {
        "problem": "translated_box",
        "problem_params": params,
        "solver": "ieg",
        "eta": eta,
        "alpha": 0.9,
        "b": 2.0,
        "schedule": "increasing",
        "rho": 0.9,
        "T": 55,
        "seed": seed,
        "replicates": BOX_REPLICATES,
    }
    return [("ieg", cfg)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="game-fista",
            quality_metric="lower_subopt",
            tolerance=1e-6,
            seeded=True,
            configs=_game,
        ),
        Workload(
            name="coupled-apd",
            quality_metric="residual",
            tolerance=1e-6,
            seeded=False,
            configs=_coupled,
        ),
        Workload(
            name="box-sampled",
            quality_metric="dist",
            tolerance=5e-3,
            seeded=True,
            configs=_box,
        ),
    )
}
