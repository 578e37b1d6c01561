#!/usr/bin/env python3
"""Regenerate the golden traces that tests/test_golden.py compares against.

Runs small versions of the three benchmark workloads at seed 11 through
parse_config and run_experiment, keeps each run's trace and mean CSVs and
manifest.json (and the box-sampled run's summary.json) in
tests/golden/<run>/, and lists their sha256 digests in
tests/golden/SHA256SUMS (checkable with `sha256sum -c` from that
directory):

- box-sampled: the noisy translated box, 5 replicates, T = 20;
- game-fista-ieg, game-fista-ig: the table1-synthetic regression game, T = 20;
- coupled-apd: the coupled saddle point with the residual metric, T = 10.

Regenerating re-baselines on purpose; a change that moves the goldens says
by how much in CHANGES.md.

Example:
    python3 scripts/make_goldens.py
"""
import glob
import hashlib
import json
import os
import shutil
import sys
import tempfile

from sqvi.problems import make_translated_box_qvi
from sqvi.runner import parse_config, run_experiment

SEED = 11
KEEP_SUMMARY = ("box-sampled",)  # runs whose summary.json is a golden too
GOLDEN_DIR = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "golden"))


def configs() -> dict:
    """Run name -> config dict, the JSON each golden run is parsed from."""
    box_params = {"n": 20, "seed": SEED, "noise_level": 0.5}
    box = {
        "problem": "translated_box",
        "problem_params": box_params,
        "solver": "ieg",
        "eta": make_translated_box_qvi(**box_params).suggested_eta,
        "alpha": 0.9,
        "b": 2.0,
        "schedule": "increasing",
        "rho": 0.9,
        "T": 20,
        "seed": SEED,
        "replicates": 5,
    }
    game = {
        "preset": "table1-synthetic",
        "problem_params": {"seed": SEED},
        "T": 20,
        "seed": SEED,
        "metrics": ["lower_subopt", "residual"],
    }
    coupled = {
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
        "T": 10,
        "seed": SEED,
        "allow_out_of_range": True,
        "metrics": ["residual"],
    }
    return {
        "box-sampled": box,
        "game-fista-ieg": dict(game, solver="ieg"),
        "game-fista-ig": dict(game, solver="ig"),
        "coupled-apd": coupled,
    }


def run_outputs(name: str, out_dir: str) -> list:
    """Run config ``name`` into ``out_dir``; the paths of its golden files:
    the trace and mean CSVs, sorted, then summary.json if it is kept, then
    manifest.json."""
    art = run_experiment(parse_config(json.dumps(configs()[name])), out_dir=out_dir)
    paths = sorted(glob.glob(os.path.join(out_dir, "trace_*.csv")))
    return paths + ([art.summary_path] if name in KEEP_SUMMARY else []) + [art.manifest_path]


def main() -> int:
    sums = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in configs():
            dest = os.path.join(GOLDEN_DIR, name)
            shutil.rmtree(dest, ignore_errors=True)
            os.makedirs(dest)
            for path in run_outputs(name, os.path.join(scratch, name)):
                shutil.copy(path, dest)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                sums.append(f"{digest}  {name}/{os.path.basename(path)}\n")
    with open(os.path.join(GOLDEN_DIR, "SHA256SUMS"), "w", encoding="utf-8") as fh:
        fh.writelines(sums)
    print(f"wrote {len(sums)} golden files to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
