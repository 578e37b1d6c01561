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
by how much in CHANGES.md. Before overwriting a run's goldens the script
prints, per file and column (per leaf of a JSON file), the largest relative
change of a float against the committed file and how many integer cells
or other exact values differ.

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
INTEGER_COLUMNS = ("k", "N_k", "t_k", "cum_samples", "cum_inner")  # compared exactly
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


def _rel(got: float, want: float) -> float:
    return 0.0 if got == want else abs(got - want) / max(abs(want), 1e-300)


def _leaves(node, where: str = "") -> dict:
    """JSON leaf path -> [value]."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {where: [node]}
    out = {}
    for key, child in items:
        out.update(_leaves(child, f"{where}.{key}" if where else str(key)))
    return out


def _columns(path: str) -> dict:
    """CSV column -> its cells in row order, floats parsed except in integer
    columns and empty cells; for a JSON file, leaf path -> [value]."""
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".json"):
            return _leaves(json.load(fh))
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {
        name: [float(row[i]) if row[i] and name not in INTEGER_COLUMNS else row[i] for row in rows]
        for i, name in enumerate(header)
    }


def drift(old_path: str, new_path: str) -> list:
    """What moved from the committed ``old_path`` to ``new_path``: per column,
    the largest relative float change and the count of exact mismatches."""
    old, new = _columns(old_path), _columns(new_path)
    if old.keys() != new.keys():
        return [f"columns differ: {sorted(old.keys() ^ new.keys())}"]
    report = []
    for column, cells in old.items():
        if len(cells) != len(new[column]):
            report.append(f"{column}: {len(cells)} -> {len(new[column])} rows")
            continue
        worst, mismatches = 0.0, 0
        for got, want in zip(new[column], cells):
            if isinstance(got, float) and isinstance(want, float):
                worst = max(worst, _rel(got, want))
            elif got != want:
                mismatches += 1
        if mismatches:
            report.append(f"{column}: {mismatches} exact mismatches")
        if worst:
            report.append(f"{column}: largest relative change {worst:.3g}")
    return report


def main() -> int:
    sums = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in configs():
            dest = os.path.join(GOLDEN_DIR, name)
            paths = run_outputs(name, os.path.join(scratch, name))
            for path in paths:
                committed = os.path.join(dest, os.path.basename(path))
                moved = drift(committed, path) if os.path.exists(committed) else ["new file"]
                print(f"{name}/{os.path.basename(path)}: " + ("; ".join(moved) if moved else "unchanged"))
            shutil.rmtree(dest, ignore_errors=True)
            os.makedirs(dest)
            for path in paths:
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
