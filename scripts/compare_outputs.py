#!/usr/bin/env python3
"""Run every benchmark workload configuration through two checkouts and compare every output file.

Takes the configurations of perfbench's workloads (perfbench/workloads.py)
at each seed of --seeds (a workload without a seed runs once), made by this
checkout, and runs each through run_experiment of this checkout and of the
one given by --against: per checkout one subprocess, which imports that
checkout's src/ (as scripts/replay_fista.py's load_checkout does) and has
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, so that
BLAS sums in one order, as scripts/make_goldens.py does. --replicates
overrides the replicate count of the configurations that have one.

It prints the number of files each checkout wrote and how many are
byte-identical. For each file that differs it prints what moved, with
scripts/make_goldens.py's drift helper: per CSV column the largest relative
change of a float and the count of differing integer cells, per JSON
leaf the same. The exit code is 0 when every file is equal and 1 otherwise.

Examples:
    python3 scripts/compare_outputs.py --against ../sqvi-main
    python3 scripts/compare_outputs.py --against ../sqvi-main --seeds 11 --replicates 20
"""
import os

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _name in THREADS:
        os.environ[_name] = "1"

import argparse
import importlib
import json
import logging
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT / "perfbench")]
sys.path[:0] = PATHS

from make_goldens import drift
from replay_fista import load_checkout
from workloads import WORKLOADS


def jobs(seeds, replicates=None) -> list:
    """(output directory, config JSON text) per configuration, in run order."""
    out = []
    for name, workload in WORKLOADS.items():
        for seed in seeds if workload.seeded else seeds[:1]:
            where = f"{name}/seed{seed}" if workload.seeded else name
            for label, config in workload.configs(seed):
                if replicates is not None and "replicates" in config:
                    config = dict(config, replicates=replicates)
                out.append((f"{where}/{label}", json.dumps(config)))
    return out


def write_outputs(root: str, todo: list, out_dir: str) -> None:
    """Run each job through the checkout at ``root`` into ``out_dir``, without
    the runs' warnings (the game presets bypass parameter validation)."""
    logging.disable(logging.WARNING)
    runner = importlib.import_module(f"{load_checkout(root).__name__}.runner")
    for where, text in todo:
        runner.run_experiment(runner.parse_config(text), out_dir=os.path.join(out_dir, where))


def run_checkout(root: str, todo: list, out_dir: str) -> None:
    """``write_outputs`` in a subprocess with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS), **{name: "1" for name in THREADS})
    code = "import json, sys; from compare_outputs import write_outputs; "
    code += "write_outputs(sys.argv[1], json.load(sys.stdin), sys.argv[2])"
    subprocess.run([sys.executable, "-c", code, root, out_dir], input=json.dumps(todo), text=True, env=env,
                   check=True)


def files(out_dir: str) -> set:
    return {str(p.relative_to(out_dir)) for p in Path(out_dir).rglob("*") if p.is_file()}


def compare(this_dir: str, other_dir: str, other: str) -> list:
    """Lines reporting how the files under ``this_dir`` differ from those under
    ``other_dir``; the first gives the counts."""
    ours, theirs = files(this_dir), files(other_dir)
    lines, equal = [], 0
    for rel in sorted(ours & theirs):
        mine, yours = os.path.join(this_dir, rel), os.path.join(other_dir, rel)
        if Path(mine).read_bytes() == Path(yours).read_bytes():
            equal += 1
            continue
        moved = drift(yours, mine)
        lines.append(f"{rel}: " + ("; ".join(moved) if moved else "bytes differ, values equal"))
    lines += [f"{rel}: only in this checkout" for rel in sorted(ours - theirs)]
    lines += [f"{rel}: only in {other}" for rel in sorted(theirs - ours)]
    head = f"this: {len(ours)} files, {other}: {len(theirs)} files, {equal} equal"
    return [head] + lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", required=True, help="the other checkout")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 5, 11], help="workload seeds")
    ap.add_argument("--replicates", type=int, default=None, help="replicate count of the configurations with one")
    args = ap.parse_args()
    if args.replicates is not None and args.replicates < 1:
        ap.error("--replicates must be at least 1")

    todo = jobs(args.seeds, args.replicates)
    with tempfile.TemporaryDirectory() as scratch:
        this_dir, other_dir = os.path.join(scratch, "this"), os.path.join(scratch, "other")
        run_checkout(str(ROOT), todo, this_dir)
        run_checkout(args.against, todo, other_dir)
        lines = compare(this_dir, other_dir, args.against)
    print("\n".join(lines))
    # past the counts, each line names a file that differs or is missing
    return 0 if len(lines) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
