#!/usr/bin/env python3
"""Record a regression-game run's FISTA solves and replay them, to time FISTA alone.

Runs the table1-synthetic preset at one seed, T = 80 by default, with the
IEG and IG solvers as perfbench's game-fista workload does, through
parse_config and run_experiment, with sqvi.maps.fista_solve wrapped so that
every call is recorded. The recorded calls are then replayed for --rounds
rounds, each timed as one block. With --against, the calls are also
replayed through another checkout's sqvi (its src/ imported under another
name, every quadratic and set rebuilt from its constructor arguments), the
two interleaved and alternating which goes first. For each checkout the
script prints the number of solves, the steps run, the chunks screened
(calls of the feasible set's eigenbasis screen) and the median seconds per
round with every round's time, and then whether the checkouts' results are
bit-identical (each point's bytes, error bound and steps run). Both
checkouts' FISTA must return ProjectionResult (error_bound,
inner_iterations).

Run as a script it sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy is imported, as perfbench's worker does.

Examples:
    python3 scripts/replay_fista.py --seed 11 --rounds 10
    python3 scripts/replay_fista.py --seed 5 --against ../sqvi-main
"""
import os

if __name__ == "__main__":
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"

import argparse
import dataclasses
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import sqvi
from sqvi import maps
from sqvi.runner import parse_config, run_experiment


def record(seed: int, T: int) -> list:
    """Each fista_solve call of the game's IEG and IG runs, as
    (quadratic arguments, quadratic, c, feasible, y0, t, rel_tol, anchor)."""
    calls, solve, make = [], maps.fista_solve, maps.BlockQuadratic

    def quadratic(*args):
        q = make(*args)
        q.made_from = args
        return q

    def recording(quadratic, c, feasible, y0, t, rel_tol=0.0, anchor=None):
        copy = lambda v: None if v is None else np.array(v, dtype=float)
        calls.append((quadratic.made_from, quadratic, copy(c), feasible, copy(y0), t, rel_tol, copy(anchor)))
        return solve(quadratic, c, feasible, y0, t, rel_tol, anchor)

    base = {"preset": "table1-synthetic", "problem_params": {"seed": seed}, "T": T, "seed": seed,
            "metrics": ["lower_subopt", "residual"]}
    maps.BlockQuadratic, maps.fista_solve = quadratic, recording
    try:
        with tempfile.TemporaryDirectory() as out:
            for solver in ("ieg", "ig"):
                run_experiment(parse_config(json.dumps(dict(base, solver=solver))), out_dir=f"{out}/{solver}")
    finally:
        maps.BlockQuadratic, maps.fista_solve = make, solve
    return calls


class Tree:
    """One checkout's projection module with the recorded calls in its own types."""

    def __init__(self, name: str, package, calls: list, rebuild: bool):
        self.name = name
        self.projection = importlib.import_module(f"{package.__name__}.projection")
        sets = importlib.import_module(f"{package.__name__}.sets")
        quadratics = {}

        def own(made_from, q, c, f, *rest):
            if rebuild:
                if id(q) not in quadratics:
                    quadratics[id(q)] = self.projection.BlockQuadratic(*made_from)
                q = quadratics[id(q)]
                fields = {fl.name: getattr(f, fl.name) for fl in dataclasses.fields(f) if fl.init}
                f = getattr(sets, type(f).__name__)(**fields)
            return (q, c, f, *rest)

        self.calls = [own(*call) for call in calls]

    def replay(self) -> list:
        solve = self.projection.fista_solve
        return [solve(*call) for call in self.calls]

    def screens(self) -> int:
        """Chunks screened in one replay."""
        count, views = [0], (self.projection._NormView, self.projection._RotatedView)
        originals = [view.screen for view in views]

        def counting(original):
            def screen(view, ys):
                count[0] += 1
                return original(view, ys)
            return screen

        for view, original in zip(views, originals):
            view.screen = counting(original)
        try:
            self.replay()
        finally:
            for view, original in zip(views, originals):
                view.screen = original
        return count[0]


def load_checkout(root: str):
    """The sqvi package under ``root``/src, imported as sqvi_against."""
    pkg = Path(root).resolve() / "src" / "sqvi"
    spec = importlib.util.spec_from_file_location(
        "sqvi_against", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["sqvi_against"] = module
    spec.loader.exec_module(module)
    return module


def same(a: list, b: list) -> bool:
    key = lambda r: (r.point.tobytes(), float(r.error_bound), r.inner_iterations)
    return [key(r) for r in a] == [key(r) for r in b]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=11, help="game data and solver seed")
    ap.add_argument("--T", type=int, default=80, help="outer iterations of each run")
    ap.add_argument("--rounds", type=int, default=10, help="timed replays of every recorded call")
    ap.add_argument("--against", default=None, help="another checkout to replay the calls through as well")
    args = ap.parse_args()

    calls = record(args.seed, args.T)
    trees = [Tree("this", sqvi, calls, rebuild=False)]
    if args.against is not None:
        trees.append(Tree(args.against, load_checkout(args.against), calls, rebuild=True))
    results = [tree.replay() for tree in trees]  # untimed: fills each quadratic's tables
    times = {tree.name: [] for tree in trees}
    for r in range(args.rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            start = time.perf_counter()
            tree.replay()
            times[tree.name].append(time.perf_counter() - start)
    for tree, res in zip(trees, results):
        seconds = times[tree.name]
        print(f"{tree.name}: {len(res)} solves, {sum(r.inner_iterations for r in res)} steps, "
              f"{tree.screens()} chunks screened, {statistics.median(seconds) if seconds else float('nan'):.4f} s "
              f"median per round ({' '.join(f'{s:.4f}' for s in seconds)})")
    if len(trees) == 2:
        print(f"results bit-identical: {'yes' if same(*results) else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
