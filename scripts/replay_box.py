#!/usr/bin/env python3
"""Time the box-sampled replicates through run_ieg_sqvi, optionally against another checkout.

Takes the configuration of perfbench's box-sampled workload at one seed
(perfbench/workloads.py; T and the replicate count R can be overridden),
parses it with parse_config and runs R replicates of it, each as
run_experiment does: one run_ieg_sqvi call with the stream (seed, r) and
the problem's default metrics, whose trace is then formatted as a trace
CSV. Each call is timed apart. With --against, every replicate also runs
through another checkout's sqvi (its src/ imported under another name, the
configuration parsed by its own parse_config) right beside this one's,
the two alternating which goes first, so that both see the same drift in
host speed: interleaving whole rounds instead leaves a spread of a fifth
of a round or more on a shared host. For each checkout the script prints
the median seconds per round of the runs and of the CSVs, with every
round's run time. With --against it then prints, for the runs and for the
CSVs, the median over rounds of each round's median per-replicate time
ratio, this checkout over the other, with its range and the number of
rounds in which this checkout was faster, and whether the checkouts'
traces are bit-identical (each replicate's trace CSV and its summary as
JSON). Where they differ, it prints each checkout's mean final dist over
the R replicates, so that a change of the random draws reports its effect
on quality beside its timing.

Run as a script it sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy is imported, as perfbench's worker does.

Examples:
    python3 scripts/replay_box.py --seed 11 --rounds 10
    python3 scripts/replay_box.py --seed 5 --replicates 100 --against ../sqvi-main
"""
import os

if __name__ == "__main__":
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]

import sqvi
from replay_fista import load_checkout
from workloads import _box


class Tree:
    """One checkout's runner with the box-sampled configuration parsed by it."""

    def __init__(self, name: str, package, seed: int, replicates: int, T: int):
        self.name = name
        self.runner = importlib.import_module(f"{package.__name__}.runner")
        (_, config), = _box(seed)
        cfg = self.runner.parse_config(json.dumps({**config, "T": T, "replicates": replicates}))
        self.problem = cfg.validated.problem
        self.metrics = self.runner.default_metrics(self.problem)
        self.configs = [cfg.solver_config(seed=(seed, rep)) for rep in range(replicates)]

    def timed(self, rep: int) -> tuple:
        """Seconds of replicate ``rep``'s run and of formatting its trace CSV."""
        start = time.perf_counter()
        trace = self.runner.run_ieg_sqvi(self.problem, self.configs[rep], metrics=self.metrics)
        middle = time.perf_counter()
        self.runner.trace_to_csv(trace)
        return middle - start, time.perf_counter() - middle

    def outputs(self) -> list:
        """Each replicate's trace CSV and summary, from one untimed round."""
        traces = [self.runner.run_ieg_sqvi(self.problem, config, metrics=self.metrics) for config in self.configs]
        return [(self.runner.trace_to_csv(trace), json.dumps(trace.summary, sort_keys=True)) for trace in traces]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=11, help="problem and sampling seed")
    ap.add_argument("--replicates", type=int, default=300, help="replicates R run in each round")
    ap.add_argument("--T", type=int, default=55, help="outer iterations of each replicate")
    ap.add_argument("--rounds", type=int, default=10, help="timed rounds, each of all R replicates")
    ap.add_argument("--against", default=None, help="another checkout to run the replicates through as well")
    args = ap.parse_args()
    if args.rounds < 1 or args.replicates < 1:
        ap.error("--rounds and --replicates must be at least 1")

    trees = [Tree("this", sqvi, args.seed, args.replicates, args.T)]
    if args.against is not None:
        trees.append(Tree(args.against, load_checkout(args.against), args.seed, args.replicates, args.T))
    outputs = [tree.outputs() for tree in trees]  # untimed: also warms each tree up
    # rounds[r][i][rep]: (run, CSV) seconds of replicate rep through tree i in round r
    rounds = []
    for r in range(args.rounds):
        times = [[] for _ in trees]
        for rep in range(args.replicates):
            for i in range(len(trees)) if (r + rep) % 2 == 0 else reversed(range(len(trees))):
                times[i].append(trees[i].timed(rep))
        rounds.append(times)
    for i, tree in enumerate(trees):
        run_s = [sum(run for run, _ in times[i]) for times in rounds]
        csv_s = [sum(csv for _, csv in times[i]) for times in rounds]
        print(f"{tree.name}: {args.replicates} replicates, {statistics.median(run_s):.4f} s run and "
              f"{statistics.median(csv_s):.4f} s CSV median per round ({' '.join(f'{s:.4f}' for s in run_s)})")
    if len(trees) == 2:
        for part, label in ((0, "run"), (1, "CSV")):
            ratios = [statistics.median(a[part] / b[part] for a, b in zip(*times)) for times in rounds]
            print(f"{label} time this/other per replicate: {statistics.median(ratios):.4f} median over rounds "
                  f"({min(ratios):.4f}-{max(ratios):.4f}), this faster in {sum(x < 1 for x in ratios)} "
                  f"of {len(ratios)} rounds")
        print(f"traces bit-identical: {'yes' if outputs[0] == outputs[1] else 'no'}")
        if outputs[0] != outputs[1]:
            for tree, out in zip(trees, outputs):
                dists = [json.loads(summary)["final_metrics"]["dist"] for _, summary in out]
                print(f"{tree.name}: mean final dist {statistics.fmean(dists):.6g} over {len(dists)} replicates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
