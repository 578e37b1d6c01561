#!/usr/bin/env python3
"""Benchmark runs on the synthetic translated-box problem.

Examples:
    python3 scripts/run_translated_box.py --solver ieg --schedule increasing \
        --rho 0.9 --noise 0.5 --T 55 --replicates 10 --out runs/box_increasing
    python3 scripts/run_translated_box.py --solver ig --schedule deterministic --T 40
"""
import argparse
import json
import sys

from sqvi.problems import make_translated_box_qvi
from sqvi.runner import parse_config, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--solver", choices=["ieg", "ig"], default="ieg")
    ap.add_argument("--schedule", choices=["deterministic", "increasing", "constant"], default="deterministic")
    ap.add_argument("--rho", type=float, default=None)
    ap.add_argument("--batch", type=int, default=None)
    ap.add_argument("--alpha", type=float, default=0.9)
    ap.add_argument("--b", type=float, default=2.0)
    ap.add_argument("--eta", type=float, default=None, help="defaults to the instance's suggested step")
    ap.add_argument("--T", type=int, default=55)
    ap.add_argument("--replicates", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    problem_params = {"n": args.n, "seed": args.seed, "noise_level": args.noise}
    eta = args.eta if args.eta is not None else make_translated_box_qvi(**problem_params).suggested_eta
    cfg = {
        "problem": "translated_box",
        "problem_params": problem_params,
        "solver": args.solver,
        "eta": eta,
        "alpha": args.alpha,
        "b": args.b,
        "schedule": args.schedule,
        "rho": args.rho,
        "batch": args.batch,
        "T": args.T,
        "seed": args.seed,
        "replicates": args.replicates,
    }
    run_cfg = parse_config(json.dumps(cfg))
    params = run_cfg.validated.params
    artifacts = run_experiment(run_cfg, out_dir=args.out)
    print(f"beta={params.beta:.4f} q={params.q:.4f}; wrote {artifacts.out_dir}")
    print(json.dumps(artifacts.summary["fitted_rates"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
