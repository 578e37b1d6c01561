"""Command-line front-end: run experiments, validate configs, derive parameters."""
from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, SqviError
from .runner import default_metrics, parse_config, run_experiment
from .solvers import _RESIDUAL_BUDGET_SCALE, admissible_eta_interval, contraction_factor, derive_beta, schedule_values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqvi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run configuration")
    p_run.add_argument("config", help="path to a JSON run configuration (or manifest)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--summary", action="store_true", help="print fitted rates")

    p_val = sub.add_parser("validate", help="validate a run configuration")
    p_val.add_argument("config")

    p_der = sub.add_parser("derive", help="print derived step-size parameters")
    p_der.add_argument("--L", type=float, required=True, help="Lipschitz constant")
    p_der.add_argument("--mu", type=float, required=True, help="quadratic-growth modulus")
    p_der.add_argument("--gamma", type=float, required=True, help="map contractivity")
    p_der.add_argument("--eta", type=float, default=None, help="step size (interval midpoint if omitted)")
    p_der.add_argument("--alpha", type=float, default=0.5, help="retraction weight")
    p_der.add_argument("--b", type=float, default=0.5, help="extra-gradient retraction weight")
    return parser


def _print_scheduled_work(cfg) -> None:
    """The work the schedule allots over the run's T iterations, reported
    whatever its size: validation does not bound it, and neither does the run."""
    problem, params, _, (draws, inner) = cfg.validated
    projections = 2 if cfg.solver == "ieg" else 1
    ran = " (closed form: none run)" if problem.map.exact else ""
    print(f"scheduled work per replicate over T = {cfg.T} iterations (reported, not bounded):")
    print(f"  inner iterations: {projections} x sum t_k = {projections * inner}{ran}")
    if "residual" in (cfg.metrics or default_metrics(problem)) and not problem.map.exact:
        # x0's solve has the budget of iteration 0, x_{k+1}'s that of k
        _, t_0 = schedule_values(cfg.solver_config().schedule, params.q, 0)
        print(f"  residual metric's inner iterations: {_RESIDUAL_BUDGET_SCALE} x (t_0 + sum t_k) = "
              f"{_RESIDUAL_BUDGET_SCALE * (t_0 + inner)}, one solve per iterate")
    print(f"  operator draws: sum N_k = {draws} per phase, {projections} phase(s)")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "derive":
            lo, hi = admissible_eta_interval(args.L, args.mu, args.gamma)
            eta = args.eta if args.eta is not None else 0.5 * (lo + hi)
            beta = derive_beta(args.L, args.mu, args.gamma, eta)
            print(f"admissible eta interval: ({lo:.12g}, {hi:.12g})")
            print(f"eta = {eta:.12g}  ->  beta = {beta:.12g}")
            if 0.0 <= beta < 1.0:
                q_g = contraction_factor(args.alpha, beta, 0.0)
                print(f"q (gradient, alpha={args.alpha}) = {q_g:.12g}")
                if args.b < 1.0 / (1.0 - beta):
                    q_eg = contraction_factor(args.alpha, beta, args.b)
                    print(f"q (extra-gradient, alpha={args.alpha}, b={args.b}) = {q_eg:.12g}")
                else:
                    print(f"b = {args.b} is not below 1/(1-beta) = {1.0 / (1.0 - beta):.12g}")
            else:
                print("beta is not below 1; no contraction at this eta")
            return 0
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from None
        cfg = parse_config(text)
        if args.command == "validate":
            print("config OK")
            print(json.dumps({"problem": cfg.problem, "solver": cfg.solver, "schedule": cfg.schedule}, indent=2))
            for msg in cfg.validated.params.violations:
                print(f"validation bypassed (allow_out_of_range): {msg}")
            _print_scheduled_work(cfg)
            return 0
        artifacts = run_experiment(cfg, out_dir=args.out)
        print(f"wrote {len(artifacts.trace_paths)} trace file(s) to {artifacts.out_dir}")
        if args.summary:
            print(json.dumps(artifacts.summary["fitted_rates"], indent=2, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SqviError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
