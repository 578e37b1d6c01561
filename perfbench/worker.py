"""One run of one workload, in a fresh process.

Runs the workload's configurations through ``sqvi.runner.parse_config`` and
``sqvi.runner.run_experiment`` (the calls ``sqvi run`` makes), reads back the
public outputs, checks them, and prints one JSON record as its last line.
``perfbench/run.py`` starts this script; it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# counters of the traced run that must equal work read from the trace CSVs
_CSV_CHECKS = {
    "projection.inner_iters": "cum_inner",
    "operators.draws": "cum_samples",
    "projection.inner_scheduled": "inner_scheduled",
    "solvers.outer_iters": "outer_iters",
}
# parse_config of the small problems takes milliseconds; its median over
# repeats is steadier than one call (traced runs parse once, so their
# counters describe a single `sqvi run`)
SETUP_REPEAT_S = 0.25
SETUP_REPEATS_MAX = 25
CALIBRATION_STEPS = 4000


def _csv_work(path: str, projections_per_iter: int) -> Counter:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1]
    return Counter(
        cum_inner=int(last["cum_inner"]),
        cum_samples=int(last["cum_samples"]),
        inner_scheduled=projections_per_iter * sum(int(r["t_k"]) for r in rows),
        outer_iters=len(rows),
    )


def calibrate(steps: int = CALIBRATION_STEPS) -> float:
    """Seconds for a fixed mix of small NumPy steps, seeded generator draws and
    Python object churn -- the kinds of work sqvi spends its time on -- so that
    the time tracks how fast the host runs this process right now."""
    import numpy as np

    a = np.full((20, 20), 0.04)
    lo, hi = -np.ones(20), np.ones(20)
    x = np.zeros(20)
    rows = []
    t0 = perf_counter()
    for k in range(steps):
        for _ in range(5):
            x = np.minimum(np.maximum(a @ x + 1.0, lo), hi)
        v = np.random.default_rng((7, k)).standard_normal(20) + x
        rows.append({"k": k, "s": float(v @ v)})
    ",".join(f"{row['s']:.17g}" for row in rows)
    return perf_counter() - t0


def _setup(parse, text: str, repeat: bool):
    """Parsed config and the median seconds of ``parse(text)``; a cheap parse
    is repeated until SETUP_REPEAT_S have been spent on it."""
    times = []
    while True:
        t0 = perf_counter()
        cfg = parse(text)
        times.append(perf_counter() - t0)
        if not repeat or sum(times) >= SETUP_REPEAT_S or len(times) >= SETUP_REPEATS_MAX:
            return cfg, statistics.median(times)


def run_once(workload, seed: int, out_dir: str, traced: bool) -> dict:
    import sqvi.runner as runner

    configs = workload.configs(seed)
    parse, run = runner.parse_config, runner.run_experiment
    tracer = restore = None
    if traced:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        restore = install(tracer)
        parse = tracer.wrap(parse, "runner.parse_config")
        run = tracer.wrap(run, "runner.run_experiment")

    setup_s = run_s = 0.0
    quality = {}
    work: Counter = Counter()
    digest = hashlib.sha256()
    bytes_written = 0
    calibrate(200)  # warm-up
    calibrations = [calibrate()]
    try:
        for label, cfg in configs:
            text = json.dumps(cfg)
            if tracer is not None:
                tracer.run_id = label
            run_cfg, parse_s = _setup(parse, text, repeat=not traced)
            t0 = perf_counter()
            artifacts = run(run_cfg, out_dir=os.path.join(out_dir, label))
            setup_s += parse_s
            run_s += perf_counter() - t0
            quality[label] = artifacts.summary["mean_final_metrics"][workload.quality_metric]
            per_iter = 2 if run_cfg.solver == "ieg" else 1
            for path in artifacts.trace_paths:
                work.update(_csv_work(path, per_iter))
            for path in artifacts.trace_paths + (artifacts.mean_path,):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            with os.scandir(artifacts.out_dir) as entries:
                bytes_written += sum(e.stat().st_size for e in entries if e.is_file())
            calibrations.append(calibrate())
    finally:
        if restore is not None:
            restore()

    errors = [
        f"{label}: {workload.quality_metric} {value:.3e} > {workload.tolerance:.0e}"
        for label, value in quality.items()
        if not value <= workload.tolerance
    ]
    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration_s": calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": quality,
        "csv_sha256": digest.hexdigest(),
        "work": dict(work),
        "errors": errors,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, bytes_written)
        for counter, column in _CSV_CHECKS.items():
            if layers[counter] != work[column]:
                errors.append(f"traced {counter} = {layers[counter]}, but the CSVs give {column} = {work[column]}")
        record["layers"] = layers
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    try:
        import sqvi

        if Path(sqvi.__file__).resolve().parent != SRC / "sqvi":
            raise ImportError(f"sqvi imported from {sqvi.__file__}, not from {SRC}")
        record = run_once(WORKLOADS[args.workload], args.seed, args.out, bool(args.traced))
    except Exception:  # the run failed; report it as a failed run, not a crash
        traceback.print_exc()
        print(json.dumps({"errors": [traceback.format_exc(limit=1).strip().splitlines()[-1]]}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
