#!/usr/bin/env python3
"""sqvi benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload game-fista --seed 1 --seconds 55 --trace 0

Runs the workload again and again, each time in a fresh single process with
BLAS threads pinned to 1, for about ``--seconds`` (at least MIN_RUNS times).
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json as
medians over those runs, times scaled to a reference host speed; with
``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics in plain wall-clock seconds. Every run is
checked: it must not raise, must reach the workload's accuracy, and must
write trace CSVs byte-identical to the first run's. The last line of
standard output is one JSON object with the results.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_RUNS = {0: 3, 1: 2}  # untraced runs; traced and untraced pairs
TIME_LIMIT_S = 170.0  # a whole invocation ends within this
# Host speed drifts by up to 2x over minutes on a shared VM, and CPU time
# drifts with it. Each run process times a fixed calibration loop
# (worker.calibrate) before and after each configuration; end-to-end times
# are scaled by CALIBRATION_REF_S over the median of all those timings in
# the invocation, i.e. reported at a fixed reference host speed. The
# constant is the loop's median time where the baseline was measured.
CALIBRATION_REF_S = 0.16
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(workload: str, seed: int, out_dir: Path, traced: bool, timeout: float) -> dict:
    """One run in a fresh process; a record with a non-empty ``errors`` list on failure."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--out", str(out_dir), "--traced", str(int(traced))]
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"errors": [f"run exceeded {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"errors": [f"run exited with code {proc.returncode} and no result"]}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        record.setdefault("errors", []).append(f"exit code {proc.returncode}")
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, out_root: Path) -> list:
    """Records of every run made, tagged ``traced``; a run whose CSVs or work
    counters differ from the first run's gets an error."""
    records = []
    first_sha = first_counts = None
    start = perf_counter()
    durations = []
    while _keep_going(perf_counter() - start, durations, seconds, MIN_RUNS[int(trace)]):
        began = perf_counter()
        for traced in (False, True) if trace else (False,):
            out_dir = out_root / f"run{len(records):03d}"
            rec = run_worker(workload, seed, out_dir, traced, TIME_LIMIT_S - (perf_counter() - start))
            rec["traced"] = traced
            sha = rec.get("csv_sha256")
            if sha is not None:
                first_sha = first_sha or sha
                if sha != first_sha:
                    rec["errors"].append("trace CSVs differ from the first run's")
            if "layers" in rec:
                counts = {k: v for k, v in rec["layers"].items() if isinstance(v, int)}
                first_counts = first_counts or counts
                if counts != first_counts:
                    rec["errors"].append("work counters differ from the first traced run's")
            records.append(rec)
        durations.append(perf_counter() - began)
    return records


def _keep_going(elapsed: float, durations: list, seconds: float, min_runs: int) -> bool:
    """Start another run while fewer than ``min_runs`` were made, or if it
    should end nearer to ``seconds`` than stopping now would."""
    if elapsed > TIME_LIMIT_S - 10:
        return False
    if len(durations) < min_runs:
        return True
    typical = statistics.median(durations)
    return elapsed + typical / 2 < seconds and elapsed + typical < TIME_LIMIT_S - 10


def _median(records, key):
    return statistics.median(r[key] for r in records)


def host_speed(records: list) -> float:
    """Reference calibration time over the median calibration time of the runs."""
    return CALIBRATION_REF_S / statistics.median(c for r in records for c in r["calibration_s"])


def end_to_end(ok: list) -> dict:
    worst = max(ok[0]["quality"].values())
    speed = host_speed(ok)
    return {
        "setup_s": _median(ok, "setup_s") * speed,
        "run_s": _median(ok, "run_s") * speed,
        "peak_rss_mb": _median(ok, "peak_rss_mb"),
        # -log10 of the quality metric: positive, higher is better
        "quality_digits": -math.log10(max(worst, 1e-300)),
    }


def per_layer(ok_plain: list, ok_traced: list) -> dict:
    """Counters of the first traced run (all agree) and medians of the times."""
    layers = [r["layers"] for r in ok_traced]
    out = {key: first if isinstance(first, int) else statistics.median(layer[key] for layer in layers)
           for key, first in layers[0].items()}
    wall = lambda rs: _median(rs, "setup_s") + _median(rs, "run_s")
    out["trace.overhead_frac"] = wall(ok_traced) / wall(ok_plain) - 1.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sqvi" / "__init__.py").is_file():
        print(f"error: no sqvi sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    spec = WORKLOADS[args.workload]

    out_root = ROOT / "perfbench" / ".out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        records = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    errors = [f"run {i}: {e}" for i, r in enumerate(records) for e in r["errors"]]
    failed = sum(1 for r in records if r["errors"])
    ok_plain = [r for r in records if not r["errors"] and not r["traced"]]
    ok_traced = [r for r in records if not r["errors"] and r["traced"]]
    if not ok_plain or (args.trace and not ok_traced):
        print("\n".join(errors), file=sys.stderr)
        print("error: no run succeeded", file=sys.stderr)
        return 1
    metrics = per_layer(ok_plain, ok_traced) if args.trace else end_to_end(ok_plain)
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    seed_note = "" if spec.seeded else " (this workload has no randomness: the seed changes nothing)"
    print(f"workload {args.workload}, seed {args.seed}{seed_note}")
    print(f"runs: {len(records)} attempted, {failed} failed, failed_frac {failed / len(records):.3g}")
    for err in errors:
        print(f"  FAILED {err}")
    n_timed = len(ok_traced) if args.trace else len(ok_plain)
    print(f"times and memory are medians of {n_timed} runs; counters and quality are exact")
    for name, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:36s} {shown} {units[name]}")
    if not args.trace:
        print(f"  unscaled medians: setup_s {_median(ok_plain, 'setup_s'):.6g} s, run_s "
              f"{_median(ok_plain, 'run_s'):.6g} s; host speed factor {host_speed(ok_plain):.4g}")
        print(f"  {'quality_log10':36s} {-metrics['quality_digits']:>16.6g} "
              f"(log10 of the worst final {spec.quality_metric})")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
