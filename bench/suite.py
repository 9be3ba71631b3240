"""Every workload over several seeds, plus one traced run each, summarised.

    python3 bench/suite.py --seeds 10 --seconds 35 --out bench/baseline.json

Runs ``run.py`` once per workload and seed (seeds 1..N) and prints, per
workload, each end-to-end metric as median [first quartile, third quartile]
with its unit and its spread (IQR / median), and failed_frac from the
reference check.  A run whose operations fail stops the suite.  One traced
run per workload (seed 1) then gives the per-layer metrics and checks the
predicted split of self time.  ``--out`` also writes
all of it, with the interpreter and numpy versions, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
TRACE_SEED = 1

# layers whose self time should be the majority of the traced op time
PREDICTED_MAJORITY = {
    "compare-fine": ("quantization.scan", "quantization.bracket", "quantization.climit"),
    "solve-coarse": ("quantization.refine", "quantization.validate", "radial.match",
                     "radial.norm"),
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count(), "machine": platform.machine()},
        "seeds": list(range(1, args.seeds + 1)), "seconds": args.seconds,
        "trace_seed": TRACE_SEED, "workloads": {},
    }
    for name in WORKLOADS:
        runs = [run_once(name, seed, args.seconds, 0) for seed in report["seeds"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        end_to_end = {}
        print(f"{name}: {len(runs)} runs, {attempted} ops, failed_frac {failed / attempted:.6g}")
        for metric, first in runs[0]["metrics"].items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            end_to_end[metric] = {"unit": first["unit"], **s}
            print(f"  {metric:14s} {s['median']:.6g} {first['unit']} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}]  spread {s['spread']:.3f}")

        traced = run_once(name, TRACE_SEED, args.seconds, 1)
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        checks = {}
        if name in PREDICTED_MAJORITY:
            share = sum(layers[f"{layer}.self_s"] for layer in PREDICTED_MAJORITY[name])
            share /= layers["trace.op_s"]
            checks["majority_share"] = share
            print(f"  self time of {' + '.join(PREDICTED_MAJORITY[name])}: "
                  f"{share:.1%} of {layers['trace.op_s']:.4g} s per traced op")
        if name == "verify":
            checks["quaternion_mul_calls"] = layers["quaternion.mul.calls"]
            print(f"  quaternion.mul.calls {layers['quaternion.mul.calls']:.0f} per op")
        print(f"  trace.overhead_frac {layers['trace.overhead_frac']:.3f}")
        print(f"  known solver defects {layers['quantization.solve.known_defects']:.0f}")
        report["workloads"][name] = {
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "end_to_end": end_to_end, "per_layer": layers, "checks": checks,
        }
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
