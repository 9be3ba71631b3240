"""quatwell benchmark: one workload through the real CLI, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload compare-fine --seed 1 --seconds 35 --trace 0

Operations call ``quatwell.cli.main(argv)`` in this process, one at a time,
with stdout captured in memory; the next operation starts when the last
returns.  The first output of each well is checked against the independent
reference in ``reference.py`` after the timed loop, and every later output
of that well must repeat it byte for byte (the CLI promises byte-identical
output for a fixed configuration).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations, prints the per-layer metrics (per-op means
from the spans of ``tracer.py``) and ``trace.overhead_frac``, and writes the
spans to ``bench/out/``.  Human-readable lines come first; the last line of
stdout is one JSON object.

Every run also solves the wells of ``workloads.KNOWN_DEFECTS`` once, after
the timed loop, and prints how many of them disagree with the reference.
They are not timed and not counted in ``failed``; with ``--trace 1`` their
count is the metric ``quantization.solve.known_defects``.

Exit code 1 when an operation failed (the JSON line is still printed, with
``"correct": false``); 2 when the quatwell sources are not next to this
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from tracer import Tracer
from workloads import DEFECT_ARGS, WORKLOADS, argv_list, defect_wells, wells

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10              # samples that must lie beyond the tail percentile
MIN_OPS = TAIL_BEYOND + 1     # the loop runs past --seconds until it has these


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < MIN_OPS:
        raise ValueError(f"need at least {MIN_OPS} samples, got {n}")
    k = n - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / n


def run_op(main, argv) -> tuple[float, object, str]:
    """(seconds, exit code or error, captured stdout) of one CLI call."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising operation is counted, not fatal
        code = repr(exc)
    return time.perf_counter() - t0, code, buf.getvalue()


def setup_seconds(argv) -> float:
    """Fresh-interpreter time to import quatwell and finish one operation."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *argv],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["code"] != 0:
        raise RuntimeError(f"set-up operation exited with {result['code']}")
    return result["setup_s"]


class Ledger:
    """Per-well operation counts, first outputs and direct failures."""

    def __init__(self, n_wells: int):
        self.ops = [0] * n_wells
        self.bad = [0] * n_wells
        self.first: dict[int, str] = {}

    def record(self, well: int, code, text: str) -> None:
        ok = code == 0 and self.first.setdefault(well, text) == text
        self.ops[well] += 1
        self.bad[well] += not ok

    def failed(self, wrong: set[int]) -> int:
        """Direct failures, plus every remaining op of a well whose output is wrong."""
        return sum(ops if w in wrong else bad
                   for w, (ops, bad) in enumerate(zip(self.ops, self.bad)))


def agrees(mode: str, well, text: str) -> bool:
    """Whether one CLI output of `mode` on `well` matches the reference."""
    try:
        if mode == "verify":
            return reference.check_verify(text)
        ref = reference.spectra(*reference.kappas(well.v1, well.v2, well.v3, well.a))
        check = {"solve": reference.check_solve, "compare": reference.check_compare}
        return check[mode](text, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"malformed output for {well}: {exc!r}", file=sys.stderr)
        return False


def wrong_wells(workload, pool, ledger: Ledger) -> set[int]:
    wrong = set()
    for w, text in ledger.first.items():
        if not agrees(workload.mode, pool[w], text):
            print(f"well {w} disagrees with the reference: {pool[w]}", file=sys.stderr)
            wrong.add(w)
    return wrong


def known_defects(main) -> int:
    """How many wells of KNOWN_DEFECTS the solver still gets wrong."""
    wrong = 0
    for well in defect_wells():
        _, code, text = run_op(main, [*DEFECT_ARGS, *well.argv()])
        wrong += not (code == 0 and agrees("solve", well, text))
    return wrong


def timed_loop(main, argvs, ledger: Ledger, seconds: float, probe, probes: int):
    """Latencies, op wall time and `probes` results of `probe()`.

    The probes are spread evenly over the loop, between operations, so that
    they sample the machine's speed across the whole run.  The time they
    take is left out of the op wall time and of `seconds`.
    """
    latencies, probed = [], []
    paused = 0.0
    t0 = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        busy = now - t0 - paused
        if len(probed) < probes and busy >= (len(probed) + 0.5) * seconds / probes:
            probed.append(probe())
            paused += time.perf_counter() - now
            continue
        if i >= MIN_OPS and busy >= seconds:
            break
        w = i % len(argvs)
        dt, code, text = run_op(main, argvs[w])
        latencies.append(dt)
        ledger.record(w, code, text)
        i += 1
    elapsed = time.perf_counter() - t0 - paused
    while len(probed) < probes:
        probed.append(probe())
    return latencies, elapsed, probed


def traced_loop(main, argvs, ledger: Ledger, seconds: float, tracer):
    """Alternate untraced and traced runs of each op; returns both latency lists."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        w = i % len(argvs)
        dt, code, text = run_op(main, argvs[w])
        plain.append(dt)
        ledger.record(w, code, text)
        tracer.install(i)
        try:
            dt, code, text = run_op(main, argvs[w])
        finally:
            tracer.uninstall()
        traced.append(dt)
        ledger.record(w, code, text)
        i += 1
    return plain, traced


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quatwell" / "cli.py").is_file():
        print(f"quatwell sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    pool = wells(workload, args.seed)
    argvs = argv_list(workload, pool)

    import quatwell
    from quatwell import cli

    if not Path(quatwell.__file__).resolve().is_relative_to(SRC):
        print(f"quatwell imported from {quatwell.__file__}, not {SRC}", file=sys.stderr)
        return 2
    run_op(cli.main, argvs[0])   # untimed: caches and lazy set-up
    ledger = Ledger(len(pool))

    if args.trace:
        tracer = Tracer()
        plain, traced = traced_loop(cli.main, argvs, ledger, args.seconds, tracer)
        attempted = len(plain) + len(traced)
        p50_plain = statistics.median(plain)
        metrics = {name: metric(value, _layer_unit(name))
                   for name, value in tracer.layer_metrics().items()}
        metrics["trace.overhead_frac"] = metric(
            (statistics.median(traced) - p50_plain) / p50_plain, "ratio")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{workload.name}-seed{args.seed}.npz")
    else:
        # the pool's median-depth well, whose cost is the same on every seed
        by_depth = sorted(range(len(pool)), key=lambda w: pool[w].v1 * pool[w].a ** 2)
        setup_argv = argvs[by_depth[len(pool) // 2]]
        latencies, elapsed, setups = timed_loop(
            cli.main, argvs, ledger, args.seconds,
            lambda: setup_seconds(setup_argv), SETUP_REPEATS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(latencies)
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "setup_s": metric(min(setups), "s"),
            "ops_per_s": metric(attempted / elapsed, "1/s"),
            "op_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": metric(tail_s * 1e3, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    failed = ledger.failed(wrong_wells(workload, pool, ledger))
    defects = known_defects(cli.main)
    if args.trace:
        metrics["quantization.solve.known_defects"] = metric(defects, "count")
    print(f"workload {workload.name}  seed {args.seed}  wells {len(pool)}  "
          f"attempted {attempted}  failed {failed}")
    print(f"  failed_frac  {failed / attempted:.6g}  (reference check)")
    print(f"  known solver defects: {defects} of {len(defect_wells())} pinned wells "
          f"disagree with the reference (untimed, not in failed)")
    if not args.trace:
        print(f"  op_tail is p{tail_pct:.1f}: {TAIL_BEYOND} of {attempted} samples beyond it")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
