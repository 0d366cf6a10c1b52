"""Benchmark entry point: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The workload runs in a fresh single-threaded
worker process, a closed loop: each op starts when the previous one returns.
Set-up time is measured over several fresh processes and reported as their
median.  Timings are scaled to the machine's undisturbed speed by the probe
in probe.py; the figures as measured, and how the ops tracked the probe, are
printed too.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics from a traced run with --trace 1 (with the
plain ops' timings as measured and the probe's figures among them).  A full
record, with the environment, goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("battery", "shape_sweep", "jacobi_grid", "poncelet_walk")
# fresh processes timed to set-up in a --trace 0 run, the measured one included
SETUP_SAMPLES = 5
# a worker that outlives this is stopped and the run fails
WORKER_TIMEOUT_S = 150.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds and, unless setup_only, its result.

    The set-up time is scaled by the machine probe the worker runs right
    after it, like every other timing (see probe.py).
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if first.strip() != "ready":
            raise RuntimeError(f"worker failed during set-up (got {first!r})")
        setup_s *= probe.REFERENCE_S / float(proc.stdout.readline().split()[1])
        rest = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "accuracy_digits": "digits",
                    "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".errors"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_worker(args, True, deadline)[0] for _ in range(extra)]
        setup_s, result = run_worker(args, False, deadline)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    worst = result["worst_err"]
    # -log10 of the worst error against the oracle; the error floor of 1e-17
    # keeps an exact result finite
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": result["ops_per_s"],
        "latency_p50_ms": result["latency_p50_ms"],
        "latency_tail_ms": result["latency_tail_ms"],
        "accuracy_digits": -math.log10(max(worst, 1e-17)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  env {json.dumps(result['env'])}")
    for name, value in end_to_end.items():
        print(f"  {name:<22} {value:14.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'latency_tail_pct':<22} {result['latency_tail_pct']:14.6g} %  "
          f"(median over windows of {result['tail_window_ops']} ops; 10 lie beyond it)")
    raw = result["as_measured"]
    print(f"  timings are scaled to the probe's reference speed; the probe ran "
          f"{result['probe_slowdown']:.3f}x slower than its reference on average, and the "
          f"ops slowed by {result['probe_tracking']:.3f} ± {result['probe_tracking_se']:.3f} "
          "per unit of probe slowdown (1 = the scaling is unbiased).  As measured: "
          f"{raw['ops_per_s']:.6g} ops/s, p50 {raw['latency_p50_ms']:.6g} ms, "
          f"tail {raw['latency_tail_ms']:.6g} ms")
    print(f"  {'failed_ops_frac':<22} {failed / attempted:14.6g} ratio")
    print(f"  {'worst_err_log10':<22} {-end_to_end['accuracy_digits']:14.6g} log10")
    for index, why in result["failures"]:
        print(f"  failed op {index}: {why}")

    if args.trace:
        metrics = {name: (value, layer_unit(name)) for name, value in result["layers"].items()}
        metrics["trace_overhead_frac"] = (result["trace_overhead_frac"], "ratio")
        # the plain ops' figures as measured, and the probe they were scaled by
        metrics["as_measured.ops_per_s"] = (raw["ops_per_s"], "1/s")
        metrics["as_measured.latency_p50_ms"] = (raw["latency_p50_ms"], "ms")
        metrics["probe.slowdown"] = (result["probe_slowdown"], "ratio")
        print(f"  traced: {result['spans']} spans in {result['spans_file']}; "
              f"tracing overhead {100 * result['trace_overhead_frac']:.1f} % "
              "(median over ops of traced/plain time, minus 1)")
        for name in result["absent"]:
            print(f"  absent: {name} (reported as 0)")
        for name, (value, unit) in metrics.items():
            base = result["ratio_bases"].get(name)
            print(f"  {name:<58} {value:14.6g} {unit}" + (f"  (base: {base})" if base else ""))
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end.items()}

    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    full = {**record, "setup_samples_s": setups, "end_to_end": end_to_end, "worker": result}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
