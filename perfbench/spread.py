"""Spread of the end-to-end metrics over seeds, and the probe's tracking across runs.

    python3 perfbench/spread.py --workload battery --seeds 201-210 --seconds 15

Run from the root of a checkout.  Runs run.py with --trace 0 once per seed,
one run after another, and prints for each end-to-end metric its median and
the distance between its first and third quartiles (statistics.quantiles
with n=4) as a share of the median.  Then, from the runs' records, the slope
of log(op time as measured) on log(probe slowdown) across the runs, with its
standard error: 1 means the ops slow down as the probe does, so the scaled
timings carry no bias from the machine's state.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import probe
from run import OUT_DIR, ROOT, WORKLOADS


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    raw_op_s, slowdowns = [], []
    for seed in args.seeds:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode:
            print(f"seed {seed}: run failed\n{done.stderr}", file=sys.stderr)
            return 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads((OUT_DIR / f"{args.workload}-seed{seed}-trace0.json").read_text())
        worker = record["worker"]
        raw_op_s.append(1.0 / worker["as_measured"]["ops_per_s"])
        slowdowns.append(worker["probe_slowdown"])
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct {line['correct']}, failed {line['failed']}/"
              f"{line['attempted']}, probe slowdown {worker['probe_slowdown']:.3f}, "
              + ", ".join(f"{n} {m['value']:.6g}" for n, m in line["metrics"].items()),
              flush=True)

    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{name:<18} median {median:12.6g}  spread {(q3 - q1) / median:.4f}  "
              f"min {min(vals):.6g}  max {max(vals):.6g}")
    slope, slope_se = probe.tracking(raw_op_s, slowdowns, [None] * len(slowdowns))
    print(f"tracking across runs: {slope:.3f} ± {slope_se:.3f} "
          f"(probe slowdown {min(slowdowns):.3f}-{max(slowdowns):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
