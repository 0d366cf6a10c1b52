"""One workload process: set up, time the ops, check every result.

Run by run.py, which times this process from its start to the line "ready"
(that is the set-up time), then reads one JSON result line at the end.
With --setup-only the process stops after "ready".  With --trace 1 every op
runs twice, once traced and once not, in alternating order, so the traced
run also measures the tracer's own overhead.

    python3 perfbench/worker.py --workload shape_sweep --seed 1 --seconds 10 --trace 0
"""
from __future__ import annotations

import os

# numpy only does 2x2 and 3x3 solves here: one thread changes no work and
# keeps a BLAS pool from competing with the closed loop for the two cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def import_library():
    """Import pentagramma from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pentagramma.cli  # noqa: F401  (the set-up every user pays)

    where = Path(pentagramma.cli.__file__).resolve().parent
    if where != SRC / "pentagramma":
        raise SystemExit(f"pentagramma imported from {where}, not from {SRC}")


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def tail_index(n: int) -> tuple[int, float]:
    """Index into n sorted latencies of the highest percentile with 10 ops beyond it."""
    index = max(n - 11, 0)
    return index, 100.0 * (index + 1) / n


def latency_stats(latencies: list[float], window: int) -> dict:
    """Throughput and median over all ops; the tail as a median over windows.

    The tail of a window is its highest percentile with at least 10 ops
    beyond it.  The run is cut into as many windows of `window` ops (or one
    of the whole run, if shorter) as fit; ops past the last window are left
    out of the tail, and the median of the windows' tails is reported.
    """
    n = len(latencies)
    size = min(window, n)
    tails = []
    for w in range(n // size):
        chunk = sorted(latencies[w * size:(w + 1) * size])
        tails.append(chunk[tail_index(size)[0]])
    return {
        "ops_per_s": n / math.fsum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * statistics.median(tails),
        "latency_tail_pct": tail_index(size)[1],
        "tail_window_ops": size,
    }


def execute(workload, inp):
    """Run one op; return (seconds, output, exception)."""
    t0 = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # an unexpected error fails the op, not the run
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def verdict_of(workload, inp, out, exc):
    from workloads import Verdict

    if exc is not None:
        return Verdict(False, math.inf, f"{type(exc).__name__}: {exc}")
    try:
        return workload.check(inp, out)
    except Exception as err:  # a result the check cannot read is a failed op
        return Verdict(False, math.inf, f"check raised {type(err).__name__}: {err}")


def run_ops(workload, inputs, tracer=None):
    """Time every op (twice under a tracer: plain and traced) and check each result.

    Between ops, at least every probe.PROBE_EVERY_S of wall time, the
    machine probe runs; each plain op's time is returned as measured and
    scaled to the probe's reference speed, with the probe's mean slowdown
    and how the plain ops tracked it.
    """
    plain, spans, traced = [], [], []
    probe_times, probe_values = [], []
    verdicts, samples = [], []
    last_probe = -math.inf
    for i, inp in enumerate(inputs):
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        op_verdicts = []
        for with_trace in modes:
            if time.perf_counter() - last_probe >= probe.PROBE_EVERY_S:
                probe_values.append(probe.probe())
                last_probe = time.perf_counter()
                probe_times.append(last_probe)
            if with_trace:
                tracer.install(i)
            try:
                start = time.perf_counter()
                seconds, out, exc = execute(workload, inp)
            finally:
                if with_trace:
                    tracer.uninstall()
            if with_trace:
                traced.append(seconds)
            else:
                plain.append(seconds)
                spans.append((start, start + seconds))
            op_verdicts.append(verdict_of(workload, inp, out, exc))
            if exc is None and not with_trace:
                kept = workload.sample(i, inp, out)
                if kept is not None:
                    samples.append(kept)
        bad = [v for v in op_verdicts if not v.ok]
        verdicts.append(bad[0] if bad else max(op_verdicts, key=lambda v: v.err))
    local = probe.local_probe(spans, probe_times, probe_values)
    scaled = [float(t * probe.REFERENCE_S / p) for t, p in zip(plain, local)]
    slope, slope_se = probe.tracking(plain, local, [workload.op_class(inp) for inp in inputs])
    machine = {"probe_slowdown": statistics.fmean(probe_values) / probe.REFERENCE_S,
               "probe_tracking": slope, "probe_tracking_se": slope_se}
    return plain, scaled, machine, traced, verdicts, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    rng = np.random.default_rng([args.seed, 0])
    # under the tracer each op runs twice, so half the inputs keep the run
    # near --seconds
    n_ops = workload.op_count(args.seconds / 2 if args.trace else args.seconds)
    inputs = workload.make_inputs(rng, n_ops)
    for inp in workload.warmup_inputs(np.random.default_rng([args.seed, 1])):
        workload.run(inp)
    print("ready", flush=True)
    # the machine's speed right after set-up, for run.py to scale setup_s by
    print(f"probe {statistics.fmean(probe.probe() for _ in range(3))!r}", flush=True)
    if args.setup_only:
        return 0

    plain, scaled, machine, traced, verdicts, samples = run_ops(workload, inputs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for index, verdict in workload.check_samples(samples):
        if not verdicts[index].ok:
            continue
        if not verdict.ok or verdict.err > verdicts[index].err:
            verdicts[index] = verdict

    failures = [(i, v.why) for i, v in enumerate(verdicts) if not v.ok]
    worst = max((v.err for v in verdicts if v.ok), default=0.0)
    result = {
        "workload": workload.name,
        "attempted": len(verdicts),
        "failed": len(failures),
        "failures": failures[:5],
        "worst_err": worst,
        "peak_rss_mb": peak_rss_mb,
        "oracle_samples": len(samples),
        "env": environment(args.seed),
        **machine,
        **latency_stats(scaled, workload.tail_window_ops),
        "as_measured": latency_stats(plain, workload.tail_window_ops),
    }
    if tracer is not None:
        # each op ran traced and plain back to back, so their ratio is
        # measured under the same machine state
        result["trace_overhead_frac"] = statistics.median(
            t / p for t, p in zip(traced, plain)) - 1.0
        result["layers"], result["ratio_bases"] = tracer.summary()
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.fid)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
