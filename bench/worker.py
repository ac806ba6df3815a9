"""Run one workload in this (fresh) process and print its measurements as one
JSON line.  Started by run.py; not meant to be run by hand.

A warm-up pass runs first.  Timed passes follow while the next one is
expected to end within --seconds (at least two).  With --trace 1 untraced
and traced passes alternate, at least one of each, so the tracing overhead
is measured in the same process.
The outputs of the warm-up pass are verified in full; every later pass must
reproduce them exactly (same digest per op).
Every op latency is scaled to the reference speed by the calibration samples
taken around it (see speed.py); the raw figures are kept in the output too.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import speed
import tracer as tracing
import workloads
from run import THREAD_VARS


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """High-water mark of this process's own resident set.  ru_maxrss would
    not do: it carries the parent's resident set at fork time across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def latency_metrics(latencies: list) -> dict:
    """op_p50_ms and op_p90_ms: Harrell-Davis estimates of the 50th and 90th
    percentiles, Beta-weighted averages of the order statistics around the
    quantile.  They are steadier than a single order statistic where few ops
    lie near the quantile: on catalog the 90th percentile falls on the edge
    between rows of about 200 ms and rows of 350 ms and more, and the plain
    percentile jumped between 210 and 290 ms from run to run."""
    import numpy as np
    import scipy.special

    ms = np.sort(np.asarray(latencies)) * 1000.0
    n = len(ms)

    def harrell_davis(p: float) -> float:
        edges = scipy.special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
        return float(np.dot(np.diff(edges), ms))

    return {"op_p50_ms": harrell_davis(0.5), "op_p90_ms": harrell_davis(0.9), "op_samples": n}


def scaled(result) -> tuple[float, list]:
    """(wall_s, latencies) of one pass at the reference speed.  Each op is
    scaled by the calibration samples around it, the time between ops by
    the whole pass's samples."""
    samples = result.calibration or [speed.sample()]  # a crashed catalog pass has none
    if len(samples) == len(result.latencies):
        latencies = [t * f for t, f in zip(result.latencies, speed.local_factors(samples))]
    else:
        latencies = [t * speed.factor(samples) for t in result.latencies]
    between = max(result.wall_s - sum(result.latencies), 0.0) * speed.factor(samples)
    return sum(latencies) + between, latencies


def _mean(dicts: list) -> dict:
    """Per-key mean over traced passes; counts that repeat exactly stay whole."""
    out = {}
    for k in dicts[0]:
        values = [d[k] for d in dicts]
        out[k] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import umbra.cli  # noqa: F401  (everything the workloads call)

    ctx = {"on_op": lambda n: None}
    if args.workload == "operator-eval":
        ctx.update(workloads.operator_setup())
    ops = workloads.make_ops(args.workload, args.seed, args.workdir)

    warm = workloads.run_pass(args.workload, ops, args.seed, ctx)
    untraced, traced, layer = [], [], []
    suite_of = {}
    if args.trace:
        from umbra import checks

        suite_of = {(c.name, c.equation): s for s, c in checks.resolve_suites("all", args.seed)}
    last_tracer = None
    origin = time.perf_counter()
    while True:
        started = time.perf_counter()
        untraced.append(workloads.run_pass(args.workload, ops, args.seed, ctx))
        if args.trace:
            tr = tracing.Tracer(suite_of)
            ctx["on_op"] = lambda n, tr=tr: setattr(tr, "op", n)
            tr.install()
            try:
                traced.append(workloads.run_pass(args.workload, ops, args.seed, ctx))
            finally:
                tr.uninstall()
                ctx["on_op"] = lambda n: None
            layer.append(tr.metrics())
            last_tracer = tr
        # stop before a round that would end after --seconds; two untraced
        # passes at least, so every workload has 10+ latencies beyond its p90
        now = time.perf_counter()
        if len(untraced) >= (1 if args.trace else 2) and now - origin + (now - started) > args.seconds:
            break

    rss = peak_rss_mb()  # before verification, whose memory is the benchmark's own
    verdict = workloads.verify(args.workload, ops, warm)
    expected = warm.digests()
    expected += [None] * (len(ops) - len(expected))  # a crashed catalog run has no rows
    good = [ok and d is not None for ok, d in zip(verdict.ok, expected)]
    attempted = failed = 0
    for result in [warm] + untraced + traced:
        digests = result.digests()
        for n in range(len(ops)):
            attempted += 1
            if not (n < len(digests) and good[n] and digests[n] == expected[n]):
                failed += 1
    errors = sorted({e for r in [warm] + untraced + traced for e in r.errors if e})

    walls, latencies = [], []
    for r in untraced:
        wall, lat = scaled(r)
        walls.append(wall)
        latencies += lat
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "op_list_digest": workloads.op_list_digest(ops),
        "output_digest": workloads.digest(expected),
        "passes": len(untraced),
        "pass_walls": walls,
        "wall_s": statistics.median(walls),
        "raw_pass_walls": [r.wall_s for r in untraced],
        "raw_latencies_ms": [t * 1000.0 for r in untraced for t in r.latencies],
        "calibration_ms": [t * 1000.0 for r in untraced for t in r.calibration],
        **latency_metrics(latencies),
        "latencies_ms": [t * 1000.0 for t in latencies],
        "attempted": attempted,
        "failed": failed,
        "verified_ok": sum(good),
        "errors": errors[:5],
        "warnings": warm.warnings,
        "residuals": verdict.residuals,
        "max_residual": verdict.max_residual,
        "statuses": verdict.statuses,
        "exit_code": warm.exit_code,
        "peak_rss_mb": rss,
        "env": environment(),
    }
    if args.trace:
        out["traced_walls"] = [scaled(r)[0] for r in traced]
        out["traced_wall_s"] = statistics.median(out["traced_walls"])
        out["layer"] = _mean(layer)
        path = os.path.join(args.workdir, "spans.jsonl.gz")
        last_tracer.write_spans(path, origin)
        out["spans"] = len(last_tracer.spans)
        out["spans_file"] = os.path.relpath(path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
