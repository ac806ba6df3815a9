"""umbra benchmark: measure one workload end to end, or layer by layer.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

Run from the repository root.  With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics instead.  --all runs the three workloads one after the
other and prints a table of every end-to-end figure, including fail_share
and max_residual.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import SUITES, TRANSFORM_FUNCS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BUDGET_S = 170.0          # a run must end within 180 s
SETUP_LAUNCHES = 5        # set-up probes per run, after one discarded launch
IMPORT_LAUNCHES = 3       # import probes per module in a traced run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {  # name -> unit; every one is better lower
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric of the traced run, with its unit."""
    units = {"import.seqcore_s": "s", "import.cli_s": "s",
             "seqcore.calls": "count", "seqcore.terms": "count", "seqcore.busy_s": "s"}
    for label in list(TRANSFORM_FUNCS.values()) + ["den-int", "den-shared", "den-random",
                                                   "len-short", "len-long"]:
        units[f"seqcore.{label}.busy_s"] = "s"
    units["cli.self_s"] = "s"
    q = "opcalc.quadrature"
    units.update({f"{q}.calls": "count", f"{q}.nodes_evaluated": "count",
                  f"{q}.accepted_nodes": "count", f"{q}.useful_node_ratio": "ratio",
                  f"{q}.converged_ratio": "ratio", f"{q}.integrand_s": "s", f"{q}.busy_s": "s"})
    for name in ("integro_diff_evolve", "tricomi_evolution"):
        units[f"opcalc.fourier.{name}.self_s"] = "s"
    for name in ("opcalc.oracles.integro_matrix_oracle", "opcalc.oracles.apply_entire_function",
                 "appell.expansion_coefficients", "appell.operational_coefficients"):
        units[f"{name}.busy_s"] = "s"
    units["opcalc.operators.apply_calls"] = "count"
    units["opcalc.operators.busy_s"] = "s"
    for layer in ("opcalc.formal", "opcalc.series_ops", "specfun", "gftrans"):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
    for suite in SUITES:
        units[f"checks.{suite}.busy_s"] = "s"
    for status in ("pass", "flagged_errata", "fail"):
        units[f"checks.{status}"] = "count"
    units["max_residual"] = "abs"
    units["trace.overhead_s"] = "s"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Budget:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 1.0:
            raise TimeoutError("benchmark run exceeded its time budget")
        return left


def _python(args: list, budget: Budget) -> str:
    """Run a benchmark script in a fresh interpreter; return its last stdout line."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=budget.left())
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _median_launch(args: list, launches: int, budget: Budget) -> tuple[float, list]:
    times = [float(_python(args, budget)) for _ in range(launches)]
    return statistics.median(times), times


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (report with every detail, contract result)."""
    budget = Budget(BUDGET_S)
    workdir = os.path.join(ROOT, ".bench_out", f"{workload}-s{seed}-t{trace}")
    os.makedirs(workdir, exist_ok=True)
    probe = os.path.join(HERE, "probe.py")
    # one discarded launch first: it compiles bytecode and fills the page cache
    _python([probe, "setup", workload, workdir], budget)
    setup_s, setup_times = _median_launch([probe, "setup", workload, workdir], SETUP_LAUNCHES, budget)
    imports = {}
    if trace:
        for module, key in (("umbra.seqcore", "import.seqcore_s"), ("umbra.cli", "import.cli_s")):
            imports[key] = _median_launch([probe, "import", module], IMPORT_LAUNCHES, budget)[0]
    line = _python([os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir], budget)
    w = json.loads(line)

    end_to_end = {k: setup_s if k == "setup_s" else w[k] for k in END_TO_END}
    report = dict(w, setup_times=setup_times, fail_share=w["failed"] / w["attempted"],
                  end_to_end=end_to_end)
    if trace:
        layer = dict(w["layer"], **imports)
        statuses = w["statuses"]
        layer.update({"checks.pass": statuses.get("pass", 0),
                      "checks.flagged_errata": statuses.get("flagged-errata", 0),
                      "checks.fail": statuses.get("fail", 0),
                      "max_residual": w["max_residual"],
                      "trace.overhead_s": w["traced_wall_s"] - w["wall_s"]})
        units = per_layer_units()
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END.items()}
    correct = w["failed"] == 0 and w["verified_ok"] == w["ops"]
    result = {"correct": correct, "attempted": w["attempted"], "failed": w["failed"],
              "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    return report, result


def _summary(report: dict) -> list:
    e = report["end_to_end"]
    return [
        f"# {report['workload']} seed={report['seed']}: {report['ops']} ops x {report['passes']} "
        f"timed passes, {report['op_samples']} latency samples, env {json.dumps(report['env'])}",
        f"#   setup_s {e['setup_s']:.4f} s   wall_s {e['wall_s']:.4f} s   "
        f"op_p50_ms {e['op_p50_ms']:.4f} ms   op_p90_ms {e['op_p90_ms']:.4f} ms   "
        f"peak_rss_mb {e['peak_rss_mb']:.1f} MB",
        f"#   fail_share {report['fail_share']:.4g} ({report['failed']}/{report['attempted']})   "
        f"max_residual {report['max_residual']:.3e}   statuses {report['statuses']}   "
        f"warnings {report['warnings']}",
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, print one table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "umbra", "cli.py")):
        sys.stderr.write(f"error: no umbra sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.all:
            for workload in WORKLOADS:
                report, _ = measure(workload, args.seed, args.seconds, 0)
                print("\n".join(_summary(report)), flush=True)
            return 0
        report, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print("\n".join(_summary(report)))
    if args.trace:
        print(f"#   tracing overhead {report['traced_wall_s'] - report['wall_s']:+.4f} s "
              f"({report['spans']} spans in {report['spans_file']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
