"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 bench/selftest.py

Checks that op lists and outputs are reproducible from the seed, that the
verifiers reject deliberately corrupted outputs, that the tracer restores
every function it wraps, that times are scaled to the reference speed, and
that BENCHMARK.json lists exactly the metrics run.py prints.  Takes about half a minute (two catalog passes).
"""
from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def cheap(workload: str, ops: list) -> list:
    """A fast subset of an op list (the catalog runs whole)."""
    if workload == "transform":
        return [op for op in ops if op["length"] <= 32]
    if workload == "operator-eval":
        picked = [op for op in ops if op["kind"] in ("tricomi", "heat")
                  or op.get("family") == "identity"]
        return picked + [next(op for op in ops if op["kind"] == "integro-m2")]
    return ops


def context(workload: str) -> dict:
    ctx = {"on_op": lambda n: None}
    if workload == "operator-eval":
        ctx.update(workloads.operator_setup())
    return ctx


def reproducibility(workdir: str) -> dict:
    """Same seed: same op list and outputs.  Other seed: other op list."""
    verified = {}
    dirs = {}
    for name in ("first", "again", "other"):
        dirs[name] = os.path.join(workdir, name)
        os.makedirs(dirs[name], exist_ok=True)
    for w in workloads.WORKLOADS:
        ops = workloads.make_ops(w, 7, dirs["first"])
        again = workloads.make_ops(w, 7, dirs["again"])
        other = workloads.make_ops(w, 8, dirs["other"])
        digest = workloads.op_list_digest
        check(digest(ops) == digest(again), f"{w}: same seed, same op list")
        check(digest(ops) != digest(other), f"{w}: other seed, other op list")
        subset = cheap(w, ops)
        ctx = context(w)
        first = workloads.run_pass(w, subset, 7, ctx)
        second = workloads.run_pass(w, subset, 7, ctx)
        check(first.digests() == second.digests() and None not in first.digests(),
              f"{w}: same seed, same output digests")
        verdict = workloads.verify(w, subset, first)
        check(all(verdict.ok), f"{w}: {len(subset)} genuine outputs pass the verifier")
        verified[w] = (subset, first)
    return verified


def corruption(verified: dict) -> None:
    """Each verifier counts a deliberately corrupted output as a failure."""
    def rejects(w, ops, result, n, label):
        ok = workloads.verify(w, ops, result).ok
        check(not ok[n] and sum(ok) == len(ok) - 1, f"{w}: {label} is counted as a failure")

    ops, result = verified["transform"]
    for n, label, mutate in (
        (0, "one term off by one", lambda t: t[:-1] + [str(Fraction(t[-1]) + 1)]),
        (1, "one term dropped", lambda t: t[:-1]),
    ):
        bad = copy.deepcopy(result)
        terms = json.loads(bad.outputs[n])["terms"]
        bad.outputs[n] = json.dumps({"terms": mutate(terms)})
        rejects("transform", ops, bad, n, label)
    bad = copy.deepcopy(result)
    bad.outputs[2] = "not json"
    rejects("transform", ops, bad, 2, "unparsable output")

    ops, result = verified["operator-eval"]
    for label, mutate in (("value off by 1e-5", lambda row: [row[0] + 1e-5] + row[1:]),
                          ("NaN value", lambda row: [float("nan")] + row[1:])):
        bad = copy.deepcopy(result)
        n = len(ops) - 1  # the integro-m2 row
        bad.outputs[n] = [mutate(bad.outputs[n][0])]
        rejects("operator-eval", ops, bad, n, label)

    ops, result = verified["catalog"]
    bad = copy.deepcopy(result)
    bad.outputs[5]["status"] = "fail"
    rejects("catalog", ops, bad, 5, "a row with status fail")
    bad = copy.deepcopy(result)
    bad.outputs[6]["name"] = "some other row"
    rejects("catalog", ops, bad, 6, "a row out of place")
    bad = copy.deepcopy(result)
    bad.exit_code = 1
    check(not any(workloads.verify("catalog", ops, bad).ok), "catalog: exit code 1 fails every row")
    statuses = workloads.verify("catalog", ops, result).statuses
    check(statuses == {"pass": 53, "flagged-errata": 10}, f"catalog: status counts {statuses}")


def tracer_restores() -> None:
    import importlib

    def snapshot():
        out = {}
        for modname in tracing.LAYERS:
            mod = importlib.import_module(modname)
            for attr, obj in vars(mod).items():
                out[modname, attr] = obj
                if isinstance(obj, type):
                    out.update({(modname, attr, k): v for k, v in vars(obj).items()})
        for ns in tracing._umbra_namespaces():
            out.update({(ns.__name__, "ns", attr): obj for attr, obj in vars(ns).items()})
        return out

    before = snapshot()
    tr = tracing.Tracer()
    tr.install()
    from umbra import opcalc
    from umbra.opcalc import fourier

    original = before["umbra.opcalc.quadrature", "gaussian_fourier_integral"]
    wrapped = fourier.gaussian_fourier_integral is not original
    opcalc.tricomi_evolution(0.5, 0.5)
    tr.uninstall()
    after = snapshot()
    check(wrapped, "tracer: from-imported names are wrapped where they are bound")
    check(all(after[k] is v for k, v in before.items()), "tracer: uninstall restores every binding")
    names = {tr.funcs[s[2]][1] for s in tr.spans}
    check({"tricomi_evolution", "gauss_weighted_integral", "gaussian_fourier_integral",
           "adaptive_hermite", tracing.INTEGRAND, "tricomi_c"} <= names,
          "tracer: a tricomi row records spans through every layer it crosses")
    check(all(s[6] >= -1e-9 for s in tr.spans), "tracer: self time is never negative")


def calibration() -> None:
    """A pass measured at the reference speed is reported as measured; where
    the kernel ran twice as slow, the ops next to it are reported at half."""
    ref = speed.REFERENCE_S
    steady = workloads.PassResult(1.25, [0.01] * 100, [None] * 100, [None] * 100, [ref] * 100)
    wall, lat = worker.scaled(steady)
    check(abs(wall - 1.25) < 1e-12 and all(abs(t - 0.01) < 1e-15 for t in lat),
          "calibration: at the reference speed times are unchanged")
    halfslow = workloads.PassResult(2.0, [0.01] * 100, [None] * 100, [None] * 100,
                                    [2 * ref] * 50 + [ref] * 50)
    wall, lat = worker.scaled(halfslow)
    check(abs(lat[0] - 0.005) < 1e-15 and abs(lat[-1] - 0.01) < 1e-15,
          "calibration: ops next to a slow kernel are scaled down, the others not")
    check(abs(wall - (sum(lat) + 1.0 / (1.5 * ref) * ref)) < 1e-12,
          "calibration: time between ops is scaled by the whole pass")


def benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json: end_to_end matches what run.py prints")
    check(layer == run.per_layer_units(), "BENCHMARK.json: per_layer matches what run.py prints")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json: workloads match")


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_out", "selftest")
    os.makedirs(workdir, exist_ok=True)
    corruption(reproducibility(workdir))
    tracer_restores()
    calibration()
    benchmark_json()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
