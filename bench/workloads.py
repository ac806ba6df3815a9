"""The three benchmark workloads: seeded op lists, one pass over an op list,
and the verifiers that decide which ops failed.

An op list is a list of JSON-serialisable dicts, fixed by the workload name
and the seed.  `run_pass` executes every op once, closed loop (one op at a
time, the next after the previous returns), and returns a `PassResult`.
`verify` checks the outputs of one pass and returns a `Verdict`.
A pass times the calibration kernel of `speed` before every op, outside the
op's time and the pass's wall time, so that its times can be scaled to the
reference speed.

Library calls always go through module attributes (`cli.main`,
`oc.integro_diff_evolve`, ...) so that the tracer's wrappers see them.
umbra and numpy are imported inside the functions that use them: the
set-up probe imports this module and must pay only for what its workload
calls.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import oracles
import speed

WORKLOADS = ("catalog", "transform", "operator-eval")

#: statuses under which a catalog row counts as succeeded
GOOD_STATUSES = ("pass", "flagged-errata")

#: catalog tolerances of the equations the operator-eval rows evaluate
TOLERANCE = {
    "integro-m2": 1e-6,   # Eq. 86
    "integro-m4": 1e-6,   # Eq. 86
    "tricomi": 1e-8,      # Eq. 55
    "heat": 1e-6,         # Eq. 40
    "expand": 1e-8,       # Eq. 64
}

TRANSFORM_LENGTHS = tuple(round(16 * 16 ** (j / 12)) for j in range(13))  # 16 .. 256, log-spaced
DENOMINATORS = ("int", "shared", "random")
INTEGRO_ORDER = 40   # the CLI's truncation for `evolve --equation integro-diff`
M4_ORDER = 81        # degree the m = 4 route needs for tau in [0.1, 0.35]
EXPAND_COUNT = 24    # the CLI's coefficient cap


@dataclass
class PassResult:
    wall_s: float              # seconds, without the calibration samples
    latencies: list            # seconds per op
    outputs: list              # per op: JSON-serialisable output, None if the op raised
    errors: list               # per op: error text or None
    calibration: list          # seconds per calibration kernel run, one before each op
    warnings: int = 0
    exit_code: int | None = None  # catalog only: the `check` run's exit code

    def digests(self) -> list:
        return [None if o is None else digest(o) for o in self.outputs]


@dataclass
class Verdict:
    ok: list                   # per op: True if the output passed its verifier
    residuals: dict = field(default_factory=dict)   # kind -> largest |value - oracle|
    statuses: dict = field(default_factory=dict)    # catalog: status -> count

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def op_list_digest(ops: list) -> str:
    """Digest of an op list, leaving out where its input files were written."""
    return digest([{k: v for k, v in op.items() if k != "input"} for op in ops])


def _rational(rng: random.Random) -> str:
    """Nonzero rational +-p/q, p and q distinct primes from {7, 11, 13}: the
    height barely varies, so every seed costs about the same."""
    num, den = rng.sample((7, 11, 13), 2)
    return str(Fraction(rng.choice((-1, 1)) * num, den))


def _jittered_grid(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One point drawn uniformly inside each of `count` equal cells of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


# ---------------------------------------------------------------------------
# op lists

def make_ops(workload: str, seed: int, workdir: str) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        return _catalog_ops(seed)
    if workload == "transform":
        return _transform_ops(rng, workdir)
    if workload == "operator-eval":
        return _operator_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _catalog_ops(seed: int) -> list:
    from umbra import checks

    return [
        {"suite": suite, "name": chk.name, "equation": chk.equation, "seed": seed}
        for suite, chk in checks.resolve_suites("all", seed)
    ]


def _transform_terms(rng: random.Random, length: int, den: str) -> list:
    if den == "int":
        return [str(rng.randint(-1000, 1000)) for _ in range(length)]
    if den == "shared":
        q = rng.randint(500, 1000)
        return [str(Fraction(rng.randint(-1000, 1000), q)) for _ in range(length)]
    return [str(Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))) for _ in range(length)]


def _transform_ops(rng: random.Random, workdir: str) -> list:
    """Every transform name at every length; the denominator structure rotates
    over (name, length) so each structure meets every name and length."""
    from umbra import seqcore as sq

    ops = []
    for i, name in enumerate(sq.TRANSFORM_NAMES):
        for j, length in enumerate(TRANSFORM_LENGTHS):
            den = DENOMINATORS[(i + j) % 3]
            op = {"name": name, "length": length, "den": den,
                  "terms": _transform_terms(rng, length, den)}
            if name == "k-binomial":
                op["k"] = j % 4
            elif name != "binomial":
                op["alpha"], op["beta"] = _rational(rng), _rational(rng)
            ops.append(op)
    rng.shuffle(ops)
    for n, op in enumerate(ops):
        op["input"] = os.path.join(workdir, f"transform-{n:03d}.json")
        with open(op["input"], "w") as fh:
            json.dump({"terms": op["terms"]}, fh)
    return ops


def _operator_ops(rng: random.Random) -> list:
    ops = []
    for beta in (0.0, 0.5, 1.0):
        for x in _jittered_grid(rng, 0.0, 0.5, 6):
            for tau in _jittered_grid(rng, 0.0, 0.5, 6):
                ops.append({"kind": "integro-m2", "beta": beta, "x": x, "tau": tau})
    for x in _jittered_grid(rng, 0.0, 1.0, 6):
        for tau in _jittered_grid(rng, 0.0, 1.0, 6):
            ops.append({"kind": "tricomi", "x": x, "tau": tau})
    for alpha in _jittered_grid(rng, 0.1, 1.0, 8):
        ops.append({"kind": "heat", "alpha": alpha, "scale": rng.uniform(0.25, 1.0)})
    for family in ("bernoulli", "identity", "gauss-hermite-type"):
        for lo, hi in ((4, 6), (6, 8)):  # scale in [1/16, 1/8], in 1/64 steps
            ops.append({"kind": "expand", "family": family,
                        "scale": str(Fraction(rng.randint(lo, hi), 64))})
    for beta in (0.0, 0.5, 1.0):
        for x, tau in zip(_jittered_grid(rng, 0.0, 0.5, 2), _jittered_grid(rng, 0.1, 0.3, 2)):
            ops.append({"kind": "integro-m4", "beta": beta, "x": x, "tau": tau})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# passes

def run_pass(workload: str, ops: list, seed: int, ctx: dict) -> PassResult:
    if workload == "catalog":
        return _catalog_pass(seed, ctx)
    runner = _transform_op if workload == "transform" else _operator_op
    latencies, outputs, errors, calibration = [], [], [], []
    clock = time.perf_counter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = clock()
        for n, op in enumerate(ops):
            calibration.append(speed.sample())
            ctx["on_op"](n)
            t0 = clock()
            try:
                out, err = runner(op, ctx), None
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
            outputs.append(out)
            errors.append(err)
        wall = clock() - start - sum(calibration)
    return PassResult(wall, latencies, outputs, errors, calibration, len(caught))


def _catalog_pass(seed: int, ctx: dict) -> PassResult:
    from umbra import checks, cli

    latencies, calibration = [], []
    run_check = checks.run_check

    @functools.wraps(run_check)
    def timed_run_check(check):
        calibration.append(speed.sample())
        ctx["on_op"](len(latencies))
        t0 = time.perf_counter()
        try:
            return run_check(check)
        finally:
            latencies.append(time.perf_counter() - t0)

    buf = io.StringIO()
    checks.run_check = timed_run_check
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["check", "--suite", "all", "--seed", str(seed), "--order", "64",
                             "--format", "json"])
        rows, error = json.loads(buf.getvalue())["checks"], None
    except Exception as exc:  # a crashed run fails every row, it does not stop the benchmark
        code, rows, error = None, [], f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start - sum(calibration)
        checks.run_check = run_check
    outputs = [{k: row[k] for k in ("suite", "name", "equation", "status", "residual",
                                    "tolerance", "detail")} for row in rows]
    return PassResult(wall, latencies, outputs, [error], calibration, exit_code=code)


def _transform_op(op: dict, ctx: dict):
    from umbra import cli

    argv = ["transform", op["input"], "--name", op["name"]]
    # "--alpha=-3/5": a separate negative value would read as an option
    argv += [f"--{key}={op[key]}" for key in ("alpha", "beta", "k") if key in op]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return buf.getvalue()


def operator_setup() -> dict:
    """Initial series the evolve rows start from, built once as the CLI does."""
    from umbra import gftrans as gf
    from umbra import opcalc as oc

    series = {}
    for order in (INTEGRO_ORDER, M4_ORDER):
        coeffs = oc.c0_series(order)
        series[order] = (gf.PowerSeries(coeffs, "ordinary"), [float(c) for c in coeffs])
    return {"series": series}


def _pair(value: complex, oracle) -> list:
    value, oracle = complex(value), complex(oracle)
    return [value.real, value.imag, oracle.real, oracle.imag]


def _operator_op(op: dict, ctx: dict):
    import numpy as np
    from umbra import appell as ap
    from umbra import opcalc as oc

    kind = op["kind"]
    if kind in ("integro-m2", "integro-m4"):
        m, order = (2, INTEGRO_ORDER) if kind == "integro-m2" else (4, M4_ORDER)
        f, f_ord = ctx["series"][order]
        value = oc.integro_diff_evolve(f, op["beta"], m, op["tau"], op["x"])
        oracle = oc.integro_matrix_oracle(f_ord, op["beta"], m, op["tau"], op["x"], order)
        return [_pair(value, oracle)]
    if kind == "tricomi":
        value = oc.tricomi_evolution(op["x"], op["tau"])
        return [_pair(value, oc.tricomi_evolution_series(op["x"], op["tau"]))]
    if kind == "heat":
        scale, alpha = op["scale"], op["alpha"]
        grid = oc.GridFunction.sample(lambda t: np.exp(-scale * t * t), 16.0, 1024)
        evolved = oc.heat_evolve_ft(grid, alpha)
        # exact Gaussian widening: variance 1/(2 s) -> 1/(2 s) + 2 alpha
        denom = 1.0 + 4.0 * alpha * scale
        exact = np.exp(-scale * grid.xs() ** 2 / denom) / math.sqrt(denom)
        worst = int(np.argmax(np.abs(evolved.samples - exact)))
        return [_pair(evolved.samples[worst], exact[worst]),
                hashlib.sha256(evolved.samples.tobytes()).hexdigest()[:16]]
    if kind == "expand":
        family = {"bernoulli": ap.bernoulli_family, "identity": ap.identity_family,
                  "gauss-hermite-type": ap.gauss_hermite_family}[op["family"]]()
        f = ap.GaussianFunction(Fraction(op["scale"]))
        result = ap.expansion_coefficients(family, f, EXPAND_COUNT)
        oracle = ap.operational_coefficients(family, f, EXPAND_COUNT)
        return [_pair(c, float(o)) for c, o in zip(result.coefficients, oracle)]
    raise ValueError(f"unknown operator-eval kind {kind!r}")


# ---------------------------------------------------------------------------
# verifiers

def verify(workload: str, ops: list, result: PassResult) -> Verdict:
    if workload == "catalog":
        return _verify_catalog(ops, result)
    if workload == "transform":
        return _verify_transform(ops, result)
    return _verify_operator(ops, result)


def _verify_catalog(ops: list, result: PassResult) -> Verdict:
    """A row succeeds if it is the expected row, its status is pass or
    flagged-errata, and the whole `check` run exited 0.  The residual
    recorded is the largest over passing rows with a finite tolerance."""
    ok, statuses, worst = [], {}, 0.0
    outputs = result.outputs + [None] * (len(ops) - len(result.outputs))
    for op, row in zip(ops, outputs):
        if row is None:
            ok.append(False)
            continue
        statuses[row["status"]] = statuses.get(row["status"], 0) + 1
        if row["status"] == "pass" and row["tolerance"] not in ("exact", "inf"):
            worst = max(worst, float(row["residual"]))
        ok.append(
            result.exit_code == 0
            and row["status"] in GOOD_STATUSES
            and (row["suite"], row["name"]) == (op["suite"], op["name"])
        )
    return Verdict(ok, residuals={"catalog": worst}, statuses=statuses)


def parse_terms(text: str) -> list:
    doc = json.loads(text)
    return [Fraction(t) for t in doc["terms"]]


def _params(op: dict):
    alpha = Fraction(op["alpha"]) if "alpha" in op else None
    beta = Fraction(op["beta"]) if "beta" in op else None
    return alpha, beta


#: transform name -> (inverse transform name, params carry over)
_INVERSES = {
    "binomial": "binomial",
    "modular": "modular-inverse",
    "modular-inverse": "modular",
    "hermite-complementary": "hermite-inverse",
    "hermite-inverse": "hermite-complementary",
}


def _roundtrip_ok(op: dict, terms: list, out: list) -> bool:
    """Exact inverse roundtrip through the library, where an inverse exists."""
    from umbra import seqcore as sq

    inverse = _INVERSES.get(op["name"])
    if inverse is None:
        return True
    alpha, beta = _params(op)
    back = sq.Stage(inverse, alpha=alpha, beta=beta).apply(sq.Sequence.of(out))
    return list(back.terms) == terms


def _verify_transform(ops: list, result: PassResult) -> Verdict:
    """No tolerance: the docstring double sum must match term for term, and
    the inverse must give the input back exactly."""
    ok = []
    for op, text in zip(ops, result.outputs):
        if text is None:
            ok.append(False)
            continue
        try:
            out = parse_terms(text)
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            ok.append(False)
            continue
        terms = [Fraction(t) for t in op["terms"]]
        alpha, beta = _params(op)
        want = oracles.expected(op["name"], terms, alpha, beta, op.get("k"))
        ok.append(out == want and _roundtrip_ok(op, terms, out))
    return Verdict(ok, residuals={"transform": 0.0})


def _verify_operator(ops: list, result: PassResult) -> Verdict:
    """Every row's |value - oracle| must be finite and within the catalog
    tolerance of its equation."""
    ok, residuals = [], {}
    for op, rows in zip(ops, result.outputs):
        if rows is None:
            ok.append(False)
            continue
        diffs = [abs(complex(vr, vi) - complex(orr, oi))
                 for vr, vi, orr, oi in (row for row in rows if not isinstance(row, str))]
        finite = all(math.isfinite(d) for d in diffs)
        worst = max(diffs) if finite else math.inf
        kind = op["kind"]
        ok.append(finite and worst <= TOLERANCE[kind])
        if finite:
            residuals[kind] = max(residuals.get(kind, 0.0), worst)
    return Verdict(ok, residuals=residuals)


# ---------------------------------------------------------------------------
# set-up: the smallest op of each workload, in a fresh interpreter

def smallest_op(workload: str, workdir: str) -> None:
    """Import what the workload calls and finish its smallest op."""
    if workload == "catalog":
        from umbra import checks, cli  # noqa: F401  (cli is what the workload calls)

        (row,) = [c for _, c in checks.resolve_suites("heat") if "zero-time" in c.name]
        if checks.run_check(row).status != "pass":
            raise RuntimeError("set-up row did not pass")
    elif workload == "transform":
        from umbra import cli

        path = os.path.join(workdir, "setup-input.json")
        with open(path, "w") as fh:
            json.dump({"terms": [str(n) for n in range(16)]}, fh)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["transform", path, "--name", "binomial"])
        if code != 0 or parse_terms(buf.getvalue()) != oracles.binomial([Fraction(n) for n in range(16)]):
            raise RuntimeError("set-up transform failed")
    elif workload == "operator-eval":
        from umbra import appell, gftrans  # noqa: F401  (called by the workload's other ops)
        from umbra import opcalc as oc

        value = oc.tricomi_evolution(0.5, 0.5)
        if abs(value - oc.tricomi_evolution_series(0.5, 0.5)) > TOLERANCE["tricomi"]:
            raise RuntimeError("set-up tricomi row failed")
    else:
        raise ValueError(f"unknown workload {workload!r}")
