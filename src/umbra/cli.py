"""Command-line front end: sequence transforms, identity suites, Appell
expansions, and evolution-equation demos with machine-readable output.

Exit codes: 0 success, 1 check failures, 2 input parse errors, 3 invalid
parameters, 4 divergence / region / truncation guards.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import seqcore as sq
from .errors import (
    DivergenceError,
    DomainTooSmallError,
    InvalidParameterError,
    SequenceFormatError,
    TruncationError,
    UmbraError,
    UnsupportedSymbolError,
)

EXIT_PARSE = 2
EXIT_PARAMS = 3
EXIT_REGION = 4


@dataclass(frozen=True)
class RunReport:
    """One identity-suite run: every check appears exactly once."""

    suite: str
    seed: int
    order: int
    results: tuple

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for _, r in self.results)

    def to_json(self, include_runtime: bool) -> str:
        rows = []
        for suite, r in self.results:
            row = {
                "suite": suite,
                "name": r.name,
                "equation": r.equation,
                "status": r.status,
                "residual": f"{r.residual:.6e}",
                "tolerance": "exact" if r.tolerance == 0.0 else f"{r.tolerance:.1e}",
                "detail": r.detail,
            }
            if include_runtime:
                row["runtime_s"] = f"{r.runtime:.3f}"
            rows.append(row)
        return json.dumps(
            {"suite": self.suite, "seed": self.seed, "order": self.order,
             "passed": not self.failed, "checks": rows},
            indent=2,
        )

    def to_csv(self, include_runtime: bool) -> str:
        header = "suite,equation,status,residual,tolerance,name"
        if include_runtime:
            header += ",runtime_s"
        lines = [header]
        for suite, r in self.results:
            tol = "exact" if r.tolerance == 0.0 else f"{r.tolerance:.1e}"
            line = f'{suite},{r.equation},{r.status},{r.residual:.6e},{tol},"{r.name}"'
            if include_runtime:
                line += f",{r.runtime:.3f}"
            lines.append(line)
        return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"{what} is not a valid rational: {text!r}") from exc


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise InvalidParameterError(f"{flag} must be finite, got {value}")
    return value


def _at_least_one(value: int, flag: str) -> int:
    if value < 1:
        raise InvalidParameterError(f"{flag} must be at least 1, got {value}")
    return value


def _check_shared_flags(args) -> None:
    """Range checks on the flags every subcommand accepts (argparse errors would exit 2)."""
    if args.tolerance is not None and _finite(args.tolerance, "--tolerance") < 0:
        raise InvalidParameterError(f"--tolerance must be >= 0, got {args.tolerance}")
    if args.order is not None:
        _at_least_one(args.order, "--order")


def cmd_transform(args) -> int:
    try:
        with open(args.input) as fh:
            a = sq.sequence_from_json(fh.read())
    except OSError as exc:
        raise SequenceFormatError(f"cannot read {args.input}: {exc}") from exc
    stage = sq.Stage(
        args.name,
        alpha=_parse_fraction(args.alpha, "--alpha") if args.alpha is not None else None,
        beta=_parse_fraction(args.beta, "--beta") if args.beta is not None else None,
        k=args.k,
    )
    out = stage.apply(a)
    _emit(sq.sequence_to_json(out) + "\n", args.output)
    return 0


def cmd_check(args) -> int:
    from . import checks

    seed = checks.DEFAULT_SEED if args.seed is None else args.seed
    order = checks.DEFAULT_ORDER if args.order is None else args.order
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = checks.run_selected(
            args.suite, seed=seed, order=order, tolerance_override=args.tolerance
        )
    report = RunReport(args.suite, seed, order, tuple(results))
    # runtimes are nondeterministic and stay out of files, keeping outputs byte-stable
    include_runtime = args.output is None
    text = report.to_csv(include_runtime) if args.format == "csv" else report.to_json(include_runtime) + "\n"
    _emit(text, args.output)
    if args.output:
        counts = {}
        for _, r in report.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        sys.stderr.write(f"{len(report.results)} checks: {counts}\n")
    return 1 if report.failed else 0


def _build_family(args):
    from . import appell as ap

    if args.family == "bernoulli":
        return ap.bernoulli_family()
    if args.family == "identity":
        return ap.identity_family()
    if args.family == "gauss-hermite-type":
        return ap.gauss_hermite_family()
    if args.family == "user-taylor-file":
        if not args.taylor_file:
            raise InvalidParameterError("--taylor-file is required for the user-taylor-file family")
        try:
            with open(args.taylor_file) as fh:
                raw = json.load(fh)
            coeffs = [Fraction(str(c)) for c in raw]
        except OSError as exc:
            raise SequenceFormatError(f"cannot read {args.taylor_file}: {exc}") from exc
        except (ValueError, ZeroDivisionError, json.JSONDecodeError) as exc:
            raise SequenceFormatError(f"bad taylor file: {exc}") from exc
        return ap.family_from_taylor(coeffs)
    raise InvalidParameterError(f"unknown family {args.family!r}")


def cmd_expand(args) -> int:
    import numpy as np

    from . import appell as ap

    _at_least_one(args.count, "--count")
    fam = _build_family(args)
    if args.function != "gaussian":
        raise InvalidParameterError(f"unknown function selector {args.function!r}")
    f = ap.GaussianFunction(_parse_fraction(args.scale, "--scale"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = ap.expansion_coefficients(fam, f, args.count)
        oracle = ap.operational_coefficients(fam, f, args.count)
        lines = ["section,n,value_re,value_im,oracle,abs_diff,nodes"]
        for n, (c, o, nodes) in enumerate(zip(result.coefficients, oracle, result.node_counts)):
            c = complex(c)
            lines.append(
                f"coefficient,{n},{c.real:.12e},{c.imag:.12e},{float(o):.12e},"
                f"{abs(c - float(o)):.3e},{nodes}"
            )
        for x in np.linspace(-1.0, 1.0, 21):
            rec = ap.reconstruct(fam, result, float(x))
            ref = complex(f(float(x)))
            lines.append(
                f"reconstruction,{x:.2f},{rec.real:.12e},{rec.imag:.12e},{ref.real:.12e},"
                f"{abs(rec - ref):.3e},"
            )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _evolve_heat(args) -> list[str]:
    import numpy as np

    from . import opcalc as oc

    scale = float(_parse_fraction(args.scale, "--scale"))
    grid = oc.GridFunction.sample(lambda t: np.exp(-scale * t * t), args.extent, args.points)
    evolved = oc.heat_evolve_ft(grid, args.alpha)
    # exact Gaussian widening: variance 1/(2 s) -> 1/(2 s) + 2 alpha
    denom = 1.0 + 4.0 * args.alpha * scale
    amp = 1.0 / np.sqrt(denom)
    reference = amp * np.exp(-scale * grid.xs() ** 2 / denom)
    lines = [f"# heat evolution: alpha={args.alpha:g} scale={scale:g} extent={args.extent:g} points={args.points}"]
    lines.append("x,tau,value,oracle_residual")
    for x, v, ref in zip(grid.xs(), evolved.samples, reference):
        lines.append(f"{x:.6f},{args.alpha:.6f},{v.real:.12e},{abs(v - ref):.3e}")
    return lines


def _evolve_tricomi(args) -> list[str]:
    import numpy as np

    from . import opcalc as oc

    lines = [f"# tricomi evolution on [0,1]^2: {args.x_count} x {args.tau_count} grid"]
    lines.append("x,tau,value,oracle_residual")
    for x in np.linspace(0.0, 1.0, args.x_count):
        for tau in np.linspace(0.0, 1.0, args.tau_count):
            value = oc.tricomi_evolution(float(x), float(tau))
            oracle = oc.tricomi_evolution_series(float(x), float(tau))
            lines.append(f"{x:.6f},{tau:.6f},{value.real:.12e},{abs(value - oracle):.3e}")
    return lines


def _evolve_integro(args) -> list[str]:
    import numpy as np

    from . import gftrans as gf
    from . import opcalc as oc

    order = 40
    f = gf.PowerSeries(oc.c0_series(order), "ordinary")
    f_ord = [float(c) for c in oc.c0_series(order)]
    lines = [
        f"# integro-differential evolution: m={args.m} beta={args.beta:g} "
        f"initial=C0 truncation={order} oracle=matrix-exponential(D={order})"
    ]
    lines.append("x,tau,value,oracle_residual")
    for x in np.linspace(0.0, 0.5, args.x_count):
        for tau in np.linspace(0.0, 0.5, args.tau_count):
            value = oc.integro_diff_evolve(f, args.beta, args.m, float(tau), float(x))
            oracle = oc.integro_matrix_oracle(f_ord, args.beta, args.m, float(tau), float(x), order)
            lines.append(f"{x:.6f},{tau:.6f},{value.real:.12e},{abs(value - oracle):.3e}")
    return lines


def cmd_evolve(args) -> int:
    for flag in ("alpha", "extent", "beta"):
        _finite(getattr(args, flag), f"--{flag}")
    for flag in ("points", "x_count", "tau_count"):
        _at_least_one(getattr(args, flag), "--" + flag.replace("_", "-"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if args.equation == "heat":
            lines = _evolve_heat(args)
        elif args.equation == "tricomi":
            lines = _evolve_tricomi(args)
        else:
            lines = _evolve_integro(args)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umbra",
        description="Generalized sequence transforms, operator calculus, and Appell expansions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format for the check command (default json)")
    common.add_argument("--seed", type=int,
                        help="seed for the randomized property suites")
    common.add_argument("--order", type=int,
                        help="series truncation order for the identity suites")
    common.add_argument("--tolerance", type=float, default=None,
                        help="override the tolerance of every non-exact check")
    sub = parser.add_subparsers(dest="command", required=True)

    p_transform = sub.add_parser("transform", parents=[common],
                                 help="apply a sequence transform to an exchange-format file")
    p_transform.add_argument("input", help="path to a JSON document with a 'terms' list of rationals")
    p_transform.add_argument("--name", required=True, choices=sq.TRANSFORM_NAMES)
    p_transform.add_argument("--alpha", help="rational parameter, e.g. 3/4")
    p_transform.add_argument("--beta", help="rational parameter")
    p_transform.add_argument("--k", type=int, help="order of the rising k-binomial transform")
    p_transform.add_argument("--output", help="output path (default stdout)")
    p_transform.set_defaults(func=cmd_transform)

    p_check = sub.add_parser("check", parents=[common], help="run identity suites")
    p_check.add_argument("--suite", default="all", help="suite name, or all; an unknown name lists the suites")
    p_check.add_argument("--output", help="output path (default stdout; files omit runtimes and are byte-stable)")
    p_check.set_defaults(func=cmd_check)

    p_expand = sub.add_parser("expand", parents=[common], help="expand a function in an Appell basis")
    p_expand.add_argument("--family", required=True,
                          choices=("bernoulli", "identity", "gauss-hermite-type", "user-taylor-file"))
    p_expand.add_argument("--taylor-file", help="JSON list of rational Taylor coefficients of A(t)")
    p_expand.add_argument("--function", default="gaussian", help="function selector (gaussian)")
    p_expand.add_argument("--scale", default="1", help="gaussian scale s in exp(-s x^2), rational")
    p_expand.add_argument("--count", type=int, required=True, help="number of coefficients (max 24)")
    p_expand.add_argument("--output", help="output path (default stdout)")
    p_expand.set_defaults(func=cmd_expand)

    p_evolve = sub.add_parser("evolve", parents=[common], help="run an evolution-equation demo, emitting (x, tau, value) rows")
    p_evolve.add_argument("--equation", required=True, choices=("heat", "tricomi", "integro-diff"))
    p_evolve.add_argument("--alpha", type=float, default=0.5, help="heat: evolution time")
    p_evolve.add_argument("--scale", default="1/2", help="heat: initial Gaussian scale, rational")
    p_evolve.add_argument("--extent", type=float, default=16.0, help="heat: grid half-width")
    p_evolve.add_argument("--points", type=int, default=1024, help="heat: grid size (power of two)")
    p_evolve.add_argument("--beta", type=float, default=0.5, help="integro-diff: integral-term weight")
    p_evolve.add_argument("--m", type=int, default=2, help="integro-diff: even operator exponent")
    p_evolve.add_argument("--x-count", type=int, default=6, help="grid points in x")
    p_evolve.add_argument("--tau-count", type=int, default=6, help="grid points in tau")
    p_evolve.add_argument("--output", help="output path (default stdout)")
    p_evolve.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_shared_flags(args)
        return args.func(args)
    except SequenceFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (InvalidParameterError, UnsupportedSymbolError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARAMS
    except (DivergenceError, TruncationError, DomainTooSmallError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_REGION
    except UmbraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
