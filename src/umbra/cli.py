"""Command-line front end: sequence transforms, identity suites, Appell
expansions, and evolution-equation demos with machine-readable output.

Exit codes: 0 success, 1 check failures, and otherwise the `exit_code` of the
`UmbraError` raised (errors.py): 2 input parse errors, 3 invalid parameters,
4 divergence / region / truncation guards.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import seqcore as sq
from .errors import InvalidParameterError, SequenceFormatError, UmbraError, quoted


def _tolerance_text(tolerance: float) -> str:
    """A row's tolerance as both report formats print it."""
    return "exact" if tolerance == 0.0 else f"{tolerance:.1e}"


@dataclass(frozen=True)
class RunReport:
    """One identity-suite run: every check appears exactly once."""

    suite: str
    seed: int
    order: int
    results: tuple

    @property
    def failed(self) -> bool:
        return any(r.failed for _, r in self.results)

    def to_json(self, include_runtime: bool) -> str:
        rows = []
        for suite, r in self.results:
            row = {
                "suite": suite,
                "name": r.name,
                "equation": r.equation,
                "status": r.status,
                "residual": f"{r.residual:.6e}",
                "tolerance": _tolerance_text(r.tolerance),
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
            line = f'{suite},{r.equation},{r.status},{r.residual:.6e},{_tolerance_text(r.tolerance)},"{r.name}"'
            if include_runtime:
                line += f",{r.runtime:.3f}"
            lines.append(line)
        return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameterError(f"cannot write --output {quoted(output)}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        with sq._any_digits():
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"{what} is not a valid rational: {quoted(text)}") from exc


def _parse_float_sized(text: str, flag: str) -> Fraction:
    """An exact flag value that is also used as a float, so must not overflow one.

    Fraction(text) builds 10**exponent first, hours of work for 1e1000000000.
    A nonzero mantissa of L characters lies between 10**-L and 10**L, so an
    exponent past +-(400 + L) is clamped there: the value keeps its side of the
    float range, too large for a float or a signed zero as one.
    """
    exact = text
    tail = re.fullmatch(r"(.*)[eE]([-+]?\d+(?:_\d+)*)\s*", text, re.DOTALL)
    if tail:
        reach = 400 + len(tail[1])
        with sq._any_digits():
            power = int(tail[2])
        if abs(power) > reach:
            exact = f"{tail[1]}e{reach if power > 0 else -reach}"
    try:
        value = _parse_fraction(exact, flag)
    except InvalidParameterError:
        value = _parse_fraction(text, flag)  # no rational either, and Fraction says so before it builds a power
    if abs(value) > sys.float_info.max:
        raise InvalidParameterError(f"{flag} must be small enough for a float, got {quoted(text)}")
    return value


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise InvalidParameterError(f"{flag} must be finite, got {value}")
    return value


def _at_least_one(value: int, flag: str) -> int:
    if value < 1:
        raise InvalidParameterError(f"{flag} must be at least 1, got {value}")
    return value


#: the most points of an `evolve` grid: `--points`, and `--x-count` times `--tau-count`;
#: a larger grid exits 3 before any array is made
MAX_POINTS = 2 ** 20


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
    results = checks.run_selected(args.suite, seed=seed, order=order)
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
            with open(args.taylor_file) as fh, sq._any_digits():
                raw = json.load(fh)
                # as for sequence terms: JSON true/false are not coefficients, and a string is not a list
                if not isinstance(raw, list) or not raw or any(isinstance(c, bool) for c in raw):
                    raise ValueError("the document must be a non-empty list of rationals")
                coeffs = [_parse_fraction(str(c), f"coefficient {i}") for i, c in enumerate(raw)]
        except OSError as exc:
            raise SequenceFormatError(f"cannot read {args.taylor_file}: {exc}") from exc
        except (ValueError, InvalidParameterError) as exc:
            raise SequenceFormatError(f"bad taylor file: {exc}") from exc
        return ap.AppellFamily("user-taylor", coeffs)
    raise InvalidParameterError(f"unknown family {args.family!r}")


def cmd_expand(args) -> int:
    from . import appell as ap
    from . import checks

    _at_least_one(args.count, "--count")
    fam = _build_family(args)
    f = ap.GaussianFunction(_parse_float_sized(args.scale, "--scale"))
    result, coefficients = checks.expansion_sweep(fam, f, args.count)
    lines = ["section,n,value_re,value_im,oracle,abs_diff,nodes"]
    for n, ((c, o, diff), nodes) in enumerate(zip(coefficients, result.node_counts)):
        lines.append(f"coefficient,{n},{c.real:.12e},{c.imag:.12e},{o:.12e},{diff:.3e},{nodes}")
    for x, rec, ref, diff in checks.reconstruction_sweep(fam, result.coefficients, f):
        lines.append(f"reconstruction,{x:.2f},{rec.real:.12e},{rec.imag:.12e},{ref.real:.12e},{diff:.3e},")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_evolve(args) -> int:
    from . import checks

    for flag in ("alpha", "extent", "beta"):
        _finite(getattr(args, flag), f"--{flag}")
    if not 1 <= args.points <= MAX_POINTS:
        raise InvalidParameterError(f"--points must be between 1 and {MAX_POINTS}, got {args.points}")
    for flag in ("x_count", "tau_count"):
        _at_least_one(getattr(args, flag), "--" + flag.replace("_", "-"))
    if args.x_count * args.tau_count > MAX_POINTS:
        raise InvalidParameterError(f"--x-count times --tau-count must be at most {MAX_POINTS}, "
                                    f"got {args.x_count} x {args.tau_count}")
    if args.equation == "heat":
        scale = float(_parse_float_sized(args.scale, "--scale"))
        header = (f"heat evolution: alpha={args.alpha:g} scale={scale:g} "
                  f"extent={args.extent:g} points={args.points}")
        rows = checks.heat_sweep(scale, args.alpha, args.extent, args.points)
    elif args.equation == "tricomi":
        header = f"tricomi evolution on [0,1]^2: {args.x_count} x {args.tau_count} grid"
        rows = checks.tricomi_sweep(args.x_count, args.tau_count)
    else:
        order = checks.c0_truncation(args.m)
        header = (f"integro-differential evolution: m={args.m} beta={args.beta:g} "
                  f"initial=C0 truncation={order} oracle=matrix-exponential(D={order})")
        rows = checks.integro_sweep(args.beta, args.m, args.x_count, args.tau_count)
    lines = [f"# {header}", "x,tau,value,oracle_residual"]
    lines += [f"{x:.6f},{tau:.6f},{value.real:.12e},{residual:.3e}" for x, tau, value, residual in rows]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umbra",
        description="Generalized sequence transforms, operator calculus, and Appell expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_transform = sub.add_parser("transform",
                                 help="apply a sequence transform to an exchange-format file")
    p_transform.add_argument("input", help="path to a JSON document with a 'terms' list of rationals")
    p_transform.add_argument("--name", required=True, choices=sq.TRANSFORM_NAMES)
    p_transform.add_argument("--alpha", help="rational parameter, e.g. 3/4")
    p_transform.add_argument("--beta", help="rational parameter")
    p_transform.add_argument("--k", type=int, help="order of the rising k-binomial transform")
    p_transform.add_argument("--output", help="output path (default stdout)")
    p_transform.set_defaults(func=cmd_transform)

    p_check = sub.add_parser("check", help="run identity suites")
    p_check.add_argument("--suite", default="all", help="suite name, or all; an unknown name lists the suites")
    p_check.add_argument("--format", choices=("json", "csv"), default="json", help="report format (default json)")
    p_check.add_argument("--seed", type=int, help="seed for the randomized property suites")
    p_check.add_argument("--order", type=int, help="series truncation order for the identity suites")
    p_check.add_argument("--output", help="output path (default stdout; files omit runtimes and are byte-stable)")
    p_check.set_defaults(func=cmd_check)

    p_expand = sub.add_parser("expand", help="expand a function in an Appell basis")
    p_expand.add_argument("--family", required=True,
                          choices=("bernoulli", "identity", "gauss-hermite-type", "user-taylor-file"))
    p_expand.add_argument("--taylor-file", help="JSON list of rational Taylor coefficients of A(t)")
    p_expand.add_argument("--scale", default="1", help="gaussian scale s in exp(-s x^2), rational")
    p_expand.add_argument("--count", type=int, required=True, help="highest coefficient order N: rows n = 0..N (max 24)")
    p_expand.add_argument("--output", help="output path (default stdout)")
    p_expand.set_defaults(func=cmd_expand)

    p_evolve = sub.add_parser("evolve", help="run an evolution-equation demo, emitting (x, tau, value) rows")
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
        return args.func(args)
    except UmbraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
