"""Machine-verifiable identity catalog.

Every closed-form identity in the library is registered here as a check:
a measured residual, a tolerance (or exactness), and a status.  Checks whose
printed source constants disagree with the oracle-derived ones carry status
'flagged-errata': the catalog documents those discrepancies, it never patches
them silently.  Each printed variant is built here, in its errata row; the
library computes only the derived forms.  An errata row whose discrepancy
falls below ERRATA_FLOOR is 'stale-errata', a failure.  The identities
themselves live here too: each residual, gap and truncation-tail budget is
stated in its row or in a private helper beside it, never as a library call.
The CLI `check` command and the acceptance suite both run off this registry.

Each function of an operator that the CLI demonstrates (Eqs. 40, 55, 61, 64
and 86) is paired with its oracle once, in a sweep below: its route, oracle,
grid and truncation.  `evolve` and `expand` print a sweep row by row; the
catalog row takes its worst residual through `_worst`, as every row that
reduces many residuals does, so a NaN anywhere in a sweep fails its row.
"""
from __future__ import annotations

import cmath
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, factorial, inf, isfinite, lcm, lgamma, log, perm, pi, sqrt
from typing import Callable

import numpy as np

from . import appell as ap
from . import gftrans as gf
from . import opcalc as oc
from . import seqcore as sq
from . import specfun as sf
from .errors import DivergenceError, InvalidParameterError, UmbraError, UnsupportedSymbolError, quoted
from .opcalc.formal import exp_apply
from .opcalc.fourier import INTEGRO_CUTOFFS, INTEGRO_M2_DEGREE, INTEGRO_REGION, integro_series_degree
from .opcalc.operators import apply_operator, coefficients, polynomial
from .opcalc.quadrature import _SQRT2PI

DEFAULT_SEED = 20100601
DEFAULT_ORDER = 64
#: largest order every suite is verified to pass at (float conversions overflow from 266)
MAX_ORDER = 256
#: an errata row measuring less than this (or NaN) no longer shows its misprint;
#: above every pass-row tolerance (1e-6), below every discrepancy (Eq. 33, 9.4e-3)
ERRATA_FLOOR = 1e-3


@dataclass(frozen=True)
class Outcome:
    residual: float
    detail: str = ""
    # set only where the verdict is not residual <= tolerance: a master row's
    # budget breach, and the Eq. 61 row's monotone decrease (tolerance inf)
    passed: bool | None = None


@dataclass(frozen=True)
class Check:
    name: str
    equation: str
    tolerance: float  # 0.0 means exact
    run: Callable[[], Outcome]
    errata: bool = False


@dataclass(frozen=True)
class CheckResult:
    name: str
    equation: str
    status: str  # pass | fail | error | flagged-errata | stale-errata
    residual: float
    tolerance: float
    runtime: float
    detail: str = ""

    @property
    def failed(self) -> bool:
        """Whether the row fails its run: fail, error and stale-errata do; pass and flagged-errata do not."""
        return self.status in ("fail", "error", "stale-errata")


def run_check(check: Check) -> CheckResult:
    """Run one check; an exception inside it becomes an `error` row, not a lost report."""
    start = time.perf_counter()
    try:
        outcome = check.run()
    except Exception as exc:  # one broken check must not hide the rest of the catalog
        return CheckResult(check.name, check.equation, "error", float("nan"), check.tolerance,
                           time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if check.errata:
        status = "flagged-errata" if outcome.residual >= ERRATA_FLOOR else "stale-errata"
    elif outcome.passed is not None:
        status = "pass" if outcome.passed else "fail"
    else:
        status = "pass" if outcome.residual <= check.tolerance else "fail"
    return CheckResult(
        check.name, check.equation, status, float(outcome.residual),
        check.tolerance, elapsed, outcome.detail,
    )


def _worst(residuals) -> float:
    """The largest of the residuals, or NaN if any is NaN (np.max propagates it)."""
    return float(np.max(np.fromiter(residuals, float), initial=0.0))


# ---------------------------------------------------------------------------
# route-vs-oracle sweeps, printed row by row by the CLI's evolve and expand

def _grid_points(end: float, x_count: int, tau_count: int) -> list[tuple[float, float]]:
    """The (x, tau) points of the grid [0, end]^2, x-major."""
    taus = [float(tau) for tau in np.linspace(0.0, end, tau_count)]
    return [(float(x), tau) for x in np.linspace(0.0, end, x_count) for tau in taus]


def tricomi_sweep(x_count: int, tau_count: int) -> list[tuple]:
    """Eq. 55 on [0, 1]^2, (x, tau, value, |value - oracle|) x-major: the
    quadrature solution, its points stacked by tau, against the series solution."""
    points = _grid_points(1.0, x_count, tau_count)
    return [(x, tau, value, abs(value - oc.tricomi_evolution_series(x, tau)))
            for (x, tau), value in zip(points, oc.tricomi_evolution_points(points), strict=True)]


def c0_truncation(m: int) -> int:
    """Degree of the Eq. 86 sweep's C_0 series: m >= 4 may integrate out to the
    route's widest cutoff, and takes the degree the route needs there."""
    return INTEGRO_M2_DEGREE if m == 2 else integro_series_degree(INTEGRO_CUTOFFS[-1])


def integro_sweep(beta: float, m: int, x_count: int, tau_count: int) -> list[tuple]:
    """Eq. 86 on [0, INTEGRO_REGION]^2 from C_0, rows as in tricomi_sweep: the
    Fourier route, its points grouped by tau, against the matrix exponential at
    the same degree cap."""
    order = c0_truncation(m)
    f = gf.PowerSeries(oc.c0_series(order), "ordinary")
    points = _grid_points(INTEGRO_REGION, x_count, tau_count)
    try:
        values = oc.integro_diff_evolve_points(f, beta, m, points)
    except UmbraError:
        values = None  # the route rejects a point; the oracle may reject an earlier one
    rows = []
    for i, (x, tau) in enumerate(points):
        # after a rejection, route then oracle point by point: the first rejection raises
        value = oc.integro_diff_evolve(f, beta, m, tau, x) if values is None else values[i]
        oracle = oc.integro_matrix_oracle(f.complex_coeffs, beta, m, tau, x, order)
        rows.append((x, tau, value, abs(value - oracle)))
    return rows


def heat_sweep(scale: float, alpha: float, extent: float, points: int) -> list[tuple]:
    """Eq. 40: (x, alpha, value, |value - exact|) of the FFT heat route on e^{-scale x^2};
    the exact solution widens the variance 1/(2 scale) to 1/(2 scale) + 2 alpha."""
    denom = 1.0 + 4.0 * alpha * scale
    if not isfinite(denom):
        raise InvalidParameterError(f"scale {scale:g} at alpha {alpha:g}: the widened variance overflows")
    xs = oc.GridFunction(np.zeros(points), extent).xs()
    # x is clipped where x^2 or scale x^2 nears the float range: the Gaussian is 0 there (scale > 1e-304)
    reach = 2.0 ** 511 / sqrt(max(scale, 1.0))
    near = np.clip(xs, -reach, reach)
    evolved = oc.heat_evolve_ft(oc.GridFunction(np.exp(-scale * near * near), extent), alpha)
    exact = 1.0 / np.sqrt(denom) * np.exp(-scale * near ** 2 / denom)
    return [(x, alpha, v, abs(v - e)) for x, v, e in zip(xs, evolved.samples, exact, strict=True)]


def expansion_sweep(fam: ap.AppellFamily, f: ap.GaussianFunction, count: int) -> tuple:
    """Eq. 64: (quadrature result, [(coefficient, oracle, |coefficient - oracle|)]).

    The oracle is the operational series, except for the gauss-hermite-type
    family: its series diverges from scale 3/16 on, so it is held to the
    Eq. 40 widening law instead.  An exact oracle coefficient past the float
    range raises DivergenceError, naming the lowest such order, before the quadrature.
    """
    ap.require_capped(count)
    oracle = (ap.widening_coefficients(f, count) if fam is ap.gauss_hermite_family()
              else ap.operational_coefficients(fam, f, count))
    for n, o in enumerate(oracle):
        if abs(o) > sys.float_info.max:
            raise DivergenceError(f"oracle coefficient n={n} is past the float range: "
                                  f"the expansion of family {fam.name!r} diverges at this scale")
    result = ap.expansion_coefficients(fam, f, count)
    pairs = [(complex(c), float(o)) for c, o in zip(result.coefficients, oracle, strict=True)]
    return result, [(c, o, abs(c - o)) for c, o in pairs]


def reconstruction_sweep(fam: ap.AppellFamily, coefficients, f: ap.GaussianFunction) -> list[tuple]:
    """Eq. 61: (x, partial sum, f(x), |partial sum - f(x)|) on 21 points of [-1, 1]."""
    xs = [float(x) for x in np.linspace(-1.0, 1.0, 21)]
    alphas = [complex(alpha) for alpha in coefficients]
    rows = []
    for x, rec in zip(xs, ap.appell_sums(fam, [(alphas, x) for x in xs]), strict=True):
        ref = complex(f(x))
        rows.append((x, rec, ref, abs(rec - ref)))
    return rows


# ---------------------------------------------------------------------------
# random exact sequences

def random_sequence(rng: random.Random, max_len: int = 32, bound: int = 10 ** 6) -> sq.Sequence:
    n = rng.randint(1, max_len)
    return sq.Sequence.of(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n)
    )


def nonzero_rational(rng: random.Random, bound: int = 100) -> Fraction:
    num = rng.randint(1, bound) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, bound))


# ---------------------------------------------------------------------------
# master property: closed generating forms vs direct series of the exact
# transform, within rigorous truncation budgets and a 1e-10 relative gate

MASTER_RELATIVE = 1e-10
#: rounding allowance per point: ~65-term float summations on both sides
_FLOAT_SLACK = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class TestSequence:
    label: str
    terms: Callable[[int], Fraction]
    growth_M: Fraction
    growth_rho: Fraction

    def build(self, order: int) -> sq.Sequence:
        return sq.Sequence.of(self.terms(n) for n in range(order + 1))

    def majorant(self, order: int) -> sq.Sequence:
        return sq.Sequence.of(self.growth_M * self.growth_rho ** n for n in range(order + 1))


MASTER_SEQUENCES = (
    TestSequence("ones", lambda n: Fraction(1), Fraction(1), Fraction(1)),
    TestSequence("linear", lambda n: Fraction(n), Fraction(33, 20), Fraction(5, 4)),
    TestSequence("geometric-2", lambda n: Fraction(2) ** n, Fraction(1), Fraction(2)),
    TestSequence("alternating-half", lambda n: Fraction(-1, 2) ** n, Fraction(1), Fraction(1, 2)),
    TestSequence("harmonic", lambda n: Fraction(1, n + 1), Fraction(1), Fraction(1)),
)

K_BINOMIAL_SEQUENCES = MASTER_SEQUENCES[:3]  # ones, linear, 2^n-scaled


def sample_points(radius: float) -> list[complex]:
    outer = [radius * cmath.exp(2j * pi * j / 12) for j in range(12)]
    inner = [0.5 * radius * cmath.exp(2j * pi * (j + 0.5) / 8) for j in range(8)]
    return outer + inner


_LOG_FLOAT_MAX = log(sys.float_info.max)


def _power_over_factorial(s: float, n: int) -> float:
    """s^n / n! for s >= 0, in log space so that no order overflows a float."""
    if s == 0.0:
        return 0.0 ** n
    log_value = n * log(s) - lgamma(n + 1)
    return exp(log_value) if log_value < _LOG_FLOAT_MAX else inf


def _exponential_tail(M: float, rho: float, xabs: float, first_omitted: int) -> float:
    """Tail of sum_{n >= fo} M (rho |x|)^n / n! bounded by the shifted exponential."""
    s = rho * xabs
    return M * _power_over_factorial(s, first_omitted) * exp(s)


def _derivative_tail_ordinary(M: float, rho: float, r: int, uabs: float, first_omitted: int) -> float:
    """Truncation tail of the r-th derivative of an ordinary series with |c_n| <= M rho^n.

    f^(r)(u) = sum_n c_{n+r} (n+r)!/n! u^n, so with s = rho |u| and N = fo + r
    the majorant's tail is M rho^r sum_{n >= fo} (n+r)!/n! s^n = M rho^r
    d^r/ds^r [s^N / (1-s)], by Leibniz
    sum_{i <= r} C(r,i) N!/(N-i)! s^{N-i} (r-i)!/(1-s)^{r-i+1}: r + 1 positive
    terms, whatever the order; at r = 0 the geometric tail s^fo/(1-s).  Their
    common factor s^fo is applied last, in two halves, so a tail in the normal
    range never passes through a subnormal power.
    """
    s = rho * uabs
    if s >= 1.0:
        return float("inf")
    top = first_omitted + r
    inner = sum(comb(r, i) * perm(top, i) * factorial(r - i) * s ** (r - i) / (1 - s) ** (r - i + 1)
                for i in range(r + 1))
    half = first_omitted // 2
    return M * rho ** r * inner * s ** half * s ** (first_omitted - half)


def _partial_weighted(terms, r: float, kind: str) -> float:
    """sum_n |b_n| r^n (over n! for the exponential kind), b_n exact or float."""
    total = 0.0
    for n, t in enumerate(terms):
        w = _power_over_factorial(r, n) if kind == "exponential" else r ** n
        total += abs(float(t)) * w
    return total


def _bessel_total(u: float) -> float:
    # sum u^r / (r!)^2 for u >= 0, i.e. C_0(-u)
    return float(np.real(sf.tricomi_c(0, -u)))


def _majorant_tail(series: str, M: float, rho: float, r: int, u: float, first_omitted: int) -> float:
    """Tail from first_omitted of S^(r) at u >= 0 when |a_n| <= M rho^n."""
    if series == "ordinary":
        return _derivative_tail_ordinary(M, rho, r, u, first_omitted)
    if series == "exponential":
        return rho ** r * _exponential_tail(M, rho, u, first_omitted)
    # (n!)^2 >= (first_omitted!)^2 ((n - first_omitted)!)^2
    return M * _power_over_factorial(sqrt(rho * u), first_omitted) ** 2 * _bessel_total(rho * u)


def _majorant_total(series: str, M: float, rho: float, r: int, u: float) -> float:
    """S^(r)(u) for a_n = M rho^n: M/(1 - rho u), M e^{rho u} or M C_0(-rho u), differentiated r times."""
    s = rho * u
    if series == "ordinary":
        return M * rho ** r * factorial(r) / (1 - s) ** (r + 1)
    if series == "exponential":
        return M * rho ** r * exp(s)
    return M * _bessel_total(s)


@dataclass(frozen=True)
class MasterCase:
    """One transform kind: exact transform, its closed form, the sample points' radius and its test sequences.

    Both budgets read the form's terms at |x|, with the majorant |a_n| <= M rho^n;
    the radius, too, reads a test sequence's majorant only.
    """

    label: str
    equation: str
    transform: Callable[[sq.Sequence], sq.Sequence]
    form: gf.Form
    radius: Callable[[TestSequence], float]
    transform_majorant: Callable[[sq.Sequence], sq.Sequence] | None = None
    sequences: tuple[TestSequence, ...] = MASTER_SEQUENCES

    def closed_tail(self, ts: TestSequence, xa: float, order: int) -> float:
        """What truncating a after `order` can omit from the closed form at |x| = xa."""
        M, rho = float(ts.growth_M), float(ts.growth_rho)
        total = 0.0
        for t in self.form.terms:
            total += abs(t.scale(xa)) * _majorant_tail(t.series, M, rho, t.r, abs(t.argument(xa)), order + 1 - t.r)
        return total

    def direct_total(self, ts: TestSequence, r: float) -> float:
        """Bound on sum_n |b_n| r^n (over n! for the exponential kind), b the transformed majorant."""
        M, rho = float(ts.growth_M), float(ts.growth_rho)
        return sum(abs(t.scale(r)) * _majorant_total(t.series, M, rho, t.r, abs(t.argument(r)))
                   for t in self.form.terms)


#: (alpha, beta) of the modular (ordinary, exponential), Hermite and Laguerre cases
_MODULAR_ORDINARY = sq.TransformParams(Fraction(3, 4), Fraction(1, 2))
_MODULAR_EXPONENTIAL = sq.TransformParams(2, 1)
_HERMITE = sq.TransformParams(1, Fraction(1, 2))
_LAGUERRE = sq.TransformParams(1, Fraction(1, 2))
#: alpha = beta = 1: the binomial transform is the modular one here, and the Laguerre specials sit here
_UNIT = sq.TransformParams(1, 1)


def _modular_radius(p: sq.TransformParams) -> Callable[[TestSequence], float]:
    al, be = float(p.alpha), float(p.beta)

    def radius(ts):
        rho = float(ts.growth_rho)
        return min(0.45, 0.52 / (al + rho * be), 0.54 / (rho * be + 0.54 * al), 0.55 / al)

    return radius


def _k_binomial_cases(k: int) -> tuple[MasterCase, MasterCase]:
    """The ordinary and exponential cases of one k; both hold one transform and one majorant transform."""
    def transform(a: sq.Sequence) -> sq.Sequence:
        return sq.rising_k_binomial(a, k)

    def abs_k_transform(a: sq.Sequence) -> sq.Sequence:
        # sign-free majorant sum_s C(n,s) s^k a_s: the EGF product of e^x and (s^k a_s)
        return sq._egf_product([1] * len(a), [s ** k * a[s] for s in range(len(a))])

    def case(kind, equation, radius):
        return MasterCase(f"rising {k}-binomial, {kind} closed form", equation, transform,
                          gf.k_binomial_form(k, kind), radius, abs_k_transform, K_BINOMIAL_SEQUENCES)

    # the ordinary radius keeps t = rho r/(1-r) <= 0.5
    return (case("ordinary", "Eq. 21", lambda ts: 0.5 / (float(ts.growth_rho) + 0.5)),
            case("exponential", "Eq. 22", lambda ts: 0.4))


def master_cases() -> list[MasterCase]:
    def modular(p, kind, radius):
        return MasterCase(f"modular transform, {kind} closed form", "Eq. 13", lambda a: sq.modular_transform(a, p),
                          gf.modular_form(p, kind), radius)

    def laguerre(a: sq.Sequence) -> sq.Sequence:
        return sq.laguerre_transform_seq(a, _LAGUERRE)

    # the binomial and the Laguerre pairs hold one transform each
    return [
        MasterCase("binomial transform, ordinary closed form", "Eq. 9", sq.binomial_transform,
                   gf.modular_form(_UNIT, "ordinary"), _modular_radius(_UNIT)),
        MasterCase("binomial transform, exponential closed form", "Eq. 10", sq.binomial_transform,
                   gf.modular_form(_UNIT, "exponential"), lambda ts: 0.45),
        modular(_MODULAR_ORDINARY, "ordinary", _modular_radius(_MODULAR_ORDINARY)),
        modular(_MODULAR_EXPONENTIAL, "exponential", lambda ts: 0.45),
        MasterCase("hermite transform (standard), closed form", "Eq. 27",
                   lambda a: sq.hermite_transform_seq(a, _HERMITE), gf.hermite_form(_HERMITE, "standard"),
                   lambda ts: 0.45),
        MasterCase("hermite transform (complementary), closed form", "Eq. 29",
                   lambda a: sq.hermite_complementary_seq(a, _HERMITE), gf.hermite_form(_HERMITE, "complementary"),
                   lambda ts: 0.45),
        MasterCase("laguerre transform, ordinary closed form", "Eq. 35", laguerre,
                   gf.laguerre_form(_LAGUERRE, "ordinary"), lambda ts: 0.45),
        MasterCase("laguerre transform, exponential closed form", "Eq. 35", laguerre,
                   gf.laguerre_form(_LAGUERRE, "exponential"), lambda ts: 0.45),
    ]


def _shared(table: dict, key, compute: Callable):
    """table[key], computed on first use: the exact work that rows of one
    `build_suites` run share, in a table that lives as long as its suites."""
    if key not in table:
        table[key] = compute()
    return table[key]


def _budget_side(case: MasterCase, ts: TestSequence, order: int, shared: dict) -> tuple:
    """(sample points, direct total, direct budget, closed tail as a function of |x|)
    for the majorant |a_n| <= M rho^n of ts: nothing here reads a itself.  The
    closed tail is taken once per |x| and kept as long as the returned function;
    the transformed majorant's |b_n| once per run and transform."""
    r = case.radius(ts)
    direct_total = case.direct_total(ts, r)
    # majorant transforms may need a sign-free variant (k-binomial)
    transform = case.transform_majorant or case.transform
    growth = (ts.growth_M, ts.growth_rho, order)

    def magnitudes() -> tuple:
        majorant = _shared(shared, ("majorant", growth), lambda: ts.majorant(order))
        return tuple(abs(float(t)) for t in transform(majorant).terms)

    kept = _partial_weighted(_shared(shared, ("transformed majorant", transform, growth), magnitudes), r,
                             case.form.kind)
    budget_direct = max(direct_total - kept, 0.0)
    tails = {}

    def closed_tail(xa: float) -> float:
        if xa not in tails:
            tails[xa] = case.closed_tail(ts, xa, order)
        return tails[xa]

    return sample_points(r), direct_total, budget_direct, closed_tail


def run_master_case(case: MasterCase, order: int = DEFAULT_ORDER, shared: dict | None = None) -> Outcome:
    """The row of one case.  A run's rows pass one `shared` table, so a pair of
    cases holding the same transform (ordinary and exponential forms) builds each
    test sequence and takes each transform once; alone, a case fills its own."""
    shared = {} if shared is None else shared
    # one budget side per distinct majorant: "ones" and "harmonic" share (1, 1)
    sides = {}
    worst_rel, detail = 0.0, ""
    for ts in case.sequences:
        key = (ts.growth_M, ts.growth_rho)
        if key not in sides:
            sides[key] = _budget_side(case, ts, order, shared)
        points, direct_total, budget_direct, closed_tail = sides[key]
        a = _shared(shared, ("sequence", ts, order), lambda: ts.build(order))
        closed = case.form.bind(a)
        coeffs = _shared(shared, ("transform", case.transform, ts, order),
                         lambda: tuple(map(complex, case.transform(a).terms)))
        direct = gf.coefficient_series(coeffs, case.form.kind)
        for x in points:
            closed_value = closed(x)
            direct_value = direct(x)
            diff = abs(closed_value - direct_value)
            budget = (
                closed_tail(abs(x))
                + budget_direct
                + _FLOAT_SLACK * (abs(closed_value) + direct_total + 1.0)
            )
            if not diff <= budget:  # a NaN value fails too
                return Outcome(
                    diff,
                    f"{ts.label} at x={x:.3g}: diff {diff:.2e} above budget {budget:.2e}",
                    passed=False,
                )
            rel = diff / max(1.0, abs(closed_value))
            if rel > worst_rel:
                worst_rel, detail = rel, f"worst: {ts.label} at x={x:.3g}"
    return Outcome(worst_rel, detail)


# ---------------------------------------------------------------------------
# individual checks

def _chk_involution(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(200):
        a = random_sequence(rng)
        if sq.binomial_transform(sq.binomial_transform(a)).terms != a.terms:
            return Outcome(1.0, f"failed on {a.terms[:4]}...")
    return Outcome(0.0, "200 random sequences, exact")


def _chk_gf_involution() -> Outcome:
    # x -> -x/(1-x) composed with its prefactor 1/(1-x) is an exact involution:
    # the closed form applied twice must give back f(x) to rounding
    a = MASTER_SEQUENCES[4].build(DEFAULT_ORDER)
    once, direct = gf.modular_form(_UNIT, "ordinary").bind(a), gf.sequence_series(a, "ordinary")
    return Outcome(_worst(abs(once(-x / (1 - x)) / (1 - x) - direct(x)) for x in sample_points(0.3)))


def _chk_modular_roundtrip(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(200):
        a = random_sequence(rng)
        p = sq.TransformParams(nonzero_rational(rng), nonzero_rational(rng))
        if sq.modular_inverse(sq.modular_transform(a, p), p).terms != a.terms:
            return Outcome(1.0, f"failed with {p}")
    return Outcome(0.0, "200 random (a, alpha, beta != 0), exact")


def _chk_modular_inverse_relation(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(50):
        b = random_sequence(rng, max_len=16, bound=1000)
        alpha, beta = nonzero_rational(rng), nonzero_rational(rng)
        left = sq.modular_inverse(b, sq.TransformParams(alpha, beta))
        right = sq.modular_transform(b, sq.TransformParams(alpha, 1))
        for n in range(len(b)):
            if left[n] != beta ** -n * right[n]:
                return Outcome(1.0, "scaled-transform relation broke")
    return Outcome(0.0, "beta^-n scaling relation, exact")


def _chk_k_zero_reduction(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(50):
        a = random_sequence(rng, max_len=24, bound=1000)
        if sq.rising_k_binomial(a, 0).terms != sq.binomial_transform(a).terms:
            return Outcome(1.0, "k=0 does not reduce")
    return Outcome(0.0, "k = 0 reduces to the plain transform, exact")


def _chk_hermite_roundtrip(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(200):
        a = random_sequence(rng)
        alpha = nonzero_rational(rng)
        p = sq.TransformParams(alpha, nonzero_rational(rng))
        if sq.hermite_inverse_seq(sq.hermite_complementary_seq(a, p), p).terms != a.terms:
            return Outcome(1.0, f"failed with {p}")
    return Outcome(0.0, "inverse after complementary transform, 200 random, exact")


def _chk_hermite_addition(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(0, 10)
        x, y, z = vals = [nonzero_rational(rng, 8) for _ in range(3)]
        # sum_s C(n,s) x^s H_{n-s}(y,z) = H_n(x+y, z)
        lhs = sum(comb(n, s) * x ** s * sf.hermite2(n - s, y, z) for s in range(n + 1))
        if lhs != sf.hermite2(n, x + y, z):
            return Outcome(1.0, f"n={n}, args={vals}")
    return Outcome(0.0, "addition theorem, exact over random rationals")


def _chk_derived_composite(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(40):
        a = random_sequence(rng, max_len=12, bound=100)
        alpha, beta, gamma, delta = [nonzero_rational(rng, 6) for _ in range(4)]
        # B(alpha, beta) after H(gamma, delta) is the single H(alpha - beta gamma, beta^2 delta)
        sequential = sq.modular_transform(sq.hermite_transform_seq(a, sq.TransformParams(gamma, delta)),
                                          sq.TransformParams(alpha, beta))
        closed = sq.hermite_transform_seq(a, sq.TransformParams(alpha - beta * gamma, beta ** 2 * delta))
        if sequential.terms != closed.terms:
            return Outcome(1.0, "derived composite closed form broke")
    return Outcome(0.0, "B(a,b) after H(g,d) = H(a-bg, b^2 d), exact")


def _chk_stirling_operator_identity(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(30):
        deg = rng.randint(0, 8)
        poly = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(deg + 1)]
        n = rng.randint(0, 6)
        # (t d/dt)^n termwise: c_j -> j^n c_j
        lhs = [c * (j ** n if j or n == 0 else 0) for j, c in enumerate(poly)]
        rhs = [Fraction(0)] * (deg + 1)
        for k in range(n + 1):
            s2 = sf.stirling2(k, n)
            if s2 == 0:
                continue
            for j in range(k, deg + 1):
                rhs[j] += s2 * (factorial(j) // factorial(j - k)) * poly[j]
        if lhs != rhs:
            return Outcome(1.0, f"operator identity broke at n={n}")
    return Outcome(0.0, "(t d/dt)^n = sum S2(k,n) t^k d^k, exact on polynomials")


def _chk_stirling_table() -> Outcome:
    # x^n = sum_k S2(k, n) x(x-1)...(x-k+1); perm(x, k) is that falling factorial
    for n in range(11):
        for x in range(12):
            if x ** n != sum(sf.stirling2(k, n) * perm(x, k) for k in range(n + 1)):
                return Outcome(1.0, f"Stirling row {n} fails the power identity at x={x}")
    return Outcome(0.0, "power-to-falling-factorial identity holds through n=10")


#: nodes of the 64-point trapezoid rule on [0, pi]; the integrand's two equal
#: end values count once, so every node weighs 1/64
_J0_ANGLES = np.pi * np.arange(64) / 64


def _bessel_j0(z: float) -> float:
    """J_0(z) = (1/pi) integral_0^pi cos(z sin theta) d theta by the trapezoid rule.

    The integrand is smooth and pi-periodic, so the rule converges
    geometrically; with 64 points its error is far below rounding for |z| <= 20.
    """
    return float(np.mean(np.cos(z * np.sin(_J0_ANGLES))))


def _chk_laguerre_special(kind: str, special: Callable[[float], float], detail: str) -> Outcome:
    closed = gf.laguerre_form(_UNIT, kind).bind(MASTER_SEQUENCES[0].build(DEFAULT_ORDER))
    xs = np.linspace(0.0, 0.5, 11)
    worst = _worst(abs(closed(complex(x)) - special(x)) for x in xs)
    return Outcome(worst, f"{detail} on [0, 0.5]")


#: widths y of the Gaussian symbol e^{-y u^2} in the shift-transform rows
_SHIFT_WIDTHS = (Fraction(1, 10), Fraction(1, 2), Fraction(2))


def _chk_hermite_integral_representation() -> Outcome:
    for n in range(11):
        for y in _SHIFT_WIDTHS:
            if oc.gaussian_shift_transform((0,) * n + (1,), y) != sf.hermite2_coeffs(n, -y):
                return Outcome(1.0, f"shift transform of u^{n} is not H_{n}(x, -{y})")
    return Outcome(0.0, "Gaussian-symbol shift transform of u^n = H_n(x, -y), n <= 10, exact")


def _chk_monomial_representation() -> Outcome:
    for n in range(11):
        for y in _SHIFT_WIDTHS:
            if oc.gaussian_shift_transform(sf.hermite2_coeffs(n, y), y) != (0,) * n + (1,):
                return Outcome(1.0, f"shift transform of H_{n}(x, {y}) is not x^{n}")
    return Outcome(0.0, "shift transform of H_n(x, y) = x^n, n <= 10, exact")


def _chk_tricomi_evolution() -> Outcome:
    return Outcome(_worst(r for *_, r in tricomi_sweep(11, 11)), "11x11 grid on [0,1]^2 vs series solution")


def _chk_tricomi_spot() -> Outcome:
    got = oc.tricomi_evolution(1.0, 1.0)
    return Outcome(abs(got - oc.tricomi_evolution_series(1.0, 1.0)), "F(1,1) vs series solution")


def _chk_exp_negD_coefficients() -> Outcome:
    got = oc.exp_negD(Fraction(1), (Fraction(1),) + (Fraction(0),) * 20)
    if got != oc.c0_series(20):
        return Outcome(1.0, "series of e^{-D^{-1}} 1 is not C_0")
    return Outcome(0.0, "e^{-D^{-1}} 1 = C_0(x), exact coefficients")


#: the disentanglement identities are checked on every monomial x^n up to these degrees
_WEYL_MAX_DEGREE = 8
_CUBIC_MAX_DEGREE = 6


def _product_residual(lhs: list[list[oc.OperatorTerm]], rhs: list[list[oc.OperatorTerm]],
                      order: int, max_degree: int) -> Fraction:
    """Largest |coefficient| of lhs - rhs on x^n, n <= max_degree; a side lists its e^{sum} factors."""
    worst = Fraction(0)
    for degree in range(max_degree + 1):
        sides = []
        for product in (lhs, rhs):
            state = {(0, degree): Fraction(1)}
            for exponent in reversed(product):  # the rightmost factor acts first
                state = exp_apply(exponent, state, order)
            sides.append(state)
        left, right = sides
        for key in left.keys() | right.keys():
            worst = max(worst, abs(left.get(key, 0) - right.get(key, 0)))
    return worst


def _weyl_check(a, b, order: int = 8) -> Fraction:
    """Residual of e^{A+B} = e^A e^B e^{-[A,B]/2} for A = eps a d/dx, B = eps b x.

    [A, B] = eps^2 a b is central, so the residual must vanish identically;
    returns the largest coefficient of lhs - rhs over monomials up to
    _WEYL_MAX_DEGREE, exactly.
    """
    a, b = Fraction(a), Fraction(b)
    A = oc.OperatorTerm(1, a, "d")
    B = oc.OperatorTerm(1, b, "x")
    comm_half = oc.OperatorTerm(2, -a * b / 2, "1")
    return _product_residual([[A, B]], [[A], [B], [comm_half]], order, _WEYL_MAX_DEGREE)


def _cubic_disentangle_check(alpha, beta, order: int = 8) -> Fraction:
    """Residual of the cubic disentanglement e^{A+B} = e^{m^2/12 - (m/2) A^{1/2} + A} e^B
    with A = eps alpha d^2, B = eps beta x, [A, B] = m A^{1/2}, on monomials up
    to _CUBIC_MAX_DEGREE.

    The commutator forces m = 2 eps^{3/2} sqrt(alpha) beta, under which the
    exponent is rational: m^2/12 = eps^3 alpha beta^2 / 3 and (m/2) A^{1/2}
    = eps^2 alpha beta d.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    A = oc.OperatorTerm(1, alpha, "d2")
    B = oc.OperatorTerm(1, beta, "x")
    scalar = oc.OperatorTerm(3, alpha * beta ** 2 / 3, "1")
    drift = oc.OperatorTerm(2, -alpha * beta, "d")
    return _product_residual([[A, B]], [[scalar, drift, A], [B]], order, _CUBIC_MAX_DEGREE)


def _chk_weyl() -> Outcome:
    residual = max(
        _weyl_check(1, 1, order=8),
        _weyl_check(Fraction(3, 2), Fraction(-2, 3), order=8),
    )
    return Outcome(float(residual), "order-8 expansion on monomials up to degree 8")


def _chk_cubic() -> Outcome:
    residual = max(
        _cubic_disentangle_check(1, 1, order=8),
        _cubic_disentangle_check(Fraction(3, 4), 2, order=8),
    )
    return Outcome(float(residual), "order-8 expansion with the derived commutator constant")


def _chk_pauli() -> Outcome:
    def residual(symbol, omega) -> float:
        got = oc.matrix_function_pauli(symbol, omega)
        return float(np.max(np.abs(got - oc.pauli_spectral(symbol.func, omega))))

    symbols = (oc.gaussian_symbol(1.0), oc.cos_gaussian_symbol(1.0))
    worst = _worst(residual(symbol, omega) for symbol in symbols for omega in (0.0, 0.7, 1.0, 2.0))
    return Outcome(worst, "quadrature vs spectral decomposition, |Omega| <= 2")


def _chk_pauli_spot() -> Outcome:
    got = oc.matrix_function_pauli(oc.gaussian_symbol(1.0), 1.0)
    return Outcome(float(np.max(np.abs(got - np.exp(-1.0) * np.eye(2)))), "e^{-1} identity at |Omega| = 1")


def _commutator_check_LD(coeffs) -> tuple:
    """Residual of the Weyl pair claim [LD, D^{-1}] = 1 in its operational use.

    LD o D^{-1} is computed honestly.  D^{-1} o LD is computed the way the
    Weyl-algebra manipulations use it: LD is split as x d^2 + d and the
    D^{-1} d factor is cancelled formally, leaving D^{-1} x d^2 + 1.  That
    cancellation is only exact on inputs with f(0) = 0, which is precisely the
    restriction the pair carries: the residual is -f(0) as a constant series.

    Both products are applied action by action, and neither raises the
    degree; the residual has the input's length.
    """
    def act(action, state):
        return apply_operator([oc.OperatorTerm(0, 1, action)], state, 0)

    f = polynomial(coeffs)
    lhs = act("LD", act("Dinv", f))
    rhs = act("Dinv", act("x", act("d2", f)))
    return tuple(lhs.get((0, n), 0) - rhs.get((0, n), 0) - 2 * c for n, c in enumerate(coeffs))


def _chk_commutator() -> Outcome:
    for coeffs in ((0, Fraction(1)), (0, 0, 0, Fraction(1)), (0, Fraction(2), Fraction(-3), 0, Fraction(7))):
        if any(c != 0 for c in _commutator_check_LD(coeffs)):
            return Outcome(1.0, "commutator residual nonzero on f(0)=0")
    return Outcome(0.0, "[LD, D^{-1}] = 1 on f(0) = 0 polynomials, exact")


def _chk_borel_c0() -> Outcome:
    out = oc.borel_transform(oc.c0_series(20))
    want = tuple(Fraction((-1) ** n, factorial(n)) for n in range(21))
    if out != want:
        return Outcome(1.0, "Borel of C_0 is not e^{-x}")
    return Outcome(0.0, "Borel transform of C_0 = e^{-x}, exact coefficients")


def _chk_exp_laguerre() -> Outcome:
    c0 = oc.c0_series(24)
    out = oc.exp_laguerre_derivative(Fraction(1, 2), c0)
    # e^{eps LD/2} terminates by eps^24 on the degree-24 series; eps = 1 sums its orders
    expanded = exp_apply([oc.OperatorTerm(1, Fraction(1, 2), "LD")], polynomial(c0), 24)
    if list(out) != coefficients(expanded, len(c0)):
        return Outcome(1.0, "Borel and operator-exponential routes disagree")
    worst = _worst(abs(float(out[j] / c0[j]) - exp(-0.5)) for j in range(12))
    return Outcome(worst, "dual-route evolution; eigenvalue e^{-alpha} on C_0")


def _chk_integro_diff() -> Outcome:
    # beta = 1/50 takes the oracle's Taylor loop, 0 its finite sum, 1/2 and 1 its eigensystem
    worst = _worst(r for beta in (0.0, 0.02, 0.5, 1.0) for *_, r in integro_sweep(beta, 2, 5, 5))
    return Outcome(worst, f"m=2, beta in {{0, 1/50, 1/2, 1}}, grid on [0,{INTEGRO_REGION:g}]^2 vs matrix exponential")


def _chk_integro_parity() -> Outcome:
    f = gf.PowerSeries(oc.c0_series(12), "ordinary")
    try:
        oc.integro_diff_evolve(f, 0.5, 3, 0.1, 0.1)
    except UnsupportedSymbolError:
        return Outcome(0.0, "odd m correctly rejected")
    return Outcome(1.0, "odd m accepted")


def _chk_umbral() -> Outcome:
    scale = Fraction(1, 32)
    taylor = oc.gaussian_taylor(scale, 120)
    a = sq.Sequence.of([1] * 80)
    symbol = oc.gaussian_symbol(float(scale))
    xs = (-0.3, -0.15, 0.1, 0.2, 0.3)
    oracles = oc.umbral_double_sums(taylor, a, xs)
    worst = _worst(abs(oc.umbral_operator_transform(symbol, a, x, rho=1.0) - oracle)
                   for x, oracle in zip(xs, oracles, strict=True))
    return Outcome(worst, "Gaussian symbol vs exact double-sum oracle, |x| <= 0.3")


def _gauss_umbral_bridge_residual(a: sq.Sequence, y, xs) -> float:
    """Max residual between the umbral-derivative Gaussian evolution of the EGF
    and the closed form e^{y x^2} g(x).

    The evolution e^{y (d/da^)^2} turns a_n into the complementary Hermite
    transform with parameters (1, y); its EGF must match the closed product.
    """
    p = sq.TransformParams(1, Fraction(y))
    transformed = sq.hermite_complementary_seq(a, p)
    closed = gf.hermite_form(p, "complementary").bind(a)
    residuals = []
    for x in xs:
        umbral_side = 0j
        for n, b in enumerate(transformed.terms):
            umbral_side += complex(b) * complex(x) ** n / factorial(n)
        residuals.append(abs(umbral_side - closed(complex(x))))
    return _worst(residuals)


def _chk_umbral_bridge() -> Outcome:
    a = sq.Sequence.of([1] * 40)
    xs = np.linspace(-0.8, 0.8, 10)
    return Outcome(_gauss_umbral_bridge_residual(a, Fraction(1, 4), xs), "umbral Gaussian evolution vs closed form")


def _chk_heat() -> Outcome:
    return Outcome(_worst(r for *_, r in heat_sweep(0.5, 0.5, 16.0, 1024)), "Gaussian variance widening on-grid")


def _chk_heat_identity() -> Outcome:
    g = oc.GridFunction.sample(lambda t: np.exp(-t ** 2), 12.0, 512)
    out = oc.heat_evolve_ft(g, 0.0)
    return Outcome(float(np.max(np.abs(out.samples - g.samples))), "alpha = 0 evolution is the identity")


def _generating_check(fam: ap.AppellFamily, N: int, points, sign: str = "plus") -> list[float]:
    """|sum_{n<=N} t^n a_n(x)/n! - A(t)^{+-1} e^{tx}| at each (t, x): residuals of the defining product."""
    sums = ap.appell_sums(fam, [([t ** n / factorial(n) for n in range(N + 1)], x) for t, x in points], sign)
    closed = fam.value_at if sign == "plus" else fam.inverse_at
    return [abs(s - closed(t) * np.exp(t * x)) for s, (t, x) in zip(sums, points, strict=True)]


def _chk_appell_generating() -> Outcome:
    bern = ap.bernoulli_family()
    points = [(t, x) for t in (0.1, 0.3) for x in (-0.5, 0.5)]
    worst = _worst(r for sign in ("plus", "minus") for r in _generating_check(bern, 30, points, sign))
    return Outcome(worst, "Bernoulli family, both signs, N = 30")


def _chk_appell_bernoulli_poly() -> Outcome:
    bern = ap.bernoulli_family()
    if ap.appell_poly(bern, 2, "plus") != (Fraction(1, 6), Fraction(-1), Fraction(1)):
        return Outcome(1.0, "a_2^+ is not x^2 - x + 1/6")
    return Outcome(0.0, "a_2^+(x) = x^2 - x + 1/6, exact")


def _chk_appell_expansion() -> Outcome:
    # Bernoulli at scale 1/8 runs the operational oracle with a scale denominator q != 1
    cases = ((ap.bernoulli_family(), Fraction(1)), (ap.bernoulli_family(), Fraction(1, 8)),
             (ap.gauss_hermite_family(), Fraction(1, 8)))
    sweeps = [expansion_sweep(fam, ap.GaussianFunction(scale), 10)[1] for fam, scale in cases]
    worst = _worst(r for rows in sweeps for *_, r in rows)
    return Outcome(worst, "Fourier coefficients vs operational and widening-law oracles, n <= 10")


def _chk_appell_reciprocity() -> Outcome:
    bern = ap.bernoulli_family()
    # 1/A as Taylor data alone: the family's own inverse, A again, comes from the series reciprocal
    rec = ap.AppellFamily("1/bernoulli", bern.a_inv_taylor[:8])
    for n in range(8):
        if ap.appell_poly(bern, n, "plus") != ap.appell_poly(rec, n, "minus"):
            return Outcome(1.0, f"reciprocity broke at n={n}")
    return Outcome(0.0, "'+' of A equals '-' of 1/A, exact")


def _chk_appell_composition() -> Outcome:
    bern = ap.bernoulli_family()
    for n in range(8):
        # A(d/dx) applied to a_n^-(x) must return x^n: the two operators cancel
        minus = ap.appell_poly(bern, n, "minus")
        fact = sq._factorials(n + 1)
        out = sq._integer_correlation(sq._cleared([1] * (n + 1), bern.a_taylor[: n + 1]), sq._cleared(fact, minus),
                                      n + 1, fact)
        if out != (0,) * n + (1,):
            return Outcome(1.0, f"composition broke at n={n}")
    return Outcome(0.0, "A(d) [1/A(d)] x^n = x^n, exact")


def _chk_appell_reconstruction() -> Outcome:
    bern = ap.bernoulli_family()
    g = ap.GaussianFunction(Fraction(1))
    # each order doubles on its own, so a shorter expansion is a prefix of this one
    alphas = ap.expansion_coefficients(bern, g, 20).coefficients

    def sup(count: int) -> float:
        # sup-residual of the partial expansion through order `count` against g on the grid
        return _worst(r for *_, r in reconstruction_sweep(bern, alphas[: count + 1], g))

    sup16, sup20 = sup(16), sup(20)
    if not sup20 < sup16:  # a NaN sup fails too
        return Outcome(sup20, f"sup-residual did not decrease: {sup16:.2e} -> {sup20:.2e}", passed=False)
    return Outcome(sup20, f"sup-residual decreases: {sup16:.2e} -> {sup20:.2e}", passed=True)


# ---------------------------------------------------------------------------
# errata rows: printed constants measured against the oracle-derived forms

def _errata_eq28() -> Outcome:
    # printed coefficient C(n, 2r) instead of n!/((n-2r)! r!)
    a = sq.Sequence.of([1, 1, 1, 1, 1, 1])
    p = sq.TransformParams(1, 1)
    implemented = sq.hermite_complementary_seq(a, p)
    printed = [
        sum(comb(n, 2 * r) * a[n - 2 * r] for r in range(n // 2 + 1))
        for n in range(len(a))
    ]
    residual = _worst(abs(float(i - pr)) for i, pr in zip(implemented.terms, printed, strict=True))
    return Outcome(residual, "printed C(n,2r) coefficient vs closed-form-consistent coefficient")


def _errata_eq32() -> Outcome:
    # printed composite b_n = H_n(alpha - beta gamma a^, beta^2 delta), read umbrally
    # (a^s -> a_s), against the pipeline H(gamma, delta) after B(alpha, beta)
    a = sq.Sequence.of([1, 1, 1, 1])
    alpha, beta, gamma, delta = Fraction(1), Fraction(2), Fraction(3), Fraction(1)
    sequential = sq.hermite_transform_seq(sq.modular_transform(a, sq.TransformParams(alpha, beta)),
                                          sq.TransformParams(gamma, delta))
    printed = [
        sum(h * sum(comb(m, s) * alpha ** (m - s) * (-beta * gamma) ** s * a[s] for s in range(m + 1))
            for m, h in enumerate(sf.hermite2_coeffs(n, beta ** 2 * delta)))
        for n in range(len(a))
    ]
    residual = _worst(abs(float(b - p)) for b, p in zip(sequential.terms, printed, strict=True))
    return Outcome(residual, "printed composite umbral form vs sequential pipeline")


def _errata_eq33() -> Outcome:
    # printed l_{n,r} without the n! prefactor breaks the generating function
    a = sq.Sequence.of([1] * 33)
    x = 0.25
    printed_series = sum(
        float(sum(
            Fraction((-1) ** r, factorial(r) ** 2 * factorial(n - r)) * a[r]
            for r in range(n + 1)
        )) * x ** n / factorial(n)
        for n in range(len(a))
    )
    closed = gf.laguerre_form(_UNIT, "exponential").bind(a)(complex(x))
    return Outcome(abs(printed_series - closed), "printed coefficient without n! vs e^{beta x} q(-alpha x)")


def _errata_eq58() -> Outcome:
    # the final closed form drops alpha from C_n's argument
    alpha = Fraction(2)
    derived = oc.exp_negD(alpha, (0, Fraction(1)) + (Fraction(0),) * 10)
    x = 0.3
    derived_val = sum(float(c) * x ** n for n, c in enumerate(derived))
    printed_val = float(np.real(1 * x * sf.tricomi_c(1, x)))  # n! x^n C_n(x) at n=1
    return Outcome(abs(derived_val - printed_val), "n! x^n C_n(alpha x) vs printed C_n(x) at alpha=2")


def _errata_eq66() -> Outcome:
    # printed integrand drops the Gaussian transform amplitude 1/sqrt(2)
    n = 2
    res = oc.gaussian_fourier_integral(
        0.25, lambda k: (np.exp(1j * k) - 1.0) * k ** (n - 1)
    )
    printed = (1j ** (n - 1) / (_SQRT2PI * factorial(n))) * res.value
    bern = ap.bernoulli_family()
    derived = ap.expansion_coefficients(bern, ap.GaussianFunction(Fraction(1)), n).coefficients[n]
    return Outcome(abs(printed - derived), "printed coefficient misses the 1/sqrt(2) transform amplitude")


def _errata_eq72() -> Outcome:
    # printed m = 2 eps^{3/2} alpha^2 beta: m^2/12 = eps^3 alpha^4 beta^2 / 3 and
    # (m/2) A^{1/2} = eps^2 alpha^{5/2} beta d, with alpha^{5/2} = 32 at alpha = 4
    alpha, beta = Fraction(4), Fraction(1)
    A, B = oc.OperatorTerm(1, alpha, "d2"), oc.OperatorTerm(1, beta, "x")
    scalar = oc.OperatorTerm(3, alpha ** 4 * beta ** 2 / 3, "1")
    drift = oc.OperatorTerm(2, -32 * beta, "d")
    residual = _product_residual([[A, B]], [[scalar, drift, A], [B]], 6, _CUBIC_MAX_DEGREE)
    return Outcome(float(residual), "printed alpha^2 commutator constant; derived sqrt(alpha) gives zero")


#: the printed Eq. 75 phase and Hermite-argument shift; the derived ones are 1/3 and 1
_EQ75_PRINTED_PHASE = 10.0 / 3.0
_EQ75_PRINTED_SHIFT = 2.0


def _errata_eq75() -> Outcome:
    sym = oc.gaussian_symbol(1.0)
    alpha, beta, n, x = 0.25, 0.25, 1, 0.5
    argument = [oc.OperatorTerm(0, alpha, "d2"), oc.OperatorTerm(0, beta, "x")]
    taylor_tab = oc.gaussian_taylor(Fraction(1), 200)
    oracle = oc.apply_entire_function(
        lambda j: float(taylor_tab[j]) if j < len(taylor_tab) else 0.0, argument, [0.0, 1.0], x
    )

    def printed_form(k):
        return (
            sym.envelope(k)
            * np.exp(-1j * _EQ75_PRINTED_PHASE * k ** 3 * alpha * beta ** 2)
            * np.exp(1j * k * beta * x)
            * sf.hermite2(n, x - _EQ75_PRINTED_SHIFT * k * k * alpha * beta, 1j * k * alpha)
        )

    printed = oc.gaussian_fourier_integral(sym.gauss_coeff, printed_form).value / _SQRT2PI
    return Outcome(abs(printed - oracle), "printed phase 10/3 and doubled shift vs Taylor oracle")


def _errata_eq86() -> Outcome:
    # printed integrand C_0(x + i beta k) instead of the derived C_0((1 - i beta k) x)
    beta, tau, x = 1.0, 0.25, 0.25
    amp = 1.0 / sqrt(2.0 * tau)

    def g(k):
        return amp * np.exp(1j * k) * sf.tricomi_c(0, x + 1j * beta * k)

    res = oc.gaussian_fourier_integral(1.0 / (4.0 * tau) + beta / 2.0, g)
    printed = res.value / _SQRT2PI
    degree = c0_truncation(2)
    oracle = oc.integro_matrix_oracle([float(c) for c in oc.c0_series(degree)], beta, 2, tau, x, degree)
    return Outcome(abs(printed - oracle), "printed argument shift vs matrix-exponential oracle")


def _eq89_case() -> tuple:
    """(Gaussian coefficient, envelope, a, x, exact oracle) of e^{-s (k-h)^2}, s = 1/32, h = 1/2, 128 ones;
    a run computes it once for its two Eq. 89 rows."""
    scale, shift = Fraction(1, 32), Fraction(1, 2)
    s, sh = float(scale), float(shift)
    a, x = sq.Sequence.of([1] * 128), 0.25
    # the taylor table is for the unscaled exponential; rescale to the symbol
    oracle = oc.umbral_double_sum(_shifted_gaussian_taylor(scale, shift, 140), a, x) * exp(-s * sh * sh)
    return 1.0 / (4.0 * s), lambda k: 1.0 / sqrt(2.0 * s) * np.exp(-1j * k * sh), a, x, oracle


def _errata_eq89(case: tuple) -> Outcome:
    # printed 1 + ikx denominator: visible once the symbol is not even
    coeff, envelope, a, x, oracle = case

    def printed_form(k):
        den = 1.0 + 1j * k * x
        return envelope(k) * sf.polyval_coeffs([1.0] * len(a), x / den) / den

    printed = oc.gaussian_fourier_integral(coeff, printed_form).value / _SQRT2PI
    return Outcome(abs(printed - oracle), "printed 1 + ikx sign vs double-sum oracle (non-even symbol)")


def _shifted_gaussian_taylor(scale: Fraction, shift: Fraction, order: int) -> tuple:
    """Taylor coefficients t_n of exp(-scale (u - shift)^2) / exp(-scale shift^2) = e^{a u + b u^2},
    a = 2 scale shift, b = -scale, through `order`.

    f' = (a + 2 b u) f gives f^(n+1)(0) = a f^(n)(0) + 2 b n f^(n-1)(0); with c the
    lcm of the denominators of a and b, F_n = c^n f^(n)(0) is an integer,
    F_{n+1} = a c F_n + 2 b c^2 n F_{n-1}, and t_n = F_n / (c^n n!).
    """
    a, b = 2 * Fraction(scale) * Fraction(shift), -Fraction(scale)
    c = lcm(a.denominator, b.denominator)
    ac, bc2 = int(a * c), int(2 * b * c * c)
    out, previous, current, den = [], 0, 1, 1
    for n in range(order + 1):
        out.append(Fraction(current, den))
        previous, current = current, ac * current + bc2 * n * previous
        den *= c * (n + 1)
    return tuple(out)


def _chk_umbral_derived_sign(case: tuple) -> Outcome:
    # the derived 1 - ikx form agrees with the oracle for the same non-even symbol
    coeff, envelope, a, x, oracle = case
    got = oc.umbral_operator_transform(oc.FourierSymbol(coeff, envelope), a, x)
    return Outcome(abs(got - oracle), "shifted-Gaussian symbol vs double-sum oracle")


def _errata_footnote6() -> Outcome:
    defect = float(_commutator_check_LD((Fraction(1), Fraction(1)))[0])
    return Outcome(abs(defect), "f = 1 + x: constant defect -1 demonstrates the f(0)=0 restriction")


# ---------------------------------------------------------------------------
# suite assembly

def _master_checks(cases: list[MasterCase], order: int, shared: dict) -> list[Check]:
    return [Check(case.label, case.equation, MASTER_RELATIVE, lambda c=case: run_master_case(c, order, shared))
            for case in cases]


def build_suites(seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> dict[str, list[Check]]:
    """The catalog's suites.  Their rows share one table of exact work, empty here
    and filled on first use: each row reads the same values alone as in a run."""
    suites: dict[str, list[Check]] = {}
    shared: dict = {}

    def eq89() -> tuple:
        return _shared(shared, _eq89_case, _eq89_case)

    suites["involution"] = [
        Check("binomial involution on random rationals", "Eq. 5b", 0.0, lambda: _chk_involution(seed)),
        Check("function-level involution of the closed form", "Eq. 9", 1e-12, _chk_gf_involution),
    ]
    suites["modular"] = [
        Check("modular transform roundtrip", "Eqs. 11/14", 0.0, lambda: _chk_modular_roundtrip(seed)),
        Check("inverse as scaled alpha-one transform", "Eq. 14", 0.0, lambda: _chk_modular_inverse_relation(seed)),
    ]

    suites["kbinomial"] = [
        Check("k-binomial reduces to binomial at k=0", "Eq. 15", 0.0, lambda: _chk_k_zero_reduction(seed)),
    ] + _master_checks([case for k in range(4) for case in _k_binomial_cases(k)], order, shared)

    suites["gftrans"] = _master_checks(master_cases(), order, shared) + [
        Check("laguerre special: e^x J_0(2 sqrt x)", "Eq. 36", 1e-10, lambda: _chk_laguerre_special(
            "exponential", lambda x: exp(x) * _bessel_j0(2 * sqrt(x)), "e^x J_0(2 sqrt(x))")),
        Check("laguerre special: resolvent exponential", "Eq. 37", 1e-10, lambda: _chk_laguerre_special(
            "ordinary", lambda x: (1 / (1 - x)) * exp(-x / (1 - x)), "(1/(1-x)) e^{-x/(1-x)}")),
        Check("stirling operator identity", "Eq. 19", 0.0, lambda: _chk_stirling_operator_identity(seed)),
        Check("stirling table self-check", "Eq. 20", 0.0, _chk_stirling_table),
    ]

    suites["hermite"] = [
        Check("hermite inverse roundtrip", "footnote 3", 0.0, lambda: _chk_hermite_roundtrip(seed)),
        Check("hermite addition theorem", "Eq. 31", 0.0, lambda: _chk_hermite_addition(seed)),
        Check("derived composite closed form", "Eq. 32 (derived)", 0.0, lambda: _chk_derived_composite(seed)),
        Check("printed complementary coefficient", "Eq. 28", 0.0, _errata_eq28, errata=True),
        Check("printed composite umbral form", "Eq. 32", 0.0, _errata_eq32, errata=True),
        Check("printed laguerre coefficient normalization", "Eq. 33", 0.0, _errata_eq33, errata=True),
    ]

    suites["hermite-integral"] = [
        Check("shift transform vs two-variable Hermite", "Eqs. 46/47", 0.0, _chk_hermite_integral_representation),
        Check("monomial integral representation", "Eq. 48", 0.0, _chk_monomial_representation),
    ]

    suites["tricomi"] = [
        Check("evolution quadrature vs series", "Eq. 55", 1e-8, _chk_tricomi_evolution),
        Check("evolution spot value F(1,1)", "Eq. 55", 1e-12, _chk_tricomi_spot),
        Check("negative-derivative exponential coefficients", "Eq. 56", 0.0, _chk_exp_negD_coefficients),
        Check("dropped argument in the evolution fan-out", "Eq. 58", 0.0, _errata_eq58, errata=True),
    ]

    suites["heat"] = [
        Check("gaussian variance widening", "Eq. 40", 1e-6, _chk_heat),
        Check("zero-time evolution is identity", "Eq. 40", 1e-13, _chk_heat_identity),
    ]

    suites["disentangle"] = [
        Check("weyl decoupling rule", "footnote 4", 0.0, _chk_weyl),
        Check("cubic disentanglement, derived constant", "Eq. 73", 0.0, _chk_cubic),
        Check("printed commutator constant", "Eq. 72", 0.0, _errata_eq72, errata=True),
        Check("printed ordered-form constants", "Eq. 75", 0.0, _errata_eq75, errata=True),
    ]

    suites["pauli"] = [
        Check("matrix function vs spectral oracle", "Eq. 80", 1e-8, _chk_pauli),
        Check("gaussian of the involutive argument", "Eq. 80", 1e-10, _chk_pauli_spot),
    ]

    suites["weyl-borel"] = [
        Check("laguerre-derivative commutator", "Eq. 83", 0.0, _chk_commutator),
        Check("borel transform of C_0", "Eq. 85", 0.0, _chk_borel_c0),
        Check("laguerre-derivative exponential, dual routes", "Eq. 85", 1e-10, _chk_exp_laguerre),
        Check("right-inverse defect off f(0)=0", "footnote 6", 0.0, _errata_footnote6, errata=True),
    ]

    suites["integro-diff"] = [
        Check("integro-differential evolution vs matrix oracle", "Eq. 86", 1e-6, _chk_integro_diff),
        Check("odd-exponent symbol rejection", "Eq. 81", 0.0, _chk_integro_parity),
        Check("printed evolution integrand", "Eq. 86", 0.0, _errata_eq86, errata=True),
    ]

    suites["appell"] = [
        Check("generating product, both signs", "Eqs. 59a/59b", 1e-10, _chk_appell_generating),
        Check("bernoulli quadratic polynomial", "Eq. 60", 0.0, _chk_appell_bernoulli_poly),
        Check("expansion coefficients vs operational oracle", "Eq. 64", 1e-8, _chk_appell_expansion),
        Check("family reciprocity", "Eqs. 59a/59b", 0.0, _chk_appell_reciprocity),
        Check("umbral composition", "Eq. 60", 0.0, _chk_appell_composition),
        Check("reconstruction residual decreases", "Eq. 61", float("inf"), _chk_appell_reconstruction),
        Check("printed gaussian-coefficient integrand", "Eq. 66", 0.0, _errata_eq66, errata=True),
    ]

    suites["umbral"] = [
        Check("umbral operator transform vs double sum", "Eq. 89", 1e-7, _chk_umbral),
        Check("umbral transform, non-even symbol", "Eq. 89", 1e-7, lambda: _chk_umbral_derived_sign(eq89())),
        Check("umbral gaussian evolution bridge", "Eq. 88", 1e-10, _chk_umbral_bridge),
        Check("printed denominator sign", "Eq. 89", 0.0, lambda: _errata_eq89(eq89()), errata=True),
    ]

    return suites


def suite_names() -> list[str]:
    return list(build_suites().keys()) + ["all"]


def resolve_suites(selector: str, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> list[tuple[str, Check]]:
    if not 1 <= order <= MAX_ORDER:
        raise InvalidParameterError(f"--order must be between 1 and {MAX_ORDER}, got {order}")
    suites = build_suites(seed, order)
    if selector == "all":
        return [(name, check) for name, checks in suites.items() for check in checks]
    if selector not in suites:
        raise InvalidParameterError(f"unknown suite {quoted(selector)}; choose from {', '.join(suite_names())}")
    return [(selector, check) for check in suites[selector]]


def run_selected(selector: str, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> list[tuple[str, CheckResult]]:
    # run_check is looked up at call time, so a caller may wrap the module attribute
    return [(suite, run_check(check)) for suite, check in resolve_suites(selector, seed, order)]
