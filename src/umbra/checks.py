"""Machine-verifiable identity catalog.

Every closed-form identity in the library is registered here as a check:
a measured residual, a tolerance (or exactness), and a status.  Checks whose
printed source constants disagree with the oracle-derived ones carry status
'flagged-errata': the catalog documents those discrepancies, it never patches
them silently.  The CLI `check` command and the acceptance suite both run off
this registry.
"""
from __future__ import annotations

import cmath
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, factorial, pi, sqrt
from typing import Callable

import numpy as np
import scipy.special

from . import appell as ap
from . import gftrans as gf
from . import opcalc as oc
from . import seqcore as sq
from . import specfun as sf
from .errors import InvalidParameterError, UnsupportedSymbolError

DEFAULT_SEED = 20100601
DEFAULT_ORDER = 64


@dataclass(frozen=True)
class Outcome:
    residual: float
    detail: str = ""
    passed: bool | None = None  # None: decide from residual <= tolerance


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
    status: str  # pass | fail | flagged-errata
    residual: float
    tolerance: float
    runtime: float
    detail: str = ""


def run_check(check: Check) -> CheckResult:
    start = time.perf_counter()
    outcome = check.run()
    elapsed = time.perf_counter() - start
    if check.errata:
        status = "flagged-errata"
    elif outcome.passed is not None:
        status = "pass" if outcome.passed else "fail"
    else:
        status = "pass" if outcome.residual <= check.tolerance else "fail"
    return CheckResult(
        check.name, check.equation, status, float(outcome.residual),
        check.tolerance, elapsed, outcome.detail,
    )


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


def sample_points(radius: float, count: int = 20) -> list[complex]:
    outer = [radius * cmath.exp(2j * pi * j / 12) for j in range(12)]
    inner = [0.5 * radius * cmath.exp(2j * pi * (j + 0.5) / 8) for j in range(8)]
    return (outer + inner)[:count]


def _series_value(a: sq.Sequence, x: complex, kind: str) -> complex:
    return gf.sequence_series_value(a, x, kind)


def _partial_weighted(b: sq.Sequence, r: float, kind: str) -> float:
    total = 0.0
    for n, t in enumerate(b.terms):
        w = gf.power_over_factorial(r, n) if kind == "exponential" else r ** n
        total += float(t) * w
    return total


def _bessel_total(u: float) -> float:
    # sum u^r / (r!)^2 for u >= 0, i.e. C_0(-u)
    return float(np.real(sf.tricomi_c(0, -u)))


@dataclass(frozen=True)
class MasterCase:
    """One transform kind: exact transform, closed form, radius and tail budgets."""

    label: str
    equation: str
    transform: Callable[[sq.Sequence], sq.Sequence]
    closed: Callable[[sq.Sequence, complex], complex]
    kind: str  # series kind of the direct side
    radius: Callable[[TestSequence], float]
    closed_tail: Callable[[TestSequence, float, int], float]
    direct_total: Callable[[TestSequence, float], float]
    transform_majorant: Callable[[sq.Sequence], sq.Sequence] | None = None


def _binomial_ordinary_case() -> MasterCase:
    def radius(ts):
        rho = float(ts.growth_rho)
        return min(0.45, 0.52 / (1 + rho), 0.54 / (rho + 0.54))

    def closed_tail(ts, xa, order):
        u = xa / (1 - xa)
        return (1 / (1 - xa)) * gf.ordinary_tail(float(ts.growth_M), float(ts.growth_rho), u, order + 1)

    def direct_total(ts, r):
        # |b_n| <= M (1 + rho)^n: geometric total
        s = (1 + float(ts.growth_rho)) * r
        return float(ts.growth_M) / (1 - s)

    return MasterCase(
        "binomial transform, ordinary closed form", "Eq. 9",
        sq.binomial_transform,
        lambda a, x: gf.binomial_gf_ordinary(a, x),
        "ordinary", radius, closed_tail, direct_total,
    )


def _binomial_exponential_case() -> MasterCase:
    def closed_tail(ts, xa, order):
        return exp(xa) * gf.exponential_tail(float(ts.growth_M), float(ts.growth_rho), xa, order + 1)

    def direct_total(ts, r):
        return float(ts.growth_M) * exp((1 + float(ts.growth_rho)) * r)

    return MasterCase(
        "binomial transform, exponential closed form", "Eq. 10",
        sq.binomial_transform,
        lambda a, x: gf.binomial_gf_exponential(a, x),
        "exponential", lambda ts: 0.45, closed_tail, direct_total,
    )


_MOD_ALPHA, _MOD_BETA = Fraction(3, 4), Fraction(1, 2)
_MODX_ALPHA, _MODX_BETA = Fraction(2), Fraction(1)


def _modular_ordinary_case() -> MasterCase:
    al, be = float(_MOD_ALPHA), float(_MOD_BETA)

    def radius(ts):
        rho = float(ts.growth_rho)
        return min(0.45, 0.52 / (al + rho * be), 0.54 / (rho * be + 0.54 * al), 0.55 / al)

    def closed_tail(ts, xa, order):
        u = be * xa / (1 - al * xa)
        return (1 / (1 - al * xa)) * gf.ordinary_tail(float(ts.growth_M), float(ts.growth_rho), u, order + 1)

    def direct_total(ts, r):
        s = (al + float(ts.growth_rho) * be) * r
        return float(ts.growth_M) / (1 - s)

    return MasterCase(
        "modular transform, ordinary closed form", "Eq. 13",
        lambda a: sq.modular_transform(a, sq.TransformParams(_MOD_ALPHA, _MOD_BETA)),
        lambda a, x: gf.modular_gf(a, al, be, x, "ordinary"),
        "ordinary", radius, closed_tail, direct_total,
    )


def _modular_exponential_case() -> MasterCase:
    al, be = float(_MODX_ALPHA), float(_MODX_BETA)

    def closed_tail(ts, xa, order):
        return exp(al * xa) * gf.exponential_tail(float(ts.growth_M), float(ts.growth_rho) * be, xa, order + 1)

    def direct_total(ts, r):
        return float(ts.growth_M) * exp((al + float(ts.growth_rho) * be) * r)

    return MasterCase(
        "modular transform, exponential closed form", "Eq. 13",
        lambda a: sq.modular_transform(a, sq.TransformParams(_MODX_ALPHA, _MODX_BETA)),
        lambda a, x: gf.modular_gf(a, al, be, x, "exponential"),
        "exponential", lambda ts: 0.45, closed_tail, direct_total,
    )


def _k_binomial_cases(k: int) -> tuple[MasterCase, MasterCase]:
    def radius_ord(ts):
        rho = float(ts.growth_rho)
        return 0.5 / (rho + 0.5)  # keeps t = rho r/(1-r) <= 0.5

    def closed_tail_ord(ts, xa, order):
        u = xa / (1 - xa)
        total = 0.0
        for r_ in range(k + 1):
            s2 = sf.stirling2(r_, k)
            if s2 == 0:
                continue
            pref = xa ** r_ / (1 - xa) ** (r_ + 1)
            total += pref * s2 * gf.derivative_tail_ordinary(
                float(ts.growth_M), float(ts.growth_rho), r_, u, order + 1 - r_
            )
        return total

    def direct_total_ord(ts, r):
        # sum_n r^n sum_s C(n,s) s^k M rho^s = (1/(1-r)) (t d/dt)^k geometric at t
        rho, M = float(ts.growth_rho), float(ts.growth_M)
        t = rho * r / (1 - r)
        return (M / (1 - r)) * sum(
            sf.stirling2(j, k) * factorial(j) * t ** j / (1 - t) ** (j + 1) for j in range(k + 1)
        )

    def closed_tail_exp(ts, xa, order):
        total = 0.0
        for r_ in range(k + 1):
            s2 = sf.stirling2(r_, k)
            if s2 == 0:
                continue
            total += exp(xa) * xa ** r_ * s2 * gf.derivative_tail_exponential(
                float(ts.growth_M), float(ts.growth_rho), r_, xa, order + 1 - r_
            )
        return total

    def direct_total_exp(ts, r):
        # sum_n r^n/n! sum_s C(n,s) s^k M rho^s <= M k-shifted exponential bound
        rho, M = float(ts.growth_rho), float(ts.growth_M)
        # crude positive closed form: e^r * (t d/dt)^k e^t at t = rho r
        t = rho * r
        poly = sum(sf.stirling2(j, k) * t ** j for j in range(k + 1))
        return M * exp(r) * poly * exp(t)

    def abs_k_transform(a: sq.Sequence) -> sq.Sequence:
        # positive-signs variant used only for majorant partial sums
        return sq.Sequence.of(
            sum(comb(n, s) * (1 if k == 0 else s ** k) * a[s] for s in range(n + 1))
            for n in range(len(a))
        )

    ordinary = MasterCase(
        f"rising {k}-binomial, ordinary closed form", "Eq. 21",
        lambda a: sq.rising_k_binomial(a, k),
        lambda a, x: gf.k_binomial_gf(a, k, x, "ordinary"),
        "ordinary", radius_ord, closed_tail_ord, direct_total_ord,
        transform_majorant=abs_k_transform,
    )
    exponential = MasterCase(
        f"rising {k}-binomial, exponential closed form", "Eq. 22",
        lambda a: sq.rising_k_binomial(a, k),
        lambda a, x: gf.k_binomial_gf(a, k, x, "exponential"),
        "exponential", lambda ts: 0.4, closed_tail_exp, direct_total_exp,
        transform_majorant=abs_k_transform,
    )
    return ordinary, exponential


_HERM_ALPHA, _HERM_BETA = Fraction(1), Fraction(1, 2)
_LAG_ALPHA, _LAG_BETA = Fraction(1), Fraction(1, 2)


def _hermite_case(variant: str) -> MasterCase:
    al, be = float(_HERM_ALPHA), float(_HERM_BETA)

    def closed_tail(ts, xa, order):
        M, rho = float(ts.growth_M), float(ts.growth_rho)
        if variant == "standard":
            return exp(al * xa) * gf.exponential_tail(M, rho, be * xa * xa, order + 1)
        return exp(be * xa * xa) * gf.exponential_tail(M, rho, al * xa, order + 1)

    def direct_total(ts, r):
        M, rho = float(ts.growth_M), float(ts.growth_rho)
        if variant == "standard":
            return M * exp(al * r) * exp(rho * be * r * r)
        return M * exp(be * r * r) * exp(rho * al * r)

    transform = (
        (lambda a: sq.hermite_transform_seq(a, sq.TransformParams(_HERM_ALPHA, _HERM_BETA)))
        if variant == "standard"
        else (lambda a: sq.hermite_complementary_seq(a, sq.TransformParams(_HERM_ALPHA, _HERM_BETA)))
    )
    return MasterCase(
        f"hermite transform ({variant}), closed form",
        "Eq. 27" if variant == "standard" else "Eq. 29",
        transform,
        lambda a, x: gf.hermite_gf(a, al, be, x, variant),
        "exponential", lambda ts: 0.45, closed_tail, direct_total,
    )


def _laguerre_case(kind: str) -> MasterCase:
    al, be = float(_LAG_ALPHA), float(_LAG_BETA)

    def closed_tail(ts, xa, order):
        M, rho = float(ts.growth_M), float(ts.growth_rho)
        if kind == "ordinary":
            u = al * xa / (1 - be * xa)
            return (1 / (1 - be * xa)) * gf.exponential_tail(M, rho, u, order + 1)
        # bessel-kind argument tail
        u = rho * al * xa
        fo = order + 1
        # u^fo / (fo!)^2 = (sqrt(u)^fo / fo!)^2
        return exp(be * xa) * M * gf.power_over_factorial(sqrt(u), fo) ** 2 * _bessel_total(u)

    def direct_total(ts, r):
        M, rho = float(ts.growth_M), float(ts.growth_rho)
        if kind == "ordinary":
            return (M / (1 - be * r)) * exp(rho * al * r / (1 - be * r))
        return M * exp(be * r) * _bessel_total(rho * al * r)

    return MasterCase(
        f"laguerre transform, {kind} closed form", "Eq. 35",
        lambda a: sq.laguerre_transform_seq(a, sq.TransformParams(_LAG_ALPHA, _LAG_BETA)),
        lambda a, x: gf.laguerre_gf(a, al, be, x, kind),
        kind, lambda ts: 0.45, closed_tail, direct_total,
    )


def master_cases() -> list[MasterCase]:
    cases = [
        _binomial_ordinary_case(),
        _binomial_exponential_case(),
        _modular_ordinary_case(),
        _modular_exponential_case(),
        _hermite_case("standard"),
        _hermite_case("complementary"),
        _laguerre_case("ordinary"),
        _laguerre_case("exponential"),
    ]
    return cases


def run_master_case(case: MasterCase, order: int = DEFAULT_ORDER, sequences=None) -> Outcome:
    if sequences is None:
        sequences = MASTER_SEQUENCES
    # majorant transforms may need a sign-free variant (k-binomial)
    majorant_transform = case.transform_majorant or case.transform
    worst_rel, detail = 0.0, ""
    for ts in sequences:
        a = ts.build(order)
        transformed = case.transform(a)
        maj_transformed = majorant_transform(ts.majorant(order))
        r = case.radius(ts)
        direct_total = case.direct_total(ts, r)
        budget_direct = max(direct_total - _partial_weighted(maj_transformed, r, case.kind), 0.0)
        for x in sample_points(r):
            closed_value = case.closed(a, x)
            direct_value = _series_value(transformed, x, case.kind)
            diff = abs(closed_value - direct_value)
            budget = (
                case.closed_tail(ts, abs(x), order)
                + budget_direct
                + _FLOAT_SLACK * (abs(closed_value) + direct_total + 1.0)
            )
            if diff > budget:
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
            return Outcome(1.0, f"failed on {a.terms[:4]}...", passed=False)
    return Outcome(0.0, "200 random sequences, exact")


def _chk_gf_involution() -> Outcome:
    a = MASTER_SEQUENCES[4].build(DEFAULT_ORDER)
    worst = max(gf.binomial_gf_involution_residual(a, x) for x in sample_points(0.3))
    return Outcome(worst)


def _chk_modular_roundtrip(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(200):
        a = random_sequence(rng)
        p = sq.TransformParams(nonzero_rational(rng), nonzero_rational(rng))
        if sq.modular_inverse(sq.modular_transform(a, p), p).terms != a.terms:
            return Outcome(1.0, f"failed with {p}", passed=False)
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
                return Outcome(1.0, "scaled-transform relation broke", passed=False)
    return Outcome(0.0, "beta^-n scaling relation, exact")


def _chk_k_zero_reduction(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(50):
        a = random_sequence(rng, max_len=24, bound=1000)
        if sq.rising_k_binomial(a, 0).terms != sq.binomial_transform(a).terms:
            return Outcome(1.0, "k=0 does not reduce", passed=False)
    return Outcome(0.0, "k = 0 reduces to the plain transform, exact")


def _chk_hermite_roundtrip(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(200):
        a = random_sequence(rng)
        alpha = nonzero_rational(rng)
        p = sq.TransformParams(alpha, nonzero_rational(rng))
        if sq.hermite_inverse_seq(sq.hermite_complementary_seq(a, p), p).terms != a.terms:
            return Outcome(1.0, f"failed with {p}", passed=False)
    return Outcome(0.0, "inverse after complementary transform, 200 random, exact")


def _chk_hermite_addition(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(0, 10)
        vals = [nonzero_rational(rng, 8) for _ in range(3)]
        if sf.hermite_addition_check(n, *vals) != 0:
            return Outcome(1.0, f"n={n}, args={vals}", passed=False)
    return Outcome(0.0, "addition theorem, exact over random rationals")


def _chk_derived_composite(seed: int) -> Outcome:
    rng = random.Random(seed)
    for _ in range(40):
        a = random_sequence(rng, max_len=12, bound=100)
        params = [nonzero_rational(rng, 6) for _ in range(4)]
        gap = sq.modular_after_hermite_gap(a, *params)
        if any(g != 0 for g in gap):
            return Outcome(1.0, "derived composite closed form broke", passed=False)
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
            return Outcome(1.0, f"operator identity broke at n={n}", passed=False)
    return Outcome(0.0, "(t d/dt)^n = sum S2(k,n) t^k d^k, exact on polynomials")


def _chk_stirling_table() -> Outcome:
    sf.Stirling2Table(10)  # self-checks at construction
    return Outcome(0.0, "power-to-falling-factorial identity holds through n=10")


def _chk_laguerre_specials() -> Outcome:
    ones = MASTER_SEQUENCES[0].build(DEFAULT_ORDER)
    worst = 0.0
    for x in np.linspace(0.0, 0.5, 11):
        got = gf.laguerre_gf(ones, 1, 1, complex(x), "exponential")
        want = exp(x) * scipy.special.j0(2 * sqrt(x))
        worst = max(worst, abs(got - want))
    return Outcome(worst, "e^x J_0(2 sqrt(x)) on [0, 0.5]")


def _chk_laguerre_resolvent_special() -> Outcome:
    ones = MASTER_SEQUENCES[0].build(DEFAULT_ORDER)
    worst = 0.0
    for x in np.linspace(0.0, 0.5, 11):
        got = gf.laguerre_gf(ones, 1, 1, complex(x), "ordinary")
        want = (1 / (1 - x)) * exp(-x / (1 - x))
        worst = max(worst, abs(got - want))
    return Outcome(worst, "(1/(1-x)) e^{-x/(1-x)} on [0, 0.5]")


def _chk_hermite_integral_representation() -> Outcome:
    # polynomial symbols: small rules are already exact, and large rules only
    # add weight-precision noise amplified by the k^n cancellations
    worst = 0.0
    for n in range(0, 11, 2):
        for x in (-2.0, 0.0, 1.0, 2.0):
            for y in (0.1, 0.5, 2.0):
                got = oc.phi_shift_transform(oc.gaussian_symbol(y), lambda u, n=n: u ** n, x, start=64, tol=5e-9)
                want = complex(sf.hermite2(n, x, -y))
                worst = max(worst, abs(got - want))
    return Outcome(worst, "Gaussian-symbol shift transform vs H_n(x, -y)")


def _chk_monomial_representation() -> Outcome:
    worst = 0.0
    for n in range(0, 11, 2):
        for x in (-2.0, 0.5, 2.0):
            for y in (0.1, 0.5, 2.0):
                got = oc.monomial_from_hermite(n, x, y, start=64, tol=5e-9)
                worst = max(worst, abs(got - x ** n))
    return Outcome(worst, "integral representation of x^n via Hermite polynomials")


def _chk_tricomi_evolution() -> Outcome:
    worst = 0.0
    for x in np.linspace(0, 1, 11):
        for tau in np.linspace(0, 1, 11):
            got = oc.tricomi_evolution(float(x), float(tau))
            want = oc.tricomi_evolution_series(float(x), float(tau))
            worst = max(worst, abs(got - want))
    return Outcome(worst, "11x11 grid on [0,1]^2 vs series solution")


def _chk_tricomi_spot() -> Outcome:
    got = oc.tricomi_evolution(1.0, 1.0)
    return Outcome(abs(got.real - 0.5206029), "F(1,1) vs frozen series value")


def _chk_exp_negD_coefficients() -> Outcome:
    one = gf.PowerSeries((Fraction(1),) + (Fraction(0),) * 20, "ordinary")
    got = oc.exp_negD(Fraction(1), one)
    if got.coeffs != oc.c0_series(20):
        return Outcome(1.0, "series of e^{-D^{-1}} 1 is not C_0", passed=False)
    return Outcome(0.0, "e^{-D^{-1}} 1 = C_0(x), exact coefficients")


def _chk_weyl() -> Outcome:
    residual = max(
        oc.weyl_check(1, 1, order=8),
        oc.weyl_check(Fraction(3, 2), Fraction(-2, 3), order=8),
    )
    return Outcome(float(residual), "order-8 expansion on monomials up to degree 8")


def _chk_cubic() -> Outcome:
    residual = max(
        oc.cubic_disentangle_check(1, 1, order=8),
        oc.cubic_disentangle_check(Fraction(3, 4), 2, order=8),
    )
    return Outcome(float(residual), "order-8 expansion with the derived commutator constant")


def _chk_pauli() -> Outcome:
    worst = 0.0
    for factory in (oc.gaussian_symbol, oc.cos_gaussian_symbol):
        symbol = factory(1.0)
        for omega in (0.0, 0.7, 1.0, 2.0):
            got = oc.matrix_function_pauli(symbol, omega)
            want = oc.pauli_spectral(symbol.func, omega)
            worst = max(worst, float(np.max(np.abs(got - want))))
    return Outcome(worst, "quadrature vs spectral decomposition, |Omega| <= 2")


def _chk_pauli_spot() -> Outcome:
    got = oc.matrix_function_pauli(oc.gaussian_symbol(1.0), 1.0)
    return Outcome(float(np.max(np.abs(got - np.exp(-1.0) * np.eye(2)))), "e^{-1} identity at |Omega| = 1")


def _chk_commutator() -> Outcome:
    for coeffs in ((0, Fraction(1)), (0, 0, 0, Fraction(1)), (0, Fraction(2), Fraction(-3), 0, Fraction(7))):
        res = oc.commutator_check_LD(gf.PowerSeries(coeffs, "ordinary"))
        if any(c != 0 for c in res.coeffs):
            return Outcome(1.0, "commutator residual nonzero on f(0)=0", passed=False)
    return Outcome(0.0, "[LD, D^{-1}] = 1 on f(0) = 0 polynomials, exact")


def _chk_borel_c0() -> Outcome:
    out = oc.borel_transform(gf.PowerSeries(oc.c0_series(20), "ordinary"))
    want = tuple(Fraction((-1) ** n, factorial(n)) for n in range(21))
    if out.coeffs != want:
        return Outcome(1.0, "Borel of C_0 is not e^{-x}", passed=False)
    return Outcome(0.0, "Borel transform of C_0 = e^{-x}, exact coefficients")


def _chk_exp_laguerre() -> Outcome:
    c0 = gf.PowerSeries(oc.c0_series(24), "ordinary")
    out = oc.exp_laguerre_derivative(Fraction(1, 2), c0)
    via_matrix = oc.laguerre_derivative_op(24).expm_apply(c0.coeffs, scale=Fraction(1, 2))
    if out.coeffs != tuple(via_matrix):
        return Outcome(1.0, "Borel and matrix-exponential routes disagree", passed=False)
    worst = max(
        abs(float(out.coeffs[j] / c0.coeffs[j]) - exp(-0.5)) for j in range(12)
    )
    return Outcome(worst, "dual-route evolution; eigenvalue e^{-alpha} on C_0")


def _chk_integro_diff() -> Outcome:
    f = gf.PowerSeries(oc.c0_series(40), "ordinary")
    f_ord = [float(c) for c in oc.c0_series(40)]
    worst = 0.0
    for beta in (0.0, 0.5, 1.0):
        for x in np.linspace(0.0, 0.5, 5):
            for tau in np.linspace(0.0, 0.5, 5):
                got = oc.integro_diff_evolve(f, beta, 2, float(tau), float(x))
                want = oc.integro_matrix_oracle(f_ord, beta, 2, float(tau), float(x))
                worst = max(worst, abs(got - want))
    return Outcome(worst, "m=2, beta in {0, 1/2, 1}, grid on [0,0.5]^2 vs matrix exponential")


def _chk_integro_parity() -> Outcome:
    f = gf.PowerSeries(oc.c0_series(12), "ordinary")
    try:
        oc.integro_diff_evolve(f, 0.5, 3, 0.1, 0.1)
    except UnsupportedSymbolError:
        return Outcome(0.0, "odd m correctly rejected")
    return Outcome(1.0, "odd m accepted", passed=False)


def _chk_umbral() -> Outcome:
    scale = Fraction(1, 32)
    taylor = oc.gaussian_taylor(scale, 120)
    a = sq.Sequence.of([1] * 80)
    worst = 0.0
    for x in (-0.3, -0.15, 0.1, 0.2, 0.3):
        got = oc.umbral_operator_transform(oc.gaussian_symbol(float(scale)), a, x, growth=(1.0, 1.0))
        want = oc.umbral_double_sum(taylor, a, x)
        worst = max(worst, abs(got - want))
    return Outcome(worst, "Gaussian symbol vs exact double-sum oracle, |x| <= 0.3")


def _chk_umbral_bridge() -> Outcome:
    a = sq.Sequence.of([1] * 40)
    xs = np.linspace(-0.8, 0.8, 10)
    return Outcome(ap.gauss_umbral_bridge_residual(a, Fraction(1, 4), xs), "umbral Gaussian evolution vs closed form")


def _chk_heat() -> Outcome:
    g = oc.GridFunction.sample(lambda t: np.exp(-t ** 2 / 2), 16.0, 1024)
    out = oc.heat_evolve_ft(g, 0.5)
    expected = np.exp(-g.xs() ** 2 / 4) / sqrt(2.0)
    return Outcome(float(np.max(np.abs(out.samples - expected))), "Gaussian variance widening on-grid")


def _chk_heat_identity() -> Outcome:
    g = oc.GridFunction.sample(lambda t: np.exp(-t ** 2), 12.0, 512)
    out = oc.heat_evolve_ft(g, 0.0)
    return Outcome(float(np.max(np.abs(out.samples - g.samples))), "alpha = 0 evolution is the identity")


def _chk_appell_generating() -> Outcome:
    bern = ap.bernoulli_family()
    worst = 0.0
    for t in (0.1, 0.3):
        for x in (-0.5, 0.5):
            worst = max(worst, ap.generating_check(bern, 30, t, x, "plus"))
            worst = max(worst, ap.generating_check(bern, 30, t, x, "minus"))
    return Outcome(worst, "Bernoulli family, both signs, N = 30")


def _chk_appell_bernoulli_poly() -> Outcome:
    bern = ap.bernoulli_family()
    if ap.appell_poly(bern, 2, "plus") != (Fraction(1, 6), Fraction(-1), Fraction(1)):
        return Outcome(1.0, "a_2^+ is not x^2 - x + 1/6", passed=False)
    return Outcome(0.0, "a_2^+(x) = x^2 - x + 1/6, exact")


def _chk_appell_expansion() -> Outcome:
    worst = 0.0
    bern = ap.bernoulli_family()
    g1 = ap.GaussianFunction(Fraction(1))
    quad = ap.expansion_coefficients(bern, g1, 10)
    oracle = ap.operational_coefficients(bern, g1, 10)
    worst = max(abs(complex(c) - float(o)) for c, o in zip(quad.coefficients, oracle))
    gh = ap.gauss_hermite_family()
    g8 = ap.GaussianFunction(Fraction(1, 8))
    quad_h = ap.expansion_coefficients(gh, g8, 10)
    oracle_h = ap.operational_coefficients(gh, g8, 10)
    worst = max(worst, max(abs(complex(c) - float(o)) for c, o in zip(quad_h.coefficients, oracle_h)))
    return Outcome(worst, "Fourier coefficients vs operational oracle, n <= 10")


def _chk_appell_reciprocity() -> Outcome:
    bern = ap.bernoulli_family()
    rec = bern.reciprocal()
    for n in range(8):
        if ap.appell_poly(bern, n, "plus") != ap.appell_poly(rec, n, "minus"):
            return Outcome(1.0, f"reciprocity broke at n={n}", passed=False)
    return Outcome(0.0, "'+' of A equals '-' of 1/A, exact")


def _chk_appell_composition() -> Outcome:
    bern = ap.bernoulli_family()
    for n in range(8):
        if any(c != 0 for c in ap.umbral_composition_check(bern, n)):
            return Outcome(1.0, f"composition broke at n={n}", passed=False)
    return Outcome(0.0, "A(d) [1/A(d)] x^n = x^n, exact")


def _chk_appell_reconstruction() -> Outcome:
    bern = ap.bernoulli_family()
    g = ap.GaussianFunction(Fraction(1))
    xs = np.linspace(-1.0, 1.0, 21)
    sup16 = ap.reconstruction_residual(bern, ap.expansion_coefficients(bern, g, 16), g, xs)
    sup20 = ap.reconstruction_residual(bern, ap.expansion_coefficients(bern, g, 20), g, xs)
    if sup20 >= sup16:
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
    residual = max(abs(float(i - pr)) for i, pr in zip(implemented.terms, printed))
    return Outcome(residual, "printed C(n,2r) coefficient vs closed-form-consistent coefficient")


def _errata_eq32() -> Outcome:
    gap = sq.hermite_after_modular_gap(sq.Sequence.of([1, 1, 1, 1]), 1, 2, 3, 1)
    return Outcome(max(abs(float(g)) for g in gap), "printed composite umbral form vs sequential pipeline")


def _errata_eq33() -> Outcome:
    # printed l_{n,r} without the n! prefactor breaks the generating function
    a = sq.Sequence.of([1] * 33)
    p = sq.TransformParams(1, 1)
    x = 0.25
    printed_series = sum(
        float(sum(
            Fraction((-1) ** r, factorial(r) ** 2 * factorial(n - r)) * a[r]
            for r in range(n + 1)
        )) * x ** n / factorial(n)
        for n in range(len(a))
    )
    closed = gf.laguerre_gf(a, 1, 1, complex(x), "exponential")
    return Outcome(abs(printed_series - closed), "printed coefficient without n! vs e^{beta x} q(-alpha x)")


def _errata_eq58() -> Outcome:
    # the final closed form drops alpha from C_n's argument
    alpha = Fraction(2)
    f = gf.PowerSeries((0, Fraction(1)) + (Fraction(0),) * 10, "ordinary")
    derived = oc.exp_negD(alpha, f)
    x = 0.3
    derived_val = sum(float(c) * x ** n for n, c in enumerate(derived.coeffs))
    printed_val = float(np.real(1 * x * sf.tricomi_c(1, x)))  # n! x^n C_n(x) at n=1
    return Outcome(abs(derived_val - printed_val), "n! x^n C_n(alpha x) vs printed C_n(x) at alpha=2")


def _errata_eq66() -> Outcome:
    # printed integrand drops the Gaussian transform amplitude 1/sqrt(2)
    n = 2
    res = oc.gaussian_fourier_integral(
        0.25, lambda k: (np.exp(1j * k) - 1.0) * k ** (n - 1)
    )
    printed = (1j ** (n - 1) / (sqrt(2 * pi) * factorial(n))) * res.value
    bern = ap.bernoulli_family()
    derived = ap.expansion_coefficients(bern, ap.GaussianFunction(Fraction(1)), n).coefficients[n]
    return Outcome(abs(printed - derived), "printed coefficient misses the 1/sqrt(2) transform amplitude")


def _errata_eq72() -> Outcome:
    residual = oc.cubic_disentangle_check(4, 1, order=6, printed_m=True)
    return Outcome(float(residual), "printed alpha^2 commutator constant; derived sqrt(alpha) gives zero")


def _errata_eq75() -> Outcome:
    sym = oc.gaussian_symbol(1.0)
    alpha, beta, n, x = 0.25, 0.25, 1, 0.5
    op = oc.second_derivative_plus_x_op(alpha, beta, 220)
    taylor_tab = oc.gaussian_taylor(Fraction(1), 200)
    oracle = oc.apply_entire_function(
        lambda j: float(taylor_tab[j]) if j < len(taylor_tab) else 0.0, op, [0.0, 1.0], x
    )
    bad = oc.big_o_on_monomial(sym, alpha, beta, n, x, printed_constants=True)
    return Outcome(abs(bad - oracle), "printed phase 10/3 and doubled shift vs Taylor oracle")


def _errata_eq86() -> Outcome:
    # printed integrand C_0(x + i beta k) instead of the derived C_0((1 - i beta k) x)
    beta, tau, x = 1.0, 0.25, 0.25
    amp = 1.0 / sqrt(2.0 * tau)

    def g(k):
        return amp * np.exp(1j * k) * sf.tricomi_c(0, x + 1j * beta * k)

    res = oc.gaussian_fourier_integral(1.0 / (4.0 * tau) + beta / 2.0, g)
    printed = res.value / sqrt(2 * pi)
    oracle = oc.integro_matrix_oracle([float(c) for c in oc.c0_series(40)], beta, 2, tau, x)
    return Outcome(abs(printed - oracle), "printed argument shift vs matrix-exponential oracle")


def _errata_eq89() -> Outcome:
    # printed 1 + ikx denominator: visible once the symbol is not even
    scale, shift = Fraction(1, 32), Fraction(1, 2)
    s, sh = float(scale), float(shift)
    amp = 1.0 / sqrt(2.0 * s)
    envelope = lambda k: amp * np.exp(-1j * k * sh)
    a = sq.Sequence.of([1] * 128)
    x = 0.25

    def printed_form(k):
        den = 1.0 + 1j * k * x
        return envelope(k) * sf.polyval_coeffs([1.0] * 128, x / den) / den

    res = oc.gaussian_fourier_integral(1.0 / (4.0 * s), printed_form)
    printed = res.value / sqrt(2 * pi)
    # the taylor table is for the unscaled exponential; rescale to the symbol
    taylor = _shifted_gaussian_taylor(scale, shift, 140)
    oracle = oc.umbral_double_sum(taylor, a, x) * exp(-s * sh * sh)
    return Outcome(abs(printed - oracle), "printed 1 + ikx sign vs double-sum oracle (non-even symbol)")


def _shifted_gaussian_taylor(scale: Fraction, shift: Fraction, order: int) -> tuple:
    # taylor of exp(-scale (u - shift)^2) / exp(-scale shift^2) = exp(2 scale shift u - scale u^2)
    scale, shift = Fraction(scale), Fraction(shift)
    lin = [Fraction(2 * scale * shift) ** j / factorial(j) for j in range(order + 1)]
    quad = [Fraction(0)] * (order + 1)
    for l in range(order // 2 + 1):
        quad[2 * l] = (-scale) ** l / Fraction(factorial(l))
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += lin[i] * quad[j]
    return tuple(out)


def _chk_umbral_derived_sign() -> Outcome:
    # the derived 1 - ikx form agrees with the oracle for the same non-even symbol
    scale, shift = Fraction(1, 32), Fraction(1, 2)
    s, sh = float(scale), float(shift)
    amp = 1.0 / sqrt(2.0 * s)
    symbol = oc.FourierSymbol(1.0 / (4.0 * s), lambda k: amp * np.exp(-1j * k * sh))
    a = sq.Sequence.of([1] * 128)
    x = 0.25
    got = oc.umbral_operator_transform(symbol, a, x)
    taylor = _shifted_gaussian_taylor(scale, shift, 140)
    oracle = oc.umbral_double_sum(taylor, a, x) * exp(-s * sh * sh)
    return Outcome(abs(got - oracle), "shifted-Gaussian symbol vs double-sum oracle")


def _errata_footnote6() -> Outcome:
    res = oc.commutator_check_LD(gf.PowerSeries((Fraction(1), Fraction(1)), "ordinary"), strict=False)
    defect = float(res.coeffs[0])
    return Outcome(abs(defect + 1.0), "f = 1 + x: constant defect -1 demonstrates the f(0)=0 restriction", passed=None)


# ---------------------------------------------------------------------------
# suite assembly

def build_suites(seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> dict[str, list[Check]]:
    suites: dict[str, list[Check]] = {}

    suites["involution"] = [
        Check("binomial involution on random rationals", "Eq. 5b", 0.0, lambda: _chk_involution(seed)),
        Check("function-level involution of the closed form", "Eq. 9", 1e-12, _chk_gf_involution),
    ]
    suites["modular"] = [
        Check("modular transform roundtrip", "Eqs. 11/14", 0.0, lambda: _chk_modular_roundtrip(seed)),
        Check("inverse as scaled alpha-one transform", "Eq. 14", 0.0, lambda: _chk_modular_inverse_relation(seed)),
    ]

    kb_checks = [
        Check("k-binomial reduces to binomial at k=0", "Eq. 15", 0.0, lambda: _chk_k_zero_reduction(seed)),
    ]
    for k in range(4):
        ord_case, exp_case = _k_binomial_cases(k)
        kb_checks.append(Check(ord_case.label, ord_case.equation, MASTER_RELATIVE,
                               lambda c=ord_case: run_master_case(c, order, K_BINOMIAL_SEQUENCES)))
        kb_checks.append(Check(exp_case.label, exp_case.equation, MASTER_RELATIVE,
                               lambda c=exp_case: run_master_case(c, order, K_BINOMIAL_SEQUENCES)))
    suites["kbinomial"] = kb_checks

    gf_checks = []
    for case in master_cases():
        gf_checks.append(Check(case.label, case.equation, MASTER_RELATIVE,
                               lambda c=case: run_master_case(c, order)))
    gf_checks += [
        Check("laguerre special: e^x J_0(2 sqrt x)", "Eq. 36", 1e-10, _chk_laguerre_specials),
        Check("laguerre special: resolvent exponential", "Eq. 37", 1e-10, _chk_laguerre_resolvent_special),
        Check("stirling operator identity", "Eq. 19", 0.0, lambda: _chk_stirling_operator_identity(seed)),
        Check("stirling table self-check", "Eq. 20", 0.0, _chk_stirling_table),
    ]
    suites["gftrans"] = gf_checks

    suites["hermite"] = [
        Check("hermite inverse roundtrip", "footnote 3", 0.0, lambda: _chk_hermite_roundtrip(seed)),
        Check("hermite addition theorem", "Eq. 31", 0.0, lambda: _chk_hermite_addition(seed)),
        Check("derived composite closed form", "Eq. 32 (derived)", 0.0, lambda: _chk_derived_composite(seed)),
        Check("printed complementary coefficient", "Eq. 28", 0.0, _errata_eq28, errata=True),
        Check("printed composite umbral form", "Eq. 32", 0.0, _errata_eq32, errata=True),
        Check("printed laguerre coefficient normalization", "Eq. 33", 0.0, _errata_eq33, errata=True),
    ]

    suites["hermite-integral"] = [
        Check("shift transform vs two-variable Hermite", "Eqs. 46/47", 1e-8, _chk_hermite_integral_representation),
        Check("monomial integral representation", "Eq. 48", 1e-8, _chk_monomial_representation),
    ]

    suites["tricomi"] = [
        Check("evolution quadrature vs series", "Eq. 55", 1e-8, _chk_tricomi_evolution),
        Check("evolution spot value F(1,1)", "Eq. 55", 5e-7, _chk_tricomi_spot),
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
        Check("umbral transform, non-even symbol", "Eq. 89", 1e-7, _chk_umbral_derived_sign),
        Check("umbral gaussian evolution bridge", "Eq. 88", 1e-10, _chk_umbral_bridge),
        Check("printed denominator sign", "Eq. 89", 0.0, _errata_eq89, errata=True),
    ]

    return suites


def suite_names() -> list[str]:
    return list(build_suites().keys()) + ["all"]


def resolve_suites(selector: str, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER) -> list[tuple[str, Check]]:
    suites = build_suites(seed, order)
    if selector == "all":
        return [(name, check) for name, checks in suites.items() for check in checks]
    if selector not in suites:
        raise InvalidParameterError(f"unknown suite {selector!r}; choose from {', '.join(suite_names())}")
    return [(selector, check) for check in suites[selector]]


def run_selected(selector: str, seed: int = DEFAULT_SEED, order: int = DEFAULT_ORDER,
                 tolerance_override: float | None = None) -> list[tuple[str, CheckResult]]:
    rows = []
    for suite, check in resolve_suites(selector, seed, order):
        if tolerance_override is not None and not check.errata and check.tolerance not in (0.0, float("inf")):
            check = Check(check.name, check.equation, tolerance_override, check.run, check.errata)
        rows.append((suite, run_check(check)))
    return rows
