"""Operator functions through the Fourier representation.

Phi(op) f = (1/sqrt(2 pi)) integral Phi~(k) e^{i k op} f dk, with the ordered
exponential worked out per operator family and the integral done by the
Gauss-Hermite engine.  Where the integrand is a Gaussian times a polynomial
(the Gaussian symbol on a polynomial, the m = 2 integro-differential
evolution) the integral is summed from Gaussian moments instead, and where it
is the transform pair of e^{-tau x^m} times a polynomial (the beta = 0
evolution) from the moments of that pair.  Ordered forms are the verified
ones (regenerated from the disentanglement checks), not the printed
constants.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, exp, factorial, inf, isfinite, lgamma, log, pi, sqrt
from typing import Callable

import numpy as np

from ..errors import (
    DivergenceError,
    DomainTooSmallError,
    InvalidParameterError,
    TruncationError,
    UnsupportedSymbolError,
)
from ..gftrans import PowerSeries
from ..seqcore import Sequence, _cleared, _exact, _factorials, _integer_correlation
from ..specfun import FACTORIAL_DEGREE_MAX, hermite2, polyval_coeffs, tricomi_c
from .quadrature import (
    _SQRT2PI,
    FourierSymbol,
    factorials,
    gauss_weighted_integral,
    gaussian_fourier_integral,
    gaussian_fourier_rows,
    gaussian_taylor,
    legendre_composite_rule,
    log_gamma_half,
)


@dataclass(frozen=True)
class GridFunction:
    """Samples on the uniform grid x_j = -extent + j h, h = 2 extent / size, size a power of two."""

    samples: np.ndarray
    extent: float

    def __post_init__(self) -> None:
        n = len(self.samples)
        if n < 2 or n & (n - 1):
            raise InvalidParameterError("grid size must be a power of two")
        if self.extent <= 0:
            raise InvalidParameterError("grid extent must be positive")
        if not isfinite(2.0 * self.extent / n):
            raise InvalidParameterError(f"grid extent {self.extent:g} overflows the grid spacing")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / len(self.samples)

    def xs(self) -> np.ndarray:
        return -self.extent + self.spacing * np.arange(len(self.samples))

    @classmethod
    def sample(cls, func: Callable[[np.ndarray], np.ndarray], extent: float, size: int) -> "GridFunction":
        probe = cls(np.zeros(size), extent)
        return cls(np.asarray(func(probe.xs()), dtype=complex), extent)


BOUNDARY_DECAY = 1e-12


def heat_evolve_ft(f: GridFunction, alpha: float) -> GridFunction:
    """Evolve d/d alpha F = d^2/dx^2 F by one step alpha: multiply the spectrum by e^{-alpha k^2}."""
    if not alpha >= 0:
        raise InvalidParameterError("heat evolution needs alpha >= 0")
    # the FFT grid is periodic: a kernel e^{-x^2/(4 alpha)} that is still above
    # the decay level at distance `extent` wraps round into the other side
    # (a product, not **: extent^2 past the float range is inf, a kernel decayed to 0)
    if alpha > 0 and exp(-f.extent * f.extent / (4.0 * alpha)) > BOUNDARY_DECAY:
        raise DomainTooSmallError(
            f"heat kernel for alpha = {alpha:g} reaches the grid edge at {f.extent:g}; enlarge the grid extent"
        )
    edge = max(abs(f.samples[0]), abs(f.samples[-1]))
    if edge > BOUNDARY_DECAY:
        raise DomainTooSmallError(
            f"boundary samples reach {edge:.2e} > {BOUNDARY_DECAY:g}; enlarge the grid extent"
        )
    k = 2.0 * pi * np.fft.fftfreq(len(f.samples), d=f.spacing)
    spectrum = np.fft.fft(f.samples) * np.exp(-alpha * k * k)
    return GridFunction(np.fft.ifft(spectrum), f.extent)


def gaussian_shift_transform(coeffs, y) -> tuple:
    """Phi(d/dx) p = (1/(2 sqrt(pi y))) integral e^{-k^2/4y} p(x + ik) dk for Phi(u) = e^{-y u^2}, y > 0.

    Maps ascending coefficients of p to those of e^{-y d^2/dx^2} p: the
    correlation of the Taylor series of e^{-y u^2} with (n! p_n), over m!.
    Input is exact, a float entering as its exact value; output is Fractions.
    """
    y, *coeffs = _exact((y, *coeffs), "polynomial coefficients and y")
    if not y > 0:
        raise InvalidParameterError("the Gaussian shift transform needs y > 0")
    n = len(coeffs)
    fact = _factorials(n)
    return _integer_correlation(_cleared([1] * n, gaussian_taylor(y, n - 1)), _cleared(fact, coeffs), n, fact)


def big_o_on_monomial(symbol: FourierSymbol, alpha: float, beta: float, n: int, x: complex) -> complex:
    """f(alpha d^2/dx^2 + beta x) x^n via the ordered exponential:

    (1/sqrt(2 pi)) integral f~(k) e^{-i (k^3/3) alpha beta^2} e^{i k beta x}
                            H_n(x - k^2 alpha beta, i k alpha) dk.

    The phase 1/3 and unit shift come from the verified disentanglement.
    """

    def g(k):
        return (
            symbol.envelope(k)
            * np.exp(-1j * (1.0 / 3.0) * k ** 3 * alpha * beta ** 2)
            * np.exp(1j * k * beta * x)
            * hermite2(n, x - k * k * alpha * beta, 1j * k * alpha)
        )

    res = gaussian_fourier_integral(symbol.gauss_coeff, g)
    return res.value / _SQRT2PI


def matrix_function_pauli(symbol: FourierSymbol, omega_mag: float) -> np.ndarray:
    """f(Omega sigma+ + Omega* sigma-) for Omega = i |Omega|:

    (1/sqrt(2 pi)) integral f~(k) [[cos, -sin], [sin, cos]](|Omega| k) dk.
    """
    if not omega_mag >= 0:
        raise InvalidParameterError("needs |Omega| >= 0")

    def parts(k, rows):
        # the cos and sin rows share the Gaussian factor, the envelope and the phase
        envelope, phase = symbol.envelope(k), omega_mag * k
        return [envelope * (np.cos, np.sin)[r](phase) for r in rows]

    cos_part, sin_part = (res.value / _SQRT2PI for res in gaussian_fourier_rows(symbol.gauss_coeff, parts, 2))
    return np.array([[cos_part, -sin_part], [sin_part, cos_part]], dtype=complex)


def _tricomi_integrand(k: np.ndarray, x) -> np.ndarray:
    """C_0(-i k x), the integrand of Eq. 55 against the weight e^{-k^2/4 tau}."""
    return tricomi_c(0, -1j * k * x)


def _tricomi_normalised(integral: complex, tau: float) -> complex:
    return integral / (2.0 * sqrt(pi * tau))


def tricomi_evolution(x: float, tau: float) -> complex:
    """Solution of d/d tau F = -D^{-2} F, F(x, 0) = 1:

    F(x, tau) = (1/(2 sqrt(pi tau))) integral e^{-k^2/4 tau} C_0(-i k x) dk.
    """
    if tau == 0:
        return 1.0 + 0j
    if not tau >= 0:
        raise InvalidParameterError("tricomi evolution needs tau >= 0")
    res = gauss_weighted_integral(lambda k: _tricomi_integrand(k, x), tau)
    return _tricomi_normalised(res.value, tau)


#: the most rows of one stack in tricomi_evolution_points: a stack's arrays hold
#: rows x nodes entries, so a tau with more x values is split.  Unsplit, the
#: peak grows with the grid: `evolve --equation tricomi` on 2000 x 2 points
#: peaked at 72 MB RSS against 33 MB in stacks of 32, and a 300 x 4 grid ran
#: 67 ms against 51 ms (stacks of 64: as fast as 32)
TRICOMI_STACK_ROWS = 32


def tricomi_evolution_points(points: list[tuple[float, float]]) -> list[complex]:
    """tricomi_evolution at each (x, tau), bit for bit, node counts included.

    The weight e^{-k^2/4 tau} depends on tau alone, so the points that share a
    tau != 0 are stacks of gaussian_fourier_rows, rows its x values in order,
    TRICOMI_STACK_ROWS at a time; the taus run in order of their first point.
    An unconverged point warns as "(integrand r of R)" of its stack.
    """
    if any(not tau >= 0 for _, tau in points):
        raise InvalidParameterError("tricomi evolution needs tau >= 0")
    values = [1.0 + 0j] * len(points)
    by_tau: dict[float, list[int]] = {}
    for i, (_, tau) in enumerate(points):
        if tau != 0:
            by_tau.setdefault(tau, []).append(i)
    for tau, rows in by_tau.items():
        for start in range(0, len(rows), TRICOMI_STACK_ROWS):
            stack = rows[start:start + TRICOMI_STACK_ROWS]
            xs = np.array([points[i][0] for i in stack])[:, None]
            results = gaussian_fourier_rows(1.0 / (4.0 * tau),
                                            lambda k, active: _tricomi_integrand(k, xs[active]), len(stack))
            for i, res in zip(stack, results):
                values[i] = _tricomi_normalised(res.value, tau)
    return values


@lru_cache(maxsize=None)
def _binomial_table(size: int) -> np.ndarray:
    """C(j + s, j) for j + s < size, zero elsewhere (read-only, shared)."""
    table = np.array(
        [[comb(j + s, j) if j + s < size else 0 for s in range(size)] for j in range(size)], dtype=float
    )
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _hankel_index(rows: int, cols: int) -> np.ndarray:
    """j + s for j < rows, s < cols: the gather index of a Hankel table (read-only, shared)."""
    index = np.add.outer(np.arange(rows), np.arange(cols))
    index.flags.writeable = False
    return index


def _evolution_tables(f_ord: tuple, beta: float, x: float, work_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tables of [e^{i beta k D^{-1}} e^{i k LD} f](x) as a polynomial in k.

    The polynomial is sum_{j,s,r} a[j, s] (ik)^s b[j, r] (ik)^r, with
    a[j, s] = C(j+s, j) (j+s)! f_{j+s} from e^{ik LD} f = f_B(D^{-1} + ik) . 1
    (Borel route) and b[j, r] = x^{j+r}/(j+r)! beta^r/r! from e^{i beta k D^{-1}},
    cut at degree work_order in x.  f_ord holds the complex coefficients.
    """
    tf = len(f_ord) - 1
    steps = np.arange(1.0, work_order + 1.0)
    borel = np.zeros(2 * tf + 1, dtype=complex)
    borel[: tf + 1] = factorials(tf + 1) * np.asarray(f_ord)
    a = _binomial_table(tf + 1) * borel[_hankel_index(tf + 1, tf + 1)]
    xpow = np.zeros(tf + work_order + 1)  # x^q / q!, zero past work_order
    xpow[: work_order + 1] = np.cumprod(np.concatenate(((1.0,), x / steps)))
    b = xpow[_hankel_index(tf + 1, work_order + 1)] * np.cumprod(np.concatenate(((1.0,), beta / steps)))
    return a, b


def _bracket_polynomial(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ordinary coefficients in ik of sum_{j,s,r} a[j, s] (ik)^s b[j, r] (ik)^r.

    poly[n] is the n-th anti-diagonal sum of M = a^T b, the same as
    sum_j np.convolve(a[j], b[j]) in one matrix product.
    """
    M = a.T @ b
    degree = np.add.outer(np.arange(M.shape[0]), np.arange(M.shape[1])).ravel()
    return np.bincount(degree, weights=M.real.ravel()) + 1j * np.bincount(degree, weights=M.imag.ravel())


@lru_cache(maxsize=None)
def _moment_orders(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-orders p + 1/2 and signs i^{2p} = (-1)^p of the even moments k^{2p}, 2p < degree (read-only, shared)."""
    half = np.arange(0, degree, 2) / 2.0 + 0.5
    signs = np.where(np.arange(len(half)) % 2, -1.0, 1.0)
    for table in (half, signs):
        table.flags.writeable = False
    return half, signs


def _gaussian_moment_sum(a: np.ndarray, b: np.ndarray, beta: float, tau: float) -> complex:
    """The m = 2 integral of integro_diff_evolve as a finite sum of Gaussian moments.

    Its integrand is e^{-A k^2}, A = 1/(4 tau) + beta/2, times the polynomial
    in k with the _evolution_tables a, b.  Odd powers of k integrate to 0 and
    integral e^{-A k^2} k^{2p} dk = Gamma(p + 1/2) / A^{p + 1/2}, so the
    integral is sum_j a[j] H b[j] with the Hankel matrix H[s, r] = i^{s+r} times
    the (s+r)-th moment.
    """
    degree = a.shape[1] + b.shape[1] - 1
    half, signs = _moment_orders(degree)
    # i^{2p} Gamma(p + 1/2) / A^{p + 1/2} / sqrt(4 pi tau), in log space: A^{p+1/2}
    # and Gamma(p + 1/2) overflow separately long before their ratio does
    log_moments = (
        log_gamma_half(len(half)) - half * log(1.0 / (4.0 * tau) + beta / 2.0) - 0.5 * log(4.0 * pi * tau)
    )
    # complex like a, so that a @ hankel multiplies without casting
    moments = np.zeros(degree, dtype=complex)
    moments[::2] = signs * np.exp(log_moments)
    hankel = moments[_hankel_index(a.shape[1], b.shape[1])]
    return complex(np.sum((a @ hankel) * b))


def _moment_law_sum(f_ord: tuple, a: np.ndarray, b: np.ndarray, m: int, tau: float) -> complex:
    """The beta = 0 integral of integro_diff_evolve for even m >= 4, from the moments of e~_m.

    (1/sqrt(2 pi)) integral e~_m(k, tau) (ik)^n dk = n! [u^n] e^{-tau u^m}, and at
    beta = 0 the bracket is the polynomial sum_n P_n (ik)^n with P = b[:, 0] @ a,
    so the integral is the finite sum sum_j P_{mj} (mj)! (-tau)^j / j!.  A
    degree-T series feeds it through j = T // m only; the first order dropped,
    J = T // m + 1, carries about tau^J / J! max |n!^2 f_n| (1 for C_0), which
    must stay below 1e-15.
    """
    order = (len(f_ord) - 1) // m + 1
    # in log space: n!^2 overflows a double from n = 99 on
    log_scale = max((2.0 * lgamma(n + 1.0) + log(abs(c)) for n, c in enumerate(f_ord) if c), default=-inf)
    log_tail = order * log(tau) - lgamma(order + 1.0) + log_scale
    if log_tail > log(1e-15):
        raise TruncationError(
            f"m={m}, tau={tau:g}: a degree-{len(f_ord) - 1} series feeds the moment sum through "
            f"order {order - 1} only, and the first order dropped is ~{exp(log_tail):.1e}"
        )
    j = np.arange(order)
    # (mj)!/j! tau^j in log space: the ratio overflows long before the product does
    log_ratio = np.array([log(factorial(m * i) // factorial(i)) for i in range(order)])
    weights = np.where(j % 2, -1.0, 1.0) * np.exp(log_ratio + j * log(tau))
    return complex((b[:, 0] @ a)[::m] @ weights)


def _e_tilde_grid(m: int, tau: float, ks: np.ndarray) -> np.ndarray:
    """Numerical transform pair of e^{-tau x^m} for even m >= 4, one phase per panel.

    The composite rule on [0, X] has equal panels with centres c_p and the
    same local offsets s_l, so cos(k (c_p + s_l)) = Re e^{i k c_p} e^{i k s_l}
    and the transform is sum_p Re[e^{i k c_p} sum_l body_{p,l} e^{i k s_l}]:
    panels + 16 complex exponentials per k instead of 16 cosines per panel.
    """
    X = (40.0 / tau) ** (1.0 / m)
    kmax = float(np.max(np.abs(ks))) if len(ks) else 1.0
    panels = max(64, int(2 * X * max(kmax, 1.0) / pi) + 1)
    rule = legendre_composite_rule(0.0, X, panels, 16)
    body = (rule.weights * np.exp(-tau * rule.nodes ** m)).reshape(panels, 16)
    edges = np.linspace(0.0, X, panels + 1)
    centres = (edges[:-1] + edges[1:]) / 2
    offsets = rule.nodes[:16] - centres[0]
    local = np.exp(1j * np.outer(ks, offsets)) @ body.T
    return (2.0 / _SQRT2PI) * np.sum((np.exp(1j * np.outer(ks, centres)) * local).real, axis=1)


INTEGRO_REGION = 0.5
#: degree of the C_0 series the m = 2 evolution is checked on, and so the cap
#: of the matrix oracle that checks it
INTEGRO_M2_DEGREE = 40
# Largest beta at which integro_matrix_oracle at degree cap INTEGRO_M2_DEGREE
# still agrees with the route to ~1e-12 over |x| <= 1/2, tau in [0.05, 0.5]:
# 5.4e-13 at beta = 2, 1.3e-9 at 3, 1.3e-6 at 5.  At cap 170 the oracle agrees
# with the route to 1e-15 at all three, so the bound measures the oracle's
# degree cap, not the route's truncation.
INTEGRO_BETA_BOUND = 2.0
#: cutoffs |k| <= K the even m >= 4, beta > 0 route tries in turn; a damped
#: symbol still above 1e-15 at the last one is rejected, never integrated short
INTEGRO_CUTOFFS = (4.0, 8.0, 16.0, 32.0)


def integro_series_degree(K: float) -> int:
    """Degree an initial series must reach for the even m >= 4, beta > 0 route at cutoff K.

    e^{ik LD} on a series truncated at degree T carries truncation junk
    ~ k^T / T!, only negligible over |k| <= K when T >= 2.5 K; the Gaussian
    pair (m = 2) crushes large k on its own, the fatter e~_m tails do not.
    """
    return int(2.5 * K + 1)


def integro_diff_evolve(f: PowerSeries, beta: float, m: int, tau: float, x: float) -> complex:
    """Solution of d/d tau F = -(LD + beta D^{-1})^m F, F(x, 0) = f(x), for even m:

    F(x, tau) = (1/sqrt(2 pi)) integral e~_m(k, tau) e^{-beta k^2 / 2}
                [e^{i beta k D^{-1}} e^{i k LD} f](x) dk

    with e~_m the transform pair of e^{-tau x^m}.  The bracket is one polynomial
    in k for every m (_evolution_tables).  For m = 2, e~_m is a Gaussian and the
    integral is summed in closed form from its moments.  For even m >= 4 at
    beta = 0 it is the finite sum over the moments of e~_m; at beta > 0 the
    polynomial is evaluated at Gauss-Legendre nodes against a grid transform
    of e~_m.  Odd m has no transform pair on the line and is rejected, and so
    is a series past degree FACTORIAL_DEGREE_MAX (the tables scale by n!).
    """
    if m <= 0 or m % 2:
        raise UnsupportedSymbolError(f"m = {m}: m must be a positive even integer for e^(-tau x^m) to decay")
    if beta < 0:
        raise DivergenceError("beta < 0 grows the disentanglement factor e^{-beta k^2/2}")
    if not beta <= INTEGRO_BETA_BOUND:
        raise TruncationError(
            f"beta = {beta:g} outside [0, {INTEGRO_BETA_BOUND:g}], where the matrix oracle at degree cap "
            f"{INTEGRO_M2_DEGREE} still checks the route to 1e-12: the bound is the oracle's cap, "
            f"not the route's truncation"
        )
    if not tau >= 0:
        raise InvalidParameterError("needs tau >= 0")
    if not abs(x) <= INTEGRO_REGION:
        raise TruncationError(f"|x| = {abs(x):g} outside the truncation-controlled region {INTEGRO_REGION}")
    if f.kind != "ordinary":
        raise InvalidParameterError("integro_diff_evolve needs an ordinary-kind series")
    if len(f.coeffs) - 1 > FACTORIAL_DEGREE_MAX:
        raise TruncationError(
            f"a degree-{len(f.coeffs) - 1} series: the route scales coefficient n by n!, "
            f"which must fit a double (degree <= {FACTORIAL_DEGREE_MAX})"
        )
    f_ord = f.complex_coeffs
    if tau == 0:
        return polyval_coeffs(f_ord, x)
    a, b = _evolution_tables(f_ord, beta, x, max(len(f_ord) - 1, 48) + 16)

    if m == 2:
        return _gaussian_moment_sum(a, b, beta, tau)
    if beta == 0:
        return _moment_law_sum(f_ord, a, b, m, tau)

    # even m >= 4, beta > 0: locate a cutoff where the damped symbol is
    # negligible (beta = 1e-3, tau ~ 0.4 at m = 4 finds none)
    for K in INTEGRO_CUTOFFS:
        tail = abs(_e_tilde_grid(m, tau, np.array([K, 1.25 * K])).max()) * np.exp(-beta * K * K / 2.0)
        if tail < 1e-15:
            break
    else:
        raise TruncationError(
            f"m={m}, beta={beta:g}, tau={tau:g}: the damped symbol is still {tail:.1e} "
            f"at |k| = {K:g}, past the largest cutoff the route controls"
        )
    needed = integro_series_degree(K)
    if len(f_ord) - 1 < needed:
        raise TruncationError(
            f"m={m}, tau={tau:g} integrates out to |k| ~ {K:g}: the initial series must "
            f"carry coefficients through degree {needed} (got {len(f_ord) - 1})"
        )
    rule = legendre_composite_rule(-K, K, max(64, int(8 * K)), 12)
    ks = rule.nodes
    # the same polynomial in k, summed into ordinary coefficients and evaluated at the nodes
    poly = _bracket_polynomial(a, b)
    # the rule is symmetric and the damped symbol even in k: take it at the
    # nonnegative nodes and add each node's mirror there, so that for a real
    # series the odd, imaginary part of the integrand cancels exactly
    half = len(ks) // 2
    k = ks[half:]
    damped = _e_tilde_grid(m, tau, k) * np.exp(-beta * k ** 2 / 2.0)
    # one Horner pass over the stacked nodes ik and -ik
    bracket = polyval_coeffs(poly, np.concatenate((1j * k, 1j * -k)))
    integrand = damped * bracket[: len(k)] + damped * bracket[len(k):]
    return complex(np.sum(rule.weights[half:] * integrand)) / _SQRT2PI


def umbral_operator_transform(
    symbol: FourierSymbol,
    a: Sequence,
    x: float,
    rho: float | None = None,
) -> complex:
    """F(d/da^) f(x) for f the ordinary generating function of a:

    (1/sqrt(2 pi)) integral F~(k) / (1 - i k x) f(x / (1 - i k x)) dk.

    The shift e^{ik d/da^} sends a^ to a^ + ik, which puts 1 - ikx in the
    denominator; the printed 1 + ikx agrees only for even symbols.  Given the
    growth rate rho of the terms (|a_n| <= M rho^n), an x outside the series
    radius 1/rho raises DivergenceError.
    """
    if rho is not None and rho * abs(x) >= 1.0:
        raise DivergenceError(f"rho |x| = {rho * abs(x):g} >= 1: outside the series radius")
    coeffs = [complex(t) for t in a.terms]

    def g(k):
        den = 1.0 - 1j * k * x
        return symbol.envelope(k) * polyval_coeffs(coeffs, x / den) / den

    res = gaussian_fourier_integral(symbol.gauss_coeff, g)
    return res.value / _SQRT2PI
