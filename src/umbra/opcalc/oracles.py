"""Independent oracles for the quadrature operations.

Each quadrature claim is checked against a second route that never touches the
Fourier representation: Taylor sums of operators applied action by action,
matrix exponentials, spectral decomposition for the 2x2 case, plain series for the
evolution solutions, and exact-rational double sums for the umbral transform.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, inf, lgamma, sqrt
from typing import Callable, Sequence as SequenceABC

import numpy as np

from ..errors import InvalidParameterError, TruncationError
from ..seqcore import Sequence, _egf_product
from ..specfun import FACTORIAL_DEGREE_MAX, polyval_coeffs, tricomi_series
from .operators import OperatorTerm, apply_operator, coefficients, polynomial
from .quadrature import factorials


#: apply_entire_function sums at most this many Taylor orders and stops once
#: four consecutive terms fall below _TAYLOR_RTOL times the running total
_TAYLOR_TERMS = 160
_TAYLOR_RTOL = 1e-18


def apply_entire_function(
    taylor: Callable[[int], complex],
    terms: list[OperatorTerm],
    coeffs,
    x: complex,
) -> complex:
    """sum_j taylor(j) (A^j f)(x): Taylor sum of f(A) applied to a polynomial,
    A the sum of the eps^0 terms.

    The Taylor terms must decay for the configured operator/symbol pair (Gaussian symbols
    against the small parameters used in the tests); summation stops after the
    terms stay negligible for several consecutive orders.
    """
    state = polynomial(coeffs)
    total = 0j
    quiet = 0
    for j in range(_TAYLOR_TERMS):
        t = taylor(j)
        if t:
            top = max((degree for _, degree in state), default=0)
            term = complex(t) * complex(polyval_coeffs(coefficients(state, top + 1), x))
            total += term
            if abs(term) < _TAYLOR_RTOL * max(abs(total), 1e-30):
                quiet += 1
            else:
                quiet = 0
            if quiet >= 4 and j > 8:
                break
        state = apply_operator(terms, state, 0)
    return total


def pauli_argument_matrix(omega_mag: float) -> np.ndarray:
    """M = Omega sigma+ + Omega* sigma- with Omega = i |Omega|; Hermitian, eigenvalues +-|Omega|."""
    return np.array([[0.0, 1j * omega_mag], [-1j * omega_mag, 0.0]], dtype=complex)


def pauli_spectral(f: Callable[[float], complex], omega_mag: float) -> np.ndarray:
    """f(M) by spectral decomposition of the Hermitian argument matrix."""
    M = pauli_argument_matrix(omega_mag)
    eigvals, eigvecs = np.linalg.eigh(M)
    return eigvecs @ np.diag([f(v) for v in eigvals]) @ eigvecs.conj().T


def tricomi_evolution_series(x: float, tau: float) -> float:
    """Series solution e^{-tau D^{-2}} 1 = sum_m (-tau)^m x^{2m} / (m! (2m)!)."""
    total, term, m = 0.0, 1.0, 0
    while True:
        total += term
        m += 1
        term *= -tau * x * x / (m * (2 * m) * (2 * m - 1))
        if abs(term) < 1e-16 * max(abs(total), 1e-30) and m > 4:
            return total
        if m > 500:
            raise InvalidParameterError("series solution failed to converge")


# integro_matrix_oracle's switch from the Taylor sum to the eigensystem: against
# the route (|x|, tau <= 1/2; m = 2 at degree 40, m = 4 at 81) the Taylor sum is
# within 7e-16 below it, the eigensystem within 1.9e-11 above; at m = 4 the
# Taylor terms cancel 7e10-fold by 0.05, the eigensystem loses 2e-10 at 0.03.
ORACLE_TAYLOR_BETA = 0.04
ORACLE_TAYLOR_ORDERS = 400

@lru_cache(maxsize=None)
def _unit_eigensystem(n_basis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the symmetric tridiagonal matrix with zero
    diagonal and off-diagonals sqrt(n), n = 1 .. n_basis - 1, with log n! for
    n < n_basis; all read-only.  The matrix with off-diagonals sqrt(n beta) is
    sqrt(beta) times this one, so every beta shares it."""
    off = np.sqrt(np.arange(1.0, n_basis))
    eigvals, eigvecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    log_fact = np.array([lgamma(n + 1.0) for n in range(n_basis)])
    for table in (eigvals, eigvecs, log_fact):
        table.flags.writeable = False
    return eigvals, eigvecs, log_fact


@lru_cache(maxsize=None)
def _nilpotent_tables(n_basis: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The factor table and gather index of the beta = 0 Taylor sum (read-only, shared).

    G = LD takes e_d to d e_{d-1}, so order k of e^{-tau G^m} takes source d to
    target d - mk by the factors d - mk + m, ..., d - mk + 1, then -tau, then
    1/k.  numpy divides a + bi by k as (a + b 0) / k + (b - a 0) / k i, which
    is a product with 1/k - 0i, signed zeros included.  Column d holds source
    d's factors down the rows, order after order, with 0 in the -tau rows and
    in row 0, which takes the coefficients; column n_basis is a zero source
    for the targets no source reaches.  gather[k, i] is the flat position,
    in the running product down the rows, of order k's term on target i.
    """
    orders, width = (n_basis - 1) // m, m + 2
    source = np.arange(n_basis + 1.0)
    table = np.zeros((orders * width + 1, n_basis + 1), dtype=complex)
    for k in range(1, orders + 1):
        row = (k - 1) * width + 1
        for j in range(m):
            table[row + j] = source - (m * (k - 1) + j)
        table[k * width] = complex(1.0 / k, -0.0)
    k, target = np.ix_(np.arange(orders + 1), np.arange(n_basis))
    gather = k * width * (n_basis + 1) + np.minimum(target + m * k, n_basis)
    for array in (table, gather):
        array.flags.writeable = False
    return table, gather


def _nilpotent_sum(e_coeffs: np.ndarray, m: int, tau: float) -> np.ndarray:
    """e^{-tau LD^m} e at beta = 0, the finite Taylor sum taken in one pass.

    Bit for bit the loop that applies G^m, then -tau, then 1/k, order by order,
    and adds each term to the total until a term is all zero: every source's
    chain of factors in one multiply.accumulate, each order's terms gathered
    onto their targets, and the orders summed in sequence by one add.accumulate.
    """
    n_basis = len(e_coeffs)
    table, gather = _nilpotent_tables(n_basis, m)
    work = table.copy()
    work[m + 1 :: m + 2] = -tau
    work[0, :n_basis] = e_coeffs
    # in place: a second table-sized array costs more than the products at degree 170
    np.multiply.accumulate(work, axis=0, out=work)
    terms = work.ravel()[gather]
    # the loop stops at the first order whose terms are all zero, adding none of it
    live = terms[1:].any(axis=1)
    orders = 1 + (int(np.argmin(live)) if not live.all() else len(live))
    return np.add.accumulate(terms[:orders], axis=0)[-1]


def integro_matrix_oracle(
    f_ord_coeffs: SequenceABC[complex],
    beta: float,
    m: int,
    tau: float,
    x: float,
    degree_cap: int,
) -> complex:
    """e^{-tau (LD + beta D^{-1})^m} f on the basis of degrees <= degree_cap;
    coefficients of f past the cap are dropped.

    Worked in the basis e_n = x^n / n!, where LD shifts down with factor n and
    D^{-1} shifts up with factor 1: the generator G is bidiagonal.  Three
    regimes:
    - beta = 0: G = LD is nilpotent and the Taylor sum of e^{-tau G^m} is
      finite; it is taken in one pass (_nilpotent_sum).
    - 0 < beta < ORACLE_TAYLOR_BETA: the Taylor sum, order by order.  It
      raises TruncationError when it does not converge within
      ORACLE_TAYLOR_ORDERS orders or when its largest term exceeds the result
      1e6-fold.
    - beta >= ORACLE_TAYLOR_BETA: G is similar, via the diagonal scaling
      s_n = sqrt(beta^n / n!), to a symmetric tridiagonal matrix with
      off-diagonals sqrt(n beta).  Its eigensystem is numerically benign and
      exp(-tau lambda^m) <= 1 for even m, unlike the raw monomial-basis
      matrix whose dense expm overflows.  For small beta that scaling
      amplifies rounding by up to beta^{-degree_cap/2}, hence the Taylor sum
      below the switch.
    A negative, NaN or infinite beta or tau, or m < 1, raises
    InvalidParameterError.  A degree cap past FACTORIAL_DEGREE_MAX raises
    TruncationError before any work: the basis scaling n! must fit a double.
    """
    if not 0 <= beta < inf:  # NaN fails too
        raise InvalidParameterError("oracle implemented for finite beta >= 0")
    if not 0 <= tau < inf:
        raise InvalidParameterError("oracle needs a finite tau >= 0")
    if m < 1:
        raise InvalidParameterError("oracle needs a power m >= 1 of the generator")
    if degree_cap > FACTORIAL_DEGREE_MAX:
        raise TruncationError(
            f"degree cap {degree_cap}: the basis x^n/n! scales coefficient n by n!, "
            f"which must fit a double (degree cap <= {FACTORIAL_DEGREE_MAX})"
        )
    n_basis = degree_cap + 1
    coeffs = np.asarray(list(f_ord_coeffs)[:n_basis], dtype=complex)
    fact = factorials(n_basis)
    e_coeffs = np.zeros(n_basis, dtype=complex)
    e_coeffs[: len(coeffs)] = coeffs * fact[: len(coeffs)]

    if beta == 0:
        evolved_e = _nilpotent_sum(e_coeffs, m, tau)
    elif beta < ORACLE_TAYLOR_BETA:
        down = np.arange(1, n_basis, dtype=complex)
        total = e_coeffs.copy()
        term, spare = e_coeffs.copy(), np.empty_like(e_coeffs)
        peak = 0.0
        for k in range(1, ORACLE_TAYLOR_ORDERS + 1):
            for _ in range(m):
                # spare = G term: down with factor n, up with factor beta
                np.multiply(term[1:], down, out=spare[:-1])
                spare[-1] = 0
                np.multiply(beta, term[:-1], out=term[:-1])
                spare[1:] += term[:-1]
                term, spare = spare, term
            np.multiply(term, -tau, out=term)
            np.divide(term, k, out=term)
            total += term
            size = np.abs(term).max()
            peak = max(peak, size)
            if size <= 1e-17 * np.abs(total).max():
                break
        else:
            raise TruncationError(
                f"Taylor sum of e^(-tau G^{m}) not converged in {ORACLE_TAYLOR_ORDERS} orders "
                f"(beta = {beta:g}, tau = {tau:g}, degree cap {degree_cap})"
            )
        # rounding in the largest term survives the cancellation down to the sum
        if peak > 1e6 * np.max(np.abs(total)):
            raise TruncationError(
                f"Taylor sum of e^(-tau G^{m}) cancels {peak / np.max(np.abs(total)):.1e}-fold "
                f"(beta = {beta:g}, tau = {tau:g}, degree cap {degree_cap})"
            )
        evolved_e = total
    else:
        unit_vals, eigvecs, log_fact = _unit_eigensystem(n_basis)
        eigvals = sqrt(beta) * unit_vals
        # log-scale the similarity transform to dodge under/overflow
        log_s = 0.5 * (np.arange(n_basis) * np.log(beta) - log_fact)
        d = e_coeffs * np.exp(-log_s)
        # lambda is clipped where lambda^m passes 2^1023: e^{-tau lambda^m} is 0 there (tau > 1e-305)
        cap = 2.0 ** (1023 / m)
        decay = np.exp(-tau * np.clip(eigvals, -cap, cap) ** m)
        d = eigvecs @ (decay * (eigvecs.T @ d))
        evolved_e = d * np.exp(log_s)

    # Horner on Python scalars: numpy scalar arithmetic is several times slower
    return complex(polyval_coeffs((evolved_e / fact).tolist(), x))


def c0_series(order: int):
    """Exact ordinary coefficients of the 0-th Tricomi-Bessel function."""
    return tricomi_series(0, order)


def umbral_double_sum(taylor: SequenceABC[Fraction], a: Sequence, x: float) -> complex:
    """umbral_double_sums at the one x."""
    return umbral_double_sums(taylor, a, (x,))[0]


def umbral_double_sums(taylor: SequenceABC[Fraction], a: Sequence, xs: SequenceABC[float]) -> list[complex]:
    """sum_n x^n sum_{m<=n} c_m n!/(n-m)! a_{n-m} at each x, optimally truncated.

    The outer series is asymptotic (inner values grow super-geometrically);
    inner sums are done in exact rational arithmetic to dodge cancellation and
    the outer sum stops at its smallest term, the standard superasymptotic
    truncation.  With the narrow symbols used in tests the smallest term is
    far below every tolerance in play.  Inner sums: sum_m C(n,m) (c_m m!) a_{n-m},
    taken once for all x.
    """
    left = [Fraction(taylor[m]) * factorial(m) if m < len(taylor) else 0 for m in range(len(a))]
    inner = [float(v) for v in _egf_product(left, a.terms).terms]
    sums = []
    for x in xs:
        terms = [v * x ** n for n, v in enumerate(inner)]
        if len(terms) > 3:
            cut = min(range(2, len(terms)), key=lambda n: abs(terms[n]))
        else:
            cut = len(terms) - 1
        sums.append(complex(sum(terms[: cut + 1])))
    return sums
