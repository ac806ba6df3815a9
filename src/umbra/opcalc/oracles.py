"""Independent oracles for the quadrature operations.

Each quadrature claim is checked against a second route that never touches the
Fourier representation: Taylor sums of operators applied action by action,
matrix exponentials, spectral decomposition for the 2x2 case, plain series for the
evolution solutions, and exact-rational double sums for the umbral transform.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lgamma, sqrt
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
    D^{-1} shifts up with factor 1: the generator G is bidiagonal.  For
    beta > 0 it is similar, via the diagonal scaling
    s_n = sqrt(beta^n / n!), to a symmetric tridiagonal matrix with
    off-diagonals sqrt(n beta).  Its eigensystem is numerically benign and
    exp(-tau lambda^m) <= 1 for even m, unlike the raw monomial-basis matrix
    whose dense expm overflows.  For small beta that scaling amplifies
    rounding by up to beta^{-degree_cap/2}, so below ORACLE_TAYLOR_BETA the
    Taylor sum of e^{-tau G^m} is taken instead (at beta = 0, G = LD is
    nilpotent and the sum finite).  The sum raises TruncationError when it
    does not converge within ORACLE_TAYLOR_ORDERS orders or, for beta > 0,
    when its largest term exceeds the result 1e6-fold.  A degree cap past
    FACTORIAL_DEGREE_MAX raises TruncationError before any work: the basis
    scaling n! must fit a double.
    """
    if beta < 0:
        raise InvalidParameterError("oracle implemented for beta >= 0")
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

    if beta < ORACLE_TAYLOR_BETA:
        down = np.arange(1, n_basis, dtype=complex)
        total = e_coeffs.copy()
        term, spare = e_coeffs.copy(), np.empty_like(e_coeffs)
        peak = 0.0
        for k in range(1, ORACLE_TAYLOR_ORDERS + 1):
            for _ in range(m):
                # spare = G term: down with factor n, up with factor beta
                np.multiply(term[1:], down, out=spare[:-1])
                spare[-1] = 0
                if beta:
                    np.multiply(beta, term[:-1], out=term[:-1])
                    spare[1:] += term[:-1]
                term, spare = spare, term
            np.multiply(term, -tau, out=term)
            np.divide(term, k, out=term)
            if not np.count_nonzero(term):
                break  # beta = 0: LD^m is nilpotent
            total += term
            if beta:
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
