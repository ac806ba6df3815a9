"""Operator calculus via the Fourier representation.

Quadrature engine, the sparse operator engine and its exact eps-series
exponentials, the oracles built on them, series-level operators, and the
evolution/transform operations.
"""

from ..specfun import polyval_coeffs
from .fourier import (
    GridFunction,
    big_o_on_monomial,
    gaussian_shift_transform,
    heat_evolve_ft,
    integro_diff_evolve,
    integro_diff_evolve_points,
    matrix_function_pauli,
    tricomi_evolution,
    tricomi_evolution_points,
    umbral_operator_transform,
)
from .operators import OperatorTerm
from .oracles import (
    apply_entire_function,
    c0_series,
    integro_matrix_oracle,
    pauli_argument_matrix,
    pauli_spectral,
    tricomi_evolution_series,
    umbral_double_sum,
    umbral_double_sums,
)
from .quadrature import (
    FourierSymbol,
    QuadratureConvergenceWarning,
    QuadratureResult,
    QuadratureRule,
    adaptive_hermite,
    cos_gaussian_symbol,
    gauss_hermite_rule,
    gauss_weighted_integral,
    gaussian_fourier_integral,
    gaussian_fourier_rows,
    gaussian_symbol,
    gaussian_taylor,
    legendre_composite_rule,
)
from .series_ops import (
    borel_transform,
    exp_laguerre_derivative,
    exp_negD,
)

__all__ = [
    "OperatorTerm",
    "GridFunction",
    "big_o_on_monomial",
    "gaussian_shift_transform",
    "heat_evolve_ft",
    "integro_diff_evolve",
    "integro_diff_evolve_points",
    "matrix_function_pauli",
    "tricomi_evolution",
    "tricomi_evolution_points",
    "umbral_operator_transform",
    "polyval_coeffs",
    "apply_entire_function",
    "c0_series",
    "integro_matrix_oracle",
    "pauli_argument_matrix",
    "pauli_spectral",
    "tricomi_evolution_series",
    "umbral_double_sum",
    "umbral_double_sums",
    "FourierSymbol",
    "QuadratureConvergenceWarning",
    "QuadratureResult",
    "QuadratureRule",
    "adaptive_hermite",
    "cos_gaussian_symbol",
    "gauss_hermite_rule",
    "gauss_weighted_integral",
    "gaussian_fourier_integral",
    "gaussian_fourier_rows",
    "gaussian_symbol",
    "gaussian_taylor",
    "legendre_composite_rule",
    "borel_transform",
    "exp_laguerre_derivative",
    "exp_negD",
]
