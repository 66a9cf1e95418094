"""Exact semiclassical perturbation series for 1D anharmonic oscillators.

The package computes the coefficients of the energy expansion
E = sum_k E_k hbar^k for a particle in a polynomial well with a simple
quadratic minimum, keeping the quantum number and the coupling constant
as formal symbols so a single run covers the ground state and every
excitation.  All series work is exact rational arithmetic; a separate
oracle module cross-checks the truncated sums against direct numerical
diagonalization.
"""

__version__ = "0.1.0"

from .engine import (
    CTable,
    EnergySeries,
    PotentialError,
    PotentialSpec,
    c0_row,
    energy_coefficient,
    evaluate_energy,
    expand,
    first_power_identity_failure,
    laurent_row,
)
from .harmonic import (
    DSequence,
    NodePolynomial,
    crosscheck_with_engine,
    d_sequence,
    hermite_ratio_check,
    reconstruct_polynomial,
)
from .polys import LAM, N, ONE, ZERO, BiPoly, parse_rational

__all__ = [
    "BiPoly",
    "CTable",
    "DSequence",
    "EnergySeries",
    "LAM",
    "N",
    "NodePolynomial",
    "ONE",
    "PotentialError",
    "PotentialSpec",
    "ZERO",
    "c0_row",
    "crosscheck_with_engine",
    "d_sequence",
    "energy_coefficient",
    "evaluate_energy",
    "expand",
    "first_power_identity_failure",
    "hermite_ratio_check",
    "laurent_row",
    "parse_rational",
    "reconstruct_polynomial",
]
