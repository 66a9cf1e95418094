"""Closed-form solution of the pure oscillator, used as an exactness check.

With hbar = 1 and no anharmonic terms, every Laurent row of the
logarithmic derivative collapses to a single residue: C_0(x) = -m omega x
and C_k(x) = d_k (m omega)^(1-k) x^(1-2k), where the residues obey

    d_1 = n,        2 d_k = (3-2k) d_{k-1} + sum_{j=1}^{k-1} d_j d_{k-j};

each step of the engine's recursion divides by 2 m omega where this one
divides by 2.  At m = omega = 1, integrating -x gives the Gaussian factor
of the eigenfunction; the rest is the node polynomial P_n with
P_n'/P_n = sum_k d_k x^(1-2k) at large x.  Writing P_n(x) = x^sigma *
sum_{i=0}^{m0} a_i x^(2i) (sigma the parity of n, n = 2*m0 + sigma)
turns that relation into a triangular linear system for the a_i, and
consecutive coefficients end up in the Hermite-polynomial ratio -- so
the recursion machinery provably restores the textbook eigenfunctions,
not just the spectrum.

Note the Laurent series of P_n'/P_n does not terminate for n >= 2 (for
n = 2, d_3 = 1/2 and every later residue is nonzero); only d_2 .. d_{m0+1}
enter the reconstruction, and only n = 0, 1 have all residues beyond d_1
vanish.

The residues travel as the tuple ``d = (0, d_1, ..., d_K)``, so d[k] is
d_k, and a node polynomial as its coefficients ``(a_0, ..., a_m0)``.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import CTable, PotentialSpec
from .polys import ZERO, BiPoly, N


def d_sequence(order: int) -> tuple[BiPoly, ...]:
    """``(0, d_1, ..., d_order)``, symbolic in n, from the recursion."""
    d: list[BiPoly] = [ZERO, N]
    for k in range(2, order + 1):
        # written out, not folded: the engine's independent reference
        pairs = [(d[j], d[k - j]) for j in range(1, k)]
        pairs.append((d[k - 1], BiPoly.constant(3 - 2 * k)))
        d.append(BiPoly.dot(pairs, div=2))
    return tuple(d)


def reconstruct_polynomial(n: int, d: tuple[BiPoly, ...]) -> tuple[Fraction, ...]:
    """``(a_0, ..., a_m0)`` of level n's node polynomial, with a_m0 = 1.

    Matching P_n'/P_n against the residue series gives, for m = 0..m0,

        (n - 2m - sigma) a_m + d_2 a_{m+1} + ... + d_{m0-m+1} a_{m0} = 0

    with the d_k evaluated at the integer n.  The m = m0 equation is
    0 = 0 by the choice of sigma and m0; the rest is strictly triangular,
    so back-substitution from a_{m0} = 1 determines every coefficient.
    """
    m0 = n // 2
    d_at_n = [d[k].evaluate(n, 0) for k in range(m0 + 2)]
    a = [Fraction(0)] * (m0 + 1)
    a[m0] = Fraction(1)
    for m in range(m0 - 1, -1, -1):
        tail = sum((d_at_n[t - m + 1] * a[t] for t in range(m + 1, m0 + 1)), Fraction(0))
        # n - 2m - sigma = 2*(m0 - m), never zero for m < m0
        a[m] = -tail / (2 * (m0 - m))
    return tuple(a)


def hermite_ratio_check(n: int, a: tuple[Fraction, ...]) -> bool:
    """True iff level n's coefficients ``a`` sit in the Hermite ratio

        a_m = -a_{m+1} (2m+sigma+2)(2m+sigma+1) / (4 (m0 - m))

    exactly, for every m = 0..m0-1 (sigma = n % 2, m0 = n // 2).
    """
    sigma, m0 = n % 2, n // 2
    return all(
        a[m] == -a[m + 1] * (2 * m + sigma + 2) * (2 * m + sigma + 1) / Fraction(4 * (m0 - m))
        for m in range(m0)
    )


def table_residues(table: CTable, spec: PotentialSpec) -> tuple[BiPoly, ...]:
    """``(0, d_1, ..., d_order)`` of an engine table, d_k = C[k][0]
    (m omega)^(k-1): for an oscillator, `d_sequence`'s at any m, omega."""
    m_omega = spec.m * spec.omega
    return (ZERO, *(row.get(0, ZERO) * m_omega ** (k - 1)
                    for k, row in enumerate(table.cells[1:], 1)))


def crosscheck_with_engine(table: CTable, residues: tuple[BiPoly, ...]) -> bool:
    """Check the generic recursion reproduces the closed-form residues.

    ``table`` is the engine's table for a pure oscillator and ``residues``
    its `table_residues`, which must equal `d_sequence`'s.  A cell past
    index 0, off the oscillator's index lattice {0}, is ``check``'s
    ``power-identity`` line to find.
    """
    return residues == d_sequence(table.order)
