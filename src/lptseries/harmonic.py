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
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .engine import CTable, PotentialSpec
from .polys import ZERO, BiPoly, N


class DSequence(NamedTuple):
    """Residues d_1..d_order of the oscillator log-derivative, symbolic in n."""

    order: int
    d: tuple[BiPoly, ...]  # d[k] for k = 1..order; d[0] unused (zero)

    def at_level(self, k: int, n: int) -> Fraction:
        return self.d[k].evaluate(n, 0)


def d_sequence(order: int) -> DSequence:
    """Generate d_1..d_order from the quadratic residue recursion."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    d: list[BiPoly] = [ZERO, N]
    for k in range(2, order + 1):
        # written out, not folded: the engine's independent reference
        pairs = [(d[j], d[k - j]) for j in range(1, k)]
        pairs.append((d[k - 1], BiPoly.constant(3 - 2 * k)))
        d.append(BiPoly.dot(pairs).scale_div(2))
    return DSequence(order=order, d=tuple(d))


class NodePolynomial(NamedTuple):
    """P_n(x) = x^sigma * sum_i a[i] x^(2i), normalized to a leading 1."""

    level: int
    sigma: int
    m0: int
    a: tuple[Fraction, ...]


def reconstruct_polynomial(n: int, ds: DSequence) -> NodePolynomial:
    """Solve the coefficient system of the node polynomial for level n.

    Matching P_n'/P_n against the residue series gives, for m = 0..m0,

        (n - 2m - sigma) a_m + d_2 a_{m+1} + ... + d_{m0-m+1} a_{m0} = 0

    with the d_k evaluated at the integer n.  The m = m0 equation is
    0 = 0 by the choice of sigma and m0; the rest is strictly triangular,
    so back-substitution from a_{m0} = 1 determines every coefficient.
    """
    if n < 0:
        raise ValueError(f"level must be a nonnegative integer, got {n}")
    sigma = n % 2
    m0 = (n - sigma) // 2
    if ds.order < m0 + 1:
        raise ValueError(
            f"need residues up to d_{m0 + 1} for level {n}, have {ds.order}"
        )
    d_at_n = [Fraction(0)] + [ds.at_level(k, n) for k in range(1, m0 + 2)]
    a = [Fraction(0)] * (m0 + 1)
    a[m0] = Fraction(1)
    for m in range(m0 - 1, -1, -1):
        tail = sum((d_at_n[t - m + 1] * a[t] for t in range(m + 1, m0 + 1)), Fraction(0))
        # n - 2m - sigma = 2*(m0 - m), never zero for m < m0
        a[m] = -tail / (2 * (m0 - m))
    return NodePolynomial(level=n, sigma=sigma, m0=m0, a=tuple(a))


def hermite_ratio_check(n: int, p: NodePolynomial) -> bool:
    """True iff consecutive coefficients sit in the Hermite ratio

        a_m = -a_{m+1} (2m+sigma+2)(2m+sigma+1) / (4 (m0 - m))

    exactly, for every m = 0..m0-1.
    """
    if p.level != n:
        raise ValueError(f"polynomial was built for level {p.level}, not {n}")
    for m in range(p.m0):
        expected = (
            -p.a[m + 1]
            * (2 * m + p.sigma + 2)
            * (2 * m + p.sigma + 1)
            / Fraction(4 * (p.m0 - m))
        )
        if p.a[m] != expected:
            return False
    return True


def table_residues(table: CTable, spec: PotentialSpec) -> DSequence:
    """The residues d_k = C[k][0] (m omega)^(k-1) of an engine table: for
    the pure oscillator, the closed-form d_k at every m and omega."""
    m_omega = spec.m * spec.omega
    d = [row.get(0, ZERO) * m_omega ** (k - 1)
         for k, row in enumerate(table.cells[1:], 1)]
    return DSequence(table.order, (ZERO, *d))


def crosscheck_with_engine(table: CTable, residues: DSequence) -> bool:
    """Check the generic recursion reproduces the closed-form residues.

    ``table`` is the engine's table for a pure oscillator and ``residues``
    its `table_residues`: they must be `d_sequence`'s, and rows 1..order
    must be zero past index 0.
    """
    return residues.d == d_sequence(table.order).d and all(
        row.keys() <= {0} for row in table.cells[1:]
    )
