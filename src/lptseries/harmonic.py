"""Closed-form solution of the pure oscillator, used as an exactness check.

With m = omega = hbar = 1 and no anharmonic terms, every Laurent row of
the logarithmic derivative collapses to a single residue: C_0(x) = -x and
C_k(x) = d_k x^(1-2k), where the residues obey the quadratic recursion

    d_1 = n,        2 d_k = (3-2k) d_{k-1} + sum_{j=1}^{k-1} d_j d_{k-j}.

Integrating -x gives the Gaussian factor of the eigenfunction; the rest
is the node polynomial P_n with P_n'/P_n = sum_k d_k x^(1-2k) at large x.
Writing P_n(x) = x^sigma * sum_{i=0}^{m0} a_i x^(2i) (sigma the parity of
n, n = 2*m0 + sigma) turns that relation into a triangular linear system
for the a_i, and consecutive coefficients end up in the Hermite-polynomial
ratio -- so the recursion machinery provably restores the textbook
eigenfunctions, not just the spectrum.

Note the Laurent series of P_n'/P_n does not terminate for n >= 2 (for
n = 2, d_3 = 1/2 and every later residue is nonzero); only d_2 .. d_{m0+1}
enter the reconstruction, and only n = 0, 1 have all residues beyond d_1
vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import CTable, PotentialSpec, expand
from .polys import ZERO, BiPoly, N, mirror_pairs


@dataclass(frozen=True)
class DSequence:
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
        doubled, once = mirror_pairs(d, k, lo=1)
        once.append((d[k - 1], BiPoly.constant(3 - 2 * k)))
        d.append(BiPoly.dot(once, doubled).scale_div(2))
    return DSequence(order=order, d=tuple(d))


@dataclass(frozen=True)
class NodePolynomial:
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


def crosscheck_with_engine(order: int, table: CTable | None = None) -> bool:
    """Check the generic recursion reproduces the closed-form residues.

    Builds the harmonic table (m = omega = 1) with the full engine, unless
    the caller passes that table already built to ``order``, and demands
    every row k = 1..order is the single term d_k at index 0.
    """
    if table is None:
        table, _series = expand(PotentialSpec.make(1, 1), order)
    ds = d_sequence(order)
    for k in range(1, order + 1):
        if table.rows[k][0] != ds.d[k]:
            return False
        if any(table.rows[k][i] for i in range(1, table.i_max + 1)):
            return False
    return True
