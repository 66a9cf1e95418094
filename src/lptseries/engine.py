"""Semiclassical energy series for one-dimensional anharmonic oscillators.

The bound-state problem for

    V(x) = (1/2) m omega^2 x^2  +  sum_{i>=1} f_i x^(i+2),      V(0) = V'(0) = 0

is solved order by order in Planck's constant.  Working with the
logarithmic derivative C(x) = hbar U'(x)/U(x) instead of the wavefunction
U turns the Schroedinger equation into a Riccati equation; inserting the
power series E = sum_k E_k hbar^k and C = sum_k C_k(x) hbar^k decouples it
into one first-order relation per power of hbar.

Near the minimum, C_0(x) = -sqrt(2 m V(x)) is x times a power series and
every higher order C_k(x) has a pole of order 2k-1 at x = 0, so it is
carried as a Laurent row: C_k(x) = x^(1-2k) * sum_i C[k][i] x^i.  Matching
powers of x gives a triangular recursion over the rows.  Node counting --
the contour integral of C around the origin counts the zeros of the
wavefunction -- pins the residue of each row: the coefficient at index
2k-2 equals n for k = 1 and 0 for every later row.  That single condition
injects the quantum number and makes the same recursion valid for the
ground state and all excitations.  The slot index 2k-2 that the recursion
skips is exactly where the energy coefficient E_k is read off instead.

Everything here is exact rational arithmetic on `BiPoly` values; the only
divisions are by the nonzero scalars 2*m*omega and 2*m, so no computation
ever leaves the polynomial ring.

Depth bookkeeping: producing E_1..E_K consumes row entries up to index
2K-2 and no further, because the energy readout at order k stops at index
2k-2 while the row recursion at index i only consumes indices <= i from
earlier rows and < i from its own row.  Hence the whole computation is
the finite triangle rows 0..K by indices 0..2K-2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .polys import ONE, ZERO, BiPoly, N, Pair, Scalar, _as_fraction, mirror_pairs


class PotentialError(ValueError):
    """The potential does not describe a simple quadratic minimum."""


class TableError(RuntimeError):
    """A recursion step was invoked before its prerequisites were built."""


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial oscillator potential, all parameters exact.

    ``terms`` holds the anharmonic part as pairs ``(i, f_i)`` where
    ``f_i`` (a polynomial in ``lam`` only) multiplies ``x^(i+2)``.
    """

    m: Fraction
    omega: Fraction
    terms: tuple[tuple[int, BiPoly], ...] = ()

    @staticmethod
    def make(
        m: Scalar,
        omega: Scalar,
        f: Mapping[int, BiPoly | Scalar] | None = None,
    ) -> "PotentialSpec":
        """Build a spec from loose inputs (ints, Fractions, BiPoly values)."""
        coeffs = []
        for i, value in sorted((f or {}).items()):
            poly = value if isinstance(value, BiPoly) else BiPoly.constant(value)
            coeffs.append((int(i), poly))
        return PotentialSpec(_as_fraction(m), _as_fraction(omega), tuple(coeffs))

    def f(self, i: int) -> BiPoly:
        """Coefficient of x^(i+2); zero when absent."""
        for j, poly in self.terms:
            if j == i:
                return poly
        return ZERO

    @property
    def max_power(self) -> int:
        """Largest anharmonic index i with a nonzero coefficient."""
        return max((i for i, _ in self.terms), default=0)

    @property
    def is_harmonic(self) -> bool:
        return not self.terms

    @property
    def is_even(self) -> bool:
        """True when V(-x) = V(x), i.e. no odd power of x appears."""
        return all(i % 2 == 0 for i, _ in self.terms)


def validate_potential(spec: PotentialSpec) -> PotentialSpec:
    """Check the minimum is simple and return the spec in canonical form.

    Rejects m <= 0, omega <= 0 (a flat minimum has no oscillator expansion
    point) and any anharmonic coefficient that involves the symbol ``n``.
    Explicitly-zero coefficients are dropped and indices sorted, so equal
    potentials validate to structurally equal specs.
    """
    if spec.m <= 0:
        raise PotentialError(f"mass must be positive, got {spec.m}")
    if spec.omega <= 0:
        raise PotentialError(
            f"frequency must be positive, got {spec.omega}: "
            "the potential needs a simple quadratic minimum"
        )
    coeffs = []
    for i, poly in sorted(spec.terms):
        if not isinstance(i, int) or i < 1:
            raise PotentialError(f"anharmonic index must be an integer >= 1, got {i}")
        if not poly.is_lam_only():
            raise PotentialError(
                f"coefficient of x^{i + 2} must not involve the quantum number n"
            )
        if poly:
            coeffs.append((i, poly))
    return PotentialSpec(spec.m, spec.omega, tuple(coeffs))


@dataclass
class CTable:
    """Triangular table of Laurent rows C[k][i] for k = 0..order.

    Row k holds the coefficients of x^(1-2k) * sum_i C[k][i] x^i.  Rows are
    appended in order during construction and treated as read-only after.
    """

    order: int
    i_max: int
    rows: list[list[BiPoly]] = field(default_factory=list)


def c0_row(spec: PotentialSpec, i_max: int) -> list[BiPoly]:
    """Leading-order row: series coefficients of -sqrt(2 m V(x)) / x.

    The minus branch of the square root is the one that decays at both
    ends of the well.  Squaring the ansatz and matching powers of x gives

        C[0][0] = -m*omega
        C[0][i] = (sum_{p=1}^{i-1} C[0][p] C[0][i-p] - 2 m f_i) / (2 m omega)
    """
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    two_m_omega = 2 * spec.m * spec.omega
    minus_two_m = BiPoly.constant(-2 * spec.m)
    row = [BiPoly.constant(-spec.m * spec.omega)]
    for i in range(1, i_max + 1):
        doubled, once = mirror_pairs(row, i, lo=1)
        once.append((spec.f(i), minus_two_m))
        row.append(BiPoly.dot(once, doubled).scale_div(two_m_omega))
    return row


def _cross_pairs(
    rows: list[list[BiPoly]], k: int, i: int, lo: int
) -> tuple[list[Pair], list[Pair]]:
    """``sum_{j=lo}^{k-lo} sum_{p=0}^{i} C[j][p] C[k-j][i-p]`` as ``(doubled, once)``.

    The term (j, p) equals the term (k-j, i-p), so each pair of rows
    j < k-j is listed once, in ``doubled``; the middle row j = k/2 is
    folded the same way in p by ``mirror_pairs``.
    """
    doubled = [
        (rows[j][p], rows[k - j][i - p])
        for j in range(lo, (k + 1) // 2)
        for p in range(i + 1)
    ]
    once: list[Pair] = []
    if k % 2 == 0 and lo <= k // 2:
        mid_doubled, once = mirror_pairs(rows[k // 2], i)
        doubled += mid_doubled
    return doubled, once


def laurent_row(
    k: int,
    table: CTable,
    spec: PotentialSpec,
    parity_shortcut: bool = False,
) -> CTable:
    """Append row k to the table.

    For i != 2k-2 the power-matching recursion gives

        C[k][i] = -[ (3-2k+i) C[k-1][i]
                     + sum_{j=1}^{k-1} sum_{p=0}^{i} C[j][p] C[k-j][i-p]
                     + 2 sum_{p=1}^{i} C[0][p] C[k][i-p] ] / (2 C[0][0])

    filled in ascending i, so the same-row sum only touches entries already
    present.  The skipped slot i = 2k-2 is the residue of C_k(x) at the
    origin; node counting fixes it to n for k = 1 and 0 afterwards.

    Each cell is one call of the shared kernel ``BiPoly.dot``.  The
    cross-row products come from ``_cross_pairs``, which folds the
    j <-> k-j mirror: each pair of rows is multiplied once and the partial
    sum is doubled once per cell.  The same-row products carry the factor
    2 already, so they join the doubled part.

    With ``parity_shortcut`` and an even potential, odd-index entries are
    zero by symmetry and are stored without evaluating the recursion; the
    result is identical to the generic path.
    """
    if k < 1:
        raise TableError(f"row index must be >= 1, got {k}")
    if len(table.rows) != k:
        raise TableError(
            f"row {k} requested but only rows 0..{len(table.rows) - 1} are built"
        )
    two_m_omega = 2 * spec.m * spec.omega  # equals -2*C[0][0]
    c0 = table.rows[0]
    skip_odd = parity_shortcut and spec.is_even
    row: list[BiPoly] = []
    for i in range(table.i_max + 1):
        if i == 2 * k - 2:
            row.append(N if k == 1 else ZERO)
            continue
        if skip_odd and i % 2 == 1:
            row.append(ZERO)
            continue
        doubled, once = _cross_pairs(table.rows, k, i, lo=1)
        doubled += [(c0[p], row[i - p]) for p in range(1, i + 1)]
        once.append((table.rows[k - 1][i], BiPoly.constant(3 - 2 * k + i)))
        row.append(BiPoly.dot(once, doubled).scale_div(two_m_omega))
    table.rows.append(row)
    return table


def energy_coefficient(k: int, table: CTable, spec: PotentialSpec) -> BiPoly:
    """Energy coefficient E_k read off at the residue slot i = 2k-2:

    2 m E_k = -C[k-1][2k-2] - sum_{j=0}^{k} sum_{p=0}^{2k-2} C[j][p] C[k-j][2k-2-p]
    """
    slot = 2 * k - 2
    if k < 1 or len(table.rows) <= k or len(table.rows[k]) <= slot:
        raise TableError(f"energy order {k} requested from an incomplete table")
    doubled, once = _cross_pairs(table.rows, k, slot, lo=0)
    once.append((table.rows[k - 1][slot], ONE))
    return BiPoly.dot(once, doubled).scale_div(-2 * spec.m)


@dataclass(frozen=True)
class EnergySeries:
    """Coefficients of E = sum_{k>=1} E_k hbar^k for one potential.

    ``e[k]`` multiplies hbar^k; ``e[0]`` is zero because the potential is
    normalized to V = 0 at the minimum.
    """

    order: int
    e: tuple[BiPoly, ...]
    spec: PotentialSpec

    def coefficient(self, k: int) -> BiPoly:
        if not 0 <= k <= self.order:
            raise ValueError(f"order {k} outside 0..{self.order}")
        return self.e[k]


def expand(
    spec: PotentialSpec,
    order: int,
    parity_shortcut: bool = False,
) -> tuple[CTable, EnergySeries]:
    """Build the full coefficient triangle and energy series to ``order``.

    Validates the potential, lays down the leading row to index
    i_max = 2*order - 2, then alternates: extend one Laurent row, read one
    energy coefficient.
    """
    spec = validate_potential(spec)
    if order < 1:
        raise ValueError(f"expansion order must be >= 1, got {order}")
    i_max = 2 * order - 2
    table = CTable(order=order, i_max=i_max, rows=[c0_row(spec, i_max)])
    energies = [ZERO]
    for k in range(1, order + 1):
        laurent_row(k, table, spec, parity_shortcut=parity_shortcut)
        energies.append(energy_coefficient(k, table, spec))
    return table, EnergySeries(order=order, e=tuple(energies), spec=spec)


def first_power_identity_failure(
    table: CTable, series: EnergySeries, spec: PotentialSpec
) -> tuple[int, int] | None:
    """Self-consistency sweep over the whole triangle.

    The recursion and the energy readout both derive from one identity per
    power of x:

        (3-2k+i) C[k-1][i] + sum_{j=0}^{k} sum_{p=0}^{i} C[j][p] C[k-j][i-p]
            = -2 m E_k * [i == 2k-2]

    This re-checks it for every k = 1..order and i = 0..i_max, including
    the residue slots the row recursion never computed.  Returns the first
    failing (k, i), or None when every identity holds.

    The sums go through the same kernel and pair listing as the recursion
    (``BiPoly.dot``, ``_cross_pairs``), so this checks that the table is
    consistent with its own identities; it is not an independent method.
    An independent exact check needs a method that shares no logic with
    the recursion, such as hypervirial plus Hellmann-Feynman perturbation
    theory.
    """
    for k in range(1, table.order + 1):
        minus_two_m_ek = series.e[k] * (-2 * spec.m)
        for i in range(table.i_max + 1):
            doubled, once = _cross_pairs(table.rows, k, i, lo=0)
            once.append((table.rows[k - 1][i], BiPoly.constant(3 - 2 * k + i)))
            expected = minus_two_m_ek if i == 2 * k - 2 else ZERO
            if BiPoly.dot(once, doubled) != expected:
                return (k, i)
    return None


def verify_power_identity(
    table: CTable, series: EnergySeries, spec: PotentialSpec
) -> bool:
    """True iff the power-matching identity holds across the whole table."""
    return first_power_identity_failure(table, series, spec) is None


def evaluate_energy(
    series: EnergySeries,
    n_value: int,
    lam_value: Scalar,
    hbar_value: Scalar,
    truncate_at: int,
) -> tuple[Fraction, list[Fraction]]:
    """Exact partial sum sum_{k=1}^{truncate_at} E_k(n, lam) hbar^k.

    Returns the sum and the individual terms; ``terms[k]`` is the hbar^k
    contribution (``terms[0]`` is zero).
    """
    if not 1 <= truncate_at <= series.order:
        raise ValueError(
            f"truncation order {truncate_at} outside 1..{series.order}"
        )
    if n_value < 0:
        raise ValueError(f"level must be a nonnegative integer, got {n_value}")
    hbar = _as_fraction(hbar_value)
    terms = [Fraction(0)]
    for k in range(1, truncate_at + 1):
        terms.append(series.e[k].evaluate(n_value, lam_value) * hbar**k)
    return sum(terms, Fraction(0)), terms
