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

from fractions import Fraction
from typing import Mapping, NamedTuple

from .polys import ZERO, BiPoly, N, Pair, Scalar, _as_fraction

# Largest expansion order `expand` accepts.  Cost grows about as K^6.7 and
# quartic K=60 already takes 122 s on a 2-vCPU host, so a mistyped order
# such as 200 would run for days before printing anything.
MAX_ORDER = 100


class PotentialError(ValueError):
    """The potential does not describe a simple quadratic minimum."""


class TableError(RuntimeError):
    """A recursion step was invoked before its prerequisites were built."""


class _PotentialFields(NamedTuple):
    m: Fraction
    omega: Fraction
    terms: tuple[tuple[int, BiPoly], ...] = ()


class PotentialSpec(_PotentialFields):
    """Polynomial oscillator potential, all parameters exact.

    ``terms`` holds the anharmonic part as pairs ``(i, f_i)`` where
    ``f_i`` (a polynomial in ``lam`` only) multiplies ``x^(i+2)``.

    Construction checks and canonicalizes, so every instance describes a
    simple quadratic minimum: m > 0 and omega > 0 as Fractions, each index
    an integer >= 1 given once, no coefficient involving ``n``.  Scalar
    coefficients become constants, zero ones are dropped and indices
    sorted, so equal potentials are equal specs.  Anything else raises
    `PotentialError`, also from ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, m: Scalar, omega: Scalar, terms: tuple = ()) -> PotentialSpec:
        m, omega = _as_fraction(m), _as_fraction(omega)
        if m <= 0:
            raise PotentialError(f"mass must be positive, got {m}")
        if omega <= 0:
            raise PotentialError(
                f"frequency must be positive, got {omega}: "
                "the potential needs a simple quadratic minimum"
            )
        polys: dict[int, BiPoly] = {}
        for i, value in terms:
            if not isinstance(i, int) or i < 1:
                raise PotentialError(f"anharmonic index must be an integer >= 1, got {i}")
            if i in polys:
                raise PotentialError(f"anharmonic index {i} given twice")
            poly = value if isinstance(value, BiPoly) else BiPoly.constant(value)
            if not poly.is_lam_only():
                raise PotentialError(
                    f"coefficient of x^{i + 2} must not involve the quantum number n"
                )
            polys[i] = poly
        return super().__new__(cls, m, omega, tuple((i, p) for i, p in sorted(polys.items()) if p))

    @classmethod
    def _make(cls, iterable) -> PotentialSpec:
        # ``_replace`` builds through ``_make``: check there too
        return cls(*iterable)

    @staticmethod
    def make(
        m: Scalar,
        omega: Scalar,
        f: Mapping[int, BiPoly | Scalar] | None = None,
    ) -> "PotentialSpec":
        """Build a spec from a mapping of index to coefficient."""
        return PotentialSpec(m, omega, tuple((f or {}).items()))

    def f(self, i: int) -> BiPoly:
        """Coefficient of x^(i+2); zero when absent."""
        return dict(self.terms).get(i, ZERO)

    @property
    def is_harmonic(self) -> bool:
        return not self.terms

    @property
    def is_even(self) -> bool:
        """True when V(-x) = V(x), i.e. no odd power of x appears."""
        return all(i % 2 == 0 for i, _ in self.terms)


class CTable:
    """Triangular table of Laurent rows C[k][i] for k = 0..order.

    Row k holds the coefficients of x^(1-2k) * sum_i C[k][i] x^i.  Rows are
    appended in order during construction and treated as read-only after.
    """

    def __init__(self, order: int, rows: list[list[BiPoly]] | None = None) -> None:
        self.order = order
        self.rows = [] if rows is None else rows

    @property
    def i_max(self) -> int:
        """Last index of every row: the readout of E_order stops at 2*order-2."""
        return 2 * self.order - 2


def c0_row(spec: PotentialSpec, i_max: int) -> list[BiPoly]:
    """Leading-order row: series coefficients of -sqrt(2 m V(x)) / x.

    The minus branch of the square root is the one that decays at both
    ends of the well.  Squaring the ansatz gives the k = 0 case of the
    power-matching identity (``_identity_pairs``), solved for C[0][i] as
    ``laurent_row`` solves row k, with C[0][i] still missing from the row:

        C[0][0] = -m*omega
        C[0][i] = (sum_{p=1}^{i-1} C[0][p] C[0][i-p] - 2 m f_i) / (2 m omega)
    """
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    two_m_omega = 2 * spec.m * spec.omega
    minus_two_m = BiPoly.constant(-2 * spec.m)
    nonzero = {0: BiPoly.constant(-spec.m * spec.omega)}
    for i in range(1, i_max + 1):
        once, doubled = _identity_pairs([nonzero], 0, i)
        once.append((spec.f(i), minus_two_m))
        if cell := BiPoly.dot(once, doubled).scale_div(two_m_omega):
            nonzero[i] = cell
    return [nonzero.get(i, ZERO) for i in range(i_max + 1)]


def _nonzero_cells(row: list[BiPoly]) -> dict[int, BiPoly]:
    """A row's nonzero cells by index, in ascending index order."""
    # ``cell._terms`` rather than ``bool(cell)``: this visits every cell of
    # the table once per row, and the method call would double its cost
    return {p: cell for p, cell in enumerate(row) if cell._terms}


def _identity_pairs(
    nonzero: list[dict[int, BiPoly]], k: int, i: int
) -> tuple[list[Pair], list[Pair]]:
    """Left side of the power-matching identity at (k, i) as ``(once, doubled)``.

    Matching powers of x in the Riccati equation at order hbar^k gives one
    identity per (k, i):

        (3-2k+i) C[k-1][i] + sum_{j=0}^{k} sum_{p=0}^{i} C[j][p] C[k-j][i-p]
            = -2 m E_k * [i == 2k-2]

    The row recursion solves it for C[k][i], the energy readout for E_k,
    and the sweep re-checks it; all three list its left side here.  At
    k = 0 (``c0_row``) there is no C[k-1] term, and the right side is
    m^2 omega^2 * [i == 0] + 2 m f_i, from C_0(x)^2 = 2 m V(x).

    ``nonzero[j]`` holds row j's nonzero cells as built by
    ``_nonzero_cells``, so only terms whose two cells are both nonzero are
    listed, and a cell missing from row k counts as zero.  The term (j, p)
    equals the term (k-j, i-p), so each pair of rows j < k-j is listed
    once, in ``doubled``; the middle row j = k/2 is folded the same way in
    p.  Feed both lists to ``BiPoly.dot``.
    """
    doubled = [
        (a, b)
        for j in range((k + 1) // 2)
        for p, a in nonzero[j].items()
        if p <= i and (b := nonzero[k - j].get(i - p)) is not None
    ]
    once: list[Pair] = []
    if k % 2 == 0:
        mid = nonzero[k // 2]
        for p, a in mid.items():
            if 2 * p >= i:
                if 2 * p == i:
                    once.append((a, a))
                break
            if (b := mid.get(i - p)) is not None:
                doubled.append((a, b))
    weight = 3 - 2 * k + i
    # at k = 0, nonzero[k - 1] would silently read the last row
    if k and weight and (previous := nonzero[k - 1].get(i)) is not None:
        once.append((previous, BiPoly.constant(weight)))
    return once, doubled


def laurent_row(k: int, table: CTable, spec: PotentialSpec) -> CTable:
    """Append row k to the table.

    For i != 2k-2 the right side of the power-matching identity
    (``_identity_pairs``) is zero, and C[k][i] enters its left side only
    as 2 C[0][0] C[k][i] = -2 m omega C[k][i].  Cells are filled in
    ascending i with row k passed in as built so far; C[k][i] is still
    missing from it, so the listed pairs sum to the rest of the left side,
    and that sum over 2 m omega is C[k][i].  The skipped slot i = 2k-2 is
    the residue of C_k(x) at the origin; node counting fixes it to n for
    k = 1 and 0 afterwards.

    Each cell is one call of the shared kernel ``BiPoly.dot``.  Only
    products of two nonzero cells are listed; the zero cells of an even
    potential's odd slots, or of the oscillator's off-residue slots, are
    never visited.
    """
    if k < 1:
        raise TableError(f"row index must be >= 1, got {k}")
    if len(table.rows) != k:
        raise TableError(
            f"row {k} requested but only rows 0..{len(table.rows) - 1} are built"
        )
    two_m_omega = 2 * spec.m * spec.omega  # equals -2*C[0][0]
    row: list[BiPoly] = []
    row_nonzero: dict[int, BiPoly] = {}
    nonzero = [_nonzero_cells(done) for done in table.rows] + [row_nonzero]
    for i in range(table.i_max + 1):
        if i == 2 * k - 2:
            cell = N if k == 1 else ZERO
        else:
            cell = BiPoly.dot(*_identity_pairs(nonzero, k, i)).scale_div(two_m_omega)
        row.append(cell)
        if cell:
            row_nonzero[i] = cell
    table.rows.append(row)
    return table


def energy_coefficient(k: int, table: CTable, spec: PotentialSpec) -> BiPoly:
    """Energy coefficient E_k from the power-matching identity
    (``_identity_pairs``) at the residue slot i = 2k-2, whose right side
    is -2 m E_k."""
    slot = 2 * k - 2
    if k < 1 or len(table.rows) <= k or len(table.rows[k]) <= slot:
        raise TableError(f"energy order {k} requested from an incomplete table")
    # the identity at i = slot reads no cell past the slot
    nonzero = [_nonzero_cells(row[: slot + 1]) for row in table.rows[: k + 1]]
    return BiPoly.dot(*_identity_pairs(nonzero, k, slot)).scale_div(-2 * spec.m)


class EnergySeries(NamedTuple):
    """Coefficients of E = sum_{k>=1} E_k hbar^k for one potential.

    ``e[k]`` multiplies hbar^k; ``e[0]`` is zero because the potential is
    normalized to V = 0 at the minimum.
    """

    order: int
    e: tuple[BiPoly, ...]


def expand(spec: PotentialSpec, order: int) -> tuple[CTable, EnergySeries]:
    """Build the full coefficient triangle and energy series to ``order``.

    Checks the order, lays down the leading row to index
    i_max = 2*order - 2, then alternates: extend one Laurent row, read one
    energy coefficient.
    """
    if order < 1:
        raise ValueError(f"expansion order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"expansion order {order} exceeds the limit of {MAX_ORDER}")
    table = CTable(order)
    table.rows.append(c0_row(spec, table.i_max))
    energies = [ZERO]
    for k in range(1, order + 1):
        laurent_row(k, table, spec)
        energies.append(energy_coefficient(k, table, spec))
    return table, EnergySeries(order=order, e=tuple(energies))


def first_power_identity_failure(
    table: CTable, series: EnergySeries, spec: PotentialSpec
) -> tuple[int, int] | None:
    """Self-consistency sweep over the whole triangle.

    Re-checks the power-matching identity (``_identity_pairs``) for every
    k = 0..order and i = 0..i_max, including the residue slots the row
    recursion never computed.  Returns the first failing (k, i), or None
    when every identity holds; a corrupted cell fails at its own (k, i).

    The sums go through the same kernel and identity helper as the
    recursion and the readout (``BiPoly.dot``, ``_identity_pairs``), so this
    checks that the table is consistent with its own identities; it is not
    an independent method.  An independent exact check needs a method that
    shares no logic with the recursion, such as hypervirial plus
    Hellmann-Feynman perturbation theory.
    """
    nonzero = [_nonzero_cells(row) for row in table.rows]
    for k in range(table.order + 1):
        for i in range(table.i_max + 1):
            if k == 0:
                expected = spec.f(i) * (2 * spec.m) + (spec.m * spec.omega) ** 2 * (i == 0)
            else:
                expected = series.e[k] * (-2 * spec.m) if i == 2 * k - 2 else ZERO
            if BiPoly.dot(*_identity_pairs(nonzero, k, i)) != expected:
                return (k, i)
    return None


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
