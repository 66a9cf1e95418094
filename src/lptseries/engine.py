"""Semiclassical energy series for one-dimensional anharmonic oscillators.

The bound-state problem for

    V(x) = (1/2) m omega^2 x^2  +  sum_{i>=1} f_i x^(i+2),      V(0) = V'(0) = 0

is solved order by order in Planck's constant.  Working with the
logarithmic derivative C(x) = hbar U'(x)/U(x) instead of the wavefunction
U turns the Schroedinger equation into a Riccati equation; inserting the
power series E = sum_k E_k hbar^k and C = sum_k C_k(x) hbar^k decouples it
into one first-order relation per power of hbar.

The table.  C_0(x) = -sqrt(2 m V(x)) is x times a power series, and every
higher order C_k(x) has a pole of order 2k-1 at x = 0, so row k holds the
Laurent coefficients of C_k(x) = x^(1-2k) * sum_i C[k][i] x^i.  Matching
powers of x gives one power-matching identity per cell (k, i):

    (3-2k+i) C[k-1][i] + sum_{j=0}^{k} sum_{p=0}^{i} C[j][p] C[k-j][i-p] - 2 m f_i [k = 0]
        = m^2 omega^2 [k = i = 0] - 2 m E_k [i = 2k-2]

with no C[k-1] term at k = 0 and f_0 = 0; the k = 0 identities are
C_0(x)^2 = 2 m V(x).  The left side is one sum of products with integer
weights, the form `BiPoly.dot` sums (`_identity_pairs`).

One recursion for every row.  Each row has one pinned cell.  Row 0 pins
C[0][0] = -m omega, the root that decays at both ends of the well.  Row
k >= 1 pins its residue slot i = 2k-2, the residue of C_k(x) at the
origin: node counting -- the contour integral of C around the origin counts
the zeros of the wavefunction -- fixes it to n for k = 1 and to 0 for every
later row.  That single condition injects the quantum number
and makes the same recursion valid for the ground state and all
excitations; the identity at the residue slot gives E_k instead
(`energy_coefficient`).  At every other cell the right side is zero, and
C[k][i] enters the left side only as 2 C[0][0] C[k][i] = -2 m omega C[k][i].
So with a row's cells filled in ascending i and C[k][i] still missing, the
rest of the left side over 2 m omega is C[k][i].  Producing E_1..E_K
consumes indices up to 2K-2 and no further, since the readout of E_k stops
at 2k-2 and the cell at index i consumes indices <= i of earlier rows and
< i of its own: the table is the triangle rows 0..K by indices 0..2K-2.

Everything here is exact rational arithmetic on `BiPoly` values; the only
divisions are by the nonzero scalars 2 m omega and 2 m, each fused into the
reduction of the sum it divides (``BiPoly.dot``'s ``div``).

The index lattice.  Let g be the gcd of the anharmonic indices i with
f_i != 0 (g = 0 for the oscillator), and call the multiples of g up to
2K-2 the lattice (i = 0 alone when g = 0; ``PotentialSpec.lattice``).  By
induction over the identity, in k and then in i, C[k][i] = 0 at every index
i off the lattice: there every product C[j][p] C[k-j][i-p] has a factor off
the lattice, as does C[k-1][i], and f_i = 0.  At an off-lattice residue
slot the identity then reads E_k = 0, which is why the sextic's even orders
vanish.  So the recursion and the energy readout visit lattice indices
alone; the sweep also visits every cell a row stores.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, NamedTuple

from .polys import ONE, ZERO, BiPoly, N, Scalar, Term, _as_fraction

# Largest expansion order `expand` accepts.  Cost grows about as K^6.7 and
# quartic K=60 already takes 77 s on a 2-vCPU host, so a mistyped order
# such as 200 would run for days before printing anything.
MAX_ORDER = 100


class PotentialError(ValueError):
    """The potential does not describe a simple quadratic minimum."""


class _PotentialFields(NamedTuple):
    m: Fraction
    omega: Fraction
    terms: tuple[tuple[int, BiPoly], ...] = ()


class PotentialSpec(_PotentialFields):
    """Polynomial oscillator potential, all parameters exact.

    ``terms`` holds the anharmonic part as pairs ``(i, f_i)``, given as
    such or as a mapping ``{i: f_i}``, where ``f_i`` (a polynomial in
    ``lam`` only) multiplies ``x^(i+2)``.

    Construction checks and canonicalizes, so every instance describes a
    simple quadratic minimum: m > 0 and omega > 0 as Fractions, each index
    an integer >= 1 given once, no coefficient involving ``n``.  Scalar
    coefficients become constants, zero ones are dropped and indices
    sorted, so equal potentials are equal specs.  Anything else raises
    `PotentialError`, also from ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, m: Scalar, omega: Scalar, terms: Mapping | Iterable = ()) -> PotentialSpec:
        m, omega = _as_fraction(m), _as_fraction(omega)
        if m <= 0:
            raise PotentialError(f"mass must be positive, got {m}")
        if omega <= 0:
            raise PotentialError(
                f"frequency must be positive, got {omega}: "
                "the potential needs a simple quadratic minimum"
            )
        polys: dict[int, BiPoly] = {}
        for i, value in terms.items() if isinstance(terms, Mapping) else terms:
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

    def f(self, i: int) -> BiPoly:
        """Coefficient of x^(i+2); zero when absent."""
        return dict(self.terms).get(i, ZERO)

    @property
    def is_harmonic(self) -> bool:
        return not self.terms

    def lattice(self, i_max: int) -> range:
        """Indices 0..i_max where a table cell can be nonzero (module
        docstring)."""
        g = gcd(*(i for i, _ in self.terms))
        return range(0, i_max + 1, g) if g else range(1)


class CTable:
    """Triangular table of Laurent rows C[k][i] for k = 0..order, i = 0..i_max.

    Stored sparse: ``cells[k]`` maps i to C[k][i] for row k's nonzero
    cells only, as `c0_row` and `laurent_row` build them, and a missing
    cell is zero.  Rows are appended in order and read-only after.  Within
    the package only ``cells`` is read; the dense view ``rows`` is kept for
    the benchmark's tracer alone.
    """

    def __init__(self, order: int) -> None:
        self.order = order
        self.cells: list[dict[int, BiPoly]] = []

    @property
    def i_max(self) -> int:
        """Last index of every row: the readout of E_order stops at 2*order-2."""
        return 2 * self.order - 2

    @property
    def rows(self) -> list[list[BiPoly]]:
        """Dense view, built on each access: row k over 0..i_max, ``ZERO``
        where a cell is absent.  Read by the benchmark's tracer alone."""
        width = range(self.i_max + 1)
        return [[row.get(i, ZERO) for i in width] for row in self.cells]


def _identity_pairs(
    cells: list[dict[int, BiPoly]], k: int, i: int, spec: PotentialSpec
) -> list[Term]:
    """Left side of the power-matching identity at (k, i) (module docstring)
    as weighted products ``(a, b, w)``, for ``BiPoly.dot``.

    ``cells[j]`` holds row j's nonzero cells by index, in any order, as in
    ``CTable.cells``; cells past i are skipped, and row k may be built only
    up to i-1.  So only terms whose two cells are both nonzero are listed,
    and a missing cell counts as zero.  The term (j, p) equals the term
    (k-j, i-p), so each pair of rows j < k-j is listed once with w = 2, as
    is each pair p < i-p of the middle row j = k/2; its square p = i/2 has
    w = 1, and C[k-1][i] times ``ONE`` has w = 3-2k+i, listed if nonzero.
    """
    terms = [
        (a, b, 2)
        for j in range((k + 1) // 2)
        for p, a in cells[j].items()
        if p <= i and (b := cells[k - j].get(i - p)) is not None
    ]
    if k % 2 == 0:
        mid = cells[k // 2]
        terms += [
            (a, b, 2) for p, a in mid.items() if 2 * p < i and (b := mid.get(i - p)) is not None
        ]
        if i % 2 == 0 and (a := mid.get(i // 2)) is not None:
            terms.append((a, a, 1))
    # the potential enters row 0 alone; at k = 0, cells[k - 1] would read the last row
    if k == 0 and (f := spec.f(i)):
        terms.append((f, BiPoly.constant(-2 * spec.m), 1))
    elif k and (weight := 3 - 2 * k + i) and (previous := cells[k - 1].get(i)) is not None:
        terms.append((previous, ONE, weight))
    return terms


def _row(
    k: int, cells: list[dict[int, BiPoly]], spec: PotentialSpec, i_max: int
) -> dict[int, BiPoly]:
    """Row k's nonzero cells up to index i_max, given rows 0..k-1 as
    ``cells``: its pinned cell, and each other lattice cell solved from its
    identity in ascending i (module docstring)."""
    pinned = 2 * k - 2 if k else 0
    two_m_omega = 2 * spec.m * spec.omega  # equals -2*C[0][0]
    row: dict[int, BiPoly] = {}
    cells = [*cells, row]
    for i in spec.lattice(i_max):
        if i == pinned:
            # for k >= 1 the residue of C_k(x) at the origin, as node
            # counting pins it (module docstring)
            cell = (N if k == 1 else ZERO) if k else BiPoly.constant(-spec.m * spec.omega)
        else:
            cell = BiPoly.dot(_identity_pairs(cells, k, i, spec), div=two_m_omega)
        if cell:
            row[i] = cell
    return row


def c0_row(spec: PotentialSpec, i_max: int) -> dict[int, BiPoly]:
    """Row 0 up to index i_max (``CTable.cells[0]``): the series of
    -sqrt(2 m V(x)) / x."""
    return _row(0, [], spec, i_max)


def laurent_row(k: int, table: CTable, spec: PotentialSpec) -> None:
    """Append row k >= 1 to the table's ``cells``, which hold rows 0..k-1."""
    table.cells.append(_row(k, table.cells, spec, table.i_max))


def energy_coefficient(k: int, table: CTable, spec: PotentialSpec) -> BiPoly:
    """E_k, from the identity at the residue slot i = 2k-2, or zero without
    a sum where the slot is off the lattice (module docstring)."""
    slot = 2 * k - 2
    if slot not in spec.lattice(slot):
        return ZERO
    return BiPoly.dot(_identity_pairs(table.cells, k, slot, spec), div=-2 * spec.m)


class EnergySeries(NamedTuple):
    """Coefficients of E = sum_{k>=1} E_k hbar^k for one potential.

    ``e[k]`` multiplies hbar^k; ``e[0]`` is zero because the potential is
    normalized to V = 0 at the minimum.
    """

    order: int
    e: tuple[BiPoly, ...]


def expand(spec: PotentialSpec, order: int) -> tuple[CTable, EnergySeries]:
    """Build the table to ``order`` (index i_max = 2*order - 2), alternating
    one Laurent row and one energy coefficient after row 0."""
    if order < 1:
        raise ValueError(f"expansion order must be >= 1, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"expansion order {order} exceeds the limit of {MAX_ORDER}")
    table = CTable(order)
    table.cells.append(c0_row(spec, table.i_max))
    energies = [ZERO]
    for k in range(1, order + 1):
        laurent_row(k, table, spec)
        energies.append(energy_coefficient(k, table, spec))
    return table, EnergySeries(order=order, e=tuple(energies))


def first_power_identity_failure(
    table: CTable, series: EnergySeries, spec: PotentialSpec
) -> tuple[int, int] | None:
    """The first (k, i), in ascending k and then i, at which the identity
    (module docstring) fails on the table and series, or None.

    Row k's identities are summed at every lattice index and at every
    index the row stores, the pinned cells included.  A stored cell
    C[k][i] first enters the identities at its own (k, i), as
    2 C[0][0] C[k][i], so the first corrupted cell in that order fails
    there: off the lattice and past i_max too.  Elsewhere the left side is
    zero on a table the recursion built, so there only the residue slot is
    checked, where the identity reads E_k = 0.

    The sums share ``_identity_pairs`` and ``BiPoly.dot`` with the
    recursion, so this checks the table against its own identities, not by
    an independent method such as hypervirial plus Hellmann-Feynman
    perturbation theory.
    """
    lattice = spec.lattice(table.i_max)
    for k in range(table.order + 1):
        row, slot = table.cells[k], 2 * k - 2
        # an off-lattice residue slot is visited too: there the identity reads
        # E_k = 0; row 0's slot -2 holds no cell, and E_0 = 0
        for i in sorted({*lattice, *row, slot}):
            expected = (series.e[k] * (-2 * spec.m) if i == slot
                        else (spec.m * spec.omega) ** 2 if k == i == 0 else ZERO)
            left = (BiPoly.dot(_identity_pairs(table.cells, k, i, spec))
                    if i in lattice or i in row else ZERO)
            if left != expected:
                return (k, i)
    return None


def evaluate_energy(series: EnergySeries, n_value: int, lam_value: Scalar) -> list[Fraction]:
    """The series' terms at level ``n_value``, coupling ``lam_value`` and
    hbar = 1: ``terms[k]`` is E_k(n, lam) for k = 0..order, ``terms[0]``
    zero."""
    return [Fraction(0), *(e.evaluate(n_value, lam_value) for e in series.e[1:])]
