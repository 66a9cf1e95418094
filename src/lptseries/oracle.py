"""Independent numerical check of the exact series: basis diagonalization.

The Hamiltonian is projected onto a truncated oscillator eigenbasis
(hbar = 1), where the kinetic-plus-quadratic part is the diagonal
omega*(i + 1/2) and each anharmonic term is a power of the tridiagonal
position operator.  So H is a band matrix whose half-bandwidth is the
highest power of x, and the check needs only its few lowest eigenvalues.

Each of them is certified by counts.  The number of negative pivots of
an LDL^T factorization of H - sigma*I is the number of eigenvalues below
sigma (Sylvester's law of inertia; Barth, Martin & Wilkinson, Numer.
Math. 9, 386 (1967)).  Rayleigh-quotient iteration proposes a value sigma_k
for level k with residual r_k, so some eigenvalue lies within
delta_k = max(r_k, a few eps * ||H||_inf) of sigma_k.  If H keeps parity,
the iteration runs in the block of level k's parity only.  The iteration
starts from the unperturbed state |k>, or, at the gate's larger basis,
from level k's eigenvector at the smaller one.  When the intervals
sigma_k +- delta_k are ascending and disjoint, one count per gap certifies
them all: counts 0, 1, ..., count below the lowest interval, between each
neighbouring pair and above the highest put exactly one eigenvalue, level
k, in interval k.  Otherwise, or if a count is off, each level needs the
counts k and k + 1 at its own interval's ends, else the counts are
bisected, and a level they cannot bracket raises `EigensolverError`.

Two safeguards make a reported eigenvalue trustworthy:

* the basis gate: each requested level is diagonalized at two basis
  sizes and must agree to ``GATE_TOL`` before it is used at all.  The two
  matrices are nested leading principal blocks of one H, the operator's
  own rows, so by Cauchy interlacing a level can only fall as the basis
  grows, and each is a Rayleigh-Ritz upper bound, up to rounding, on the
  operator's eigenvalue of the same index.  Counts certify a level's index
  only within the block: a state that the basis misses entirely is not
  excluded;
* the truncation policy: the hbar series is asymptotic, so it is summed
  only up to (not including) its smallest-magnitude nonzero term, and
  the comparison budget is max(10x that first omitted term, 1e-10).

The diagonalization deliberately runs in double precision, and its last
digit or two depend on the interpreter: ``sum`` of floats is compensated
from Python 3.12 on.  The problem record keeps the exact potential and
coupling, so its checks judge them exactly; the exact side lives in `engine`.

Only ``verify`` diagonalizes, so only ``verify`` loads this module: the
package registers it in ``sys.modules`` unexecuted, and `cli` reads it as
``oracle.X``, so ``expand`` and ``check`` never compile or run it.
The benchmark's tracer also loads it, when it installs, by reading the
functions it wraps.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .engine import MAX_ORDER, PotentialSpec, evaluate_energy, expand
from .polys import _as_fraction

if TYPE_CHECKING:
    import numpy as np

# Largest basis either gate size may have.  The band solver's time and
# memory grow at least linearly with the size: at this size, building H
# once and certifying its six lowest levels from a cold start took
# 0.04-0.06 s for the quartic, 0.05-0.08 s for the sextic and 0.08-0.13 s
# for the cubic+quartic (best of three, two runs), in under 1 MB (2-vCPU
# host), so a mistyped size such as 100000 would run for minutes instead
# of being refused.
MAX_BASIS = 1000

# Largest shift of a requested level between the gate's two basis sizes.
GATE_TOL = 1e-10

# Rayleigh-quotient steps per level before the counts decide; from the
# unperturbed state the iteration converges cubically, in three or four,
# and from the eigenvector of a smaller basis in one or none.
_RQI_STEPS = 10

# The least half-width, in units of eps * ||H||_inf, of the interval that
# Sturm counts certify around an eigenvalue.
_CERTIFY_ULPS = 8

# A symmetric band matrix of half-bandwidth b, by rows: ``h[i][b + d]`` is
# H[i, i + d] for -b <= d <= b, and 0.0 where i + d < 0.  Entries past the
# last column (in the last b rows, where H is a leading block of a larger
# operator) are ignored.
Band = list[list[float]]


class OracleError(RuntimeError):
    """Base class for failures that invalidate the numerical reference."""


class BasisNotConverged(OracleError):
    """Eigenvalues moved more than the gate tolerance when the basis grew."""


class EigensolverError(OracleError):
    """Sturm counts could not certify a level: they fail to bracket it
    between the bounds that hold every eigenvalue, or the matrix has a
    non-finite entry."""


class AsymptoticBreakdown(OracleError):
    """The series terms do not decrease, so no truncation is meaningful."""


class _ProblemFields(NamedTuple):
    potential: PotentialSpec
    lam_value: Fraction
    basis_size: int
    check_size: int
    levels: tuple[int, ...]


class OracleProblem(_ProblemFields):
    """One diagonalization job: an exact potential at an exact coupling value.

    ``basis_size`` and ``check_size`` are the two basis dimensions of the
    convergence gate; a ``check_size`` of None becomes
    ``basis_size + max(20, basis_size // 3)``.

    Construction checks everything the diagonalization needs, so every
    instance can be diagonalized, and raises ``ValueError`` otherwise, also
    from ``_replace``; ``TypeError`` names a size or level that is no int.

    * m, omega, lam and each anharmonic coefficient at lam are within the
      range of a double: none overflows it, and none but an exact zero
      rounds to zero.  A coefficient whose powers of lam would pass
      ``polys.MAX_EVAL_BITS`` bits is refused by `BiPoly.evaluate` instead,
      before it is formed;
    * the potential is bounded below at lam: judged on the exact
      coefficients, its highest term that does not vanish is an even power
      of x with a positive coefficient;
    * the potential is a single well at lam: V'(x)/x = m omega^2 +
      sum (i+2) f_i x^i has no real root, which a Sturm sequence in
      Fractions counts exactly.  A second stationary point means another
      well, which an oscillator basis centred at 0 need not reach: the
      levels it finds need not be H's lowest;
    * at least one level, none negative;
    * the basis has room for the top level and the highest power of x whose
      coefficient at lam is not zero, the check basis is strictly larger,
      and both are within ``MAX_BASIS``.
    """

    __slots__ = ()

    def __new__(cls, potential, lam_value, basis_size=60, check_size=None,
                levels=(0, 1, 2, 3)) -> OracleProblem:
        lam = _as_fraction(lam_value)
        levels = tuple(levels)
        sizes = [("basis_size", basis_size), ("check_size", check_size)]
        for name, value in sizes + [("level", level) for level in levels]:
            if not (isinstance(value, int) or name == "check_size" and value is None):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        # the terms whose exact coefficient at lam is not zero
        coeffs = [(i + 2, c) for i, poly in potential.terms if (c := poly.evaluate(0, lam))]
        named = [("m", potential.m), ("omega", potential.omega), ("lam", lam)]
        for name, value in named + [(f"the x^{p} coefficient", c) for p, c in coeffs]:
            if value and not 0.0 < abs(_double(value)) < math.inf:
                raise ValueError(f"{name} = {_g6(value)} is outside the range of a double")
        # the highest of them rules at large |x|
        top, coeff = max(coeffs, default=(0, 0))
        if top % 2 or coeff < 0:
            raise ValueError(f"the potential is unbounded below at lam = {lam}: "
                             f"its highest term is {coeff} x^{top}")
        if not levels or min(levels) < 0:
            raise ValueError(f"levels must be one or more nonnegative integers, got {levels}")
        degree = max(top, 2)
        if basis_size <= 2 * max(levels) + degree:
            raise ValueError(f"basis size {basis_size} too small for level {max(levels)} "
                             f"with an x^{degree} potential")
        origin = ""
        if check_size is None:
            check_size = basis_size + max(20, basis_size // 3)
            origin = f", the default for basis size {basis_size}: set check_basis to choose it"
        for name, size, why in (("basis", basis_size, ""), ("check basis", check_size, origin)):
            if size > MAX_BASIS:
                raise ValueError(f"{name} size {size} exceeds the limit of {MAX_BASIS} states"
                                 + why)
        if check_size <= basis_size:
            raise ValueError("check basis must be strictly larger than the base one")
        well = [potential.m * potential.omega**2] + [Fraction(0)] * (degree - 2)
        for p, c in coeffs:
            well[p - 2] += p * c
        if (root := _root_nearest_zero(well)) is not None:
            raise ValueError(f"the potential is not a single well at lam = {lam}: "
                             f"V'(x) = 0 at x = {_g6(root)} as well as at x = 0")
        return super().__new__(cls, potential, lam, basis_size, check_size, levels)

    @classmethod
    def _make(cls, iterable) -> OracleProblem:
        # ``_replace`` builds through ``_make``: check there too
        return cls(*iterable)


def _double(value: Fraction) -> float:
    """``float(value)``, or an infinity where that overflows."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _poly_divmod(p: list[Fraction], q: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of two polynomials, as coefficient lists lowest
    degree first; ``q``'s last coefficient is nonzero, and so is the
    remainder's (an empty list is zero)."""
    rest = list(p)
    quotient = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for k in reversed(range(len(quotient))):
        quotient[k] = c = rest[k + len(q) - 1] / q[-1]
        for j, q_j in enumerate(q):
            rest[k + j] -= c * q_j
    del rest[len(q) - 1 :]
    while rest and not rest[-1]:
        rest.pop()
    return quotient, rest


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    """Sturm sequence of the square-free part of ``p`` (degree 1 or more):
    the part, its derivative, then the negated remainders down to a
    nonzero constant."""
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1 and (rest := _poly_divmod(chain[-2], chain[-1])[1]):
        chain.append([-c for c in rest])
    if len(chain[-1]) > 1:  # gcd(p, p') is not constant: p has a repeated root
        return _sturm_chain(_poly_divmod(p, chain[-1])[0])
    return chain


def _sign_changes(chain: list[list[Fraction]], x: Fraction) -> int:
    values = (reduce(lambda value, c: value * x + c, reversed(q), 0) for q in chain)
    signs = [value > 0 for value in values if value]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_nearest_zero(p: list[Fraction]) -> Fraction | None:
    """The real root of ``p`` (coefficients lowest degree first, the first
    and last nonzero) nearest 0, to within a relative 2**-30 of it, or None
    if ``p`` has no real root.

    Sturm's theorem: the sign changes of the chain at a, less those at b,
    count the distinct roots in (a, b], all exactly, in Fractions.
    """
    if len(p) < 2:
        return None
    chain = _sturm_chain(p)

    def inside(r: Fraction) -> int:  # the roots in (-r, r]
        return _sign_changes(chain, -r) - _sign_changes(chain, r)

    if not inside(1 + max(abs(c / p[-1]) for c in p)):  # Cauchy's bound on every root
        return None
    low = Fraction(1)
    while inside(low):
        low /= 2
    high = 2 * low
    while not inside(high):
        low, high = high, 2 * high
    for _ in range(30):  # the nearest root's magnitude is in [low, high]
        mid = (low + high) / 2
        low, high = (low, mid) if inside(mid) else (mid, high)
    return high if _sign_changes(chain, Fraction(0)) > _sign_changes(chain, high) else -high


def _g6(value: Fraction) -> str:
    """``f"{float(value):.6g}"`` at any magnitude: where ``float`` would
    overflow, or lose digits below the smallest normal double, the six
    significant digits are rounded in integers, half to even, from a
    decimal exponent that the bit lengths give to within one."""
    if sys.float_info.min <= abs(double := _double(value)) < math.inf or not value:
        return f"{double:.6g}"
    num, den = abs(value.numerator), value.denominator
    exp = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    while True:  # the digits of num/den * 10^(5 - exp), six of them once exp is right
        scaled, scale = (num * 10 ** (5 - exp), den) if exp <= 5 else (num, den * 10 ** (exp - 5))
        digits, rest = divmod(scaled, scale)
        if 10**5 <= digits < 10**6:
            break
        exp += 1 if digits >= 10**6 else -1
    digits += 2 * rest > scale or (2 * rest == scale and digits % 2)
    if digits == 10**6:  # rounded up to the next power of ten
        digits, exp = 10**5, exp + 1
    # a double prints six significant digits back as they were
    return f"{'-' if value < 0 else ''}{digits / 10**5:.6g}e{exp:+03d}"


def _hamiltonian_at(problem: OracleProblem, n_basis: int) -> Band:
    """The first ``n_basis`` rows of H = diag(omega*(i+1/2)) + sum over
    anharmonic terms coeff * X^power, in band form, in double precision.
    X is the position operator of the whole oscillator basis: tridiagonal,
    hbar = 1, <i|X|i+1> = sqrt((i+1) / (2 m omega)).  The half-bandwidth b
    is the highest power whose coefficient at lam is not exactly zero (0
    for the oscillator, or at lam = 0).

    One walk per row builds it: e_i is multiplied by X, untruncated, up to
    the highest power, and coeff * e_i X^power is added right of the
    diagonal wherever the walk reaches a power the potential has; the
    entries left of it mirror those, so H is symmetric by construction.
    No row depends on ``n_basis``: the rows at a smaller size are a prefix
    of these, and in the last b rows the entries past the last column are
    the operator's own.
    """
    spec = problem.potential
    m, omega = float(spec.m), float(spec.omega)
    coeffs = {i + 2: float(coeff) for i, poly in spec.terms
              if (coeff := poly.evaluate(0, problem.lam_value))}
    b = max(coeffs, default=0)
    ladder = [math.sqrt((i + 1) / (2.0 * m * omega)) for i in range(n_basis + b)]
    h = [[0.0] * b + [omega * (i + 0.5)] + [0.0] * b for i in range(n_basis)]
    for i, row in enumerate(h):
        walk = {i: 1.0}
        for power in range(1, b + 1):
            step: dict[int, float] = {}
            for j, value in walk.items():
                if j > 0:
                    step[j - 1] = step.get(j - 1, 0.0) + value * ladder[j - 1]
                step[j + 1] = step.get(j + 1, 0.0) + value * ladder[j]
            walk = step
            if power in coeffs:
                coeff = coeffs[power]
                for j, value in walk.items():
                    if j >= i:
                        row[b + j - i] += coeff * value
        for d in range(1, min(b, i) + 1):
            row[b - d] = h[i - d][b + d]
    return h


def jacobi_eigenvalues(h: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, ascending: numpy's
    ``eigvalsh`` (LAPACK) behind a symmetry check.

    No command runs it; the tests use it as the dense reference for
    `lowest_eigenvalues`.  Its name stays only because the benchmark's
    tracer binds it; deleting it waits on a benchmark change that drops
    that name.
    """
    import numpy as np

    a = np.asarray(h, dtype=float)
    if not np.allclose(a, a.T, atol=0.0):
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh(a)


def _ldl(h: Band, sigma: float, tiny: float) -> tuple[list[list[float]], list[float]]:
    """LDL^T of H - sigma*I, without pivoting: the unit lower factor in band
    form (``l[i][c]`` is L[i, i - b + c] for c < b) and the pivots D.

    A pivot that comes out exactly zero is replaced by ``tiny``, so the
    factors always exist; by Sylvester's law of inertia the negative pivots
    count the eigenvalues below sigma.
    """
    b = len(h[0]) // 2
    lower: list[list[float]] = []
    pivots: list[float] = []
    for i, row in enumerate(h):
        first = b - i if i < b else 0  # the band index of column max(0, i - b)
        l_i = [0.0] * b
        w_i = [0.0] * b  # L[i, j] * D[j]
        pivot = row[b] - sigma
        for c in range(first, b):
            j = i - b + c
            l_j = lower[j]
            w = row[c]
            for t in range(first, c):
                w -= w_i[t] * l_j[t - c + b]
            w_i[c] = w
            l_i[c] = w / pivots[j]
            pivot -= w * l_i[c]
        lower.append(l_i)
        pivots.append(pivot if pivot != 0.0 else tiny)
    return lower, pivots


def _sturm_count(h: Band, sigma: float, tiny: float) -> int:
    """The number of eigenvalues of H below sigma."""
    return sum(pivot < 0.0 for pivot in _ldl(h, sigma, tiny)[1])


def _ldl_solve(lower: list[list[float]], pivots: list[float], x: list[float]) -> list[float]:
    """Solve L D L^T y = x with the factors of `_ldl`."""
    b = len(lower[0])
    # b leading zeros stand for the columns before the first; L is zero there
    z = [0.0] * b
    for x_i, l_i in zip(x, lower):
        z.append(x_i - sum(map(mul, l_i, z[len(z) - b:])))
    y = [0.0] * b + [z_i / d_i for z_i, d_i in zip(z[b:], pivots)]
    for i in range(len(lower) - 1, 0, -1):
        y_i, l_i = y[b + i], lower[i]
        for c in range(b):
            y[i + c] -= l_i[c] * y_i
    return y[b:]


def _matvec(h: Band, x: list[float]) -> list[float]:
    b = len(h[0]) // 2
    # no padding on the right: a row's entries past the last column are unread
    padded = [0.0] * b + x
    return [sum(map(mul, row, padded[i:i + 2 * b + 1])) for i, row in enumerate(h)]


def _rayleigh(h: Band, x: list[float], floor: float) -> tuple[float, float, list[float]]:
    """Rayleigh-quotient iteration from the nonzero vector ``x``: the last
    quotient sigma, delta = max(residual, floor), so that some eigenvalue
    lies within delta of sigma, and the unit vector whose quotient sigma is."""
    last = math.inf
    for step in range(_RQI_STEPS + 1):
        scale = math.sqrt(sum(v * v for v in x))
        x = [v / scale for v in x]
        hx = _matvec(h, x)
        sigma = sum(map(mul, x, hx))
        residual = math.sqrt(sum((a - sigma * v) ** 2 for a, v in zip(hx, x)))
        # the residual of Rayleigh-quotient iteration never grows in exact
        # arithmetic; once it stops falling, rounding has the last word
        if residual <= floor or not residual < last or step == _RQI_STEPS:
            break
        last = residual
        x = _ldl_solve(*_ldl(h, sigma, floor), x)
    return sigma, max(residual, floor), x


def _holds_level(h: Band, k: int, left: float, right: float, floor: float) -> bool:
    """Whether the counts below ``left`` and ``right`` are k and k + 1, which
    puts eigenvalue k (from 0, ascending) between them."""
    return _sturm_count(h, left, floor) == k and _sturm_count(h, right, floor) == k + 1


def _bisected(h: Band, k: int, floor: float,
              bounds: tuple[float, float]) -> tuple[float, list[float]]:
    """Eigenvalue k (from 0, ascending) of the band matrix ``h``, certified
    by its own counts, and a unit vector for it in ``h``'s basis.

    The counts are bisected from ``bounds`` down to a bracket of width
    2 * floor.  That bracket's midpoint is only as accurate as the floor,
    so it is polished: one inverse-iteration step there from the ones
    vector, then Rayleigh-quotient iteration.  The polished quotient is
    returned if its own counts certify it as eigenvalue k, else the
    midpoint; the polished vector is returned with either.
    """
    lo, hi = bounds
    if _sturm_count(h, lo, floor) > k or _sturm_count(h, hi, floor) <= k:
        raise EigensolverError(f"Sturm counts cannot bracket level {k}")
    while hi - lo > 2.0 * floor and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _sturm_count(h, mid, floor) <= k else (lo, mid)
    mid = 0.5 * (lo + hi)
    sigma, delta, x = _rayleigh(h, _ldl_solve(*_ldl(h, mid, floor), [1.0] * len(h)), floor)
    return (sigma if _holds_level(h, k, sigma - delta, sigma + delta, floor) else mid), x


def lowest_eigenvalues(
    h: Band, count: int, starts: list[list[float]] | None = None
) -> tuple[list[float], list[list[float]]]:
    """The ``count`` smallest eigenvalues of a symmetric band matrix,
    ascending, each certified by Sturm counts on the whole matrix.

    ``h`` is a `Band`, taken as given: `_hamiltonian_at` builds it
    symmetric, with rows of one length, so neither is checked, and its
    entries past the last column are ignored.  If H keeps parity (no odd
    diagonal), its even and odd states are two independent bands of half
    the size and width, and level k is sought in block k % 2.
    Rayleigh-quotient iteration proposes each level: from ``starts[k]`` if
    given (a vector on a leading block of H's basis, zero-padded to its
    size, such as level k's eigenvector in a smaller basis), else from the
    unperturbed state |k>.  All levels are certified at once by one count
    in each gap between the proposed intervals; if those intervals overlap
    or a count is off, each level is certified by the counts at the ends
    of its own interval, or else found by bisection (`_bisected`).

    Returns the pair (eigenvalues, unit vectors in H's basis): vector k is
    the one whose Rayleigh quotient is eigenvalue k, or for a bisected
    level the polished vector, so a warm start from it seeks that level
    again.  Raises `EigensolverError` if an entry of the matrix is not
    finite or a level cannot be certified.
    """
    n = len(h)
    b = len(h[0]) // 2
    norm = max(sum(map(abs, row[:b + n - i])) for i, row in enumerate(h))
    if not math.isfinite(norm):
        raise EigensolverError("matrix has non-finite entries")
    floor = _CERTIFY_ULPS * sys.float_info.epsilon * (norm or 1.0)
    stride, blocks, states = 1, [h], range(n)
    if not any(row[c] for row in h for c in range(1 - b % 2, 2 * b + 1, 2)):
        # no odd diagonal, so H keeps parity: listed even states first, it is
        # block diagonal with half the bandwidth, a count on it is the sum of
        # the two blocks' counts, and each block is a band of its own
        half = b // 2
        states = [*range(0, n, 2), *range(1, n, 2)]
        h = [[h[i][b + d] if 0 <= i + d < n else 0.0 for d in range(-2 * half, 2 * half + 1, 2)]
             for i in states]
        stride, blocks = 2, [h[:(n + 1) // 2], h[(n + 1) // 2:]]
    values, ends, xs = [], [], []
    for k in range(count):
        x = [0.0] * len(blocks[k % stride])
        if starts is not None:
            start = starts[k][k % stride:n:stride]
            x[:len(start)] = start
        if not any(x):
            x[k // stride] = 1.0
        sigma, delta, x = _rayleigh(blocks[k % stride], x, floor)
        values.append(sigma)
        ends += (sigma - delta, sigma + delta)
        xs.append([0.0] * n)
        xs[k][k % stride::stride] = x
    # counts 0, 1, ..., count at points that separate the intervals
    # sigma +- delta, ascending and disjoint, put eigenvalue k in interval k
    points = ends[:1] + [0.5 * (a + c) for a, c in zip(ends[1::2], ends[2::2])] + ends[-1:]
    if ends != sorted(set(ends)) or not all(
            _sturm_count(h, point, floor) == k for k, point in enumerate(points)):
        # every eigenvalue lies within the infinity norm of zero
        bounds = (-norm - floor, norm + floor)
        for k in range(count):
            if not _holds_level(h, k, ends[2 * k], ends[2 * k + 1], floor):
                values[k], x = _bisected(h, k, floor, bounds)
                # back from h's order of states, even ones first if it keeps parity
                xs[k] = [0.0] * n
                for i, v in zip(states, x):
                    xs[k][i] = v
    return values, xs


def converged_levels(problem: OracleProblem) -> tuple[list[float], float]:
    """Requested eigenvalues, gated on basis-size convergence.

    Builds H once, at ``check_size``, and diagonalizes its leading block
    of ``basis_size`` rows and then the whole of it; every requested level
    must shift by less than ``GATE_TOL`` between the two, and the spectrum
    must be strictly increasing and positive, else the result is rejected.
    """
    count = max(problem.levels) + 1
    h = _hamiltonian_at(problem, problem.check_size)
    base, vectors = lowest_eigenvalues(h[:problem.basis_size], count)
    # each level's eigenvector at the base size, zero-padded, is close to
    # its eigenvector at the check size: a step or none, not three or four
    check, _ = lowest_eigenvalues(h, count, vectors)
    shift = max(abs(a - b) for a, b in zip(base, check))
    if shift >= GATE_TOL:
        raise BasisNotConverged(f"eigenvalues moved by {shift:.3e} between basis sizes "
                                f"{problem.basis_size} and {problem.check_size} "
                                f"(gate {GATE_TOL:.1e})")
    if check[0] <= 0.0 or any(b <= a for a, b in zip(check, check[1:])):
        raise OracleError("spectrum is not strictly increasing and positive")
    return [check[n] for n in problem.levels], shift


class LevelReport(NamedTuple):
    """Comparison of one level: diagonalization vs truncated series."""

    level: int
    eigenvalue: float
    partial_sum: float
    truncation_order: int
    first_omitted_term: float
    discrepancy: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.discrepancy <= self.bound


class OracleReport(NamedTuple):
    problem: OracleProblem
    basis_shift: float
    levels: tuple[LevelReport, ...]

    @property
    def passed(self) -> bool:
        return all(entry.ok for entry in self.levels)


def optimal_truncation(terms: list[Fraction]) -> tuple[int, Fraction]:
    """Truncation point of an asymptotic partial sum: (k*, first omitted).

    ``terms[k]`` is the hbar^k contribution (terms[0] ignored, terms[1] =
    E_1 > 0); the sum to take is ``terms[1:k*]``.  Exactly zero terms carry
    no information about where the series turns (for even potentials whole
    stripes of orders vanish identically), so the turn is located on the
    nonzero subsequence: k* is the index of its smallest-magnitude member.
    A single nonzero term means the series terminates -- it is summed in
    full and the omitted term is zero.  Raises `AsymptoticBreakdown`
    when the first two nonzero terms fail to decrease in magnitude.
    """
    nonzero = [(k, t) for k, t in enumerate(terms) if k >= 1 and t != 0]
    if len(nonzero) == 1:
        return nonzero[0][0] + 1, Fraction(0)
    if abs(nonzero[1][1]) >= abs(nonzero[0][1]):
        raise AsymptoticBreakdown(
            "first two nonzero series terms do not decrease "
            f"(|{_g6(nonzero[0][1])}| then |{_g6(nonzero[1][1])}|): "
            "the coupling is too large for an asymptotic partial sum"
        )
    k_star, smallest = min(nonzero, key=lambda pair: (abs(pair[1]), pair[0]))
    return k_star, smallest


def compare_series(problem: OracleProblem, order: int) -> OracleReport:
    """The series of ``problem``'s potential to ``order``, truncated by the
    module's policy, against gated diagonalization, level by level.

    Refusals come in this order, each before the work the next needs:
    `OracleProblem` (the caller's), `expand`'s limits on ``order``, an order
    too short to truncate, `AsymptoticBreakdown`, then the oracle's errors.
    A breakdown is sought first in the series' head, to the first k >= 2
    whose residue slot 2k - 2 is on the lattice (E_k is zero before it), in
    level order up to the first level the head sums in full: an input whose
    whole series is costly is refused at the cost of its head.
    """
    spec = problem.potential
    orders = range(2, order if order <= MAX_ORDER else 0)
    head = next((k for k in orders if 2 * k - 2 in spec.lattice(2 * k - 2)), order)
    for k in sorted({head, order}):
        series = expand(spec, k)[1]
        if order < 3:
            raise ValueError(f"series order {order} too short to truncate")
        truncations = []
        for level in problem.levels:
            terms = evaluate_energy(series, level, problem.lam_value)
            k_star, omitted = optimal_truncation(terms)
            if k < order and not omitted:
                break  # the head sums this level in full: the whole series judges it
            truncations.append((level, terms, k_star, omitted))
    eigenvalues, shift = converged_levels(problem)
    entries = []
    for eig, (level, terms, k_star, omitted) in zip(eigenvalues, truncations):
        partial = float(sum(terms[1:k_star], Fraction(0)))
        bound = max(10.0 * abs(float(omitted)), 1e-10)
        entries.append(LevelReport(level, eig, partial, k_star, float(omitted),
                                   abs(eig - partial), bound))
    return OracleReport(problem, shift, tuple(entries))


def report_text(report: OracleReport) -> str:
    """Human-readable rendering of an oracle comparison, newline-terminated."""
    problem = report.problem
    lines = [
        f"basis {problem.basis_size} vs {problem.check_size}: "
        f"max eigenvalue shift {report.basis_shift:.3e}",
        f"coupling lam = {problem.lam_value} ({_g6(problem.lam_value)})",
        "level  eigenvalue            partial sum           k*  omitted     "
        "discrepancy  bound        verdict",
    ]
    for e in report.levels:
        lines.append(
            f"{e.level:>5}  {e.eigenvalue:<20.12f}  {e.partial_sum:<20.12f}  "
            f"{e.truncation_order:>2}  {e.first_omitted_term:>10.3e}  "
            f"{e.discrepancy:>11.3e}  {e.bound:>11.3e}  "
            f"{'ok' if e.ok else 'FAIL'}"
        )
    return "\n".join(lines) + "\n"


def report_csv(report: OracleReport) -> str:
    """CSV rendering: `LevelReport`'s fields as ``repr`` and ``ok``, a row per level."""
    rows = [(*LevelReport._fields, "ok")]
    rows += [(*map(repr, e), str(e.ok)) for e in report.levels]
    return "".join(",".join(row) + "\n" for row in rows)
