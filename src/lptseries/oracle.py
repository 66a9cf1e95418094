"""Independent numerical check of the exact series: basis diagonalization.

The Hamiltonian is projected onto a truncated oscillator eigenbasis
(hbar = 1), where the kinetic-plus-quadratic part is the diagonal
omega*(i + 1/2) and each anharmonic term is a power of the tridiagonal
position operator.  So H is a band matrix whose half-bandwidth is the
highest power of x, and the check needs only its few lowest eigenvalues.

Each of them is certified by counts.  The number of negative pivots of
an LDL^T factorization of H - sigma*I is the number of eigenvalues below
sigma (Sylvester's law of inertia; Barth, Martin & Wilkinson, Numer.
Math. 9, 386 (1967)).  Rayleigh-quotient iteration from the unperturbed
state |k> proposes a value sigma with residual r, so some eigenvalue lies
within r of sigma; it is taken as level k only if the counts at
sigma - delta and sigma + delta, delta = max(r, a few eps * ||H||_inf), are
k and k + 1.  Otherwise the counts are bisected, and a level they cannot
bracket raises `EigensolverError`.

Two safeguards make a reported eigenvalue trustworthy:

* the basis gate: each requested level is diagonalized at two basis
  sizes and must agree to ``GATE_TOL`` before it is used at all;
* the truncation policy: the hbar series is asymptotic, so it is summed
  only up to (not including) its smallest-magnitude nonzero term, and
  the comparison budget is 10x that first omitted term.

Everything in this module deliberately runs in double precision; the
exact side of every comparison lives in `engine`.

Only ``verify`` diagonalizes, so only ``verify`` loads this module: the
package registers it in ``sys.modules`` unexecuted, and `cli` reads it as
``oracle.X``, so ``expand`` and ``check`` never compile or run it, unless
an exception other than a ``ValueError`` reaches ``main``'s ``except``
clause for `OracleError`.
The benchmark's tracer also loads it, when it installs, by reading the
functions it wraps.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .engine import EnergySeries, PotentialSpec, evaluate_energy
from .polys import Scalar, _as_fraction

if TYPE_CHECKING:
    import numpy as np

# Largest basis either gate size may have.  The band solver's time and
# memory grow at least linearly with the size: at this size, building H
# and certifying its six lowest levels took 0.07-0.13 s for the quartic,
# sextic and cubic+quartic, in under 1 MB (2-vCPU host), so a mistyped
# size such as 100000 would run for minutes over the two gate sizes
# instead of being refused.
MAX_BASIS = 1000

# Largest shift of a requested level between the gate's two basis sizes.
GATE_TOL = 1e-10

# Rayleigh-quotient steps per level before the counts decide; from the
# unperturbed state the iteration converges cubically, in three or four.
_RQI_STEPS = 10

# The least half-width, in units of eps * ||H||_inf, of the interval that
# Sturm counts certify around an eigenvalue.
_CERTIFY_ULPS = 8

# A symmetric band matrix of half-bandwidth b, by rows: ``h[i][b + d]`` is
# H[i, i + d] for -b <= d <= b, and 0.0 where i + d is outside the matrix.
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
    m: float
    omega: float
    lam_value: Fraction
    powers: tuple[tuple[int, float], ...]
    basis_size: int
    check_size: int
    levels: tuple[int, ...]


class OracleProblem(_ProblemFields):
    """One diagonalization job: a potential at a concrete coupling value.

    ``powers`` maps an x-exponent to its double-precision coefficient,
    mirroring the anharmonic part of a PotentialSpec with ``lam`` bound to
    ``lam_value``.  ``basis_size`` and ``check_size`` are the two basis
    dimensions of the convergence gate.

    Construction checks the levels and the gate sizes, so every instance
    can be diagonalized: at least one level, none negative, room for the
    top level and the highest power of x, a strictly larger check basis,
    both within ``MAX_BASIS``; else it raises ``ValueError``, also from
    ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, m, omega, lam_value, powers, basis_size, check_size, levels) -> OracleProblem:
        levels = tuple(levels)
        if not levels or min(levels) < 0:
            raise ValueError(f"levels must be one or more nonnegative integers, got {levels}")
        degree = max((p for p, _ in powers), default=2)
        if basis_size <= 2 * max(levels) + degree:
            raise ValueError(
                f"basis size {basis_size} too small for level {max(levels)} "
                f"with an x^{degree} potential"
            )
        for name, size in (("basis", basis_size), ("check basis", check_size)):
            if size > MAX_BASIS:
                raise ValueError(f"{name} size {size} exceeds the limit of {MAX_BASIS} states")
        if check_size <= basis_size:
            raise ValueError("check basis must be strictly larger than the base one")
        return super().__new__(cls, m, omega, lam_value, powers, basis_size, check_size, levels)

    @classmethod
    def _make(cls, iterable) -> OracleProblem:
        # ``_replace`` builds through ``_make``: check there too
        return cls(*iterable)


def problem_from_potential(
    spec: PotentialSpec,
    lam_value: Scalar,
    basis_size: int,
    levels: tuple[int, ...],
    check_size: int | None = None,
) -> OracleProblem:
    """Bind a symbolic potential to a concrete coupling for diagonalization."""
    lam = _as_fraction(lam_value)
    powers = tuple(
        (i + 2, float(poly.evaluate(0, lam))) for i, poly in spec.terms
    )
    if check_size is None:
        check_size = basis_size + max(20, basis_size // 3)
    return OracleProblem(
        float(spec.m), float(spec.omega), lam, powers, basis_size, check_size, levels
    )


def _position_power(n_basis: int, m: float, omega: float, power: int) -> Band:
    """X**power in band form (half-bandwidth ``power``), X the position
    operator on the first ``n_basis`` oscillator states: tridiagonal,
    hbar = 1, <i|X|i+1> = sqrt((i+1) / (2 m omega)).

    Row i is e_i X**power, each step staying inside the basis: the same
    truncated product that a power of the dense truncated X forms.
    """
    ladder = [math.sqrt((i + 1) / (2.0 * m * omega)) for i in range(n_basis - 1)]
    rows = []
    for i in range(n_basis):
        row = {i: 1.0}
        for _ in range(power):
            step: dict[int, float] = {}
            for j, value in row.items():
                if j > 0:
                    step[j - 1] = step.get(j - 1, 0.0) + value * ladder[j - 1]
                if j < n_basis - 1:
                    step[j + 1] = step.get(j + 1, 0.0) + value * ladder[j]
            row = step
        rows.append([row.get(i + d, 0.0) for d in range(-power, power + 1)])
    return rows


def _hamiltonian_at(problem: OracleProblem, n_basis: int) -> Band:
    """H = diag(omega*(i+1/2)) + sum over anharmonic terms coeff * X^power,
    in band form; the half-bandwidth is the highest power (0 for the
    oscillator)."""
    b = max((power for power, _ in problem.powers), default=0)
    h = [[0.0] * b + [problem.omega * (i + 0.5)] + [0.0] * b for i in range(n_basis)]
    for power, coeff in problem.powers:
        x_power = _position_power(n_basis, problem.m, problem.omega, power)
        for row, term in zip(h, x_power):
            for c, value in enumerate(term, b - power):
                row[c] = row[c] + coeff * value
    # matrix powers are symmetric up to rounding; enforce it exactly, as (h + h^T)/2
    for i, row in enumerate(h):
        for d in range(1, min(b, n_basis - 1 - i) + 1):
            row[b + d] = h[i + d][b - d] = (row[b + d] + h[i + d][b - d]) / 2.0
    return h


def jacobi_eigenvalues(
    h: np.ndarray, rel_tol: float = 1e-13, max_sweeps: int = 40
) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix by cyclic Jacobi rotations.

    Sweeps row by row until the off-diagonal Frobenius norm drops below
    ``rel_tol`` times the Frobenius norm of the input; raises after
    ``max_sweeps`` full sweeps without reaching it.

    Not on the ``verify`` path, which uses `lowest_eigenvalues`, and the
    only function of the package that imports numpy.  It stays only because
    the benchmark's tracer binds its name; deleting it waits on a benchmark
    change that drops that name.
    """
    import numpy as np

    a = np.array(h, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=0.0):
        raise ValueError("matrix must be symmetric")
    if n == 1:
        return a.diagonal().copy()
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n)
    threshold = rel_tol * norm
    # skipping entries this small cannot push the off-norm above threshold
    skip_tol = threshold / n
    for _sweep in range(max_sweeps):
        # off-diagonal Frobenius norm, summed directly (never by subtracting
        # near-equal totals, which would drown the 1e-13 scale in rounding)
        off_part = a - np.diag(a.diagonal())
        off = float(np.linalg.norm(off_part))
        if off <= threshold:
            return np.sort(a.diagonal().copy())
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip_tol:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                if abs(theta) > 1e12:
                    t = 0.5 / theta
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.hypot(theta, 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # similarity rotation in the (p, q) plane
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    raise EigensolverError(
        f"off-diagonal norm still above {threshold:.3e} after {max_sweeps} sweeps"
    )


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
    padded = [0.0] * b + x + [0.0] * b
    return [sum(map(mul, row, padded[i:i + 2 * b + 1])) for i, row in enumerate(h)]


def _rayleigh(h: Band, x: list[float], floor: float) -> tuple[float, float]:
    """Rayleigh-quotient iteration from the unit vector ``x``: the last
    quotient sigma and delta = max(residual, floor), so that some
    eigenvalue lies within delta of sigma."""
    last = math.inf
    for step in range(_RQI_STEPS + 1):
        hx = _matvec(h, x)
        sigma = sum(map(mul, x, hx))
        residual = math.sqrt(sum((a - sigma * v) ** 2 for a, v in zip(hx, x)))
        # the residual of Rayleigh-quotient iteration never grows in exact
        # arithmetic; once it stops falling, rounding has the last word
        if residual <= floor or not residual < last or step == _RQI_STEPS:
            break
        last = residual
        y = _ldl_solve(*_ldl(h, sigma, floor), x)
        scale = math.sqrt(sum(v * v for v in y))
        x = [v / scale for v in y]
    return sigma, max(residual, floor)


def _level(h: Band, k: int, start: int, floor: float, bounds: tuple[float, float]) -> float:
    """Eigenvalue k (from 0, ascending) of the band matrix ``h``, certified.

    Rayleigh-quotient iteration runs from basis state ``start``, the
    unperturbed state |k> in the order of ``h``'s rows.  Its quotient sigma
    is returned if the counts below sigma - delta and sigma + delta are k
    and k + 1, which puts eigenvalue k within delta of sigma.  Otherwise
    the counts are bisected from ``bounds`` down to a bracket of width
    2 * floor, and its midpoint is returned.
    """
    unperturbed = [0.0] * len(h)
    unperturbed[start] = 1.0
    sigma, delta = _rayleigh(h, unperturbed, floor)
    below = _sturm_count(h, sigma - delta, floor)
    above = _sturm_count(h, sigma + delta, floor)
    if below == k and above == k + 1:
        return sigma

    lo, hi = bounds
    if _sturm_count(h, lo, floor) > k or _sturm_count(h, hi, floor) <= k:
        raise EigensolverError(f"Sturm counts cannot bracket level {k}")
    # the iteration found some other level: its counts still narrow the bracket
    for point, count in ((sigma - delta, below), (sigma + delta, above)):
        if lo < point < hi:
            if count <= k:
                lo = point
            else:
                hi = point
    while hi - lo > 2.0 * floor:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _sturm_count(h, mid, floor) <= k:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lowest_eigenvalues(h: Band, count: int) -> list[float]:
    """The ``count`` smallest eigenvalues of a symmetric band matrix,
    ascending, each certified by Sturm counts (see `_level`).

    ``h`` is in band form: ``h[i][b + d]`` is H[i, i + d] for |d| <= b.
    Raises ``ValueError`` if ``count`` exceeds the dimension or the band
    is not symmetric, and `EigensolverError` if a level cannot be
    certified.
    """
    n = len(h)
    if count > n:
        raise ValueError(f"asked for {count} eigenvalues of a {n}-dim matrix")
    b = len(h[0]) // 2
    if any(len(row) != 2 * b + 1 for row in h):
        raise ValueError("band rows must all have one odd length")
    if any(row[b + d] != h[i + d][b - d]
           for i, row in enumerate(h) for d in range(1, min(b, n - 1 - i) + 1)):
        raise ValueError("matrix must be symmetric")
    norm = max(sum(map(abs, row)) for row in h)
    if not math.isfinite(norm):
        raise EigensolverError("matrix has non-finite entries")
    floor = _CERTIFY_ULPS * sys.float_info.epsilon * (norm or 1.0)
    # every eigenvalue lies within the infinity norm of zero
    bounds = (-norm - floor, norm + floor)
    order = list(range(n))
    if not any(row[c] for row in h for c in range(1 - b % 2, 2 * b + 1, 2)):
        # no odd diagonal, so H keeps parity: listed even states first, it is
        # block diagonal with half the bandwidth, and has the same spectrum
        order = order[::2] + order[1::2]
        half = b // 2
        h = [[h[i][b + d] if 0 <= i + d < n else 0.0 for d in range(-2 * half, 2 * half + 1, 2)]
             for i in order]
    return [_level(h, k, order.index(k), floor, bounds) for k in range(count)]


def converged_levels(problem: OracleProblem) -> tuple[list[float], float]:
    """Requested eigenvalues, gated on basis-size convergence.

    Diagonalizes at ``basis_size`` and ``check_size``; every requested
    level must shift by less than ``GATE_TOL`` between the two, and the
    spectrum must be strictly increasing and positive, else the result
    is rejected.
    """
    count = max(problem.levels) + 1
    base = lowest_eigenvalues(_hamiltonian_at(problem, problem.basis_size), count)
    check = lowest_eigenvalues(_hamiltonian_at(problem, problem.check_size), count)
    shift = max(abs(a - b) for a, b in zip(base, check))
    if shift >= GATE_TOL:
        raise BasisNotConverged(
            f"eigenvalues moved by {shift:.3e} between basis sizes "
            f"{problem.basis_size} and {problem.check_size} "
            f"(gate {GATE_TOL:.1e})"
        )
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
    basis_size: int
    check_size: int
    basis_shift: float
    lam_value: Fraction
    levels: tuple[LevelReport, ...]

    @property
    def passed(self) -> bool:
        return all(entry.ok for entry in self.levels)


def optimal_truncation(terms: list[Fraction]) -> tuple[int, Fraction]:
    """Truncation point of an asymptotic partial sum: (k*, first omitted).

    ``terms[k]`` is the hbar^k contribution (terms[0] ignored); the sum
    to take is ``terms[1:k*]``.  Exactly zero terms carry no information
    about where the series turns (for even potentials whole stripes of
    orders vanish identically), so the turn is located on the nonzero
    subsequence: k* is the index of its smallest-magnitude member.  A
    single nonzero term means the series terminates -- it is summed in
    full and the omitted term is zero.  Raises `AsymptoticBreakdown`
    when the first two nonzero terms fail to decrease in magnitude.
    """
    nonzero = [(k, t) for k, t in enumerate(terms) if k >= 1 and t != 0]
    if not nonzero:
        return 1, Fraction(0)
    if len(nonzero) == 1:
        return nonzero[0][0] + 1, Fraction(0)
    if abs(nonzero[1][1]) >= abs(nonzero[0][1]):
        raise AsymptoticBreakdown(
            "first two nonzero series terms do not decrease "
            f"(|{float(nonzero[0][1]):.6g}| then |{float(nonzero[1][1]):.6g}|): "
            "the coupling is too large for an asymptotic partial sum"
        )
    k_star, smallest = min(nonzero, key=lambda pair: (abs(pair[1]), pair[0]))
    return k_star, smallest


def compare_series(series: EnergySeries, problem: OracleProblem) -> OracleReport:
    """Optimally truncated partial sums vs gated diagonalization.

    For each requested level, the series is summed up to just before its
    smallest nonzero term; the discrepancy against the eigenvalue must
    stay within max(10 * |first omitted term|, 1e-10).
    """
    if series.order < 3:
        raise ValueError(f"series order {series.order} too short to truncate")
    # truncate first: an unusable series should be diagnosed as such, not
    # reported as a basis-convergence failure after a wasted diagonalization
    truncations = []
    for level in problem.levels:
        terms = evaluate_energy(series, level, problem.lam_value)
        truncations.append((level, terms, *optimal_truncation(terms)))
    eigenvalues, shift = converged_levels(problem)
    entries = []
    for eig, (level, terms, k_star, omitted) in zip(eigenvalues, truncations):
        partial = float(sum(terms[1:k_star], Fraction(0)))
        discrepancy = abs(float(eig) - partial)
        bound = max(10.0 * abs(float(omitted)), 1e-10)
        entries.append(
            LevelReport(level, float(eig), partial, k_star, float(omitted), discrepancy, bound)
        )
    return OracleReport(
        basis_size=problem.basis_size,
        check_size=problem.check_size,
        basis_shift=shift,
        lam_value=problem.lam_value,
        levels=tuple(entries),
    )


def report_text(report: OracleReport) -> str:
    """Human-readable rendering of an oracle comparison."""
    lines = [
        f"basis {report.basis_size} vs {report.check_size}: "
        f"max eigenvalue shift {report.basis_shift:.3e}",
        f"coupling lam = {report.lam_value} ({float(report.lam_value):.6g})",
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
    return "\n".join(lines)


def report_csv(report: OracleReport) -> str:
    """CSV rendering: one row per level."""
    lines = [
        "level,eigenvalue,partial_sum,truncation_order,"
        "first_omitted_term,discrepancy,bound,ok"
    ]
    for e in report.levels:
        lines.append(
            f"{e.level},{e.eigenvalue!r},{e.partial_sum!r},{e.truncation_order},"
            f"{e.first_omitted_term!r},{e.discrepancy!r},{e.bound!r},{e.ok}"
        )
    return "\n".join(lines) + "\n"
