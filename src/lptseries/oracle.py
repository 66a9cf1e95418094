"""Independent numerical check of the exact series: basis diagonalization.

The Hamiltonian is projected onto a truncated oscillator eigenbasis
(hbar = 1), where the kinetic-plus-quadratic part is the diagonal
omega*(i + 1/2) and each anharmonic term is a matrix power of the
tridiagonal position operator.  Eigenvalues come from LAPACK's
symmetric eigensolver (``np.linalg.eigvalsh``); trust in them comes from
the safeguards below, not from the solver.

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
functions it wraps.  numpy is imported on first use as well, inside each
function that needs it, and not at module level, so loading this module
for the tracer, for a refused ``[oracle]`` section or for its records does
not pay numpy's import (most of the interpreter's start-up time).  `cli`
imports ``json`` by the same rule, only to render or read a machine
document, so ``check`` without ``--golden`` and ``verify --format csv``
skip it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .engine import EnergySeries, PotentialSpec, evaluate_energy
from .polys import Scalar, _as_fraction

if TYPE_CHECKING:
    import numpy as np

# Largest basis either gate size may have.  The Hamiltonian is a dense
# float64 matrix, 8 MB at this size and a few of them alive while it is
# built; memory grows with the square, so a mistyped size such as 100000
# would ask for tens of GiB before failing.
MAX_BASIS = 1000

# Largest shift of a requested level between the gate's two basis sizes.
GATE_TOL = 1e-10


class OracleError(RuntimeError):
    """Base class for failures that invalidate the numerical reference."""


class BasisNotConverged(OracleError):
    """Eigenvalues moved more than the gate tolerance when the basis grew."""


class EigensolverError(OracleError):
    """The eigensolver failed to converge (LAPACK raised ``LinAlgError``)."""


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


def position_matrix(n_basis: int, m: float, omega: float) -> np.ndarray:
    """Position operator in the oscillator basis: tridiagonal, hbar = 1,
    <i|x|i+1> = sqrt((i+1) / (2 m omega))."""
    import numpy as np

    x = np.zeros((n_basis, n_basis))
    off = np.sqrt((np.arange(1, n_basis)) / (2.0 * m * omega))
    idx = np.arange(n_basis - 1)
    x[idx, idx + 1] = off
    x[idx + 1, idx] = off
    return x


def _hamiltonian_at(problem: OracleProblem, n_basis: int) -> np.ndarray:
    """H = diag(omega*(i+1/2)) + sum over anharmonic terms coeff * X^power."""
    import numpy as np

    h = np.diag(problem.omega * (np.arange(n_basis) + 0.5))
    if problem.powers:
        x = position_matrix(n_basis, problem.m, problem.omega)
        for power, coeff in problem.powers:
            h = h + coeff * np.linalg.matrix_power(x, power)
    # matrix powers are symmetric up to rounding; enforce it exactly
    return (h + h.T) / 2.0


def jacobi_eigenvalues(
    h: np.ndarray, rel_tol: float = 1e-13, max_sweeps: int = 40
) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps row by row until the off-diagonal Frobenius norm drops below
    ``rel_tol`` times the Frobenius norm of the input; raises after
    ``max_sweeps`` full sweeps without reaching it.

    Not on the ``verify`` path, which uses `lowest_eigenvalues`.  It stays
    for two reasons: the test suite uses it as an independent reference
    for the LAPACK path, and the benchmark's tracer binds its name.
    Deleting it waits on a benchmark change that drops that name.
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


def lowest_eigenvalues(h: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` smallest eigenvalues of a symmetric matrix, ascending."""
    import numpy as np

    if count > h.shape[0]:
        raise ValueError(f"asked for {count} eigenvalues of a {h.shape[0]}-dim matrix")
    if not np.allclose(h, h.T, atol=0.0):
        raise ValueError("matrix must be symmetric")
    try:
        return np.linalg.eigvalsh(h)[:count]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc


def converged_levels(problem: OracleProblem) -> tuple[np.ndarray, float]:
    """Requested eigenvalues, gated on basis-size convergence.

    Diagonalizes at ``basis_size`` and ``check_size``; every requested
    level must shift by less than ``GATE_TOL`` between the two, and the
    spectrum must be strictly increasing and positive, else the result
    is rejected.
    """
    import numpy as np

    count = max(problem.levels) + 1
    base = lowest_eigenvalues(_hamiltonian_at(problem, problem.basis_size), count)
    check = lowest_eigenvalues(_hamiltonian_at(problem, problem.check_size), count)
    shift = float(np.max(np.abs(base - check)))
    if shift >= GATE_TOL:
        raise BasisNotConverged(
            f"eigenvalues moved by {shift:.3e} between basis sizes "
            f"{problem.basis_size} and {problem.check_size} "
            f"(gate {GATE_TOL:.1e})"
        )
    if np.any(check <= 0.0) or np.any(np.diff(check) <= 0.0):
        raise OracleError("spectrum is not strictly increasing and positive")
    return np.array([check[n] for n in problem.levels]), shift


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
