import math
import re
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from lptseries import oracle
from lptseries.cli import EXIT_INVALID, main
from lptseries.engine import MAX_ORDER, PotentialSpec, evaluate_energy, expand
from lptseries.oracle import (
    AsymptoticBreakdown,
    BasisNotConverged,
    EigensolverError,
    LevelReport,
    OracleProblem,
    _ProblemFields,
    _g6,
    _hamiltonian_at,
    _root_nearest_zero,
    compare_series,
    converged_levels,
    jacobi_eigenvalues,
    lowest_eigenvalues,
    optimal_truncation,
    report_csv,
    report_text,
)
from lptseries.polys import LAM

from conftest import GOLDEN_DIR


def entry(h, i, j):
    """H[i, j] of a matrix in band form."""
    return h[i][len(h[0]) // 2 + j - i]


def dense(h) -> np.ndarray:
    """The full matrix of a band form."""
    n, b = len(h), len(h[0]) // 2
    a = np.zeros((n, n))
    for i, row in enumerate(h):
        for j in range(max(0, i - b), min(n, i + b + 1)):
            a[i, j] = row[b + j - i]
    return a


def band(a) -> list[list[float]]:
    """The band form of a full matrix, as wide as its farthest nonzero."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    b = max((abs(i - j) for i, j in zip(*np.nonzero(a))), default=0)
    return [[float(a[i, i + d]) if 0 <= i + d < n else 0.0 for d in range(-b, b + 1)]
            for i in range(n)]


def norm_inf(h) -> float:
    return float(np.abs(dense(h)).sum(axis=1).max())


QUARTIC = PotentialSpec(1, 1, {2: LAM})


def x_power_diagonal(m, omega, power, n_basis):
    """<n|x^power|n> for every n, read from H of the potential x^power (at
    lam = 1) less its oscillator diagonal omega * (n + 1/2)."""
    spec = PotentialSpec(m, omega, {power - 2: LAM})
    h = _hamiltonian_at(OracleProblem(spec, 1, n_basis, None, (0,)), n_basis)
    return [entry(h, n, n) - float(omega) * (n + 0.5) for n in range(n_basis)]


def unchecked_problem(spec, lam, basis, check, levels) -> OracleProblem:
    """A problem built past `OracleProblem`'s checks: the band solver and the
    gate must still take a second well, which the record refuses."""
    return _ProblemFields.__new__(OracleProblem, spec, Fraction(lam), basis, check, levels)


class TestPositionMatrix:
    def test_exactly_symmetric(self):
        spec = PotentialSpec(Fraction(3, 2), Fraction(2, 3), {1: LAM, 2: LAM * LAM})
        problem = OracleProblem(spec, Fraction(1, 20), 25, 30, (0,))
        h = dense(_hamiltonian_at(problem, 25))
        assert np.array_equal(h, h.T)

    def test_mass_frequency_scaling(self):
        # <n|x^4|n> = 3 (2n^2 + 2n + 1) / (4 m^2 omega^2): m = 2, omega = 1/2
        # tells m from omega, and m = 1/4, omega = 1/9 scales the ladder (and
        # keeps the element large against the diagonal it is read beside)
        for m, omega in ((2, Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 9))):
            for n, value in enumerate(x_power_diagonal(m, omega, 4, 50)[:6]):
                closed = 3 * (2 * n * n + 2 * n + 1) / (4 * float(m * omega) ** 2)
                assert value == pytest.approx(closed, rel=1e-12)


class TestHamiltonian:
    def test_harmonic_is_diagonal(self):
        problem = OracleProblem(PotentialSpec(1, 1), 0, 10, 14, (0,))
        h = _hamiltonian_at(problem, problem.basis_size)
        assert h == [[i + 0.5] for i in range(10)]

    def test_sextic_ground_diagonal_element(self, sextic_spec):
        # <0|x^6|0> = 15/8, so with lam = 1 the (0,0) entry is 1/2 + 15/16
        problem = OracleProblem(sextic_spec, 1, 30, 40, (0,))
        h = _hamiltonian_at(problem, problem.basis_size)
        assert entry(h, 0, 0) == pytest.approx(0.5 + 15 / 16, abs=1e-12)

    def test_zero_coupling_reduces_to_harmonic(self, sextic_spec):
        free = OracleProblem(sextic_spec, 0, 12, 16, (0,))
        harmonic = OracleProblem(PotentialSpec(1, 1), 0, 12, 16, (0,))
        assert np.allclose(dense(_hamiltonian_at(free, free.basis_size)),
                           dense(_hamiltonian_at(harmonic, harmonic.basis_size)))

    def test_band_holds_the_truncated_dense_matrix_powers(self):
        """The leading n x n block of powers of a dense X with 2n states,
        which no walk from the block truncates: the operator's own block."""
        spec = PotentialSpec(Fraction(3, 2), Fraction(2, 3),
                             {1: LAM, 2: LAM * LAM, 4: LAM * Fraction(1, 7)})
        lam = Fraction(1, 20)
        n = 30
        problem = OracleProblem(spec, lam, n, 40, (0,))
        m, omega = float(spec.m), float(spec.omega)
        off = np.sqrt(np.arange(1, 2 * n) / (2.0 * m * omega))
        x = np.diag(off, 1) + np.diag(off, -1)
        h = np.diag(omega * (np.arange(2 * n) + 0.5))
        for i, poly in spec.terms:
            h = h + float(poly.evaluate(0, lam)) * np.linalg.matrix_power(x, i + 2)
        expected = h[:n, :n]
        got = dense(_hamiltonian_at(problem, n))
        assert np.max(np.abs(got - expected)) < 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("spec", [
        QUARTIC,
        PotentialSpec(Fraction(3, 2), Fraction(2, 3),
                      {1: LAM, 2: LAM * LAM, 4: LAM * Fraction(1, 7)}),
        PotentialSpec(1, 1, {4: LAM * Fraction(1, 2)}),
        PotentialSpec(1, 1),
    ], ids=["quartic", "cubic-quartic-sextic-m-omega", "sextic", "harmonic"])
    @pytest.mark.parametrize("n", [1, 7, 60, 61, 120])
    def test_a_smaller_basis_is_a_prefix_of_the_rows(self, spec, n):
        problem = OracleProblem(spec, Fraction(1, 20), 60, 160, (0,))
        full = _hamiltonian_at(problem, 160)
        assert np.array(_hamiltonian_at(problem, n)).tobytes() == np.array(full[:n]).tobytes()

    def test_direct_construction_is_checked(self):
        args = dict(potential=PotentialSpec(1, 1), lam_value=0, levels=(0,))
        OracleProblem(basis_size=10, check_size=11, **args)
        with pytest.raises(ValueError, match="strictly larger"):
            OracleProblem(basis_size=10, check_size=10, **args)
        with pytest.raises(ValueError, match="too small"):
            OracleProblem(basis_size=10, check_size=20, **{**args, "levels": (4,)})
        with pytest.raises(ValueError, match=r"levels .* got \(\)"):
            OracleProblem(basis_size=10, check_size=11, **{**args, "levels": ()})
        with pytest.raises(ValueError, match=r"levels .* got \(-1,\)"):
            OracleProblem(basis_size=10, check_size=11, **{**args, "levels": (-1,)})

    @pytest.mark.parametrize("field, value, message", [
        ("levels", (1.0,), "level must be an integer, got 1.0"),
        ("levels", (0, Fraction(2)), "level must be an integer, got Fraction(2, 1)"),
        ("basis_size", 60.0, "basis_size must be an integer, got 60.0"),
        ("check_size", 80.0, "check_size must be an integer, got 80.0"),
        ("check_size", "80", "check_size must be an integer, got '80'"),
    ], ids=["float-level", "fraction-level", "float-basis", "float-check", "str-check"])
    def test_non_integer_size_or_level_refused_naming_it(self, field, value, message):
        args = dict(potential=PotentialSpec(1, 1), lam_value=0, levels=(0,))
        with pytest.raises(TypeError) as refused:
            OracleProblem(**{**args, field: value})
        assert str(refused.value) == message

    def test_replace_is_checked(self):
        problem = OracleProblem(PotentialSpec(1, 1), 0, 10, 11, (0,))
        assert problem._replace(check_size=12).check_size == 12
        with pytest.raises(ValueError, match="strictly larger"):
            problem._replace(check_size=problem.basis_size)

    def test_check_size_defaults_from_the_basis_size(self):
        problem = OracleProblem(PotentialSpec(1, 1), 0, 60, None, (0,))
        assert problem.check_size == 80
        assert problem._replace(basis_size=300, check_size=None).check_size == 400
        with pytest.raises(ValueError, match=r"^check basis size 1066 exceeds the limit of 1000 "
                                             r"states, the default for basis size 800: "
                                             r"set check_basis to choose it$"):
            problem._replace(basis_size=800, check_size=None)
        # a check size that was given is named as given
        with pytest.raises(ValueError, match=r"^check basis size 1066 exceeds the limit of 1000 "
                                             r"states$"):
            problem._replace(basis_size=800, check_size=1066)

    def test_exact_inputs_stay_exact(self):
        spec = PotentialSpec(Fraction(3, 2), Fraction(2, 3), {2: LAM})
        problem = OracleProblem(spec, 1, 60, 80, [0, 2])
        assert problem.potential is spec
        assert problem.lam_value == 1 and isinstance(problem.lam_value, Fraction)
        assert problem.levels == (0, 2)

    def test_records_are_immutable(self, sextic_spec):
        problem = OracleProblem(sextic_spec, Fraction(1, 1000), 60, None, (0,))
        report = compare_series(problem, 11)
        for record, field in ((problem, "levels"), (report, "levels"),
                              (report.levels[0], "bound")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            problem.extra = 1

    def test_basis_must_contain_target_states(self, sextic_spec):
        with pytest.raises(ValueError, match="too small"):
            OracleProblem(sextic_spec, 1, 10, 20, (0, 1, 2, 3))


class TestJacobi:
    def test_diagonal_matrix_passthrough(self):
        assert np.allclose(jacobi_eigenvalues(np.diag([1.0, 2.0])), [1.0, 2.0])

    def test_harmonic_spectrum_to_twelve_digits(self):
        problem = OracleProblem(PotentialSpec(1, 1), 0, 40, 54, (0, 1, 2, 3))
        vals, _ = lowest_eigenvalues(_hamiltonian_at(problem, problem.basis_size), 4)
        assert np.max(np.abs(np.array(vals) - (np.arange(4) + 0.5))) < 1e-12

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestLapack:
    """`lowest_eigenvalues` held to what the LAPACK solver it replaced gives:
    LAPACK's values, through `jacobi_eigenvalues`, and the Jacobi-era
    literals."""

    @pytest.mark.parametrize("spec, lam, basis", [
        (PotentialSpec(1, 1), 0, 40),
        (PotentialSpec(1, 1, {4: LAM * Fraction(1, 2)}), Fraction(1, 1000), 60),
        (QUARTIC, Fraction(1, 100), 120),
        (PotentialSpec(1, 1, {1: LAM, 2: LAM * LAM}), Fraction(1, 20), 60),
    ], ids=["harmonic", "sextic", "quartic", "cubic-quartic"])
    def test_agrees_with_jacobi_on_oracle_hamiltonians(self, spec, lam, basis):
        problem = OracleProblem(spec, lam, basis, basis + 20, (0, 1, 2, 3))
        h = _hamiltonian_at(problem, problem.basis_size)
        values, _ = lowest_eigenvalues(h, 6)
        assert np.max(np.abs(values - jacobi_eigenvalues(dense(h))[:6])) < 1e-12

    def test_quartic_levels_match_the_jacobi_era_values(self):
        problem = OracleProblem(QUARTIC, Fraction(1, 100), 120, 160, tuple(range(6)))
        values, _shift = converged_levels(problem)
        jacobi_era = [0.5072562045246038, 1.5356482782968066, 2.590845796190706,
                      3.6710949422258063, 4.774913118655517, 5.9010266741126385]
        assert np.max(np.abs(np.array(values) - jacobi_era)) < 1e-12


class TestBandSolver:
    """`lowest_eigenvalues` against numpy's dense ``eigvalsh``, within a few
    eps * ||H||_inf, the scale the Sturm counts certify to."""

    @pytest.mark.parametrize("spec, lam, basis", [
        (PotentialSpec(1, 1), 0, 40),
        (QUARTIC, Fraction(1, 100), 120),
        (QUARTIC, Fraction(1, 100), 160),
        (PotentialSpec(1, 1, {4: LAM}), Fraction(1, 1000), 24),
        (PotentialSpec(1, 1, {4: LAM}), Fraction(1, 1000), 48),
        (PotentialSpec(1, 1, {4: LAM}), 1, 24),
        (PotentialSpec(1, 1, {4: LAM}), 1, 48),
        (PotentialSpec(Fraction(3, 2), Fraction(2, 3), {1: LAM, 2: LAM * LAM}),
         Fraction(1, 20), 80),
        # the x^3 term outweighs the x^4 one, so the basis holds a deep second
        # well: the lowest levels are far below zero and no |k> is near them
        (PotentialSpec(1, 1, {1: 3 * LAM, 2: LAM * LAM}), Fraction(1, 10), 80),
        (PotentialSpec(1, 1, {1: LAM, 2: LAM * LAM}), 0, 30),
        # odd sizes: the even-state block is one state larger than the odd one
        (QUARTIC, Fraction(1, 100), 121),
        (PotentialSpec(1, 1, {4: LAM}), Fraction(1, 1000), 25),
        (QUARTIC, Fraction(1, 100), 7),
    ], ids=["harmonic", "quartic-120", "quartic-160", "sextic-24", "sextic-48",
            "sextic-strong-24", "sextic-strong-48", "cubic-quartic-m-omega",
            "dominant-cubic", "cubic-quartic-at-zero", "quartic-121", "sextic-25",
            "quartic-7"])
    def test_matches_eigvalsh_on_oracle_hamiltonians(self, spec, lam, basis):
        problem = unchecked_problem(spec, lam, basis, basis + 20, (0,))
        h = _hamiltonian_at(problem, problem.basis_size)
        values, _ = lowest_eigenvalues(h, 6)
        reference = np.linalg.eigvalsh(dense(h))[:6]
        tol = 32 * sys.float_info.epsilon * norm_inf(h)
        assert np.max(np.abs(np.array(values) - reference)) <= tol

    def test_iteration_landing_on_another_level_is_bisected(self, monkeypatch):
        # |0> lies on the top level and |2> on the middle one
        h = band([[3.0, 1e-3, 0.0], [1e-3, 1.0, 2e-3], [0.0, 2e-3, 2.0]])
        quotients = []
        rayleigh = oracle._rayleigh

        def spy(*args):
            result = rayleigh(*args)
            quotients.append(result[0])
            return result

        monkeypatch.setattr(oracle, "_rayleigh", spy)
        values, vectors = lowest_eigenvalues(h, 3)
        reference = np.linalg.eigvalsh(dense(h))
        assert quotients[0] == pytest.approx(reference[2], abs=1e-12)
        assert np.max(np.abs(np.array(values) - reference)) <= (
            32 * sys.float_info.epsilon * norm_inf(h))
        # the bisected level 0 comes back with its own vector, not level 2's
        assert np.linalg.norm(dense(h) @ vectors[0] - values[0] * np.array(vectors[0])) <= 1e-12

    def test_uncertified_level_is_an_eigensolver_error(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "_sturm_count", lambda _h, _sigma, _tiny: 0)
        with pytest.raises(EigensolverError, match="cannot bracket level 0"):
            lowest_eigenvalues(band(np.eye(3)), 2)
        code = main(["verify", "--config", str(GOLDEN_DIR / "sextic.ini")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().out.startswith("oracle not converged:")

    def test_no_levels_asked(self):
        assert lowest_eigenvalues(band(np.eye(3)), 0) == ([], [])

    def test_non_finite_entry_is_an_eigensolver_error(self):
        with pytest.raises(EigensolverError, match="non-finite"):
            lowest_eigenvalues([[1.0], [math.inf]], 1)


def gate_bands(spec, lam, basis, check):
    """H at the two basis sizes of a gate."""
    problem = OracleProblem(spec, lam, basis, check, (0,))
    return _hamiltonian_at(problem, basis), _hamiltonian_at(problem, check)


def assert_lowest_levels(values, h):
    """``values`` are the lowest levels of ``h``, to the certified scale."""
    reference = np.linalg.eigvalsh(dense(h))[:len(values)]
    tol = 32 * sys.float_info.epsilon * norm_inf(h)
    assert np.max(np.abs(np.array(values) - reference)) <= tol


GATES = [
    (QUARTIC, Fraction(1, 100), 120, 160),
    (QUARTIC, Fraction(1, 100), 61, 80),
    (PotentialSpec(1, 1, {1: LAM, 2: LAM * LAM}), Fraction(1, 100), 60, 80),
    (PotentialSpec(1, 1, {4: LAM}), Fraction(1, 1000), 60, 81),
]
GATE_IDS = ["quartic-120-160", "quartic-61-80", "cubic-quartic-60-80", "sextic-60-81"]
# a gate where the iteration misses level 5 from |5> at both sizes
BISECTED_GATE = (PotentialSpec(1, 1, {4: LAM * Fraction(1, 2)}), Fraction(1, 50), 120, 160)
SEXTIC_BISECTED = OracleProblem(*BISECTED_GATE, tuple(range(6)))


class TestInterlacing:
    """The base size's H is a leading principal block of the check size's,
    so by Cauchy interlacing no level can rise as the basis grows."""

    @pytest.mark.parametrize("spec, lam, basis, check",
                             GATES + [(QUARTIC, Fraction(1), 30, 40)],
                             ids=GATE_IDS + ["quartic-strong-30-40"])
    def test_levels_only_fall_as_the_basis_grows(self, spec, lam, basis, check):
        base, larger = gate_bands(spec, lam, basis, check)
        tol = 32 * sys.float_info.epsilon * norm_inf(larger)
        for a, c in zip(lowest_eigenvalues(base, 6)[0], lowest_eigenvalues(larger, 6)[0]):
            assert a - c >= -tol


class TestWarmStart:
    """The check size's iteration started from the base size's eigenvectors."""

    @pytest.mark.parametrize("spec, lam, basis, check", GATES, ids=GATE_IDS)
    def test_warm_start_gives_the_cold_start_levels(self, spec, lam, basis, check):
        base, larger = gate_bands(spec, lam, basis, check)
        _, vectors = lowest_eigenvalues(base, 6)
        warm, _ = lowest_eigenvalues(larger, 6, vectors)
        cold, _ = lowest_eigenvalues(larger, 6)
        assert_lowest_levels(warm, larger)
        assert_lowest_levels(cold, larger)
        assert np.max(np.abs(np.array(warm) - cold)) <= 32 * sys.float_info.epsilon * norm_inf(larger)

    @pytest.mark.parametrize("spec, lam, basis, check", GATES, ids=GATE_IDS)
    def test_warm_start_takes_at_most_two_steps_per_level(self, monkeypatch, spec, lam,
                                                          basis, check):
        base, larger = gate_bands(spec, lam, basis, check)
        _, vectors = lowest_eigenvalues(base, 6)
        steps = []
        solve = oracle._ldl_solve

        def spy(*args):  # one solve per Rayleigh-quotient step
            steps.append(1)
            return solve(*args)

        monkeypatch.setattr(oracle, "_ldl_solve", spy)
        assert_lowest_levels(lowest_eigenvalues(larger, 6, vectors)[0], larger)
        assert len(steps) <= 2 * 6

    # a bisected level's vector is its polished one
    @pytest.mark.parametrize("spec, lam, basis, check", GATES + [BISECTED_GATE],
                             ids=GATE_IDS + ["sextic-bisected-120-160"])
    def test_vectors_are_eigenvectors_in_the_basis_of_h(self, spec, lam, basis, check):
        h, _ = gate_bands(spec, lam, basis, check)
        values, vectors = lowest_eigenvalues(h, 6)
        a = dense(h)
        for value, x in zip(values, vectors):
            assert len(x) == basis
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(a @ x - value * np.array(x)) <= 1e-9

    @pytest.mark.parametrize("spec, lam, basis, check", GATES, ids=GATE_IDS)
    @pytest.mark.parametrize("swap", [(0, 2), (0, 1), (3, 5)])
    def test_swapped_warm_start_still_certifies_the_right_levels(self, monkeypatch, spec, lam,
                                                                 basis, check, swap):
        # each swapped vector leads its iteration to the other level, and the
        # counts fall back to bisection; across the parity blocks of an even
        # potential it holds nothing of the level's block, which starts cold
        base, larger = gate_bands(spec, lam, basis, check)
        _, vectors = lowest_eigenvalues(base, 6)
        i, j = swap
        vectors[i], vectors[j] = vectors[j], vectors[i]
        counts = []
        sturm = oracle._sturm_count

        def spy(*args):
            counts.append(args[1])
            return sturm(*args)

        monkeypatch.setattr(oracle, "_sturm_count", spy)
        assert_lowest_levels(lowest_eigenvalues(larger, 6, vectors)[0], larger)
        even = not any(index % 2 for index, _ in spec.terms)  # V(-x) = V(x)
        cold_start = even and (i - j) % 2
        assert (len(counts) == 6 + 1) if cold_start else (len(counts) > 6 + 1)

    def test_converged_levels_warm_starts_the_check_size(self, monkeypatch):
        problem = OracleProblem(QUARTIC, Fraction(1, 100), 120, 160, tuple(range(6)))
        calls = []
        solve = oracle.lowest_eigenvalues

        def spy(h, count, *args, **kwargs):
            calls.append((len(h), args, kwargs))
            return solve(h, count, *args, **kwargs)

        monkeypatch.setattr(oracle, "lowest_eigenvalues", spy)
        converged_levels(problem)
        (base_size, base_args, base_kwargs), (check_size, check_args, _) = calls
        assert (base_size, base_args, base_kwargs) == (120, (), {})
        assert check_size == 160 and len(check_args[0]) == 6

    def test_a_bisected_level_warm_starts_on_itself(self, monkeypatch):
        # the base size bisects level 5; started from its polished vector,
        # the check size's iteration lands on it, and one count per gap holds
        sizes = []
        sturm = oracle._sturm_count

        def spy(h, sigma, tiny):
            sizes.append(len(h))
            return sturm(h, sigma, tiny)

        monkeypatch.setattr(oracle, "_sturm_count", spy)
        values, shift = converged_levels(SEXTIC_BISECTED)
        assert sizes.count(SEXTIC_BISECTED.basis_size) > 6 + 1
        assert sizes.count(SEXTIC_BISECTED.check_size) == 6 + 1
        assert shift < oracle.GATE_TOL
        assert_lowest_levels(values, _hamiltonian_at(SEXTIC_BISECTED, SEXTIC_BISECTED.check_size))


class TestOneCountPerGap:
    """All levels certified by count + 1 Sturm counts, with per-level counts
    and bisection when the intervals or the counts do not line up."""

    @pytest.mark.parametrize("spec, lam, basis, check", GATES, ids=GATE_IDS)
    def test_levels_cost_one_count_per_gap(self, monkeypatch, spec, lam, basis, check):
        h, _ = gate_bands(spec, lam, basis, check)
        counts = []
        sturm = oracle._sturm_count

        def spy(*args):
            counts.append(args[1])
            return sturm(*args)

        monkeypatch.setattr(oracle, "_sturm_count", spy)
        assert_lowest_levels(lowest_eigenvalues(h, 6)[0], h)
        assert len(counts) == 6 + 1 and counts == sorted(counts)

    def test_overlapping_intervals_fall_back_to_bisection(self, monkeypatch):
        h, _ = gate_bands(*GATES[2])
        rayleigh = oracle._rayleigh
        first = []

        def stuck(h, x, floor):  # every level gets the first level's interval
            result = rayleigh(h, x, floor)
            if len(first) == 6:  # the proposals are altered, not the polish
                return result
            first.append(first[0] if first else result)
            return first[-1][:2] + result[2:]

        monkeypatch.setattr(oracle, "_rayleigh", stuck)
        assert_lowest_levels(lowest_eigenvalues(h, 6)[0], h)
        assert len(first) == 6

    def test_descending_intervals_fall_back_to_bisection(self, monkeypatch):
        h, _ = gate_bands(*GATES[2])
        rayleigh = oracle._rayleigh
        states = iter(range(5, -1, -1))

        def reversed_start(h, x, floor):  # level k starts from |5 - k>
            state = next(states, None)
            if state is None:  # the proposals are altered, not the polish
                return rayleigh(h, x, floor)
            start = [0.0] * len(h)
            start[state] = 1.0
            return rayleigh(h, start, floor)

        monkeypatch.setattr(oracle, "_rayleigh", reversed_start)
        assert_lowest_levels(lowest_eigenvalues(h, 6)[0], h)

    @pytest.mark.parametrize("spec, lam, basis, check", GATES[:1] + GATES[2:3],
                             ids=GATE_IDS[:1] + GATE_IDS[2:3])
    def test_a_count_that_is_off_falls_back_to_per_level_counts(self, monkeypatch, spec,
                                                                lam, basis, check):
        h, _ = gate_bands(spec, lam, basis, check)
        expected, _ = lowest_eigenvalues(h, 6)
        sturm = oracle._sturm_count
        calls = []

        def off_once(*args):
            calls.append(1)
            return sturm(*args) + (len(calls) == 3)

        monkeypatch.setattr(oracle, "_sturm_count", off_once)
        # each level's own counts accept its quotient, as the gap counts would have
        assert lowest_eigenvalues(h, 6)[0] == expected
        assert len(calls) == 3 + 2 * 6


class TestUnboundedBelow:
    """An odd or negative highest term has no bound states: refused before
    anything is diagonalized, on the exact coefficients."""

    @pytest.mark.parametrize("terms, lam, term", [
        ({1: LAM}, Fraction(1, 100), "1/100 x^3"),
        ({2: LAM}, Fraction(-1, 100), "-1/100 x^4"),
        ({1: LAM, 2: LAM * LAM, 3: LAM}, Fraction(1, 10), "1/10 x^5"),
        ({1: LAM, 2: LAM, 4: LAM * -1}, Fraction(1, 10), "-1/10 x^6"),
        # the x^4 coefficient vanishes exactly at this coupling: x^3 rules
        ({1: LAM, 2: LAM + Fraction(-1, 10)}, Fraction(1, 10), "1/10 x^3"),
    ], ids=["pure-cubic", "negative-quartic", "quintic", "negative-sextic",
            "quartic-cancels"])
    def test_refused_naming_the_term(self, terms, lam, term):
        with pytest.raises(ValueError, match=rf"unbounded below .*: its highest term is {re.escape(term)}$"):
            OracleProblem(PotentialSpec(1, 1, terms), lam, 60, None, (0,))

    @pytest.mark.parametrize("terms, lam", [
        ({1: LAM, 2: LAM * LAM}, Fraction(1, 20)),
        ({2: LAM, 4: LAM * LAM}, Fraction(-1, 10)),
        ({1: LAM}, 0),
        ({}, 1),
    ], ids=["cubic-quartic", "sextic-at-negative-coupling", "cubic-at-zero", "harmonic"])
    def test_bounded_potentials_pass(self, terms, lam):
        OracleProblem(PotentialSpec(1, 1, terms), lam, 60, None, (0,))

    def test_no_construction_skips_the_check(self):
        # the record is the only way to a problem: built directly with both
        # sizes, or with its potential replaced, a pure cubic is refused
        cubic = PotentialSpec(1, 1, {1: LAM})
        with pytest.raises(ValueError, match="unbounded below"):
            OracleProblem(cubic, Fraction(1, 100), 60, 80, (0,))
        quartic = OracleProblem(QUARTIC, Fraction(1, 100), 60, 80, (0,))
        with pytest.raises(ValueError, match="unbounded below"):
            quartic._replace(potential=cubic)
        with pytest.raises(ValueError, match="unbounded below"):
            quartic._replace(lam_value=Fraction(-1, 100))


class TestSingleWell:
    """A stationary point besides x = 0 means a second well, or a flat step
    towards one: refused on the exact coefficients, naming the point nearest
    0 to six digits."""

    @pytest.mark.parametrize("terms, lam, where", [
        # V'(x)/x = (1 + x/2)^2: a repeated root, at a point the bisection meets
        ({1: LAM, 2: LAM * LAM * Fraction(9, 16)}, Fraction(1, 3), "-2"),
        ({1: LAM, 2: LAM, 4: LAM * LAM}, Fraction(-1, 10), "1.43532"),
        # V'(x)/x = 1 - 4x^2 + x^4: roots at +-0.517638 and +-1.93185
        ({2: LAM, 4: LAM * LAM * Fraction(1, 6)}, Fraction(-1), "0.517638"),
    ], ids=["repeated-root", "sextic-at-negative-coupling", "symmetric"])
    def test_refused_naming_the_point(self, terms, lam, where):
        message = (f"not a single well at lam = {lam}: "
                   f"V'(x) = 0 at x = {where} as well as at x = 0")
        with pytest.raises(ValueError, match=re.escape(message)):
            OracleProblem(PotentialSpec(1, 1, terms), lam, 60, None, (0,))

    def test_repeated_root_at_a_counted_point(self):
        # (1 + x/2)^2 (1 - 2x/3) (1 + x/8): the count at r = 2 meets the double
        # root -2, where every member of the Sturm sequence of the polynomial
        # itself vanishes; that of its square-free part still finds 3/2
        coeffs = [Fraction(c) for c in ("1", "11/24", "-3/8", "-7/32", "-1/48")]
        assert _g6(_root_nearest_zero(coeffs)) == "1.5"


class TestDoubleRange:
    """Every quantity H is built from must have a double: refused, naming
    it, if it overflows one or if it is nonzero and rounds to zero."""

    BIG, TINY = Fraction(10**400), Fraction(1, 10**400)

    @pytest.mark.parametrize("m, omega, terms, lam, message", [
        (BIG, 1, {2: LAM}, Fraction(1, 100), "m = 1e+400"),
        (TINY, 1, {2: LAM}, Fraction(1, 100), "m = 1e-400"),
        (1, BIG, {2: LAM}, Fraction(1, 100), "omega = 1e+400"),
        (1, TINY, {2: LAM}, Fraction(1, 100), "omega = 1e-400"),
        (1, 1, {2: LAM}, BIG, "lam = 1e+400"),
        (1, 1, {2: LAM}, -TINY, "lam = -1e-400"),
        (1, 1, {2: LAM * LAM}, Fraction(10**200), "the x^4 coefficient = 1e+400"),
        (1, 1, {1: LAM, 4: LAM * LAM}, Fraction(1, 10**200), "the x^6 coefficient = 1e-400"),
    ], ids=["huge-m", "tiny-m", "huge-omega", "tiny-omega", "huge-lam", "tiny-lam",
            "huge-coefficient", "tiny-coefficient"])
    def test_refused_naming_the_quantity(self, m, omega, terms, lam, message):
        spec = PotentialSpec(m, omega, terms)
        outside = rf"^{re.escape(message)} is outside the range of a double$"
        with pytest.raises(ValueError, match=outside):
            OracleProblem(spec, lam, 60, None, (0,))

    # six significant digits, ties to even, as .6g prints a double in range
    @pytest.mark.parametrize("value, text", [
        (BIG, "1e+400"),
        (Fraction(-123456789, 10**330), "-1.23457e-322"),
        (Fraction(5, 10**400), "5e-400"),
        (Fraction(3, 7 * 10**20000), "4.28571e-20001"),
        (Fraction(1234565, 10**326), "1.23456e-320"),  # a tie, kept even
        (Fraction(1234575, 10**326), "1.23458e-320"),  # a tie, rounded up to even
        (Fraction(9999995, 10**340), "1e-333"),  # a tie that rolls over a power of ten
    ], ids=["huge", "negative-subnormal", "tiny", "far-below", "tie-down", "tie-up",
            "tie-rolls-over"])
    def test_outside_values_printed_to_six_digits(self, value, text):
        assert _g6(value) == text

    def test_far_outside_values_are_printed_promptly(self):
        start = time.process_time()
        assert _g6(Fraction(1, 10**400000)) == "1e-400000"
        assert time.process_time() - start < 2

    def test_largest_and_smallest_doubles_pass(self):
        big, tiny = Fraction(sys.float_info.max), Fraction(sys.float_info.min)
        OracleProblem(PotentialSpec(big, tiny, {2: LAM}), tiny, 60, None, (0,))
        OracleProblem(PotentialSpec(tiny, big, {2: LAM}), big, 60, None, (0,))
        # an exact zero is a double
        OracleProblem(PotentialSpec(1, 1, {1: LAM}), 0, 60, None, (0,))


class TestMatrixElements:
    @pytest.mark.parametrize("n", range(6))
    def test_x_sixth_closed_form(self, n):
        value = x_power_diagonal(1, 1, 6, 50)[n]
        closed = (20 * n**3 + 30 * n**2 + 40 * n + 15) / 8
        assert abs(value - closed) < 1e-10 * max(1.0, closed)


class TestConvergenceGate:
    def test_gate_passes_at_small_coupling(self, sextic_spec):
        problem = OracleProblem(sextic_spec, Fraction(1, 1000), 60, 80, (0, 1, 2, 3))
        values, shift = converged_levels(problem)
        assert shift < 1e-10
        assert all(0 < a < b for a, b in zip(values, values[1:]))

    # at these sizes the iteration misses some level, which bisection finds
    # and the polish makes as accurate as the iteration's own levels
    @pytest.mark.parametrize("spec, lam, basis, check", [
        (PotentialSpec(1, 1, {4: LAM * Fraction(1, 2)}), Fraction(1, 50), 120, 160),
        (QUARTIC, Fraction(1), 120, 400),
        (PotentialSpec(1, 1, {4: LAM}), Fraction(1, 20), 120, 160),
        (PotentialSpec(1, 1, {1: LAM * Fraction(1, 2), 2: LAM}), Fraction(1, 2), 120, 400),
    ], ids=["sextic-half", "quartic-strong", "sextic-one", "cubic-quartic-half"])
    def test_converged_basis_passes_where_bisection_runs(self, spec, lam, basis, check):
        problem = OracleProblem(spec, lam, basis, check, tuple(range(6)))
        values, shift = converged_levels(problem)
        assert shift < oracle.GATE_TOL
        assert_lowest_levels(values, _hamiltonian_at(problem, check))

    def test_gate_rejects_undersized_basis(self, sextic_spec):
        problem = OracleProblem(sextic_spec, 1, 24, 48, (0, 1, 2, 3))
        with pytest.raises(BasisNotConverged):
            converged_levels(problem)

    def test_gate_rejects_a_spectrum_below_zero(self):
        # the double well V = x^2/2 + lam x^3 + lam^2 x^4/4: at lam = 1/2 both
        # bases reach its outer well near x = -5.24, where V is about -11, so
        # the ground level, about -9.9, passes the gate and is not positive
        spec = PotentialSpec(1, 1, {1: LAM, 2: LAM * LAM * Fraction(1, 4)})
        with pytest.raises(oracle.OracleError, match="^spectrum is not strictly increasing"):
            converged_levels(unchecked_problem(spec, Fraction(1, 2), 60, 80, (0,)))

    @pytest.mark.parametrize("J, b", [
        (0, Fraction(5, 4)), (0, Fraction(11, 10)), (0, Fraction(103, 100)),
        (1, Fraction(5, 4)), (1, Fraction(11, 10)), (1, Fraction(103, 100)),
    ], ids=["b0", "b1", "b2", "J1-b0", "J1-b1", "J1-b2"])
    def test_quasi_exactly_solvable_ground_state(self, J, b):
        # V = (a x^3 + b x)^2 / 2 - (4J + 3) a x^2 / 2 with a = (b^2 - 1) / (4J + 3)
        # is the oscillator at m = omega = 1 plus a b x^4 + a^2 x^6 / 2.  Let
        # G = exp(-a x^4 / 4 - b x^2 / 2).  At J = 0 the ground state G lies at
        # E_0 = b / 2.  At J = 1, H maps span{G, x^2 G} into itself by
        # [[b/2, -1], [-2a, 5b/2]], so levels 0 and 2 are 3b/2 -+ sqrt(b^2 + 2a)
        a = (b * b - 1) / (4 * J + 3)
        spec = PotentialSpec(1, 1, {2: LAM * (a * b), 4: LAM * LAM * (a * a / 2)})
        root = math.sqrt(b * b + 2 * a)
        exact = {0: b / 2} if J == 0 else {0: 3 * b / 2 - root, 2: 3 * b / 2 + root}
        values, _ = converged_levels(OracleProblem(spec, 1, 120, 160, tuple(exact)))
        assert len(values) == len(exact)
        assert all(abs(value - e) < 1e-12 for value, e in zip(values, exact.values()))


class TestOptimalTruncation:
    def test_strictly_decreasing_series_truncates_at_last_term(self):
        terms = [Fraction(0), Fraction(1), Fraction(1, 10), Fraction(1, 100)]
        k_star, omitted = optimal_truncation(terms)
        assert (k_star, omitted) == (3, Fraction(1, 100))

    def test_interior_minimum_is_the_turn(self):
        terms = [Fraction(0), Fraction(1), Fraction(1, 10), Fraction(1, 4), Fraction(2)]
        k_star, omitted = optimal_truncation(terms)
        assert (k_star, omitted) == (2, Fraction(1, 10))

    def test_structural_zeros_are_ignored(self):
        terms = [Fraction(0), Fraction(1), Fraction(0), Fraction(1, 10), Fraction(0)]
        k_star, omitted = optimal_truncation(terms)
        assert (k_star, omitted) == (3, Fraction(1, 10))

    def test_terminating_series_is_summed_in_full(self):
        terms = [Fraction(0), Fraction(5, 2), Fraction(0), Fraction(0)]
        k_star, omitted = optimal_truncation(terms)
        assert (k_star, omitted) == (2, Fraction(0))

    def test_growing_terms_rejected(self):
        with pytest.raises(AsymptoticBreakdown):
            optimal_truncation([Fraction(0), Fraction(1, 2), Fraction(15, 16)])

    @pytest.mark.parametrize("first, second, shown", [
        (Fraction(1, 2), Fraction(-3, 4), "|0.5| then |-0.75|"),
        (Fraction(1, 3), Fraction(10**598 * 3, 4), "|0.333333| then |7.5e+597|"),
        (Fraction(-1, 10**400), 1, "|-1e-400| then |1|"),
        (Fraction(1, 10**315), Fraction(2, 10**315), "|1e-315| then |2e-315|"),
        (Fraction(12345678 * 10**393), -2 * 10**400, "|1.23457e+400| then |-2e+400|"),
    ], ids=["doubles", "overflow", "underflow", "subnormal", "rounded"])
    def test_breakdown_names_terms_of_any_magnitude(self, first, second, shown):
        with pytest.raises(AsymptoticBreakdown, match=rf"\({re.escape(shown)}\)"):
            optimal_truncation([Fraction(0), first, second])


class TestCompareSeries:
    def test_harmonic_agreement_is_machine_level(self):
        spec = PotentialSpec(1, 1)
        problem = OracleProblem(spec, 0, 40, 54, (0, 1, 2, 3))
        report = compare_series(problem, 5)
        assert report.passed
        assert all(entry.discrepancy <= 1e-10 for entry in report.levels)
        assert all(entry.first_omitted_term == 0.0 for entry in report.levels)

    def test_sextic_small_coupling_within_omitted_term_budget(self, sextic_spec):
        problem = OracleProblem(sextic_spec, Fraction(1, 1000), 60, 80, (0, 1, 2, 3))
        report = compare_series(problem, 11)
        assert report.passed
        ground = report.levels[0]
        assert ground.partial_sum == pytest.approx(0.5009244, abs=1e-6)
        assert ground.discrepancy < 1e-7

    def test_excited_level_exercises_polynomial_structure(self, sextic_spec):
        problem = OracleProblem(sextic_spec, Fraction(1, 1000), 60, 80, (3,))
        report = compare_series(problem, 11)
        assert report.passed
        assert report.levels[0].truncation_order >= 5

    def test_large_coupling_rejected_before_diagonalizing(self, sextic_spec):
        problem = OracleProblem(sextic_spec, 1, 60, 80, (0,))
        with pytest.raises(AsymptoticBreakdown, match="do not decrease"):
            compare_series(problem, 11)

    def test_short_series_rejected(self, sextic_spec):
        problem = OracleProblem(sextic_spec, Fraction(1, 1000), 30, 40, (0,))
        with pytest.raises(ValueError, match="too short"):
            compare_series(problem, 2)

    def test_report_renderings(self, sextic_spec):
        problem = OracleProblem(sextic_spec, Fraction(1, 1000), 60, 80, (0, 1))
        report = compare_series(problem, 11)
        text = report_text(report)
        assert "basis 60 vs 80" in text and "ok" in text
        csv = report_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("level,eigenvalue")
        assert len(lines) == 3

    def test_csv_columns_are_the_level_records_fields(self, sextic_spec):
        problem = OracleProblem(sextic_spec, Fraction(1, 1000), 60, 80, (0, 1))
        levels = (LevelReport(0, 0.5, 0.25, 2, 0.0, 0.25, 1e-10),
                  LevelReport(1, 1.5, 1.5, 11, -3e-7, 0.0, 3e-6))
        assert report_csv(oracle.OracleReport(problem, 0.0, levels)) == (
            "level,eigenvalue,partial_sum,truncation_order,first_omitted_term,discrepancy,"
            "bound,ok\n0,0.5,0.25,2,0.0,0.25,1e-10,False\n1,1.5,1.5,11,-3e-07,0.0,3e-06,True\n")

    def test_text_names_a_coupling_below_the_normal_doubles(self, sextic_spec):
        # float(1/10^320) keeps three digits of it: 9.99989e-321
        problem = OracleProblem(sextic_spec, Fraction(1, 10**320), 60, 80, (0,))
        text = report_text(oracle.OracleReport(problem, 0.0, ()))
        assert text.splitlines()[1] == f"coupling lam = 1/{10**320} (1e-320)"


class TestRefuseFromTheHead:
    """`compare_series` seeks a breakdown in the series' head before it
    builds the whole series: each case spies on the orders it expands."""

    # f1 = lam, f2 = 11/6 lam^2: E_2 vanishes at level 0 and not at level 1
    CUBIC_QUARTIC = {1: LAM, 2: LAM * LAM * Fraction(11, 6)}

    @staticmethod
    def expanded_orders(monkeypatch) -> list[int]:
        orders: list[int] = []
        monkeypatch.setattr(oracle, "expand",
                            lambda spec, k: orders.append(k) or expand(spec, k))
        return orders

    @staticmethod
    def full_series_refusal(problem: OracleProblem, order: int) -> str | None:
        """The first breakdown, level by level, of the whole series alone."""
        series = expand(problem.potential, order)[1]
        try:
            for level in problem.levels:
                optimal_truncation(evaluate_energy(series, level, problem.lam_value))
        except AsymptoticBreakdown as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("terms, lam, levels, terms_shown, built", [
        ({2: LAM}, 1, (0, 1), "|0.5| then |0.75|", [2]),
        ({4: LAM}, 1, (0,), "|0.5| then |1.875|", [3]),  # the sextic's E_2 is zero
        (CUBIC_QUARTIC, 1, (1, 0), "|1.5| then |-2|", [2]),
        # level 0's head holds E_1 alone, so level 1's breakdown must not come
        # first: the whole series refuses level 0
        (CUBIC_QUARTIC, 1, (0, 1), "|0.5| then |15.8333|", [2, 8]),
        ({4: LAM}, Fraction(1, 1000), (0, 1), None, [3, 8]),
    ], ids=["quartic", "sextic", "cubic-quartic", "cubic-quartic-undecided", "sextic-small"])
    def test_refuses_as_the_full_series_does(self, monkeypatch, terms, lam, levels,
                                             terms_shown, built):
        problem = OracleProblem(PotentialSpec(1, 1, terms), lam, 60, 80, levels)
        refusal = self.full_series_refusal(problem, 8)
        orders = self.expanded_orders(monkeypatch)
        if terms_shown is None:
            assert refusal is None
            assert compare_series(problem, 8).passed
        else:
            with pytest.raises(AsymptoticBreakdown, match=re.escape(terms_shown)) as refused:
                compare_series(problem, 8)
            assert str(refused.value) == refusal
        assert orders == built

    # ``built`` is the head, expanded alone before the whole series
    @pytest.mark.parametrize("terms, order, built", [
        ({2: LAM}, 11, [2]),
        ({1: LAM, 2: LAM}, 9, [2]),
        ({2: LAM, 4: LAM}, 10, [2]),
        ({4: LAM}, 11, [3]),
        ({}, 21, []),  # no later slot on the lattice
        ({4: LAM}, 3, []),  # the head would be the whole series
        ({2: LAM}, 2, []),  # too short to truncate
        ({2: LAM}, MAX_ORDER + 1, []),  # above the limit
    ])
    def test_expands_the_head_alone(self, monkeypatch, terms, order, built):
        orders = self.expanded_orders(monkeypatch)
        problem = OracleProblem(PotentialSpec(1, 1, terms), Fraction(1, 100), 60, 80, (0,))
        if 3 <= order <= MAX_ORDER:
            compare_series(problem, order)
        else:
            with pytest.raises(ValueError, match="too short to truncate|exceeds the limit"):
                compare_series(problem, order)
        assert orders == [*built, order]
