import math
from fractions import Fraction

import numpy as np
import pytest

from lptseries.cli import EXIT_INVALID, main
from lptseries.engine import PotentialSpec, expand
from lptseries.oracle import (
    AsymptoticBreakdown,
    BasisNotConverged,
    EigensolverError,
    OracleProblem,
    _hamiltonian_at,
    compare_series,
    converged_levels,
    jacobi_eigenvalues,
    lowest_eigenvalues,
    optimal_truncation,
    position_matrix,
    problem_from_potential,
    report_csv,
    report_text,
)
from lptseries.polys import LAM

from conftest import GOLDEN_DIR


@pytest.fixture(scope="module")
def sextic_series(sextic_spec):
    return expand(sextic_spec, 11)[1]


class TestPositionMatrix:
    def test_two_state_ladder_element(self):
        x = position_matrix(2, 1.0, 1.0)
        assert x[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert x[0, 0] == 0.0 and x[1, 1] == 0.0

    def test_three_state_elements(self):
        x = position_matrix(3, 1.0, 1.0)
        assert x[0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert x[1, 2] == pytest.approx(1.0, abs=1e-15)

    def test_exactly_symmetric(self):
        x = position_matrix(25, 2.0, 0.5)
        assert np.array_equal(x, x.T)

    def test_mass_frequency_scaling(self):
        x = position_matrix(2, 4.0, 9.0)
        assert x[0, 1] == pytest.approx(1 / math.sqrt(2 * 4 * 9), abs=1e-15)


class TestHamiltonian:
    def test_harmonic_is_diagonal(self):
        problem = problem_from_potential(PotentialSpec.make(1, 1), 0, basis_size=10,
                                         check_size=14, levels=(0,))
        h = _hamiltonian_at(problem, problem.basis_size)
        assert np.allclose(np.diag(h), np.arange(10) + 0.5)
        assert np.allclose(h - np.diag(np.diag(h)), 0.0)

    def test_sextic_ground_diagonal_element(self, sextic_spec):
        # <0|x^6|0> = 15/8, so with lam = 1 the (0,0) entry is 1/2 + 15/16
        problem = problem_from_potential(sextic_spec, 1, basis_size=30,
                                         check_size=40, levels=(0,))
        h = _hamiltonian_at(problem, problem.basis_size)
        assert h[0, 0] == pytest.approx(0.5 + 15 / 16, abs=1e-12)

    def test_zero_coupling_reduces_to_harmonic(self, sextic_spec):
        free = problem_from_potential(sextic_spec, 0, basis_size=12,
                                      check_size=16, levels=(0,))
        harmonic = problem_from_potential(PotentialSpec.make(1, 1), 0, basis_size=12,
                                          check_size=16, levels=(0,))
        assert np.allclose(_hamiltonian_at(free, free.basis_size),
                           _hamiltonian_at(harmonic, harmonic.basis_size))

    def test_direct_construction_is_checked(self):
        args = dict(m=1.0, omega=1.0, lam_value=Fraction(0), powers=(), levels=(0,))
        OracleProblem(basis_size=10, check_size=11, **args)
        with pytest.raises(ValueError, match="strictly larger"):
            OracleProblem(basis_size=10, check_size=10, **args)
        with pytest.raises(ValueError, match="too small"):
            OracleProblem(basis_size=10, check_size=20, **{**args, "levels": (4,)})
        with pytest.raises(ValueError, match=r"levels .* got \(\)"):
            OracleProblem(basis_size=10, check_size=11, **{**args, "levels": ()})
        with pytest.raises(ValueError, match=r"levels .* got \(-1,\)"):
            OracleProblem(basis_size=10, check_size=11, **{**args, "levels": (-1,)})

    def test_replace_is_checked(self):
        problem = OracleProblem(1.0, 1.0, Fraction(0), (), 10, 11, (0,))
        assert problem._replace(check_size=12).check_size == 12
        with pytest.raises(ValueError, match="strictly larger"):
            problem._replace(check_size=problem.basis_size)

    def test_records_are_immutable(self, sextic_spec, sextic_expansion):
        problem = problem_from_potential(sextic_spec, Fraction(1, 1000), 60, (0,))
        report = compare_series(sextic_expansion[1], problem)
        for record, field in ((problem, "levels"), (report, "levels"),
                              (report.levels[0], "bound")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            problem.extra = 1

    def test_basis_must_contain_target_states(self, sextic_spec):
        with pytest.raises(ValueError, match="too small"):
            problem_from_potential(sextic_spec, 1, basis_size=10, check_size=20,
                                   levels=(0, 1, 2, 3))


class TestJacobi:
    def test_diagonal_matrix_passthrough(self):
        assert np.allclose(jacobi_eigenvalues(np.diag([1.0, 2.0])), [1.0, 2.0])

    def test_matches_reference_solver_on_random_matrices(self):
        rng = np.random.default_rng(77)
        for n in (5, 20, 45):
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            mine = jacobi_eigenvalues(a)
            ref = np.linalg.eigvalsh(a)
            assert np.max(np.abs(mine - ref)) < 1e-11 * max(1.0, np.linalg.norm(a))

    def test_harmonic_spectrum_to_twelve_digits(self):
        problem = problem_from_potential(PotentialSpec.make(1, 1), 0, basis_size=40,
                                         check_size=54, levels=(0, 1, 2, 3))
        vals = lowest_eigenvalues(_hamiltonian_at(problem, problem.basis_size), 4)
        assert np.max(np.abs(vals - (np.arange(4) + 0.5))) < 1e-12

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_count_bounded_by_dimension(self):
        with pytest.raises(ValueError):
            lowest_eigenvalues(np.eye(3), 4)


QUARTIC = PotentialSpec.make(1, 1, {2: LAM})


class TestLapack:
    """`lowest_eigenvalues` (LAPACK) against the Jacobi sweep as reference."""

    @pytest.mark.parametrize("spec, lam, basis", [
        (PotentialSpec.make(1, 1), 0, 40),
        (PotentialSpec.make(1, 1, {4: LAM.scale_div(2)}), Fraction(1, 1000), 60),
        (QUARTIC, Fraction(1, 100), 120),
        (PotentialSpec.make(1, 1, {1: LAM, 2: LAM * LAM}), Fraction(1, 20), 60),
    ], ids=["harmonic", "sextic", "quartic", "cubic-quartic"])
    def test_agrees_with_jacobi_on_oracle_hamiltonians(self, spec, lam, basis):
        problem = problem_from_potential(spec, lam, basis_size=basis,
                                         check_size=basis + 20, levels=(0, 1, 2, 3))
        h = _hamiltonian_at(problem, problem.basis_size)
        lapack = lowest_eigenvalues(h, 6)
        assert np.max(np.abs(lapack - jacobi_eigenvalues(h)[:6])) < 1e-12

    def test_quartic_levels_match_the_jacobi_era_values(self):
        problem = problem_from_potential(QUARTIC, Fraction(1, 100), basis_size=120,
                                         check_size=160, levels=tuple(range(6)))
        values, _shift = converged_levels(problem)
        jacobi_era = [0.5072562045246038, 1.5356482782968066, 2.590845796190706,
                      3.6710949422258063, 4.774913118655517, 5.9010266741126385]
        assert np.max(np.abs(values - jacobi_era)) < 1e-12

    def test_lapack_failure_is_an_eigensolver_error(self, monkeypatch, capsys):
        def fail(_h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(EigensolverError, match="did not converge"):
            lowest_eigenvalues(np.eye(3), 2)
        code = main(["verify", "--config", str(GOLDEN_DIR / "sextic.ini")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().out.startswith("oracle not converged:")

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            lowest_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)


class TestMatrixElements:
    @pytest.mark.parametrize("n", range(6))
    def test_x_squared_closed_form(self, n):
        value = np.linalg.matrix_power(position_matrix(50, 1.0, 1.0), 2)[n, n]
        assert abs(value - (n + 0.5)) < 1e-10

    @pytest.mark.parametrize("n", range(6))
    def test_x_sixth_closed_form(self, n):
        value = np.linalg.matrix_power(position_matrix(50, 1.0, 1.0), 6)[n, n]
        closed = (20 * n**3 + 30 * n**2 + 40 * n + 15) / 8
        assert abs(value - closed) < 1e-10 * max(1.0, closed)

    def test_scaled_x_squared(self):
        # <n|x^2|n> = (n + 1/2)/(m omega)
        value = np.linalg.matrix_power(position_matrix(40, 2.0, 0.5), 2)[3, 3]
        assert value == pytest.approx(3.5 / (2.0 * 0.5), rel=1e-12)


class TestConvergenceGate:
    def test_gate_passes_at_small_coupling(self, sextic_spec):
        problem = problem_from_potential(sextic_spec, Fraction(1, 1000),
                                         basis_size=60, check_size=80,
                                         levels=(0, 1, 2, 3))
        values, shift = converged_levels(problem)
        assert shift < 1e-10
        assert np.all(np.diff(values) > 0) and np.all(values > 0)

    def test_gate_rejects_undersized_basis(self, sextic_spec):
        problem = problem_from_potential(sextic_spec, 1, basis_size=24,
                                         check_size=48, levels=(0, 1, 2, 3))
        with pytest.raises(BasisNotConverged):
            converged_levels(problem)


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


class TestCompareSeries:
    def test_harmonic_agreement_is_machine_level(self):
        spec = PotentialSpec.make(1, 1)
        _, series = expand(spec, 5)
        problem = problem_from_potential(spec, 0, basis_size=40, check_size=54,
                                         levels=(0, 1, 2, 3))
        report = compare_series(series, problem)
        assert report.passed
        assert all(entry.discrepancy <= 1e-10 for entry in report.levels)
        assert all(entry.first_omitted_term == 0.0 for entry in report.levels)

    def test_sextic_small_coupling_within_omitted_term_budget(self, sextic_series, sextic_spec):
        problem = problem_from_potential(sextic_spec, Fraction(1, 1000),
                                         basis_size=60, check_size=80,
                                         levels=(0, 1, 2, 3))
        report = compare_series(sextic_series, problem)
        assert report.passed
        ground = report.levels[0]
        assert ground.partial_sum == pytest.approx(0.5009244, abs=1e-6)
        assert ground.discrepancy < 1e-7

    def test_excited_level_exercises_polynomial_structure(self, sextic_series, sextic_spec):
        problem = problem_from_potential(sextic_spec, Fraction(1, 1000),
                                         basis_size=60, check_size=80, levels=(3,))
        report = compare_series(sextic_series, problem)
        assert report.passed
        assert report.levels[0].truncation_order >= 5

    def test_large_coupling_rejected_before_diagonalizing(self, sextic_series, sextic_spec):
        problem = problem_from_potential(sextic_spec, 1, basis_size=60,
                                         check_size=80, levels=(0,))
        with pytest.raises(AsymptoticBreakdown, match="do not decrease"):
            compare_series(sextic_series, problem)

    def test_short_series_rejected(self, sextic_spec):
        _, series = expand(sextic_spec, 2)
        problem = problem_from_potential(sextic_spec, Fraction(1, 1000),
                                         basis_size=30, check_size=40, levels=(0,))
        with pytest.raises(ValueError, match="too short"):
            compare_series(series, problem)

    def test_report_renderings(self, sextic_series, sextic_spec):
        problem = problem_from_potential(sextic_spec, Fraction(1, 1000),
                                         basis_size=60, check_size=80, levels=(0, 1))
        report = compare_series(sextic_series, problem)
        text = report_text(report)
        assert "basis 60 vs 80" in text and "ok" in text
        csv = report_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("level,eigenvalue")
        assert len(lines) == 3
