from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import hermite as npherm

from lptseries.engine import PotentialSpec, expand
from lptseries.harmonic import (
    NodePolynomial,
    crosscheck_with_engine,
    d_sequence,
    hermite_ratio_check,
    reconstruct_polynomial,
    table_residues,
)
from lptseries.polys import N, BiPoly

from conftest import add_to_cell

HALF = Fraction(1, 2)


class TestDSequence:
    def test_first_residues(self):
        ds = d_sequence(3)
        assert ds.d[1] == N
        assert ds.d[2] == (N * N - N).scale_div(2)
        assert ds.d[3] == BiPoly(
            {(3, 0): HALF, (2, 0): Fraction(-5, 4), (1, 0): Fraction(3, 4)}
        )

    def test_third_residue_at_level_two(self):
        # the residue series of P'/P does not terminate for n >= 2
        ds = d_sequence(3)
        assert ds.at_level(3, 2) == HALF

    def test_pure_gaussian_levels_have_single_residue(self):
        ds = d_sequence(20)
        for k in range(2, 21):
            assert ds.at_level(k, 0) == 0
            assert ds.at_level(k, 1) == 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            d_sequence(0)

    def test_records_are_immutable(self):
        ds = d_sequence(3)
        p = reconstruct_polynomial(2, ds)
        for record, field in ((ds, "d"), (p, "a"), (p, "level")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))


def hermite_coefficients(n: int) -> list[Fraction]:
    """Coefficients of H_n in the standard power basis, exact.

    Integer-valued for every n, so converting the float output of the
    numpy basis transform is lossless for the small n used here.
    """
    basis = [0.0] * n + [1.0]
    coeffs = npherm.herm2poly(basis)
    return [Fraction(int(round(c))) for c in coeffs]


class TestReconstruction:
    def test_ground_state(self):
        p = reconstruct_polynomial(0, d_sequence(1))
        assert (p.sigma, p.m0, p.a) == (0, 0, (Fraction(1),))

    def test_level_two(self):
        p = reconstruct_polynomial(2, d_sequence(2))
        assert (p.sigma, p.m0) == (0, 1)
        assert p.a == (Fraction(-1, 2), Fraction(1))

    def test_level_three(self):
        p = reconstruct_polynomial(3, d_sequence(2))
        assert (p.sigma, p.m0) == (1, 1)
        assert p.a == (Fraction(-3, 2), Fraction(1))

    def test_level_five(self):
        p = reconstruct_polynomial(5, d_sequence(3))
        assert p.a == (Fraction(15, 4), Fraction(-5), Fraction(1))

    def test_requires_enough_residues(self):
        with pytest.raises(ValueError, match="residues"):
            reconstruct_polynomial(6, d_sequence(2))

    @pytest.mark.parametrize("n", range(9))
    def test_matches_textbook_hermite_ratios(self, n):
        ds = d_sequence(n // 2 + 1)
        p = reconstruct_polynomial(n, ds)
        h = hermite_coefficients(n)
        lead = h[n]
        for i, a_i in enumerate(p.a):
            assert a_i == h[2 * i + p.sigma] / lead


class TestHermiteRatio:
    @pytest.mark.parametrize("n", range(9))
    def test_reconstruction_satisfies_recurrence(self, n):
        ds = d_sequence(n // 2 + 1)
        p = reconstruct_polynomial(n, ds)
        assert hermite_ratio_check(n, p)

    def test_detects_a_perturbed_coefficient(self):
        p = reconstruct_polynomial(2, d_sequence(2))
        corrupted = NodePolynomial(
            level=2, sigma=0, m0=1, a=(p.a[0] + 1, p.a[1])
        )
        assert not hermite_ratio_check(2, corrupted)

    def test_level_mismatch_rejected(self):
        p = reconstruct_polynomial(2, d_sequence(2))
        with pytest.raises(ValueError):
            hermite_ratio_check(3, p)


# (m, omega) of the oscillators the crosscheck is run on
OSCILLATORS = [(1, 1), (2, Fraction(3, 5)), (Fraction(1, 3), 4)]


class TestEngineCrosscheck:
    @pytest.mark.parametrize("order", [2, 10, 20])
    def test_generic_recursion_restores_closed_form(self, order):
        spec = PotentialSpec.make(1, 1)
        table, _ = expand(spec, order)
        assert crosscheck_with_engine(table, table_residues(table, spec))

    @pytest.mark.parametrize("slot", [0, 3])
    def test_passed_table_with_one_corrupted_row_fails(self, slot):
        spec = PotentialSpec.make(1, 1)
        table, _ = expand(spec, 8)
        assert crosscheck_with_engine(table, table_residues(table, spec))
        add_to_cell(table, 5, slot, N)
        assert not crosscheck_with_engine(table, table_residues(table, spec))

    @pytest.mark.parametrize("m, omega", OSCILLATORS)
    def test_rows_are_residues_scaled_by_m_omega(self, m, omega):
        spec = PotentialSpec.make(m, omega)
        table, _ = expand(spec, 12)
        assert crosscheck_with_engine(table, table_residues(table, spec))
        ds = d_sequence(12)
        for k in range(1, 13):
            assert table.rows[k][0] * (Fraction(m) * omega) ** (k - 1) == ds.d[k]

    @pytest.mark.parametrize("m, omega", OSCILLATORS)
    @pytest.mark.parametrize("row, slot", [(5, 0), (5, 3), (12, 0)])
    def test_corrupted_row_fails_at_any_m_and_omega(self, m, omega, row, slot):
        spec = PotentialSpec.make(m, omega)
        table, _ = expand(spec, 12)
        add_to_cell(table, row, slot, N)
        assert not crosscheck_with_engine(table, table_residues(table, spec))

    @pytest.mark.parametrize("m, omega", OSCILLATORS[1:])
    def test_table_of_another_oscillator_fails(self, m, omega):
        unit_table, _ = expand(PotentialSpec.make(1, 1), 8)
        residues = table_residues(unit_table, PotentialSpec.make(m, omega))
        assert not crosscheck_with_engine(unit_table, residues)

    def test_anharmonic_rows_are_not_single_residues(self, sextic_expansion):
        table, _ = sextic_expansion
        ds = d_sequence(table.order)
        matches = all(
            table.rows[k][0] == ds.d[k]
            and not any(table.rows[k][i] for i in range(1, table.i_max + 1))
            for k in range(1, table.order + 1)
        )
        assert not matches
