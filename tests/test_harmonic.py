from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import hermite as npherm

from lptseries.engine import PotentialSpec, expand
from lptseries.harmonic import (
    crosscheck_with_engine,
    d_sequence,
    hermite_ratio_check,
    reconstruct_polynomial,
    table_residues,
)
from lptseries.polys import N, BiPoly

from conftest import add_to_cell, failed_check_lines

HALF = Fraction(1, 2)


class TestDSequence:
    def test_first_residues(self):
        d = d_sequence(3)
        assert len(d) == 4 and not d[0]
        assert d[1] == N
        assert d[2] == (N * N + N * -1) * HALF
        assert d[3] == BiPoly(
            {(3, 0): HALF, (2, 0): Fraction(-5, 4), (1, 0): Fraction(3, 4)}
        )

    def test_third_residue_at_level_two(self):
        # the residue series of P'/P does not terminate for n >= 2
        assert d_sequence(3)[3].evaluate(2, 0) == HALF

    def test_pure_gaussian_levels_have_single_residue(self):
        d = d_sequence(20)
        for k in range(2, 21):
            assert d[k].evaluate(0, 0) == 0
            assert d[k].evaluate(1, 0) == 0


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
        assert reconstruct_polynomial(0, d_sequence(1)) == (Fraction(1),)

    def test_level_two(self):
        assert reconstruct_polynomial(2, d_sequence(2)) == (Fraction(-1, 2), Fraction(1))

    def test_level_three(self):
        assert reconstruct_polynomial(3, d_sequence(2)) == (Fraction(-3, 2), Fraction(1))

    def test_level_five(self):
        a = reconstruct_polynomial(5, d_sequence(3))
        assert a == (Fraction(15, 4), Fraction(-5), Fraction(1))

    @pytest.mark.parametrize("n", range(9))
    def test_matches_textbook_hermite_ratios(self, n):
        a = reconstruct_polynomial(n, d_sequence(n // 2 + 1))
        h = hermite_coefficients(n)
        assert len(a) == n // 2 + 1
        for i, a_i in enumerate(a):
            assert a_i == h[2 * i + n % 2] / h[n]


class TestHermiteRatio:
    @pytest.mark.parametrize("n", range(9))
    def test_reconstruction_satisfies_recurrence(self, n):
        assert hermite_ratio_check(n, reconstruct_polynomial(n, d_sequence(n // 2 + 1)))

    def test_detects_a_perturbed_coefficient(self):
        a0, a1 = reconstruct_polynomial(2, d_sequence(2))
        assert not hermite_ratio_check(2, (a0 + 1, a1))


# (m, omega) of the oscillators the crosscheck is run on
OSCILLATORS = [(1, 1), (2, Fraction(3, 5)), (Fraction(1, 3), 4)]


def assert_check_names(monkeypatch, capsys, tmp_path, spec, table, series, row, slot):
    """``check`` on the oscillator ``spec`` fails on ``table``, corrupted at
    (row, slot): at a residue (slot 0) on the crosscheck's line, and off the
    oscillator's lattice {0} on ``power-identity``, at (row, slot)."""
    ini = f"[potential]\nm = {spec.m}\nomega = {spec.omega}\n\n[run]\norder = {table.order}\n"
    lines = failed_check_lines(monkeypatch, capsys, tmp_path, ini, table, series)
    if slot == 0:
        assert "harmonic-crosscheck: FAIL" in lines
    else:
        assert f"power-identity: FAIL at (k={row}, i={slot})" in lines


class TestEngineCrosscheck:
    @pytest.mark.parametrize("order", [2, 10, 20])
    def test_generic_recursion_restores_closed_form(self, order):
        spec = PotentialSpec(1, 1)
        table, _ = expand(spec, order)
        assert crosscheck_with_engine(table, table_residues(table, spec))

    @pytest.mark.parametrize("slot", [0, 3])
    def test_passed_table_with_one_corrupted_row_fails(self, monkeypatch, capsys, tmp_path, slot):
        spec = PotentialSpec(1, 1)
        table, series = expand(spec, 8)
        assert crosscheck_with_engine(table, table_residues(table, spec))
        add_to_cell(table, 5, slot, N)
        assert_check_names(monkeypatch, capsys, tmp_path, spec, table, series, 5, slot)

    @pytest.mark.parametrize("m, omega", OSCILLATORS)
    def test_rows_are_residues_scaled_by_m_omega(self, m, omega):
        spec = PotentialSpec(m, omega)
        table, _ = expand(spec, 12)
        assert crosscheck_with_engine(table, table_residues(table, spec))
        d = d_sequence(12)
        for k in range(1, 13):
            assert table.rows[k][0] * (Fraction(m) * omega) ** (k - 1) == d[k]

    @pytest.mark.parametrize("m, omega", OSCILLATORS)
    @pytest.mark.parametrize("row, slot", [(5, 0), (5, 3), (12, 0)])
    def test_corrupted_row_fails_at_any_m_and_omega(
        self, monkeypatch, capsys, tmp_path, m, omega, row, slot
    ):
        spec = PotentialSpec(m, omega)
        table, series = expand(spec, 12)
        add_to_cell(table, row, slot, N)
        assert_check_names(monkeypatch, capsys, tmp_path, spec, table, series, row, slot)

    @pytest.mark.parametrize("m, omega", OSCILLATORS[1:])
    def test_table_of_another_oscillator_fails(self, m, omega):
        unit_table, _ = expand(PotentialSpec(1, 1), 8)
        residues = table_residues(unit_table, PotentialSpec(m, omega))
        assert not crosscheck_with_engine(unit_table, residues)

    def test_anharmonic_rows_are_not_single_residues(self, sextic_expansion):
        table, _ = sextic_expansion
        d = d_sequence(table.order)
        matches = all(
            table.rows[k][0] == d[k]
            and not any(table.rows[k][i] for i in range(1, table.i_max + 1))
            for k in range(1, table.order + 1)
        )
        assert not matches
