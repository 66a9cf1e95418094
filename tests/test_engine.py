import random
from fractions import Fraction

import pytest

from lptseries.engine import (
    CTable,
    _identity_pairs,
    PotentialError,
    PotentialSpec,
    TableError,
    c0_row,
    energy_coefficient,
    evaluate_energy,
    expand,
    first_power_identity_failure,
    laurent_row,
)
from lptseries.polys import LAM, N, ZERO, BiPoly

from conftest import add_to_cell, rand_bipoly, rand_fraction

HALF = Fraction(1, 2)


def oscillator_first_order(omega) -> BiPoly:
    return (N + HALF) * Fraction(omega)


def second_order_closed_form(m, omega, f1, f2) -> BiPoly:
    """Textbook second-order shift for V = m w^2 x^2/2 + f1 x^3 + f2 x^4:

        E_2 = -15 f1^2 (n^2 + n + 11/30) / (4 m^3 w^4)
              + 3 f2 (n^2 + n + 1/2) / (2 m^2 w^2)
    """
    m, omega, f1, f2 = map(Fraction, (m, omega, f1, f2))
    cubic = (N * N + N + Fraction(11, 30)) * (-15 * f1**2 / (4 * m**3 * omega**4))
    quartic = (N * N + N + HALF) * (3 * f2 / (2 * m**2 * omega**2))
    return cubic + quartic


class TestValidatePotential:
    """Construction checks the potential; no invalid spec can exist."""

    def test_accepts_harmonic(self):
        spec = PotentialSpec.make(1, 1)
        assert spec.is_harmonic

    def test_accepts_sextic(self):
        spec = PotentialSpec.make(1, 1, {4: LAM.scale_div(2)})
        assert spec.f(4) == LAM.scale_div(2)
        assert spec.is_even

    def test_rejects_flat_minimum(self):
        with pytest.raises(PotentialError, match="quadratic minimum"):
            PotentialSpec.make(1, 0, {1: 1})

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(PotentialError, match="mass"):
            PotentialSpec.make(0, 1)
        with pytest.raises(PotentialError, match="mass"):
            PotentialSpec.make(-1, 1)

    def test_rejects_quantum_number_in_coefficients(self):
        with pytest.raises(PotentialError, match="quantum number"):
            PotentialSpec.make(1, 1, {2: N})

    def test_drops_explicit_zero_terms(self):
        spec = PotentialSpec.make(1, 1, {3: 0, 4: 1})
        assert spec.terms == PotentialSpec.make(1, 1, {4: 1}).terms

    def test_rejects_bad_index(self):
        with pytest.raises(PotentialError, match="index"):
            PotentialSpec.make(1, 1, {0: 1})

    def test_direct_construction_is_checked(self):
        with pytest.raises(PotentialError, match="quadratic minimum"):
            PotentialSpec(Fraction(1), Fraction(0))
        with pytest.raises(PotentialError, match="index 2 given twice"):
            PotentialSpec(Fraction(1), Fraction(1), ((2, LAM), (2, LAM * 5)))

    def test_direct_construction_is_canonical(self):
        spec = PotentialSpec(1, 2, ((4, LAM), (1, 0), (2, Fraction(1, 3))))
        assert (spec.m, spec.omega) == (Fraction(1), Fraction(2))
        assert spec.terms == ((2, BiPoly.constant(Fraction(1, 3))), (4, LAM))
        assert spec == PotentialSpec.make(1, 2, {2: Fraction(1, 3), 4: LAM})
        with pytest.raises(PotentialError, match="mass"):
            spec._replace(m=Fraction(0))

    def test_records_are_immutable(self, sextic_spec, sextic_expansion):
        _, series = sextic_expansion
        for record, field in ((sextic_spec, "m"), (sextic_spec, "terms"), (series, "e")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            sextic_spec.extra = 1


def square_against_potential(cells, spec, i_max):
    """Independent check of the leading row: its square must reproduce
    2 m V(x).  Coefficient of x^(i+2) in (x sum_p row[p] x^p)^2 is the
    convolution sum_p row[p] row[i-p]."""
    row = [cells.get(p, ZERO) for p in range(i_max + 1)]
    conv0 = sum((row[p] * row[0 - p] for p in range(1)), ZERO)
    assert conv0 == BiPoly.constant(spec.m**2 * spec.omega**2)
    for i in range(1, i_max + 1):
        conv = sum((row[p] * row[i - p] for p in range(i + 1)), ZERO)
        assert conv == 2 * spec.m * spec.f(i)


class TestLeadingRow:
    def test_harmonic_row_is_single_entry(self):
        spec = PotentialSpec.make(1, 1)
        assert c0_row(spec, 4) == {0: BiPoly.constant(-1)}

    def test_sextic_row_matches_binomial_expansion(self):
        # -x sqrt(1 + lam x^4) = -x (1 + lam x^4/2 - lam^2 x^8/8 + ...)
        spec = PotentialSpec.make(1, 1, {4: LAM.scale_div(2)})
        row = c0_row(spec, 8)
        assert row[4] == BiPoly.monomial(-HALF, deg_lam=1)
        assert row[8] == BiPoly.monomial(Fraction(1, 8), deg_lam=2)
        assert set(row) == {0, 4, 8}

    def test_cubic_row_matches_binomial_expansion(self):
        # -x sqrt(1 + 2x) = -x (1 + x - x^2/2 + ...)
        spec = PotentialSpec.make(1, 1, {1: 1})
        row = c0_row(spec, 2)
        assert row[1] == BiPoly.constant(-1)
        assert row[2] == BiPoly.constant(HALF)

    def test_square_recovers_potential_for_random_specs(self):
        rng = random.Random(2024)
        for _ in range(20):
            f = {}
            for i in range(1, rng.randint(1, 5)):
                f[i] = BiPoly.monomial(rand_fraction(rng), deg_lam=rng.randint(0, 2))
            spec = PotentialSpec.make(rand_fraction(rng, 1, 4), rand_fraction(rng, 1, 4), f)
            square_against_potential(c0_row(spec, 8), spec, 8)


class TestLaurentRows:
    def test_harmonic_first_row(self):
        spec = PotentialSpec.make(1, 1)
        table = CTable(order=2, cells=[c0_row(spec, 2)])
        laurent_row(1, table, spec)
        assert table.rows[1][0] == N
        assert all(not table.rows[1][i] for i in (1, 2))

    def test_sextic_first_row_quintic_slot(self):
        # single recursion step gives C[1][4] = -lam (2n + 5) / 4
        spec = PotentialSpec.make(1, 1, {4: LAM.scale_div(2)})
        table = CTable(order=3, cells=[c0_row(spec, 4)])
        laurent_row(1, table, spec)
        expected = BiPoly({(1, 1): -HALF, (0, 1): Fraction(-5, 4)})
        assert table.rows[1][4] == expected

    def test_harmonic_second_row_origin(self):
        spec = PotentialSpec.make(1, 1)
        table = CTable(order=2, cells=[c0_row(spec, 2)])
        laurent_row(1, table, spec)
        laurent_row(2, table, spec)
        assert table.rows[2][0] == (N * N - N).scale_div(2)

    def test_out_of_order_rows_rejected(self):
        spec = PotentialSpec.make(1, 1)
        table = CTable(order=3, cells=[c0_row(spec, 4)])
        with pytest.raises(TableError):
            laurent_row(2, table, spec)
        with pytest.raises(TableError):
            laurent_row(0, table, spec)

    # "-reversed": the same rows with their cells in descending index order,
    # since a row's dict of nonzero cells carries no ordering invariant
    @pytest.mark.parametrize("row_k", ["full", "partial", "full-reversed", "partial-reversed"])
    @pytest.mark.parametrize("k,i", [(0, 0), (0, 3), (0, 4), (1, 0), (1, 3), (2, 2),
                                     (3, 3), (3, 4), (4, 3), (4, 6), (5, 5)])
    def test_identity_pairs_list_the_identity(self, k, i, row_k):
        partial = row_k.startswith("partial")
        rng = random.Random(100 * k + 10 * i + partial)
        rows = [[rand_bipoly(rng) for _ in range(i + 1)] for _ in range(k + 1)]
        if partial:
            # as the row recursion passes it: only the cells before i are built
            rows[k] = rows[k][:i]

        def cell(j, p):
            return rows[j][p] if p < len(rows[j]) else ZERO

        key_order = reversed if row_k.endswith("reversed") else list
        cells = [{p: c for p, c in key_order(list(enumerate(row))) if c} for row in rows]
        once, doubled = _identity_pairs(cells, k, i)
        # at k = 0 the identity has no previous-row term
        weight = 3 - 2 * k + i if k else 0
        plain = rows[k - 1][i] * weight if weight else ZERO
        for j in range(k + 1):
            for p in range(i + 1):
                plain = plain + cell(j, p) * cell(k - j, i - p)
        assert BiPoly.dot(once, doubled) == plain
        # exactly the terms whose two cells are nonzero, each mirror pair listed once
        assert all(a and b for a, b in doubled + once)
        nonzero_terms = sum(
            bool(cell(j, p)) and bool(cell(k - j, i - p))
            for j in range(k + 1)
            for p in range(i + 1)
        )
        nonzero_terms += bool(weight) and bool(rows[k - 1][i])
        assert 2 * len(doubled) + len(once) == nonzero_terms

    def test_energy_requires_complete_rows(self):
        spec = PotentialSpec.make(1, 1)
        table = CTable(order=2, cells=[c0_row(spec, 2)])
        with pytest.raises(TableError):
            energy_coefficient(1, table, spec)


class TestEnergyCoefficients:
    def test_first_order_is_the_oscillator_level(self):
        rng = random.Random(11)
        for _ in range(5):
            m = rand_fraction(rng, 1, 5)
            omega = rand_fraction(rng, 1, 5)
            f = {1: rand_fraction(rng), 3: rand_fraction(rng)}
            _, series = expand(PotentialSpec.make(m, omega, f), 2)
            assert series.e[1] == oscillator_first_order(omega)

    def test_second_order_textbook_form_unit_parameters(self):
        _, series = expand(PotentialSpec.make(1, 1, {1: 1, 2: 1}), 2)
        assert series.e[2] == second_order_closed_form(1, 1, 1, 1)

    def test_second_order_textbook_form_random_parameters(self):
        rng = random.Random(42)
        for _ in range(8):
            m = rand_fraction(rng, 1, 5)
            omega = rand_fraction(rng, 1, 5)
            f1 = rand_fraction(rng)
            f2 = rand_fraction(rng)
            _, series = expand(PotentialSpec.make(m, omega, {1: f1, 2: f2}), 2)
            assert series.e[2] == second_order_closed_form(m, omega, f1, f2)

    def test_sextic_third_order(self, golden_energies, sextic_expansion):
        _, series = sextic_expansion
        assert series.e[3] == golden_energies[3]


class TestExpand:
    def test_harmonic_series_terminates(self):
        _, series = expand(PotentialSpec.make(1, 1), 10)
        assert series.e[1] == N + HALF
        assert all(not series.e[k] for k in range(2, 11))

    def test_sextic_order_eleven_matches_golden_table(
        self, golden_energies, sextic_expansion
    ):
        _, series = sextic_expansion
        for k in range(1, 12):
            assert series.e[k] == golden_energies[k], f"mismatch at order {k}"

    def test_energy_degree_bounded_by_order(self, sextic_expansion):
        _, series = sextic_expansion
        for k in range(1, 12):
            assert all(deg_n <= k for deg_n, _, _ in series.e[k].terms_sorted())

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            expand(PotentialSpec.make(1, 1), 0)

    def test_propagates_validation_errors(self):
        with pytest.raises(PotentialError):
            expand(PotentialSpec.make(1, 0), 3)


class TestPowerIdentity:
    def test_holds_on_harmonic_table(self):
        spec = PotentialSpec.make(1, 1)
        table, series = expand(spec, 5)
        assert first_power_identity_failure(table, series, spec) is None

    def test_holds_on_sextic_table(self, sextic_spec, sextic_expansion):
        table, series = sextic_expansion
        spec = sextic_spec
        assert first_power_identity_failure(table, series, spec) is None

    # a mutated cell first enters the identity at its own (k, i), through
    # 2 C[0][0] C[k][i]; (4, 6) is the last cell of an order-4 table, and
    # row 0 is checked against the potential.  A deleted cell is a nonzero
    # one set to zero; the order-4 sextic's nonzero cells are (k, 0) and
    # (k, 4), except (3, 4)
    @pytest.mark.parametrize("k,i,delete", [
        (2, 3, False), (2, 2, False), (1, 0, False), (4, 6, False), (0, 2, False),
        (0, 4, False), (0, 6, False), (1, 0, True), (0, 4, True), (3, 0, True), (4, 4, True),
    ], ids=["odd-slot", "residue-slot", "first-cell", "last-cell", "row-zero-2",
            "row-zero-4", "row-zero-6", "deleted-first-cell", "deleted-row-zero-4",
            "deleted-only-cell-of-row", "deleted-last-nonzero-cell"])
    def test_detects_a_mutated_coefficient(self, sextic_spec, k, i, delete):
        spec = sextic_spec
        table, series = expand(spec, 4)
        assert (table.order, table.i_max) == (4, 6)
        by = -table.rows[k][i] if delete else 1
        assert by
        add_to_cell(table, k, i, by)
        assert first_power_identity_failure(table, series, spec) == (k, i)

    def test_detects_a_perturbed_energy(self, sextic_spec):
        spec = sextic_spec
        table, series = expand(spec, 4)
        e = list(series.e)
        e[3] = e[3] + 1
        perturbed = series._replace(e=tuple(e))
        # E_3 enters only the identity at its readout slot, i = 2*3 - 2
        assert first_power_identity_failure(table, perturbed, spec) == (3, 4)


class TestEvaluateEnergy:
    def test_harmonic_level_two(self):
        _, series = expand(PotentialSpec.make(1, 1), 6)
        terms = evaluate_energy(series, 2, 0)
        for truncate in (1, 3, 6):
            assert sum(terms[1 : truncate + 1], Fraction(0)) == Fraction(5, 2)

    def test_sextic_decoupled_limit(self, sextic_expansion):
        _, series = sextic_expansion
        terms = evaluate_energy(series, 0, 0)
        assert sum(terms[1:12], Fraction(0)) == HALF

    def test_sextic_small_coupling_partial_sum(self, golden_energies, sextic_expansion):
        _, series = sextic_expansion
        lam = Fraction(1, 1000)
        terms = evaluate_energy(series, 0, lam)
        total = sum(terms[1:12], Fraction(0))
        expected = sum(
            (golden_energies[k].evaluate(0, lam) for k in range(1, 12)), Fraction(0)
        )
        assert total == expected
        assert terms[3] == Fraction(15, 16) * lam
        assert terms[5] == Fraction(-3495, 256) * lam**2
        assert abs(float(total) - 0.5009244088813688) < 1e-15
