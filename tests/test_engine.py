import math
import random
from fractions import Fraction

import pytest

from lptseries import engine
from lptseries.config import parse_config
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

from conftest import GOLDEN_DIR, add_to_cell, rand_bipoly, rand_fraction

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

        f = {p: rand_bipoly(rng, max_deg_n=0) for p in range(1, 6)}
        spec = PotentialSpec.make(rand_fraction(rng, 1, 4), rand_fraction(rng, 1, 4), f)
        key_order = reversed if row_k.endswith("reversed") else list
        cells = [{p: c for p, c in key_order(list(enumerate(row))) if c} for row in rows]
        once, doubled = _identity_pairs(cells, k, i, spec)
        # at k = 0 the identity has no previous-row term but the potential's -2 m f_i
        weight = 3 - 2 * k + i if k else 0
        plain = rows[k - 1][i] * weight if weight else ZERO
        if k == 0:
            plain = plain - 2 * spec.m * spec.f(i)
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
        nonzero_terms += k == 0 and bool(spec.f(i))
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
    # row 0 is checked against the potential, (0, 0) against the right side
    # m^2 omega^2, the one the sweep states apart.  A deleted cell is a nonzero
    # one set to zero; the order-4 sextic's nonzero cells are (k, 0) and
    # (k, 4), except (3, 4)
    @pytest.mark.parametrize("k,i,delete", [
        (2, 3, False), (2, 2, False), (1, 0, False), (4, 6, False), (0, 0, False), (0, 2, False),
        (0, 4, False), (0, 6, False), (1, 0, True), (0, 4, True), (3, 0, True), (4, 4, True),
    ], ids=["odd-slot", "residue-slot", "first-cell", "last-cell", "row-zero-0", "row-zero-2",
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


OSCILLATOR = PotentialSpec.make(1, 1)
QUINTIC = PotentialSpec.make(1, 1, {3: LAM})


def count_calls(monkeypatch, owner, name) -> list:
    """Record one entry per call of ``owner.name`` from here on."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # on a class the spy stands for a static method
    monkeypatch.setattr(owner, name, staticmethod(spy) if isinstance(owner, type) else spy)
    return calls


class TestLattice:
    """Cells vanish off the multiples of g, the gcd of the anharmonic
    indices (i = 0 alone for the oscillator), so the recursion, the energy
    readout and the sweep visit only those indices."""

    @pytest.mark.parametrize("ini", sorted(GOLDEN_DIR.glob("*.ini")), ids=lambda p: p.stem)
    def test_golden_table_cells_are_multiples_of_g(self, ini):
        cfg = parse_config(ini.read_text())
        g = math.gcd(*(i for i, _ in cfg.potential.terms))
        table, series = expand(cfg.potential, cfg.order)
        assert all(i % g == 0 for row in table.cells for i in row)
        assert all(not series.e[k] for k in range(1, cfg.order + 1) if (2 * k - 2) % g)

    @pytest.mark.parametrize("f, step", [
        ({}, None), ({4: LAM}, 4), ({3: LAM}, 3), ({2: LAM, 4: LAM * LAM}, 2),
        ({4: LAM, 6: 1}, 2), ({2: LAM, 3: 1}, 1), ({1: LAM, 2: LAM * LAM}, 1),
    ])
    def test_lattice_is_the_multiples_of_the_gcd(self, f, step):
        lattice = PotentialSpec.make(1, 1, f).lattice(12)
        assert list(lattice) == ([0] if step is None else list(range(0, 13, step)))

    @pytest.mark.parametrize("spec, order, most", [
        (OSCILLATOR, 21, 21), (PotentialSpec.make(1, 1, {2: LAM}), 12, 155),
    ], ids=["oscillator-k21", "quartic-k12"])
    def test_expand_sums_lattice_cells_only(self, monkeypatch, spec, order, most):
        # the oscillator's rows 2..21 at i = 0 and E_1; the quartic's 11
        # cells of row 0, 11 per row past the residue slot, and 12 energies
        calls = count_calls(monkeypatch, BiPoly, "dot")
        expand(spec, order)
        assert len(calls) <= most

    def test_sweep_sums_lattice_identities_only(self, monkeypatch):
        table, series = expand(OSCILLATOR, 21)
        calls = count_calls(monkeypatch, engine, "_identity_pairs")
        assert first_power_identity_failure(table, series, OSCILLATOR) is None
        assert len(calls) == 21 + 1

    # a cell off the lattice, which the recursion never builds, has the sweep
    # sum every identity; it first enters the one at its own (k, i)
    @pytest.mark.parametrize("spec, k, i", [
        (OSCILLATOR, 0, 1), (OSCILLATOR, 2, 2), (OSCILLATOR, 4, 6), (QUINTIC, 0, 2),
        (QUINTIC, 1, 1), (QUINTIC, 3, 4), (QUINTIC, 4, 5), (PotentialSpec.make(1, 1, {2: LAM}), 2, 3),
    ], ids=["oscillator-row-zero", "oscillator-residue-slot", "oscillator-last-cell",
            "quintic-row-zero", "quintic-first-row", "quintic-residue-slot", "quintic-last-row",
            "quartic-odd-slot"])
    def test_inserted_off_lattice_cell_fails_at_its_own_index(self, spec, k, i):
        table, series = expand(spec, 4)
        assert i not in spec.lattice(table.i_max)
        add_to_cell(table, k, i, N + LAM)
        assert first_power_identity_failure(table, series, spec) == (k, i)

    # off the lattice the residue slot's identity reads E_k = 0
    @pytest.mark.parametrize("spec, k", [
        (OSCILLATOR, 2), (OSCILLATOR, 4), (PotentialSpec.make(1, 1, {4: LAM}), 2),
        (PotentialSpec.make(1, 1, {4: LAM}), 4), (QUINTIC, 2), (QUINTIC, 3),
    ], ids=["oscillator-2", "oscillator-4", "sextic-2", "sextic-4", "quintic-2", "quintic-3"])
    def test_energy_at_an_off_lattice_residue_slot(self, spec, k):
        table, series = expand(spec, 4)
        assert 2 * k - 2 not in spec.lattice(table.i_max) and not series.e[k]
        e = list(series.e)
        e[k] = e[k] + N
        perturbed = series._replace(e=tuple(e))
        assert first_power_identity_failure(table, perturbed, spec) == (k, 2 * k - 2)


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


class TestBenderWu:
    """The quartic's high orders against an independent result: the large-order
    law of Bender & Wu, Phys. Rev. D 7, 1620 (1973).

    With m = omega = 1 and f2 = lam, a_q = E_(q+1)(0) is the ground state's
    coefficient of lam^q, and
    a_q ~ (-1)^(q+1) sqrt(6)/pi^(3/2) 3^q Gamma(q + 1/2) (1 - 95/(72 q) + O(q^-2)).
    """

    ORDER = 30

    @pytest.fixture(scope="class")
    def a(self):
        _, series = expand(PotentialSpec.make(1, 1, {2: LAM}), self.ORDER)
        return [series.e[q + 1].coefficient(0, q) for q in range(self.ORDER)]

    def test_signs_alternate(self, a):
        assert all((-1) ** (q + 1) * a[q] > 0 for q in range(1, self.ORDER))

    def test_ratio_to_the_law_closes_as_q_squared(self, a):
        # (ratio - 1) q^2 measured -4.20, -3.13, -2.64, -2.44, -2.35 at
        # q = 10, 15, 20, 25, 29: the O(q^-2) term, bounded from q = 15 on; a
        # wrong 1/q term would leave a gap growing like q
        for q in range(15, self.ORDER):
            law = ((-1) ** (q + 1) * math.sqrt(6) / math.pi**1.5 * 3**q * math.gamma(q + 0.5)
                   * (1 - 95 / (72 * q)))
            assert abs(float(a[q]) / law - 1) * q * q < 3.5
