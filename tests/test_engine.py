import json
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
    c0_row,
    evaluate_energy,
    expand,
    first_power_identity_failure,
    laurent_row,
)
from lptseries.polys import LAM, N, ONE, ZERO, BiPoly

from conftest import GOLDEN_DIR, add_to_cell, rand_bipoly, rand_fraction

HALF = Fraction(1, 2)
SEXTIC_INI = (GOLDEN_DIR / "sextic.ini").read_text()
OSCILLATOR_INI = "[potential]\nm = 1\nomega = 1\n"
QUINTIC_INI = OSCILLATOR_INI + "f3 = 1 lam\n"
QUARTIC_INI = OSCILLATOR_INI + "f2 = 1 lam\n"


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
        spec = PotentialSpec(1, 1)
        assert spec.is_harmonic

    def test_accepts_sextic(self):
        spec = PotentialSpec(1, 1, {4: LAM * HALF})
        assert spec.f(4) == LAM * HALF
        assert list(spec.lattice(8)) == [0, 4, 8]

    def test_rejects_flat_minimum(self):
        with pytest.raises(PotentialError, match="quadratic minimum"):
            PotentialSpec(1, 0, {1: 1})

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(PotentialError, match="mass"):
            PotentialSpec(0, 1)
        with pytest.raises(PotentialError, match="mass"):
            PotentialSpec(-1, 1)

    def test_rejects_quantum_number_in_coefficients(self):
        with pytest.raises(PotentialError, match="quantum number"):
            PotentialSpec(1, 1, {2: N})

    def test_drops_explicit_zero_terms(self):
        spec = PotentialSpec(1, 1, {3: 0, 4: 1})
        assert spec.terms == PotentialSpec(1, 1, {4: 1}).terms

    def test_rejects_bad_index(self):
        with pytest.raises(PotentialError, match="index"):
            PotentialSpec(1, 1, {0: 1})

    def test_direct_construction_is_checked(self):
        with pytest.raises(PotentialError, match="quadratic minimum"):
            PotentialSpec(Fraction(1), Fraction(0))
        with pytest.raises(PotentialError, match="index 2 given twice"):
            PotentialSpec(Fraction(1), Fraction(1), ((2, LAM), (2, LAM * 5)))

    def test_direct_construction_is_canonical(self):
        spec = PotentialSpec(1, 2, ((4, LAM), (1, 0), (2, Fraction(1, 3))))
        assert (spec.m, spec.omega) == (Fraction(1), Fraction(2))
        assert spec.terms == ((2, BiPoly.constant(Fraction(1, 3))), (4, LAM))
        assert spec == PotentialSpec(1, 2, {2: Fraction(1, 3), 4: LAM})
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
        spec = PotentialSpec(1, 1)
        assert c0_row(spec, 4) == {0: BiPoly.constant(-1)}

    def test_sextic_row_matches_binomial_expansion(self):
        # -x sqrt(1 + lam x^4) = -x (1 + lam x^4/2 - lam^2 x^8/8 + ...)
        spec = PotentialSpec(1, 1, {4: LAM * HALF})
        row = c0_row(spec, 8)
        assert row[4] == BiPoly({(0, 1): -HALF})
        assert row[8] == BiPoly({(0, 2): Fraction(1, 8)})
        assert set(row) == {0, 4, 8}

    def test_cubic_row_matches_binomial_expansion(self):
        # -x sqrt(1 + 2x) = -x (1 + x - x^2/2 + ...)
        spec = PotentialSpec(1, 1, {1: 1})
        row = c0_row(spec, 2)
        assert row[1] == BiPoly.constant(-1)
        assert row[2] == BiPoly.constant(HALF)

    def test_square_recovers_potential_for_random_specs(self):
        rng = random.Random(2024)
        for _ in range(20):
            f = {}
            for i in range(1, rng.randint(1, 5)):
                coeff = rand_fraction(rng)
                f[i] = BiPoly({(0, rng.randint(0, 2)): coeff})
            spec = PotentialSpec(rand_fraction(rng, 1, 4), rand_fraction(rng, 1, 4), f)
            square_against_potential(c0_row(spec, 8), spec, 8)


class TestLaurentRows:
    def test_harmonic_first_row(self):
        spec = PotentialSpec(1, 1)
        table = CTable(order=2)
        table.cells.append(c0_row(spec, 2))
        laurent_row(1, table, spec)
        assert table.cells[1] == {0: N}

    def test_sextic_first_row_quintic_slot(self):
        # single recursion step gives C[1][4] = -lam (2n + 5) / 4
        spec = PotentialSpec(1, 1, {4: LAM * HALF})
        table = CTable(order=3)
        table.cells.append(c0_row(spec, 4))
        laurent_row(1, table, spec)
        expected = BiPoly({(1, 1): -HALF, (0, 1): Fraction(-5, 4)})
        assert table.cells[1].get(4, ZERO) == expected

    def test_harmonic_second_row_origin(self):
        spec = PotentialSpec(1, 1)
        table = CTable(order=2)
        table.cells.append(c0_row(spec, 2))
        laurent_row(1, table, spec)
        laurent_row(2, table, spec)
        assert table.cells[2].get(0, ZERO) == (N * N + N * -1) * HALF

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
        spec = PotentialSpec(rand_fraction(rng, 1, 4), rand_fraction(rng, 1, 4), f)
        key_order = reversed if row_k.endswith("reversed") else list
        cells = [{p: c for p, c in key_order(list(enumerate(row))) if c} for row in rows]
        once, doubled = _identity_pairs(cells, k, i, spec)
        # at k = 0 the identity has no previous-row term but the potential's -2 m f_i
        weight = 3 - 2 * k + i if k else 0
        plain = rows[k - 1][i] * weight if weight else ZERO
        if k == 0:
            plain = plain + spec.f(i) * (-2 * spec.m)
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


class TestEnergyCoefficients:
    def test_first_order_is_the_oscillator_level(self):
        rng = random.Random(11)
        for _ in range(5):
            m = rand_fraction(rng, 1, 5)
            omega = rand_fraction(rng, 1, 5)
            f = {1: rand_fraction(rng), 3: rand_fraction(rng)}
            _, series = expand(PotentialSpec(m, omega, f), 2)
            assert series.e[1] == oscillator_first_order(omega)

    def test_second_order_textbook_form_unit_parameters(self):
        _, series = expand(PotentialSpec(1, 1, {1: 1, 2: 1}), 2)
        assert series.e[2] == second_order_closed_form(1, 1, 1, 1)

    def test_second_order_textbook_form_random_parameters(self):
        rng = random.Random(42)
        for _ in range(8):
            m = rand_fraction(rng, 1, 5)
            omega = rand_fraction(rng, 1, 5)
            f1 = rand_fraction(rng)
            f2 = rand_fraction(rng)
            _, series = expand(PotentialSpec(m, omega, {1: f1, 2: f2}), 2)
            assert series.e[2] == second_order_closed_form(m, omega, f1, f2)

    def test_sextic_third_order(self, golden_energies, sextic_expansion):
        _, series = sextic_expansion
        assert series.e[3] == golden_energies[3]


class TestExpand:
    def test_harmonic_series_terminates(self):
        _, series = expand(PotentialSpec(1, 1), 10)
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
            expand(PotentialSpec(1, 1), 0)

    def test_propagates_validation_errors(self):
        with pytest.raises(PotentialError):
            expand(PotentialSpec(1, 0), 3)


class TestPowerIdentity:
    def test_holds_on_harmonic_table(self):
        spec = PotentialSpec(1, 1)
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
    # (k, 4), except (3, 4).  Off the lattice, the multiples of 4, the sweep
    # sums the identity at a cell the row stores
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
        by = table.cells[k].get(i, ZERO) * -1 if delete else 1
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


OSCILLATOR = PotentialSpec(1, 1)
QUINTIC = PotentialSpec(1, 1, {3: LAM})


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
    indices (i = 0 alone for the oscillator), so the recursion and the
    energy readout visit only those indices, and the sweep sums no other
    identity on a table the recursion built."""

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
        lattice = PotentialSpec(1, 1, f).lattice(12)
        assert list(lattice) == ([0] if step is None else list(range(0, 13, step)))

    @pytest.mark.parametrize("spec, order, most", [
        (OSCILLATOR, 21, 21), (PotentialSpec(1, 1, {2: LAM}), 12, 155),
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

    # a cell off the lattice or past i_max = 6, which the recursion never
    # builds, fails the sweep at its own (k, i)
    @pytest.mark.parametrize("ini, k, i", [
        (OSCILLATOR_INI, 0, 1), (OSCILLATOR_INI, 2, 2), (OSCILLATOR_INI, 4, 6),
        (QUINTIC_INI, 0, 2), (QUINTIC_INI, 1, 1), (QUINTIC_INI, 3, 4), (QUINTIC_INI, 4, 5),
        (QUARTIC_INI, 2, 3), (OSCILLATOR_INI, 0, 7), (OSCILLATOR_INI, 4, 9),
        (SEXTIC_INI, 2, 7), (SEXTIC_INI, 0, 8), (SEXTIC_INI, 4, 9), (QUARTIC_INI, 1, 8),
        (QUARTIC_INI, 3, 11), (QUINTIC_INI, 2, 9),
    ], ids=["oscillator-row-zero", "oscillator-residue-slot", "oscillator-last-cell",
            "quintic-row-zero", "quintic-first-row", "quintic-residue-slot", "quintic-last-row",
            "quartic-odd-slot", "oscillator-past-row-zero", "oscillator-past-last-row",
            "sextic-past-odd", "sextic-past-row-zero", "sextic-past-last-row",
            "quartic-past-lattice", "quartic-past-odd", "quintic-past-lattice"])
    def test_inserted_off_lattice_cell_fails_at_its_own_index(self, ini, k, i):
        spec = parse_config(ini).potential
        table, series = expand(spec, 4)
        assert i not in spec.lattice(table.i_max)
        add_to_cell(table, k, i, N + LAM)
        assert first_power_identity_failure(table, series, spec) == (k, i)

    # off the lattice the residue slot's identity reads E_k = 0
    @pytest.mark.parametrize("spec, k", [
        (OSCILLATOR, 2), (OSCILLATOR, 4), (PotentialSpec(1, 1, {4: LAM}), 2),
        (PotentialSpec(1, 1, {4: LAM}), 4), (QUINTIC, 2), (QUINTIC, 3),
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
        _, series = expand(PotentialSpec(1, 1), 6)
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

    With m = omega = 1 and f2 = lam, a_q(n) is level n's coefficient of lam^q
    in E_(q+1), and
    a_q(n) ~ (-1)^(q+1) sqrt(6)/pi^(3/2) 12^n/n! 3^q Gamma(q + n + 1/2)
             (1 + c_1(n)/q + O(q^-2)).
    Bender & Wu give the leading law and c_1(0) = -95/72.  For n >= 1,
    c_1(n) = -(102 n^2 + 174 n + 95)/72 is a fit to exact coefficients up
    to q = 80 at n = 0..4, extrapolated in 1/q (ROADMAP item 8), not a
    published value.
    """

    ORDER = 30

    @pytest.fixture(scope="class")
    def series(self):
        return expand(PotentialSpec(1, 1, {2: LAM}), self.ORDER)[1]

    @pytest.fixture(scope="class")
    def a(self, series):
        # E_(q+1)(0, lam) is the single term a_q lam^q
        return [series.e[q + 1].evaluate(0, 1) for q in range(self.ORDER)]

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

    def test_first_excited_level_closes_as_q_squared(self, series):
        # a_q(1) sums the lam^q coefficients over every power of n; (ratio -
        # 1) q^2 measured -1.30, 0.67, 1.47, 1.72 at q = 15, 20, 25, 29, under
        # the ground state's bound.  Level 2 is left out: its remainder reads
        # 160 down to 66 over the same q, not yet asymptotic
        for q in range(15, self.ORDER):
            a1 = sum(c for _, deg_lam, c in series.e[q + 1].terms_sorted() if deg_lam == q)
            law = ((-1) ** (q + 1) * math.sqrt(6) / math.pi**1.5 * 12 * 3**q
                   * math.gamma(q + 1.5) * (1 - 371 / (72 * q)))
            assert abs(float(a1) / law - 1) * q * q < 3.5


def morse_f(i: int) -> Fraction:
    """Morse, V = (1 - e^(-lam x))^2 / (2 lam^2): f_i over lam^i."""
    return Fraction(2 * (-1) ** (i + 1) + (-2) ** (i + 2), 2 * math.factorial(i + 2))


def poschl_teller_f(i: int) -> Fraction:
    """Pöschl-Teller, V = tanh(lam x)^2 / (2 lam^2): f_i over lam^i, half
    the y^(i+2) coefficient of tanh(y)^2."""
    tanh = [Fraction(0)]  # tanh' = 1 - tanh^2 gives each coefficient from the ones before
    for j in range(i + 2):
        tanh.append(((j == 0) - sum(tanh[a] * tanh[j - a] for a in range(j + 1))) / (j + 1))
    return sum(tanh[a] * tanh[i + 2 - a] for a in range(i + 3)) / 2


def morse_energies(order: int) -> list[BiPoly]:
    """E_1..E_order of E = nu - lam^2 nu^2 / 2 at hbar = 1, nu = n + 1/2."""
    nu = N + HALF
    return [nu, BiPoly({(0, 2): -HALF}) * nu * nu] + [ZERO] * (order - 2)


def poschl_teller_energies(order: int) -> list[BiPoly]:
    """E_1..E_order of E = nu sqrt(1 + lam^4 / 4) - lam^2 (nu^2 + 1/4) / 2 at
    hbar = 1, nu = n + 1/2: E_(2r+1) = binom(1/2, r) 4^(-r) lam^(4r) nu."""
    nu = N + HALF
    energies = [ZERO] * (order + 1)
    energies[2] = BiPoly({(0, 2): -HALF}) * (nu * nu + Fraction(1, 4))
    binom = Fraction(1)  # binom(1/2, r)
    for r in range((order + 1) // 2):
        energies[2 * r + 1] = BiPoly({(0, 4 * r): binom / 4**r}) * nu
        binom *= (HALF - r) / (r + 1)
    return energies[1:]


CLOSED_FORMS = {"morse": (morse_f, morse_energies),
                "poschlteller": (poschl_teller_f, poschl_teller_energies)}


def closed_form_golden(name: str, order: int = 12) -> tuple[str, str]:
    """The config and the machine document of a closed-form golden at m =
    omega = 1: its f_i up to the table's last index 2*order - 2, and its
    energies from the closed form."""
    f, energies = CLOSED_FORMS[name]
    coeffs = {i: c for i in range(1, 2 * order - 1) if (c := f(i))}
    config = ("[potential]\nm = 1\nomega = 1\n"
              + "".join(f"f{i} = {c} lam{f'^{i}' * (i > 1)}\n" for i, c in coeffs.items())
              + f"\n[run]\norder = {order}\nformat = machine\n")
    document = {
        "order": order,
        "potential": {"m": "1", "omega": "1",
                      "f": {str(i): BiPoly({(0, i): c}).to_records() for i, c in coeffs.items()}},
        "energies": [{"k": k, "terms": e.to_records()}
                     for k, e in enumerate(energies(order), start=1)],
    }
    return config, json.dumps(document, indent=2, sort_keys=True) + "\n"


class TestExactClosedForms:
    """Two potentials whose spectra are known in closed form: the engine
    reproduces them exactly, and each is a golden in tests/golden/."""

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_golden_files_are_the_closed_form(self, name):
        config, document = closed_form_golden(name)
        assert (GOLDEN_DIR / f"{name}.ini").read_text() == config
        assert (GOLDEN_DIR / f"{name}_k12_machine.json").read_text() == document

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_expansion_is_the_closed_form(self, name):
        f, energies = CLOSED_FORMS[name]
        spec = PotentialSpec(1, 1, {i: BiPoly({(0, i): f(i)}) for i in range(1, 23)})
        assert list(expand(spec, 12)[1].e[1:]) == energies(12)

    def test_closed_forms_at_low_order(self):
        # V's Taylor terms: (1 - e^(-y))^2 = y^2 - y^3 + 7/12 y^4 - ..., and
        # tanh(y)^2 = y^2 - 2/3 y^4 + 17/45 y^6 - ...
        assert [morse_f(i) for i in (1, 2)] == [Fraction(-1, 2), Fraction(7, 24)]
        assert [poschl_teller_f(i) for i in (1, 2, 3, 4)] == [0, Fraction(-1, 3), 0,
                                                               Fraction(17, 90)]
        assert morse_energies(3)[1] == BiPoly({(2, 2): -HALF, (1, 2): -HALF,
                                               (0, 2): Fraction(-1, 8)})
        # E_3 = binom(1/2, 1) lam^4 nu / 4 and E_5 = binom(1/2, 2) lam^8 nu / 16
        assert poschl_teller_energies(5)[2:] == [BiPoly({(0, 4): Fraction(1, 8)}) * (N + HALF),
                                                 ZERO,
                                                 BiPoly({(0, 8): Fraction(-1, 128)}) * (N + HALF)]


def binomial_series(g: list[BiPoly], alpha: Fraction, top: int) -> list[BiPoly]:
    """Coefficients 0..top of (1 + g(x))^alpha, where g[i] is the x^i
    coefficient of g (g[0] = 0), from (1 + g) h' = alpha g' h."""
    h = [ONE]
    for n in range(1, top + 1):
        h.append(BiPoly.dot(((g[i], h[n - i] * (alpha * i - (n - i)))
                             for i in range(1, min(n, len(g) - 1) + 1)), div=n))
    return h


def lagrange_inverse(g: list[BiPoly], power: Fraction, count: int) -> list[BiPoly]:
    """b_0..b_count of x = sum_j b_j y^j, the inverse of y = x (1 + g(x))^power:
    b_j = [x^(j-1)] (1 + g)^(-j power) / j, by Lagrange reversion."""
    return [ZERO] + [binomial_series(g, -j * power, j - 1)[j - 1] * Fraction(1, j)
                     for j in range(1, count + 1)]


def classical_energy(spec: PotentialSpec, order: int) -> list[BiPoly]:
    """c_0..c_order of the classical E(I) = sum_k c_k I^k, with lam kept
    symbolic: the inverse of the action I(E) = (1/2pi) closed integral p dx.

    With V = m w^2 s^2 / 2, s = x (1 + g)^(1/2) and x = sum_j b_j s^j, the
    orbit integral picks the odd b's:
    I(E) = sum_r (2r+1) b_(2r+1) (2E/w) (2E/(m w^2))^r (2r-1)!!/(2r+2)!!.
    Exact, with no hbar and no code of the recursion.
    """
    m, omega = spec.m, spec.omega
    g = [ZERO] + [spec.f(i) * (2 / (m * omega**2)) for i in range(1, 2 * order - 1)]
    b = lagrange_inverse(g, HALF, 2 * order - 1)
    # a[r] is the E^(r+1) coefficient of I(E); a[0] = 1/w
    a, ratio = [], HALF  # ratio = (2r-1)!!/(2r+2)!!
    for r in range(order):
        a.append(b[2 * r + 1] * ((2 * r + 1) * 2 / omega * (2 / (m * omega**2)) ** r * ratio))
        ratio *= Fraction(2 * r + 1, 2 * r + 4)
    # I = a[0] E (1 + psi(E)) with psi_r = a[r] / a[0], so E = sum_k b'_k (w I)^k
    psi = [ZERO] + [a_r * omega for a_r in a[1:]]
    return [c * omega**k for k, c in enumerate(lagrange_inverse(psi, Fraction(1), order))]


class TestClassicalTopDegree:
    """ROADMAP item 10: the n^k coefficient of E_k is the I^k coefficient of
    the classical E(I) (Bohr-Sommerfeld), a reference that shares no code
    with the recursion."""

    def test_oscillator_and_quartic_by_hand(self):
        # E(I) = w I for the oscillator; the quartic's first shift is
        # 3/2 lam (I / (m w))^2, the top of E_2 = 3/2 lam (n^2 + n + 1/2)
        assert classical_energy(PotentialSpec(2, Fraction(3, 5)), 3) == [
            ZERO, BiPoly.constant(Fraction(3, 5)), ZERO, ZERO]
        quartic = classical_energy(PotentialSpec(1, 1, {2: LAM}), 2)
        assert quartic[2] == LAM * Fraction(3, 2)

    @pytest.mark.parametrize("name", ["quartic", "quintic", "sextic", "multilam", "oddden"])
    def test_top_degree_is_the_classical_energy(self, name):
        cfg = parse_config((GOLDEN_DIR / f"{name}.ini").read_text())
        series = expand(cfg.potential, cfg.order)[1]
        classical = classical_energy(cfg.potential, cfg.order)
        for k in range(1, cfg.order + 1):
            top = BiPoly({(0, dl): c for dn, dl, c in series.e[k].terms_sorted() if dn == k})
            assert top == classical[k], f"E_{k}"
        assert any(classical[2:])  # the coupling reaches the top degree


def hypervirial_energies(spec: PotentialSpec, order: int) -> list[BiPoly]:
    """E_0..E_order by hypervirial plus Hellmann-Feynman perturbation theory
    (Killingbeck, Rep. Prog. Phys. 40, 963 (1977); Fernández and Castro,
    Hypervirial Theorems, Springer 1987), a reference that shares no code
    with the recursion.

    With x = sqrt(hbar) y and g = sqrt(hbar), H / hbar = p^2/2m + m w^2 y^2/2
    + sum_i g^i f_i y^(i+2), whose level is sum_q E^(q) g^q, so that
    E_k = E^(2k-2); n enters through E^(0) = w (n + 1/2) alone.  The moments
    M[q][j], the g^q part of <y^j>, start from M[q][0] = [q = 0] and obey

        (j+1) m w^2 M[q][j+1] = 2j sum_p E^(p) M[q-p][j-1]
            - sum_i (2j+i+2) f_i M[q-i][j+i+1] + j(j-1)(j-2)/(4m) M[q][j-3],

    and Hellmann-Feynman gives q E^(q) = sum_i i f_i M[q-i][i+2].  Order q
    needs moments up to J(q) = max(i + 2, J(q+i) + i) over the i with
    q + i <= 2K-2; an order off the lattice (not a multiple of the gcd of
    the indices) vanishes with its moments.
    """
    m, omega, top = spec.m, spec.omega, 2 * order - 2
    step = math.gcd(*(i for i, _ in spec.terms))
    need = [0] * (top + 1)
    for q in range(top, -1, -1):
        need[q] = max((max(i + 2, need[q + i] + i) for i, _ in spec.terms if q + i <= top),
                      default=0)
    energy: list[BiPoly] = []
    moments: list[list[BiPoly]] = []
    for q in range(top + 1):
        if q and (not step or q % step):
            energy.append(ZERO)
            moments.append([])
            continue
        energy.append(BiPoly.dot(((f * i, moments[q - i][i + 2]) for i, f in spec.terms if i <= q),
                                 div=q) if q else (N + HALF) * omega)
        row = [BiPoly.constant(int(q == 0))]
        moments.append(row)
        for j in range(need[q]):
            # an E^(p) that does not vanish has p a sum of indices, so
            # M[q-p] reaches j-1
            pairs = [(e, moments[q - p][j - 1] * (2 * j))
                     for p, e in enumerate(energy) if j and e]
            pairs += [(f, moments[q - i][j + i + 1] * -(2 * j + i + 2))
                      for i, f in spec.terms if i <= q]
            if j >= 3:
                pairs.append((row[j - 3], BiPoly.constant(Fraction(j * (j - 1) * (j - 2), 4) / m)))
            row.append(BiPoly.dot(pairs, div=(j + 1) * m * omega**2))
    return [ZERO, *energy[::2]]


class TestHypervirial:
    """ROADMAP aim 3: every golden's series equals hypervirial plus
    Hellmann-Feynman perturbation theory, exactly and polynomial for
    polynomial in n and lam."""

    def test_oscillator_and_quartic_by_hand(self):
        assert hypervirial_energies(PotentialSpec(2, Fraction(3, 5)), 3) == [
            ZERO, (N + HALF) * Fraction(3, 5), ZERO, ZERO]
        assert hypervirial_energies(PotentialSpec(1, 1, {2: LAM}), 2)[2] == (
            second_order_closed_form(1, 1, 0, 1) * LAM)

    @pytest.mark.parametrize("ini", sorted(GOLDEN_DIR.glob("*.ini")), ids=lambda p: p.stem)
    def test_golden_series_is_the_hypervirial_series(self, ini):
        cfg = parse_config(ini.read_text())
        assert expand(cfg.potential, cfg.order)[1].e == tuple(
            hypervirial_energies(cfg.potential, cfg.order))

    # orders past the goldens': `BiPoly.dot` packs these in 192-bit slots too,
    # where the goldens reach only 64 and 128
    @pytest.mark.parametrize("f, order", [({2: LAM}, 24), ({1: LAM, 2: LAM * LAM}, 16)],
                             ids=["quartic-24", "cubic-quartic-16"])
    def test_wide_slots_give_the_hypervirial_series(self, f, order):
        spec = PotentialSpec(1, 1, f)
        assert expand(spec, order)[1].e == tuple(hypervirial_energies(spec, order))

    @pytest.mark.parametrize("f", [{2: LAM}, {4: LAM * HALF}], ids=["quartic", "sextic"])
    def test_a_wrong_residue_is_found(self, monkeypatch, f):
        # row 1 pinned to n + 1: the sweep re-sums the recursion's own
        # identities and finds nothing, the hypervirial series differs
        spec = PotentialSpec(1, 1, f)
        monkeypatch.setattr(engine, "N", N + 1)
        table, series = expand(spec, 8)
        assert first_power_identity_failure(table, series, spec) is None
        assert series.e != tuple(hypervirial_energies(spec, 8))
