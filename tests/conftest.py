import json
from fractions import Fraction
from pathlib import Path

import pytest

from lptseries.config import parse_rational
from lptseries.polys import ZERO, BiPoly

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden_energies() -> dict[int, BiPoly]:
    """The checked-in exact sextic coefficients, as polynomials."""
    data = json.loads((GOLDEN_DIR / "sextic_energy_table.json").read_text())
    out: dict[int, BiPoly] = {}
    for order, entry in data["orders"].items():
        prefactor = parse_rational(entry["prefactor"])
        lam_power = int(entry["lam_power"])
        poly = ZERO
        for deg, coeff in entry["poly_n"].items():
            poly = poly + BiPoly({(int(deg), lam_power): prefactor * parse_rational(coeff)})
        out[int(order)] = poly
    return out


@pytest.fixture(scope="session")
def golden_energies() -> dict[int, BiPoly]:
    return load_golden_energies()


@pytest.fixture(scope="session")
def sextic_spec():
    from lptseries.engine import PotentialSpec
    from lptseries.polys import LAM

    return PotentialSpec(1, 1, {4: LAM * Fraction(1, 2)})


@pytest.fixture(scope="session")
def sextic_expansion(sextic_spec):
    """Shared order-11 sextic expansion; several modules test against it."""
    from lptseries.engine import expand

    return expand(sextic_spec, 11)


def rand_fraction(rng, low=-6, high=6, max_den=5, nonzero=False) -> Fraction:
    while True:
        value = Fraction(rng.randint(low, high), rng.randint(1, max_den))
        if value != 0 or not nonzero:
            return value


def rand_bipoly(rng, max_deg_n=3, max_deg_lam=2, max_terms=4) -> BiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(0, max_deg_n), rng.randint(0, max_deg_lam))
        terms[key] = rand_fraction(rng)
    return BiPoly(terms)


def add_to_cell(table, k, i, value) -> None:
    """Add ``value`` to cell (k, i) of a built table, in place, as the
    tests that corrupt a table do.  Only nonzero cells are stored, so a
    cell that becomes zero is removed.
    """
    row = table.cells[k]
    cell = row.get(i, ZERO) + value
    if cell:
        row[i] = cell
    else:
        row.pop(i, None)


def failed_check_lines(monkeypatch, capsys, tmp_path, ini, table, series) -> list[str]:
    """The lines of a failing ``check`` on the problem in ``ini`` whose
    expansion returns ``table`` and ``series``."""
    from lptseries import cli

    monkeypatch.setattr(cli, "expand", lambda *args: (table, series))
    config = tmp_path / "problem.ini"
    config.write_text(ini)
    code = cli.main(["check", "--config", str(config), "--order", str(table.order)])
    assert code == cli.EXIT_FAIL
    return capsys.readouterr().out.splitlines()
