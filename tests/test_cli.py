import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import tomllib
from fractions import Fraction
from pathlib import Path

import pytest

from lptseries import cli, engine, oracle
from lptseries.cli import EXIT_FAIL, EXIT_INVALID, EXIT_OK, main
from lptseries.config import MAX_DIGITS, every_digit, parse_config
from lptseries.engine import expand
from lptseries.polys import LAM, N, BiPoly

from conftest import GOLDEN_DIR, add_to_cell

SEXTIC_INI = GOLDEN_DIR / "sextic.ini"
SEXTIC_GOLDEN = GOLDEN_DIR / "sextic_k11_machine.json"

QUARTIC_INI = "[potential]\nm = 1\nomega = 1\nf2 = 1 lam\n\n[run]\norder = 11\n"
HARMONIC_INI = "[potential]\nm = 2\nomega = 3/5\n\n[run]\norder = 6\n"
HALF = Fraction(1, 2)

# the directory the package was imported from: src/ in a checkout, the
# installed copy's site-packages otherwise; child interpreters import it too
PACKAGE_ROOT = Path(cli.__file__).resolve().parents[1]


def child_env(*first) -> dict[str, str]:
    """This process's environment, with a ``PYTHONPATH`` on which a child
    interpreter finds the package in `PACKAGE_ROOT`, after the directories
    ``first``."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (*first, PACKAGE_ROOT)))}


def golden_cases():
    """Each golden: a config ``<name>.ini`` and the machine document its
    expansion prints, ``<name>_k<K>_machine.json``, K being its order."""
    for golden in sorted(GOLDEN_DIR.glob("*_k*_machine.json")):
        name, order = re.fullmatch(r"(.+)_k(\d+)_machine\.json", golden.name).groups()
        yield pytest.param(GOLDEN_DIR / f"{name}.ini", golden, int(order), id=f"{name}-k{order}")


def has_nu_parity(k: int, energy: BiPoly) -> bool:
    """Whether E_k, written in nu = n + 1/2, holds only the powers nu^k,
    nu^(k-2), ...: E is a series in hbar^2 at fixed hbar * nu."""
    in_nu: dict[tuple[int, int], Fraction] = {}
    for deg_n, deg_lam, coeff in energy.terms_sorted():
        for p in range(deg_n + 1):  # n^deg_n = (nu - 1/2)^deg_n
            key = (p, deg_lam)
            in_nu[key] = in_nu.get(key, 0) + coeff * math.comb(deg_n, p) * (-HALF) ** (deg_n - p)
    return all(p <= k and (k - p) % 2 == 0 for (p, _), coeff in in_nu.items() if coeff)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def write_golden(tmp_path, document) -> str:
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestExpand:
    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "expand", "--config", SEXTIC_INI,
                           "--format", "pretty", "--order", 3)
        assert code == EXIT_OK
        assert out.splitlines() == [
            "potential: m = 1, omega = 1, f4 = 1/2*lam",
            "energy coefficients up to order 3 (E_k multiplies hbar^k):",
            "  E1 = n + 1/2",
            "  E2 = 0",
            "  E3 = 5/4*n^3*lam + 15/8*n^2*lam + 5/2*n*lam + 15/16*lam",
        ]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "expand", "--config", SEXTIC_INI,
                           "--format", "csv", "--order", 3)
        assert code == EXIT_OK
        assert out.splitlines() == [
            "k,deg_n,deg_lam,coeff", "1,0,0,1/2", "1,1,0,1", "2,0,0,0",
            "3,0,1,15/16", "3,1,1,5/2", "3,2,1,15/8", "3,3,1,5/4",
        ]

    # E_4's coefficients have about 6000 digits, past the MAX_DIGITS that
    # input keeps and the interpreter's default int-to-str cap: a result is
    # written in full
    @pytest.mark.parametrize("fmt", ["csv", "machine", "pretty"])
    def test_coefficients_past_the_digit_cap(self, capsys, tmp_path, fmt):
        config = tmp_path / "tiny.ini"
        config.write_text(QUARTIC_INI.replace("1 lam", "1/1" + "0" * 2000 + " lam")
                          .replace("order = 11", "order = 4"))
        code, out, err = run(capsys, "expand", "--config", config, "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        e4 = expand(parse_config(config.read_text()).potential, 4)[1].e[4]
        with every_digit():  # to write the digits out
            records = e4.to_records()
            assert max(len(record["coeff"]) for record in records) > 6000
            if fmt == "csv":
                assert [line for line in out.splitlines() if line.startswith("4,")] == [
                    f"4,{r['deg_n']},{r['deg_lam']},{r['coeff']}" for r in records]
            elif fmt == "machine":
                assert json.loads(out)["energies"][3]["terms"] == records
            else:
                assert out.splitlines()[-1] == f"  E4 = {e4}"


class TestGoldens:
    """Every golden in tests/golden/ is reproduced byte for byte and passes
    ``check``; a new golden needs only its two files.  Besides the sextic,
    the quartic (K = 16), quintic and quartic-plus-sextic goldens step the
    index lattice by g = 2, 3 and 2, the last from two terms."""

    @pytest.mark.parametrize("ini, golden, order", golden_cases())
    def test_expand_writes_the_file(self, capsys, tmp_path, ini, golden, order):
        assert parse_config(ini.read_text()).order == order
        out_path = tmp_path / "out.json"
        code, out, err = run(capsys, "expand", "--config", ini, "--out", out_path)
        assert (code, out, err) == (EXIT_OK, "", "")
        assert out_path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("ini, golden, order", golden_cases())
    def test_check_against_it_passes(self, capsys, ini, golden, order):
        code, out, _ = run(capsys, "check", "--config", ini, "--golden", golden)
        assert code == EXIT_OK
        assert out.splitlines() == ["power-identity: PASS", "golden-comparison: PASS"]

    @pytest.mark.parametrize("ini, golden, order", golden_cases())
    def test_energies_have_nu_parity(self, ini, golden, order):
        series = expand(parse_config(ini.read_text()).potential, order)[1]
        assert all(has_nu_parity(k, series.e[k]) for k in range(1, order + 1))

    def test_files_with_a_byte_order_mark(self, capsys, tmp_path):
        """A config and a golden saved with a UTF-8 byte-order mark load."""
        ini, golden = tmp_path / "sextic.ini", tmp_path / "golden.json"
        ini.write_text("\ufeff" + SEXTIC_INI.read_text(), encoding="utf-8")
        golden.write_text("\ufeff" + SEXTIC_GOLDEN.read_text(), encoding="utf-8")
        assert run(capsys, "expand", "--config", ini) == (EXIT_OK, SEXTIC_GOLDEN.read_text(), "")
        code, out, _ = run(capsys, "check", "--config", ini, "--golden", golden)
        assert code == EXIT_OK
        assert out.splitlines() == ["power-identity: PASS", "golden-comparison: PASS"]

    def test_an_energy_off_nu_parity_is_told(self, sextic_expansion):
        series = sextic_expansion[1]
        assert has_nu_parity(3, series.e[3]) and not has_nu_parity(3, series.e[3] + N)

    def test_oddden_reaches_odd_denominators(self):
        """m, omega and the couplings carry factors of 3 and 5."""
        assert "/13107200000000000000" in (GOLDEN_DIR / "oddden_k8_machine.json").read_text()

    def test_multilam_cells_mix_powers_of_lam(self):
        """f2 = lam + 2/5 lam^2, so the kernel packs operands with more
        than one lam degree."""
        cfg = parse_config((GOLDEN_DIR / "multilam.ini").read_text())
        table, _ = expand(cfg.potential, cfg.order)
        assert max(len({dl for _, dl, _ in cell.terms_sorted()})
                   for row in table.cells for cell in row.values()) >= 7


class TestCheck:
    def test_without_golden(self, capsys):
        code, out, _ = run(capsys, "check", "--config", SEXTIC_INI)
        assert code == EXIT_OK
        assert out.splitlines() == ["power-identity: PASS"]

    def check_golden(self, capsys, tmp_path, golden, config=SEXTIC_INI):
        return run(capsys, "check", "--config", config, "--golden", write_golden(tmp_path, golden))

    def test_mismatched_term(self, capsys, tmp_path):
        golden = json.loads(SEXTIC_GOLDEN.read_text())
        entry = golden["energies"][2]
        assert entry["k"] == 3 and entry["terms"][0]["coeff"] == "15/16"
        entry["terms"][0]["coeff"] = "15/17"
        code, out, _ = self.check_golden(capsys, tmp_path, golden)
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == (
            "golden-comparison: FAIL at energies[2].terms[0].coeff: golden 15/17 vs computed 15/16"
        )

    # its own orders match, so it fails on the first order it lacks
    def test_truncated_golden(self, capsys, tmp_path):
        golden = json.loads(SEXTIC_GOLDEN.read_text())
        golden["energies"] = golden["energies"][:3]
        code, out, _ = self.check_golden(capsys, tmp_path, golden)
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == (
            "golden-comparison: FAIL at energies[3]: missing from the golden"
        )

    def test_golden_without_order(self, capsys, tmp_path):
        golden = json.loads(SEXTIC_GOLDEN.read_text())
        del golden["order"]
        code, out, _ = self.check_golden(capsys, tmp_path, golden)
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == "golden-comparison: FAIL at order: missing from the golden"

    # the sextic golden's f4 against a quartic's f2, at the same order
    def test_golden_of_another_potential(self, capsys, tmp_path):
        config = tmp_path / "quartic.ini"
        config.write_text(QUARTIC_INI)
        code, out, _ = run(capsys, "check", "--config", config, "--golden", SEXTIC_GOLDEN)
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == (
            "golden-comparison: FAIL at potential.f.2: missing from the golden"
        )

    # every energy differs too, yet the potential, compared first, is named
    @pytest.mark.parametrize("old, new, where", [
        ("m = 1", "m = 2", "potential.m: golden 1 vs computed 2"),
        ("omega = 1", "omega = 3/2", "potential.omega: golden 1 vs computed 3/2"),
        ("f4 = 1/2 lam", "f4 = 1/3 lam", "potential.f.4[0].coeff: golden 1/2 vs computed 1/3"),
        ("f4 = 1/2 lam", "f4 = 1/2 lam^2", "potential.f.4[0].deg_lam: golden 1 vs computed 2"),
    ], ids=["mass", "frequency", "coefficient", "lambda-power"])
    def test_golden_of_another_potential_at_the_same_order(self, capsys, tmp_path, old, new, where):
        config = tmp_path / "sextic.ini"
        config.write_text(SEXTIC_INI.read_text().replace(old, new, 1))
        code, out, _ = run(capsys, "check", "--config", config, "--golden", SEXTIC_GOLDEN)
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == f"golden-comparison: FAIL at {where}"

    # E_4's coefficients have about 6000 digits, past MAX_DIGITS: a
    # coefficient is a JSON string, and only JSON's integers meet the limit
    def test_golden_past_the_digit_cap(self, capsys, tmp_path):
        config = tmp_path / "tiny.ini"
        config.write_text(QUARTIC_INI.replace("1 lam", "1/1" + "0" * 2000 + " lam")
                          .replace("order = 11", "order = 4"))
        golden = tmp_path / "golden.json"
        assert run(capsys, "expand", "--config", config, "--format", "machine",
                   "--out", golden)[0] == EXIT_OK
        code, out, err = run(capsys, "check", "--config", config, "--golden", golden)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "golden-comparison: PASS"

    def test_extra_top_level_key_fails(self, capsys, tmp_path):
        golden = json.loads(SEXTIC_GOLDEN.read_text())
        golden["comment"] = "made by hand"
        code, out, _ = self.check_golden(capsys, tmp_path, golden)
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == (
            "golden-comparison: FAIL at comment: not in the computed document"
        )

    def test_potential_as_an_array_is_invalid(self, capsys, tmp_path):
        golden = json.loads(SEXTIC_GOLDEN.read_text())
        golden["potential"] = [golden["potential"]]
        path = write_golden(tmp_path, golden)
        code, out, err = run(capsys, "check", "--config", SEXTIC_INI, "--golden", path)
        assert code == EXIT_INVALID and out == ""
        assert err == (f"error: golden file {path} is not a machine document: "
                       "potential is a JSON array, not an object\n")

    # the first departure decides, whichever kind comes later
    def test_differing_value_before_a_type_error_fails(self, capsys, tmp_path):
        golden = json.loads(SEXTIC_GOLDEN.read_text())
        golden["energies"][0]["terms"][0]["coeff"] = "1/3"
        golden["energies"][2]["terms"][0]["coeff"] = 15 / 16
        code, out, err = self.check_golden(capsys, tmp_path, golden)
        assert (code, err) == (EXIT_FAIL, "")
        assert out.splitlines()[-1] == (
            "golden-comparison: FAIL at energies[0].terms[0].coeff: golden 1/3 vs computed 1/2"
        )

    # each case changes one field of the sextic golden, at the path given
    # (none: the whole document; a missing value: the field deleted); types
    # are named as JSON names them
    @pytest.mark.parametrize("field, value, code, why", [
        ((), [1, 2], EXIT_INVALID, "top level is a JSON array, not an object"),
        ((), None, EXIT_INVALID, "top level is a JSON null, not an object"),
        (("energies", 0, "terms"), ..., EXIT_FAIL, "at energies[0].terms: missing from the golden"),
        (("energies",), {"1": []}, EXIT_INVALID, "energies is a JSON object, not an array"),
        (("energies", 0, "terms", 0, "coeff"), ..., EXIT_FAIL,
         "at energies[0].terms[0].coeff: missing from the golden"),
        (("energies", 0, "terms", 0, "deg_n"), [0], EXIT_INVALID,
         "energies[0].terms[0].deg_n is a JSON array, not an integer"),
        # JSON true and false are Python ints equal to 1 and 0
        (("energies", 0, "terms", 1, "deg_n"), True, EXIT_INVALID,
         "energies[0].terms[1].deg_n is a JSON boolean, not an integer"),
        (("energies", 0, "terms", 1, "deg_lam"), False, EXIT_INVALID,
         "energies[0].terms[1].deg_lam is a JSON boolean, not an integer"),
        (("order",), True, EXIT_INVALID, "order is a JSON boolean, not an integer"),
        (("energies", 0, "k"), True, EXIT_INVALID, "energies[0].k is a JSON boolean, not an integer"),
        # a float equal to the order, or a string that prints as it
        (("order",), 11.0, EXIT_INVALID, "order is a JSON number, not an integer"),
        (("order",), "11", EXIT_INVALID, "order is a JSON string, not an integer"),
        (("energies", 0, "k"), 1.0, EXIT_INVALID, "energies[0].k is a JSON number, not an integer"),
        # a number equal to the coefficient of n in E1, which the expansion prints as "1"
        (("energies", 0, "terms", 1, "coeff"), 1, EXIT_INVALID,
         "energies[0].terms[1].coeff is a JSON number, not a string"),
    ], ids=["list", "null", "entry-without-terms", "energies-not-a-list", "term-without-coeff",
            "list-as-degree", "true-as-degree", "false-as-degree", "true-as-order",
            "true-as-k", "float-as-order", "string-as-order", "float-as-k", "number-as-coeff"])
    def test_golden_that_is_not_a_machine_document(self, capsys, tmp_path, field, value, code, why):
        golden = json.loads(SEXTIC_GOLDEN.read_text())
        if not field:
            golden = value
        else:
            *parents, last = field
            inner = golden
            for key in parents:
                inner = inner[key]
            if value is ...:
                del inner[last]
            else:
                inner[last] = value
        path = write_golden(tmp_path, golden)
        got, out, err = run(capsys, "check", "--config", SEXTIC_INI, "--golden", path)
        assert got == code
        if code == EXIT_FAIL:  # a field the golden lacks: the comparison fails
            assert err == "" and out.splitlines()[-1] == f"golden-comparison: FAIL {why}"
        else:
            assert out == ""
            assert err == f"error: golden file {path} is not a machine document: {why}\n"

    # the oscillator checks read the table check built, at any m and omega
    @pytest.mark.parametrize("m, omega", [(1, 1), (2, 2), (2, "3/5")])
    def test_harmonic_check_reuses_a_unit_oscillator_table(
        self, capsys, tmp_path, monkeypatch, m, omega
    ):
        calls = []

        def counting_expand(*args, **kwargs):
            calls.append(args)
            return engine.expand(*args, **kwargs)

        monkeypatch.setattr(cli, "expand", counting_expand)
        config = tmp_path / "harmonic.ini"
        config.write_text(f"[potential]\nm = {m}\nomega = {omega}\n\n[run]\norder = 6\n")
        code, out, _ = run(capsys, "check", "--config", config)
        assert code == EXIT_OK
        assert out.splitlines() == ["power-identity: PASS", "harmonic-crosscheck: PASS"]
        assert len(calls) == 1

    def test_harmonic_check_never_builds_rows(self, capsys, tmp_path, monkeypatch):
        """The check lines read the sparse cells, so the dense rows are never
        built."""
        builds = []
        dense_rows = engine.CTable.rows.fget

        def counting_rows(table):
            builds.append(table)
            return dense_rows(table)

        monkeypatch.setattr(engine.CTable, "rows", property(counting_rows))
        config = tmp_path / "harmonic.ini"
        config.write_text(HARMONIC_INI)
        code, out, _ = run(capsys, "check", "--config", config)
        assert code == EXIT_OK and "FAIL" not in out
        assert builds == []

    def test_unreadable_golden(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--config", SEXTIC_INI,
                           "--golden", tmp_path / "missing.json")
        assert code == EXIT_INVALID
        assert "cannot read golden file" in err

    # JSON nested deeper than the parser's recursion, an integer of more than
    # MAX_DIGITS digits, and bytes that are not UTF-8
    @pytest.mark.parametrize("data, why", [
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
        (b'{"a": ' * 100000 + b"1" + b"}" * 100000, "maximum recursion depth exceeded"),
        (b'{"order": 1' + b"0" * MAX_DIGITS + b"}",
         f"a number past the limit of {MAX_DIGITS} digits\n"),
        (b"\xff\xfe", "'utf-8' codec can't decode"),
    ], ids=["nested-arrays", "nested-objects", "long-integer", "not-utf-8"])
    def test_golden_the_parser_refuses(self, capsys, tmp_path, data, why):
        path = tmp_path / "golden.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "check", "--config", SEXTIC_INI, "--golden", path)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith(f"error: cannot read golden file {path}: {why}")


def bump_cell(k, i, by):
    def corrupt(table, series):
        add_to_cell(table, k, i, by)
        return table, series
    return corrupt


def bump_energy(k, by):
    def corrupt(table, series):
        e = list(series.e)
        e[k] = e[k] + by
        return table, series._replace(e=tuple(e))
    return corrupt


class TestCheckFailures:
    """Each check line fails, with its detail, on a table corrupted after
    the expansion; a check that no corruption can fail checks nothing.
    ``power-identity`` also names a stored cell off the lattice, here an
    off-lattice residue slot (2, 2) and an odd cell (1, 1) of the sextic.
    ``harmonic-crosscheck`` fails on a wrong energy, residue or C[0][0]."""

    @pytest.mark.parametrize("ini, corrupt, line", [
        (SEXTIC_INI.read_text(), bump_cell(2, 4, 1), "power-identity: FAIL at (k=2, i=4)"),
        (SEXTIC_INI.read_text(), bump_cell(2, 2, 1), "power-identity: FAIL at (k=2, i=2)"),
        (SEXTIC_INI.read_text(), bump_cell(1, 1, LAM), "power-identity: FAIL at (k=1, i=1)"),
        (HARMONIC_INI, bump_energy(2, N), "harmonic-crosscheck: FAIL"),
        (HARMONIC_INI, bump_cell(3, 0, 1), "harmonic-crosscheck: FAIL"),
        (HARMONIC_INI, bump_cell(2, 0, N), "harmonic-crosscheck: FAIL"),
        # C[0][0] = -m omega = -6/5 flipped to 6/5
        (HARMONIC_INI, bump_cell(0, 0, Fraction(12, 5)), "harmonic-crosscheck: FAIL"),
    ], ids=["power-identity", "power-identity-residue-slot", "power-identity-off-lattice",
            "harmonic-crosscheck-energy", "harmonic-crosscheck", "harmonic-crosscheck-level-two",
            "harmonic-crosscheck-row-zero"])
    def test_corrupted_table_fails_its_line(
        self, capsys, tmp_path, monkeypatch, ini, corrupt, line
    ):
        monkeypatch.setattr(cli, "expand", lambda *args: corrupt(*engine.expand(*args)))
        config = tmp_path / "problem.ini"
        config.write_text(ini)
        code, out, _ = run(capsys, "check", "--config", config, "--order", 4)
        assert code == EXIT_FAIL
        assert line in out.splitlines()


class TestVerify:
    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--config", SEXTIC_INI, "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("level,eigenvalue,partial_sum,truncation_order")
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]
        assert all(line.endswith(",True") for line in lines[1:])

    def test_requires_an_oracle_section(self, capsys, tmp_path):
        config = tmp_path / "quartic.ini"
        config.write_text(QUARTIC_INI)
        code, _, err = run(capsys, "verify", "--config", config)
        assert code == EXIT_INVALID
        assert "[oracle]" in err

    def test_rejects_a_coupling_too_large_for_a_partial_sum(self, capsys, tmp_path):
        config = tmp_path / "quartic.ini"
        config.write_text(QUARTIC_INI + "\n[oracle]\nlambda = 1\n")
        code, out, err = run(capsys, "verify", "--config", config)
        assert code == EXIT_FAIL and err == ""
        assert out == (
            "verification rejected: first two nonzero series terms do not decrease "
            "(|0.5| then |0.75|): the coupling is too large for an asymptotic partial sum\n"
        )

    def test_breakdown_past_the_head_keeps_its_level_order(self, capsys, tmp_path):
        # E_2 vanishes at level 0 alone: level 1 breaks down within the first
        # two orders, level 0 only at E_3, and level 0 is reported first
        config = tmp_path / "cubic-quartic.ini"
        config.write_text("[potential]\nm = 1\nomega = 1\nf1 = 1 lam\nf2 = 11/6 lam^2\n"
                          "\n[run]\norder = 8\n\n[oracle]\nlambda = 1\nlevels = 0, 1\n")
        code, out, err = run(capsys, "verify", "--config", config)
        assert (code, err) == (EXIT_FAIL, "")
        assert "(|0.5| then |15.8333|)" in out

    def test_breakdown_in_the_head_expands_the_head_alone(self, capsys, tmp_path, monkeypatch):
        # at m = 1/10^300 the whole series to order 11 takes seconds; the
        # head, E_1 and E_2, already shows the breakdown, and nothing past it
        # is expanded, by the oracle or by the command
        orders = []

        def expand_spy(spec, order):
            orders.append(order)
            return expand(spec, order)

        monkeypatch.setattr(oracle, "expand", expand_spy)
        monkeypatch.setattr(cli, "expand", expand_spy)
        config = tmp_path / "tiny-mass.ini"
        config.write_text(QUARTIC_INI.replace("m = 1", "m = 1/1" + "0" * 300)
                          + "\n[oracle]\nlambda = 1\n")
        code, out, err = run(capsys, "verify", "--config", config, "--order", 11)
        assert (code, err) == (EXIT_FAIL, "")
        assert out.startswith("verification rejected: first two nonzero series terms "
                              "do not decrease (|0.5| then |7.5e+599|)")
        assert orders == [2]

    @pytest.mark.parametrize("error", [oracle.OracleError, oracle.BasisNotConverged,
                                       oracle.EigensolverError])
    def test_every_other_oracle_error_is_not_converged(self, capsys, monkeypatch, error):
        def fail(problem):
            raise error("spectrum is not strictly increasing and positive")

        monkeypatch.setattr(oracle, "converged_levels", fail)
        code, out, err = run(capsys, "verify", "--config", SEXTIC_INI)
        assert (code, out, err) == (
            EXIT_INVALID, "oracle not converged: spectrum is not strictly increasing and positive\n",
            "")

    def test_basis_room_is_judged_at_the_coupling(self, capsys, tmp_path):
        # the x^4 coefficient lam - lam^2 is zero at lam = 1: the problem is
        # the oscillator, and three states hold its ground level
        config = tmp_path / "vanishing.ini"
        config.write_text("[potential]\nm = 1\nomega = 1\nf2 = 1 lam + -1 lam^2\n"
                          "\n[oracle]\nlambda = 1\nbasis = 3\nlevels = 0\n")
        code, out, err = run(capsys, "verify", "--config", config, "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[1:] == ["0,0.5,0.5,2,0.0,0.0,1e-10,True"]

    def test_order_too_short_to_truncate(self, capsys):
        code, out, err = run(capsys, "verify", "--config", SEXTIC_INI, "--order", 2)
        assert code == EXIT_INVALID and out == ""
        assert err == "error: series order 2 too short to truncate\n"

    def test_repeated_level_refused(self, capsys, tmp_path):
        config = tmp_path / "repeated.ini"
        config.write_text(SEXTIC_INI.read_text().replace("levels = 0, 1, 2, 3", "levels = 2, 0, 2"))
        code, out, err = run(capsys, "verify", "--config", config)
        assert code == EXIT_INVALID and out == ""
        assert err == "error: oracle.levels: level 2 is given more than once\n"

    def test_negative_quartic_coupling_is_not_converged(self, capsys, tmp_path):
        # a negative x^4 term is unbounded below: refused before expanding or
        # diagonalizing, with the term named
        config = tmp_path / "negative.ini"
        config.write_text(
            QUARTIC_INI.replace("order = 11", "order = 12")
            + "\n[oracle]\nlambda = -1/100\nbasis = 60\ncheck_basis = 80\nlevels = 0, 1, 2, 3\n"
        )
        code, out, err = run(capsys, "verify", "--config", config)
        assert code == EXIT_INVALID and out == ""
        assert err == (
            "error: the potential is unbounded below at lam = -1/100: "
            "its highest term is -1/100 x^4\n"
        )

    def test_unbounded_term_past_the_digit_cap(self, capsys, tmp_path):
        # lam^2000 at 1/1000 leaves a top coefficient whose denominator has
        # 6001 digits, past MAX_DIGITS: it is named in full
        config = tmp_path / "unbounded.ini"
        config.write_text("[potential]\nm = 1\nomega = 1\nf2 = -1 lam + 1 lam^2000\n"
                          "\n[oracle]\nlambda = 1/1000\n")
        code, out, err = run(capsys, "verify", "--config", config)
        assert (code, out) == (EXIT_INVALID, "")
        lam = Fraction(1, 1000)
        with every_digit():
            assert err == (
                "error: the potential is unbounded below at lam = 1/1000: "
                f"its highest term is {-lam + lam**2000} x^4\n"
            )

    # lambda = 12 + 10^(1 - MAX_DIGITS): each run of digits in the file is
    # within MAX_DIGITS, but the numerator of the value is not
    LONG_COUPLING = Fraction(12 * 10 ** (MAX_DIGITS - 1) + 1, 10 ** (MAX_DIGITS - 1))

    @staticmethod
    def long_coupling_config(tmp_path, terms: str) -> Path:
        config = tmp_path / "long-coupling.ini"
        config.write_text(f"[potential]\nm = 1\nomega = 1\n{terms}\n[run]\norder = 6\n"
                          f"\n[oracle]\nlambda = 12.{'0' * (MAX_DIGITS - 2)}1\n"
                          "basis = 60\ncheck_basis = 80\nlevels = 0, 1\n")
        return config

    def test_report_names_a_coupling_past_the_digit_cap(self, capsys, tmp_path):
        config = self.long_coupling_config(tmp_path, "f2 = 1/1000000000 lam\n")
        code, out, err = run(capsys, "verify", "--config", config)
        assert (code, err) == (EXIT_OK, "")
        lines = out.splitlines()
        with every_digit():
            assert lines[1] == f"coupling lam = {self.LONG_COUPLING} (12)"
        assert [line.split()[-1] for line in lines[3:]] == ["ok", "ok"]

    @pytest.mark.parametrize("terms, message", [
        ("f2 = -1 lam\n", "the potential is unbounded below at lam = {lam}: "
                          "its highest term is -{lam} x^4"),
        ("f1 = 1 lam\nf2 = 1/4 lam^2\n", "the potential is not a single well at lam = {lam}: "
                                         "V'(x) = 0 at x = -0.0318305 as well as at x = 0"),
    ], ids=["unbounded-below", "second-well"])
    def test_refusal_names_a_coupling_past_the_digit_cap(self, capsys, tmp_path, terms, message):
        config = self.long_coupling_config(tmp_path, terms)
        code, out, err = run(capsys, "verify", "--config", config)
        with every_digit():
            message = message.format(lam=self.LONG_COUPLING)
        assert (code, out, err) == (EXIT_INVALID, "", f"error: {message}\n")

    def test_pure_cubic_is_refused(self, capsys, tmp_path, monkeypatch):
        def fail(*_args):
            raise AssertionError("expanded an unbounded potential")

        monkeypatch.setattr(cli, "expand", fail)
        config = tmp_path / "cubic.ini"
        config.write_text(
            "[potential]\nm = 1\nomega = 1\nf1 = 1 lam\n\n[run]\norder = 4\n"
            "\n[oracle]\nlambda = 1/100\nbasis = 60\ncheck_basis = 80\n"
        )
        code, out, err = run(capsys, "verify", "--config", config)
        assert code == EXIT_INVALID and out == ""
        assert err == (
            "error: the potential is unbounded below at lam = 1/100: "
            "its highest term is 1/100 x^3\n"
        )

    # exact inputs that no double holds: refused before expanding (exit 2),
    # or, where only a series term is out of range, reported like any other
    # breakdown (exit 1); never a traceback.  Each is refused within seconds:
    # 1/100^20000 costs its own powers only, 1/100^400000 only the digits its
    # message prints, 1/100^4000000 and past it nothing (its powers would
    # pass the evaluation bit limit), and the term past a double only the
    # series' head
    @pytest.mark.parametrize("m, f2, lam, code, message", [
        ("1", "1 lam", "1" + "0" * 400, EXIT_INVALID,
         "error: lam = 1e+400 is outside the range of a double\n"),
        ("1" + "0" * 400, "1 lam", "1/100", EXIT_INVALID,
         "error: m = 1e+400 is outside the range of a double\n"),
        ("1/1" + "0" * 400, "1 lam", "1/100", EXIT_INVALID,
         "error: m = 1e-400 is outside the range of a double\n"),
        ("1", "1 lam^20000", "1/100", EXIT_INVALID,
         "error: the x^4 coefficient = 1e-40000 is outside the range of a double\n"),
        ("1", "1 lam^400000", "1/100", EXIT_INVALID,
         "error: the x^4 coefficient = 1e-800000 is outside the range of a double\n"),
        ("1", "1 lam^4000000", "1/100", EXIT_INVALID,
         "error: evaluating a polynomial of degree 0 in n and 4000000 in lam at n = 0, "
         "lam = 1/100 needs powers of up to 28000000 bits, past the limit of 4194304\n"),
        ("1", "1 lam^100000000", "1/100", EXIT_INVALID,
         "error: evaluating a polynomial of degree 0 in n and 100000000 in lam at n = 0, "
         "lam = 1/100 needs powers of up to 700000000 bits, past the limit of 4194304\n"),
        ("1/1" + "0" * 300, "1 lam", "1/100", EXIT_FAIL,
         "verification rejected: first two nonzero series terms do not decrease "
         "(|0.5| then |7.5e+597|): the coupling is too large for an asymptotic partial sum\n"),
    ], ids=["huge-lambda", "huge-m", "tiny-m", "sparse-lambda-power", "sparser-lambda-power",
            "lambda-power-past-the-bit-limit", "far-past-the-bit-limit", "term-beyond-a-double"])
    def test_exact_inputs_beyond_a_double(self, capsys, tmp_path, m, f2, lam, code, message):
        config = tmp_path / "quartic.ini"
        config.write_text(QUARTIC_INI.replace("m = 1", f"m = {m}").replace("1 lam", f2)
                          + f"\n[oracle]\nlambda = {lam}\nbasis = 60\n")
        start = time.perf_counter()
        got, out, err = run(capsys, "verify", "--config", config)
        assert time.perf_counter() - start < 5
        assert got == code
        assert (out, err) == (("", message) if code == EXIT_INVALID else (message, ""))

    def test_converged_basis_where_the_iteration_misses_a_level(self, capsys, tmp_path):
        # level 5's iteration lands elsewhere at both sizes, and bisection
        # must find it as accurately as the iteration would
        config = tmp_path / "sextic.ini"
        config.write_text(SEXTIC_INI.read_text().replace("lambda = 1/1000", "lambda = 1/50")
                          .replace("basis = 60\ncheck_basis = 80", "basis = 120")
                          .replace("levels = 0, 1, 2, 3", "levels = 0, 1, 2, 3, 4, 5"))
        code, out, err = run(capsys, "verify", "--config", config, "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == list("012345")
        assert all(line.endswith(",True") for line in out.splitlines()[1:])

    def test_vanishing_term_at_a_tiny_mass(self, capsys, tmp_path):
        # at lam = 0 the x^4 term is exactly zero, so H is the oscillator's
        # diagonal, though a walk through the ladder at this mass overflows
        config = tmp_path / "quartic.ini"
        config.write_text(QUARTIC_INI.replace("m = 1", "m = 1/1" + "0" * 307)
                          .replace("order = 11", "order = 4")
                          + "\n[oracle]\nlambda = 0\nbasis = 60\n")
        code, out, err = run(capsys, "verify", "--config", config, "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(row[1], row[-1]) for row in rows] == [
            ("0.5", "True"), ("1.5", "True"), ("2.5", "True"), ("3.5", "True")]

    def test_excited_levels(self, capsys, tmp_path):
        # up to level 150 of a weak quartic; at levels 100 and 150 the
        # discrepancy is most of the first omitted term, so the bound, ten
        # times that term, binds on the series and not on its 1e-10 floor
        config = tmp_path / "quartic.ini"
        config.write_text(QUARTIC_INI.replace("order = 11", "order = 12")
                          + "\n[oracle]\nlambda = 1/10000\nbasis = 600\ncheck_basis = 800\n"
                          "levels = 0, 10, 50, 100, 150\n")
        code, out, err = run(capsys, "verify", "--config", config, "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(row[0], row[-1]) for row in rows] == [
            (level, "True") for level in ("0", "10", "50", "100", "150")]
        for *_, omitted, discrepancy, bound, _ in rows[3:]:
            assert float(bound) > 1e-10
            assert 0.5 <= float(discrepancy) / float(omitted) <= 1

    def test_oracle_error(self, capsys, tmp_path):
        # the double well V = x^2/2 + lam x^3 + lam^2 x^4/4: at lam = 1/2 both
        # bases reach its outer well near x = -5.24, where V is about -11; it
        # is refused before anything is diagonalized
        config = tmp_path / "double-well.ini"
        config.write_text("[potential]\nm = 1\nomega = 1\nf1 = 1 lam\nf2 = 1/4 lam^2\n"
                          "\n[run]\norder = 8\n"
                          "\n[oracle]\nlambda = 1/2\nbasis = 60\ncheck_basis = 80\nlevels = 0\n")
        code, out, err = run(capsys, "verify", "--config", config)
        assert code == EXIT_INVALID and out == ""
        assert err == ("error: the potential is not a single well at lam = 1/2: "
                       "V'(x) = 0 at x = -0.763932 as well as at x = 0\n")

    # V = x^2/2 + lam x^3 + f2 x^4 at lam = 1/30: at f2 = lam^2/4 the outer
    # well near x = -78.5 goes down to about -2495, far past what 60 or 80
    # oscillator states reach, so every level printed ok at basis 60/80; at
    # f2 = lam^2/2 the two wells are equally deep, V = x^2 (1 + lam x)^2 / 2
    @pytest.mark.parametrize("f2, where", [("1/4 lam^2", "-11.459"), ("1/2 lam^2", "-15")],
                             ids=["deep-outer-well", "degenerate-wells"])
    def test_second_well_is_refused(self, capsys, tmp_path, f2, where):
        config = tmp_path / "double-well.ini"
        config.write_text(f"[potential]\nm = 1\nomega = 1\nf1 = 1 lam\nf2 = {f2}\n"
                          "\n[run]\norder = 8\n\n[oracle]\nlambda = 1/30\nbasis = 60\n"
                          "check_basis = 80\nlevels = 0, 1, 2, 3\n")
        code, out, err = run(capsys, "verify", "--config", config)
        assert (code, out) == (EXIT_INVALID, "")
        assert err == (f"error: the potential is not a single well at lam = 1/30: "
                       f"V'(x) = 0 at x = {where} as well as at x = 0\n")


class TestInvalidInput:
    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "expand", "--config", tmp_path / "missing.ini")
        assert code == EXIT_INVALID
        assert "cannot read config" in err
        # a file that is not UTF-8, or that configparser refuses, is named too
        for data, why in [
            (b"[potential]\nm = 1\nomega = 1\nf2 = 1 lam \xff\n",
             "cannot read config {}: 'utf-8' codec can't decode byte 0xff in position 39"),
            (b"[potential]\nm = 1\nomega = 1\n[potential]\nm = 2\n",
             "malformed config: While reading from '{}' [line  4]: "
             "section 'potential' already exists"),
            (b"[potential]\nm = 1\nm = 2\nomega = 1\n",
             "malformed config: While reading from '{}' [line  3]: "
             "option 'm' in section 'potential' already exists"),
            (b"m = 1\nomega = 1\n",
             "malformed config: File contains no section headers.\nfile: '{}', line: 1"),
        ]:
            config = tmp_path / "bad.ini"
            config.write_bytes(data)
            code, out, err = run(capsys, "expand", "--config", config)
            assert (code, out) == (EXIT_INVALID, "")
            assert err.startswith("error: " + why.format(config))

    # the flag and the config key meet the one order check, in expand
    @pytest.mark.parametrize("command", ["expand", "check", "verify"])
    def test_order_zero(self, capsys, tmp_path, command):
        config = tmp_path / "zero.ini"
        config.write_text(SEXTIC_INI.read_text().replace("order = 11", "order = 0"))
        for argv in (["--config", SEXTIC_INI, "--order", 0], ["--config", config]):
            code, out, err = run(capsys, command, *argv)
            assert code == EXIT_INVALID and out == ""
            assert err == "error: expansion order must be >= 1, got 0\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["expand", "check", "verify"])
    def test_order_above_the_limit(self, capsys, tmp_path, monkeypatch, command, source):
        def never(*_args):
            raise AssertionError("no row may be built for a refused order")

        monkeypatch.setattr(engine, "c0_row", never)
        if source == "flag":
            argv = ["--config", SEXTIC_INI, "--order", engine.MAX_ORDER + 1]
        else:
            config = tmp_path / "huge.ini"
            config.write_text(SEXTIC_INI.read_text().replace("order = 11", "order = 101"))
            argv = ["--config", config]
        code, out, err = run(capsys, command, *argv)
        assert code == EXIT_INVALID and out == ""
        assert err == "error: expansion order 101 exceeds the limit of 100\n"

    @pytest.mark.parametrize("sizes, message", [
        ("basis = 100000", "basis size 100000 exceeds the limit of 1000 states"),
        ("basis = 900", "check basis size 1200 exceeds the limit of 1000 states"),
        ("basis = 60\ncheck_basis = 1001", "check basis size 1001 exceeds"),
        # a size the user never set is named as the default it is
        ("basis = 800", "check basis size 1066 exceeds the limit of 1000 states, "
                        "the default for basis size 800: set check_basis to choose it\n"),
    ], ids=["basis", "derived-check-basis", "check-basis", "derived-check-basis-origin"])
    def test_oversized_oracle_basis(self, capsys, tmp_path, monkeypatch, sizes, message):
        def never(*_args):
            raise AssertionError("neither the series nor the Hamiltonian may be built")

        monkeypatch.setattr(cli, "expand", never)
        monkeypatch.setattr(oracle, "_hamiltonian_at", never)
        config = tmp_path / "huge.ini"
        config.write_text(QUARTIC_INI + f"\n[oracle]\nlambda = 1/100\n{sizes}\n")
        code, out, err = run(capsys, "verify", "--config", config)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: ") and message in err

    def test_colliding_coefficient_keys(self, capsys, tmp_path):
        config = tmp_path / "collide.ini"
        config.write_text("[potential]\nm = 1\nomega = 1\nf2 = 1 lam\nf02 = 5 lam\n")
        code, out, err = run(capsys, "expand", "--config", config)
        assert code == EXIT_INVALID and out == ""
        assert err == (
            "error: potential.f2 and potential.f02 both give the coefficient of x^4\n"
        )

    # the flag reads the config's integers: int() would run "1_2" as order 12
    @pytest.mark.parametrize("order", ["1_2", "\u0663", "\uff11"])
    def test_order_flag_reads_ascii_digits_only(self, capsys, order):
        with pytest.raises(SystemExit) as exit_info:
            main(["expand", "--config", str(SEXTIC_INI), "--order", order])
        assert exit_info.value.code == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: lptseries ")
        assert err.endswith(f"error: argument --order: invalid integer value: '{order}'\n")

    def test_check_has_no_format_flag(self, capsys):
        # expand and verify keep theirs: TestExpand.test_csv, TestVerify.test_csv_report
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--config", str(SEXTIC_INI), "--format", "csv"])
        assert exit_info.value.code == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: lptseries ")
        assert err.endswith("lptseries: error: unrecognized arguments: --format csv\n")

    @pytest.mark.parametrize("command", ["expand", "check", "verify"])
    def test_unwritable_output(self, capsys, tmp_path, command):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, command, "--config", SEXTIC_INI, "--out", path)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith(f"error: cannot write output {path}: ")
        assert "No such file or directory" in err


class TestOutputThatCannotBeWritten:
    """A stdout that refuses the output ends the command with exit 2 and one
    error line, however Python buffers it: no traceback, and no failure of
    the interpreter's own flush at exit."""

    @staticmethod
    def run_module(command, stdout, unbuffered=False):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "lptseries", command, "--config", str(SEXTIC_INI)],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
        )

    @staticmethod
    def assert_one_error_line(result, reason):
        assert result.returncode == EXIT_INVALID
        assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr
        assert result.stderr.startswith("error: cannot write output <stdout>: ")
        assert result.stderr.count("\n") == 1 and reason in result.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["expand", "check", "verify"])
    def test_full_device(self, command, unbuffered):
        with open("/dev/full", "w") as full:
            result = self.run_module(command, full, unbuffered)
        self.assert_one_error_line(result, "No space left on device")

    @pytest.mark.parametrize("command", ["expand", "check", "verify"])
    def test_pipe_with_its_read_end_closed(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run_module(command, write_end)
        finally:
            os.close(write_end)
        self.assert_one_error_line(result, "Broken pipe")


def pyproject() -> dict:
    """The checkout's pyproject.toml, parsed."""
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        return tomllib.load(f)


class TestVersion:
    def test_prints_the_version_pyproject_declares(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == f"{pyproject()['project']['version']}\n"

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "lptseries", "--version"], env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, f"{cli.__version__}\n", "")


class TestProcessEntry:
    """A command process ends through `cli.run`, which freezes the heap so
    the interpreter's exit collections skip it; `cli.main` never freezes,
    since the tests and the benchmark's tracer call it many times in one
    process and their garbage must stay collectable."""

    # the child imports it at start-up, as sitecustomize; an atexit handler
    # registered first runs last, after the command's own
    PROBE = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen: {gc.get_freeze_count() > 0}\\n'))\n"
    )

    @pytest.mark.parametrize("argv", [
        ["expand", "--config", str(SEXTIC_INI)],
        ["--version"],
        ["expand", "--config", str(SEXTIC_INI), "--order", "0"],
    ], ids=["expand", "version", "order-0"])
    def test_module_entry_freezes_the_heap_and_prints_what_main_prints(
            self, argv, tmp_path, capsys):
        (tmp_path / "sitecustomize.py").write_text(self.PROBE)
        result = subprocess.run(
            [sys.executable, "-m", "lptseries", *argv], env=child_env(tmp_path),
            capture_output=True, text=True, timeout=120,
        )
        try:
            code = main(argv)
        except SystemExit as exc:  # --version
            code = exc.code
        out, err = capsys.readouterr()
        assert code == (EXIT_INVALID if "--order" in argv else EXIT_OK)
        assert (result.returncode, result.stdout, result.stderr) == (code, out, err + "frozen: True\n")

    def test_main_leaves_the_heap_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        for argv in (["expand", "--config", SEXTIC_INI],
                     ["check", "--config", SEXTIC_INI, "--golden", SEXTIC_GOLDEN],
                     ["verify", "--config", SEXTIC_INI]):
            assert main([str(a) for a in argv]) == EXIT_OK
        assert gc.get_freeze_count() == before

    # files are read and written as UTF-8, whatever the locale's encoding
    @pytest.mark.parametrize("argv", [
        ["expand", "--config", str(SEXTIC_INI), "--out", "{tmp}/out.json"],
        ["check", "--config", str(SEXTIC_INI), "--golden", str(SEXTIC_GOLDEN)],
    ], ids=["expand-out", "check-golden"])
    def test_no_file_access_uses_the_locale_encoding(self, argv, tmp_path):
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "lptseries", *(a.format(tmp=tmp_path) for a in argv)],
            env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        if argv[0] == "expand":
            assert (tmp_path / "out.json").read_bytes() == SEXTIC_GOLDEN.read_bytes()

    def test_console_script_is_the_process_entry(self):
        assert pyproject()["project"]["scripts"] == {"lptseries": "lptseries.cli:run"}


class TestDigitCap:
    """`main` lifts the interpreter's int-to-str digit cap for a whole
    command and restores the caller's: what a command accepts is bounded
    by `MAX_DIGITS` alone, and every number it prints is whole."""

    @staticmethod
    def argv(case: str, tmp_path) -> list[str]:
        config = tmp_path / f"{case}.ini"
        if case == "config-value":
            config.write_text(f"[potential]\nm = 1{'0' * MAX_DIGITS}\nomega = 1\n")
            return ["expand", "--config", str(config)]
        if case == "order-flag":
            return ["expand", "--config", str(SEXTIC_INI), "--order", "1" + "0" * MAX_DIGITS]
        if case == "e4-expand":  # coefficients of about 6000 digits
            config.write_text(QUARTIC_INI.replace("1 lam", "1/1" + "0" * 2000 + " lam"))
            return ["expand", "--config", str(config), "--order", "4", "--format", "csv"]
        return ["verify", "--config", str(TestVerify.long_coupling_config(
            tmp_path, "f2 = 1/1000000000 lam\n"))]

    @pytest.mark.parametrize("case, code, err", [
        ("config-value", EXIT_INVALID, f"error: potential.m: a number past the limit of "
                                       f"{MAX_DIGITS} digits\n"),
        ("order-flag", EXIT_INVALID, f"error: argument --order: invalid integer value: "
                                     f"'1{'0' * MAX_DIGITS}'\n"),
        ("e4-expand", EXIT_OK, ""),
        ("long-coupling-verify", EXIT_OK, ""),
    ], ids=["config-value", "order-flag", "e4-expand", "long-coupling-verify"])
    def test_the_interpreters_cap_changes_nothing(self, tmp_path, case, code, err):
        results = []
        for cap in (None, "0", "640"):
            env = child_env()
            env.pop("PYTHONINTMAXSTRDIGITS", None)
            if cap is not None:
                env["PYTHONINTMAXSTRDIGITS"] = cap
            result = subprocess.run(
                [sys.executable, "-m", "lptseries", *self.argv(case, tmp_path)], env=env,
                capture_output=True, text=True, timeout=120,
            )
            results.append((result.returncode, result.stdout, result.stderr))
        assert results[1:] == results[:1] * 2
        got, out, stderr = results[0]
        assert (got, bool(out)) == (code, code == EXIT_OK)
        assert stderr.endswith(err) if err else stderr == ""

    @pytest.mark.parametrize("case, code", [
        ("expand", EXIT_OK),
        ("check-fails", EXIT_FAIL),
        ("config-error", EXIT_INVALID),
        ("version", 0),
        ("missing-config", EXIT_INVALID),
    ], ids=["expand", "check-fails", "config-error", "version", "missing-config"])
    def test_main_restores_the_callers_cap(self, tmp_path, monkeypatch, case, code):
        argv = {
            "expand": ["expand", "--config", str(SEXTIC_INI), "--order", "3"],
            "check-fails": ["check", "--config", str(SEXTIC_INI), "--order", "3",
                            "--golden", str(SEXTIC_GOLDEN)],
            "config-error": ["expand", "--config", str(tmp_path / "missing.ini")],
            "version": ["--version"],
            "missing-config": ["expand"],
        }[case]
        seen = []

        def expand_seeing_the_cap(*args):
            seen.append(sys.get_int_max_str_digits())
            return expand(*args)

        monkeypatch.setattr(cli, "expand", expand_seeing_the_cap)
        callers = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            try:
                got = main(argv)
            except SystemExit as exc:  # --version, or argparse's usage error
                got = exc.code
            assert (got, sys.get_int_max_str_digits()) == (code, 1000)
        finally:
            sys.set_int_max_str_digits(callers)
        assert seen == ([0] if case.startswith(("expand", "check")) else [])


class TestNumpyImport:
    """No command loads numpy, ``dataclasses`` or ``inspect``, and each one
    but a machine-format ``expand`` skips ``json`` too.

    The package registers `oracle` and `harmonic` unexecuted, and only the
    commands that use them compile and run them: ``verify`` the oracle, a
    harmonic ``check`` the closed form.  The probe reads
    ``type(sys.modules[name])``, which is the plain module type only once
    the module has run; any attribute read, ``vars()`` among them, would
    load it.

    Each command runs in a fresh interpreter, because this process has
    already imported numpy and both modules.
    """

    WATCHED = ("numpy", "dataclasses", "inspect", "json")
    LAZY = ("lptseries.oracle", "lptseries.harmonic")
    SCRIPT = (
        "import sys, types\n"
        "from lptseries.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(code, *(name for name in {WATCHED!r} if name in sys.modules))\n"
        f"print(*(name for name in {LAZY!r} if type(sys.modules[name]) is types.ModuleType))\n"
    )

    @staticmethod
    def run_fresh(script: str, *argv) -> list[list[str]]:
        """Each line ``script`` prints, split into words."""
        result = subprocess.run(
            [sys.executable, "-c", script, *map(str, argv)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return [line.split() for line in result.stdout.splitlines()]

    @pytest.mark.parametrize("argv, ini", [
        pytest.param(["expand"], SEXTIC_INI.read_text(), id="expand"),
        pytest.param(["check"], SEXTIC_INI.read_text(), id="check"),
        pytest.param(["verify"], SEXTIC_INI.read_text(), id="verify"),
        pytest.param(["verify", "--format", "csv"], SEXTIC_INI.read_text(), id="verify-csv"),
        pytest.param(["check"], HARMONIC_INI, id="harmonic-check"),
    ])
    def test_no_command_loads_numpy(self, tmp_path, argv, ini):
        config = tmp_path / "problem.ini"
        config.write_text(ini)
        (code, *loaded), _ = self.run_fresh(
            self.SCRIPT, *argv, "--config", config, "--out", tmp_path / "out.txt")
        assert code == str(EXIT_OK)
        renders_json = argv == ["expand"]  # sextic.ini asks for the machine format
        assert loaded == (["json"] if renders_json else []), loaded

    @pytest.mark.parametrize("command, ini, executed", [
        pytest.param("expand", SEXTIC_INI.read_text(), [], id="expand"),
        pytest.param("check", SEXTIC_INI.read_text(), [], id="check"),
        pytest.param("verify", SEXTIC_INI.read_text(), ["lptseries.oracle"], id="verify"),
        pytest.param("check", HARMONIC_INI, ["lptseries.harmonic"], id="harmonic-check"),
    ])
    def test_oracle_and_harmonic_run_only_where_used(self, tmp_path, command, ini, executed):
        config = tmp_path / "problem.ini"
        config.write_text(ini)
        (code, *_), ran = self.run_fresh(
            self.SCRIPT, command, "--config", config, "--out", tmp_path / "out.txt")
        assert code == str(EXIT_OK)
        assert ran == executed

    @pytest.mark.parametrize("command", ["expand", "check"])
    def test_an_error_inside_a_command_leaves_the_oracle_unexecuted(self, command):
        """An exception other than a ``ValueError`` leaves `main` as it was
        raised, and nothing on its way out reads the oracle."""
        script = (
            "import sys, types\n"
            "from lptseries import cli\n"
            "def fail(*_args):\n"
            "    raise RuntimeError('raised inside expand')\n"
            "cli.expand = fail\n"
            "try:\n"
            "    cli.main(sys.argv[1:])\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "print(type(sys.modules['lptseries.oracle']) is types.ModuleType)\n"
        )
        assert self.run_fresh(script, command, "--config", SEXTIC_INI) == [
            ["raised", "inside", "expand"], ["False"],
        ]

    def test_bare_import_compiles_no_submodule(self):
        """``import lptseries`` runs no submodule and re-exports no name; the
        oracle and harmonic are registered unexecuted."""
        script = (
            "import sys, types\n"
            "import lptseries\n"
            "print(*(name in sys.modules for name in "
            "('lptseries.engine', 'lptseries.polys', 'lptseries.cli')))\n"
            f"print(*(type(sys.modules[name]) is types.ModuleType for name in {self.LAZY!r}))\n"
            "try:\n"
            "    from lptseries import d_sequence\n"
            "except ImportError:\n"
            "    print('ImportError')\n"
        )
        assert self.run_fresh(script) == [
            ["False", "False", "False"], ["False", "False"], ["ImportError"],
        ]
