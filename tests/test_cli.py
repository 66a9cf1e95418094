import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lptseries import cli, engine, harmonic
from lptseries.cli import EXIT_FAIL, EXIT_INVALID, EXIT_OK, main, render_machine
from lptseries.config import parse_config
from lptseries.engine import expand

from conftest import GOLDEN_DIR

SEXTIC_INI = GOLDEN_DIR / "sextic.ini"
SEXTIC_GOLDEN = GOLDEN_DIR / "sextic_k11_machine.json"
ODDDEN_INI = GOLDEN_DIR / "oddden.ini"
ODDDEN_GOLDEN = GOLDEN_DIR / "oddden_k8_machine.json"

QUARTIC_INI = "[potential]\nm = 1\nomega = 1\nf2 = 1 lam\n\n[run]\norder = 11\n"


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

    def test_machine_matches_the_golden_file(self, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        code, out, _ = run(capsys, "expand", "--config", SEXTIC_INI, "--out", out_path)
        assert code == EXIT_OK and out == ""
        assert out_path.read_text() == SEXTIC_GOLDEN.read_text()


class TestOddDenominatorGolden:
    """Golden with factors of 3 and 5 in m, omega and the couplings."""

    def test_render_machine_reproduces_the_file(self):
        cfg = parse_config(ODDDEN_INI.read_text())
        _, series = expand(cfg.potential, cfg.order)
        text = render_machine(cfg, series)
        assert text == ODDDEN_GOLDEN.read_text()
        assert "/13107200000000000000" in text

    def test_check_against_it_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--config", ODDDEN_INI, "--golden", ODDDEN_GOLDEN)
        assert code == EXIT_OK
        assert "golden-comparison: PASS" in out.splitlines()


class TestCheck:
    def test_without_golden(self, capsys):
        code, out, _ = run(capsys, "check", "--config", SEXTIC_INI)
        assert code == EXIT_OK
        assert out.splitlines() == [
            "power-identity: PASS", "residue-slots: PASS", "parity-odd-slots: PASS",
        ]

    def test_matching_golden(self, capsys):
        code, out, _ = run(capsys, "check", "--config", SEXTIC_INI, "--golden", SEXTIC_GOLDEN)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "golden-comparison: PASS"

    def test_mismatched_term(self, capsys, tmp_path):
        golden = json.loads(SEXTIC_GOLDEN.read_text())
        entry = golden["energies"][2]
        assert entry["k"] == 3 and entry["terms"][0]["coeff"] == "15/16"
        entry["terms"][0]["coeff"] = "15/17"
        code, out, _ = run(capsys, "check", "--config", SEXTIC_INI,
                           "--golden", write_golden(tmp_path, golden))
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == (
            "golden-comparison: FAIL E3 term n^0 lam^1: golden 15/17 vs computed 15/16"
        )

    def test_truncated_golden(self, capsys, tmp_path):
        golden = json.loads(SEXTIC_GOLDEN.read_text())
        golden["energies"] = golden["energies"][:3]
        code, out, _ = run(capsys, "check", "--config", SEXTIC_INI,
                           "--golden", write_golden(tmp_path, golden))
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == (
            "golden-comparison: FAIL energies: golden has 3 orders vs computed 11"
        )

    def test_golden_of_another_potential(self, capsys, tmp_path):
        config = tmp_path / "quartic.ini"
        config.write_text(QUARTIC_INI)
        code, out, _ = run(capsys, "check", "--config", config, "--golden", SEXTIC_GOLDEN)
        assert code == EXIT_FAIL
        assert out.splitlines()[-1] == (
            "golden-comparison: FAIL potential differs from the golden's in f"
        )

    @pytest.mark.parametrize("document, why", [
        ([1, 2], "top level is a JSON list, not an object"),
        ({"order": 11, "energies": [{"k": 1}]}, "energies[0] has no list of terms"),
        ({"order": 11, "energies": {"1": []}}, "energies is a JSON dict, not a list"),
        ({"energies": [{"k": 1, "terms": [{"deg_n": 0, "deg_lam": 0}]}]},
         "energies[0] has a term that is not a deg_n/deg_lam/coeff record"),
        ({"energies": [{"k": 1, "terms": [{"deg_n": [0], "deg_lam": 0, "coeff": "1"}]}]},
         "energies[0] has a term that is not a deg_n/deg_lam/coeff record"),
    ], ids=["list", "entry-without-terms", "energies-not-a-list", "term-without-coeff",
            "list-as-degree"])
    def test_golden_that_is_not_a_machine_document(self, capsys, tmp_path, document, why):
        path = write_golden(tmp_path, document)
        code, out, err = run(capsys, "check", "--config", SEXTIC_INI, "--golden", path)
        assert code == EXIT_INVALID and out == ""
        assert err == f"error: golden file {path} is not a machine document: {why}\n"

    @pytest.mark.parametrize("m, builds", [(1, 1), (2, 2)])
    def test_harmonic_check_reuses_a_unit_oscillator_table(
        self, capsys, tmp_path, monkeypatch, m, builds
    ):
        calls = []

        def counting_expand(*args, **kwargs):
            calls.append(args)
            return engine.expand(*args, **kwargs)

        monkeypatch.setattr(cli, "expand", counting_expand)
        monkeypatch.setattr(harmonic, "expand", counting_expand)
        config = tmp_path / "harmonic.ini"
        config.write_text(f"[potential]\nm = {m}\nomega = 1\n\n[run]\norder = 6\n")
        code, out, _ = run(capsys, "check", "--config", config)
        assert code == EXIT_OK
        assert "harmonic-crosscheck: PASS" in out.splitlines()
        assert len(calls) == builds

    def test_unreadable_golden(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--config", SEXTIC_INI,
                           "--golden", tmp_path / "missing.json")
        assert code == EXIT_INVALID
        assert "cannot read golden file" in err


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


class TestInvalidInput:
    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "expand", "--config", tmp_path / "missing.ini")
        assert code == EXIT_INVALID
        assert "cannot read config" in err

    @pytest.mark.parametrize("command", ["expand", "check", "verify"])
    def test_order_zero(self, capsys, command):
        code, out, err = run(capsys, command, "--config", SEXTIC_INI, "--order", 0)
        assert code == EXIT_INVALID and out == ""
        assert "--order must be >= 1" in err

    @pytest.mark.parametrize("command", ["expand", "check", "verify"])
    def test_unwritable_output(self, capsys, tmp_path, command):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, command, "--config", SEXTIC_INI, "--out", path)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith(f"error: cannot write output {path}: ")
        assert "No such file or directory" in err


class TestNumpyImport:
    """Only ``verify`` loads numpy; ``expand`` and ``check`` never pay its import.

    Each command runs in a fresh interpreter, because this process has
    already imported numpy.
    """

    SCRIPT = (
        "import sys\n"
        "from lptseries.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )

    @pytest.mark.parametrize("command, loads_numpy",
                             [("expand", False), ("check", False), ("verify", True)])
    def test_numpy_is_loaded_only_by_verify(self, tmp_path, command, loads_numpy):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, command,
             "--config", str(SEXTIC_INI), "--out", str(tmp_path / "out.txt")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{EXIT_OK} {loads_numpy}\n"
