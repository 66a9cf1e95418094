"""Tests for the benchmark itself: output checks, tracer and seeded inputs.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

import contextlib
import dataclasses
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from checks import check_check, check_expand, check_verify, digest  # noqa: E402
from tracer import LAYER_UNITS, SPANS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Coefficients, draw_coefficients  # noqa: E402

from lptseries import cli, engine  # noqa: E402


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _small(name, order, tmp_path, coeffs=None):
    """A workload at a low order, its coefficients and its INI path."""
    workload = dataclasses.replace(WORKLOADS[name], order=order)
    coeffs = coeffs or workload.coefficients(DEFAULT_SEED)
    ini = tmp_path / "problem.ini"
    ini.write_text(workload.ini(coeffs))
    return workload, coeffs, str(ini)


def _doctor_first_coefficient(text, k):
    doc = json.loads(text)
    entry = doc["energies"][k - 1]
    entry["terms"][0]["coeff"] = str(Fraction(entry["terms"][0]["coeff"]) + 1)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestOutputChecks:
    @pytest.mark.parametrize("coeffs", [None, Coefficients(Fraction(3, 5), Fraction(1), Fraction(1))])
    def test_quartic_expand_matches_bender_wu_and_doctored_fails(self, tmp_path, coeffs):
        workload, coeffs, ini = _small("quartic-k12", 5, tmp_path, coeffs)
        code, text = _main(workload.commands(ini)["expand"])
        assert code == 0
        assert check_expand(workload, coeffs, text, None) == []
        assert check_expand(workload, coeffs, _doctor_first_coefficient(text, 4), None)

    def test_cubic_quartic_second_order_closed_form(self, tmp_path):
        coeffs = Coefficients(Fraction(1), Fraction(-2, 7), Fraction(4, 3))
        workload, coeffs, ini = _small("cubquart-k9", 3, tmp_path, coeffs)
        code, text = _main(workload.commands(ini)["expand"])
        assert code == 0
        assert check_expand(workload, coeffs, text, None) == []
        assert check_expand(workload, coeffs, _doctor_first_coefficient(text, 2), None)

    def test_recorded_digest_is_enforced(self, tmp_path):
        workload, coeffs, ini = _small("harmonic-k21", 4, tmp_path)
        _, text = _main(workload.commands(ini)["expand"])
        assert check_expand(workload, coeffs, text, {"expand_sha256": digest(text)}) == []
        assert check_expand(workload, coeffs, text + " ", {"expand_sha256": digest(text)})

    def test_check_lines_must_all_pass(self):
        assert check_check("power-identity: PASS\nresidue-slots: PASS\n") == []
        assert check_check("power-identity: PASS\nresidue-slots: FAIL at k=2\n")
        assert check_check("")

    def test_verify_eigenvalue_and_ok_column(self):
        header = ("level,eigenvalue,partial_sum,truncation_order,"
                  "first_omitted_term,discrepancy,bound,ok\n")
        good = header + "0,0.5,0.5,2,0.0,0.0,1e-10,True\n"
        assert check_verify(good, [0], [0.5], None) == []
        assert check_verify(good, [0], [0.5 + 1e-6], None)
        assert check_verify(good.replace("True", "False"), [0], [0.5], None)
        assert check_verify(good, [0], [0.5], {"k_star": [3], "eigenvalues": [0.5]})

    def test_doctored_output_counts_as_failed_operation(self, tmp_path):
        bench_run = run.Run("harmonic-k21", DEFAULT_SEED, tmp_path)
        code, text = _main(bench_run.argv["expand"])
        assert bench_run.problems("expand", code, text) == []
        assert bench_run.problems("expand", code, _doctor_first_coefficient(text, 1))
        assert bench_run.problems("expand", 1, text)


class TestTracer:
    def test_alias_bindings_are_traced_and_restored(self, tmp_path):
        workload, _, ini = _small("quartic-k12", 3, tmp_path)
        original = engine.expand
        with Tracer() as tracer:
            assert cli.expand is not original  # cli's own binding is wrapped
            code, _ = _main(workload.commands(ini)["check"])
        assert code == 0
        assert cli.expand is original and engine.expand is original
        summary = tracer.summary()
        assert summary["spans"]["engine.expand"]["calls"] == 1
        assert summary["spans"]["engine.laurent_row"]["calls"] == 3
        assert summary["spans"]["engine.identity_sweep"]["calls"] == 1
        assert summary["spans"]["cli.main"]["calls"] == 1
        assert summary["ops"]["mul"]["calls"] > 0
        assert summary["absent"] == []

    def test_missing_name_is_absent_not_an_error(self, tmp_path):
        workload, _, ini = _small("quartic-k12", 2, tmp_path)
        spans = {**SPANS, "engine.gone": (("engine", "no_such_function"),)}
        with Tracer(spans) as tracer:
            code, _ = _main(workload.commands(ini)["expand"])
        assert code == 0
        summary = tracer.summary()
        assert summary["absent"] == ["engine.no_such_function"]
        assert summary["spans"]["engine.gone"]["calls"] == 0


class TestSeeds:
    def test_default_seed_is_canonical(self):
        assert draw_coefficients(DEFAULT_SEED) == Coefficients(Fraction(1), Fraction(1), Fraction(1))
        workload = WORKLOADS["cubquart-k9"]
        assert workload.ini(workload.coefficients(DEFAULT_SEED)) == (
            "[potential]\nm = 1\nomega = 1\nf1 = 1 lam\nf2 = 1 lam^2\n\n"
            "[run]\norder = 9\nformat = machine\n\n"
            "[oracle]\nlambda = 1/100\nbasis = 60\ncheck_basis = 80\nlevels = 0, 1, 2, 3\n"
        )
        assert "f2 = 1 lam\n" in WORKLOADS["quartic-k12"].ini(draw_coefficients(DEFAULT_SEED))

    def test_seeds_are_deterministic_and_reach_odd_denominators(self):
        draws = [draw_coefficients(seed) for seed in range(1, 20)]
        assert draws == [draw_coefficients(seed) for seed in range(1, 20)]
        assert any(c.a.denominator in (3, 5, 7) for c in draws)
        assert all(c.a > 0 and c.c > 0 for c in draws)
        assert all(c.c.denominator == c.b.denominator and abs(c.b) < 1 for c in draws)
        assert any(c.b < 0 for c in draws)

    def test_unseeded_workloads_ignore_the_seed(self):
        for name in ("quartic-verify", "harmonic-k21"):
            workload = WORKLOADS[name]
            assert workload.ini(workload.coefficients(7)) == workload.ini(
                workload.coefficients(DEFAULT_SEED))


def test_benchmark_file_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS
