import itertools
import sys
import textwrap
from fractions import Fraction

import pytest

from lptseries import cli, config, oracle
from lptseries.config import (
    MAX_DIGITS,
    ConfigError,
    parse_config,
    parse_rational,
)
from lptseries.polys import LAM, BiPoly

from conftest import GOLDEN_DIR

SEXTIC_TEXT = """
[potential]
m = 1
omega = 1
f4 = 1/2 lam

[run]
order = 11
format = pretty

[oracle]
lambda = 1/1000
basis = 60
check_basis = 80
levels = 0, 1, 2, 3
"""

# the [potential] lines of the unit oscillator
UNIT = "m = 1\nomega = 1\n"

# a number one digit past the limit
PAST_CAP = "1" + "0" * MAX_DIGITS

# parse_rational's refusals, each formatted with the input's repr
NOT_RATIONAL = "not an integer or p/q rational: {!r} (floating-point literals are not accepted)"
NOT_DECIMAL = "not a rational or decimal number: {!r}"
ZERO_DENOMINATOR = "zero denominator in rational: {!r}"


# each input's reading without and with ``decimal``: a Fraction, or the
# message it is refused with.  Digits are ASCII only: int() and Fraction
# would read "1_2" and the Arabic-Indic digit three (U+0663)
READINGS = [
    ("3/4", Fraction(3, 4), Fraction(3, 4)),
    ("-2", Fraction(-2), Fraction(-2)),
    ("+6/10", Fraction(3, 5), Fraction(3, 5)),
    (" 7 ", Fraction(7), Fraction(7)),
    ("0", Fraction(0), Fraction(0)),
    ("22/7", Fraction(22, 7), Fraction(22, 7)),
    ("0.001", NOT_RATIONAL, Fraction(1, 1000)),
    ("0.5", NOT_RATIONAL, Fraction(1, 2)),
    ("1.0", NOT_RATIONAL, Fraction(1)),
    (".5", NOT_RATIONAL, Fraction(1, 2)),
    ("5.", NOT_RATIONAL, Fraction(5)),
    ("-.25", NOT_RATIONAL, Fraction(-1, 4)),
    ("1/0", ZERO_DENOMINATOR, ZERO_DENOMINATOR),
    ("1e-3", NOT_RATIONAL, NOT_DECIMAL),
    ("a", NOT_RATIONAL, NOT_DECIMAL),
    ("1//2", NOT_RATIONAL, NOT_DECIMAL),
    ("", NOT_RATIONAL, NOT_DECIMAL),
    ("3 / 4", NOT_RATIONAL, NOT_DECIMAL),
    ("1/2.0", NOT_RATIONAL, NOT_DECIMAL),
    (".", NOT_RATIONAL, NOT_DECIMAL),
    ("1_0", NOT_RATIONAL, NOT_DECIMAL),
    ("1_2", NOT_RATIONAL, NOT_DECIMAL),
    ("0x10", NOT_RATIONAL, NOT_DECIMAL),
    ("\u0663", NOT_RATIONAL, NOT_DECIMAL),
    ("1/\u0663", NOT_RATIONAL, NOT_DECIMAL),
    ("\u0661.5", NOT_RATIONAL, NOT_DECIMAL),
    ("\uff11", NOT_RATIONAL, NOT_DECIMAL),
]


class TestParseRational:
    @pytest.mark.parametrize("text, strict, with_decimal", READINGS,
                             ids=[row[0] for row in READINGS])
    @pytest.mark.parametrize("decimal", [False, True], ids=["strict", "decimal"])
    def test_reads_exactly_or_refuses(self, decimal, text, strict, with_decimal):
        expected = with_decimal if decimal else strict
        if isinstance(expected, Fraction):
            assert parse_rational(text, decimal) == expected
        else:
            with pytest.raises(ValueError) as refused:
                parse_rational(text, decimal)
            assert str(refused.value) == expected.format(text)

    def test_rendering_is_the_inverse(self):
        for text in ["3/4", "-2", "0", "22/7"]:
            assert str(parse_rational(text)) == text


class TestParse:
    def test_sextic_config(self):
        cfg = parse_config(SEXTIC_TEXT)
        assert cfg.potential.m == 1 and cfg.potential.omega == 1
        assert cfg.potential.f(4) == LAM * Fraction(1, 2)
        assert cfg.order == 11 and cfg.fmt == "pretty"
        assert dict(cfg.oracle) == dict(
            lam_value=Fraction(1, 1000), basis_size=60, check_size=80, levels=(0, 1, 2, 3)
        )
        assert oracle.OracleProblem(cfg.potential, **cfg.oracle) == (
            cfg.potential, Fraction(1, 1000), 60, 80, (0, 1, 2, 3))

    def test_records_are_immutable(self):
        cfg = parse_config(SEXTIC_TEXT)
        for record, field in ((cfg, "order"), (cfg, "fmt")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(TypeError):
            cfg.oracle["levels"] = cfg.oracle["levels"]

    def test_empty_potential_is_harmonic(self):
        cfg = parse_config("[potential]\nm = 1\nomega = 1\n")
        assert cfg.potential.is_harmonic
        assert cfg.oracle is None
        assert cfg.order == 4  # default

    def test_multi_term_coupling_polynomial(self):
        cfg = parse_config(
            "[potential]\nm = 1\nomega = 2\nf2 = 1/3 + -2 lam^2\n"
        )
        expected = BiPoly({(0, 0): Fraction(1, 3), (0, 2): Fraction(-2)})
        assert cfg.potential.f(2) == expected
        # a term's rational carries its own sign, + as well as -; the joiner
        # is only a + that follows a term
        for signed, plain in [("+1 lam", "1 lam"), ("1/2 lam + +1 lam^2", "1/2 lam + 1 lam^2")]:
            assert parse_config(f"[potential]\n{UNIT}f2 = {signed}\n") == parse_config(
                f"[potential]\n{UNIT}f2 = {plain}\n"
            )

    def test_float_coefficient_rejected(self):
        with pytest.raises(ConfigError, match="potential.f4"):
            parse_config("[potential]\nm = 1\nomega = 1\nf4 = 0.5\n")

    def test_float_mass_rejected(self):
        with pytest.raises(ConfigError, match="potential.m"):
            parse_config("[potential]\nm = 1.0\nomega = 1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="potential.g4"):
            parse_config("[potential]\nm = 1\nomega = 1\ng4 = 1\n")
        with pytest.raises(ConfigError, match="unknown key run.parity_shortcut"):
            parse_config("[potential]\nm = 1\nomega = 1\n[run]\nparity_shortcut = true\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"\[extras\]"):
            parse_config("[potential]\nm = 1\nomega = 1\n[extras]\nx = 1\n")

    # configparser's default section would otherwise lend its keys to every
    # other section, outside the check of section names
    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nomega = 1\n[potential]\nm = 1\n",
        "[DEFAULT]\norder = 3\n[potential]\nm = 1\nomega = 1\n",
    ], ids=["default-omega", "default-order"])
    def test_default_section_is_unknown(self, text):
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            parse_config(text)

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError, match="omega"):
            parse_config("[potential]\nm = 1\n")
        with pytest.raises(ConfigError, match="potential"):
            parse_config("[run]\norder = 3\n")

    def test_colliding_coefficient_keys_named(self):
        # f2 and f02 both give the coefficient of x^4; neither may win silently
        with pytest.raises(ConfigError, match=r"potential\.f2 and potential\.f02 .* x\^4"):
            parse_config("[potential]\nm = 1\nomega = 1\nf2 = 1 lam\nf02 = 5 lam\n")

    def test_zero_index_rejected_by_the_potential(self):
        with pytest.raises(ConfigError, match="potential: anharmonic index must be"):
            parse_config("[potential]\nm = 1\nomega = 1\nf0 = 1\n")

    def test_bad_integer_named(self):
        # numbers are ASCII digits only: int() and a regex \d read 1_2 as 12
        # and the Arabic-Indic digit three (U+0663) as 3
        for text, why in [
            (UNIT + "[run]\norder = 3.5", r"run\.order: not an integer: '3\.5'"),
            (UNIT + "[run]\norder = 1_2", r"run\.order: not an integer: '1_2'"),
            (UNIT + "[oracle]\nlambda = 1\nbasis = 6_0", r"oracle\.basis: not an integer: '6_0'"),
            (UNIT + "[oracle]\nlambda = 1\nlevels = 0, \u0663",
             "oracle\\.levels: not an integer: ' \u0663'"),
            (UNIT + "[oracle]\nlambda = 1\nlevels = 0, -1",
             r"oracle\.levels: levels must be nonnegative"),
            (UNIT + "[oracle]\nlambda = \u0660.5",
             r"oracle\.lambda: not a rational or decimal number"),
            (UNIT + "[oracle]\nlambda = 1/0", r"^oracle\.lambda: zero denominator in rational: '1/0'$"),
            (UNIT + "f\u0663 = 1 lam", "unknown key potential\\.f\u0663"),
            (UNIT + "f2 = 1 lam^\u0663", r"potential\.f2: expected 'lam' or 'lam\^E'"),
            ("m = \u0663\nomega = 1", r"potential\.m: not an integer or p/q rational"),
        ]:
            with pytest.raises(ConfigError, match=why):
                parse_config(f"[potential]\n{text}\n")

    # refused by the config reader, naming the key, before any value parser
    # or the fN index reads the number, whatever the interpreter's digit cap
    @pytest.mark.parametrize("text, where", [
        (f"m = {PAST_CAP}\nomega = 1", "potential.m"),
        (f"m = 1/{PAST_CAP}\nomega = 1", "potential.m"),
        (UNIT + f"[run]\norder = {PAST_CAP}", "run.order"),
        (UNIT + f"[oracle]\nlambda = 1\nlevels = 0, {PAST_CAP}", "oracle.levels"),
        (UNIT + f"[oracle]\nlambda = {PAST_CAP}", "oracle.lambda"),
        (UNIT + f"[oracle]\nlambda = 0.{PAST_CAP}", "oracle.lambda"),
        (UNIT + f"f2 = 1 lam^{PAST_CAP}", "potential.f2"),
        (UNIT + f"f{PAST_CAP} = 1 lam", f"potential.f{PAST_CAP}"),
    ], ids=["m", "m-denominator", "order", "levels", "lambda", "lambda-decimal",
            "lam-power", "f-index"])
    def test_number_past_the_digit_cap_named(self, text, where):
        with pytest.raises(ConfigError) as refused:
            parse_config(f"[potential]\n{text}\n")
        assert str(refused.value) == f"{where}: a number past the limit of {MAX_DIGITS} digits"

    def test_number_at_the_digit_cap_is_read(self):
        cfg = parse_config(f"[potential]\nm = {'9' * MAX_DIGITS}\nomega = 1\n")
        assert cfg.potential.m == 10**MAX_DIGITS - 1

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="an interpreter before 3.10.7 has no digit cap")
    def test_callers_digit_cap_is_lifted_and_restored(self):
        # called in-process, outside `cli.main`, under a cap below the number's digits
        callers = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            cfg = parse_config(f"[potential]\nm = {'7' * 700}\nomega = 1\n")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(callers)
        assert cfg.potential.m == (10**700 - 1) // 9 * 7

    @pytest.mark.parametrize("text, message", [
        ("omega = 1", "potential.m is required"),
        ("m = 1", "potential.omega is required"),
        (UNIT + "[oracle]\nbasis = 40", "oracle.lambda is required when [oracle] is present"),
    ], ids=["m", "omega", "lambda"])
    def test_required_key_named(self, text, message):
        with pytest.raises(ConfigError) as refused:
            parse_config(f"[potential]\n{text}\n")
        assert str(refused.value) == message

    # the keys are the file's words; a record field's name is no key
    @pytest.mark.parametrize("text, key", [
        ("[run]\nfmt = csv", "run.fmt"),
        ("[oracle]\nlam = 1/1000", "oracle.lam"),
        ("[oracle]\nlambda = 1\nbasis_size = 60", "oracle.basis_size"),
        ("[oracle]\nlambda = 1\ncheck_size = 80", "oracle.check_size"),
    ], ids=["fmt", "lam", "basis_size", "check_size"])
    def test_record_field_is_no_key(self, text, key):
        with pytest.raises(ConfigError) as refused:
            parse_config(f"[potential]\n{UNIT}{text}\n")
        assert str(refused.value) == f"unknown key {key}"

    def test_defaults_of_absent_keys(self):
        cfg = parse_config(f"[potential]\n{UNIT}[oracle]\nlambda = 1\n")
        assert (cfg.order, cfg.fmt) == (4, "pretty")
        assert dict(cfg.oracle) == {"lam_value": Fraction(1)}
        # the defaults are OracleProblem's: check_size None becomes 60 + 20
        assert oracle.OracleProblem(cfg.potential, **cfg.oracle) == (
            cfg.potential, Fraction(1), 60, 80, (0, 1, 2, 3))

    def test_zero_denominator_lambda_exits_2(self, capsys, tmp_path):
        path = tmp_path / "problem.ini"
        path.write_text(f"[potential]\n{UNIT}[oracle]\nlambda = 1/0\n")
        assert cli.main(["verify", "--config", str(path)]) == cli.EXIT_INVALID == 2
        assert capsys.readouterr() == ("", "error: oracle.lambda: zero denominator in rational: '1/0'\n")

    def test_invalid_potential_rejected_at_parse_time(self):
        with pytest.raises(ConfigError, match="quadratic minimum"):
            parse_config("[potential]\nm = 1\nomega = 0\nf1 = 1\n")

    def test_bad_format_value(self):
        with pytest.raises(ConfigError, match="run.format"):
            parse_config("[potential]\nm = 1\nomega = 1\n[run]\nformat = yaml\n")

    def test_bad_levels(self):
        with pytest.raises(ConfigError, match="oracle.levels"):
            parse_config(
                "[potential]\nm = 1\nomega = 1\n[oracle]\nlambda = 1\nlevels = a, b\n"
            )

    def test_repeated_level_refused(self):
        with pytest.raises(ConfigError, match="oracle.levels: level 2 is given more than once"):
            parse_config(
                "[potential]\nm = 1\nomega = 1\n[oracle]\nlambda = 1\nlevels = 2, 0, 2\n"
            )

    def test_oracle_lambda_required(self):
        with pytest.raises(ConfigError, match="oracle.lambda"):
            parse_config("[potential]\nm = 1\nomega = 1\n[oracle]\nbasis = 40\n")

    def test_oracle_accepts_decimal_lambda(self):
        cfg = parse_config(
            "[potential]\nm = 1\nomega = 1\n[oracle]\nlambda = 0.001\n"
        )
        assert cfg.oracle["lam_value"] == Fraction(1, 1000)

    def test_oracle_rejects_word_lambda(self):
        with pytest.raises(ConfigError, match="oracle.lambda"):
            parse_config("[potential]\nm = 1\nomega = 1\n[oracle]\nlambda = tiny\n")

    def test_bad_term_syntax(self):
        with pytest.raises(ConfigError, match="lam"):
            parse_config("[potential]\nm = 1\nomega = 1\nf2 = 1/2 mu\n")
        with pytest.raises(ConfigError, match="too many"):
            parse_config("[potential]\nm = 1\nomega = 1\nf2 = 1/2 lam lam\n")
        with pytest.raises(ConfigError, match=r"^potential\.f2: empty term in '1 lam \+'$"):
            parse_config("[potential]\nm = 1\nomega = 1\nf2 = 1 lam +\n")

    def test_docstring_example_is_the_sextic_golden(self):
        # the indented block after the module docstring's "::", dedented
        lines = config.__doc__.split("::\n", 1)[1].splitlines()
        block = itertools.takewhile(lambda line: not line or line.startswith("    "), lines)
        example = parse_config(textwrap.dedent("\n".join(block)))
        golden = parse_config((GOLDEN_DIR / "sextic.ini").read_text(encoding="utf-8"))
        fields = ("potential", "order", "oracle")
        assert [getattr(example, f) for f in fields] == [getattr(golden, f) for f in fields]

