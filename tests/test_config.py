from fractions import Fraction

import pytest

from lptseries.config import (
    ConfigError,
    OracleConfig,
    parse_config,
)
from lptseries.polys import LAM, BiPoly

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


class TestParse:
    def test_sextic_config(self):
        cfg = parse_config(SEXTIC_TEXT)
        assert cfg.potential.m == 1 and cfg.potential.omega == 1
        assert cfg.potential.f(4) == LAM.scale_div(2)
        assert cfg.order == 11 and cfg.fmt == "pretty"
        assert cfg.oracle == OracleConfig(
            lam=Fraction(1, 1000), basis_size=60, check_size=80, levels=(0, 1, 2, 3)
        )

    def test_records_are_immutable(self):
        cfg = parse_config(SEXTIC_TEXT)
        for record, field in ((cfg, "order"), (cfg, "fmt"), (cfg.oracle, "levels")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

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
            (UNIT + "f\u0663 = 1 lam", "unknown key potential\\.f\u0663"),
            (UNIT + "f2 = 1 lam^\u0663", r"potential\.f2: expected 'lam' or 'lam\^E'"),
            ("m = \u0663\nomega = 1", r"potential\.m: not an integer or p/q rational"),
        ]:
            with pytest.raises(ConfigError, match=why):
                parse_config(f"[potential]\n{text}\n")

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
        assert cfg.oracle.lam == Fraction(1, 1000)

    def test_oracle_rejects_word_lambda(self):
        with pytest.raises(ConfigError, match="oracle.lambda"):
            parse_config("[potential]\nm = 1\nomega = 1\n[oracle]\nlambda = tiny\n")

    def test_bad_term_syntax(self):
        with pytest.raises(ConfigError, match="lam"):
            parse_config("[potential]\nm = 1\nomega = 1\nf2 = 1/2 mu\n")
        with pytest.raises(ConfigError, match="too many"):
            parse_config("[potential]\nm = 1\nomega = 1\nf2 = 1/2 lam lam\n")

