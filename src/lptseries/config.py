"""Problem configuration: strict INI-style text, exact values as strings.

A run is described by one file with up to three sections::

    [potential]
    m = 1
    omega = 1
    f4 = 1/2 lam        ; coefficient of x^6: (1/2)*lam

    [run]
    order = 11
    format = pretty

    [oracle]
    lambda = 1/1000
    basis = 60
    check_basis = 80
    levels = 0, 1, 2, 3

Every exact quantity crosses this boundary as an integer or ``p/q``
string; decimal literals are rejected everywhere except the oracle
section, whose numbers feed double-precision work anyway.  An ``fN``
key gives the coefficient of ``x^(N+2)`` as a sum of monomials in the
formal coupling: ``RAT``, ``RAT lam`` or ``RAT lam^E`` joined by `` + ``.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from fractions import Fraction

from .engine import PotentialSpec, validate_potential
from .polys import ZERO, BiPoly, parse_rational

FORMATS = ("pretty", "csv", "machine")

_F_KEY_RE = re.compile(r"^f(\d+)$")
_LAM_RE = re.compile(r"^lam(?:\^(\d+))?$")
_DECIMAL_RE = re.compile(r"^[+-]?(?:\d+\.\d*|\.\d+|\d+)$")


class ConfigError(ValueError):
    """A config file could not be understood; the message names the spot."""


@dataclass(frozen=True)
class OracleConfig:
    lam: Fraction
    basis_size: int
    check_size: int | None  # None: the oracle derives it from basis_size
    levels: tuple[int, ...]


@dataclass(frozen=True)
class RunConfig:
    potential: PotentialSpec
    order: int
    fmt: str
    oracle: OracleConfig | None


def _parse_lam_poly(key: str, text: str) -> BiPoly:
    """Parse a coupling polynomial: monomials ``RAT [lam[^E]]`` joined by +."""
    poly = ZERO
    for chunk in text.split("+"):
        parts = chunk.split()
        if not parts:
            raise ConfigError(f"potential.{key}: empty term in {text!r}")
        try:
            coeff = parse_rational(parts[0])
        except ValueError as exc:
            raise ConfigError(f"potential.{key}: {exc}") from None
        deg = 0
        if len(parts) == 2:
            match = _LAM_RE.match(parts[1])
            if not match:
                raise ConfigError(
                    f"potential.{key}: expected 'lam' or 'lam^E', got {parts[1]!r}"
                )
            deg = int(match.group(1) or 1)
        elif len(parts) > 2:
            raise ConfigError(f"potential.{key}: too many tokens in term {chunk!r}")
        poly = poly + BiPoly.monomial(coeff, deg_lam=deg)
    return poly


def _parse_oracle_number(key: str, text: str) -> Fraction:
    """Oracle-section number: strict rational, or a decimal literal."""
    s = text.strip()
    try:
        return parse_rational(s)
    except ValueError:
        pass
    if _DECIMAL_RE.match(s):
        return Fraction(s)
    raise ConfigError(f"oracle.{key}: not a rational or decimal number: {text!r}")


def _parse_int(section: str, key: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{section}.{key}: not an integer: {text!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config file; diagnostics name section and key."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    known = {"potential", "run", "oracle"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("potential"):
        raise ConfigError("missing required section [potential]")

    pot = parser["potential"]
    m = omega = None
    f: dict[int, BiPoly] = {}
    for key, raw in pot.items():
        if key == "m":
            try:
                m = parse_rational(raw)
            except ValueError as exc:
                raise ConfigError(f"potential.m: {exc}") from None
        elif key == "omega":
            try:
                omega = parse_rational(raw)
            except ValueError as exc:
                raise ConfigError(f"potential.omega: {exc}") from None
        else:
            match = _F_KEY_RE.match(key)
            if not match:
                raise ConfigError(f"unknown key potential.{key}")
            index = int(match.group(1))
            if index < 1:
                raise ConfigError(f"potential.{key}: anharmonic index must be >= 1")
            f[index] = _parse_lam_poly(key, raw)
    if m is None:
        raise ConfigError("potential.m is required")
    if omega is None:
        raise ConfigError("potential.omega is required")
    try:
        potential = validate_potential(PotentialSpec.make(m, omega, f))
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from None

    order, fmt = 4, "pretty"
    if parser.has_section("run"):
        for key, raw in parser["run"].items():
            if key == "order":
                order = _parse_int("run", key, raw)
                if order < 1:
                    raise ConfigError(f"run.order: must be >= 1, got {order}")
            elif key == "format":
                fmt = raw.strip()
                if fmt not in FORMATS:
                    raise ConfigError(
                        f"run.format: {fmt!r} is not one of {'/'.join(FORMATS)}"
                    )
            else:
                raise ConfigError(f"unknown key run.{key}")

    oracle = None
    if parser.has_section("oracle"):
        lam = None
        basis, check, levels = 60, None, (0, 1, 2, 3)
        for key, raw in parser["oracle"].items():
            if key == "lambda":
                lam = _parse_oracle_number(key, raw)
            elif key == "basis":
                basis = _parse_int("oracle", key, raw)
            elif key == "check_basis":
                check = _parse_int("oracle", key, raw)
            elif key == "levels":
                try:
                    levels = tuple(int(part) for part in raw.split(","))
                except ValueError:
                    raise ConfigError(
                        f"oracle.levels: not a comma-separated integer list: {raw!r}"
                    ) from None
                if any(level < 0 for level in levels) or not levels:
                    raise ConfigError("oracle.levels: levels must be nonnegative")
            else:
                raise ConfigError(f"unknown key oracle.{key}")
        if lam is None:
            raise ConfigError("oracle.lambda is required when [oracle] is present")
        oracle = OracleConfig(lam=lam, basis_size=basis, check_size=check, levels=levels)

    return RunConfig(potential=potential, order=order, fmt=fmt, oracle=oracle)

