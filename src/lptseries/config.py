"""Problem configuration: strict INI-style text, exact values as strings.

A run is described by one file with up to three sections::

    [potential]
    m = 1
    omega = 1
    ; coefficient of x^6: (1/2)*lam
    f4 = 1/2 lam

    [run]
    order = 11
    format = pretty

    [oracle]
    lambda = 1/1000
    basis = 60
    check_basis = 80
    levels = 0, 1, 2, 3

Every exact quantity crosses this boundary as an integer or ``p/q`` string;
decimal literals are rejected everywhere except ``lambda``, which is read
exactly (``0.001`` is 1/1000) and kept exact.  An ``fN`` key gives the
coefficient of ``x^(N+2)`` as a sum of monomials in the formal coupling:
``RAT``, ``RAT lam`` or ``RAT lam^E`` joined by `` + ``, where ``RAT`` may
carry its own sign, as in ``1 lam + +1/2 lam^2``.
"""

from __future__ import annotations

import configparser
import re
from fractions import Fraction
from typing import Callable, NamedTuple

from .engine import PotentialError, PotentialSpec
from .polys import ZERO, BiPoly, parse_rational

FORMATS = ("pretty", "csv", "machine")

# numbers are ASCII digits alone: ``int`` would also read "1_2" and other scripts' digits
_F_KEY_RE = re.compile(r"^f([0-9]+)$")
_LAM_RE = re.compile(r"^lam(?:\^([0-9]+))?$")
_DECIMAL_RE = re.compile(r"^[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)$")
_INTEGER_RE = re.compile(r"^[+-]?[0-9]+$")


class ConfigError(ValueError):
    """A config file could not be understood; the message names the spot."""


class OracleConfig(NamedTuple):
    lam: Fraction
    basis_size: int
    check_size: int | None  # None: the oracle derives it from basis_size
    levels: tuple[int, ...]


class RunConfig(NamedTuple):
    potential: PotentialSpec
    order: int
    fmt: str
    oracle: OracleConfig | None


def _lam_poly(text: str) -> BiPoly:
    """Coupling polynomial: monomials ``RAT [lam[^E]]`` joined by ``+``;
    a joiner follows a term, so a ``+`` at the start or after a joiner is a sign."""
    poly = ZERO
    for chunk in re.split(r"(?<=[^\s+])\s*\+", text):
        parts = chunk.split()
        if not parts:
            raise ValueError(f"empty term in {text!r}")
        coeff = parse_rational(parts[0])
        deg = 0
        if len(parts) == 2:
            match = _LAM_RE.match(parts[1])
            if not match:
                raise ValueError(f"expected 'lam' or 'lam^E', got {parts[1]!r}")
            deg = int(match.group(1) or 1)
        elif len(parts) > 2:
            raise ValueError(f"too many tokens in term {chunk!r}")
        poly = poly + BiPoly({(0, deg): coeff})
    return poly


def _oracle_number(text: str) -> Fraction:
    """``lambda``: strict rational, or a decimal literal read exactly."""
    s = text.strip()
    try:
        return parse_rational(s)
    except ValueError:
        pass
    if _DECIMAL_RE.match(s):
        return Fraction(s)
    raise ValueError(f"not a rational or decimal number: {text!r}")


def integer(text: str) -> int:
    """Strict ASCII-digit integer, for config values and ``--order``."""
    if not _INTEGER_RE.match(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _format(text: str) -> str:
    fmt = text.strip()
    if fmt not in FORMATS:
        raise ValueError(f"{fmt!r} is not one of {'/'.join(FORMATS)}")
    return fmt


def _levels(text: str) -> tuple[int, ...]:
    levels = tuple(integer(part) for part in text.split(","))
    if any(level < 0 for level in levels):
        raise ValueError("levels must be nonnegative")
    repeated = [level for i, level in enumerate(levels) if level in levels[:i]]
    if repeated:
        raise ValueError(f"level {repeated[0]} is given more than once")
    return levels


# the value parser of each known key; any ``fN`` key of [potential] takes
# ``_lam_poly``
_KEYS: dict[str, dict[str, Callable[[str], object]]] = {
    "potential": {"m": parse_rational, "omega": parse_rational},
    "run": {"order": integer, "format": _format},
    "oracle": {
        "lambda": _oracle_number,
        "basis": integer,
        "check_basis": integer,
        "levels": _levels,
    },
}


def _section(parser: configparser.ConfigParser, name: str) -> dict[str, object]:
    """Every value of one section, parsed by the parser its key names.

    The one place a value's diagnostic is built: an unknown key, or a
    value its parser refuses with a ``ValueError``, raises `ConfigError`
    naming ``section.key``.  A missing section gives no values.
    """
    values: dict[str, object] = {}
    for key, raw in parser[name].items() if parser.has_section(name) else ():
        parse = _KEYS[name].get(key)
        if parse is None and name == "potential" and _F_KEY_RE.match(key):
            parse = _lam_poly
        if parse is None:
            raise ConfigError(f"unknown key {name}.{key}")
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from None
    return values


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse and validate a config file; diagnostics name section and key,
    and a malformed file by ``source``, its path."""
    # no header spells "\n", so a [DEFAULT] section is an ordinary, unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("potential"):
        raise ConfigError("missing required section [potential]")

    pot = _section(parser, "potential")
    for key in ("m", "omega"):
        if key not in pot:
            raise ConfigError(f"potential.{key} is required")
    f_keys: dict[int, str] = {}  # index -> the fN key that gave it
    for key in pot:
        if key.startswith("f") and (first := f_keys.setdefault(int(key[1:]), key)) != key:
            raise ConfigError(
                f"potential.{first} and potential.{key} both give "
                f"the coefficient of x^{int(key[1:]) + 2}"
            )
    try:
        potential = PotentialSpec(
            pot["m"], pot["omega"], {i: pot[key] for i, key in f_keys.items()}
        )
    except PotentialError as exc:
        raise ConfigError(f"potential: {exc}") from None

    run = _section(parser, "run")
    oracle = None
    if parser.has_section("oracle"):
        values = _section(parser, "oracle")
        if "lambda" not in values:
            raise ConfigError("oracle.lambda is required when [oracle] is present")
        oracle = OracleConfig(
            lam=values["lambda"],
            basis_size=values.get("basis", 60),
            check_size=values.get("check_basis"),
            levels=values.get("levels", (0, 1, 2, 3)),
        )
    return RunConfig(
        potential=potential,
        order=run.get("order", 4),
        fmt=run.get("format", "pretty"),
        oracle=oracle,
    )
