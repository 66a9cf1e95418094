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

A key left out takes the default that `RunConfig` declares for ``[run]``
and `oracle.OracleProblem` for ``[oracle]``.  Every exact quantity
crosses this boundary as an integer or ``p/q`` string, and `parse_rational`
is the one reader of such numbers.  Decimal literals are rejected
everywhere except ``lambda``, which is read exactly (``0.001`` is 1/1000)
and kept exact.  An ``fN`` key gives the coefficient of
``x^(N+2)`` as a sum of monomials in the formal coupling: ``RAT``,
``RAT lam`` or ``RAT lam^E`` joined by `` + ``, where ``RAT`` may carry its
own sign, as in ``1 lam + +1/2 lam^2``.
"""

from __future__ import annotations

import configparser
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

from .engine import PotentialError, PotentialSpec
from .polys import ZERO, BiPoly

FORMATS = ("pretty", "csv", "machine")

# the most digits a number in a config, a golden or ``--order`` may have: the
# interpreter's default int-to-str cap, which `every_digit` lifts
MAX_DIGITS = 4300

# numbers are ASCII digits alone: ``int`` and ``Fraction`` read "1_2" and other scripts' digits
_F_KEY_RE = re.compile(r"^f([0-9]+)$")
_LAM_RE = re.compile(r"^lam(?:\^([0-9]+))?$")
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")
_DECIMAL_RE = re.compile(r"^[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)$")
_INTEGER_RE = re.compile(r"^[+-]?[0-9]+$")


class ConfigError(ValueError):
    """A config file could not be understood; the message names the spot."""


@contextmanager
def every_digit() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit cap and restore the caller's
    after: exact numbers are read and written in full."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


class RunConfig(NamedTuple):
    potential: PotentialSpec
    order: int = 4
    fmt: str = "pretty"
    # [oracle]'s values by `oracle.OracleProblem`'s parameter names, read-only
    oracle: Mapping[str, object] | None = None


def parse_rational(text: str, decimal: bool = False) -> Fraction:
    """A strict ``"p"`` or ``"p/q"`` string, or with ``decimal`` also a
    decimal literal, as a Fraction; anything else (exponents, digits other
    than ASCII 0-9, a zero denominator) raises ``ValueError``."""
    s = text.strip()
    if _RATIONAL_RE.match(s) or decimal and _DECIMAL_RE.match(s):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational: {text!r}") from None
    if decimal:
        raise ValueError(f"not a rational or decimal number: {text!r}")
    raise ValueError(f"not an integer or p/q rational: {text!r} "
                     "(floating-point literals are not accepted)")


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


def integer(text: str) -> int:
    """Strict ASCII-digit integer of at most `MAX_DIGITS` digits, for config
    values and ``--order``."""
    if not _INTEGER_RE.match(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(within_digit_cap(text))


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


# each known key's record field (for [oracle], `OracleProblem`'s parameter)
# and value parser; any ``fN`` key of [potential] keeps its own name and
# takes ``_lam_poly``
_KEYS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "potential": {"m": ("m", parse_rational), "omega": ("omega", parse_rational)},
    "run": {"order": ("order", integer), "format": ("fmt", _format)},
    "oracle": {
        "lambda": ("lam_value", partial(parse_rational, decimal=True)),
        "basis": ("basis_size", integer),
        "check_basis": ("check_size", integer),
        "levels": ("levels", _levels),
    },
}


def within_digit_cap(text: str) -> str:
    """``text``, unless a run of ASCII digits in it is longer than
    `MAX_DIGITS`: then ``ValueError`` names the limit."""
    if any(len(run) > MAX_DIGITS for run in re.findall("[0-9]+", text)):
        raise ValueError(f"a number past the limit of {MAX_DIGITS} digits")
    return text


def _section(parser: configparser.ConfigParser, name: str) -> dict[str, object]:
    """Every value of one section by its key's record field, parsed by the
    parser the key names; a missing section gives no values.

    The one place a value's diagnostic is built: an unknown key, a key or
    value with a number of more than `MAX_DIGITS` digits, or a value its
    parser refuses, raises `ConfigError` naming ``section.key``.
    """
    values: dict[str, object] = {}
    for key, raw in parser[name].items() if parser.has_section(name) else ():
        field, parse = _KEYS[name].get(key, (key, None))
        if parse is None and name == "potential" and _F_KEY_RE.match(key):
            parse = _lam_poly
        if parse is None:
            raise ConfigError(f"unknown key {name}.{key}")
        try:
            within_digit_cap(f"{key} {raw}")
            values[field] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from None
    return values


@every_digit()
def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse and validate a config file; diagnostics name section and key,
    and a malformed file by ``source``, its path."""
    # no header spells "\n", so a [DEFAULT] section is an ordinary, unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str  # keys are case-sensitive, as sections are
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
            raise ConfigError(f"potential.{first} and potential.{key} both give "
                              f"the coefficient of x^{int(key[1:]) + 2}")
    try:
        potential = PotentialSpec(
            pot["m"], pot["omega"], {i: pot[key] for i, key in f_keys.items()}
        )
    except PotentialError as exc:
        raise ConfigError(f"potential: {exc}") from None

    run = _section(parser, "run")
    oracle = MappingProxyType(_section(parser, "oracle")) if parser.has_section("oracle") else None
    if oracle is not None and "lam_value" not in oracle:
        raise ConfigError("oracle.lambda is required when [oracle] is present")
    return RunConfig(potential, **run, oracle=oracle)
