"""Benchmark workloads: seeded problem configs and the commands run on them.

Every workload is one INI config for ``lptseries`` plus the three
subcommands run on it (``expand``, ``check``, ``verify``), so every
end-to-end metric exists on every workload; the workloads differ in where
the time goes.  The seed draws only the rational coefficients a, b, c of
the potential; K and the potential's shape stay fixed.  The default seed
gives a = b = c = 1, the canonical configs whose outputs are recorded in
``expected.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0

# Every table denominator seen with a = b = c = 1 is a power of two; odd
# denominators test that.  The draws keep the cost about equal from seed to
# seed.  a and |b| stay below 1, because the oracle's Jacobi eigensolver
# rotates more as the anharmonic term grows: verify on the cubic+quartic
# potential takes about 25% longer at |b| = 7/3 than at 3/7.  c shares b's
# denominator: at K = 9, b = 3/7 with c = 7/5 gives an expand output with
# 28% more bits than with c = 5/7.
_QUARTIC = tuple(Fraction(a) for a in ("3/5", "3/7", "5/7"))
_CUBIC_QUARTIC = tuple((Fraction(b), Fraction(c)) for b, c in (
    ("3/5", "3/5"), ("3/5", "7/5"), ("5/7", "3/7"), ("5/7", "5/7")))


@dataclass(frozen=True)
class Coefficients:
    a: Fraction
    b: Fraction
    c: Fraction


def draw_coefficients(seed: int) -> Coefficients:
    """Seeded coefficients; the default seed gives a = b = c = 1.

    a and c multiply the x^4 term, so they stay positive and the well stays
    bounded below; b multiplies the odd x^3 term and takes either sign.
    """
    if seed == DEFAULT_SEED:
        return Coefficients(Fraction(1), Fraction(1), Fraction(1))
    rng = random.Random(seed)
    a = rng.choice(_QUARTIC)
    b, c = rng.choice(_CUBIC_QUARTIC)
    return Coefficients(a, rng.choice((b, -b)), c)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    order: int
    # anharmonic terms (i, coefficient name, lam power): f_i = coeff * lam^power
    potential: tuple[tuple[int, str, int], ...]
    oracle: tuple[tuple[str, str], ...]
    seeded: bool

    def ini(self, coeffs: Coefficients) -> str:
        """The config text handed to the program for these coefficients."""
        lines = ["[potential]", "m = 1", "omega = 1"]
        for i, name, power in self.potential:
            lam = "lam" if power == 1 else f"lam^{power}"
            lines.append(f"f{i} = {getattr(coeffs, name)} {lam}")
        lines += ["", "[run]", f"order = {self.order}", "format = machine", "", "[oracle]"]
        lines += [f"{key} = {value}" for key, value in self.oracle]
        return "\n".join(lines) + "\n"

    def coefficients(self, seed: int) -> Coefficients:
        return draw_coefficients(seed if self.seeded else DEFAULT_SEED)

    def commands(self, ini_path: str) -> dict[str, list[str]]:
        """lptseries argv per operation; ``setup`` does no series work."""
        return {
            "setup": ["expand", "--config", ini_path, "--order", "1"],
            "expand": ["expand", "--config", ini_path],
            "check": ["check", "--config", ini_path],
            "verify": ["verify", "--config", ini_path, "--format", "csv"],
        }

    def x_powers(self, coeffs: Coefficients) -> list[tuple[int, Fraction]]:
        """Anharmonic terms as (power of x, coefficient) at the oracle's lambda."""
        lam = Fraction(dict(self.oracle)["lambda"])
        return [(i + 2, getattr(coeffs, name) * lam**power)
                for i, name, power in self.potential]

    @property
    def levels(self) -> list[int]:
        return [int(level) for level in dict(self.oracle)["levels"].split(",")]


_SMALL_ORACLE = (
    ("lambda", "1/100"),
    ("basis", "60"),
    ("check_basis", "80"),
    ("levels", "0, 1, 2, 3"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quartic-k12",
            why="Bender-Wu quartic at K=12: engine and polys dominate, half the "
            "cells are zero by parity; check adds the identity sweep to expand",
            order=12,
            potential=((2, "a", 1),),
            oracle=_SMALL_ORACLE,
            seeded=True,
        ),
        Workload(
            name="cubquart-k9",
            why="cubic+quartic at K=9: odd potential, no zero slots, wide "
            "numerators, so per-term rational arithmetic dominates",
            order=9,
            potential=((1, "b", 1), (2, "c", 2)),
            oracle=_SMALL_ORACLE,
            seeded=True,
        ),
        Workload(
            name="quartic-verify",
            why="quartic K=11 against a basis-120/160 diagonalization: the "
            "oracle's eigensolve dominates verify, the engine barely shows",
            order=11,
            potential=((2, "a", 1),),
            oracle=(
                ("lambda", "1/100"),
                ("basis", "120"),
                ("check_basis", "160"),
                ("levels", "0, 1, 2, 3, 4, 5"),
            ),
            seeded=False,
        ),
        Workload(
            name="harmonic-k21",
            why="pure oscillator at K=21: the only path into harmonic, and the "
            "sparsest engine case, where every off-diagonal cell is zero",
            order=21,
            potential=(),
            oracle=(
                ("lambda", "1/100"),
                ("basis", "20"),
                ("check_basis", "30"),
                ("levels", "0, 1, 2, 3"),
            ),
            seeded=False,
        ),
    )
}
