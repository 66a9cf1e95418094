"""Output checks for every benchmarked operation.

Each check returns a list of problems; an empty list means the output is
correct.  The checks parse the program's text output themselves and never
import ``lptseries``, so a defect in the engine cannot excuse itself:

* quartic: E_k(0, lam) = BW_k a^(k-1) lam^(k-1) for k = 1..8, with BW_k the
  Bender-Wu ground-state coefficients (Phys. Rev. 184, 1231, 1969);
* cubic+quartic: the textbook second-order shift
  E_2 = (lam^2/8) [6c(2n^2+2n+1) - b^2(30n^2+30n+11)];
* harmonic: E_1 = n + 1/2 and every later coefficient zero;
* ``check``: every line reads PASS;
* ``verify``: every level ok, eigenvalues within 1e-9 of an independent
  ``numpy.linalg.eigvalsh`` reference (see ``reference.py``);
* at the default seed, the ``expand`` bytes match a recorded digest and the
  ``verify`` truncation orders and eigenvalues match recorded values.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction

BENDER_WU = (
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(-21, 8),
    Fraction(333, 16),
    Fraction(-30885, 128),
    Fraction(916731, 256),
    Fraction(-65518401, 1024),
    Fraction(2723294673, 2048),
)

EIGENVALUE_TOL = 1e-9

Poly = dict[tuple[int, int], Fraction]  # (deg_n, deg_lam) -> coefficient


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _poly(records: list[dict]) -> Poly:
    out: Poly = {}
    for r in records:
        key = (int(r["deg_n"]), int(r["deg_lam"]))
        out[key] = out.get(key, Fraction(0)) + Fraction(str(r["coeff"]))
    return {key: value for key, value in out.items() if value}


def _first_order_problem(energies: dict[int, Poly]) -> list[str]:
    if energies.get(1) != {(0, 0): Fraction(1, 2), (1, 0): Fraction(1)}:
        return [f"E1 is {energies.get(1)}, expected n + 1/2"]
    return []


def _parse_machine(text: str, order: int) -> tuple[dict[int, Poly], list[str]]:
    try:
        doc = json.loads(text)
        energies = {int(e["k"]): _poly(e["terms"]) for e in doc["energies"]}
    except (ValueError, KeyError, TypeError) as exc:
        return {}, [f"unreadable machine output: {exc}"]
    problems = []
    if doc.get("order") != order or sorted(energies) != list(range(1, order + 1)):
        problems.append(f"expected orders 1..{order}, got {sorted(energies)}")
    return energies, problems


def check_setup(text: str) -> list[str]:
    """Order-1 expand: E_1 = n + 1/2 for m = omega = 1, any potential."""
    energies, problems = _parse_machine(text, 1)
    return problems or _first_order_problem(energies)


def check_expand(workload, coeffs, text: str, recorded: dict | None) -> list[str]:
    """Machine-format expand output against closed forms from outside the engine."""
    energies, problems = _parse_machine(text, workload.order)
    if problems:
        return problems
    problems += _first_order_problem(energies)
    shape = {i for i, _, _ in workload.potential}
    if shape == {2}:
        for k, bw in enumerate(BENDER_WU[: workload.order], start=1):
            ground = {key: v for key, v in energies[k].items() if key[0] == 0}
            want = {(0, k - 1): bw * coeffs.a ** (k - 1)}
            if ground != want:
                problems.append(f"E{k}(0): got {ground}, Bender-Wu gives {want}")
    elif shape == {1, 2}:
        b2, c = coeffs.b**2, coeffs.c
        want = {
            (2, 2): (12 * c - 30 * b2) / 8,
            (1, 2): (12 * c - 30 * b2) / 8,
            (0, 2): (6 * c - 11 * b2) / 8,
        }
        got = energies[2]
        if got != {key: v for key, v in want.items() if v}:
            problems.append(f"E2: got {got}, closed form gives {want}")
    elif not shape:
        nonzero = [k for k in range(2, workload.order + 1) if energies[k]]
        if nonzero:
            problems.append(f"harmonic E_k nonzero at k = {nonzero}")
    if recorded is not None and digest(text) != recorded["expand_sha256"]:
        problems.append("expand output differs from the recorded digest")
    return problems


def check_check(text: str) -> list[str]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["check printed nothing"]
    return [f"check line not PASS: {line}" for line in lines if not line.endswith(": PASS")]


def check_verify(text: str, levels: list[int], reference: list[float],
                 recorded: dict | None) -> list[str]:
    """Verify CSV: all levels ok, eigenvalues near the independent reference."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        got_levels = [int(r["level"]) for r in rows]
        eigs = [float(r["eigenvalue"]) for r in rows]
        k_star = [int(r["truncation_order"]) for r in rows]
        oks = [r["ok"] for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify output: {exc}"]
    if got_levels != levels:
        return [f"verify levels {got_levels}, expected {levels}"]
    problems = [f"level {lv} not ok" for lv, ok in zip(levels, oks) if ok != "True"]
    for lv, eig, ref in zip(levels, eigs, reference):
        if abs(eig - ref) > EIGENVALUE_TOL:
            problems.append(f"level {lv} eigenvalue {eig!r} vs reference {ref!r}")
    if recorded is not None:
        if k_star != recorded["k_star"]:
            problems.append(f"truncation orders {k_star}, recorded {recorded['k_star']}")
        for lv, eig, rec in zip(levels, eigs, recorded["eigenvalues"]):
            if abs(eig - rec) > EIGENVALUE_TOL:
                problems.append(f"level {lv} eigenvalue {eig!r} vs recorded {rec!r}")
    return problems
