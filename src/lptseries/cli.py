"""Command-line front end.

Three subcommands, all driven by a config file:

* ``expand``  -- build the energy series and print it (pretty/csv/machine);
* ``check``   -- re-derive self-consistency identities on the built table
                 and compare against a golden machine-format file if given;
* ``verify``  -- compare optimally truncated partial sums against the
                 basis-diagonalization oracle and print the report as CSV
                 for ``csv`` and as text for any other format.

Exit codes: 0 success, 1 failed check/verification or internal error,
2 invalid input, output that cannot be written or an unconverged oracle basis.

`run` is the process entry (``python -m lptseries`` and the console
script); `main` is for callers whose process goes on, such as the tests
and the benchmark's tracer.  `run` freezes the heap once `main` is done.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from fractions import Fraction
from pathlib import Path

# `oracle` and `harmonic` are read as ``oracle.X`` and ``harmonic.X``: the
# package registers both unexecuted, and a ``from`` import would load them
# here, for every command.  Each loads on its first attribute read: `oracle`
# in ``verify``, `harmonic` in a harmonic ``check``.
from . import __version__, harmonic, oracle
from .config import FORMATS, ConfigError, RunConfig, parse_config
from .engine import EnergySeries, expand, first_power_identity_failure, residue
from .polys import N, ZERO

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lptseries",
        description=(
            "Exact semiclassical perturbation series for one-dimensional "
            "anharmonic oscillators."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formatted: bool = True) -> None:
        p.add_argument("--config", required=True, metavar="PATH",
                       help="problem configuration file")
        p.add_argument("--order", type=int, metavar="K",
                       help="override the expansion order from the config")
        if formatted:  # check prints its PASS/FAIL lines alike in every format
            p.add_argument("--format", dest="fmt", choices=FORMATS,
                           help="override the output format from the config; verify "
                                "prints CSV for csv and its text report otherwise")
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")

    p_expand = sub.add_parser("expand", help="compute energy series coefficients")
    add_common(p_expand)

    p_check = sub.add_parser("check", help="run self-consistency checks")
    add_common(p_check, formatted=False)
    p_check.add_argument("--golden", metavar="PATH",
                         help="machine-format file the expansion must reproduce")

    p_verify = sub.add_parser("verify", help="compare series against diagonalization")
    add_common(p_verify)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    overrides = {"order": args.order, "fmt": getattr(args, "fmt", None)}
    return parse_config(text)._replace(**{k: v for k, v in overrides.items() if v is not None})


def _emit(text: str, args: argparse.Namespace) -> None:
    try:
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # closing drops what stdout still holds, which the exit's flush would retry
            with contextlib.suppress(OSError):
                sys.stdout.close()
        raise ConfigError(f"cannot write output {args.out or '<stdout>'}: {exc}") from None


def machine_document(cfg: RunConfig, series: EnergySeries) -> dict:
    """Machine format: every polynomial as exponent-sorted term records."""
    return {
        "order": series.order,
        "potential": {
            "m": str(cfg.potential.m),
            "omega": str(cfg.potential.omega),
            "f": {str(i): poly.to_records() for i, poly in cfg.potential.terms},
        },
        "energies": [
            {"k": k, "terms": series.e[k].to_records()}
            for k in range(1, series.order + 1)
        ],
    }


def render_machine(cfg: RunConfig, series: EnergySeries) -> str:
    import json

    return json.dumps(machine_document(cfg, series), indent=2, sort_keys=True) + "\n"


def render_csv(series: EnergySeries) -> str:
    lines = ["k,deg_n,deg_lam,coeff"]
    for k in range(1, series.order + 1):
        records = series.e[k].to_records()
        if not records:
            lines.append(f"{k},0,0,0")
            continue
        for r in records:
            lines.append(f"{k},{r['deg_n']},{r['deg_lam']},{r['coeff']}")
    return "\n".join(lines) + "\n"


def render_pretty(cfg: RunConfig, series: EnergySeries) -> str:
    lines = [
        f"potential: m = {cfg.potential.m}, omega = {cfg.potential.omega}"
        + "".join(
            f", f{i} = {poly}" for i, poly in cfg.potential.terms
        ),
        f"energy coefficients up to order {series.order} "
        "(E_k multiplies hbar^k):",
    ]
    width = len(f"E{series.order}")
    for k in range(1, series.order + 1):
        lines.append(f"  {f'E{k}':<{width}} = {series.e[k]}")
    return "\n".join(lines) + "\n"


def cmd_expand(cfg: RunConfig, args: argparse.Namespace) -> int:
    _, series = expand(cfg.potential, cfg.order)
    if cfg.fmt == "machine":
        _emit(render_machine(cfg, series), args)
    elif cfg.fmt == "csv":
        _emit(render_csv(series), args)
    else:
        _emit(render_pretty(cfg, series), args)
    return EXIT_OK


# JSON's name for each type that ``json.loads`` returns
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


def _not_machine_document(golden) -> str | None:
    """Why a parsed golden file cannot be a machine document, or None.

    Checks only the structure `_golden_mismatch` reads: a top-level object
    whose ``energies`` is an array of objects, each with an array of term
    records keyed by integer ``deg_n`` and ``deg_lam`` and a string
    ``coeff``.  The degrees, and ``order`` and each ``k`` where given, must
    be JSON integers: true, false and 11.0 compare equal to the ints 1, 0
    and 11.
    """
    if not isinstance(golden, dict):
        return f"top level is a JSON {_JSON_TYPES[type(golden)]}, not an object"
    energies = golden.get("energies", [])
    if not isinstance(energies, list):
        return f"energies is a JSON {_JSON_TYPES[type(energies)]}, not an array"
    if type(golden.get("order", 0)) is not int:
        return f"order is a JSON {_JSON_TYPES[type(golden['order'])]}, not an integer"
    for index, entry in enumerate(energies):
        if not isinstance(entry, dict) or not isinstance(entry.get("terms"), list):
            return f"energies[{index}] has no array of terms"
        if type(entry.get("k", 0)) is not int:
            return f"energies[{index}].k is a JSON {_JSON_TYPES[type(entry['k'])]}, not an integer"
        for record in entry["terms"]:
            if not (
                isinstance(record, dict)
                and type(record.get("deg_n")) is int
                and type(record.get("deg_lam")) is int
                and "coeff" in record
            ):
                return f"energies[{index}] has a term that is not a deg_n/deg_lam/coeff record"
            if type(record["coeff"]) is not str:
                coeff = _JSON_TYPES[type(record["coeff"])]
                return f"energies[{index}] has a coeff that is a JSON {coeff}, not a string"
    return None


def _golden_mismatch(golden: dict, produced: dict) -> str | None:
    """Locate the first difference between two machine documents.

    The potential is compared first, so a golden made for another problem
    is named as such, and then the number of energy orders, so a truncated
    golden cannot pass on the orders it still has.
    """
    g_potential = golden.get("potential")
    if not isinstance(g_potential, dict):
        g_potential = {}
    p_potential = produced["potential"]
    if g_potential != p_potential:
        keys = sorted(key for key in set(g_potential) | set(p_potential)
                      if g_potential.get(key) != p_potential.get(key))
        return f"potential differs from the golden's in {', '.join(keys)}"
    if "order" not in golden:
        return f"order: missing from the golden, computed {produced['order']}"
    if golden["order"] != produced["order"]:
        return f"order: golden {golden['order']} vs computed {produced['order']}"
    g_energies, p_energies = golden.get("energies", []), produced["energies"]
    if len(g_energies) != len(p_energies):
        return (
            f"energies: golden has {len(g_energies)} orders "
            f"vs computed {len(p_energies)}"
        )
    for g_entry, p_entry in zip(g_energies, p_energies):
        k = p_entry["k"]
        if g_entry != p_entry:
            g_terms = {(r["deg_n"], r["deg_lam"]): r["coeff"] for r in g_entry["terms"]}
            p_terms = {(r["deg_n"], r["deg_lam"]): r["coeff"] for r in p_entry["terms"]}
            for key in sorted(set(g_terms) | set(p_terms)):
                if g_terms.get(key) != p_terms.get(key):
                    return (
                        f"E{k} term n^{key[0]} lam^{key[1]}: golden "
                        f"{g_terms.get(key, '0')} vs computed {p_terms.get(key, '0')}"
                    )
            return f"E{k}: structural mismatch"
    return None


def cmd_check(cfg: RunConfig, args: argparse.Namespace) -> int:
    table, series = expand(cfg.potential, cfg.order)
    lines: list[str] = []
    failed = False

    def record(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failed
        verdict = "PASS" if ok else ("FAIL " + detail).rstrip()
        lines.append(f"{name}: {verdict}")
        failed = failed or not ok

    where = first_power_identity_failure(table, series, cfg.potential)
    record("power-identity", where is None,
           f"at (k={where[0]}, i={where[1]})" if where else "")

    record(
        "residue-slots",
        all(
            table.cells[k].get(2 * k - 2, ZERO) == residue(k)
            for k in range(1, cfg.order + 1)
        ),
    )

    if cfg.potential.is_even:
        # the cells hold only nonzero slots, so any odd index is a failure
        bad = min(
            ((k, i) for k, row in enumerate(table.cells) for i in row if i % 2),
            default=None,
        )
        record("parity-odd-slots", bad is None,
               f"at (k={bad[0]}, i={bad[1]})" if bad else "")

    if cfg.potential.is_harmonic:
        oscillator_e1 = (N + Fraction(1, 2)) * cfg.potential.omega
        record(
            "harmonic-reduction",
            series.e[1] == oscillator_e1
            and all(not series.e[k] for k in range(2, cfg.order + 1)),
        )
        residues = harmonic.table_residues(table, cfg.potential)
        record("harmonic-crosscheck",
               harmonic.crosscheck_with_engine(table, residues))
        # level n needs the table's residues up to d_(n//2 + 1)
        bad = [n for n in range(min(9, 2 * cfg.order))
               if not harmonic.hermite_ratio_check(
                   n, harmonic.reconstruct_polynomial(n, residues))]
        record("hermite-recurrence", not bad, f"at level n={bad[0]}" if bad else "")

    if args.golden:
        import json

        try:
            golden = json.loads(Path(args.golden).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read golden file {args.golden}: {exc}") from None
        malformed = _not_machine_document(golden)
        if malformed:
            raise ConfigError(
                f"golden file {args.golden} is not a machine document: {malformed}"
            )
        produced = machine_document(cfg, series)
        mismatch = _golden_mismatch(golden, produced)
        record("golden-comparison", mismatch is None, mismatch or "")

    _emit("\n".join(lines) + "\n", args)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.oracle is None:
        raise ConfigError("verify requires an [oracle] section in the config")
    # built first, so a problem it cannot diagonalize (a potential unbounded
    # below, a quantity no double holds, a bad [oracle] section) is refused
    # before the expansion
    problem = oracle.OracleProblem(cfg.potential, *cfg.oracle)
    _, series = expand(cfg.potential, cfg.order)
    try:
        report = oracle.compare_series(series, problem)
    except oracle.AsymptoticBreakdown as exc:
        _emit(f"verification rejected: {exc}\n", args)
        return EXIT_FAIL
    except (oracle.BasisNotConverged, oracle.EigensolverError) as exc:
        _emit(f"oracle not converged: {exc}\n", args)
        return EXIT_INVALID
    except oracle.OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    render = oracle.report_csv if cfg.fmt == "csv" else oracle.report_text
    _emit(render(report), args)
    return EXIT_OK if report.passed else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"expand": cmd_expand, "check": cmd_check, "verify": cmd_verify}
    try:
        cfg = _load_config(args)
        return handlers[args.command](cfg, args)
    except ValueError as exc:  # ConfigError and PotentialError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run() -> None:
    """Run `main` on the command line and exit with its status.

    The heap is frozen on the way out, after `main` has returned or raised:
    the interpreter's exit collections, full passes over every tracked
    object that were about a tenth of a short command's time, skip it.  The
    atexit handlers and module teardown still run, and `main` has flushed
    its output, so the exit status is `main`'s.  Not ``gc.disable``, which
    those collections ignore, nor ``os._exit``, which skips the handlers.
    Only for a process that ends here: a frozen object is never collected.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
