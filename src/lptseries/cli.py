"""Command-line front end.

Three subcommands, all driven by a config file:

* ``expand``  -- build the energy series and print it (pretty/csv/machine);
* ``check``   -- check the built table, one line each: ``power-identity``
                 (the recursion's identity at every lattice and every stored
                 cell), the oscillator's closed forms, and a golden
                 machine-format file if given, which must equal the machine
                 document ``expand`` prints: its first departure fails the
                 line, or is invalid input where a value has another type;
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
from .config import FORMATS, ConfigError, RunConfig, integer, parse_config
from .engine import EnergySeries, expand, first_power_identity_failure
from .polys import N

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
        p.add_argument("--order", type=integer, metavar="K",
                       help="override the expansion order from the config")
        if formatted:  # check prints its PASS/FAIL lines alike in every format
            p.add_argument("--format", dest="fmt", choices=FORMATS,
                           help="override the output format from the config; verify "
                                "prints CSV for csv and its text report otherwise")
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")

    add_common(sub.add_parser("expand", help="compute energy series coefficients"))

    p_check = sub.add_parser("check", help="run self-consistency checks")
    add_common(p_check, formatted=False)
    p_check.add_argument("--golden", metavar="PATH",
                         help="machine-format file the expansion must reproduce exactly; "
                              "a value of another JSON type is invalid input")

    add_common(sub.add_parser("verify", help="compare series against diagonalization"))
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    overrides = {"order": args.order, "fmt": getattr(args, "fmt", None)}
    cfg = parse_config(text, str(path))
    return cfg._replace(**{k: v for k, v in overrides.items() if v is not None})


def _emit(text: str, args: argparse.Namespace) -> None:
    try:
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # closing drops what stdout still holds, which the exit's flush would retry
            with contextlib.suppress(OSError):
                sys.stdout.close()
        raise ConfigError(f"cannot write output {args.out or '<stdout>'}: {exc}") from None


@contextlib.contextmanager
def _every_digit():
    """Lift the interpreter's cap on int-to-str digits (Python 3.10.7 on)
    while the program's own results render, and restore it after: config
    input keeps the cap."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_cap(0)
    try:
        yield
    finally:
        set_cap(cap)


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
        records = series.e[k].to_records() or [{"deg_n": 0, "deg_lam": 0, "coeff": "0"}]
        lines += (f"{k},{r['deg_n']},{r['deg_lam']},{r['coeff']}" for r in records)
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
    with _every_digit():
        text = (render_machine(cfg, series) if cfg.fmt == "machine"
                else render_csv(series) if cfg.fmt == "csv" else render_pretty(cfg, series))
    _emit(text, args)
    return EXIT_OK


# JSON's names for the types that ``json.loads`` returns and a machine document holds
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}
_MACHINE_TYPES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def _golden_departure(golden, computed, path: str = "") -> str | None:
    """Where a parsed golden first departs from the computed machine
    document, or None where the two are equal: the first departure decides.

    An object is walked in the computed document's key order, then over the
    keys only the golden has; an array by index, then over the indices only
    one side has.  A golden value whose type is not the computed value's
    makes the file no machine document and raises `ConfigError`: the types
    themselves are compared, since JSON true, false and 11.0 compare equal
    to 1, 0 and 11.  A key or index that one side lacks, or a differing
    value, is returned as the comparison's failure.
    """
    where = path or "top level"
    if type(golden) is not type(computed):
        raise ConfigError(f"{where} is a JSON {_JSON_TYPES[type(golden)]}, "
                          f"not {_MACHINE_TYPES[type(computed)]}")
    if not isinstance(computed, (dict, list)):
        return None if golden == computed else f"at {where}: golden {golden} vs computed {computed}"
    keys, golden_keys = ((computed, golden) if isinstance(computed, dict)
                         else (range(len(computed)), range(len(golden))))
    for key in [*keys, *(key for key in golden_keys if key not in keys)]:
        at = f"{path}[{key}]" if type(key) is int else f"{path}.{key}" if path else key
        if key not in golden_keys:
            return f"at {at}: missing from the golden"
        if key not in keys:
            return f"at {at}: not in the computed document"
        if departure := _golden_departure(golden[key], computed[key], at):
            return departure
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
        # level n needs residues up to d_(n//2 + 1), and n < 2K keeps that within d_K
        bad = [n for n in range(min(9, 2 * cfg.order))
               if not harmonic.hermite_ratio_check(
                   n, harmonic.reconstruct_polynomial(n, residues))]
        record("hermite-recurrence", not bad, f"at level n={bad[0]}" if bad else "")

    if args.golden:
        import json

        try:
            golden = json.loads(Path(args.golden).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSON, UTF-8
            raise ConfigError(f"cannot read golden file {args.golden}: {exc}") from None
        try:
            with _every_digit():
                departure = _golden_departure(golden, machine_document(cfg, series))
        except ConfigError as exc:
            raise ConfigError(f"golden file {args.golden} is not a machine document: {exc}") from None
        record("golden-comparison", departure is None, departure or "")

    _emit("\n".join(lines) + "\n", args)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.oracle is None:
        raise ConfigError("verify requires an [oracle] section in the config")
    # built first, so a problem it cannot diagonalize (a potential unbounded
    # below, a quantity no double holds, a bad [oracle] section) is refused
    # before the expansion
    problem = oracle.OracleProblem(cfg.potential, *cfg.oracle)
    try:
        oracle.refuse_from_the_head(problem, cfg.order)
        _, series = expand(cfg.potential, cfg.order)
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
