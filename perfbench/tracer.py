"""Outside-in tracer: per-layer spans around ``lptseries``' public functions.

The tracer changes no program file.  It replaces each named public function
with a timing wrapper at every ``lptseries.*`` module binding that holds it,
so a call through an alias such as ``cli``'s ``from .engine import expand``
is caught as well, and wraps ``BiPoly.__mul__``/``__rmul__``/``__add__``/
``__radd__`` for counts.  A span's self time is its duration minus the time
its child spans and polynomial operations took.  A named function that the
program no longer has is reported as absent, not as an error.

Run as a child process by ``run.py --trace 1``::

    python3 perfbench/tracer.py SPEC.json OUT.json

SPEC holds ``{"src": ..., "commands": [[op, argv], ...]}``; the child runs
``lptseries.cli.main(argv)`` for each command in three passes (untraced,
traced, traced) and writes every pass's outputs, spans and counts to OUT.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import sys
import time
from fractions import Fraction

PACKAGE = "lptseries"

# span name -> the (module, function) pairs whose calls it times
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "config.parse": (("config", "parse_config"),),
    "engine.expand": (("engine", "expand"),),
    "engine.c0_row": (("engine", "c0_row"),),
    "engine.laurent_row": (("engine", "laurent_row"),),
    "engine.energy_coefficient": (("engine", "energy_coefficient"),),
    "engine.identity_sweep": (("engine", "first_power_identity_failure"),),
    "engine.evaluate_energy": (("engine", "evaluate_energy"),),
    "harmonic.crosscheck": (("harmonic", "crosscheck_with_engine"),),
    "harmonic.d_sequence": (("harmonic", "d_sequence"),),
    "harmonic.hermite": (("harmonic", "reconstruct_polynomial"),
                         ("harmonic", "hermite_ratio_check")),
    "oracle.compare_series": (("oracle", "compare_series"),),
    "oracle.converged_levels": (("oracle", "converged_levels"),),
    "oracle.eigensolve": (("oracle", "lowest_eigenvalues"),
                          ("oracle", "jacobi_eigenvalues")),
    "cli.render": (("cli", "render_machine"), ("cli", "render_csv"),
                   ("cli", "render_pretty"), ("oracle", "report_csv"),
                   ("oracle", "report_text")),
    "cli.main": (("cli", "main"),),
}

# polynomial operation -> the BiPoly methods counted under it
POLY_OPS = {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__")}


class _Span:
    __slots__ = ("calls", "total", "self", "active")

    def __init__(self) -> None:
        self.calls, self.total, self.self, self.active = 0, 0.0, 0.0, False


class _Ops:
    __slots__ = ("calls", "seconds", "term_products", "useful")

    def __init__(self) -> None:
        self.calls, self.seconds, self.term_products, self.useful = 0, 0.0, 0, 0


def _n_terms(value) -> int:
    terms = getattr(value, "_terms", None)
    return len(terms) if terms is not None else int(bool(value))


class Tracer:
    """Context manager that installs the wrappers and removes them on exit.

    ``spans`` maps span names to ``(module, function)`` pairs of ``lptseries``.
    """

    def __init__(self, spans=SPANS) -> None:
        self.span_targets = spans
        self.spans = {name: _Span() for name in spans}
        self.ops = {kind: _Ops() for kind in POLY_OPS}
        self.absent: list[str] = []
        self.expand_tables: list = []  # tables returned by outermost expands
        self.last_row_s = 0.0
        self._stack = [[0.0]]  # child time of each open span; [0] is the root
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for span, targets in self.span_targets.items():
            for module_name, attr in targets:
                module = sys.modules.get(f"{PACKAGE}.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        bipoly = getattr(sys.modules.get(f"{PACKAGE}.polys"), "BiPoly", None)
        if bipoly is None:
            self.absent.append("polys.BiPoly")
        else:
            for kind, methods in POLY_OPS.items():
                for method in methods:
                    self._patch(bipoly, method, self._wrap_op(kind, getattr(bipoly, method)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        span, stack, clock = self.spans[name], self._stack, time.perf_counter
        on_result = {"engine.expand": self._on_expand,
                     "engine.laurent_row": self._on_laurent_row}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span.active:  # e.g. jacobi_eigenvalues inside lowest_eigenvalues
                return fn(*args, **kwargs)
            span.active = True
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.active = False
                span.calls += 1
                span.total += elapsed
                span.self += elapsed - frame[0]
                stack[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result, elapsed)
            return result

        return wrapper

    def _wrap_op(self, kind: str, fn):
        ops, stack, clock = self.ops[kind], self._stack, time.perf_counter
        count_terms = kind == "mul"

        def op(a, b):
            start = clock()
            result = fn(a, b)
            elapsed = clock() - start
            stack[-1][0] += elapsed
            ops.calls += 1
            ops.seconds += elapsed
            if count_terms:
                terms = _n_terms(a) * _n_terms(b)
                ops.term_products += terms
                ops.useful += terms > 0
            return result

        return op

    def _on_expand(self, args, result, elapsed) -> None:
        self.expand_tables.append(result[0])

    def _on_laurent_row(self, args, result, elapsed) -> None:
        if args[0] == getattr(args[1], "order", None):
            self.last_row_s += elapsed

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "spans": {name: {"calls": s.calls, "total": s.total, "self": s.self}
                      for name, s in self.spans.items()},
            "ops": {kind: {"calls": o.calls, "seconds": o.seconds,
                           "term_products": o.term_products, "useful": o.useful}
                    for kind, o in self.ops.items()},
            "last_row_s": self.last_row_s,
            "absent": self.absent,
        }


def table_stats(table) -> dict:
    """Share of zero cells and the widest numerator or denominator, in bits."""
    cells = [cell for row in table.rows for cell in row]
    bits = [max(Fraction(c).numerator.bit_length(), Fraction(c).denominator.bit_length())
            for cell in cells for _, _, c in cell.terms_sorted()]
    return {"zero_cell_frac": sum(not cell for cell in cells) / len(cells),
            "max_coeff_bits": max(bits, default=0)}


def run_pass(commands: list, traced: bool) -> dict:
    """Run ``cli.main`` once per command, capturing what it prints."""
    from lptseries import cli

    results, tracer = [], Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        for op, argv in commands:
            out, err = io.StringIO(), io.StringIO()
            tables_before = len(tracer.expand_tables) if tracer else 0
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            entry = {"op": op, "code": code, "out": out.getvalue(), "err": err.getvalue(),
                     "main_s": time.perf_counter() - start}
            if tracer and op == "expand" and len(tracer.expand_tables) > tables_before:
                entry["table"] = table_stats(tracer.expand_tables[tables_before])
            results.append(entry)
    summary = tracer.summary() if tracer else {}
    return {"traced": traced, "commands": results, **summary}


# per-layer metric -> unit.  Times and counts are totals over one pass of the
# workload's commands (expand, check, verify); the table statistics come from
# the table the expand command built.  See _pass_metrics for each derivation.
LAYER_UNITS = {
    "config.parse_s": "s",
    "engine.expand_s": "s",
    "engine.c0_row_s": "s",
    "engine.laurent_row_s": "s",
    "engine.laurent_row_calls": "count",
    "engine.laurent_row_last_s": "s",
    "engine.energy_coefficient_s": "s",
    "engine.identity_sweep_s": "s",
    "engine.evaluate_energy_s": "s",
    "engine.zero_cell_frac": "ratio",
    "engine.max_coeff_bits": "bits",
    "polys.mul_calls": "count",
    "polys.mul_s": "s",
    "polys.term_products": "count",
    "polys.add_calls": "count",
    "polys.add_s": "s",
    "polys.mul_useful_frac": "ratio",
    "harmonic.crosscheck_s": "s",
    "harmonic.d_sequence_s": "s",
    "harmonic.hermite_s": "s",
    "oracle.converged_levels_s": "s",
    "oracle.eigensolve_s": "s",
    "oracle.eigensolve_calls": "count",
    "oracle.hamiltonian_s": "s",
    "oracle.compare_series_self_s": "s",
    "cli.main_s": "s",
    "cli.render_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

# counts that must repeat exactly between two traced passes
REPEATED_COUNTS = ("polys.mul_calls", "polys.term_products", "polys.add_calls",
                   "engine.laurent_row_calls", "oracle.eigensolve_calls")


def _pass_metrics(p: dict) -> dict:
    spans, ops = p["spans"], p["ops"]
    mul, add = ops["mul"], ops["add"]
    main = spans["cli.main"]
    table = next((c["table"] for c in p["commands"] if "table" in c),
                 {"zero_cell_frac": 0.0, "max_coeff_bits": 0})
    return {
        "config.parse_s": spans["config.parse"]["total"],
        "engine.expand_s": spans["engine.expand"]["total"],
        "engine.c0_row_s": spans["engine.c0_row"]["total"],
        "engine.laurent_row_s": spans["engine.laurent_row"]["total"],
        "engine.laurent_row_calls": spans["engine.laurent_row"]["calls"],
        "engine.laurent_row_last_s": p["last_row_s"],
        "engine.energy_coefficient_s": spans["engine.energy_coefficient"]["total"],
        "engine.identity_sweep_s": spans["engine.identity_sweep"]["total"],
        "engine.evaluate_energy_s": spans["engine.evaluate_energy"]["total"],
        "engine.zero_cell_frac": table["zero_cell_frac"],
        "engine.max_coeff_bits": table["max_coeff_bits"],
        "polys.mul_calls": mul["calls"],
        "polys.mul_s": mul["seconds"],
        "polys.term_products": mul["term_products"],
        "polys.add_calls": add["calls"],
        "polys.add_s": add["seconds"],
        "polys.mul_useful_frac": mul["useful"] / mul["calls"] if mul["calls"] else 0.0,
        "harmonic.crosscheck_s": spans["harmonic.crosscheck"]["total"],
        "harmonic.d_sequence_s": spans["harmonic.d_sequence"]["total"],
        "harmonic.hermite_s": spans["harmonic.hermite"]["total"],
        "oracle.converged_levels_s": spans["oracle.converged_levels"]["total"],
        "oracle.eigensolve_s": spans["oracle.eigensolve"]["total"],
        "oracle.eigensolve_calls": spans["oracle.eigensolve"]["calls"],
        "oracle.hamiltonian_s": spans["oracle.converged_levels"]["self"],
        "oracle.compare_series_self_s": spans["oracle.compare_series"]["self"],
        "cli.main_s": main["total"],
        "cli.render_s": spans["cli.render"]["total"],
        "trace.coverage_frac": 1.0 - main["self"] / main["total"] if main["total"] else 0.0,
    }


def layer_metrics(untraced: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from two or more traced passes and an untraced one.

    Times are medians over the traced passes; counts come from the first
    traced pass.  Returns the metrics and the counts that did not repeat.
    """
    per_pass = [_pass_metrics(p) for p in traced]
    metrics = {}
    for name in LAYER_UNITS:
        if name == "trace.overhead_frac":
            continue
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
    plain = sum(c["main_s"] for c in untraced["commands"])
    metrics["trace.overhead_frac"] = metrics["cli.main_s"] / plain - 1.0
    unsteady = [name for name in REPEATED_COUNTS
                if len({m[name] for m in per_pass}) > 1]
    return metrics, unsteady


def main(spec_path: str, out_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    passes = [run_pass(spec["commands"], traced) for traced in (False, True, True)]
    with open(out_path, "w") as fh:
        json.dump({"passes": passes}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
