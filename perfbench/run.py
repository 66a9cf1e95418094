"""Benchmark of the ``lptseries`` command line, one workload per run.

    python3 perfbench/run.py --workload quartic-k12 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30

With ``--trace 0`` a single closed-loop driver runs the workload's commands
as child processes, one at a time, in cycles of setup / expand / check /
verify (at least two, then as many more commands as fit in ``--seconds``),
checks every output (``checks.py``) and reports the end-to-end metrics: the
wall time of each command from spawn to exit, the set-up time (an order-1
``expand``: interpreter start, imports and config load), the peak RSS of the
command processes and the share of operations that succeeded.

Times are reported at the machine's full speed.  On a shared machine the
same work can take 1.5 to 2 times as long while other tenants load the
cores, for seconds or for minutes, so raw wall times move with the
neighbours' load.  The driver and every command run pinned to one CPU, and
between consecutive commands the driver times ``reference_s()``, a fixed
exact-arithmetic kernel that shares no code with the program but slows down
with the machine as the program does.  Each wall time is divided by the mean
of the reference times just before and just after it; a command's time is
the geometric mean of its ratios over the run, the set-up time their median,
times ``REFERENCE_NOMINAL_S``.  When the machine changes speed within a
command, the ratio is off, and of the median, mean, ratio of sums and
geometric mean, the last varied least from run to run.  The raw wall and
reference times are in the run record.

With ``--trace 1`` it runs the same commands in one child process through
``lptseries.cli.main`` under the outside-in tracer (``tracer.py``) and
reports per-layer metrics instead.

The seed draws only the potential's coefficients (``workloads.py``); the
program receives only the generated INI.  The last line of standard output
is the JSON result; the line before it is a JSON run record.  The program
is taken from ``src/`` next to this directory, and the benchmark exits with
status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from checks import check_check, check_expand, check_setup, check_verify
from tracer import LAYER_UNITS, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, draw_coefficients

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CYCLE = ("setup", "expand", "check", "verify")
COMMAND_OPS = ("expand", "check", "verify")
OP_TIMEOUT_S = 60.0
TRACE_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "expand_s": "s",
    "check_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "ratio",
}


# Fastest time of reference_s() on the 2-vCPU machine the benchmark was
# defined on.  Only the scale of the reported times depends on it.
REFERENCE_NOMINAL_S = 0.14

_REFERENCE_FACTOR = {(i, j): Fraction(2 * i + 1, 3 * j + 5) for i in range(4) for j in range(3)}


def reference_s() -> float:
    """Wall time of a fixed exact-arithmetic kernel that shares no code with
    the program: repeated truncated products of bivariate polynomials whose
    Fraction coefficients grow to a few hundred bits, the kind of work that
    dominates ``lptseries``.  A smaller kernel slows down more than the
    program does when the machine is loaded."""
    start = time.perf_counter()
    for _ in range(3):
        poly: dict = {(0, 0): Fraction(1)}
        for _ in range(9):
            out: dict = {}
            for (an, al), ac in poly.items():
                for (bn, bl), bc in _REFERENCE_FACTOR.items():
                    if al + bl <= 12:
                        key = (an + bn, al + bl)
                        out[key] = out.get(key, 0) + ac * bc
            poly = out
    return time.perf_counter() - start


class Run:
    """One benchmark run: a workload at a seed, with its scratch directory."""

    def __init__(self, workload_name: str, seed: int, work: Path) -> None:
        self.workload = WORKLOADS[workload_name]
        self.coeffs = self.workload.coefficients(seed)
        self.work = work
        self.ini = work / "problem.ini"
        self.ini.write_text(self.workload.ini(self.coeffs))
        self.argv = self.workload.commands(str(self.ini))
        # outputs at the canonical coefficients are recorded byte for byte
        recorded = json.loads((HERE / "expected.json").read_text())[self.workload.name]
        canonical = self.workload.ini(draw_coefficients(DEFAULT_SEED))
        self.recorded = recorded if self.workload.ini(self.coeffs) == canonical else None
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.reference = self._reference()

    def _reference(self) -> dict:
        spec = {
            "powers": [[p, str(c)] for p, c in self.workload.x_powers(self.coeffs)],
            "basis": int(dict(self.workload.oracle)["check_basis"]),
            "levels": self.workload.levels,
        }
        done = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        return json.loads(done.stdout)

    def problems(self, op: str, code: int, out: str) -> list[str]:
        """Why an operation's output is wrong; empty when it is right."""
        if code != 0:
            return [f"{op} exited with {code}"]
        if op == "setup":
            return check_setup(out)
        if op == "expand":
            return check_expand(self.workload, self.coeffs, out, self.recorded)
        if op == "check":
            return check_check(out)
        return check_verify(out, self.workload.levels, self.reference["eigenvalues"],
                            self.recorded)

    def spawn(self, op: str) -> dict:
        """Run one command as a child process and time it from spawn to exit."""
        out_path = self.work / f"{op}.out"
        with open(out_path, "wb") as out, open(self.work / f"{op}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "lptseries", *self.argv[op]],
                stdout=out, stderr=err, env=self.env)
            timed_out = threading.Event()
            timer = threading.Timer(OP_TIMEOUT_S, lambda: (timed_out.set(), proc.kill()))
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out.is_set():
            problems = [f"{op} timed out after {OP_TIMEOUT_S:.0f} s"]
        else:
            problems = self.problems(op, proc.returncode, out_path.read_text())
        return {"op": op, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "problems": problems}

    def timed(self, seconds: float) -> tuple[dict, dict]:
        """Closed loop of at least two whole cycles, ending by ``seconds``.

        After those, each command runs only while it still fits, taking as
        long as its last run and the reference after it did.
        """
        self.spawn("setup")  # untimed warm-up: bytecode cache, disk cache
        results: list[dict] = []
        references = [reference_s()]
        last: dict[str, float] = {}
        deadline = time.perf_counter() + seconds
        while True:
            op = CYCLE[len(results) % len(CYCLE)]
            start = time.perf_counter()
            if len(results) >= 2 * len(CYCLE) and start + last[op] > deadline:
                break
            results.append(self.spawn(op))
            references.append(reference_s())
            last[op] = time.perf_counter() - start
        # result i ran between references i and i + 1
        ratios: dict[str, list[float]] = {op: [] for op in CYCLE}
        for i, r in enumerate(results):
            ratios[r["op"]].append(2.0 * r["wall"] / (references[i] + references[i + 1]))
        failed = sum(bool(r["problems"]) for r in results)
        metrics = {f"{op}_s": statistics.geometric_mean(ratios[op]) * REFERENCE_NOMINAL_S
                   for op in COMMAND_OPS}
        metrics["setup_s"] = statistics.median(ratios["setup"]) * REFERENCE_NOMINAL_S
        metrics["peak_rss_mb"] = max(r["rss_mb"] for r in results if r["op"] in COMMAND_OPS)
        metrics["ok_ops_frac"] = (len(results) - failed) / len(results)
        detail = {
            "reference_samples": references,
            "wall_samples": {op: [r["wall"] for r in results if r["op"] == op] for op in CYCLE},
            "cpu_median": {op: statistics.median(r["cpu"] for r in results if r["op"] == op)
                           for op in CYCLE},
            "problems": [p for r in results for p in r["problems"]][:10],
        }
        return _result(metrics, END_TO_END_UNITS, len(results), failed), detail

    def traced(self) -> tuple[dict, dict]:
        """In-process traced run of the same commands, in a child process."""
        spec_path, out_path = self.work / "trace_spec.json", self.work / "trace.json"
        spec_path.write_text(json.dumps({
            "src": str(SRC), "commands": [[op, self.argv[op]] for op in COMMAND_OPS]}))
        subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spec_path), str(out_path)],
                       env=self.env, timeout=TRACE_TIMEOUT_S, check=True)
        passes = json.loads(out_path.read_text())["passes"]
        checked = [self.problems(c["op"], c["code"], c["out"])
                   for run in passes for c in run["commands"]]
        failed = sum(bool(p) for p in checked)
        metrics, unsteady = layer_metrics(passes[0], passes[1:])
        detail = {"absent": passes[1]["absent"], "counts_differ": unsteady,
                  "problems": [p for ps in checked for p in ps][:10]}
        return _result(metrics, LAYER_UNITS, len(checked), failed), detail


def _result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    load = os.getloadavg()
    cpus = os.sched_getaffinity(0)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    # one CPU for the driver, the reference kernel and every command, whose
    # BLAS then runs one thread
    os.sched_setaffinity(0, {min(cpus)})
    try:
        run = Run(workload, seed, work)
        result, detail = run.traced() if trace else run.timed(seconds)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when other runs still use it
            work.parent.rmdir()
    record = {
        "workload": workload,
        "seed": seed,
        "coefficients": {k: str(v) for k, v in vars(run.coeffs).items()},
        "trace": trace,
        "python": platform.python_version(),
        "numpy": run.reference["numpy"],
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "blas_threads": run.reference["blas_threads"],
        "loadavg_start": load,
        "git_commit": _git_commit(),
        **detail,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a table of metrics")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lptseries" / "cli.py").is_file():
        print(f"error: no lptseries sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        correct = True
        for name in WORKLOADS:
            result, _ = run_once(name, args.seed, args.seconds, bool(args.trace))
            for metric, m in result["metrics"].items():
                print(f"{name:<15} {metric:<30} {m['value']:>14.6g} {m['unit']}")
            print(f"{name:<15} {'correct':<30} {result['correct']!s:>14}")
            correct = correct and result["correct"]
        return 0 if correct else 1
    if args.workload is None:
        parser.error("--workload or --all is required")
    result, record = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
