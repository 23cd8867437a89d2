"""Benchmark of the CPL toolchain.

    python3 perfbench/run.py --workload frontend --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One single-threaded closed loop issues
`cpl` commands in-process through `cpl.cli.main` (and, for the cold
check, in a fresh interpreter), each only after the previous one finished,
and judges every output with an independent oracle. `--trace 0` prints the
end-to-end metrics, each time scaled by the machine's speed at that moment
(see `reference_task`); `--trace 1` makes a fixed number of cycles untraced
and then traced, and prints the per-layer metrics. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import CHECK, COLD, CONCURRENT, SMALLSTEP, TRACE, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 8  # before the measured cycles, and again after them
COLD_TIMEOUT_S = 120
POOL_JOIN_S = 5.0
TRACED_STACK_FACTOR = 2
# Reported times are seconds on a machine where `reference_task` takes this
# long. It sets only the scale: on a shared 2-core Intel Xeon VM with Python
# 3.11 the task's median time moves between about 0.005 and 0.011 s.
REFERENCE_S = 0.008

# Modules of src/cpl reported as code.lines.<module>; a module that no longer
# exists reports 0, a new one counts in code.lines_total only.
MODULES = (
    "__init__", "builtins", "cli", "core", "desugar", "errors",
    "machine", "parser", "pretty", "runtime", "toolchain", "typecheck",
)


def import_toolchain():
    """Import `cpl.cli` from this checkout's sources, dropping any copy
    imported before, so each set-up repetition pays the import again."""
    for name in [m for m in sys.modules if m == "cpl" or m.startswith("cpl.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("cpl.cli")
    if Path(cli.__file__).resolve().parent != SRC / "cpl":
        raise ImportError(f"cpl imported from {cli.__file__}, not from {SRC}")
    return cli


# The reference task's table: 100 000 distinct int objects, about 3.6 MB,
# more than a core's own caches hold, as the interpreter's heap is.
_TABLE = list(range(1000, 101000))


def reference_task() -> float:
    """Time a fixed pure-Python task: dict, tuple and string work, like the
    interpreter's own, and reads at scattered places of a table larger than
    a core's caches, like its walks over the heap. The benchmark's host is
    a few cores of a shared machine whose speed swings by 20-70 % within
    seconds and between runs, and process CPU time swings with it. Timing
    this task right before and right after an operation, and scaling the
    operation's time by REFERENCE_S over the task's mean time, removes most
    of that swing from the reported times. The task does not use the
    toolchain, so a change to the toolchain moves the scaled time as much
    as the raw one."""
    start = perf_counter()
    d: dict = {}
    j = 1
    for i in range(10000):
        k = (i % 61, "k")
        d[k] = d.get(k, 0) + len(str(i))
        j = (j * 1103515245 + 12345) % 100003
        x = _TABLE[j % 100000]
        d[x & 4095] = d.get(x & 4095, 0) + 1
    return perf_counter() - start


def to_reference(elapsed: float, before: float, after: float) -> float:
    """Scale a duration to the reference speed, given the reference task's
    times right before and right after it."""
    return elapsed * REFERENCE_S / ((before + after) / 2)


def pool_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("cpl-rt-")]


@dataclass
class Failure:
    label: str
    reason: str
    known: bool  # a known defect: the frontend overflows Python's stack


@dataclass
class Runner:
    cli: object
    seconds: int
    tracer: Tracer | None = None
    times: dict[str, list[float]] = field(default_factory=dict)  # per operation
    # per kind: cycle -> time of that kind's operations in the cycle
    cycle_times: dict[str, dict[int, float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)
    busy_s: float = 0.0  # scaled time of all operations, failed ones as measured

    @property
    def failed(self) -> int:
        """Failures that are not a listed known defect."""
        return sum(not f.known for f in self.failures)

    @property
    def known_defects(self) -> int:
        return sum(f.known for f in self.failures)

    def invoke(self, argv: tuple[str, ...]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            except Exception as exc:  # a traceback a CLI user would see
                code = type(exc).__name__
        return code, out.getvalue(), err.getvalue()

    def invoke_fresh(self, argv: tuple[str, ...]):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "cpl.cli", *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=COLD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, op: Op, cycle: int) -> None:
        gc.collect()
        before = reference_task()
        span = self.tracer.begin_op(op.kind) if self.tracer else None
        start = perf_counter()
        try:
            code, out, err = self.invoke_fresh(op.argv) if op.kind == COLD else self.invoke(op.argv)
        except subprocess.TimeoutExpired:
            code, out, err = "timeout", "", ""
        reason = op.verify(code, out, err)
        elapsed = perf_counter() - start
        if span is not None:
            self.tracer.end_op(span)
        elapsed = to_reference(elapsed, before, reference_task())
        self.busy_s += elapsed
        if op.kind == CONCURRENT:
            self.wait_for_pool()
        self.attempted += 1
        if reason:
            # A failed operation counts as slower than any success.
            elapsed = float(self.seconds)
            known = op.overflow_known and code == "RecursionError"
            if known:
                reason = "RecursionError: frontend recursion overflows Python's stack"
            elif code != 0 and err.strip():
                reason += f" ({err.strip().splitlines()[-1][:120]})"
            self.failures.append(Failure(op.label, reason, known))
        self.times.setdefault(op.kind, []).append(elapsed)
        per_cycle = self.cycle_times.setdefault(op.kind, {})
        per_cycle[cycle] = per_cycle.get(cycle, 0.0) + elapsed

    def wait_for_pool(self) -> None:
        """Wait until the runtime's pool threads of the finished run exit."""
        deadline = perf_counter() + POOL_JOIN_S
        for t in pool_threads():
            t.join(max(0.0, deadline - perf_counter()))
        left = sum(t.is_alive() for t in pool_threads())
        if self.tracer is not None:
            self.tracer.add("runtime.threads_left", left)

    def run_cycles(self, workload, first: int, count: int) -> None:
        for i in range(first, first + count):
            for op in workload.cycle(i):
                self.run(op, i)

    def run_for(self, workload, seconds: float) -> None:
        end = perf_counter() + seconds
        i = 0
        while True:
            self.run_cycles(workload, i, 1)
            i += 1
            if perf_counter() >= end:
                return


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def code_lines() -> tuple[dict[str, int], int]:
    counts = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "cpl").glob("*.py")}
    return {m: counts.get(m, 0) for m in MODULES}, sum(counts.values())


def end_to_end(runner: Runner, setup_s: float) -> dict[str, tuple[float, str]]:
    """Check times are per program and cold_check_s is the median fresh-process
    check; every other time is the median over cycles of the time a cycle
    spends in that kind of operation."""
    t = runner.times

    def per_cycle(kind: str) -> float:
        return statistics.median(runner.cycle_times[kind].values())

    return {
        "setup_s": (setup_s, "s"),
        "check_p50_s": (percentile(t[CHECK], 0.5), "s"),
        "check_p90_s": (percentile(t[CHECK], 0.9), "s"),
        "cold_check_s": (statistics.median(t[COLD]), "s"),
        "smallstep_s": (per_cycle(SMALLSTEP), "s"),
        "concurrent_s": (per_cycle(CONCURRENT), "s"),
        "trace_s": (per_cycle(TRACE), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report(workload: str, runner: Runner, metrics: dict[str, tuple[float, str]]) -> bool:
    """Print the human-readable table and the failures; return correctness:
    every failure must be a listed known defect."""
    print(f"workload {workload}: {runner.attempted} operations, {runner.failed} failed, "
          f"{runner.known_defects} hit a known defect")
    for kind, values in sorted(runner.times.items()):
        print(f"  {kind:<12} {len(values):>4} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<34} {runner.failed / runner.attempted:>14.6g} ratio")
    print(f"  {'known_defect_ratio':<34} {runner.known_defects / runner.attempted:>14.6g} ratio")
    for f in runner.failures:
        print(f"  {'KNOWN DEFECT' if f.known else 'FAILED'}: {f.label}: {f.reason}")
    return runner.failed == 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "cpl" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no CPL toolchain sources under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"

    def set_up(repeats: int):
        """Import the toolchain and generate the inputs `repeats` times;
        return the last toolchain and workload, and each repetition's time."""
        times = []
        for _ in range(repeats):
            shutil.rmtree(work, ignore_errors=True)
            gc.collect()
            before = reference_task()
            start = perf_counter()
            cli = import_toolchain()
            work.mkdir(parents=True)
            workload = WORKLOADS[args.workload](random.Random(args.seed), args.seed, work, ROOT)
            times.append(to_reference(perf_counter() - start, before, reference_task()))
        return cli, workload, times

    try:
        if not args.trace:
            cli, workload, setup = set_up(SETUP_REPEATS)
            runner = Runner(cli, args.seconds)
            runner.run_for(workload, args.seconds)
            # Half the set-up repetitions run after the measured cycles, so
            # setup_s samples the machine's speed at both ends of the run.
            setup += set_up(SETUP_REPEATS)[2]
            metrics = end_to_end(runner, statistics.median(setup))
            correct = report(args.workload, runner, metrics)
        else:
            cli, workload, _ = set_up(1)
            cycles = workload.trace_cycles(args.seconds)
            plain = Runner(cli, args.seconds)
            plain.run_cycles(workload, 0, cycles)
            tracer = Tracer()
            tracer.install()
            runner = Runner(cli, args.seconds, tracer)
            # Each wrapped call adds a frame. The typechecker's recursion, where
            # deep programs overflow, takes 5 frames per nesting level untraced
            # and 9 traced, so a doubled limit fails the same programs.
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(TRACED_STACK_FACTOR * limit)
            try:
                runner.run_cycles(workload, 0, cycles)
            finally:
                sys.setrecursionlimit(limit)
                tracer.uninstall()
            lines, total = code_lines()
            # Both passes' operation times are scaled to the reference speed,
            # so the ratio does not follow the machine's speed between them.
            overhead = runner.busy_s / plain.busy_s
            metrics = tracer.metrics(lines, total, overhead)
            metrics["bench.known_defects"] = (runner.known_defects, "count")
            tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
            runner.attempted += plain.attempted
            runner.failures += plain.failures
            correct = report(args.workload, runner, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
