"""The three workloads. Each one generates its inputs from the seed at set-up
and then hands out the operations of cycle i, one closed-loop step at a
time. An operation is one `cpl` command line plus the oracle that judges
its output."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracles

PROGRAMS = Path(__file__).resolve().parent / "programs"
EXAMPLES = ("fact.cpl", "stuck.cpl", "supervision_demo.cpl", "wordcount.cpl", "wordcount_lb.cpl")

# Operation kinds, one end-to-end metric each (check gives two percentiles).
CHECK, COLD, SMALLSTEP, CONCURRENT, TRACE = "check", "cold_check", "smallstep", "concurrent", "trace"


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    argv: tuple[str, ...]
    # (exit code, stdout, stderr) -> "" when correct, else the reason
    verify: Callable[[object, str, str], str]
    # A RecursionError here is the known frontend stack overflow; any other
    # failure, or a RecursionError of any other operation, is not known.
    overflow_known: bool = False


def _expect_exit(code, want: int, why: str) -> str:
    return why if code == want else f"exit {code}, expected {want}"


def verdict(expected: int):
    return lambda code, out, err: oracles.check_verdict(code, out, expected)


def _inline(program: Path, value_literal: str) -> str:
    """The program with `input` bound by a definition instead of --input, for
    `cpl check` and `cpl trace`, which take no input file."""
    return f"def input = {value_literal};\n" + program.read_text()


class Workload:
    # Nominal length of one cycle in seconds at the parent commit; fixes how
    # many cycles a traced run makes, so its counts repeat exactly.
    cycle_s = 1.0

    def __init__(self, rng: random.Random, seed: int, work: Path, root: Path) -> None:
        self.rng, self.seed, self.work, self.root = rng, seed, work, root
        self.examples = root / "src" / "cpl" / "examples"

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path)

    def write_json(self, name: str, value) -> str:
        return self.write(name, json.dumps(value))

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def trace_cycles(self, seconds: int) -> int:
        return max(1, round(seconds / (3 * self.cycle_s)))


class Frontend(Workload):
    """Parser, desugar and typechecker: the engines only run fact.cpl."""

    cycle_s = 1.7
    CHECKS_PER_CYCLE = 8

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.golden = (self.root / "tests" / "golden" / "fact_trace.txt").read_text()
        checks = [
            Op(CHECK, f"example {name}", ("check", str(self.examples / name)), verdict(0))
            for name in EXAMPLES
        ]
        generated = gen.stratified(gen.programs(self.rng), key=lambda p: p.defs)
        for p in generated:
            path = self.write(f"{p.name}.cpl", p.text)
            label = f"{p.name} ({p.mutation or 'well typed'})"
            checks.append(Op(CHECK, label, ("check", path), verdict(p.expected_exit), p.overflows))
        self.checks = checks

    def cycle(self, i: int) -> list[Op]:
        k = self.CHECKS_PER_CYCLE
        ops = [self.checks[(i * k + j) % len(self.checks)] for j in range(k)]
        cold = EXAMPLES[i % len(EXAMPLES)]
        fact = str(self.examples / "fact.cpl")
        ops += [
            Op(COLD, f"fresh check {cold}", ("check", str(self.examples / cold)), verdict(0)),
            Op(SMALLSTEP, "run fact.cpl", ("run", fact, "--seed", str(self.seed)),
               lambda code, out, err: _expect_exit(code, 0, oracles.check_factorial(out, 3))),
            Op(CONCURRENT, "run fact.cpl concurrent", ("run", fact, "--engine=concurrent"),
               lambda code, out, err: _expect_exit(code, 0, oracles.check_factorial(out, 3))),
            Op(TRACE, "trace fact.cpl", ("trace", fact, "--no-prelude"),
               lambda code, out, err: _expect_exit(code, 0, oracles.check_golden(out, self.golden))),
        ]
        return ops


class MapReduce(Workload):
    """Word count on the MapReduce deployment, plus the recovery deployments
    on the small-step engine: hundreds of live instances, timers, Snap and
    Repl."""

    cycle_s = 5.5
    SMALL = dict(docs=12, words_per_doc=10, distinct=40)  # plain workers, small-step
    RECOVER = dict(docs=4, words_per_doc=4, distinct=12)  # fault tolerant, small-step
    LARGE = dict(docs=24, words_per_doc=12, distinct=60)  # fault tolerant, concurrent
    TRACE_STEPS = 10

    def __init__(self, *a) -> None:
        super().__init__(*a)
        plain, ft = PROGRAMS / "wordcount.cpl", PROGRAMS / "wordcount_ft.cpl"
        self.plain, self.ft = str(plain), str(ft)
        self.supervision = str(self.examples / "supervision_demo.cpl")
        self.small = gen.zipf_corpus(self.rng, **self.SMALL)
        self.recover = gen.zipf_corpus(self.rng, **self.RECOVER)
        self.large = gen.zipf_corpus(self.rng, **self.LARGE)
        self.small_json = self.write_json("small.json", self.small)
        self.recover_json = self.write_json("recover.json", self.recover)
        self.large_json = self.write_json("large.json", self.large)
        self.plain_src = self.write("wordcount.cpl", _inline(plain, gen.cpl_string_list(self.small)))
        self.ft_src = self.write("wordcount_ft.cpl", _inline(ft, gen.cpl_string_list(self.large)))

    def cycle(self, i: int) -> list[Op]:
        ok = verdict(0)
        steps = self.TRACE_STEPS
        seed = ("--seed", str(self.seed))
        trace = Op(TRACE, "trace wordcount", ("trace", self.plain_src, "--max-steps", str(steps), *seed),
                   lambda code, out, err: _expect_exit(code, 2, oracles.check_bounded_trace(out, steps)))
        cold = Op(COLD, "fresh check wordcount", ("check", self.plain_src), ok)
        # Two traces and two fresh-process checks per cycle, apart: a run
        # holds few cycles, and two samples vary less than one.
        runs = [
            trace,
            cold,
            Op(SMALLSTEP, "wordcount small", ("run", self.plain, "--input", self.small_json, *seed),
               lambda code, out, err: _expect_exit(code, 0, oracles.check_wordcount(out, self.small))),
            Op(SMALLSTEP, "wordcount_ft recover",
               ("run", self.ft, "--input", self.recover_json, "--virtual-time", *seed),
               lambda code, out, err: _expect_exit(code, 0, oracles.check_wordcount(out, self.recover))),
            Op(SMALLSTEP, "supervision_demo", ("run", self.supervision, *seed),
               lambda code, out, err: _expect_exit(code, 0, oracles.check_supervision(out))),
            cold,
            Op(CONCURRENT, "wordcount_ft large",
               ("run", self.ft, "--input", self.large_json, "--engine=concurrent", "--virtual-time"),
               lambda code, out, err: _expect_exit(code, 0, oracles.check_wordcount(out, self.large))),
            trace,
        ]
        checks = [
            Op(CHECK, "check wordcount", ("check", self.plain_src), ok),
            Op(CHECK, "check wordcount_ft", ("check", self.ft_src), ok),
        ]
        # A check takes about 0.1 s, and the machine's speed drifts over
        # seconds. One check before each other operation, rather than all of
        # them at the start of the cycle, spreads the checks over the whole
        # measured time.
        return [op for k, run in enumerate(runs) for op in (checks[k % 2], run)]


class HotInstance(Workload):
    """One producer, one consumer with a deep buffer, no prelude."""

    cycle_s = 1.8
    N_SMALLSTEP = 900
    N_CONCURRENT = 2000
    TRACE_STEPS = 500

    def __init__(self, *a) -> None:
        super().__init__(*a)
        hot = PROGRAMS / "hot_instance.cpl"
        self.hot = str(hot)
        self.ns = gen.burst_size(self.rng, self.N_SMALLSTEP)
        self.nc = gen.burst_size(self.rng, self.N_CONCURRENT)
        self.ns_json = self.write_json("n_small.json", self.ns)
        self.nc_json = self.write_json("n_large.json", self.nc)
        self.src = self.write("hot.cpl", _inline(hot, str(self.ns)))

    def cycle(self, i: int) -> list[Op]:
        ns, nc, src = self.ns, self.nc, self.src
        ok = verdict(0)
        steps = self.TRACE_STEPS
        check = Op(CHECK, "check hot", ("check", src, "--no-prelude"), ok)
        runs = [
            Op(COLD, "fresh check hot", ("check", src, "--no-prelude"), ok),
            Op(SMALLSTEP, f"burst N={ns}", ("run", self.hot, "--no-prelude", "--input", self.ns_json, "--seed", str(self.seed)),
               lambda code, out, err: _expect_exit(code, 0, oracles.check_burst_sum(out, ns))),
            Op(CONCURRENT, f"burst N={nc} concurrent",
               ("run", self.hot, "--no-prelude", "--input", self.nc_json, "--engine=concurrent"),
               lambda code, out, err: _expect_exit(code, 0, oracles.check_burst_sum(out, nc))),
            Op(TRACE, "trace hot", ("trace", src, "--no-prelude", "--max-steps", str(steps)),
               lambda code, out, err: _expect_exit(code, 2, oracles.check_bounded_trace(out, steps))),
        ]
        # Two checks before each other operation, as in MapReduce.cycle.
        return [op for run in runs for op in (check, check, run)]


WORKLOADS = {"frontend": Frontend, "mapreduce": MapReduce, "hot-instance": HotInstance}
