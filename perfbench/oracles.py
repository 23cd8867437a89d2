"""Independent oracles: each computes the expected output of an operation
without the toolchain under test, and returns "" when the output matches or
a one-line reason when it does not."""

from __future__ import annotations

import json
import math
import re
from collections import Counter

# Rule names the small-step machine reports (`Stepped.rule`, plus the timer
# advance of `machine.run`).
RULES = ("Par", "Rcv", "React", "Spwn", "Snap", "Repl", "Base", "If", "TAppAbs", "Obs", "Timer")

_STEP_LINE = re.compile(r"STEP (\d+) (\w+)(?: (.*))?")


def _observations(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _single_result(stdout: str):
    try:
        obs = _observations(stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON lines: {exc}"
    if len(obs) != 1 or obs[0].get("service") != "result" or len(obs[0].get("args", ())) != 1:
        return None, f"expected one result<...> observation, got {len(obs)} lines"
    return obs[0]["args"][0], ""


def word_counts(corpus: list[list[str]]) -> dict[str, int]:
    """Word count as a `collections.Counter` fold over whitespace-split texts."""
    return dict(Counter(w for _, text in corpus for w in text.split()))


def check_wordcount(stdout: str, corpus: list[list[str]]) -> str:
    got, why = _single_result(stdout)
    if why:
        return why
    want = word_counts(corpus)
    if got != want:
        missing = sorted(set(want) - set(got or {}))[:3]
        wrong = sorted(w for w in want if w in (got or {}) and got[w] != want[w])[:3]
        return f"word counts differ (missing {missing}, wrong {wrong})"
    return ""


def check_burst_sum(stdout: str, n: int) -> str:
    got, why = _single_result(stdout)
    if why:
        return why
    want = n * (n + 1) // 2
    return "" if got == want else f"sum {got} != N(N+1)/2 = {want}"


def check_factorial(stdout: str, n: int) -> str:
    got, why = _single_result(stdout)
    if why:
        return why
    return "" if got == math.factorial(n) else f"result {got} != {n}! = {math.factorial(n)}"


# What `supervision_demo.cpl` must observe, read off the program: the root
# component p and the children c1..c3 reveal themselves and the tree is built;
# the failure injected into c2 makes the Restart decider suspend and restart
# only sup2, after which the restarted c2 reveals itself again. The order of
# the events depends on the scheduler, so they are compared as a multiset.
SUPERVISION_EVENTS = Counter([
    ("revealed", "p"), ("revealed", "c1"), ("revealed", "c2"), ("revealed", "c3"),
    ("tree", "built"), ("sup2", "suspend"), ("sup2", "restart"), ("revealed", "c2"),
])


def check_supervision(stdout: str) -> str:
    try:
        obs = _observations(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON lines: {exc}"
    if any(o.get("service") != "event" or len(o.get("args", ())) != 1 for o in obs):
        return "expected only event<...> observations"
    got = Counter(tuple(o["args"][0]) for o in obs)
    if got != SUPERVISION_EVENTS:
        return f"events differ: missing {sorted((SUPERVISION_EVENTS - got).elements())}, extra {sorted((got - SUPERVISION_EVENTS).elements())}"
    return ""


def check_verdict(code, stdout: str, expected_exit: int) -> str:
    """`cpl check` verdict against the generator's known verdict: exit 0 with
    one printed type, or exit 1 for an ill-typed program."""
    if code != expected_exit:
        return f"exit {code}, expected {expected_exit}"
    if expected_exit == 0 and len(stdout.splitlines()) != 1:
        return "a well-typed program must print exactly one type"
    return ""


def check_golden(stdout: str, golden: str) -> str:
    if stdout == golden:
        return ""
    for i, (a, b) in enumerate(zip(stdout.splitlines(), golden.splitlines())):
        if a != b:
            return f"trace differs from the golden file at line {i + 1}"
    return f"trace has {len(stdout.splitlines())} lines, golden file {len(golden.splitlines())}"


def check_bounded_trace(stdout: str, max_steps: int) -> str:
    """Structure of a trace cut by --max-steps: exactly `max_steps` steps
    numbered from 1, each a known rule followed by one indented term line."""
    lines = stdout.splitlines()
    if len(lines) != 2 * max_steps:
        return f"{len(lines)} trace lines, expected {2 * max_steps}"
    for i in range(max_steps):
        m = _STEP_LINE.fullmatch(lines[2 * i])
        if m is None or int(m.group(1)) != i + 1:
            return f"malformed step header at line {2 * i + 1}"
        if m.group(2) not in RULES:
            return f"unknown rule {m.group(2)!r} at step {i + 1}"
        if not lines[2 * i + 1].startswith("  ") or len(lines[2 * i + 1]) < 3:
            return f"step {i + 1} has no term line"
    return ""
