import contextlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import settings

import cpl.toolchain as tc

# Property tests run a fixed example set so the suite is deterministic.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")
from cpl.runtime import value_to_json

FACT_SRC = """
def Fact = srv {
  main<n: Int, k: <Int>> :> (this#fac<n> || this#acc<1> || this#out<k>)
  fac<n: Int> & acc<a: Int> :>
    if n <= 1 then this#res<a> else (this#fac<n - 1> || this#acc<a * n>)
  res<r: Int> & out<k: <Int>> :> k<r>
};
"""


def pool_threads_left(before):
    """The `cpl-rt-*` threads not in `before` that are still alive after
    joining them for up to 5 s in all."""
    deadline = time.monotonic() + 5.0
    pool = [t for t in threading.enumerate() if t.name.startswith("cpl-rt-") and t not in before]
    for t in pool:
        t.join(max(0.0, deadline - time.monotonic()))
    return [t for t in pool if t.is_alive()]


@pytest.fixture(autouse=True)
def runtime_pools_stop():
    """Fail a test that leaves a runtime's pool running 5 s after it ends."""
    before = set(threading.enumerate())
    yield
    if left := pool_threads_left(before):
        pytest.fail(f"{len(left)} runtime pool threads still alive 5 s after the test")


SRC = str(Path(tc.__file__).resolve().parent.parent)


def fresh_interpreter(*args):
    """Run `python *args` in a new interpreter that imports `cpl` from this
    checkout (`PYTHONPATH` is its `src`); return (exit code, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def fresh_cli(argv):
    """`cpl argv` (`python -m cpl.cli`) in a new interpreter: (exit code,
    stdout, stderr)."""
    return fresh_interpreter("-m", "cpl.cli", *argv)


def load(text, prelude=False, input_value=None):
    return tc.load_program(text, include_prelude=prelude, input_value=input_value)


def checked(text, prelude=False):
    loaded = load(text, prelude=prelude)
    tc.check_expr(loaded.core, loaded.env)
    return loaded


def run_ss(text, prelude=False, seed=0, max_steps=2_000_000):
    loaded = checked(text, prelude=prelude)
    return tc.run_smallstep(loaded.core, seed=seed, max_steps=max_steps)


@contextlib.contextmanager
def run_cc(text, prelude=True, virtual=False, timeout_ms=30_000, typecheck=True):
    loaded = load(text, prelude=prelude)
    if typecheck:
        tc.check_expr(loaded.core, loaded.env)
    rt = tc.run_concurrent(loaded.core, virtual_time=virtual, timeout_ms=timeout_ms)
    try:
        yield rt
    finally:
        rt.shutdown()


def ss_obs(result, service="result"):
    """JSON-ified observation args for one service from a machine run."""
    return [value_to_json(a[0]) for _, s, a in result.observations if s == service and a]


def cc_obs(rt, service="result"):
    return [value_to_json(o.args[0]) for o in rt.log.snapshot() if o.service == service and o.args]
