"""The benchmark's span tracer patches and reads names of the `cpl` package
(`machine.step`, `Runtime.rt_send`, `Runtime.pending_summary`, ...). Running
it here makes a renamed name fail the test suite, not only the traced run."""

from pathlib import Path

import cpl.toolchain as tc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced(monkeypatch, run):
    """The tracer's counts over one call of `run`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.counts


def test_tracer_installs_and_counts_both_engines(monkeypatch):
    def run():
        loaded = tc.load_program(tc.example_source("fact.cpl"), include_prelude=False)
        tc.run_smallstep(loaded.core)
        rt = tc.run_concurrent(loaded.core, virtual_time=True, timeout_ms=10_000)
        rt.shutdown()

    counts = _traced(monkeypatch, run)
    assert counts["machine.steps"] > 0
    assert counts["runtime.rt_send"] > 0
    assert counts["runtime.instances_end"] > 0


def test_every_concurrent_spawn_goes_through_rt_spawn(monkeypatch):
    """`runtime.spawns` counts `Runtime.rt_spawn` calls, so an instance made
    another way would be missing from it."""
    def run():
        loaded = tc.load_program(tc.example_source("fact.cpl"))
        rt = tc.run_concurrent(loaded.core, virtual_time=True, timeout_ms=10_000)
        rt.shutdown()

    counts = _traced(monkeypatch, run)
    assert counts["runtime.rt_spawn"] == counts["runtime.instances_end"] > 0


def test_tracer_counts_the_bytes_each_load_parses(monkeypatch):
    """`parser.bytes` over `parser.parse` spans gives `parser.kb_per_s`, so
    a load that parsed without calling `cpl.parser.parse` would read 0."""
    src = tc.example_source("fact.cpl") + "// λ, not ASCII\n"
    counts = _traced(monkeypatch, lambda: tc.load_program(src, include_prelude=False))
    assert counts["parser.bytes"] == len(src.encode()) > len(src)
