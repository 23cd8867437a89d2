"""The benchmark's span tracer patches and reads names of the `cpl` package
(`machine.step`, `Runtime.rt_send`, `Runtime.pending_summary`, ...). Running
it here makes a renamed name fail the test suite, not only the traced run."""

from pathlib import Path

import cpl.toolchain as tc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_counts_both_engines(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        loaded = tc.load_program(tc.example_source("fact.cpl"), include_prelude=False)
        tc.run_smallstep(loaded.core)
        rt = tc.run_concurrent(loaded.core, virtual_time=True, timeout_ms=10_000)
        rt.shutdown()
    finally:
        tracer.uninstall()
    assert tracer.counts["machine.steps"] > 0
    assert tracer.counts["runtime.rt_send"] > 0
    assert tracer.counts["runtime.instances_end"] > 0
