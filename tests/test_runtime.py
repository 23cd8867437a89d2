"""Concurrent runtime: mailbox behavior, linearized instance operations,
placement, virtual time, observation logging."""

import json
import threading
import time

import pytest

import cpl.toolchain as tc
from cpl.core import (
    Addr,
    Address,
    BaseLit,
    Image,
    Par,
    Placement,
    ServerTemplate,
    ZeroImage,
)
from cpl.parser import parse_expr
from cpl.runtime import Runtime, boot, value_to_json
from conftest import cc_obs, run_cc

COUNTER = parse_expr(
    "srv { poke<> & st<n: Int> :> this#st<n + 1>"
    "  probe<k: <Int>> & st<n: Int> :> (k<n> || this#st<n>) }"
)
NO_RULES_FIRE = parse_expr("srv { x<v: Int> & never<> :> par }")


def test_boot_unit_immediate_quiescence():
    rt = boot(Par(()))
    try:
        log = rt.await_quiescence(5_000)
        assert len(log) == 0 and not rt.timed_out
    finally:
        rt.shutdown()


def test_spawn_returns_distinct_addresses():
    rt = Runtime()
    try:
        a = rt.rt_spawn(COUNTER)
        b = rt.rt_spawn(COUNTER)
        assert a != b
    finally:
        rt.shutdown()


def test_zero_image_never_fires_and_drops():
    rt = Runtime()
    try:
        a = rt.rt_spawn(ZeroImage())
        rt.rt_send(a, "poke", ())
        rt.await_quiescence(2_000)
        assert rt.dropped == [(a, "poke")]
        assert rt.rt_snapshot(a) == ZeroImage()
    finally:
        rt.shutdown()


def test_preloaded_buffer_fires_immediately():
    rt = Runtime()
    try:
        img = Image(COUNTER, (parse_expr("img(x, [st<4>, poke<>])").buffer))
        a = rt.rt_spawn(Image(COUNTER, img.buffer))
        rt.await_quiescence(2_000)
        snap = rt.rt_snapshot(a)
        assert [m.service for m in snap.buffer] == ["st"]
        assert snap.buffer[0].args == (BaseLit(5),)
    finally:
        rt.shutdown()


def test_hundred_concurrent_sends_exactly_once():
    rt = Runtime()
    try:
        a = rt.rt_spawn(NO_RULES_FIRE)

        def blast(base):
            for i in range(25):
                rt.rt_send(a, "x", (BaseLit(base + i),))

        threads = [threading.Thread(target=blast, args=(k * 25,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rt.await_quiescence(5_000)
        snap = rt.rt_snapshot(a)
        vals = sorted(m.args[0].value for m in snap.buffer)
        assert vals == list(range(100))
    finally:
        rt.shutdown()


def test_snapshot_includes_pending_message():
    rt = Runtime()
    try:
        a = rt.rt_spawn(NO_RULES_FIRE)
        rt.rt_send(a, "x", (BaseLit(1),))
        rt.await_quiescence(2_000)
        snap = rt.rt_snapshot(a)
        assert [m.service for m in snap.buffer] == ["x"]
    finally:
        rt.shutdown()


def test_snapshot_then_replace_restores_state():
    rt = Runtime()
    try:
        a = rt.rt_spawn(Image(COUNTER, parse_expr("img(x, [st<0>])").buffer))
        for _ in range(3):
            rt.rt_send(a, "poke", ())
        rt.await_quiescence(2_000)
        saved = rt.rt_snapshot(a)
        for _ in range(2):
            rt.rt_send(a, "poke", ())
        rt.await_quiescence(2_000)
        assert rt.rt_snapshot(a).buffer[0].args == (BaseLit(5),)
        rt.rt_replace(a, saved)
        rt.await_quiescence(2_000)
        assert rt.rt_snapshot(a).buffer[0].args == (BaseLit(3),)
    finally:
        rt.shutdown()


def test_replace_with_zero_halts():
    rt = Runtime()
    try:
        a = rt.rt_spawn(Image(COUNTER, parse_expr("img(x, [st<0>])").buffer))
        rt.rt_replace(a, ZeroImage())
        rt.rt_send(a, "poke", ())
        rt.await_quiescence(2_000)
        assert (a, "poke") in rt.dropped
        assert rt.rt_snapshot(a) == ZeroImage()
    finally:
        rt.shutdown()


def test_concurrent_ops_on_one_address_linearize():
    rt = Runtime()
    try:
        a = rt.rt_spawn(Image(COUNTER, parse_expr("img(x, [st<0>])").buffer))
        errors = []

        def hammer(kind):
            try:
                for _ in range(50):
                    if kind == 0:
                        rt.rt_send(a, "poke", ())
                    elif kind == 1:
                        snap = rt.rt_snapshot(a)
                        assert isinstance(snap, (Image, ZeroImage))
                    else:
                        rt.rt_replace(a, rt.rt_snapshot(a))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(k % 3,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rt.await_quiescence(10_000)
        assert not errors
        # the per-instance firing invariant (asserted inside the pump) held
    finally:
        rt.shutdown()


def test_local_placement_runs_inline():
    rt = Runtime()
    try:
        a = rt.rt_spawn(COUNTER, Placement.LOCAL)
        rt.rt_send(a, "st", (BaseLit(0),))
        rt.rt_send(a, "poke", ())
        rt.await_quiescence(2_000)
        assert rt.rt_snapshot(a).buffer[0].args == (BaseLit(1),)
    finally:
        rt.shutdown()


def test_virtual_time_advances_only_on_timers():
    with run_cc(
        "(spwn srv { a<> :> timer<250, this#b>  b<> :> result<localTime()> })#a<>",
        prelude=False,
        virtual=True,
    ) as rt:
        assert cc_obs(rt) == [250]


def test_timer_delay_rejects_bool_on_both_engines():
    """`true` is no Int delay, although Python's bool is an int; the checker
    rejects this program, so it runs here unchecked."""
    from cpl.errors import MachineError, StuckError

    loaded = tc.load_program("timer<true, result>", include_prelude=False)
    with pytest.raises(StuckError, match="timer delay"):
        tc.run_smallstep(loaded.core)
    rt = boot(loaded.core, virtual_time=True)
    try:
        with pytest.raises(MachineError, match="timer delay"):
            rt.await_quiescence(5_000)
        assert len(rt.log) == 0
    finally:
        rt.shutdown()


@pytest.mark.parametrize(
    "program, message",
    [
        ("if 1 then result<1> else result<2>", "if condition is not a boolean"),
        ("result<(1)[Int]>", "type application of a non-universal value"),
        ("(spwn 3)#a<>", "spwn applied to a non-image value: 3"),
        ("snap 3", "snap applied to a non-address value: 3"),
        ("repl 3 zero", "repl applied to a non-address value: 3"),
        ("result<snap @5>", "snap on unallocated address @5"),
        ("repl @5 zero", "repl on unallocated address @5"),
    ],
)
def test_stuck_forms_raise_the_same_fault_on_both_engines(program, message):
    """Ill-typed programs, run unchecked: both engines check a redex with
    the machine's side conditions."""
    from cpl.errors import StuckError

    loaded = tc.load_program(program, include_prelude=False)
    with pytest.raises(StuckError) as small:
        tc.run_smallstep(loaded.core)
    assert str(small.value) == message
    rt = boot(loaded.core, virtual_time=True)
    try:
        with pytest.raises(StuckError) as concurrent:
            rt.await_quiescence(5_000)
        assert str(concurrent.value) == message
    finally:
        rt.shutdown()


def test_send_to_an_unallocated_address_is_left_undelivered_on_both_engines():
    """The machine leaves `@5#a<1>` waiting and ends quiescent; the runtime
    records it as dropped, as it does a send to an inert instance."""
    loaded = tc.load_program("@5#a<1>", include_prelude=False)
    result = tc.run_smallstep(loaded.core)
    assert result.status == "quiescent" and not result.observations
    rt = boot(loaded.core, virtual_time=True)
    try:
        rt.await_quiescence(5_000)
        assert rt.dropped == [(Address(5), "a")]
        assert len(rt.log) == 0
    finally:
        rt.shutdown()


def test_print_goes_to_observer():
    with run_cc("print<42>", prelude=False) as rt:
        assert [ (o.service, value_to_json(o.args[0])) for o in rt.log.snapshot() ] == [("print", 42)]


def test_freshid_monotone_and_unique():
    rt = Runtime()
    try:
        ids = [rt.fresh_id() for _ in range(100)]
        assert len(set(ids)) == 100
        assert ids == sorted(ids)
        t1 = rt.local_time()
        time.sleep(0.01)
        assert rt.local_time() >= t1
    finally:
        rt.shutdown()


def test_observation_log_json_lines():
    with run_cc("(result<(1, \"x\")> || event<[true]>)", prelude=False) as rt:
        lines = rt.log.to_json_lines().strip().split("\n")
        parsed = [json.loads(l) for l in lines]
        assert {p["service"] for p in parsed} == {"result", "event"}
        for p in parsed:
            assert isinstance(p["t"], int) and isinstance(p["args"], list)


def test_engine_agreement_factorial():
    loaded = tc.load_program(tc.example_source("fact.cpl"), include_prelude=False)
    ss = tc.run_smallstep(loaded.core)
    ss_vals = sorted(value_to_json(a[0]) for _, s, a in ss.observations)
    rt = tc.run_concurrent(loaded.core, timeout_ms=10_000)
    cc_vals = sorted(value_to_json(o.args[0]) for o in rt.log.snapshot())
    rt.shutdown()
    assert ss_vals == cc_vals == [6]


def test_apply_builtin_catalogue():
    rt = Runtime()
    try:
        from cpl.core import ListV, MapV, TupleV

        assert rt.apply_builtin("max", (BaseLit(7), BaseLit(11))) == BaseLit(11)
        a = rt.apply_builtin("freshID", ())
        b = rt.apply_builtin("freshID", ())
        assert a != b
        m = rt.apply_builtin("mkMap", (ListV((TupleV((BaseLit("k"), BaseLit(3))),)),))
        assert rt.apply_builtin("get", (m, BaseLit("k"))) == BaseLit(3)
        assert rt.apply_builtin("localTime", ()).value >= 0
    finally:
        rt.shutdown()


def test_manual_virtual_advance_drives_timers():
    loaded = tc.load_program(
        "(spwn srv { a<> :> timer<1000, this#b>  b<> :> result<1> })#a<>",
        include_prelude=False,
    )
    from cpl.runtime import boot as rt_boot

    rt = rt_boot(loaded.core, virtual_time=True)
    try:
        rt._tracker.wait_zero(__import__("time").monotonic() + 5)
        assert cc_obs(rt) == []
        rt.advance_virtual(999)
        rt._tracker.wait_zero(__import__("time").monotonic() + 5)
        assert cc_obs(rt) == []
        rt.advance_virtual(1)
        rt._tracker.wait_zero(__import__("time").monotonic() + 5)
        assert cc_obs(rt) == [1]
    finally:
        rt.shutdown()


def test_progress_counterexample_quiescent_with_pending():
    with run_cc(tc.example_source("stuck.cpl"), prelude=False) as rt:
        assert not rt.timed_out
        assert len(rt.log) == 0
        pend = rt.pending_summary()
        assert [(m.service) for _, m in pend] == ["foo"]


def test_concurrent_cli_run_stops_its_pool_threads(tmp_path, capsys):
    from cpl.cli import main

    f = tmp_path / "one.cpl"
    f.write_text("(spwn srv { a<x: Int> :> result<x> })#a<1>")
    before = set(threading.enumerate())
    assert main(["run", str(f), "--no-prelude", "--engine=concurrent"]) == 0
    assert capsys.readouterr().out.strip() == '{"service": "result", "args": [1]}'
    pool = [t for t in threading.enumerate() if t.name.startswith("cpl-rt-") and t not in before]
    assert pool
    for t in pool:
        t.join(5.0)
    assert not any(t.is_alive() for t in pool)
