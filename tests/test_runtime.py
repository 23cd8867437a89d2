"""Concurrent runtime: mailbox behavior, linearized instance operations,
placement, virtual time, observation logging."""

import json
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import cpl.runtime as runtime
import cpl.toolchain as tc
from cpl.core import (
    ENDPOINTS,
    Addr,
    Address,
    BaseLit,
    Image,
    MessageValue,
    Par,
    Placement,
    ReactionRule,
    Request,
    ServerTemplate,
    ServiceRef,
    Snap,
    Spwn,
    Var,
    ZeroImage,
)
from cpl.errors import MachineError
from cpl.parser import parse_expr
from cpl.runtime import Runtime, boot, value_to_json
from conftest import cc_obs, pool_threads_left, run_cc, run_ss, ss_obs

HOT_INSTANCE = Path(__file__).resolve().parent.parent / "perfbench" / "programs" / "hot_instance.cpl"

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


def test_sends_racing_firings_lose_no_message():
    """Eight threads poke one counter while its firings take from the same
    queues; with a short switch interval, a lost send or take would show in
    the count."""
    import sys

    rt = Runtime()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        a = rt.rt_spawn(Image(COUNTER, parse_expr("img(x, [st<0>])").buffer))

        def poke():
            for _ in range(200):
                rt.rt_send(a, "poke", ())

        threads = [threading.Thread(target=poke) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        rt.await_quiescence(10_000)
        assert not rt.timed_out
        assert rt.rt_snapshot(a).buffer == (MessageValue("st", (BaseLit(1600),)),)
    finally:
        sys.setswitchinterval(interval)
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


# Each timer round delivers one tick 10 ms on and the rule re-arms it, so
# the clock counts the rounds fired.
TICKER = (
    "def T = spwn srv {{ tick<> & n<c: Int> :>"
    " if c >= 6 then result<c> else (this#n<c + 1> || timer<10, this#tick>) }};"
    " {first}T#n<0> || timer<10, T#tick>"
)


@pytest.mark.parametrize("engine", ["smallstep", "concurrent"])
@pytest.mark.parametrize(
    "first, results, rounds",
    [("result<0> || ", [0, 6], 7), ("", [], 6)],
    ids=["observes-first", "observes-nothing"],
)
def test_both_engines_fire_the_same_timer_rounds(engine, first, results, rounds):
    """The stretch before the first round is idle only if it observed
    nothing; after an observation a seventh round runs and sees c = 6."""
    text = TICKER.format(first=first)
    if engine == "smallstep":
        result = run_ss(text)
        assert (ss_obs(result), result.final.logical_time) == (results, 10 * rounds)
    else:
        with run_cc(text, prelude=False, virtual=True) as rt:
            assert (cc_obs(rt), rt.local_time()) == (results, 10 * rounds)


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


# Rule bodies whose values capture a rule parameter or `this`. The runtime
# evaluates a body under its bindings and closes such a value only when it
# escapes; the machine substitutes into the whole body first.
CAPTURING_BODIES = {
    "transparent template spawned": """(spwn srv {
      go<x: Int> :> (spwn srv* { a<> :> (result<x> || this#seen<x + 100>) })#a<>
      seen<y: Int> :> result<y>
    })#go<7>""",
    "opaque template spawned": """(spwn srv {
      go<x: Int> :> (spwn srv { a<k: <Int>> :> (k<x> || this#b<x + 1>)  b<y: Int> :> result<y> })#a<this#seen>
      seen<y: Int> :> result<y + 100>
    })#go<7>""",
    "template sent in a message": """(spwn srv {
      go<x: Int> :> this#run<srv* { a<> :> (result<x * 2> || this#seen<x>) }>
      run<t: srv { a: <> }> :> (spwn t)#a<>
      seen<y: Int> :> result<y>
    })#go<5>""",
    "type abstraction instantiated later": """(spwn srv {
      go<x: Int> :> this#later</\\a. spwn srv { id<y: a> :> result<x> }>
      later<f: forall a. inst srv { id: <a> }> :> (f[Int])#id<1>
    })#go<9>""",
    "snap of an image whose buffer captures": """(spwn srv {
      go<x: Int> :> let w: inst srv { a: <srv { g: <<Int>> }>, b: <> } =
          spwn img(srv { a<t: srv { g: <<Int>> }> & b<> :> (spwn t)#g<result> }, [a<srv { g<k: <Int>> :> k<x> }>])
        in (spwn (snap w))#b<>
    })#go<3>""",
    "repl with an image whose buffer captures": """(spwn srv {
      go<x: Int> :> let w: inst srv { a: <srv { g: <<Int>> }>, b: <> } =
          spwn srv { a<t: srv { g: <<Int>> }> & b<> :> par }
        in let u: Unit = repl w img(srv { a<t: srv { g: <<Int>> }> & b<> :> (spwn t)#g<result> }, [a<srv { g<k: <Int>> :> k<x + 1> }>])
        in w#b<>
    })#go<3>""",
    "nested templates rebind the parameter": """(spwn srv {
      go<x: Int> :> ((spwn srv { go<x: Int> :> result<x> })#go<x + 10>
        || (spwn srv* { h<x: Int> :> this#seen<x> })#h<x + 20>
        || result<x>)
      seen<y: Int> :> result<y>
    })#go<1>""",
    "snap of a spawned template that captures": """(spwn srv {
      go<x: Int> :> let w: inst srv { a: <Int> } = spwn srv { a<y: Int> :> result<x + y> }
        in let i: img srv { a: <Int> } = snap w
        in ((spwn i)#a<1> || w#a<2>)
    })#go<7>""",
    "repl of a spawned template that captures": """(spwn srv {
      go<x: Int> :> let w: inst srv { a: <Int> } = spwn srv* { a<y: Int> :> this#seen<x + y> }
        in let u: Unit = repl w img(srv { a<y: Int> :> this#b<y>  b<z: Int> :> result<z * 10> }, [])
        in w#a<2>
      seen<y: Int> :> result<y>
    })#go<7>""",
    "transparent template captures this next to a parameter": """(spwn srv {
      go<x: Int> :> let s: inst srv { a: <Int>, b: <> } = spwn srv* { a<x: Int> :> this#seen<x>  b<> :> this#seen<x + 100> }
        in (s#a<1> || s#b<>)
      seen<y: Int> :> result<y>
    })#go<7>""",
}


def _image_buffer_holds_parameter():
    """`go<x: Int> :> ((spwn i)#b<> || (spwn (snap (spwn i)))#b<>)` with
    `i = img(srv { a<v: Int> & b<> :> result<v> }, [a<x>])`, built as core:
    the parser takes only values in a buffer."""
    go = parse_expr("srv { go<x: Int> :> par }").rules[0]
    image = Image(parse_expr("srv { a<v: Int> & b<> :> result<v> }"), (MessageValue("a", (Var("x"),)),))
    body = Par((
        Request(ServiceRef(Spwn(image), "b"), ()),
        Request(ServiceRef(Spwn(Snap(Spwn(image))), "b"), ()),
    ))
    template = ServerTemplate((ReactionRule(go.patterns, body),))
    return Request(ServiceRef(Spwn(template), "go"), (BaseLit(3),))


def _observations_on_both_engines(core):
    def key(service, args):
        return json.dumps([service, [value_to_json(a) for a in args]])

    ss = tc.run_smallstep(core)
    rt = tc.run_concurrent(core, virtual_time=True, timeout_ms=10_000)
    try:
        cc = [key(o.service, o.args) for o in rt.log.snapshot()]
    finally:
        rt.shutdown()
    return Counter(key(s, a) for _, s, a in ss.observations), Counter(cc)


@pytest.mark.parametrize("program", list(CAPTURING_BODIES.values()), ids=list(CAPTURING_BODIES))
def test_captured_bindings_agree_with_the_machine(program):
    loaded = tc.load_program(program, include_prelude=False)
    tc.check_expr(loaded.core, loaded.env)
    small, concurrent = _observations_on_both_engines(loaded.core)
    assert small and concurrent == small


def test_image_buffer_holding_a_parameter_agrees_with_the_machine():
    core = _image_buffer_holds_parameter()
    tc.check_expr(core, dict(ENDPOINTS))
    small, concurrent = _observations_on_both_engines(core)
    assert concurrent == small == Counter({'["result", [3]]': 2})


def test_unbound_variable_is_an_open_expression():
    loaded = tc.load_program("(spwn srv { a<> :> result<y> })#a<>", include_prelude=False)
    rt = boot(loaded.core, virtual_time=True)
    try:
        with pytest.raises(MachineError, match="cannot evaluate open expression: Var\\(name='y'"):
            rt.await_quiescence(5_000)
    finally:
        rt.shutdown()


def test_cli_run_of_an_open_program_exits_four(tmp_path, capsys, monkeypatch):
    """Only an unchecked program reaches the runtime open; the pool of the
    failed run stops."""
    from cpl.cli import main

    monkeypatch.setattr(tc, "check_expr", lambda core, env: None)
    f = tmp_path / "open.cpl"
    f.write_text("(spwn srv { a<> :> result<y> })#a<>")
    before = set(threading.enumerate())
    assert main(["run", str(f), "--no-prelude", "--engine=concurrent", "--virtual-time"]) == 4
    assert "cannot evaluate open expression" in capsys.readouterr().err
    assert not pool_threads_left(before)


# Each fault is raised in a firing of `srv { a<x: Int> :> body }` after
# `a<1>`, except the free `this`, which sits in the boot term.
@pytest.mark.parametrize(
    "body, message",
    [
        ("result<y>", "cannot evaluate open expression: Var(name='y')"),
        (None, "cannot evaluate open expression: This()"),
        ("x<2>", "request target is not a service reference: BaseLit(value=1)"),
        ("x#b<2>", "request target is not a service reference: ServiceRef(target=BaseLit(value=1), service='b')"),
        ("result<snap x>", "snap applied to a non-address value: 1"),
        ("repl x zero", "repl applied to a non-address value: 1"),
        ("result<x / 0>", "div: division by zero"),
    ],
)
def test_cli_pins_the_runtime_fault_texts(body, message, tmp_path, capsys, monkeypatch):
    """A fault in a program run unchecked is one stderr line and exit 4."""
    from cpl.cli import main

    monkeypatch.setattr(tc, "check_expr", lambda core, env: None)
    f = tmp_path / "fault.cpl"
    f.write_text(f"(spwn srv {{ a<x: Int> :> {body} }})#a<1>" if body else "result<this>")
    assert main(["run", str(f), "--no-prelude", "--engine=concurrent"]) == 4
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_no_runtime_outlives_its_run():
    """Once its pool threads have exited, nothing holds a finished runtime:
    not the stdlib's rules, which live for the whole process, nor what their
    firings compiled or cached, nor a reference cycle, which would keep it
    until the next collection."""
    import weakref

    before = set(threading.enumerate())
    with run_cc(tc.example_source("wordcount_ft.cpl"), virtual=True) as rt:
        assert not rt.timed_out and cc_obs(rt)
        ref = weakref.ref(rt)
    del rt
    assert not pool_threads_left(before)
    assert ref() is None


def test_firings_substitute_nothing_into_rule_bodies(monkeypatch):
    """A firing evaluates its body under its bindings: on the hot-instance
    burst the number of substitutions does not grow with the burst."""
    calls = []
    real = runtime.substitute
    monkeypatch.setattr(runtime, "substitute", lambda e, s: calls.append(e) or real(e, s))
    counts = {}
    for n in (20, 80):
        calls.clear()
        loaded = tc.load_program(HOT_INSTANCE.read_text(), include_prelude=False, input_value=BaseLit(n))
        rt = tc.run_concurrent(loaded.core, virtual_time=True, timeout_ms=10_000)
        try:
            assert cc_obs(rt) == [n * (n + 1) // 2]
        finally:
            rt.shutdown()
        counts[n] = len(calls)
    assert counts[20] == counts[80]


# Each step spawns one continuation that captures the step's parameters and
# the loop's `this`. Observes N(N+1)/2.
CONTINUATIONS = """(spwn srv {
  go<n: Int, acc: Int> :>
    if n <= 0 then result<acc> else (spwn srv* { k<> :> this#go<n - 1, acc + n> })#k<>
})#go<input, 0>"""


def _substitutions(monkeypatch):
    calls = []
    real = runtime.substitute
    monkeypatch.setattr(runtime, "substitute", lambda e, s: calls.append(e) or real(e, s))
    return calls


def test_spawns_substitute_nothing_into_captured_templates(monkeypatch):
    """A template spawned with all its free variables bound keeps them as
    captured bindings: the number of substitutions does not grow with the
    number of continuations spawned."""
    calls = _substitutions(monkeypatch)
    counts = {}
    for n in (20, 80):
        calls.clear()
        loaded = tc.load_program(CONTINUATIONS, include_prelude=False, input_value=BaseLit(n))
        tc.check_expr(loaded.core, loaded.env)
        rt = tc.run_concurrent(loaded.core, virtual_time=True, timeout_ms=10_000)
        try:
            assert cc_obs(rt) == [n * (n + 1) // 2]
        finally:
            rt.shutdown()
        counts[n] = len(calls)
    assert counts[20] == counts[80]


def test_wordcount_ft_spawns_its_let_wrappers_unclosed(monkeypatch):
    """The stdlib's one-shot `let` wrappers were most of the substitutions
    of a concurrent wordcount_ft run (1 227 of them)."""
    from test_mapreduce import extract_corpus, wordcount_oracle

    oracle = wordcount_oracle(extract_corpus(tc.load_program(tc.example_source("wordcount.cpl")).core))
    calls = _substitutions(monkeypatch)
    with run_cc(tc.example_source("wordcount_ft.cpl"), virtual=True) as rt:
        assert not rt.timed_out
        assert [(o.service, [value_to_json(a) for a in o.args]) for o in rt.log.snapshot()] == [("result", [oracle])]
    assert len(calls) < 100


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
    assert any(t.name.startswith("cpl-rt-") and t not in before for t in threading.enumerate())
    assert not pool_threads_left(before)


def test_shutdown_stops_a_rule_that_sends_to_its_own_instance(tmp_path, capsys):
    """The run times out with the rule still firing; after shutdown no
    firing starts, so the pool stops."""
    from cpl.cli import main

    f = tmp_path / "spin.cpl"
    f.write_text("def A = spwn srv { a<> :> this#a<> }; A#a<>")
    before = set(threading.enumerate())
    assert main(["run", str(f), "--no-prelude", "--engine=concurrent", "--timeout-ms", "300"]) == 2
    assert capsys.readouterr().err == "timeout reached\n"
    assert not pool_threads_left(before)
