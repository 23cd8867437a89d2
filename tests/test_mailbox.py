"""Per-service message queues: the mailbox against a list model, the number
of messages a join reads per attempt whatever the buffer depth, and the
arrival order that snapshots and pending diagnostics show, on both engines."""

import random
import re
import threading

import cpl.machine
import cpl.runtime
from cpl.cli import main
from cpl.core import Addr, Address, BaseLit, JoinPattern, Live, Mailbox, MessageValue, Par, Snap
from cpl.machine import Config, deterministic, step
from cpl.parser import parse_expr
from cpl.runtime import Runtime
from conftest import cc_obs, run_cc, run_ss, ss_obs


def msg(svc, *args):
    return MessageValue(svc, tuple(BaseLit(a) for a in args))


def pats(*keys):
    """Join patterns for (service, arity) keys, with distinct parameters."""
    return tuple(
        JoinPattern(s, tuple((f"p{i}_{j}", None) for j in range(n))) for i, (s, n) in enumerate(keys)
    )


def model_take(patterns, model):
    """The oldest message per pattern, left to right, from a list."""
    left, consumed = list(model), []
    for p in patterns:
        key = (p.service, len(p.params))
        i = next((i for i, m in enumerate(left) if (m.service, len(m.args)) == key), None)
        if i is None:
            return None
        consumed.append(left.pop(i))
    return tuple(consumed), tuple(left)


def test_mailbox_agrees_with_a_list_model():
    rng = random.Random(5)
    keys = [("a", 0), ("a", 1), ("b", 1), ("c", 2)]
    for _ in range(300):
        box, model = Mailbox(), []
        for _ in range(rng.randrange(1, 30)):
            if rng.random() < 0.6:
                s, n = rng.choice(keys)
                m = MessageValue(s, tuple(BaseLit(rng.randrange(9)) for _ in range(n)))
                box, model = box.received(m), model + [m]
            else:
                patterns = pats(*(rng.choice(keys) for _ in range(rng.randrange(1, 4))))
                want = model_take(patterns, model)
                assert box.can_take(patterns) == (want is not None)
                got = box.take(patterns)
                if want is None:
                    assert got is None
                    continue
                consumed, bindings, rest = got
                assert consumed == want[0]
                assert bindings == tuple(
                    (n, v) for p, m in zip(patterns, consumed) for (n, _), v in zip(p.params, m.args)
                )
                box, model = rest, list(want[1])
            assert box.ordered() == tuple(model) and len(box) == len(model)
            assert Mailbox.of(model).ordered() == tuple(model)


def test_every_version_keeps_its_messages_when_histories_branch():
    """The explorer and `Config.copy` keep older mailboxes and extend them
    again, so any version may be received into or taken from."""
    take_a = pats(("a", 1))
    # Two different `received` on one mailbox.
    base = Mailbox.of([msg("a", 0)])
    left, right = base.received(msg("a", 1)), base.received(msg("a", 2))
    # A `received` on a mailbox after a newer version took from it.
    taken = left.take(take_a)[2]
    again = left.received(msg("a", 3))
    # Six takes from ten messages consume more than half of the list.
    tens = [Mailbox.of([msg("a", i) for i in range(10)])]
    for _ in range(7):
        tens.append(tens[-1].take(take_a)[2])
    late = tens[5].received(msg("a", 10))
    assert [m.args[0].value for m in late.ordered()] == [5, 6, 7, 8, 9, 10]
    for box, want in [(base, [0]), (left, [0, 1]), (right, [0, 2]), (taken, [1]), (again, [0, 1, 3])] + [
        (box, list(range(i, 10))) for i, box in enumerate(tens)
    ]:
        assert [m.args[0].value for m in box.ordered()] == want and len(box) == len(want)

    # Random branching histories against the list model; each version's
    # `ordered()` is first computed, and so checked, only at the end.
    rng = random.Random(7)
    keys = [("a", 1), ("b", 1), ("c", 2)]
    for _ in range(150):
        versions = [(Mailbox(), [])]
        for _ in range(rng.randrange(1, 80)):
            # Mostly the newest version, so queues get deep enough to compact.
            box, model = versions[-1] if rng.random() < 0.6 else rng.choice(versions)
            if rng.random() < 0.55:
                s, n = rng.choice(keys)
                m = MessageValue(s, tuple(BaseLit(rng.randrange(9)) for _ in range(n)))
                versions.append((box.received(m), model + [m]))
                continue
            patterns = pats(*(rng.choice(keys) for _ in range(rng.randrange(1, 3))))
            got, want = box.take(patterns), model_take(patterns, model)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                versions.append((got[2], list(want[1])))
        for box, model in versions:
            assert box.ordered() == tuple(model) and len(box) == len(model)


def test_live_keeps_arrival_order_and_compares_by_buffer():
    tmpl = parse_expr("srv { a<x: Int> & b<y: Int> :> par }")
    buffer = (msg("b", 1), msg("a", 2), msg("c"), msg("b", 3))
    live = Live(tmpl, buffer)
    assert live.buffer == buffer
    assert live == Live(tmpl, Mailbox.of(buffer)) == Live(tmpl, list(buffer))
    assert live != Live(tmpl, buffer[::-1])
    grown = Live(tmpl, live.mailbox.received(msg("a", 4)))
    assert grown.buffer == buffer + (msg("a", 4),)
    assert live.buffer == buffer  # the older mailbox is unchanged


# ---------------------------------------------------------------------------
# Messages read per readiness check or take, on a deep buffer
# ---------------------------------------------------------------------------

BURST = 2_000

# One producer sends add<1> .. add<N> to one consumer, then st<0, N>: the
# consumer's buffer holds the whole burst before its join can first fire,
# and each add that arrives meanwhile triggers a readiness check.
BURST_SRC = f"""
def Consumer = spwn srv {{
  add<v: Int> & st<acc: Int, n: Int> :>
    if n <= 1 then result<acc + v> else this#st<acc + v, n - 1>
}};
def Producer = spwn srv {{
  go<i: Int, n: Int> :>
    if i <= 0 then Consumer#st<0, n>
    else (Consumer#add<i> || this#go<i - 1, n>)
}};
Producer#go<{BURST}, {BURST}>
"""

_reads = threading.local()


def _reads_so_far() -> int:
    return getattr(_reads, "n", 0)


class CountedMessage(MessageValue):
    """A message that counts, per thread, each read of its fields."""

    def __getattribute__(self, name):
        if name in ("service", "args"):
            _reads.n = _reads_so_far() + 1
        return object.__getattribute__(self, name)


def count_reads(monkeypatch, engine_module):
    """Make the engine buffer CountedMessages and record, for every
    readiness check or take, the messages read and the mailbox depth."""
    attempts: list[tuple[int, int]] = []

    def measured(fn, depth_of):
        def wrapper(*args, **kwargs):
            before = _reads_so_far()
            try:
                return fn(*args, **kwargs)
            finally:
                attempts.append((_reads_so_far() - before, depth_of(args)))

        return wrapper

    def mailbox_depth(args):
        box = args[0]
        return len(box) if isinstance(box, Mailbox) else 0

    monkeypatch.setattr(engine_module, "MessageValue", CountedMessage)
    monkeypatch.setattr(Mailbox, "can_take", measured(Mailbox.can_take, mailbox_depth))
    monkeypatch.setattr(Mailbox, "take", measured(Mailbox.take, mailbox_depth))
    match = measured(engine_module.match_patterns, lambda a: mailbox_depth(a[1:]))
    monkeypatch.setattr(engine_module, "match_patterns", match)
    if engine_module is cpl.machine:
        reacts = measured(cpl.machine._reacts, lambda a: mailbox_depth((getattr(a[0], "mailbox", None),)))
        monkeypatch.setattr(cpl.machine, "_reacts", reacts)
    return attempts


def check_bounded(attempts):
    # The consumer's rule has two patterns, the most of any rule here.
    assert len(attempts) >= BURST
    assert max(depth for _, depth in attempts) >= BURST
    assert max(reads for reads, _ in attempts) <= 2


def test_smallstep_join_reads_at_most_its_patterns(monkeypatch):
    attempts = count_reads(monkeypatch, cpl.machine)
    res = run_ss(BURST_SRC)
    assert ss_obs(res) == [BURST * (BURST + 1) // 2]
    check_bounded(attempts)


def test_concurrent_join_reads_at_most_its_patterns(monkeypatch):
    attempts = count_reads(monkeypatch, cpl.runtime)
    with run_cc(BURST_SRC, prelude=False) as rt:
        assert cc_obs(rt) == [BURST * (BURST + 1) // 2]
    check_bounded(attempts)


# ---------------------------------------------------------------------------
# Arrival order after a React
# ---------------------------------------------------------------------------

JOIN = parse_expr("srv { a<x: Int> & b<y: Int> & go<> :> par  c<z: Int> & never<> :> par }")
ARRIVALS = (msg("a", 1), msg("c", 0), msg("b", 2), msg("a", 3), msg("c", 9), msg("b", 4), msg("go"))
LEFT = (msg("c", 0), msg("a", 3), msg("c", 9), msg("b", 4))

ORDER_SRC = """
def S = spwn srv { a<x: Int> & b<y: Int> & go<> :> par  c<z: Int> & never<> :> par };
S#a<1> || S#c<0> || S#b<2> || S#a<3> || S#c<9> || S#b<4> || S#go<>
"""


def test_smallstep_snap_after_react_keeps_arrival_order():
    addr = Address(0)
    cfg = Config(Par((Snap(Addr(addr)),)), {addr: Live(JOIN, ARRIVALS)}, 1)
    s = step(cfg, deterministic(0))
    assert (s.rule, s.detail) == ("React", "@0/r1")
    assert s.config.table[addr].buffer == LEFT
    while s.rule != "Snap":
        s = step(s.config, deterministic(0))
    assert s.config.expr.exprs[0].buffer == LEFT


def test_concurrent_snapshot_after_react_keeps_arrival_order():
    rt = Runtime()
    try:
        a = rt.rt_spawn(JOIN)
        for m in ARRIVALS:
            rt.rt_send(a, m.service, m.args)
        rt.await_quiescence(5_000)
        assert rt.rt_snapshot(a).buffer == LEFT
        assert [m for _, m in rt.pending_summary()] == list(LEFT)
    finally:
        rt.shutdown()


def test_pending_diagnostic_lists_arrival_order_on_both_engines(tmp_path, capsys):
    f = tmp_path / "order.cpl"
    f.write_text(ORDER_SRC)
    for engine in ("smallstep", "concurrent"):
        assert main(["run", str(f), "--no-prelude", f"--engine={engine}"]) == 2
        err = capsys.readouterr().err
        shown = re.findall(r"(\w<\d*>) at addr", err)
        assert shown == ["c<0>", "a<3>", "c<9>", "b<4>"], (engine, err)
