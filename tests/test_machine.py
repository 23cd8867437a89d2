"""Small-step machine: rule behavior, golden factorial trace, determinism,
bounded exploration."""

import hashlib

import pytest

import cpl.machine
import cpl.toolchain as tc
from cpl.core import (
    Addr,
    Address,
    BaseLit,
    BaseOp,
    ExternalRef,
    If,
    Image,
    JoinPattern,
    MessageValue,
    ReactionRule,
    Repl,
    ServerTemplate,
    Top,
    TypeAbs,
    Inert,
    Live,
    Par,
    Request,
    ServiceRef,
    Snap,
    Spwn,
    TypeApp,
    Var,
    ZeroImage,
    is_value,
    shape_of,
)
from cpl.errors import StuckError
from cpl.machine import (
    COMPLETED,
    QUIESCENT,
    STEP_LIMIT,
    Config,
    Trace,
    deterministic,
    digest,
    enumerate_reachable,
    initial_config,
    pending_messages,
    run,
    step,
    terminal_configs,
)
from cpl.parser import parse_expr
from cpl.pretty import pretty_expr
from conftest import FACT_SRC, run_ss, ss_obs


def boot(text, prelude=False):
    loaded = tc.load_program(text, include_prelude=prelude)
    return initial_config(tc.wire_observers(loaded.core))


class TestRules:
    def test_par_flattening(self):
        cfg = initial_config(Par((Par((Var("a"),)), Var("b"))))
        s = step(cfg, deterministic(0))
        assert s.rule == "Par"
        assert s.config.expr == Par((Var("a"), Var("b")))

    def test_par_flatten_preserves_leaves(self):
        cfg = initial_config(Par((Par((Var("a"), Var("b"))), Par(()), Var("c"))))
        leaves_before = ["a", "b", "c"]
        current = cfg
        while True:
            s = step(current, deterministic(0))
            if s is None or s.rule != "Par":
                break
            current = s.config
        names = [e.name for e in current.expr.exprs if isinstance(e, Var)]
        assert names == leaves_before

    def test_spwn_allocates_fresh(self):
        cfg = boot("spwn srv { a<> :> par }")
        pre = digest(cfg)
        s = None
        current = cfg
        while s is None or s.rule != "Spwn":
            s = step(current, deterministic(0))
            current = s.config
        addr = [a for a in current.table][0]
        assert addr.id == 0
        assert f"@{addr.id}" not in pre or True  # id equals the old next_address
        assert cfg.next_address == 0 and current.next_address == 1

    def test_snap_purity(self):
        cfg = boot("(spwn srv { a<x: Int> :> par })#a<1>")
        current = cfg
        for _ in range(10):
            s = step(current, deterministic(0))
            if s is None:
                break
            current = s.config
        addr = list(current.table)[0]
        snap_cfg = current.copy()
        snap_cfg.expr = Par((Snap(Addr(addr)),))
        s = step(snap_cfg, deterministic(0))
        assert s.rule == "Snap"
        assert s.config.table == snap_cfg.table  # mu unchanged

    def test_snap_of_inert_is_zero(self):
        addr = Address(0)
        cfg = Config(Par((Snap(Addr(addr)),)), {addr: Inert()}, 1)
        s = step(cfg, deterministic(0))
        assert s.config.expr.exprs[0] == ZeroImage()

    def test_snap_unallocated_is_stuck(self):
        cfg = Config(Par((Snap(Addr(Address(9))),)), {}, 0)
        with pytest.raises(StuckError):
            step(cfg, deterministic(0))

    def test_repl_overwrites_and_yields_unit(self):
        tmpl = parse_expr("srv { a<x: Int> :> par }")
        addr = Address(0)
        cfg = Config(
            Par((parse_expr("repl @0 zero"),)),
            {addr: Live(tmpl, ())},
            1,
        )
        s = step(cfg, deterministic(0))
        assert s.rule == "Repl"
        assert isinstance(s.config.table[addr], Inert)
        assert s.config.expr.exprs[0] == Par(())

    def test_rcv_appends_to_buffer(self):
        tmpl = parse_expr("srv { a<x: Int> & b<> :> par }")
        addr = Address(0)
        cfg = Config(
            Par((Request(ServiceRef(Addr(addr), "a"), (BaseLit(1),)),)),
            {addr: Live(tmpl, ())},
            1,
        )
        s = step(cfg, deterministic(0))
        assert s.rule == "Rcv"
        entry = s.config.table[addr]
        assert [m.service for m in entry.buffer] == ["a"]
        assert s.config.expr.exprs[0] == Par(())

    def test_rcv_to_inert_is_not_deliverable(self):
        addr = Address(0)
        cfg = Config(
            Par((Request(ServiceRef(Addr(addr), "a"), ()),)),
            {addr: Inert()},
            1,
        )
        s = step(cfg, deterministic(0))
        assert s is None  # quiescent with an in-transit request

    def test_type_application_contracts(self):
        cfg = boot("(/\\a. spwn srv { id<x: a> :> par })[Int]")
        rules = []
        current = cfg
        while True:
            s = step(current, deterministic(0))
            if s is None:
                break
            rules.append(s.rule)
            current = s.config
        assert "TAppAbs" in rules and "Spwn" in rules

    def test_if_is_lazy(self):
        # The unreached branch must not execute its request.
        res = run_ss("(spwn srv { a<> :> if true then result<1> else result<2> })#a<>")
        assert ss_obs(res) == [1]


class TestEvaluationPositions:
    def test_if_contracts_its_condition_only(self):
        cond = BaseOp("lt", (BaseLit(1), BaseLit(2)))
        then = BaseOp("add", (BaseLit(1), BaseLit(1)))
        orelse = BaseOp("add", (BaseLit(2), BaseLit(2)))
        s = step(initial_config(If(cond, then, orelse)), deterministic(0))
        assert s.rule == "Base"
        assert s.config.expr == Par((If(BaseLit(True), then, orelse),))
        s = step(s.config, deterministic(0))
        assert s.rule == "If" and s.config.expr == Par((then,))

    def test_no_redex_under_type_abstraction_or_template(self):
        redex = BaseOp("add", (BaseLit(1), BaseLit(1)))
        tmpl = ServerTemplate((ReactionRule((JoinPattern("go", ()),), redex),))
        cfg = initial_config(Par((TypeAbs("a", Top(), redex), tmpl)))
        assert step(cfg, deterministic(0)) is None


def _ready_from_table(config):
    """The ready set recomputed from scratch by a config built without one."""
    return Config(config.expr, dict(config.table), config.next_address).ready


def _one_message(tmpl_src):
    return parse_expr(tmpl_src), (MessageValue("a", (BaseLit(1),)),)


class TestReadySet:
    def test_hand_built_table_with_matching_buffer_reacts(self):
        tmpl, buffer = _one_message("srv { b<> :> par  a<x: Int> :> par }")
        addr = Address(0)
        cfg = Config(Par(()), {addr: Live(tmpl, buffer)}, 1)
        assert cfg.ready == {addr}
        s = step(cfg, deterministic(0))
        assert (s.rule, s.detail) == ("React", "@0/r2")
        assert s.config.table[addr] == Live(tmpl, ())
        assert s.config.ready == set() and cfg.ready == {addr}

    @pytest.mark.parametrize("seed, order", [(0, ["@0/r1", "@1/r1", "@1/r1"]), (1, ["@1/r1", "@0/r1", "@1/r1"])])
    def test_round_robin_from_cursor(self, seed, order):
        tmpl, buffer = _one_message("srv { a<x: Int> :> par }")
        table = {Address(0): Live(tmpl, buffer), Address(1): Live(tmpl, buffer + buffer)}
        policy = deterministic(seed)
        current, reacts = Config(Par(()), table, 2), []
        while (s := step(current, policy)) is not None:
            if s.rule == "React":
                reacts.append(s.detail)
            current = s.config
        # Each firing moves the cursor past the instance that fired; @1 holds
        # two messages and fires twice.
        assert reacts == order

    def test_repl_of_inert_with_matching_image_reacts_next(self):
        tmpl, buffer = _one_message("srv { a<x: Int> :> par }")
        addr = Address(0)
        cfg = Config(Par((Repl(Addr(addr), Image(tmpl, buffer)),)), {addr: Inert()}, 1)
        assert cfg.ready == set()
        s = step(cfg, deterministic(0))
        assert s.rule == "Repl" and s.config.ready == {addr}
        rules = []
        current = s.config
        while (s := step(current, deterministic(0))) is not None:
            rules.append(f"{s.rule} {s.detail}".strip())
            current = s.config
        assert rules == ["Par", "React @0/r1", "Par"]

    def test_reassigned_expr_after_copy_steps_correctly(self):
        tmpl, buffer = _one_message("srv { a<x: Int> :> par }")
        addr = Address(0)
        cfg = Config(Par(()), {addr: Live(tmpl, buffer)}, 1)
        nested = cfg.copy()
        nested.expr = Par((Par(()), BaseOp("add", (BaseLit(1), BaseLit(1)))))
        assert step(nested, deterministic(0)).rule == "Par"
        flat = cfg.copy()
        flat.expr = Par((BaseOp("add", (BaseLit(1), BaseLit(1))),))
        rules = []
        current = flat
        while (s := step(current, deterministic(0))) is not None:
            rules.append(s.rule)
            current = s.config
        assert rules == ["React", "Par", "Base"]  # React goes before contraction
        assert current.expr == Par((BaseLit(2),))

    @pytest.mark.parametrize("name", ["fact.cpl", "supervision_demo.cpl"])
    def test_stepping_is_pure_and_ready_set_exact(self, name):
        current = boot(tc.example_source(name), prelude=True)
        seen = set()
        while True:
            table, ready = dict(current.table), set(current.ready)
            assert ready == _ready_from_table(current)
            s1 = step(current, deterministic(3))
            s2 = step(current, deterministic(3))
            assert s1 == s2
            assert current.table == table and current.ready == ready
            if s1 is None:
                break
            assert s1.config.ready == s2.config.ready
            seen.add(s1.rule)
            current = s1.config
        assert {"Rcv", "React", "Spwn"} <= seen
        if name == "supervision_demo.cpl":
            assert {"Snap", "Repl"} <= seen

    def test_match_calls_per_step_are_bounded(self, monkeypatch):
        calls = steps = 0
        match, inner = cpl.machine.match_patterns, cpl.machine.step

        def counting_match(*args):
            nonlocal calls
            calls += 1
            return match(*args)

        def counting_step(*args):
            nonlocal steps
            steps += 1
            return inner(*args)

        monkeypatch.setattr(cpl.machine, "match_patterns", counting_match)
        monkeypatch.setattr(cpl.machine, "step", counting_step)
        res = run_ss(tc.example_source("wordcount.cpl"), prelude=True, max_steps=5_000_000)
        assert res.status == COMPLETED and steps > 5_000
        assert calls <= 2 * steps


class TestRun:
    def test_factorial_golden_sequence(self):
        loaded = tc.load_program(tc.example_source("fact.cpl"), include_prelude=False)
        trace = Trace()
        res = tc.run_smallstep(loaded.core, seed=1, sink=trace)
        assert res.status == COMPLETED
        assert ss_obs(res) == [6]
        assert trace.normalized_rules() == [
            "Spwn",
            "Rcv",
            "React @0/r1",
            "Rcv", "Rcv", "Rcv",
            "React @0/r2",
            "Rcv", "Rcv",
            "React @0/r2",
            "Rcv", "Rcv",
            "React @0/r2",
            "Rcv",
            "React @0/r3",
        ]

    def test_factorial_of_five(self):
        src = FACT_SRC + "(spwn Fact)#main<5, result>"
        res = run_ss(src)
        assert ss_obs(res) == [120]

    def test_step_limit(self):
        loaded = tc.load_program(tc.example_source("fact.cpl"), include_prelude=False)
        res = tc.run_smallstep(loaded.core, max_steps=0)
        assert res.status == STEP_LIMIT

    def test_quiescent_with_pending(self):
        loaded = tc.load_program(tc.example_source("stuck.cpl"), include_prelude=False)
        res = tc.run_smallstep(loaded.core)
        assert res.status == COMPLETED  # top reduces to unit values
        pend = pending_messages(res.final)
        assert [(a.id, m.service) for a, m in pend] == [(0, "foo")]

    def test_determinism_identical_traces(self):
        loaded = tc.load_program(tc.example_source("fact.cpl"), include_prelude=False)
        t1, t2 = Trace(), Trace()
        tc.run_smallstep(loaded.core, seed=7, sink=t1)
        tc.run_smallstep(loaded.core, seed=7, sink=t2)
        assert t1.render() == t2.render()
        assert t1.render()

    def test_machine_timers_fire_on_quiescence(self):
        src = "(spwn srv { a<> :> timer<50, this#b>  b<> :> result<9> })#a<>"
        res = run_ss(src)
        assert ss_obs(res) == [9]
        assert res.final.logical_time >= 50


class TestEnumerate:
    def test_unit_reaches_only_itself(self):
        cfg = initial_config(Par(()))
        reach = enumerate_reachable(cfg, depth=5)
        assert len(reach) == 1

    def test_two_firable_rules_both_reachable(self):
        src = "(spwn srv { a<> :> result<1>  a<> :> result<2> })#a<>"
        loaded = tc.load_program(src, include_prelude=False)
        cfg = initial_config(tc.wire_observers(loaded.core))
        reach = enumerate_reachable(cfg, depth=8)
        outcomes = set()
        for t in terminal_configs(reach):
            outcomes.add(tuple(sorted(a[0].value for _, s, a in t.observations)))
        assert outcomes == {(1,), (2,)}

    def test_message_choice_both_orders(self):
        src = "((spwn srv { a<x: Int> :> result<x> })#a<1> || par)"
        loaded = tc.load_program(src, include_prelude=False)
        cfg = initial_config(tc.wire_observers(loaded.core))
        reach = enumerate_reachable(cfg, depth=8)
        finals = {tuple(sorted(a[0].value for _, s, a in t.observations)) for t in terminal_configs(reach)}
        assert finals == {(1,)}

    def test_factorial_outcomes_unique(self):
        loaded = tc.load_program(tc.example_source("fact.cpl"), include_prelude=False)
        cfg = initial_config(tc.wire_observers(loaded.core))
        reach = enumerate_reachable(cfg, depth=60, state_cap=60_000)
        outs = set()
        for t in terminal_configs(reach):
            outs.add(tuple(sorted(a[0].value for _, s, a in t.observations)))
        assert outs == {(6,)}


def _digest_hash(digests) -> str:
    return hashlib.sha256("\n".join(sorted(digests)).encode()).hexdigest()[:16]


# (program, depth, state cap) -> (reachable count, hash of the sorted reachable
# digests, terminal count, hash of the sorted terminal digests). Recorded from
# the explorer that re-implemented the rules; the explorer that runs `step`'s
# rule functions must reach exactly the same configurations.
EXPLORATION_PINS = [
    (None, 5, 20_000, (1, "e174ac50bd9b37b6", 1, "e174ac50bd9b37b6")),
    ("(spwn srv { a<> :> result<1>  a<> :> result<2> })#a<>", 8, 20_000,
     (7, "92b49370d8a9606e", 2, "18d63880964dcb48")),
    ("((spwn srv { a<x: Int> :> result<x> })#a<1> || par)", 8, 20_000,
     (5, "1423ca1fe8d60d98", 1, "5b81548423a58f9c")),
    ("fact.cpl", 60, 60_000, (58, "5dec727ecd346fdf", 1, "a6c375572bd68409")),
    ("(spwn srv { a<> :> result<1> })#a<>", 80, 120_000, (5, "ab28925227cbef40", 1, "5c8cca6ffea43702")),
    ("((spwn srv { a<x: Int> :> result<x> })#a<1> || (spwn srv { b<> :> result<2> })#b<>)", 80, 120_000,
     (45, "f35246f2f799058d", 4, "0c0e7ae2420a1cc2")),
    (FACT_SRC + "(spwn Fact)#main<2, result>", 80, 120_000, (45, "a7fdc5ac4fa1e20f", 1, "96b6c2b95b813582")),
    (FACT_SRC + "((spwn Fact)#main<2, result> || (spwn Fact)#main<3, result>)", 4, 50_000,
     (6, "d9e45292f8fddb07", 0, "e3b0c44298fc1c14")),
    # Two timers with the same deadline: the explorer fires one at a time.
    ("(spwn srv { a<> :> timer<50, this#b> || timer<50, this#c>  b<> :> result<1> c<> :> result<2> })#a<>",
     20, 20_000, (24, "73cf51f09b36938a", 2, "bf5f9bda2623cd11")),
    ("let w = spwn srv { a<x: Int> :> result<x> } in (let i = snap w in (repl w i || w#a<3>))", 20, 20_000,
     (35, "77c1e19d560f50c3", 4, "d3ba9487aa78a2ff")),
]


@pytest.mark.parametrize("src, depth, cap, expected", EXPLORATION_PINS, ids=range(len(EXPLORATION_PINS)))
def test_exploration_digest_sets_pinned(src, depth, cap, expected):
    if src is None:
        cfg = initial_config(Par(()))
    else:
        cfg = boot(tc.example_source(src) if src.endswith(".cpl") else src)
    reach = enumerate_reachable(cfg, depth=depth, state_cap=cap)
    terminals = [digest(t) for t in terminal_configs(reach)]
    assert (len(reach), _digest_hash(reach), len(terminals), _digest_hash(terminals)) == expected


def test_explorer_contracts_each_occurrence_of_a_shared_subterm():
    """Two firings of rule b append the same closed `spwn` object twice, so
    the configuration `(spwn T)#c<> || (spwn T)#c<>` holds one object at two
    positions. Each position is its own Spwn redex and reaches its own state."""
    reach = enumerate_reachable(
        boot("(spwn srv { a<> :> (this#b<> || this#b<>)  b<> :> (spwn srv { c<> :> result<1> })#c<> })#a<>"),
        depth=12,
    )
    assert len(reach) == 35

    def callees(cfg):
        return tuple(type(x.callee.target).__name__ for x in cfg.expr.exprs if isinstance(x, Request))

    shared = [c for c in reach.values() if len(c.expr.exprs) == 2 and c.expr.exprs[0] is c.expr.exprs[1]]
    assert [callees(c) for c in shared] == [("Spwn", "Spwn")]
    successors = {callees(c) for c in enumerate_reachable(shared[0], depth=1).values()}
    assert {("Addr", "Spwn"), ("Spwn", "Addr")} <= successors


class TestPolicyAndBounds:
    def test_enumerate_explosion_error(self):
        import pytest as _pytest
        from cpl.errors import ExplosionError

        src = FACT_SRC + "((spwn Fact)#main<5, result> || (spwn Fact)#main<6, result>)"
        loaded = tc.load_program(src, include_prelude=False)
        cfg = initial_config(tc.wire_observers(loaded.core))
        with _pytest.raises(ExplosionError):
            enumerate_reachable(cfg, depth=40, state_cap=200)


# sha256 over every `step` call of `run_smallstep` with the prelude: one line
# "<rule> <detail>" per step and "-" when step reports no redex (run then
# fires timers or stops), then the run status and the final observations.
# Taken from the scheduler that scanned every instance on every step, before
# the ready set replaced it; both must choose the same redex at every step.
# wordcount_ft's, which covers timers, Snap and Repl, was taken later from the
# ready-set scheduler that walked every top-level component on every step.
SCHEDULE_FINGERPRINTS = {
    "fact.cpl": "130b253c131bc8802367696443814a25d5e44782c2a707fe4653e5604b708e3b",
    "stuck.cpl": "d98f36d8919cb3152fdeb66fcbf319cfd9825097fff74113396e734bf92de837",
    "supervision_demo.cpl": "52ec9926da3b12c633731b2b91061154eedf8c0540c4157c296d0f84662a5eb6",
    "wordcount.cpl": "798f7d9d461262b9163d4bba9c1aa2658faf812e5960a50850d8a2c4371c73c4",
    "wordcount_lb.cpl": "5bb30763021b48df64d6c0329cde2852872337d4e30f2900febe29829eef802f",
    "wordcount_ft.cpl": "8e0fb3912a0db78e04857a4285d80d1d44a8d45ad6d6635d9b997e3f52e00fa8",
}


def schedule_fingerprint(monkeypatch, name, seed):
    h = hashlib.sha256()
    inner = cpl.machine.step

    def recording(config, policy):
        s = inner(config, policy)
        h.update(b"-\n" if s is None else f"{s.rule} {s.detail}\n".encode())
        return s

    loaded = tc.load_program(tc.example_source(name))
    with monkeypatch.context() as m:
        m.setattr(cpl.machine, "step", recording)
        res = tc.run_smallstep(loaded.core, seed=seed)
    h.update(f"{res.status}\n".encode())
    for t, svc, args in res.observations:
        h.update(f"{t} {svc} {','.join(pretty_expr(a) for a in args)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(SCHEDULE_FINGERPRINTS))
def test_schedule_fingerprint(monkeypatch, name, seed):
    assert schedule_fingerprint(monkeypatch, name, seed) == SCHEDULE_FINGERPRINTS[name]


# ---------------------------------------------------------------------------
# The redex search read off per-component summaries
# ---------------------------------------------------------------------------


def _reference_scan(root, table):
    """One full pre-order walk over the evaluation positions of root, with
    no summary: the first Par redex (the walk stops there), the first
    deliverable request and the first evaluated contraction candidate."""
    rcv = red = None
    todo = [] if is_value(root) else [(root, None)]
    while todo:
        site = todo.pop()
        x = site[0]
        shape = shape_of(x)
        kids = shape.children(x)
        if type(x) is Par:
            if any(type(y) is Par for y in x.exprs):
                return site, rcv, red
        elif type(x) is Request:
            callee = x.callee
            if rcv is None and all(is_value(a) for a in x.args) and (
                isinstance(callee, ExternalRef)
                or isinstance(callee, ServiceRef)
                and isinstance(callee.target, Addr)
                and isinstance(table.get(callee.target.address), Live)
            ):
                rcv = site
        elif red is None and type(x) in (Spwn, Snap, Repl, TypeApp, BaseOp, If):
            if all(is_value(k) for k in kids[: shape.evals]):
                red = site
        for i in reversed(range(len(kids) if shape.evals is None else shape.evals)):
            if not is_value(kids[i]):
                todo.append((kids[i], (x, kids, i, site[1])))
    return None, rcv, red


_HOLE = Var("the hole of a plugged position")


def _same_site(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return got[0] is want[0] and cpl.machine._plug(got[1], _HOLE) == cpl.machine._plug(want[1], _HOLE)


def _run_checking_scans(monkeypatch, config, seed, max_steps=500_000):
    """Run config, comparing on every step the scan `step` reads with a full
    walk: the same Par redex, request and contraction candidate, each the
    same node at the same position."""
    inner = cpl.machine.step
    steps = 0

    def checking(config, policy):
        nonlocal steps
        steps += 1
        got = cpl.machine._scan(config.expr, config.table, cpl.machine._CONTRACTIBLE)
        want = _reference_scan(config.expr, config.table)
        assert [_same_site(g, w) for g, w in zip(got, want)] == [True] * 3, f"step {steps}"
        return inner(config, policy)

    with monkeypatch.context() as m:
        m.setattr(cpl.machine, "step", checking)
        res = run(config, deterministic(seed), max_steps)
    return res, steps


# The hot-instance burst of `perfbench/programs/hot_instance.cpl` at N = 60,
# without the prelude: one instance whose buffer holds the whole burst before
# its first firing.
HOT_BURST = """
def Consumer = spwn srv {
  add<v: Int> & st<acc: Int, n: Int> :>
    if n <= 1 then result<acc + v> else this#st<acc + v, n - 1>
};

def Producer = spwn srv {
  go<i: Int, n: Int> :>
    if i <= 0 then Consumer#st<0, n>
    else (Consumer#add<i> || this#go<i - 1, n>)
};

Producer#go<60, 60>
"""


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(SCHEDULE_FINGERPRINTS) + ["hot_instance burst"])
def test_cached_scan_matches_a_full_walk(monkeypatch, name, seed):
    config = boot(HOT_BURST) if name == "hot_instance burst" else boot(tc.example_source(name), prelude=True)
    res, steps = _run_checking_scans(monkeypatch, config, seed)
    assert steps > 50
    assert res.status == COMPLETED


def test_cached_scan_stops_at_a_nested_par_redex(monkeypatch):
    # The walk stops inside the first component, so neither the base
    # operation after the nested Par nor the later request is reported.
    nested = Request(ExternalRef("result"), (Par((Par(()),)), BaseOp("add", (BaseLit(1), BaseLit(2)))))
    config = Config(Par((nested, Request(ExternalRef("print"), (BaseLit(3),)))), {}, 0)
    assert cpl.machine._scan(config.expr, config.table, cpl.machine._CONTRACTIBLE)[1:] == (None, None)
    res, steps = _run_checking_scans(monkeypatch, config, 0)
    assert res.status == COMPLETED and steps == 7


def test_request_waits_on_an_inert_address_until_repl_revives_it(monkeypatch):
    # The request w#a<1> joins the top level while w is inert. Its summary,
    # cached then, lists it; the Repl that makes w live again does not touch
    # it, and the next scan finds it deliverable.
    src = """
let w: inst srv { a: <Int> } = spwn srv { a<x: Int> :> result<x> } in
let i: img srv { a: <Int> } = snap w in
(spwn srv { go<u: Unit> :> (w#a<1> || this#back<>)  back<> :> repl w i })#go<repl w zero>
"""
    res, _ = _run_checking_scans(monkeypatch, boot(src), 0)
    assert res.status == COMPLETED
    assert ss_obs(res) == [1]
    trace = Trace()
    run(boot(src), deterministic(0), 1_000, trace)
    events = [f"{s.rule} {s.detail}" for s in trace.steps]
    first, second = [i for i, e in enumerate(events) if e == "Repl @1"]
    waiting = [s.top for s in trace.steps[first + 1 : second]]
    assert any("@1#a<1>" in top for top in waiting)
    assert events.index("Rcv @1") > second


# A run, without the prelude, in which `step` reports every rule kind: the
# six rules, Base, If and TAppAbs, and requests to the engine endpoints.
EVERY_RULE = """
let w: inst srv { a: <Int> } = spwn srv { a<x: Int> :> result<x> } in
let i: img srv { a: <Int> } = snap w in
(spwn srv {
  go<u: Unit> :> w#a<1 + 2> || timer<5, this#back> || (if 1 <= 2 then print<3> else print<4>)
  back<> :> repl w i
})#go<(/\\a. par)[Int]>
"""


def test_a_step_leaves_its_parent_config_as_it_was(monkeypatch):
    # The bounded explorer applies many steps to one configuration, so a
    # step must not change its parent's term, table or ready set. A step
    # that writes no entry shares the parent's table and ready set; the
    # others write into a copy.
    writers = {"Rcv", "React", "Spwn", "Repl"}
    inner = cpl.machine.step
    seen = set()

    def checking(config, policy):
        expr, table, ready = config.expr, dict(config.table), set(config.ready)
        s = inner(config, policy)
        assert config.expr is expr and config.ready == ready
        assert config.table.keys() == table.keys()
        assert all(config.table[a] is entry for a, entry in table.items())
        if s is not None:
            seen.add(s.rule)
            shares = s.config.table is config.table, s.config.ready is config.ready
            assert shares == ((False, False) if s.rule in writers else (True, True)), s.rule
        return s

    with monkeypatch.context() as m:
        m.setattr(cpl.machine, "step", checking)
        res = run(boot(EVERY_RULE), deterministic(0), 1_000)
    assert res.status == COMPLETED and ss_obs(res) == [3]
    assert seen == {"Par", "Rcv", "React", "Spwn", "Snap", "Repl", "Base", "If", "TAppAbs", "Obs", "Timer"}


def test_a_dropped_component_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    # One component with a nested contraction candidate and one that is its
    # own first site: neither summary may hold its component.
    comps = [
        Request(ExternalRef("result"), (BaseOp("add", (BaseLit(1), BaseLit(2))),)),
        Request(ExternalRef("print"), (BaseLit(3),)),
    ]
    refs = [weakref.ref(c) for c in comps]
    config = Config(Par(tuple(comps)), {}, 0)
    del comps
    enabled = gc.isenabled()
    gc.disable()
    try:
        trace = Trace()
        run(config, deterministic(0), 100, trace)
        assert [(s.rule, s.detail) for s in trace.steps] == [
            ("Obs", "print"), ("Par", ""), ("Base", ""), ("Obs", "result"), ("Par", ""),
        ]
        del config
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
