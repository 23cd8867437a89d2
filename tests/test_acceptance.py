"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and bounds are pinned here, not configurable.
"""

import collections
import itertools
import json
import random
import sys
import time

import pytest

import cpl.toolchain as tc
from cpl.cli import main as cli_main
from cpl.core import BaseLit, JoinPattern, MessageValue, BaseT
from cpl.machine import (
    COMPLETED,
    Trace,
    deterministic,
    enumerate_matches,
    enumerate_reachable,
    initial_config,
    match_patterns,
    terminal_configs,
)
from cpl.runtime import value_to_json
from cpl.typecheck import TypeContext, subtype
from conftest import FACT_SRC, cc_obs, run_cc, run_ss, ss_obs
from declarative import declarative_relation, universe_depth3
from test_mapreduce import extract_corpus, wordcount_oracle
from test_subtyping_meta import random_type, widen

EMPTY = TypeContext()


def report(n, text):
    print(f"ACCEPTANCE {n:>2}: PASS  {text}", file=sys.stderr)


def test_criterion_01_factorial_golden():
    t0 = time.time()
    loaded = tc.load_program(tc.example_source("fact.cpl"), include_prelude=False)
    trace = Trace()
    res = tc.run_smallstep(loaded.core, seed=1, sink=trace)
    assert res.status == COMPLETED
    assert ss_obs(res) == [6]
    assert trace.normalized_rules() == [
        "Spwn", "Rcv", "React @0/r1",
        "Rcv", "Rcv", "Rcv", "React @0/r2",
        "Rcv", "Rcv", "React @0/r2",
        "Rcv", "Rcv", "React @0/r2",
        "Rcv", "React @0/r3",
    ]
    res5 = run_ss(FACT_SRC + "(spwn Fact)#main<5, result>")
    assert ss_obs(res5) == [120]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"factorial golden: 6 and 120, trace matches the published sequence ({elapsed:.2f}s)")


def test_criterion_02_parallel_non_interference():
    src = FACT_SRC + "((spwn Fact)#main<3, result> || (spwn Fact)#main<5, result>)"
    for seed in range(10):
        res = run_ss(src, seed=seed)
        assert sorted(ss_obs(res)) == [6, 120], seed
    for _ in range(10):
        with run_cc(src, prelude=False, timeout_ms=15_000) as rt:
            assert sorted(cc_obs(rt)) == [6, 120]
    report(2, "two-instance factorial yields {6, 120} under 10 seeds on both engines")


def test_criterion_03_progress_counterexample(capsys):
    stuck = tc.example_path("stuck.cpl")
    assert cli_main(["check", stuck]) == 0
    code = cli_main(["run", stuck, "--no-prelude", "--max-steps", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == "quiescent: 1 pending message (foo<> at addr 0)"
    report(3, "stuck.cpl typechecks (exit 0) and runs quiescent-with-pending (exit 2)")


def test_criterion_04_match_oracle_equivalence():
    t0 = time.time()
    INT = BaseT("Int")
    services = ("a", "b", "c")
    atoms = [
        JoinPattern(s, tuple((f"q{i}", INT) for i in range(n)))
        for s in services
        for n in (0, 1)
    ]
    msgs = [MessageValue(s, ()) for s in services] + [
        MessageValue(s, (BaseLit(v),)) for s in services for v in (1, 2)
    ]

    def rename(ps):
        return tuple(
            JoinPattern(p.service, tuple((f"p{i}_{j}", t) for j, (_, t) in enumerate(p.params)))
            for i, p in enumerate(ps)
        )

    pattern_lists = []
    for n in (1, 2, 3):
        pattern_lists += [rename(c) for c in itertools.product(atoms, repeat=n)]

    rng = random.Random(4)
    small_buffers = [()]
    for n in (1, 2, 3):
        small_buffers.extend(itertools.product(msgs, repeat=n))
    checked = 0
    for patterns in pattern_lists:
        sampled = [tuple(rng.choice(msgs) for _ in range(rng.randrange(4, 7))) for _ in range(4)]
        for buffer in itertools.chain(small_buffers, sampled):
            results = enumerate_matches(patterns, buffer)
            for m in results:
                assert collections.Counter(m.consumed) + collections.Counter(m.residual) \
                    == collections.Counter(buffer)
                assert len(m.consumed) == len(patterns)
                expected = {}
                for p, c in zip(patterns, m.consumed):
                    assert c.service == p.service and len(c.args) == len(p.params)
                    for (name, _), v in zip(p.params, c.args):
                        expected[name] = v
                assert m.substitution() == expected
            det = match_patterns(patterns, buffer, deterministic(0))
            keys = {(m.consumed, m.residual, m.subst) for m in results}
            if det is None:
                assert not keys
            else:
                assert (det.consumed, det.residual, det.subst) in keys
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, f"match oracle: {checked} pattern/buffer pairs, all clauses hold ({elapsed:.1f}s)")


def test_criterion_05_preservation_fuzz():
    from test_preservation import CORPUS, preservation_steps

    t0 = time.time()
    total = sum(preservation_steps(t, prelude=p) for t, p in CORPUS)
    par67 = FACT_SRC + "((spwn Fact)#main<6, result> || (spwn Fact)#main<7, result>)"
    for seed in range(5):
        total += preservation_steps(par67, seed=seed)
    total += preservation_steps(
        tc.example_source("supervision_demo.cpl"), prelude=True, max_steps=120
    )
    elapsed = time.time() - t0
    assert total >= 1000
    assert elapsed < 60.0
    report(5, f"preservation: {total} steps re-typechecked, zero violations ({elapsed:.1f}s)")


def test_criterion_06_subtyping_metatheory():
    rng = random.Random(20260808)
    for _ in range(10_000):
        t1 = random_type(rng, rng.randrange(5))
        assert subtype(EMPTY, t1, t1)
        t2 = widen(rng, t1)
        t3 = widen(rng, t2)
        assert subtype(EMPTY, t1, t2) and subtype(EMPTY, t2, t3) and subtype(EMPTY, t1, t3)
    universe = universe_depth3()
    rel = declarative_relation(universe)
    for i, a in enumerate(universe):
        for j, b in enumerate(universe):
            assert subtype(EMPTY, a, b) == ((i, j) in rel)
    report(6, f"subtyping: refl+trans on 1e4 triples; declarative agreement on {len(universe)}^2 pairs")


def test_criterion_07_mapreduce_variants():
    loaded = tc.load_program(tc.example_source("wordcount.cpl"))
    oracle = wordcount_oracle(extract_corpus(loaded.core))
    timings = {}
    for name, virtual in (
        ("wordcount.cpl", False),
        ("wordcount_lb.cpl", False),
        ("wordcount_ft.cpl", True),
    ):
        t0 = time.time()
        with run_cc(tc.example_source(name), virtual=virtual, timeout_ms=30_000) as rt:
            res = cc_obs(rt)
            assert res == [oracle], name
        timings[name] = time.time() - t0
        assert timings[name] < 5.0, (name, timings[name])
    report(7, "wordcount, makeLB and fault-tolerant variants all equal the fold oracle: "
              + ", ".join(f"{k} {v:.2f}s" for k, v in timings.items()))


def test_criterion_08_load_balancing():
    from test_stdlib import ROUND_ROBIN_100

    res = run_ss(ROUND_ROBIN_100, prelude=True, max_steps=5_000_000)
    tags = ss_obs(res, "event")
    counts = {t: tags.count(t) for t in (1, 2, 3, 4)}
    assert counts == {1: 25, 2: 25, 3: 25, 4: 25}
    src = """
def Blocked = srv { force<kq: <Int>> :> par };
def MkBase = spwn srv {
  make<kk: <TLAWorker[Int]>> :>
    letk b: TWorker[Int] = MkWorker[Int]#make<> in MkLoadAware[Int]#make<b, kk>
};
def Pump = spwn srv {
  go<n: Int, b: inst TWorker[Int]> :>
    if n == 0 then par else (b#work<Blocked, result> || this#go<n - 1, b>)
};
letk w1: TLAWorker[Int] = MkBase#make<> in
letk w2: TLAWorker[Int] = MkBase#make<> in
letk w3: TLAWorker[Int] = MkBase#make<> in
letk chs: Choose[Int] = MkLeastLoaded[Int]#make<event> in
letk bal: TWorker[Int] = MkBalanced[Int]#make<[w1, w2, w3], chs> in
let b: inst TWorker[Int] = spwn bal in
  (b#init<> || Pump#go<9, b>)
"""
    with run_cc(src, timeout_ms=30_000) as rt:
        decisions = cc_obs(rt, "event")
        assert len(decisions) == 9
        for loads, chosen in decisions:
            assert chosen == min(loads), (loads, chosen)
    report(8, "round robin: exactly 25 requests per worker; least-loaded always picks a minimum")


def test_criterion_09_recovery():
    src = """
def Gate = spwn img( srv { take<kk: <Bool>> & armed<> :> kk<true>
                           take<kk: <Bool>> :> kk<false> }, [armed<>] );
def Flaky = srv {
  init<> :> par
  work<t: TThunk[Int], kw: <Int>> :>
    letk drop: Bool = Gate#take<> in
      (if drop then par else (spwn local t)#force<kw>)
};
letk rec: TWorker[Int] = MkRecover[Int]#make<Flaky, 300> in
let i: inst TWorker[Int] = spwn rec in
  (i#init<> || i#work<thunk 42, result> || i#work<thunk 43, result>)
"""
    with run_cc(src, virtual=True, timeout_ms=30_000) as rt:
        vals = cc_obs(rt)
        assert set(vals) == {42, 43}
        assert len(vals) >= 2
        assert rt.replace_log, "no recovery replacement happened"
        assert all(buflen == 0 for _, buflen in rt.replace_log)
    report(9, "flaky worker recovered after virtual timeout; answers at least once; repl buffer empty")


def test_criterion_10_supervision():
    from test_supervision import (
        test_all_for_one_broadcasts_restart,
        test_escalate_reaches_root_and_suspends_subtree,
        test_restart_is_one_for_one_and_resets_state,
        test_restart_preserves_unprocessed_messages,
        test_resume_preserves_snapshot_state,
        test_stop_removes_child_and_halts_component,
    )

    test_restart_is_one_for_one_and_resets_state()
    test_resume_preserves_snapshot_state()
    test_escalate_reaches_root_and_suspends_subtree()
    test_stop_removes_child_and_halts_component()
    test_restart_preserves_unprocessed_messages()
    test_all_for_one_broadcasts_restart()
    report(10, "OneForOne isolation, Resume snapshot, Escalate to root, Stop removal, buffer filtering")


def test_criterion_11_desugar_goldens():
    from test_desugar import GOLDENS, lower
    from cpl.pretty import pretty_expr

    for src, expected in GOLDENS.items():
        assert pretty_expr(lower(src)) == expected, src
    prog = FACT_SRC + """
type TF = srv { main: <Int, <Int>>, fac: <Int>, acc: <Int>, res: <Int>, out: <<Int>> };
(\\(x: TF) -> inst TF. spwn x)#app<Fact, result>
"""
    res = run_ss(prog)
    vals = [a for _, s, a in res.observations if s == "result"]
    from cpl.core import Addr, Live

    addr = vals[0][0]
    assert isinstance(addr, Addr)
    entry = res.final.table[addr.address]
    assert isinstance(entry, Live) and "main" in entry.template.service_names()
    report(11, "let/letk/lambda/thunk byte goldens; lambda-applied template spawns a fresh instance")


def test_criterion_12_engine_agreement():
    # Bounded-depth containment on the three smallest examples.
    smalls = [
        "(spwn srv { a<> :> result<1> })#a<>",
        "((spwn srv { a<x: Int> :> result<x> })#a<1> || (spwn srv { b<> :> result<2> })#b<>)",
        FACT_SRC + "(spwn Fact)#main<2, result>",
    ]
    for src in smalls:
        loaded = tc.load_program(src, include_prelude=False)
        cfg = initial_config(tc.wire_observers(loaded.core))
        reach = enumerate_reachable(cfg, depth=80, state_cap=120_000)
        outcomes = {
            tuple(sorted(value_to_json(a[0]) for _, s, a in t.observations))
            for t in terminal_configs(reach)
        }
        with run_cc(src, prelude=False, timeout_ms=15_000) as rt:
            observed = tuple(sorted(cc_obs(rt)))
        assert observed in outcomes, (src, observed, outcomes)
    # Multiset agreement on the rest of the deterministic examples.
    for name, steps in (
        ("fact.cpl", 500_000),
        ("wordcount.cpl", 5_000_000),
        ("wordcount_lb.cpl", 10_000_000),
        ("wordcount_ft.cpl", 10_000_000),
        ("supervision_demo.cpl", 3_000_000),
    ):
        loaded = tc.load_program(tc.example_source(name))
        ss = tc.run_smallstep(loaded.core, max_steps=steps)
        ss_vals = sorted(
            json.dumps(value_to_json(a[0]), sort_keys=True) for _, s, a in ss.observations
        )
        virtual = name == "wordcount_ft.cpl"
        with run_cc(tc.example_source(name), virtual=virtual, timeout_ms=30_000) as rt:
            cc_vals = sorted(
                json.dumps(value_to_json(o.args[0]), sort_keys=True) for o in rt.log.snapshot()
            )
        assert ss_vals == cc_vals, name
    report(12, "concurrent observers within small-step reachability; multisets agree on the corpus")
