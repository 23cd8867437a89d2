"""Preservation fuzzing: every machine step from a well-typed configuration
re-typechecks under a location typing extended at freshly spawned addresses."""

import pytest

import cpl.toolchain as tc
from cpl.core import UnitT, image_of
from cpl.machine import deterministic, fire_next_timers, initial_config, step
from cpl.typecheck import TypeContext, check_routing_table, subtype, type_of
from conftest import FACT_SRC

EMPTY = TypeContext()
UNIT = UnitT()


def preservation_steps(text, prelude=False, seed=0, max_steps=400):
    """Run up to max_steps, re-typechecking after every step; returns the
    number of validated steps."""
    loaded = tc.load_program(text, include_prelude=prelude)
    wired = tc.wire_observers(loaded.core)
    config = initial_config(wired)
    sigma = {}
    t0 = type_of(EMPTY, sigma, config.expr)
    assert subtype(EMPTY, t0, UNIT)
    policy = deterministic(seed)
    validated = 0
    current = config
    for _ in range(max_steps):
        s = step(current, policy)
        if s is None:
            if current.timers:
                current = fire_next_timers(current)
                continue
            break
        new = s.config
        # Sigma' extends Sigma exactly at the freshly allocated addresses.
        for addr in set(new.table) - set(current.table):
            sigma[addr] = type_of(EMPTY, sigma, image_of(new.table[addr]))
        t = type_of(EMPTY, sigma, new.expr)
        assert subtype(EMPTY, t, UNIT), (s.rule, t)
        assert check_routing_table(EMPTY, sigma, new.table), s.rule
        validated += 1
        current = new
    return validated


CORPUS = [
    (FACT_SRC + "(spwn Fact)#main<3, result>", False),
    (FACT_SRC + "(spwn Fact)#main<5, result>", False),
    (FACT_SRC + "((spwn Fact)#main<3, result> || (spwn Fact)#main<5, result>)", False),
    ("(spwn srv { foo<> & bar<> :> par })#foo<>", False),
    # snapshot / replace / image round trips
    (
        """
def T = srv { a<x: Int> & st<n: Int> :> (this#st<n + x> || result<n>)  st<n: Int> & boot<> :> this#st<n> };
let w: inst srv { a: <Int>, st: <Int>, boot: <> } = spwn img(T, [st<1>]) in
  (w#a<2> || letk?NO
""".replace("letk?NO\n", "let i: img srv { a: <Int>, st: <Int>, boot: <> } = snap w in (repl w i || w#a<3>))"),
        False,
    ),
    # type abstraction and application
    (
        "letk r: Int = ((/\\a. spwn srv { id<x: a, k: <a>> :> k<x> })[Int])#id<5> in result<r>",
        False,
    ),
    # lambda, apply, thunks
    (
        """
def Dbl = \\(x: Int) -> Int. x + x;
letk y: Int = Dbl(21) in result<y>
""",
        False,
    ),
    (
        "(spwn srv { go<t: srv { force: <<Int>> }> :> (spwn local t)#force<result> })#go<thunk 11>",
        False,
    ),
    # replace with zero, send afterwards stays in transit
    (
        """
let w: inst srv { a: <> } = spwn srv { a<> :> result<1> } in
  (repl w zero || w#a<>)
""",
        False,
    ),
    # timers through the machine
    ("(spwn srv { a<> :> timer<10, this#b>  b<> :> result<2> })#a<>", False),
]


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_preservation_corpus(idx):
    text, prelude = CORPUS[idx]
    n = preservation_steps(text, prelude=prelude)
    assert n > 0


@pytest.fixture(scope="module")
def fuzz_totals():
    totals = {"corpus": sum(preservation_steps(t, prelude=p) for t, p in CORPUS)}
    par67 = FACT_SRC + "((spwn Fact)#main<6, result> || (spwn Fact)#main<7, result>)"
    totals["interleavings"] = sum(preservation_steps(par67, seed=s) for s in range(5))
    totals["supervision"] = preservation_steps(
        tc.example_source("supervision_demo.cpl"), prelude=True, max_steps=120
    )
    return totals


def test_preservation_seeded_interleavings(fuzz_totals):
    assert fuzz_totals["interleavings"] >= 500


def test_preservation_supervision_prefix(fuzz_totals):
    # snap/repl/zero under the full prelude, re-typechecked per step
    assert fuzz_totals["supervision"] >= 100


def test_preservation_total_budget(fuzz_totals):
    """At least 1000 validated steps with zero violations (acceptance 5)."""
    assert sum(fuzz_totals.values()) >= 1000, fuzz_totals


def test_every_interleaving_well_typed_at_depth_4():
    """Two-instance factorial: all configurations reachable in four steps
    under every scheduling choice re-typecheck."""
    from cpl.machine import enumerate_reachable, initial_config

    text = FACT_SRC + "((spwn Fact)#main<2, result> || (spwn Fact)#main<3, result>)"
    loaded = tc.load_program(text, include_prelude=False)
    cfg = initial_config(tc.wire_observers(loaded.core))
    reach = enumerate_reachable(cfg, depth=4, state_cap=50_000)
    assert len(reach) > 1
    for config in reach.values():
        sigma = {
            addr: type_of(EMPTY, {}, image_of(entry))
            for addr, entry in config.table.items()
        }
        assert subtype(EMPTY, type_of(EMPTY, sigma, config.expr), UNIT)
        assert check_routing_table(EMPTY, sigma, config.table)
