"""MapReduce deployments against a sequential fold oracle."""

import collections

import pytest

import cpl.toolchain as tc
from cpl.core import BaseLit, ListV, TupleV, children, ServerTemplate
from cpl.runtime import value_to_json
from conftest import cc_obs, run_cc, run_ss, ss_obs


def extract_corpus(core):
    """Find the inline 20-pair corpus in the desugared program."""
    found = []

    def walk(e):
        if isinstance(e, ListV) and len(e.items) == 20 and all(
            isinstance(x, TupleV) and len(x.items) == 2 for x in e.items
        ):
            found.append(e)
        for c in children(e):
            walk(c)
        if isinstance(e, ServerTemplate):
            for r in e.rules:
                walk(r.body)

    walk(core)
    assert found, "corpus literal not found"
    return [(p.items[0].value, p.items[1].value) for p in found[0].items]


def wordcount_oracle(pairs):
    counts = collections.Counter()
    for _, text in pairs:
        counts.update(text.split())
    return dict(counts)


@pytest.fixture(scope="module")
def oracle():
    loaded = tc.load_program(tc.example_source("wordcount.cpl"))
    return wordcount_oracle(extract_corpus(loaded.core))


def run_example(name, virtual=False):
    with run_cc(tc.example_source(name), virtual=virtual, timeout_ms=30_000) as rt:
        res = cc_obs(rt)
        assert not rt.timed_out
        assert len(res) == 1
        return res[0]


def test_wordcount_matches_oracle(oracle):
    assert run_example("wordcount.cpl") == oracle


def test_wordcount_lb_matches_oracle(oracle):
    assert run_example("wordcount_lb.cpl") == oracle


def test_wordcount_ft_matches_oracle(oracle):
    assert run_example("wordcount_ft.cpl", virtual=True) == oracle


def test_wordcount_smallstep_agrees(oracle):
    res = run_ss(tc.example_source("wordcount.cpl"), prelude=True, max_steps=5_000_000)
    assert ss_obs(res) == [oracle]


def test_result_independent_of_seed(oracle):
    # stdlib invariant: identical result map across 10 scheduling seeds
    for seed in (0, 1, 2, 3, 7, 11, 23, 42, 99, 1234):
        res = run_ss(
            tc.example_source("wordcount.cpl"), prelude=True, seed=seed, max_steps=5_000_000
        )
        assert ss_obs(res) == [oracle]


def test_empty_data_yields_empty_result():
    src = """
def Ident = (spwn srv { m<k1: String, v1: String, kk: <List[(String, Int)]>> :> kk<[]> })#m;
def Sum = (spwn srv { r<k2: String, vs: List[Int], kk: <Int>> :> kk<0> })#r;
def Part = (\\(w: String, r: Int) -> Int. 1)#app;
letk mr: TMR[String, String, String, Int]
  = MapReduce[String][String][String][Int][Int]#make<Ident, Sum, Part, 2, /\\w. MkWorker[w]#make>
in (spwn mr)#app<[], result>
"""
    with run_cc(src) as rt:
        assert cc_obs(rt) == [{}] or cc_obs(rt) == [[]]


def test_constant_partition_routes_everything_to_one_reducer():
    src = """
def OneMap = (spwn srv { m<k1: String, v1: Int, kk: <List[(String, Int)]>> :> kk<[(k1, v1)]> })#m;
def Sum = (spwn srv {
  r<k2: String, vs: List[Int], kk: <Int>> :> this#go<vs, 0, kk>
  go<vs: List[Int], acc: Int, kk: <Int>> :>
    if isEmpty(vs) then kk<acc> else this#go<tail(vs), acc + head(vs), kk>
})#r;
def Part = (\\(w: String, r: Int) -> Int. 1)#app;
letk mr: TMR[String, Int, String, Int]
  = MapReduce[String][Int][String][Int][Int]#make<OneMap, Sum, Part, 3, /\\w. MkWorker[w]#make>
in (spwn mr)#app<[("x", 2), ("y", 3), ("z", 4)], result>
"""
    with run_cc(src) as rt:
        assert cc_obs(rt) == [{"x": 2, "y": 3, "z": 4}]


def test_grouper_groups_values():
    # values [a:1, a:1, b:1] group to {a:[1,1], b:[1]}; observed through a
    # Reduce that returns the group itself
    src = """
def EchoMap = (spwn srv { m<k1: String, v1: Int, kk: <List[(String, Int)]>> :>
                            kk<[("a", 1), ("a", 1), ("b", 1)]> })#m;
def Group = (spwn srv { r<k2: String, vs: List[Int], kk: <List[Int]>> :> kk<vs> })#r;
def Part = (\\(w: String, r: Int) -> Int. 1)#app;
letk mr: TMR[String, Int, String, List[Int]]
  = MapReduce[String][Int][String][Int][List[Int]]#make<EchoMap, Group, Part, 1, /\\w. MkWorker[w]#make>
in (spwn mr)#app<[("d", 0)], result>
"""
    with run_cc(src) as rt:
        assert cc_obs(rt) == [{"a": [1, 1], "b": [1]}]
