"""Alpha-equivalence of terms: `alpha_eq` verdicts pinned over the shipped
examples, and the fields that do and do not take part in it."""

import hashlib
import random

import pytest

import cpl.toolchain as tc
from cpl.core import (
    BOOL,
    INT,
    TOP,
    Addr,
    Address,
    BaseLit,
    BaseOp,
    ExternalRef,
    Image,
    JoinPattern,
    MessageValue,
    Placement,
    ReactionRule,
    Request,
    ServerTemplate,
    ServiceRef,
    Spwn,
    SvcT,
    TypeAbs,
    TypeApp,
    TypeVar,
    Univ,
    Var,
    alpha_eq,
    children,
    substitute,
    substitute_type_in_expr,
)

EXAMPLES = ("fact.cpl", "stuck.cpl", "supervision_demo.cpl", "wordcount.cpl", "wordcount_ft.cpl", "wordcount_lb.cpl")


def _subterms(e):
    """Every distinct node of e, rule bodies included, in a fixed order."""
    out, seen, stack = [], set(), [e]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        out.append(x)
        stack.extend(r.body for r in x.rules) if isinstance(x, ServerTemplate) else stack.extend(children(x))
    return out


def _size(e, memo):
    n = memo.get(id(e))
    if n is None:
        kids = [r.body for r in e.rules] if isinstance(e, ServerTemplate) else children(e)
        memo[id(e)] = n = 1 + sum(_size(k, memo) for k in kids)
    return n


def _renamed(e):
    """e with its rule parameters or its type variable renamed."""
    if isinstance(e, ServerTemplate):
        rules = []
        for r in e.rules:
            new = {n: n + "'" for n in r.bound_names}
            patterns = tuple(JoinPattern(p.service, tuple((new[n], t) for n, t in p.params)) for p in r.patterns)
            rules.append(ReactionRule(patterns, substitute(r.body, {n: Var(m) for n, m in new.items()})))
        return ServerTemplate(tuple(rules), e.transparent_this, loc=e.loc)
    if isinstance(e, TypeAbs):
        var = e.var + "'"
        return TypeAbs(var, e.bound, substitute_type_in_expr(e.body, {e.var: TypeVar(var)}), loc=e.loc)
    return e


# (pairs, equal verdicts, hash of the verdict string), recorded from the
# hand-written walk with its own type-variable environment.
PINNED_VERDICTS = (19264, 4983, "a93dfe13508a4276")


def test_alpha_eq_verdicts_pinned():
    """Each subterm of at most 64 nodes of the six examples (each loaded
    with the prelude, so the prelude's terms recur as distinct objects and
    under other fresh names) against two seeded partners of its class and
    size, and each template and type abstraction among them against a
    renamed copy of itself."""
    cores = [tc.load_program(tc.example_source(name)).core for name in EXAMPLES]
    memo: dict[int, int] = {}  # by id, so every core stays alive
    nodes = [x for core in cores for x in _subterms(core) if _size(x, memo) <= 64]
    buckets: dict[tuple, list] = {}
    for x in nodes:
        buckets.setdefault((type(x), _size(x, memo)), []).append(x)
    rng = random.Random(10)
    pairs = [(x, rng.choice(buckets[type(x), _size(x, memo)])) for x in nodes for _ in range(2)]
    pairs += [(x, _renamed(x)) for x in nodes if isinstance(x, (ServerTemplate, TypeAbs))]
    verdicts = "".join("1" if alpha_eq(a, b) else "0" for a, b in pairs)
    digest = hashlib.sha256(verdicts.encode()).hexdigest()[:16]
    assert (len(verdicts), verdicts.count("1"), digest) == PINNED_VERDICTS


def _tpl(param: str, used: str, ann=INT):
    """srv { a<param: ann> :> result<used> }"""
    body = Request(Var("result"), (Var(used),))
    return ServerTemplate((ReactionRule((JoinPattern("a", ((param, ann),)),), body),))


T = _tpl("x", "x")
ONE, TWO = BaseLit(1), BaseLit(2)
SWAP = tc.load_program("srv { a<x: Int, y: Int> :> result<x> }", include_prelude=False).core
SWAPPED = tc.load_program("srv { a<y: Int, x: Int> :> result<x> }", include_prelude=False).core


def _tabs(var, bound=TOP, ann=None):
    return TypeAbs(var, bound, _tpl("x", "x", TypeVar(var) if ann is None else ann))


ALPHA_CASES = {
    "placement": (Spwn(T, Placement.LOCAL), Spwn(T, Placement.REMOTE), False),
    "service": (ServiceRef(Spwn(T), "a"), ServiceRef(Spwn(T), "b"), False),
    "op": (BaseOp("+", (ONE, TWO)), BaseOp("-", (ONE, TWO)), False),
    "one-vs-true": (BaseLit(1), BaseLit(True), False),
    "one-vs-float": (BaseLit(1), BaseLit(1.0), False),
    "buffer-grouping": (
        Image(T, (MessageValue("a", (ONE, TWO)),)),
        Image(T, (MessageValue("a", (ONE,)), MessageValue("a", (TWO,)))),
        False,
    ),
    "buffer-service": (Image(T, (MessageValue("a", (ONE,)),)), Image(T, (MessageValue("b", (ONE,)),)), False),
    "address": (Addr(Address(1)), Addr(Address(2)), False),
    "address-placement": (Addr(Address(1, Placement.LOCAL)), Addr(Address(1)), False),
    "external-name": (ExternalRef("result"), ExternalRef("print"), False),
    "type-app-argument": (TypeApp(_tabs("a"), INT), TypeApp(_tabs("a"), BOOL), False),
    "type-abs-bound": (_tabs("a", TOP), _tabs("a", INT), False),
    "rule-annotation": (_tpl("x", "x", INT), _tpl("x", "x", BOOL), False),
    "rule-parameter-use": (SWAP, SWAPPED, False),
    "free-variable": (_tpl("x", "y"), _tpl("x", "z"), False),
    "type-abs-free-annotation": (_tabs("a", ann=TypeVar("c")), _tabs("b", ann=TypeVar("b")), False),
    "renamed-rule-parameter": (_tpl("x", "x"), _tpl("y", "y"), True),
    "renamed-type-variable": (_tabs("a"), _tabs("b"), True),
    "renamed-both": (TypeAbs("a", TOP, _tpl("x", "x", SvcT((TypeVar("a"),)))),
                     TypeAbs("b", TOP, _tpl("y", "y", SvcT((TypeVar("b"),)))), True),
    "same-free-variable": (_tpl("x", "y"), _tpl("z", "y"), True),
}


@pytest.mark.parametrize("a, b, equal", ALPHA_CASES.values(), ids=ALPHA_CASES.keys())
def test_alpha_eq_cases(a, b, equal):
    assert alpha_eq(a, b) is equal
    assert alpha_eq(b, a) is equal


def _univ(var, *args):
    return Univ(var, TOP, SvcT(tuple(TypeVar(a) for a in args)))


def test_universals_equal_up_to_their_binder():
    a, b = _univ("a", "a"), _univ("b", "b")
    assert a == b and hash(a) == hash(b)
    assert _univ("a", "a", "b") != _univ("b", "b", "b")  # b would be captured
    assert _univ("a", "a", "c") == _univ("b", "b", "c") != _univ("b", "b", "d")
    assert Univ("a", INT, SvcT((TypeVar("a"),))) != Univ("b", TOP, SvcT((TypeVar("b"),)))
    assert _tpl("x", "x", SvcT((a,))) == _tpl("x", "x", SvcT((b,)))
    assert len({_tpl("x", "x", a), _tpl("x", "x", b)}) == 1
