"""Server templates as closures (`core.Closure`): substitution that reaches a
template records closed values next to its code instead of entering its
rules, and stands for the template eager substitution would have built."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import cpl.core as core
import cpl.runtime as runtime
import cpl.toolchain as tc
import cpl.typecheck as typecheck
from cpl.core import (
    THIS,
    Addr,
    Address,
    BaseLit,
    Closure,
    ExternalRef,
    JoinPattern,
    Par,
    ReactionRule,
    Request,
    ServerTemplate,
    ServiceRef,
    Spwn,
    This,
    Var,
    alpha_eq,
    children,
    fire_rule,
    force,
    substitute,
    with_children,
)
from cpl.pretty import pretty_expr

NAMES = ("x", "y", "k")
INT = core.INT


def eager(e, s):
    """Reference substitution of closed values, entering every template:
    a rule's parameters, and `this` unless the template is transparent,
    shadow the substitution in its body."""
    if not s:
        return e
    if isinstance(e, Var):
        return s.get(e.name, e)
    if isinstance(e, This):
        return s.get(THIS, e)
    if isinstance(e, ServerTemplate):
        rules = []
        for r in e.rules:
            bound = set(r.bound_names) | (set() if e.transparent_this else {THIS})
            local = {n: v for n, v in s.items() if n not in bound}
            rules.append(ReactionRule(r.patterns, eager(r.body, local)))
        return ServerTemplate(tuple(rules), e.transparent_this, loc=e.loc)
    return with_children(e, [eager(c, s) for c in children(e)])


closed_values = st.sampled_from(
    [
        BaseLit(1),
        BaseLit("s"),
        Addr(Address(3)),
        ServiceRef(Addr(Address(4)), "out"),
        ServerTemplate((ReactionRule((JoinPattern("go", (("p", INT),)),), Request(Var("p"), ())),)),
    ]
)


@st.composite
def bodies(draw, depth):
    callee = draw(st.sampled_from([Var(n) for n in NAMES] + [ServiceRef(This(), "s")]))
    args = tuple(draw(st.lists(st.sampled_from([Var(n) for n in NAMES] + [This(), BaseLit(2)]), max_size=2)))
    out = [Request(callee, args)]
    if depth > 0 and draw(st.booleans()):
        out.append(Request(ServiceRef(Spwn(draw(templates(depth - 1))), "go"), (Var(draw(st.sampled_from(NAMES))),)))
    return out[0] if len(out) == 1 else Par(tuple(out))


@st.composite
def templates(draw, depth=2):
    rules = []
    for _ in range(draw(st.integers(1, 2))):
        params = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=2))
        rules.append(ReactionRule((JoinPattern(draw(st.sampled_from(["go", "s"])), tuple((p, INT) for p in params)),), draw(bodies(depth))))
    return ServerTemplate(tuple(rules), draw(st.booleans()))


substitutions = st.dictionaries(st.sampled_from(NAMES + (THIS,)), closed_values, min_size=1)


@given(t=templates(), seq=st.lists(st.tuples(substitutions, st.booleans()), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_forcing_gives_what_eager_substitution_gives(t, seq):
    """After each closed substitution, optionally printed (which forces the
    closures, so the next one extends a forced closure), the result prints,
    shows, compares and alpha-compares as the reference; a closure's rules fire,
    from the code, from their bodies under the environment and from the
    forced template, as the reference's rules do."""
    got = ref = t
    for s, show in seq:
        got, ref = substitute(got, s), eager(ref, s)
        if show:
            pretty_expr(got)
    if type(got) is Closure and got._fcache is None:
        this = Addr(Address(9))
        for i, rule in enumerate(got.code.rules):
            bindings = tuple((n, BaseLit(i)) for n in rule.bound_names)
            want = eager(ref.rules[i].body, {**dict(bindings), THIS: this})
            assert [fire_rule(got, i, bindings, this) for _ in range(3)] == [want] * 3
    assert pretty_expr(got) == pretty_expr(ref) and core.eager_repr(got) == repr(ref)
    assert got == ref and ref == got and hash(got) == hash(ref)
    assert alpha_eq(got, ref) and alpha_eq(ref, got)
    if type(got) is Closure:
        this = Addr(Address(9))
        for i, rule in enumerate(got.code.rules):
            bindings = tuple((n, BaseLit(i)) for n in rule.bound_names)
            assert fire_rule(got, i, bindings, this) == eager(ref.rules[i].body, {**dict(bindings), THIS: this})


def test_substitution_builds_a_closure_without_entering_the_rules():
    inner = ServerTemplate((ReactionRule((JoinPattern("c", ()),), Request(Var("k"), ())),))
    t = ServerTemplate(
        (
            ReactionRule((JoinPattern("a", (("x", INT),)),), Request(Var("k"), (Var("x"),))),
            ReactionRule((JoinPattern("b", ()),), Request(ServiceRef(Spwn(inner), "c"), ())),
        )
    )
    c = substitute(t, {"k": Addr(Address(1)), "unused": BaseLit(0)})
    assert type(c) is Closure and c.code is t and c.env == {"k": Addr(Address(1))}
    assert c._fcache is None and core.free_vars(c) == frozenset()
    forced = force(c)
    assert type(forced) is ServerTemplate and force(c) is forced
    # The nested template is itself a closure of the code as written.
    assert forced.rules[1].body.callee.target.expr.code is inner


def test_a_rule_that_reads_no_binding_fires_one_shared_body_without_forcing():
    """Why two firings of one rule can put one object at two positions of
    the soup (`test_explorer_contracts_each_occurrence_of_a_shared_subterm`):
    a body whose free names are all in the environment is built once per
    closure, and nothing is forced."""
    t = tc.load_program(
        "srv { a<> :> (this#b<> || this#b<>)  b<> :> (spwn srv { c<> :> result<1> })#c<> }", include_prelude=False
    ).core
    c = substitute(t, {"result": ExternalRef("result")})
    assert type(c) is Closure
    first, second = (fire_rule(c, 1, (), Addr(Address(i))) for i in (0, 1))
    assert first is second and c._fcache is None


def _count_forcings(monkeypatch):
    calls = []
    real = core._subst_template
    monkeypatch.setattr(core, "_subst_template", lambda t, s: calls.append(t) or real(t, s))
    return calls


def test_a_smallstep_run_of_wordcount_ft_forces_no_closure(monkeypatch, capsys):
    """Nothing on the small-step machine's path reads a closed template:
    matching reads the code's patterns, firing builds one rule's body, and
    type instantiation maps the code. Eager substitution into a template,
    which forcing is, never runs."""
    from cpl.cli import main

    calls = _count_forcings(monkeypatch)
    path = Path(core.__file__).parent / "examples" / "wordcount_ft.cpl"
    assert main(["run", str(path), "--seed", "1"]) == 0
    assert '"result"' in capsys.readouterr().out
    assert calls == []


def _code_rules(roots):
    """The rules of every template as written or instantiated among roots:
    templates and closure codes, through rule bodies and environments."""
    rules, seen, todo = set(), set(), list(roots)
    while todo:
        e = todo.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if type(e) is Closure:
            todo.append(e.code)
            todo.extend(e.env.values())
        elif isinstance(e, ServerTemplate):
            rules.update(map(id, e.rules))
            todo.extend(r.body for r in e.rules)
        else:
            todo.extend(children(e))
    return rules


def test_a_concurrent_run_compiles_only_rules_of_the_code(monkeypatch):
    """Each rule the runtime compiles is a rule of the program as loaded or
    of a type abstraction's instantiated body, shared by every copy a
    substitution or a spawn closes, so there are at most as many compiled
    bodies as distinct code rules."""
    instantiated, compiled = [], []
    real_inst, real_memo = runtime.instantiate, runtime.memo

    def inst(fn, arg):
        body = real_inst(fn, arg)
        instantiated.append(body)
        return body

    def memo(node, name, compute):
        if name == "_ccache" and node._ccache is None:
            compiled.append(node)
        return real_memo(node, name, compute)

    monkeypatch.setattr(runtime, "instantiate", inst)
    monkeypatch.setattr(runtime, "memo", memo)
    loaded = tc.load_program(tc.example_source("wordcount_ft.cpl"))
    wired = core.wire_observers(loaded.core)
    rt = tc.run_concurrent(loaded.core, virtual_time=True)
    try:
        assert [o.service for o in rt.log.snapshot()] == ["result"]
    finally:
        rt.shutdown()
    code = _code_rules([wired, *instantiated])
    # Two workers may both compile a rule that neither found compiled.
    rules = {id(r) for r in compiled}
    assert rules and len(rules) <= len(code) and rules <= code


# A type abstraction instantiated once per step of a loop of `input` steps.
POLY_LOOP = """def Id = /\\a. srv { k<v: a, kk: <a>> :> kk<v> };
def Loop = spwn srv {
  go<n: Int> & acc<s: Int> :>
    if n <= 0 then result<s> else ((spwn Id[Int])#k<n, this#add> || this#acc<s>)
  add<v: Int> & acc<s: Int> :> (this#go<v - 1> || this#acc<s + v>)
};
(Loop#go<input> || Loop#acc<0>)"""


def test_a_concurrent_run_compiles_an_instantiated_body_once(monkeypatch):
    compiles = []
    real = runtime._compile
    monkeypatch.setattr(runtime, "_compile", lambda e: compiles.append(e) or real(e))
    counts = {}
    for n in (5, 20):
        compiles.clear()
        loaded = tc.load_program(POLY_LOOP, include_prelude=False, input_value=BaseLit(n))
        tc.check_expr(loaded.core, loaded.env)
        rt = tc.run_concurrent(loaded.core, virtual_time=True, timeout_ms=10_000)
        try:
            assert [o.args for o in rt.log.snapshot()] == [(BaseLit(n * (n + 1) // 2),)]
        finally:
            rt.shutdown()
        counts[n] = len(compiles)
    assert counts[5] == counts[20]


def test_closed_template_types_need_no_walk_over_the_context(monkeypatch):
    calls = []
    real = typecheck.TypeContext.tvar_names
    monkeypatch.setattr(typecheck.TypeContext, "tvar_names", lambda ctx: calls.append(ctx) or real(ctx))
    loaded = tc.load_program(tc.example_source("fact.cpl"), include_prelude=False)
    tc.check_expr(loaded.core, loaded.env)
    assert calls == []


# `A` becomes a closure when `f`'s `let` fires; `B` stays a template. Map
# keys sort by their repr, and a missing key shows it: both as eager
# substitution built them (texts taken before templates became closures).
TEMPLATE_KEYS = """def f = 1;
def A = srv { a<> :> result<f> };
def B = srv { a<> :> par };
"""
SORTED = '{"service": "result", "args": [[[{"$value": "srv { a<> :> par }"}, 2], [{"$value": "srv { a<> :> ^result<1> }"}, 1]]]}\n'
MISSING = (
    "internal error: get: missing key ServerTemplate(rules=(ReactionRule(patterns=(JoinPattern(service='a', params=()),), "
    "body=Request(callee=ExternalRef(name='result'), args=(BaseLit(value=1),))),), transparent_this=False)\n"
)


def test_closures_as_map_keys_sort_and_print_as_eager_substitution_built_them(tmp_path, capsys):
    from cpl.cli import main

    sorted_src, missing_src = tmp_path / "sorted.cpl", tmp_path / "missing.cpl"
    sorted_src.write_text(TEMPLATE_KEYS + "result<mkMap([(A, 1), (B, 2)])>")
    missing_src.write_text(TEMPLATE_KEYS + "result<get(mkMap([(B, 2)]), A)>")
    for engine in ("smallstep", "concurrent"):
        assert main(["run", str(sorted_src), "--no-prelude", f"--engine={engine}"]) == 0
        assert capsys.readouterr().out == SORTED
    assert main(["run", str(missing_src), "--no-prelude"]) == 4
    assert capsys.readouterr().err == MISSING
