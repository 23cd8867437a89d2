"""Derived-form lowering: golden forms, the CPS transform, this-transparency."""

import pytest

import cpl.desugar as D
import cpl.parser as P
import cpl.toolchain as tc
from cpl.core import (
    BaseLit,
    BaseT,
    If,
    ListV,
    MapV,
    Request,
    ServerTemplate,
    ServiceRef,
    Spwn,
    SvcT,
    THIS,
    Top,
    Var,
    children,
    free_vars,
)
from cpl.cli import main
from cpl.desugar import cps_transform, desugar_program
from cpl.errors import DesugarError
from cpl.machine import COMPLETED
from cpl.parser import SApply, SLambda, SLet, SLetK, SThunk, parse, parse_expr
from cpl.pretty import pretty_expr
from cpl.typecheck import TypeContext, type_of
from conftest import FACT_SRC, checked, load, run_ss, ss_obs

INT = BaseT("Int")
ENV = {
    "k": SvcT((Top(),)),
    "f": SvcT((INT, SvcT((INT,)))),
    "g": SvcT((INT, SvcT((INT,)))),
}


def lower(text, env=None):
    return desugar_program(parse(text), env if env is not None else ENV)


GOLDENS = {
    "let x: Int = 5 in k<x>": "(spwn (srv { let<x: Int> :> k<x> }))#let<5>",
    "letk x: Int = f<1> in k<x>": "f<1, (spwn (srv { k<x: Int> :> k<x> }))#k>",
    "thunk 42": "srv { force<k: <Int>> :> k<42> }",
    "thunk[Int] g<7>": "srv { force<k: <Int>> :> g<7, k> }",
    "\\(x: Int) -> Int. x": "spwn (srv { app<x: Int, k%1: <Int>> :> k%1<x> })",
    "letk (a: Int, b: Bool) = f<1> in k<a>": (
        "f<1, (spwn (srv { k<p%1: (Int, Bool)> :> (spwn (srv { let<a: Int> :> "
        "(spwn (srv { let<b: Bool> :> k<a> }))#let<snd(p%1)> }))#let<fst(p%1)> }))#k>"
    ),
    # Source names shaped like fresh ones are neither captured nor reused.
    "\\(k%1: Int) -> Int. k%1": "spwn (srv { app<k%1: Int, k%2: <Int>> :> k%2<k%1> })",
    "def F = \\(vf%1: Int) -> Int. vf%1; let v%1: Int = 1 in k<F(v%1), v%1>": (
        "(spwn (srv { let<F: inst srv { app: <Int, <Int>> }> :> (spwn (srv { let<v%1: Int> :> "
        "(spwn (srv { k1<vf%2: inst srv { app: <Int, <Int>> }> :> (spwn (srv { k2<v%3: Int> :> "
        "vf%2#app<v%3, (spwn (srv { k<v%2: Int> :> k<v%2, v%1> }))#k> }))#k2<v%1> }))#k1<F> }))#let<1> }))"
        "#let<spwn (srv { app<vf%1: Int, k%1: <Int>> :> k%1<vf%1> })>"
    ),
    "letk (a: Int, p%1: Bool) = f<1> in k<p%1>": (
        "f<1, (spwn (srv { k<p%2: (Int, Bool)> :> (spwn (srv { let<a: Int> :> "
        "(spwn (srv { let<p%1: Bool> :> k<p%1> }))#let<snd(p%2)> }))#let<fst(p%2)> }))#k>"
    ),
    "thunk[Int] g<k%1, k>": "srv { force<k%2: <Int>> :> g<k%1, k, k%2> }",
}


@pytest.mark.parametrize("src,expected", sorted(GOLDENS.items()))
def test_desugar_goldens(src, expected):
    assert pretty_expr(lower(src)) == expected


def test_let_infers_literal_annotation():
    out = lower("let x = 5 in k<x>")
    assert "let<x: Int>" in pretty_expr(out)


def test_let_without_inferable_annotation_errors():
    with pytest.raises(DesugarError):
        lower("let x = y in k<x>", env={"k": SvcT((Top(),))})


MIXED = [
    ListV((BaseLit(1), Var("t"))),
    ListV((Var("t"), BaseLit(1), BaseLit(2))),
    MapV(((BaseLit(1), BaseLit(2)), (BaseLit(3), Var("t")))),
    MapV(((BaseLit(1), BaseLit(2)), (Var("t"), BaseLit(4)))),
    If(Var("b"), BaseLit(1), Var("t")),
]


@pytest.mark.parametrize("e", MIXED, ids=pretty_expr)
def test_synthesized_literal_type_is_the_checkers_join(e):
    env = {"t": Top(), "b": BaseT("Bool")}
    ctx = TypeContext().extend_var("t", Top()).extend_var("b", BaseT("Bool"))
    assert D.Desugarer().synth(e, env) == type_of(ctx, {}, e)


def test_literal_without_a_join_gets_no_annotation():
    assert D.Desugarer().synth(ListV((BaseLit(1), BaseLit("a"))), {}) is None


def test_let_over_mixed_list_checks():
    src = "def f = srv { go<t: Top> :> let xs = [1, t] in result<xs> }; par"
    checked(src)
    assert "let<xs: List[Top]>" in pretty_expr(load(src).core)


def test_letk_requires_request_form():
    with pytest.raises(DesugarError):
        lower("letk x: Int = 5 in k<x>")


def test_thunk_requires_annotation_for_requests():
    with pytest.raises(DesugarError):
        lower("thunk g<7>", env={"g": SvcT((INT, SvcT((INT,))))})


def test_def_chain_binds_main():
    out = lower("def F = srv { a<x: Int> :> par }; (spwn F)#a<1>", env={})
    s = pretty_expr(out)
    assert s.startswith("(spwn (srv { let<F:")
    # No surface nodes survive.
    def walk(e):
        assert not isinstance(e, (SLet, SLetK, SLambda, SApply, SThunk))
        from cpl.core import children

        for c in children(e):
            walk(c)
        if isinstance(e, ServerTemplate):
            for r in e.rules:
                walk(r.body)

    walk(out)


class TestCps:
    def test_fallthrough(self):
        out = cps_transform(BaseLit(5), Var("k"))
        assert out == Request(Var("k"), (BaseLit(5),))

    def test_lambda_clause(self):
        lam = parse_expr("\\(x: Int) -> Int. x")
        out = cps_transform(lam, Var("k"))
        assert isinstance(out, Request) and out.callee == Var("k")
        assert isinstance(out.args[0], Spwn)

    def test_apply_chains_two_continuations(self):
        lam = parse_expr("\\(x: Int) -> Int. x")
        app = SApply(lam, (BaseLit(3),))
        out = cps_transform(app, Var("k0"))
        s = pretty_expr(out)
        assert "k1" in s and "k2" in s and "#app<" in s
        assert "vf%" in s

    def test_fresh_names_avoid_free(self):
        # A free k in the thunk body forces a renamed continuation parameter.
        out = lower("thunk[Int] f<k>", env={"f": SvcT((Top(), SvcT((INT,))))})
        param = out.rules[0].patterns[0].params[0][0]
        assert param != "k" and param.startswith("k%")
        assert "k" in free_vars(out)

    def test_identity_application_reduces(self):
        # T[[(\x. x)(\y. y)]]k evaluates to k<identity instance address>
        src = """
def Id = \\(x: inst srv { app: <Int, <Int>> }) -> inst srv { app: <Int, <Int>> }. x;
def Id2 = \\(y: Int) -> Int. y;
letk r: inst srv { app: <Int, <Int>> } = Id(Id2) in result<r>
"""
        res = run_ss(src)
        assert res.status == COMPLETED
        vals = [a for _, s, a in res.observations if s == "result"]
        assert len(vals) == 1
        addr = vals[0][0]
        from cpl.core import Addr as AddrNode

        assert isinstance(addr, AddrNode)

    def test_lambda_spawn_request_with_template(self):
        # (\x. spwn x)#app<Fact, k0> reduces to k0 carrying a fresh instance.
        src = FACT_SRC + """
type TF = srv { main: <Int, <Int>>, fac: <Int>, acc: <Int>, res: <Int>, out: <<Int>> };
(\\(x: TF) -> inst TF. spwn x)#app<Fact, result>
"""
        res = run_ss(src)
        assert res.status == COMPLETED
        vals = [a for _, s, a in res.observations if s == "result"]
        from cpl.core import Addr as AddrNode, Live

        addr = vals[0][0]
        assert isinstance(addr, AddrNode)
        entry = res.final.table[addr.address]
        assert isinstance(entry, Live)
        assert "main" in entry.template.service_names()


class TestTransparency:
    def test_let_inside_template_sees_this(self):
        src = """
(spwn srv {
  a<> :> let x: Int = 5 in this#b<x>
  b<n: Int> :> result<n>
})#a<>
"""
        res = run_ss(src)
        assert ss_obs(res) == [5]

    def test_generated_wrapper_marked_transparent(self):
        out = lower("srv { a<> :> let x: Int = 1 in this#b<x>  b<n: Int> :> par }", env={})
        wrapper = out.rules[0].body.callee.target.expr
        assert isinstance(wrapper, ServerTemplate) and wrapper.transparent_this

    def test_wrapper_without_this_is_plain(self):
        out = lower("let x: Int = 1 in k<x>")
        wrapper = out.callee.target.expr
        assert isinstance(wrapper, ServerTemplate) and not wrapper.transparent_this

    def test_thunk_captures_creator_instance(self):
        # A thunk mentioning this must answer from its creator, not the forcer.
        src = """
(spwn srv {
  a<> :> this#give< thunk[Int] 7 >
  give<t: srv { force: <<Int>> }> :> (spwn t)#force<result>
})#a<>
"""
        res = run_ss(src)
        assert ss_obs(res) == [7]

    def test_this_transparent_thunk(self):
        # A thunk body can re-enter its creator through this: the creator's
        # instance is substituted in when the enclosing rule fires.
        src = """
(spwn srv {
  boot<> :> (spwn srv { go<t: srv { force: <<Int>> }> :> (spwn t)#force<result> })#go< thunk[Int] this#hit<> >
  hit<kc: <Int>> :> kc<1>
})#boot<>
"""
        res = run_ss(src)
        assert ss_obs(res) == [1]


def test_cps_introduces_only_fresh_binders():
    # free(T[[e]]k) is contained in free(e) union free(k)
    lam = parse_expr("\\(x: Int) -> Int. plusone-NO".replace(" plusone-NO", " x + y"))
    app = SApply(lam, (Var("z"),))
    env = {"y": INT, "z": INT}
    out = cps_transform(app, Var("kk"), env=env)
    assert free_vars(out) <= {"y", "z", "kk"}


class TestEdges:
    def test_used_alias_cycle_rejected(self):
        import cpl.toolchain as tc

        with pytest.raises(DesugarError):
            tc.load_program(
                "type A = B; type B = A; (spwn srv { x<v: A> :> par })#x<1>",
                include_prelude=False,
            )

    def test_unknown_alias_rejected(self):
        import cpl.toolchain as tc

        with pytest.raises(DesugarError):
            tc.load_program("(spwn srv { x<v: Missing> :> par })#x<1>", include_prelude=False)

    @pytest.mark.parametrize("aliases", ["type A = B; type B = A;", "type A = Missing;", "type A[x] = A;"])
    def test_bad_alias_rejected_only_where_used(self, aliases):
        import cpl.toolchain as tc

        tc.load_program(aliases + " type C[x] = x; (spwn srv { x<v: C[Int]> :> par })#x<1>", include_prelude=False)
        for use in ("A", "A[Int]", "C[A]"):
            with pytest.raises(DesugarError):
                tc.load_program(aliases + f" type C[x] = x; (spwn srv {{ x<v: {use}> :> par }})#x<1>",
                                include_prelude=False)

    def test_letk_four_binders(self):
        src = """
def F = (spwn srv { f<k: <(Int, Int, Int, Int)>> :> k<(1, 2, 3, 4)> })#f;
letk (a: Int, b: Int, c: Int, d: Int) = F<> in result<a + b + c + d>
"""
        res = run_ss(src)
        assert ss_obs(res) == [10]

    def test_letk_five_binders_rejected(self):
        import cpl.toolchain as tc

        with pytest.raises(DesugarError):
            tc.load_program(
                "letk (a: Int, b: Int, c: Int, d: Int, e: Int) = F<> in par",
                include_prelude=False,
            )

    def test_alias_parameter_expansion(self):
        import cpl.toolchain as tc
        from cpl.core import DataT, BaseT as B

        loaded = tc.load_program(
            "type Pairs[x] = List[(x, Int)]; (spwn srv { a<v: Pairs[Bool]> :> par })#a<[]>",
            include_prelude=False,
        )
        tmpl = loaded.core.callee.target.expr
        ann = tmpl.rules[0].patterns[0].params[0][1]
        assert ann == DataT("List", (DataT("Tuple", (B("Bool"), B("Int"))),))


def test_stdlib_annotations_and_names_are_reused_across_loads(monkeypatch):
    """The stdlib's alias expansions and definition names are computed once
    per process: from the second load on, only the user program's are."""
    stdlib_rhs = {id(d.rhs) for name in tc.STDLIB_FILES for d in tc._parsed_stdlib(name).defs}
    substitutions, walked = [], []
    substitute = D.substitute_type_in_type
    collect = D.collect_names

    def counting_substitute(t, subst):
        substitutions[-1] += 1
        return substitute(t, subst)

    def recording_collect(names, e):
        walked[-1] += id(e) in stdlib_rhs
        collect(names, e)

    monkeypatch.setattr(D, "substitute_type_in_type", counting_substitute)
    monkeypatch.setattr(D, "collect_names", recording_collect)
    src = tc.example_source("wordcount.cpl")
    printed = []
    for _ in range(3):
        substitutions.append(0)
        walked.append(0)
        printed.append(pretty_expr(tc.load_program(src).core))
    assert printed[0] == printed[1] == printed[2]
    assert substitutions[1] == substitutions[2] <= 10
    assert walked[1] == walked[2] == 0


# -- request lowering -----------------------------------------------------------

DIAGNOSTICS = [
    ("def f = \\(n: Int) -> Int. n;\nf(1)\n",
     "2:2: a bare application discards its result; bind it with letk or pass a continuation"),
    ("g(1)<2>\n", "1:5: cannot determine the callee type of this request"),
    ("result<g(1)>\n",
     "1:9: cannot determine the result type of this application; bind it with letk and an annotation"),
    ("letk (x: Int) = g(1) in result<x>\n", "1:18: cannot determine the function type of this application target"),
    ("def f = \\(n: Int) -> Int. n;\nletk (x: Int) = f(y) in result<x>\n",
     "2:18: cannot determine an argument type in this application"),
    ("(spwn (thunk y))#force<result>\n", "1:8: thunk needs a result type: thunk[T] e"),
    ("type A = Int;\ntype A = Int;\npar\n", "2:1: duplicate type alias 'A'"),
]


@pytest.mark.parametrize("src,message", DIAGNOSTICS, ids=[m.split(": ", 1)[1][:32] for _, m in DIAGNOSTICS])
def test_desugar_diagnostic_and_position(tmp_path, capsys, src, message):
    f = tmp_path / "bad.cpl"
    f.write_text(src)
    assert main(["check", "--no-prelude", str(f)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


# `f` returns a service; `f(3)` stands as the callee of a request.
APPLIED = """
def cell = spwn srv { get<k: <Int>> :> k<7> };
def f = \\(n: Int) -> <<Int>> . cell#get;
"""
APPLIED_CALLEE = APPLIED + "f(3)<result>\n"
APPLIED_IN_LETK = APPLIED + "letk (y: Int) = f(3)<> in result<y>\n"
APPLIED_IN_THUNK = APPLIED + "(spwn (thunk[Int] f(3)<>))#force<result>\n"


def test_desugar_applied_callee_golden(tmp_path, capsys):
    f = tmp_path / "callee.cpl"
    f.write_text(APPLIED_CALLEE)
    assert main(["desugar", str(f)]) == 0
    assert capsys.readouterr().out == (
        "(spwn (srv { let<cell: inst srv { get: <<Int>> }> :> (spwn (srv { let<f: inst srv { app: "
        "<Int, <<<Int>>>> }> :> (spwn (srv { k1<vf%1: inst srv { app: <Int, <<<Int>>>> }> :> "
        "(spwn (srv { k2<v%2: Int> :> vf%1#app<v%2, (spwn (srv { k<v%1: <<Int>>> :> v%1<result> }))#k> }))"
        "#k2<3> }))#k1<f> }))#let<spwn (srv { app<n: Int, k%1: <<<Int>>>> :> k%1<cell#get> })> }))"
        "#let<spwn (srv { get<k: <Int>> :> k<7> })>\n"
    )


@pytest.mark.parametrize("engine", ["smallstep", "concurrent"])
@pytest.mark.parametrize("src", [APPLIED_IN_LETK, APPLIED_IN_THUNK], ids=["letk", "thunk"])
def test_applied_callee_in_letk_and_thunk_runs(tmp_path, capsys, src, engine):
    f = tmp_path / "applied.cpl"
    f.write_text(src)
    assert main(["run", str(f), "--no-prelude", "--engine", engine]) == 0
    assert capsys.readouterr().out == '{"service": "result", "args": [7]}\n'


@pytest.mark.parametrize("src", [APPLIED_IN_LETK, APPLIED_IN_THUNK], ids=["letk", "thunk"])
def test_applied_callee_in_letk_and_thunk_desugars(tmp_path, capsys, src):
    f = tmp_path / "applied.cpl"
    f.write_text(src)
    assert main(["desugar", str(f)]) == 0
    core = tmp_path / "core.cpl"
    core.write_text(capsys.readouterr().out)
    assert main(["run", str(core), "--no-prelude"]) == 0
    assert capsys.readouterr().out == '{"service": "result", "args": [7]}\n'


EXAMPLES = ["fact.cpl", "stuck.cpl", "supervision_demo.cpl", "wordcount.cpl", "wordcount_ft.cpl", "wordcount_lb.cpl"]


def surface_nodes(e):
    """The surface-only nodes left in e, rule bodies of templates included."""
    todo, found = [e], []
    while todo:
        x = todo.pop()
        if isinstance(x, (SLet, SLetK, SLambda, SApply, SThunk)):
            found.append(x)
        elif isinstance(x, ServerTemplate):
            todo.extend(r.body for r in x.rules)
        else:
            todo.extend(children(x))
    return found


@pytest.mark.parametrize(
    "src,prelude",
    [(tc.example_source(n), True) for n in EXAMPLES]
    + [(APPLIED_CALLEE, False), (APPLIED_IN_LETK, False), (APPLIED_IN_THUNK, False)],
    ids=EXAMPLES + ["applied-callee", "applied-letk", "applied-thunk"],
)
def test_no_surface_node_survives_lowering(src, prelude):
    assert surface_nodes(load(src, prelude=prelude).core) == []
