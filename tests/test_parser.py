"""Concrete syntax: parsing, errors, and the pretty-print round trip."""

import sys

import pytest
from conftest import fresh_interpreter
from hypothesis import given, settings, strategies as st

import cpl.toolchain as tc
from cpl.core import (
    Addr,
    Address,
    BaseLit,
    BaseOp,
    BaseT,
    DataT,
    If,
    Image,
    ImgT,
    InstT,
    JoinPattern,
    ListV,
    Par,
    Placement,
    ReactionRule,
    Repl,
    Request,
    ServerTemplate,
    ServiceRef,
    Snap,
    Spwn,
    SrvT,
    SvcT,
    This,
    TupleV,
    TypeAbs,
    TypeApp,
    TypeVar,
    Top,
    UnitT,
    Univ,
    Var,
    ZeroImage,
    alpha_eq,
)
from cpl.desugar import desugar_program
from cpl.errors import LinearityError, ParseError
from cpl.parser import Program, parse, parse_expr
from cpl.pretty import pretty_expr

INT = BaseT("Int")


class TestParse:
    def test_fact_shape(self):
        prog = parse(tc.example_source("fact.cpl"))
        assert prog.main is not None
        spwn = prog.main.callee.target
        template = spwn.expr
        assert isinstance(template, ServerTemplate)
        assert len(template.rules) == 3
        assert set(template.service_names()) == {"main", "fac", "acc", "out", "res"}

    def test_empty_input_is_library(self):
        prog = parse("")
        assert prog.main is None and not prog.defs

    def test_par_keyword(self):
        assert parse_expr("par") == Par(())

    def test_nonlinear_pattern_rejected(self):
        with pytest.raises(LinearityError):
            parse_expr("srv { a<x: Int> & b<x: Int> :> par }")

    def test_same_service_twice_is_linear(self):
        e = parse_expr("srv { a<x: Int> & a<y: Int> :> par }")
        assert isinstance(e, ServerTemplate)

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError) as ei:
            parse("def X = ;")
        assert ei.value.loc is not None and ei.value.loc.line == 1

    def test_header_declarations(self):
        e = parse_expr("srv { a: <Int>, b: <<Bool>>  a<x> & b<y> :> par }")
        pats = e.rules[0].patterns
        assert pats[0].params == (("x", INT),)
        assert pats[1].params == (("y", SvcT((BaseT("Bool"),))),)

    def test_missing_annotation_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("srv { a<x> :> par }")

    def test_requests_and_selection(self):
        e = parse_expr("(spwn F)#main<3, k>")
        assert isinstance(e, Request)
        assert e.callee == ServiceRef(Spwn(Var("F")), "main")

    def test_spwn_local(self):
        e = parse_expr("spwn local x")
        assert e.placement is Placement.LOCAL

    def test_repl_two_operands(self):
        e = parse_expr("repl w img(t, [])")
        assert e == Repl(Var("w"), Image(Var("t"), ()))

    def test_image_with_buffer(self):
        e = parse_expr("img(srv { a<x: Int> :> par }, [a<1>, a<2>])")
        assert isinstance(e, Image)
        assert [m.args for m in e.buffer] == [(BaseLit(1),), (BaseLit(2),)]

    def test_image_buffer_args_must_be_values(self):
        with pytest.raises(ParseError):
            parse_expr("img(t, [a<f(1)>])")

    def test_builtin_call_vs_apply(self):
        assert parse_expr("max(7, 11)") == BaseOp("max", (BaseLit(7), BaseLit(11)))
        from cpl.parser import SApply

        assert isinstance(parse_expr("f(7)"), SApply)

    def test_infix_and_precedence(self):
        e = parse_expr("a + 1 :: xs")
        assert e == BaseOp("cons", (BaseOp("add", (Var("a"), BaseLit(1))), Var("xs")))

    def test_no_bare_angle_comparison(self):
        # `a < b` begins a request and fails at end of input, by design.
        with pytest.raises(ParseError):
            parse_expr("a < b")

    def test_negative_literal(self):
        assert parse_expr("-1") == BaseLit(-1)

    def test_type_application(self):
        e = parse_expr("Seq[Int]#foreach<xs, f>")
        assert isinstance(e.callee.target, TypeApp)

    def test_typeabs(self):
        e = parse_expr("/\\a <: Top. par")
        assert e == TypeAbs("a", Top(), Par(()))

    def test_keyword_service_names(self):
        e = parse_expr("srv { let<x: Int> :> k<x> }")
        assert e.rules[0].patterns[0].service == "let"
        assert parse_expr("w#let<5>").callee.service == "let"

    def test_addresses(self):
        assert parse_expr("@3") == Addr(Address(3))
        assert parse_expr("@~3") == Addr(Address(3, Placement.LOCAL))

    def test_external_ref(self):
        from cpl.core import ExternalRef

        assert parse_expr("^result") == ExternalRef("result")

    def test_function_type_sugar(self):
        prog = parse("type F = (Int, Bool) -> Int; par")
        alias = prog.aliases[0]
        assert alias.rhs == SvcT((INT, BaseT("Bool"), SvcT((INT,))))

    def test_tuple_vs_group_type(self):
        prog = parse("type P = (Int, Bool); type G = (Int); par")
        assert prog.aliases[0].rhs == DataT("Tuple", (INT, BaseT("Bool")))
        assert prog.aliases[1].rhs == INT

    def test_defs_need_semicolons(self):
        with pytest.raises(ParseError):
            parse("def F = par def G = par")

    @pytest.mark.parametrize(
        "src, msg, loc",
        [
            ('if c "then" x else y', "expected 'then', found 'then'", "1:6"),
            ('f(a "," b)', "expected ',', found ','", "1:5"),
            ('def x = 1 ";"', "expected ';', found ';'", "1:11"),
        ],
    )
    def test_a_string_literal_is_not_the_punctuation_it_spells(self, src, msg, loc):
        with pytest.raises(ParseError) as ei:
            parse(src)
        assert (ei.value.msg, str(ei.value.loc)) == (msg, loc)


def test_long_cons_chain_parses_without_a_frame_per_element():
    assert sys.getrecursionlimit() <= 1000
    e = parse_expr(" :: ".join(map(str, range(10_000))) + " :: []")
    for i in range(10_000):
        assert e.op == "cons" and e.operands[0] == BaseLit(i)
        e = e.operands[1]
    assert e == ListV(())


def test_nesting_capacity_at_the_default_recursion_limit():
    """The deepest parenthesis nesting `parse_expr` accepts in a fresh
    interpreter at the default recursion limit. Three Python frames per
    level accept 329 levels on CPython 3.11; five would accept 197."""
    code = """
from cpl.errors import ParseError
from cpl.parser import parse_expr

def parses(depth):
    try:
        parse_expr("(" * depth + "1" + ")" * depth)
    except ParseError as exc:
        assert exc.msg == "expression nested too deeply", exc
        return False
    return True

lo, hi = 1, 2000
while lo < hi:
    mid = (lo + hi + 1) // 2
    lo, hi = (mid, hi) if parses(mid) else (lo, mid - 1)
print(lo)
"""
    rc, out, err = fresh_interpreter("-c", code)
    assert rc == 0, err
    assert int(out) >= 300


# ---------------------------------------------------------------------------
# Round trip: desugar(parse(pretty_print(e))) is alpha-equivalent to e.
# ---------------------------------------------------------------------------

_var_names = st.sampled_from(["x", "y", "k", "w"])
_services = st.sampled_from(["a", "b", "work"])


@st.composite
def core_types(draw, depth=2):
    if depth == 0:
        return draw(st.sampled_from([Top(), UnitT(), INT, BaseT("Bool")]))
    c = draw(st.integers(0, 4))
    if c == 0:
        return draw(core_types(depth=0))
    if c == 1:
        return SvcT(tuple(draw(st.lists(core_types(depth=depth - 1), max_size=2))))
    if c == 2:
        return SrvT((("a", SvcT((draw(core_types(depth=depth - 1)),))),))
    if c == 3:
        return InstT(draw(core_types(depth=depth - 1)))
    return DataT("List", (draw(core_types(depth=depth - 1)),))


@st.composite
def core_exprs(draw, depth=3):
    if depth == 0:
        return draw(
            st.sampled_from(
                [BaseLit(1), BaseLit(True), BaseLit("s"), Par(()), Var("x"), This(), ZeroImage(), Addr(Address(2))]
            )
        )
    c = draw(st.integers(0, 9))
    sub = core_exprs(depth=depth - 1)
    if c == 0:
        return draw(core_exprs(depth=0))
    if c == 1:
        return Par(tuple(draw(st.lists(sub, min_size=1, max_size=3))))
    if c == 2:
        return Request(draw(sub), tuple(draw(st.lists(sub, max_size=2))))
    if c == 3:
        return ServiceRef(draw(sub), draw(_services))
    if c == 4:
        return Spwn(draw(sub), draw(st.sampled_from(list(Placement))))
    if c == 5:
        t = draw(core_types(depth=1))
        body = draw(sub)
        return ServerTemplate(
            (ReactionRule((JoinPattern(draw(_services), (("p", t),)),), body),),
            transparent_this=draw(st.booleans()),
        )
    if c == 6:
        return Snap(draw(sub))
    if c == 7:
        return Repl(draw(sub), draw(sub))
    if c == 8:
        return If(draw(sub), draw(sub), draw(sub))
    return BaseOp("add", (draw(sub), draw(sub)))


def _roundtrip(e):
    text = pretty_expr(e)
    prog = parse(text)
    assert prog.main is not None
    core = desugar_program(Program((), (), prog.main), {})
    return core


@given(e=core_exprs())
@settings(max_examples=300, deadline=None)
def test_pretty_parse_roundtrip(e):
    back = _roundtrip(e)
    assert alpha_eq(back, e), f"{pretty_expr(e)} != {pretty_expr(back)}"


def test_roundtrip_fact_template(self=None):
    prog = parse(tc.example_source("fact.cpl"))
    core = desugar_program(Program((), (), prog.main), {})
    back = _roundtrip(core)
    assert alpha_eq(back, core)


def test_roundtrip_preserves_placement():
    e = Spwn(Par(()), Placement.LOCAL)
    assert "spwn local" in pretty_expr(e)
    assert _roundtrip(e).placement is Placement.LOCAL
