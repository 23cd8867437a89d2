"""Typing rules: minimal types, subsumption sites, errors, routing tables."""

import pytest

import cpl.toolchain as tc
from cpl.core import (
    Addr,
    Address,
    BaseT,
    DataT,
    ImgT,
    Inert,
    InstT,
    Live,
    SrvBot,
    SrvT,
    SvcT,
    Top,
    TypeVar,
    UnitT,
    Univ,
    ZeroImage,
)
from cpl.desugar import desugar_program
from cpl.parser import Program, parse, parse_expr
from cpl.typecheck import (
    TypeCheckError,
    TypeContext,
    check_routing_table,
    context_from,
    server_type_union,
    subtype,
    type_of,
)

INT = BaseT("Int")
BOOL = BaseT("Bool")
EMPTY = TypeContext()


def typecheck(text, env=None, sigma=None):
    prog = parse(text)
    core = desugar_program(Program((), (), prog.main), env or {})
    return type_of(context_from(env or {}), sigma or {}, core)


def expect_error(text, kind, env=None):
    with pytest.raises(TypeCheckError) as ei:
        typecheck(text, env=env)
    assert ei.value.kind == kind, ei.value
    return ei.value


class TestSubtype:
    def test_srvbot_below_all_servers(self):
        assert subtype(EMPTY, SrvBot(), SrvT((("work", SvcT((INT,))),)))

    def test_width(self):
        t = SrvT((("a", SvcT((INT,))), ("b", SvcT(()))))
        u = SrvT((("a", SvcT((INT,))),))
        assert subtype(EMPTY, t, u)
        assert not subtype(EMPTY, u, t)

    def test_svc_contravariant(self):
        narrow = SrvT((("a", SvcT((INT,))),))
        wide = SrvT((("a", SvcT((INT,))), ("b", SvcT(()))))
        assert subtype(EMPTY, SvcT((narrow,)), SvcT((wide,)))
        assert not subtype(EMPTY, SvcT((wide,)), SvcT((narrow,)))

    def test_depth_through_inst(self):
        t = SrvT((("a", SvcT((INT,))), ("b", SvcT(()))))
        u = SrvT((("a", SvcT((INT,))),))
        assert subtype(EMPTY, InstT(t), InstT(u))
        assert subtype(EMPTY, ImgT(t), ImgT(u))

    def test_tvar_promotes_to_bound(self):
        ctx = EMPTY.extend_tvar("a", SrvT((("x", SvcT(())),)))
        assert subtype(ctx, TypeVar("a"), SrvT(()))
        assert not subtype(ctx, SrvT(()), TypeVar("a"))

    def test_kernel_univ_needs_equal_bounds(self):
        t = Univ("a", SrvT(()), TypeVar("a"))
        u = Univ("b", SrvT(()), Top())
        assert subtype(EMPTY, t, u)
        v = Univ("b", Top(), Top())
        assert not subtype(EMPTY, t, v)

    def test_data_covariant(self):
        assert subtype(EMPTY, DataT("List", (SrvBot(),)), DataT("List", (SrvT(()),)))
        assert not subtype(EMPTY, DataT("List", (INT,)), DataT("List", (BOOL,)))


class TestTypeOf:
    def test_fact_template_type(self):
        t = typecheck(
            """srv {
  main<n: Int, k: <Int>> :> (this#fac<n> || this#acc<1> || this#out<k>)
  fac<n: Int> & acc<a: Int> :>
    if n <= 1 then this#res<a> else (this#fac<n - 1> || this#acc<a * n>)
  res<r: Int> & out<k: <Int>> :> k<r>
}"""
        )
        assert t == SrvT(
            (
                ("acc", SvcT((INT,))),
                ("fac", SvcT((INT,))),
                ("main", SvcT((INT, SvcT((INT,))))),
                ("out", SvcT((SvcT((INT,)),))),
                ("res", SvcT((INT,))),
            )
        )

    def test_zero_image(self):
        assert typecheck("zero") == ImgT(SrvBot())

    def test_repl_with_zero_via_srvbot(self):
        sigma = {Address(0): ImgT(SrvT((("a", SvcT(())),)))}
        core = parse_expr("repl @0 zero")
        assert type_of(EMPTY, {}, ZeroImage()) == ImgT(SrvBot())
        assert type_of(EMPTY, sigma, core) == UnitT()

    def test_request_on_non_service(self):
        expect_error("42<>", "NotAService")

    def test_unbound_var(self):
        expect_error("missing", "UnboundVar")

    def test_request_arity(self):
        expect_error("(spwn srv { a<x: Int> :> par })#a<1, 2>", "ArityMismatch")

    def test_request_argument_subtyping(self):
        expect_error("(spwn srv { a<x: Int> :> par })#a<true>", "NotASubtype")

    def test_service_not_found(self):
        expect_error("(spwn srv { a<x: Int> :> par })#b<1>", "ServiceNotFound")

    def test_inconsistent_service_types(self):
        expect_error(
            "srv { a<x: Int> :> par  a<y: Bool> :> par }", "InconsistentServiceType"
        )

    def test_escaping_type_var(self):
        expect_error("srv { a<x: q> :> par }", "EscapingTypeVar")

    def test_rule_body_must_be_unit(self):
        expect_error("srv { a<x: Int> :> 42 }", "NotASubtype")

    def test_spwn_template_coercion(self):
        t = typecheck("spwn srv { a<x: Int> :> par }")
        assert t == InstT(SrvT((("a", SvcT((INT,))),)))

    def test_snap_requires_instance(self):
        expect_error("snap 5", "NotAnInstance")

    def test_typeapp(self):
        t = typecheck("(/\\a. spwn srv { id<x: a> :> par })[Int]")
        assert t == InstT(SrvT((("id", SvcT((INT,))),)))

    def test_typeapp_bound_violation(self):
        expect_error("(/\\a <: srv { m: <> }. par)[Int]", "NotASubtype")

    def test_typeapp_non_universal(self):
        expect_error("5[Int]", "NotAUniversal")

    def test_progress_counterexample_typechecks(self):
        t = typecheck("(spwn srv { foo<> & bar<> :> par })#foo<>")
        assert t == UnitT()

    def test_image_buffer_checked(self):
        t = typecheck("img(srv { a<x: Int> :> par }, [a<3>])")
        assert t == ImgT(SrvT((("a", SvcT((INT,))),)))
        expect_error("img(srv { a<x: Int> :> par }, [a<true>])", "BufferIllTyped")
        expect_error("img(srv { a<x: Int> :> par }, [b<1>])", "ServiceNotFound")
        expect_error("img(srv { a<x: Int> :> par }, [a<1, 2>])", "ArityMismatch")

    def test_address_needs_allocation(self):
        expect_error("@3", "UnboundVar")
        sigma = {Address(3): ImgT(SrvT(()))}
        assert type_of(EMPTY, sigma, Addr(Address(3))) == InstT(SrvT(()))

    def test_empty_list_is_bottom(self):
        from cpl.core import Bot

        assert typecheck("[]") == DataT("List", (Bot(),))
        # usable anywhere a list is expected
        assert typecheck("(spwn srv { a<x: List[Int]> :> par })#a<[]>") == UnitT()


class TestRoutingTable:
    def test_empty(self):
        assert check_routing_table(EMPTY, {}, {})

    def test_fact_entry(self):
        fact = parse_expr(
            "srv { main<n: Int, k: <Int>> :> par  fac<n: Int> & acc<a: Int> :> par "
            " res<r: Int> & out<k: <Int>> :> k<r> }"
        )
        t = type_of(EMPTY, {}, fact)
        addr = Address(0)
        table = {addr: Live(fact, ())}
        sigma = {addr: ImgT(t)}
        assert check_routing_table(EMPTY, sigma, table)

    def test_dom_mismatch(self):
        assert not check_routing_table(EMPTY, {Address(0): ImgT(SrvT(()))}, {})

    def test_inert_needs_srvbot_compatible_sigma(self):
        addr = Address(0)
        assert check_routing_table(EMPTY, {addr: ImgT(SrvT(()))}, {addr: Inert()})

    def test_buffer_violation_detected(self):
        tmpl = parse_expr("srv { a<x: Int> :> par }")
        t = type_of(EMPTY, {}, tmpl)
        addr = Address(0)
        from cpl.core import BaseLit, MessageValue

        table = {addr: Live(tmpl, (MessageValue("a", (BaseLit(True),)),))}
        assert not check_routing_table(EMPTY, {addr: ImgT(t)}, table)


class TestUnion:
    def test_disjoint(self):
        t = server_type_union(SrvT((("a", SvcT((INT,))),)), SrvT((("b", SvcT(())),)))
        assert t == SrvT((("a", SvcT((INT,))), ("b", SvcT(()))))

    def test_idempotent_overlap(self):
        s = SrvT((("a", SvcT((INT,))),))
        assert server_type_union(s, s) == s

    def test_conflict(self):
        with pytest.raises(TypeCheckError) as ei:
            server_type_union(
                SrvT((("a", SvcT((INT,))),)), SrvT((("a", SvcT((BOOL,))),))
            )
        assert ei.value.kind == "InconsistentServiceType"

    def test_union_and_template_conflicts_keep_their_diagnostics(self):
        """The union and a template's type share one service-table merge;
        each keeps its message, location and expected/actual types."""
        conflicts = [
            (lambda: server_type_union(SrvT((("a", SvcT((INT,))),)), SrvT((("a", SvcT((BOOL,))),))),
             "InconsistentServiceType: service 'a' has conflicting annotations in union (expected <Int>, got <Bool>)"),
            (lambda: type_of(EMPTY, {}, parse_expr("srv { a<x: Int> :> par  a<y: Bool> :> par }")),
             "1:1: InconsistentServiceType: service 'a' declared at different types (expected <Int>, got <Bool>)"),
        ]
        for conflict, text in conflicts:
            with pytest.raises(TypeCheckError) as ei:
                conflict()
            assert str(ei.value) == text
            assert (ei.value.expected, ei.value.actual) == (SvcT((INT,)), SvcT((BOOL,)))


def test_repl_image_interface_preserved():
    # replacing with an image of a narrower server type is allowed,
    # a mismatched one is not
    text = """
let w: inst srv { a: <Int> } = spwn srv { a<x: Int> :> par  b<> :> par } in
  repl w img(srv { a<x: Int> :> par }, [])
"""
    prog = parse(text)
    core = desugar_program(Program((), (), prog.main), {})
    assert type_of(EMPTY, {}, core) == UnitT()
    expect_error(
        "let w: inst srv { a: <Int> } = spwn srv { a<x: Int> :> par } in repl w img(srv { c<> :> par }, [])",
        "NotASubtype",
    )


def test_this_typed_as_instance():
    # this#x requires this to have an instance type inside templates
    t = typecheck("srv { a<> :> this#a<> }")
    assert t == SrvT((("a", SvcT(())),))


def test_substitution_lemma_property():
    """If G, x:T1 |- e2 : T2 and |- v : T1 then e2[x := v] types below T2."""
    import random
    from cpl.core import substitute

    rng = random.Random(13)
    # (T1 source for v, e2 template using x)
    v_pool = [
        ("5", INT),
        ("true", BOOL),
        ("spwn srv { a<y: Int> :> par }", InstT(SrvT((("a", SvcT((INT,))),)))),
        ("srv { a<y: Int> :> par }", SrvT((("a", SvcT((INT,))),))),
        ("(spwn srv { a<y: Int> :> par })#a", SvcT((INT,))),
    ]
    e2_pool = {
        INT: ["x + 1", "[x, 2]", "(x, true)", "if x <= 1 then par else par"],
        BOOL: ["not(x)", "if x then par else par"],
        InstT(SrvT((("a", SvcT((INT,))),))): ["x#a<1>", "snap x", "[x]"],
        SrvT((("a", SvcT((INT,))),)): ["spwn x", "img(x, [a<1>])"],
        SvcT((INT,)): ["x<3>", "(x, x)"],
    }
    checked = 0
    for _ in range(200):
        v_src, t1 = rng.choice(v_pool)
        e2_src = rng.choice(e2_pool[t1])
        ctx = EMPTY.extend_var("x", t1)
        prog_v = parse(v_src)
        v = desugar_program(Program((), (), prog_v.main), {})
        prog_e = parse(e2_src)
        e2 = desugar_program(Program((), (), prog_e.main), {"x": t1})
        t2 = type_of(ctx, {}, e2)
        tv = type_of(EMPTY, {}, v)
        assert subtype(EMPTY, tv, t1)
        out = substitute(e2, {"x": v})
        t_out = type_of(EMPTY, {}, out)
        assert subtype(EMPTY, t_out, t2), (v_src, e2_src, t_out, t2)
        checked += 1
    assert checked == 200


# The full diagnostic at each position where subsumption is a premise:
# kind, message, position, expected and actual type.
SUBSUMPTION_DIAGNOSTICS = [
    ("1 || par", "1:1: NotASubtype: parallel component must have type Unit (expected Unit, got Int)"),
    (
        "repl (spwn srv { a<> :> par }) (srv { b<> :> par })",
        "1:1: NotASubtype: replacement image must preserve the instance interface"
        " (expected img srv { a: <> }, got img srv { b: <> })",
    ),
    (
        "(spwn srv { a<x: Int> :> par })#a<true>",
        "1:35: NotASubtype: request argument has the wrong type (expected Int, got Bool)",
    ),
    (
        "(/\\a <: srv { m: <> }. par)[Int]",
        "1:28: NotASubtype: type argument violates the bound (expected srv { m: <> }, got Int)",
    ),
    ("if 1 then par else par", "1:1: NotASubtype: condition must be Bool (expected Bool, got Int)"),
    ("srv { a<> :> 1 }", "1:14: NotASubtype: rule body must have type Unit (expected Unit, got Int)"),
    (
        "img(srv { a<x: Int> :> par }, [a<true>])",
        "1:1: BufferIllTyped: buffered 'a' argument has the wrong type (expected Int, got Bool)",
    ),
    ("result<1 + true>", "1:10: NotASubtype: add: operand 2 has the wrong type (expected Int, got Bool)"),
]


@pytest.mark.parametrize("src, text", SUBSUMPTION_DIAGNOSTICS)
def test_subsumption_diagnostic_text(src, text):
    loaded = tc.load_program(src, include_prelude=False)
    with pytest.raises(TypeCheckError) as ei:
        tc.check_expr(loaded.core, loaded.env)
    assert str(ei.value) == text


def test_long_def_chain_checks_with_the_prelude():
    # Each def nests the rest of the program one `let` deeper, and the
    # checker recurses through every level: a frame added per level
    # would overflow the stack here.
    defs = "def K1 = 1;\n" + "".join(f"def K{i} = K{i - 1} + 1;\n" for i in range(2, 151))
    loaded = tc.load_program(defs + "result<K150>\n")
    assert tc.check_expr(loaded.core, loaded.env) == UnitT()
