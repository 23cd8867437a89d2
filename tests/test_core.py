"""Substitution, values, and structural predicates."""

import pytest
from hypothesis import given, settings, strategies as st

import cpl.core as core
from cpl.core import (
    Addr,
    Address,
    BaseLit,
    BaseT,
    Image,
    Inert,
    JoinPattern,
    MessageValue,
    Par,
    Placement,
    ReactionRule,
    Request,
    ServerTemplate,
    ServiceRef,
    SrvT,
    SvcT,
    This,
    Top,
    TypeVar,
    UnitT,
    Univ,
    Var,
    alpha_eq,
    free_type_vars,
    free_vars,
    is_value,
    substitute,
    substitute_type,
)
from cpl.errors import LinearityError, Loc

INT = BaseT("Int")


def tpl(*rules):
    return ServerTemplate(tuple(rules))


def rule(patterns, body):
    return ReactionRule(tuple(patterns), body)


def pat(svc, *params):
    return JoinPattern(svc, tuple((p, INT) for p in params))


FACT_TEMPLATE = tpl(
    rule([pat("main", "n"), ], Request(ServiceRef(This(), "fac"), (Var("n"),))),
    rule([pat("fac", "n"), pat("acc", "a")], Request(ServiceRef(This(), "res"), (Var("a"),))),
)

# A template with one free name, k, for the closures among the samples.
OPEN_TEMPLATE = tpl(rule([pat("go", "p")], Request(Var("k"), (Var("p"),))))


class TestSubstitute:
    def test_variable_hit(self):
        assert substitute(Var("x"), {"x": Addr(Address(3))}) == Addr(Address(3))

    def test_variable_miss(self):
        assert substitute(Var("y"), {"x": Addr(Address(3))}) == Var("y")

    def test_this_not_substituted_under_template(self):
        # Templates rebind this; an outer binding must not reach inside.
        out = substitute(FACT_TEMPLATE, {"this": Addr(Address(0))})
        assert out == FACT_TEMPLATE

    def test_this_substituted_in_transparent_template(self):
        t = ServerTemplate(
            (rule([pat("let", "x")], Request(ServiceRef(This(), "b"), (Var("x"),))),),
            transparent_this=True,
        )
        out = substitute(t, {"this": Addr(Address(7))})
        body = out.rules[0].body
        assert body.callee.target == Addr(Address(7))

    def test_request_multi(self):
        e = Request(Var("k"), (Var("n"),))
        out = substitute(e, {"k": ServiceRef(Addr(Address(0)), "out"), "n": BaseLit(6)})
        assert out == Request(ServiceRef(Addr(Address(0)), "out"), (BaseLit(6),))

    def test_pattern_shadowing(self):
        # Parameter x shadows the outer substitution inside the rule body.
        t = tpl(rule([pat("a", "x")], Request(Var("k"), (Var("x"),))))
        out = substitute(t, {"x": BaseLit(1)})
        assert out.rules[0].body.args == (Var("x"),)

    def test_capture_avoidance(self):
        # Replacement value has a free x; the pattern's x must be renamed.
        open_template = tpl(rule([pat("go", "y")], Request(Var("x"), (Var("y"),))))
        target = tpl(rule([pat("a", "x")], Request(Var("f"), (Var("x"),))))
        out = substitute(target, {"f": open_template})
        r = out.rules[0]
        new_param = r.patterns[0].params[0][0]
        assert new_param != "x"
        inner_template = r.body.callee
        assert "x" in free_vars(inner_template)
        assert free_vars(out) == {"x"}

    def test_idempotent_for_closed_values(self):
        sigma = {"x": BaseLit(5), "k": ServiceRef(Addr(Address(1)), "out")}
        e = Request(Var("k"), (Var("x"), Var("y")))
        once = substitute(e, sigma)
        assert substitute(once, sigma) == once

    def test_buffer_args_substituted(self):
        img = Image(FACT_TEMPLATE, (MessageValue("main", (Var("v"),)),))
        out = substitute(img, {"v": BaseLit(2)})
        assert out.buffer[0].args == (BaseLit(2),)


class TestTypeSubstitution:
    def test_var_hit(self):
        assert substitute_type(TypeVar("a"), "a", UnitT()) == UnitT()

    def test_shadowed_binder(self):
        t = Univ("a", Top(), TypeVar("a"))
        assert substitute_type(t, "a", UnitT()) == t

    def test_svc_args(self):
        t = SvcT((TypeVar("a"), UnitT()))
        out = substitute_type(t, "a", SrvT(()))
        assert out == SvcT((SrvT(()), UnitT()))

    def test_capture_renames_binder(self):
        t = Univ("b", Top(), SvcT((TypeVar("a"), TypeVar("b"))))
        out = substitute_type(t, "a", TypeVar("b"))
        assert isinstance(out, Univ)
        assert out.var != "b"
        assert out.body.args[0] == TypeVar("b")

    def test_annotations_in_patterns(self):
        t = ServerTemplate(
            (ReactionRule((JoinPattern("a", (("x", TypeVar("a")),)),), Par(())),)
        )
        out = substitute_type(t, "a", UnitT())
        assert out.rules[0].patterns[0].params[0][1] == UnitT()


class TestFreeVars:
    def test_ftv_unit(self):
        assert free_type_vars(UnitT()) == frozenset()

    def test_ftv_binder_removed(self):
        t = Univ("a", Top(), SvcT((TypeVar("a"), TypeVar("b"))))
        assert free_type_vars(t) == {"b"}

    def test_ftv_srv(self):
        t = SrvT((("work", SvcT((TypeVar("g"),))),))
        assert free_type_vars(t) == {"g"}

    def test_template_frees(self):
        t = tpl(rule([pat("a", "x")], Request(Var("k"), (Var("x"), Var("y")))))
        assert free_vars(t) == {"k", "y"}

    @staticmethod
    def binder_cases():
        """(term, its free variables): each derived form and the template,
        each binding a name that also occurs free outside its scope."""
        from cpl.parser import SApply, SLambda, SLet, SLetK, SThunk

        x, y, k = Var("x"), Var("y"), Var("k")
        uses = lambda *vs: Request(k, tuple(vs))  # noqa: E731
        body = uses(ServiceRef(This(), "s"), x, y)
        return [
            (SLet("x", None, uses(x), uses(x, y)), {"k", "x", "y"}),
            (SLet("x", None, y, x), {"y"}),
            (SLetK((("x", INT),), uses(x), uses(x, y)), {"k", "x", "y"}),
            (SLetK((("x", INT), ("k", INT)), uses(y), uses(x, y)), {"k", "y"}),
            (SLambda((("x", INT), ("k", INT)), INT, uses(x, y)), {"y"}),
            (SThunk(None, uses(x)), {"k", "x"}),
            (SApply(x, (y, This())), {"x", "y", "this"}),
            (tpl(rule([pat("s", "x")], body)), {"k", "y"}),
            (ServerTemplate((rule([pat("s", "x")], body),), transparent_this=True), {"k", "y", "this"}),
            (Par((SLet("x", None, y, x), SLambda((("y", INT),), INT, x))), {"x", "y"}),
            (tpl(rule([pat("s", "x")], SLet("y", None, x, uses(This(), y)))), {"k"}),
        ]

    @pytest.mark.parametrize("index", range(11))
    def test_free_vars_reads_the_binders_of_derived_forms_and_templates(self, index):
        term, want = self.binder_cases()[index]
        assert free_vars(term) == want


class TestAddress:
    def test_hash_agrees_with_equality(self):
        assert Address(3) == Address(3) and hash(Address(3)) == hash(Address(3))
        assert Address(3) != Address(3, Placement.LOCAL)
        table = {Address(3): "remote", Address(3, Placement.LOCAL): "local"}
        assert table[Address(3)] == "remote" and table[Address(3, Placement.LOCAL)] == "local"


class TestValues:
    def test_unit_par_is_value(self):
        assert is_value(Par(()))

    def test_request_not_value(self):
        assert not is_value(Request(Var("k"), ()))

    def test_image_value(self):
        img = Image(FACT_TEMPLATE, (MessageValue("main", (BaseLit(3),)),))
        assert is_value(img)

    def test_image_with_open_template_not_value(self):
        assert not is_value(Image(Var("w"), ()))

    def test_service_ref_value_only_at_address(self):
        assert is_value(ServiceRef(Addr(Address(0)), "x"))
        assert not is_value(ServiceRef(Var("y"), "x"))


def _reference_is_value(e) -> bool:
    """`is_value` decided per instance, with no flag and no cache."""
    if isinstance(e, (ServerTemplate, core.Closure, Addr, core.ZeroImage, core.TypeAbs, BaseLit, core.ExternalRef)):
        return True
    if isinstance(e, ServiceRef):
        return isinstance(e.target, (Addr, core.ExternalRef))
    if isinstance(e, Par):
        return len(e.exprs) == 0
    if isinstance(e, Image):
        return isinstance(e.template, (ServerTemplate, core.Closure)) and all(
            map(_reference_is_value, core.children(e)[1:])
        )
    if isinstance(e, (core.TupleV, core.ListV, core.MapV)):
        return all(map(_reference_is_value, core.children(e)))
    return False


def fresh_value_samples():
    """New nodes of every class in `core.SHAPES`, values and non-values of
    each class that decides per instance, none with a cached answer."""
    addr, one = Addr(Address(0)), BaseLit(1)
    waiting = Request(Var("k"), ())
    return [
        Var("x"), This(), addr, core.ZeroImage(), one, core.ExternalRef("result"), FACT_TEMPLATE,
        core.Closure(OPEN_TEMPLATE, {"k": addr}), core.Spwn(FACT_TEMPLATE), core.Snap(addr), core.Repl(addr, core.ZeroImage()),
        Request(core.ExternalRef("print"), (one,)), waiting,
        ServiceRef(addr, "a"), ServiceRef(core.ExternalRef("timer"), "a"), ServiceRef(Var("y"), "a"),
        ServiceRef(waiting, "a"),
        Par(()), Par((waiting,)), Par((Par(()),)),
        Image(FACT_TEMPLATE, ()), Image(FACT_TEMPLATE, (MessageValue("main", (one,)),)),
        Image(FACT_TEMPLATE, (MessageValue("main", (one, waiting)),)), Image(Var("w"), ()), Image(addr, ()),
        core.TypeAbs("a", Top(), waiting), core.TypeApp(addr, INT),
        core.BaseOp("add", (one, one)), core.If(BaseLit(True), one, one),
        core.TupleV(()), core.TupleV((one, addr)), core.TupleV((one, waiting)),
        core.ListV((one,)), core.ListV((waiting, one)),
        core.MapV(((one, one),)), core.MapV(((one, waiting),)), core.MapV(((waiting, one),)),
    ]


def test_value_samples_cover_every_term_class():
    assert {type(e) for e in fresh_value_samples()} == set(core.SHAPES)


@pytest.mark.parametrize("index", range(len(fresh_value_samples())))
def test_value_flag_or_rule_agrees_with_the_per_instance_decision(index):
    e = fresh_value_samples()[index]
    want = _reference_is_value(e)
    assert is_value(e) is want
    assert is_value(e) is want  # again, from the class flag or the node's cache


@pytest.mark.parametrize("cls", core.SHAPES, ids=lambda c: c.__name__)
def test_every_term_class_has_a_value_flag_or_a_per_instance_rule(cls):
    flagged = "_vcache" in vars(cls)
    assert flagged != (cls in core.VALUE_RULES), f"{cls.__name__} needs exactly one of a flag and a rule"
    if flagged:
        assert isinstance(vars(cls)["_vcache"], bool)


def one_of_each_expr_class(loc):
    """One node of every concrete Expr class in cpl.core, each with
    subterms where the class has any."""
    import cpl.core as core

    x, y = Var("x"), BaseLit(2)
    msg = MessageValue("go", (x, y))
    return [
        core.Var("v", loc=loc),
        core.This(loc=loc),
        core.ServerTemplate(FACT_TEMPLATE.rules, loc=loc),
        core.Closure(core.ServerTemplate(OPEN_TEMPLATE.rules, loc=loc), {"k": y}),
        core.Spwn(x, core.Placement.LOCAL, loc=loc),
        core.ServiceRef(x, "svc", loc=loc),
        core.Request(x, (y, x), loc=loc),
        core.Par((x, y, x), loc=loc),
        core.Snap(x, loc=loc),
        core.Repl(x, y, loc=loc),
        core.Addr(Address(4), loc=loc),
        core.Image(x, (msg, MessageValue("stop", ()), msg), loc=loc),
        core.ZeroImage(loc=loc),
        core.TypeAbs("a", Top(), x, loc=loc),
        core.TypeApp(x, INT, loc=loc),
        core.BaseOp("add", (x, y), loc=loc),
        core.BaseLit(7, loc=loc),
        core.If(x, y, Par(()), loc=loc),
        core.TupleV((x, y), loc=loc),
        core.ListV((y, x), loc=loc),
        core.MapV(((y, x), (BaseLit(1), y)), loc=loc),
        core.ExternalRef("result", loc=loc),
    ]


def one_of_each_type_class():
    """One node of every TypeExpr class in cpl.core, each with subtypes
    where the class has any."""
    import cpl.core as core

    a = TypeVar("a")
    return [
        core.Top(),
        core.UnitT(),
        core.Bot(),
        INT,
        a,
        core.SvcT((a, INT)),
        core.SrvT((("s", core.SvcT((a,))), ("r", core.SvcT(())))),
        core.SrvBot(),
        core.InstT(a),
        core.ImgT(INT),
        core.Univ("a", INT, core.SvcT((a,))),
        core.DataT("Map", (a, INT)),
        core.AliasT("A", (INT, a)),
    ]


class TestSubterms:
    def test_type_table_covers_every_type_class_with_subtypes(self):
        import dataclasses
        import inspect

        import cpl.core as core

        types = one_of_each_type_class()
        classes = {
            c for _, c in inspect.getmembers(core, inspect.isclass)
            if issubclass(c, core.TypeExpr) and c is not core.TypeExpr
        }
        assert classes == {type(t) for t in types}

        def holds_types(x):
            return isinstance(x, core.TypeExpr) or isinstance(x, tuple) and any(map(holds_types, x))

        assert set(core.TYPE_SHAPES) == {
            type(t) for t in types if any(holds_types(getattr(t, f.name)) for f in dataclasses.fields(t))
        }

    @pytest.mark.parametrize("t", one_of_each_type_class(), ids=lambda t: type(t).__name__)
    def test_type_rebuild_round_trip(self, t):
        from cpl.core import TYPE_SHAPES, map_type

        shape = TYPE_SHAPES.get(type(t))
        if shape is not None:
            assert shape.rebuild(t, shape.children(t)) == t
        assert map_type(t, lambda u: u) is t

    def test_table_covers_every_expr_class(self):
        import inspect

        import cpl.core as core

        classes = {
            c for _, c in inspect.getmembers(core, inspect.isclass)
            if issubclass(c, core.Expr) and c is not core.Expr and c.__module__ == core.__name__
        }
        assert classes == set(core.SHAPES)
        assert classes == {type(e) for e in one_of_each_expr_class(None)}

    @pytest.mark.parametrize("e", one_of_each_expr_class(Loc(3, 9)), ids=lambda e: type(e).__name__)
    def test_with_children_round_trip_keeps_loc(self, e):
        from cpl.core import children, with_children

        out = with_children(e, children(e))
        assert out == e
        assert out.loc == Loc(3, 9)

    def test_with_children_replaces_in_order(self):
        from cpl.core import children, with_children

        img = Image(Var("t"), (MessageValue("a", (Var("p"),)), MessageValue("b", (Var("q"), Var("r")))))
        kids = children(img)
        assert kids == (Var("t"), Var("p"), Var("q"), Var("r"))
        new = with_children(img, [Var(f"n{i}") for i in range(4)])
        assert new == Image(
            Var("n0"), (MessageValue("a", (Var("n1"),)), MessageValue("b", (Var("n2"), Var("n3"))))
        )

    def test_substitution_shares_untouched_subtrees(self):
        left = Request(Var("k"), (BaseLit(1),))
        right = Request(ServiceRef(Var("w"), "a"), ())
        out = substitute(Par((left, right)), {"w": Addr(Address(1))})
        assert out.exprs[0] is left and out.exprs[1] is not right
        unchanged = Par((left, right))
        assert substitute_type(unchanged, "a", INT) is unchanged


class TestLinearity:
    def test_rejects_duplicate_params(self):
        with pytest.raises(LinearityError):
            ReactionRule(
                (JoinPattern("a", (("x", INT),)), JoinPattern("b", (("x", INT),))),
                Par(()),
            )

    def test_same_service_distinct_params_ok(self):
        r = ReactionRule(
            (JoinPattern("a", (("x", INT),)), JoinPattern("a", (("y", INT),))),
            Par(()),
        )
        assert r.bound_names == ("x", "y")


names = st.sampled_from(["x", "y", "z", "k"])


@st.composite
def small_values(draw, depth=2):
    if depth == 0:
        return draw(st.sampled_from([BaseLit(1), BaseLit(True), Par(()), Addr(Address(5))]))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return draw(small_values(depth=0))
    if choice == 1:
        return ServiceRef(Addr(Address(draw(st.integers(0, 3)))), draw(names))
    if choice == 2:
        body = Request(Var(draw(names)), (Var("p"),))
        return ServerTemplate((ReactionRule((JoinPattern("go", (("p", INT),)),), body),))
    return Image(
        ServerTemplate((ReactionRule((JoinPattern("go", (("p", INT),)),), Par(())),)),
        (MessageValue("go", (draw(small_values(depth=0)),)),),
    )


@given(v=small_values(), w=small_values())
@settings(max_examples=200, deadline=None)
def test_substitution_idempotence_property(v, w):
    sigma = {"x": v, "k": w}
    e = Par((Request(Var("k"), (Var("x"),)), Request(ServiceRef(This(), "a"), (Var("x"),))))
    once = substitute(e, sigma)
    again = substitute(once, sigma)
    if not (free_vars(v) | free_vars(w)) & {"x", "k"}:
        assert once == again


@given(v=small_values())
@settings(max_examples=100, deadline=None)
def test_renaming_preserves_observables(v):
    from cpl.core import expr_type_vars

    target = tpl(rule([pat("a", "x")], Request(Var("f"), (Var("x"),))))
    out = substitute(target, {"f": v})
    assert is_value(out)
    assert out.service_names() == target.service_names()
    assert expr_type_vars(out) == expr_type_vars(target) | expr_type_vars(v)
    assert alpha_eq(out, substitute(target, {"f": v}))


def one_of_each_frozen_class():
    """Instances covering every frozen class of the toolchain: the node
    classes above (each twice, the second with a position) and the records
    of the other layers, some classes with unequal pairs."""
    import cpl.builtins as builtins
    import cpl.machine as machine
    import cpl.parser as parser
    import cpl.typecheck as typecheck

    x, y, loc = Var("x"), BaseLit(2), Loc(3, 9)
    alias = parser.TypeAliasDef("A", ("t",), TypeVar("t"), loc)
    definition = parser.Definition("D", None, x, Loc(1, 1))
    return [
        *one_of_each_type_class(), BaseT("Bool"), Univ("b", INT, TypeVar("b")),
        *one_of_each_expr_class(None), *one_of_each_expr_class(loc), BaseLit("it's"), BaseLit(-3),
        *FACT_TEMPLATE.rules, *FACT_TEMPLATE.rules[1].patterns,
        Address(4), Address(4, Placement.LOCAL), MessageValue("go", (x,)), Inert(),
        loc, Loc(3, 10),
        parser.SLet("v", None, y, x, loc=loc), parser.SLetK((("a", INT),), x, y), parser.SLambda((("p", INT),), INT, x),
        parser.SApply(x, (y,)), parser.SThunk(None, x), definition, alias, parser.Program((alias,), (definition,), x),
        typecheck.TypeContext(), typecheck.TypeContext((("var", "x", INT),)),
        builtins.OPS["add"],
        machine.MatchResult((MessageValue("go", (y,)),), (), (("x", y),)),
        machine.Stepped(machine.initial_config(x), "Par", "detail"),
        machine.TraceStep(0, "Par", "detail", "top"),
    ]


def frozen_classes():
    """Every dataclass of the toolchain whose instances refuse assignment."""
    import dataclasses
    import importlib
    import inspect

    mods = [importlib.import_module(f"cpl.{m}") for m in ("builtins", "core", "errors", "machine", "parser", "typecheck")]
    return {
        c for m in mods for _, c in inspect.getmembers(m, inspect.isclass)
        if c.__module__ == m.__name__ and dataclasses.is_dataclass(c) and "__setattr__" in c.__dict__
    }


def outcome(fn, *args):
    """`fn(*args)`, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the exception type is the outcome
        return type(e)


class TestNodeContract:
    """Each frozen class behaves as a frozen dataclass with its fields: a
    twin made by `dataclasses.make_dataclass` from them is the reference."""

    OWN_EQUALITY = {"Univ", "Address", "Closure"}

    def twins(self):
        import dataclasses

        out = {}
        for cls in frozen_classes():
            fs = [
                (f.name, f.type, dataclasses.field(default=f.default, repr=f.repr, compare=f.compare))
                for f in dataclasses.fields(cls)
            ]
            post = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
            out[cls] = dataclasses.make_dataclass(cls.__name__, fs, frozen=True, namespace=post)
        return out

    def test_samples_cover_every_frozen_class(self):
        assert len(frozen_classes()) >= 50
        assert {type(x) for x in one_of_each_frozen_class()} == frozen_classes()

    def test_constructors_repr_eq_and_hash_match_the_twins(self):
        import dataclasses
        import inspect

        twins = self.twins()
        samples = one_of_each_frozen_class()
        pairs = []
        for x in samples:
            cls, twin = type(x), twins[type(x)]
            kw = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
            assert inspect.signature(cls) == inspect.signature(twin), cls
            t = twin(**kw)
            assert repr(cls(*kw.values())) == repr(cls(**kw)) == repr(x) == repr(t)
            assert repr(dataclasses.replace(x)) == repr(x)
            if cls.__name__ not in self.OWN_EQUALITY:
                assert outcome(hash, x) == outcome(hash, t), cls
            pairs.append((x, t))
        for x, t in pairs:
            for y, u in pairs:
                if type(x).__name__ not in self.OWN_EQUALITY:
                    assert (x == y, x != y) == (t == u, t != u), (x, y)

    @pytest.mark.parametrize("x", one_of_each_frozen_class(), ids=lambda x: type(x).__name__)
    def test_assignment_and_deletion_raise(self, x):
        import dataclasses

        for name in [f.name for f in dataclasses.fields(x)] + ["_cache"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)

    def test_univ_is_alpha_equivalence_and_address_hashes_its_id(self):
        a = Univ("a", Top(), SvcT((TypeVar("a"),)))
        b = Univ("b", Top(), SvcT((TypeVar("b"),)))
        assert a == b and hash(a) == hash(b) == hash(Top())
        assert a != Univ("b", Top(), SvcT((TypeVar("a"),)))
        assert Address(4) == Address(4) != Address(4, Placement.LOCAL)
        assert hash(Address(4, Placement.LOCAL)) == hash(4)
