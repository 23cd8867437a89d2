"""Pins of the type walks: `free_type_vars`, `substitute_type_in_type` and
`Desugarer.expand_type` over every annotation of the stdlib and the shipped
examples, and the errors `expand_type` raises for bad alias uses.

The annotations are found with a generic walk over dataclass fields, so the
pins do not depend on the walks they pin."""

import dataclasses
import gc
import hashlib
import random
import weakref

import pytest

import cpl.toolchain as tc
from cpl.core import (
    INT,
    TOP,
    AliasT,
    SvcT,
    TypeExpr,
    TypeVar,
    Univ,
    free_type_vars,
    substitute_type_in_type,
)
from cpl.desugar import Alias, Desugarer
from cpl.errors import DesugarError, Loc
from cpl.parser import parse
from cpl.pretty import pretty_type

EXAMPLES = ("fact.cpl", "stuck.cpl", "supervision_demo.cpl", "wordcount.cpl", "wordcount_ft.cpl", "wordcount_lb.cpl")


def _annotations(x, out):
    """The outermost types reachable from x through dataclass fields and
    tuples, in field order: every annotation of a parsed program."""
    if isinstance(x, TypeExpr):
        out.append(x)
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        for f in dataclasses.fields(x):
            _annotations(getattr(x, f.name), out)
    elif isinstance(x, tuple):
        for i in x:
            _annotations(i, out)
    return out


def _subtypes(t):
    """Every type node of t, t first, in field order."""
    out = []
    for f in dataclasses.fields(t):
        _annotations(getattr(t, f.name), out)
    return [t] + [u for s in out for u in _subtypes(s)]


def _groups():
    """(name, annotations, alias definitions): the stdlib once, then each
    example with the stdlib's aliases in scope, as `load_program` merges them."""
    stdlib = [parse(tc.stdlib_source(name)) for name in tc.STDLIB_FILES]
    std_aliases = [a for p in stdlib for a in p.aliases]
    yield "stdlib", _annotations(tuple(stdlib), []), std_aliases
    for name in EXAMPLES:
        prog = parse(tc.example_source(name))
        yield name, _annotations(prog, []), std_aliases + list(prog.aliases)


def _desugarer(aliases):
    return Desugarer({a.name: Alias(a.params, a.rhs) for a in aliases})


def _ftv(t):
    return ",".join(sorted(free_type_vars(t)))


def _walk_lines():
    """One line per walk result, and the number of substitutions that had to
    rename a binder to avoid capture."""
    rng = random.Random(12)
    pool = [INT, TOP, TypeVar("a"), TypeVar("w"), TypeVar("a%1"), SvcT((TypeVar("b"),)),
            Univ("a", TOP, SvcT((TypeVar("a"), TypeVar("c"))))]
    lines, renamed = [], 0
    for group, anns, aliases in _groups():
        d = _desugarer(aliases)
        for i, t in enumerate(anns):
            e = d.expand_type(t, Loc(i, 1))
            lines.append(f"{group} {i} {_ftv(t)} | {e!r} | {_ftv(e)}")
            binders = sorted({u.var for u in _subtypes(e) if isinstance(u, Univ)})
            names = sorted(free_type_vars(e)) + binders + ["a", "zz"]
            keys = rng.sample(names, rng.randint(1, min(3, len(names))))
            subst = {k: rng.choice(pool + [e]) for k in keys}
            lines.append(f"  {sorted(subst.items(), key=str)!r} -> {substitute_type_in_type(e, subst)!r}")
            # A binder over e that a replacement mentions free: renamed.
            x = rng.choice(sorted(free_type_vars(e)) or ["x"])
            v = rng.choice(["a", "a%1", "w", "v3"])
            u = Univ(v, rng.choice([TOP, TypeVar(x)]), SvcT((TypeVar(x), e, TypeVar(v))))
            out = substitute_type_in_type(u, {x: SvcT((TypeVar(v), TypeVar(v + "%1")))})
            renamed += out.var != v
            lines.append(f"  {u!r} -> {out!r} | {_ftv(out)}")
    return lines, renamed


def _error(d, t, loc):
    try:
        d.expand_type(t, loc)
    except DesugarError as err:
        return f"{err.loc} {err.msg}"
    return "accepted"


def _error_lines():
    """The error of every kind of bad use of every alias the programs use,
    each raised twice, at two locations, after the good uses expanded."""
    lines = []
    for group, anns, aliases in _groups():
        d = _desugarer(aliases)
        for t in anns:
            d.expand_type(t)
        uses = {(u.name, u.args): u for t in anns for u in _subtypes(t) if isinstance(u, AliasT)}
        for n, (name, args) in enumerate(sorted(uses, key=repr)):
            by_name = {a.name: a for a in aliases}
            a = by_name[name]
            missing = _desugarer([b for b in aliases if b.name != name])
            direct = _desugarer(aliases + [dataclasses.replace(a, rhs=AliasT(name, tuple(map(TypeVar, a.params))))])
            indirect = _desugarer(aliases + [dataclasses.replace(a, rhs=AliasT("Back", ())),
                                             dataclasses.replace(a, name="Back", params=(), rhs=AliasT(name, args))])
            cases = [
                (missing, AliasT(name, args)),  # unknown
                (direct, AliasT(name, args)),  # cyclic
                (indirect, AliasT(name, args)),  # cyclic through another alias
                (d, AliasT(name, args + (INT,))),  # arity
                (d, AliasT(name, args + (AliasT("Missing", ()),))),  # arity before the arguments
                (d, SvcT((AliasT(name, args), AliasT("Missing", ())))),  # a later sibling
            ]
            if args:  # the arguments before the right-hand side
                bad_rhs = _desugarer(aliases + [dataclasses.replace(a, rhs=AliasT("MissingRhs", ()))])
                cases.append((bad_rhs, AliasT(name, (AliasT("MissingArg", ()),) + args[1:])))
            for k, (desugarer, t) in enumerate(cases):
                for loc in (Loc(n, k), Loc(n, k + 100)):
                    lines.append(f"{group} {name} {k} {_error(desugarer, t, loc)}")
    for src in (
        "type A = B; type B = A; (spwn srv { x<v: A> :> par })#x<1>",
        "type A[x] = A; (spwn srv { x<v: A[Int]> :> par })#x<1>",
        "type A[x] = x; let y: A = 1 in par",
        "type A[x] = x; letk (y: A[Int], z: Missing) = f<> in par",
        "type A = Missing; def f: A = 1; par",
        "type A = B; type B = A; type C = Missing; par",
    ):
        try:
            tc.load_program(src, include_prelude=False)
            lines.append(f"{src} accepted")
        except DesugarError as err:
            lines.append(f"{src} {err}")
    return lines


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# (lines, binders renamed, digest), recorded from the hand-written walks.
PINNED_WALKS = (1494, 475, "ee5201845c07ada1")
# Re-recorded when the two template lines gained the template's position.
PINNED_ERRORS = (324, "1eba632f634fb2fa")


def test_type_walks_pinned():
    lines, renamed = _walk_lines()
    assert (len(lines), renamed, _digest(lines)) == PINNED_WALKS


def test_alias_errors_pinned():
    lines = _error_lines()
    assert "accepted" not in "".join(lines[:-6])
    assert (len(lines), _digest(lines)) == PINNED_ERRORS


def test_template_parameter_alias_error_has_a_position(tmp_path, capsys):
    from cpl.cli import main

    f = tmp_path / "alias.cpl"
    f.write_text("type A = Missing;\n(spwn srv { x<v: A> :> par })#x<1>")
    assert main(["check", str(f)]) == 3
    assert capsys.readouterr().err.strip() == "error: 2:7: unknown type alias 'Missing'"


def _expanded_or_error(d, t, loc):
    try:
        return pretty_type(d.expand_type(t, loc))
    except DesugarError as err:
        return f"{err.loc} {err.msg}"


def test_cached_expansion_follows_each_alias_table():
    """One annotation node, expanded by Desugarers whose tables rebind,
    remove or make cyclic an alias it consults through another, gives each
    table's own result or error, whichever table came before."""

    def tables():
        prog = parse("type P[x] = (x, B); type B = Int; def f: List[P[Bool]] = []; par")
        p, b = prog.aliases
        s = dataclasses.replace(b, name="S", rhs=TypeVar("s"))
        return prog.defs[0].ann, {
            "as parsed": ([p, b], "List[(Bool, Int)]"),
            "rebound": ([p, dataclasses.replace(b, rhs=AliasT("S", ())), s], "List[(Bool, s)]"),
            "removed": ([p], "4:2 unknown type alias 'B'"),
            "cyclic": ([p, dataclasses.replace(b, rhs=AliasT("P", (INT,)))], "4:2 cyclic type alias 'P'"),
            "renamed parameter": ([dataclasses.replace(p, params=("y",)), b], "List[(x, Int)]"),
        }

    names = list(tables()[1])
    for first in names:
        for second in names:
            ann, table = tables()
            for name in (first, second, first):
                aliases, want = table[name]
                assert _expanded_or_error(_desugarer(aliases), ann, Loc(4, 2)) == want, (first, second, name)


def test_bad_annotation_raises_at_each_use_on_every_load():
    """Errors are never cached: a bad annotation raises at each use's own
    location, on every load, also after its well-formed parts were cached."""
    bad = SvcT((AliasT("TThunk", (INT,)), AliasT("TThunk", ())))
    d = _desugarer([a for name in tc.STDLIB_FILES for a in tc._parsed_stdlib(name).aliases])
    for line in (1, 2, 1):
        assert _expanded_or_error(d, bad, Loc(line, 5)) == f"{line}:5 type alias 'TThunk' expects 1 arguments, got 0"
    src = "type Bad = (TThunk[Int], TThunk);\ndef a: Int = 1;\ndef b: Bad = 2;\ndef c: Bad = 3;\npar"
    without_b = src.replace("def b: Bad = 2;", "")
    for text, line in ((src, 3), (without_b, 4), (src, 3), (without_b, 4)):
        with pytest.raises(DesugarError) as err:
            tc.load_program(text)
        assert str(err.value) == f"{line}:1: type alias 'TThunk' expects 1 arguments, got 0"


def test_user_tree_is_freed_after_its_load(monkeypatch):
    """The caches sit on the nodes, and the stdlib's cache nothing of a user
    program: its tree dies with its load."""
    parsed = []

    def parse_and_watch(text):
        prog = parse(text)
        parsed.append((weakref.ref(prog.main), weakref.ref(prog.defs[0].rhs)))
        return prog

    monkeypatch.setattr(tc, "parse", parse_and_watch)
    for name in ("wordcount.cpl", "supervision_demo.cpl"):
        loaded = tc.load_program(tc.example_source(name))
        pretty_type(tc.check_expr(loaded.core, loaded.env))
        del loaded
    gc.collect()
    assert parsed and all(ref() is None for refs in parsed for ref in refs)
