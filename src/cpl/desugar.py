"""Lowering of derived forms into the core language.

let/letk spawn a wrapper server and request it; lambdas become single-service
`app` instances via the continuation-passing transform; thunks become `force`
servers. Derived forms whose wrapped body mentions `this` produce transparent
templates so the enclosing instance is substituted in, keeping the sugar
referentially transparent. Requests are lowered in one place (`_request`),
whether they stand alone, as letk's right-hand side or as a thunk's body: an
application that is the callee or an argument is CPS-lifted, leftmost first.
Fresh names are numbered past every name of the input (`collect_names`) and
of each other, so no fresh binder captures a name. A def's lowering is
reused across loads while a replay of what it read matches
(`desugar_program`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, NamedTuple, Optional, Sequence

from .builtins import OPS, PROJECTIONS
from .core import (
    BOT,
    SCOPES,
    THIS,
    TYPE_SHAPES,
    UNIT,
    AliasT,
    BaseLit,
    BaseOp,
    DataT,
    Expr,
    ExternalRef,
    If,
    Image,
    ImgT,
    InstT,
    JoinPattern,
    ListV,
    MapV,
    Par,
    ReactionRule,
    Repl,
    Request,
    ServerTemplate,
    ServiceRef,
    Snap,
    Spwn,
    SrvBot,
    SrvT,
    SvcT,
    This,
    TupleV,
    TypeAbs,
    TypeApp,
    TypeExpr,
    Univ,
    Var,
    ZeroImage,
    children,
    free_vars,
    fresh_name,
    shape_of,
    substitute_type_in_type,
)
from .errors import DesugarError, Loc
from .frozen import memo, store
from .parser import Definition, Program, SApply, SLambda, SLet, SLetK, SThunk
from .typecheck import TypeCheckError, TypeContext, as_image_type, join, keep_type, promote, type_of

TypeEnv = Mapping[str, TypeExpr]

# A type variable's bound is kept in the env under this prefix and the
# variable's name; no term variable's name starts with it.
_BOUND = "<:"


class _Unknown(Exception):
    """Annotation synthesis cannot tell an operand's type."""


class _Synthesized:
    """Annotation synthesis' view of a base operation's operands
    (`builtins.Operands`): no operand is checked, and an operand is typed
    only when the rule asks for its type. A rule that rejects the operands
    gives no annotation, never a wrong one.
    """

    def __init__(self, d: "Desugarer", e: BaseOp, env: TypeEnv):
        self.d, self.e, self.env, self.op = d, e, env, e.op

    def type(self, i: int) -> TypeExpr:
        t = self.d.synth(self.e.operands[i], self.env) if i < len(self.e.operands) else None
        if t is None:
            raise _Unknown
        return t

    def shape(self, i: int) -> TypeExpr:
        return promote(_bounds(self.env), self.type(i))

    def want(self, i: int, t: TypeExpr) -> None:
        pass

    want_key = want

    def join(self, t: TypeExpr, u: TypeExpr) -> TypeExpr:
        return join(_bounds(self.env), t, u, None, self.op)

    def fail(self, *args, **kwargs):
        raise _Unknown


def _bounds(env: TypeEnv) -> TypeContext:
    """The type-variable bounds in scope, as a checker context."""
    n = len(_BOUND)
    return TypeContext(tuple(("tvar", k[n:], t) for k, t in env.items() if k.startswith(_BOUND)))


@dataclass
class Alias:
    params: tuple[str, ...]
    rhs: TypeExpr


# The aliases an expansion consulted, transitively: name -> (params, rhs).
Consulted = Mapping[str, tuple[tuple[str, ...], TypeExpr]]
_NONE_CONSULTED: Consulted = {}


# The type-variable bounds in scope, as (env key, bound) pairs.
Bounds = tuple[tuple[str, TypeExpr], ...]


class _Lowered(NamedTuple):
    """A def's right-hand side lowered, and the verifying trace of what its
    lowering read (`desugar_program`)."""

    core: Expr
    ann: Optional[TypeExpr]  # the def's synthesized type, when it has no annotation
    drawn: tuple[tuple[str, str], ...]  # the fresh names drawn, in order, with their bases
    consulted: Consulted  # the aliases consulted
    env: TypeEnv  # read for the entries of the free names
    bounds: Bounds


class Desugarer:
    def __init__(self, aliases: Mapping[str, Alias] | None = None, used_names: set[str] | None = None):
        self.aliases: dict[str, Alias] = dict(aliases or {})
        self.used: set[str] = set(used_names or set())
        # What lowering has read so far, in order, for the traces of the
        # def spine (`desugar_program`): each fresh name drawn, as (base,
        # name), and the aliases each expansion consulted.
        self.drawn: list[tuple[str, str]] = []
        self.consulted: list[Consulted] = []

    # -- fresh names --------------------------------------------------------

    def fresh(self, base: str) -> str:
        name = fresh_name(base, self.used)
        self.used.add(name)
        self.drawn.append((base, name))
        return name

    def _replay(self, drawn: Sequence[tuple[str, str]]) -> bool:
        """Draw again, in order, from each base of drawn; True when every
        draw gives the recorded name. Otherwise the names drawn by the
        replay are taken back out of `used`."""
        used = self.used
        for i, (base, name) in enumerate(drawn):
            if fresh_name(base, used) != name:
                used.difference_update(n for _, n in drawn[:i])
                return False
            used.add(name)
        return True

    # -- type alias expansion ------------------------------------------------

    def expand_type(self, t: TypeExpr, loc: Loc | None = None) -> TypeExpr:
        """t with every alias application replaced by its definition.

        The result is cached on each node of t, with every alias its
        expansion consulted, transitively, as (name, params, right-hand-side
        node). Any Desugarer reuses it while its table binds each of those
        names to the identical right-hand-side node with the same params, as
        a recomputation would read only those bindings. So the stdlib's
        annotations, whose nodes live as long as its parse, are expanded
        once per process. Errors are not cached: each raises at its own
        use's `loc`."""
        out, consulted = self._expand(t, loc, ())
        if consulted:
            self.consulted.append(consulted)
        return out

    def _binds(self, consulted: Consulted) -> bool:
        aliases = self.aliases
        for name, (params, rhs) in consulted.items():
            a = aliases.get(name)
            if a is None or a.rhs is not rhs or a.params != params:
                return False
        return True

    def _expand(self, t: TypeExpr, loc: Loc | None, stack: tuple[str, ...]) -> tuple[TypeExpr, Consulted]:
        """t expanded, and the aliases consulted. The stack only adds cycle
        errors, and an expansion that succeeded under one stack reaches no
        alias that reaches it back, so a cached result holds under every
        stack."""
        shape = TYPE_SHAPES.get(type(t))
        if shape is None:
            return t, _NONE_CONSULTED
        hit = t._excache
        if hit is not None and self._binds(hit[1]):
            return t if hit[0] is None else hit[0], hit[1]
        if isinstance(t, AliasT):
            if t.name in stack:
                raise DesugarError(f"cyclic type alias {t.name!r}", loc)
            alias = self.aliases.get(t.name)
            if alias is None:
                raise DesugarError(f"unknown type alias {t.name!r}", loc)
            if len(alias.params) != len(t.args):
                raise DesugarError(
                    f"type alias {t.name!r} expects {len(alias.params)} arguments, got {len(t.args)}",
                    loc,
                )
            args, consulted = self._expand_all(t.args, loc, stack)
            body, by_rhs = self._expand(alias.rhs, loc, stack + (t.name,))
            out = substitute_type_in_type(body, dict(zip(alias.params, args)))
            consulted = {**consulted, **by_rhs, t.name: (alias.params, alias.rhs)}
        else:
            kids = shape.children(t)
            new, consulted = self._expand_all(kids, loc, stack)
            out = t if all(k is n for k, n in zip(kids, new)) else shape.rebuild(t, new)
        # An unchanged node is cached as None, so it holds no cycle to itself.
        store(t, "_excache", (None if out is t else out, consulted))
        return out, consulted

    def _expand_all(
        self, ts: Sequence[TypeExpr], loc: Loc | None, stack: tuple[str, ...]
    ) -> tuple[list[TypeExpr], Consulted]:
        out, consulted = [], _NONE_CONSULTED
        for u in ts:
            e, c = self._expand(u, loc, stack)
            out.append(e)
            if c:
                consulted = {**consulted, **c} if consulted else c
        return out, consulted

    # -- best-effort annotation synthesis -------------------------------------

    def synth(self, e: Expr, env: TypeEnv) -> Optional[TypeExpr]:
        """Bottom-up type of e from existing annotations; None when unknown.

        This is annotation propagation only (literals, annotated binders,
        templates, spawns); it never invents an annotation.
        """
        if isinstance(e, (BaseLit, ExternalRef, ZeroImage)):
            return type_of(TypeContext(), {}, e)
        if isinstance(e, Var):
            return env.get(e.name)
        if isinstance(e, This):
            return env.get(THIS)
        if isinstance(e, ServerTemplate):
            return self.template_type(e)
        if isinstance(e, SLambda):
            params = tuple(self.expand_type(t) for _, t in e.params)
            ret = self.expand_type(e.ret)
            return InstT(SrvT((("app", SvcT(params + (SvcT((ret,)),))),)))
        if isinstance(e, SThunk):
            if e.ann is None:
                inner = self.synth(e.body, env)
                if inner is None:
                    return None
                ann = inner
            else:
                ann = self.expand_type(e.ann)
            return SrvT((("force", SvcT((SvcT((ann,)),))),))
        if isinstance(e, Spwn):
            img = as_image_type(self.synth(e.expr, env))
            return InstT(img.inner) if img is not None else None
        if isinstance(e, Image):
            t = self.synth(e.template, env)
            return ImgT(t) if isinstance(t, (SrvT, SrvBot)) else None
        if isinstance(e, Snap):
            t = self.synth(e.expr, env)
            return ImgT(t.inner) if isinstance(t, InstT) else None
        if isinstance(e, ServiceRef):
            t = self.synth(e.target, env)
            if isinstance(t, InstT) and isinstance(t.inner, SrvT):
                return t.inner.get(e.service)
            return None
        if isinstance(e, (Request, Par, Repl)):
            return UNIT
        if isinstance(e, SApply):
            t = self.synth(e.fn, env)
            if isinstance(t, InstT) and isinstance(t.inner, SrvT):
                app = t.inner.get("app")
                if app and app.args and isinstance(app.args[-1], SvcT) and len(app.args[-1].args) == 1:
                    return app.args[-1].args[0]
            return None
        if isinstance(e, TypeAbs):
            bound = self.expand_type(e.bound)
            inner = self.synth(e.body, {**env, _BOUND + e.var: bound})
            if inner is None:
                return None
            return Univ(e.var, bound, inner)
        if isinstance(e, TypeApp):
            t = self.synth(e.expr, env)
            if isinstance(t, Univ):
                return substitute_type_in_type(t.body, {t.var: self.expand_type(e.arg)})
            return None
        if isinstance(e, TupleV):
            items = [self.synth(x, env) for x in e.items]
            if any(t is None for t in items):
                return None
            return DataT("Tuple", tuple(items))  # type: ignore[arg-type]
        if isinstance(e, ListV):
            t = self.synth_join(e.items, env)
            return DataT("List", (t,)) if t is not None else None
        if isinstance(e, MapV):
            k = self.synth_join([key for key, _ in e.entries], env)
            v = self.synth_join([val for _, val in e.entries], env)
            return DataT("Map", (k, v)) if k is not None and v is not None else None
        if isinstance(e, If):
            return self.synth_join((e.then, e.orelse), env)
        if isinstance(e, BaseOp):
            op = OPS.get(e.op)
            try:
                return op.rule(_Synthesized(self, e, env)) if op else None
            except (_Unknown, TypeCheckError):
                return None
        if isinstance(e, SLet):
            ann = self.expand_type(e.ann) if e.ann else self.synth(e.rhs, env)
            if ann is None:
                return None
            return self.synth(e.body, {**env, e.name: ann})
        if isinstance(e, SLetK):
            ext = {n: self.expand_type(t) for n, t in e.binders}
            return self.synth(e.body, {**env, **ext})
        return None

    def synth_join(self, es: Sequence[Expr], env: TypeEnv) -> Optional[TypeExpr]:
        """The join of the types of es, as the checker takes it for the
        items of a literal and the branches of an if (Bot when es is empty);
        None when a type is unknown or two types have no join."""
        t: Optional[TypeExpr] = None
        for x in es:
            u = self.synth(x, env)
            if u is None:
                return None
            try:
                t = u if t is None else join(_bounds(env), t, u, None, "")
            except TypeCheckError:
                return None
        return BOT if t is None else t

    def template_type(self, t: ServerTemplate) -> SrvT:
        return _server_type(self._patterns(t))

    def _patterns(self, t: ServerTemplate) -> list[tuple[JoinPattern, ...]]:
        """Each rule's join patterns with their parameter types expanded."""
        expand = self.expand_type
        return [
            tuple(JoinPattern(p.service, tuple((n, expand(a, t.loc)) for n, a in p.params)) for p in r.patterns)
            for r in t.rules
        ]

    # -- main lowering --------------------------------------------------------

    def desugar(self, e: Expr, env: TypeEnv) -> Expr:
        if isinstance(e, SLet):
            return self._let(e, env)
        if isinstance(e, SLetK):
            return self._letk(e, env)
        if isinstance(e, SLambda):
            return self._lambda(e, env)
        if isinstance(e, SThunk):
            return self._thunk(e, env)
        if isinstance(e, SApply):
            raise DesugarError(
                "a bare application discards its result; bind it with letk or pass a continuation",
                e.loc,
            )
        if isinstance(e, ServerTemplate):
            pats = self._patterns(e)
            this = {} if e.transparent_this else {THIS: InstT(_server_type(pats))}
            rules = []
            for ps, r in zip(pats, e.rules):
                params = {n: t for p in ps for n, t in p.params}
                rules.append(ReactionRule(ps, self.desugar(r.body, {**env, **params, **this})))
            return ServerTemplate(tuple(rules), e.transparent_this, loc=e.loc)
        if isinstance(e, Request):
            return self._request(e, env, e.loc)
        if isinstance(e, TypeAbs):
            bound = self.expand_type(e.bound, e.loc)
            return TypeAbs(e.var, bound, self.desugar(e.body, {**env, _BOUND + e.var: bound}), loc=e.loc)
        if isinstance(e, TypeApp):
            return TypeApp(self.desugar(e.expr, env), self.expand_type(e.arg, e.loc), loc=e.loc)
        shape = shape_of(e)
        kids = []
        for c in shape.children(e):
            kids.append(self.desugar(c, env))
        return shape.rebuild(e, kids)

    def _request(self, e: Request, env: TypeEnv, loc: Loc | None, *k: Expr) -> Expr:
        """The request e, with the continuation k appended when given: callee
        and arguments lowered, and applications among them lifted."""
        parts = [a if isinstance(a, SApply) else self.desugar(a, env) for a in (e.callee, *e.args)]
        return self._lift_applies((*parts, *k), env, loc)

    def _lift_applies(self, parts: tuple[Expr, ...], env: TypeEnv, loc: Loc | None) -> Expr:
        """The request of parts[0] with arguments parts[1:]; the leftmost
        application among them is CPS-lifted, then the others, left to right."""
        for i, a in enumerate(parts):
            if isinstance(a, SApply):
                t = self.synth(a, env)
                if t is None:
                    if i == 0:
                        raise DesugarError("cannot determine the callee type of this request", loc)
                    raise DesugarError(
                        "cannot determine the result type of this application; "
                        "bind it with letk and an annotation",
                        a.loc,
                    )
                v = self.fresh("v")
                inner = self._lift_applies((*parts[:i], Var(v), *parts[i + 1 :]), env, loc)
                wrapper = self._wrapper("k", ((v, t),), inner)
                return self.cps(a, ServiceRef(Spwn(wrapper), "k", loc=loc), env)
        return Request(parts[0], parts[1:], loc=loc)

    def _wrapper(
        self, svc: str, params: tuple[tuple[str, TypeExpr], ...], body: Expr, loc: Loc | None = None
    ) -> ServerTemplate:
        transparent = THIS in free_vars(body)
        rule = ReactionRule((JoinPattern(svc, params),), body)
        return ServerTemplate((rule,), transparent, loc=loc)

    def _let(self, e: SLet, env: TypeEnv) -> Expr:
        ann = self._let_type(e, env)
        body = self.desugar(e.body, {**env, e.name: ann})
        rhs = None if isinstance(e.rhs, SApply) else self.desugar(e.rhs, env)
        return self._bind(e, ann, body, env, rhs)

    def _let_type(self, e: SLet | Definition, env: TypeEnv) -> TypeExpr:
        """The type a let binds: its annotation, or else its right-hand
        side's synthesized type."""
        ann = self.expand_type(e.ann, e.loc) if e.ann else self.synth(e.rhs, env)
        if ann is None:
            raise DesugarError(f"let binding {e.name!r} needs a type annotation", e.loc)
        return ann

    def _bind(self, e: SLet | Definition, ann: TypeExpr, body: Expr, env: TypeEnv, rhs: Expr | None) -> Expr:
        """The let of e around the lowered body: a request of a `let`
        wrapper with rhs, e's lowered right-hand side, or the CPS transform
        of that right-hand side, an application, when rhs is None."""
        wrapper = self._wrapper("let", ((e.name, ann),), body)
        target = ServiceRef(Spwn(wrapper, loc=e.loc), "let", loc=e.loc)
        if rhs is None:
            return self.cps(e.rhs, target, env)
        return Request(target, (rhs,), loc=e.loc)

    def _recall(self, e: Definition, env: TypeEnv, bounds: Bounds) -> Optional[_Lowered]:
        """e's cached lowering (`_ldcache`) if every read in its trace other
        than the fresh names gives the same answer under env: the aliases
        are bound as they were (`_binds`), the entries of the right-hand
        side's free names are identical or `==`, and the bounds are equal."""
        hit = e._ldcache
        if hit is None or hit.bounds != bounds or not self._binds(hit.consulted):
            return None
        was = hit.env
        for n in free_vars(e.rhs):
            t, u = env.get(n), was.get(n)
            if t is not u and t != u:
                return None
        return hit

    def _reuse(
        self, e: Definition, ann: TypeExpr, env: TypeEnv, bounds: Bounds, hit: Optional[_Lowered], read: list[Consulted]
    ) -> Expr:
        """e's right-hand side lowered under env: the recalled hit's core
        when replaying its draws against `used` yields the same names, and
        otherwise lowered again, with its trace replacing the cached one.
        `read` holds the aliases consulted for ann."""
        if hit is not None and self._replay(hit.drawn):
            keep_type(hit.core)
            return hit.core
        drawn, consulted = len(self.drawn), len(self.consulted)
        core = self.desugar(e.rhs, env)
        aliases: dict[str, tuple[tuple[str, ...], TypeExpr]] = {}
        for c in (*read, *self.consulted[consulted:]):
            aliases.update(c)
        synthesized = None if e.ann else ann
        trace = _Lowered(core, synthesized, tuple(self.drawn[drawn:]), aliases, env, bounds)
        store(e, "_ldcache", trace)
        return core

    def _letk(self, e: SLetK, env: TypeEnv) -> Expr:
        binders = tuple((n, self.expand_type(t, e.loc)) for n, t in e.binders)
        ext = dict(binders)
        if len(binders) == 1:
            body = self.desugar(e.body, {**env, **ext})
            wrapper = self._wrapper("k", binders, body)
        else:
            # Destructuring: receive the tuple, then project components.
            tup = DataT("Tuple", tuple(t for _, t in binders))
            p = self.fresh("p")
            inner: Expr = e.body
            if len(binders) > len(PROJECTIONS):
                raise DesugarError("destructuring letk supports at most 4 components", e.loc)
            for idx in range(len(binders) - 1, -1, -1):
                name, t = binders[idx]
                inner = SLet(name, t, BaseOp(PROJECTIONS[idx], (Var(p),)), inner, loc=e.loc)
            body = self.desugar(inner, {**env, p: tup})
            wrapper = self._wrapper("k", ((p, tup),), body)
        target = ServiceRef(Spwn(wrapper, loc=e.loc), "k", loc=e.loc)
        if isinstance(e.rhs, SApply):
            return self.cps(e.rhs, target, env)
        if isinstance(e.rhs, Request):
            return self._request(e.rhs, env, e.loc, target)
        raise DesugarError("letk right-hand side must be a service request or application", e.loc)

    def _lambda(self, e: SLambda, env: TypeEnv) -> Expr:
        params = tuple((n, self.expand_type(t, e.loc)) for n, t in e.params)
        ret = self.expand_type(e.ret, e.loc)
        k = self.fresh("k")
        inner_env = {**env, **dict(params)}
        body = self.cps(e.body, Var(k), inner_env)
        return Spwn(self._wrapper("app", params + ((k, SvcT((ret,))),), body, e.loc), loc=e.loc)

    def _thunk(self, e: SThunk, env: TypeEnv) -> Expr:
        if e.ann is not None:
            ann = self.expand_type(e.ann, e.loc)
        elif isinstance(e.body, Request):
            # A request body gets the force continuation appended; its result
            # type cannot be synthesized from the request itself.
            raise DesugarError("thunk over a request needs a result type: thunk[T] e", e.loc)
        else:
            ann = self.synth(e.body, env)
        if ann is None:
            raise DesugarError("thunk needs a result type: thunk[T] e", e.loc)
        # A plain name never collides with a fresh one, which has a `%`.
        k = self.fresh("k") if "k" in free_vars(e.body) else "k"
        if isinstance(e.body, Request):
            body = self._request(e.body, env, e.loc, Var(k))
        else:
            body = self.cps(e.body, Var(k), env)
        return self._wrapper("force", ((k, SvcT((ann,))),), body, e.loc)

    # -- the continuation-passing transform -----------------------------------

    def cps(self, e: Expr, k: Expr, env: TypeEnv) -> Expr:
        """T[[e]]k: deliver the value of e to continuation k."""
        if isinstance(e, SApply):
            fn_t = self.synth(e.fn, env)
            if not (isinstance(fn_t, InstT) and isinstance(fn_t.inner, SrvT) and fn_t.inner.get("app")):
                raise DesugarError(
                    "cannot determine the function type of this application target",
                    e.loc,
                )
            vf = self.fresh("vf")

            def chain(idx: int, fn_var: str, arg_vars: list[str]) -> Expr:
                if idx == len(e.args):
                    return Request(
                        ServiceRef(Var(fn_var), "app", loc=e.loc),
                        tuple(Var(a) for a in arg_vars) + (k,),
                        loc=e.loc,
                    )
                arg = e.args[idx]
                t = self.synth(arg, env)
                if t is None:
                    raise DesugarError("cannot determine an argument type in this application", e.loc)
                va = self.fresh("v")
                kn = f"k{idx + 2}"
                inner = chain(idx + 1, fn_var, arg_vars + [va])
                wrapper = self._wrapper(kn, ((va, t),), inner)
                return self.cps(arg, ServiceRef(Spwn(wrapper), kn, loc=e.loc), env)

            body = chain(0, vf, [])
            wrapper = self._wrapper("k1", ((vf, fn_t),), body)
            return self.cps(e.fn, ServiceRef(Spwn(wrapper), "k1", loc=e.loc), env)
        return Request(k, (self.desugar(e, env),), loc=getattr(e, "loc", None))


def _server_type(pats: Sequence[tuple[JoinPattern, ...]]) -> SrvT:
    """The server type of a template's expanded patterns: each service typed
    by its first pattern."""
    entries: dict[str, SvcT] = {}
    for ps in pats:
        for p in ps:
            entries.setdefault(p.service, SvcT(tuple(t for _, t in p.params)))
    return SrvT(tuple(entries.items()))


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------


def collect_names(src_names: set[str], e: Expr) -> None:
    """Add every name of e to src_names: variables, binders (`SCOPES`) and
    service names. No Python frame per nesting level."""
    todo = [e]
    while todo:
        x = todo.pop()
        if isinstance(x, Var):
            src_names.add(x.name)
        elif isinstance(x, ServerTemplate):
            src_names.update(p.service for r in x.rules for p in r.patterns)
        scopes = SCOPES.get(type(x))
        for c, bound in scopes(x) if scopes else zip(children(x), repeat(())):
            src_names.update(bound)
            todo.append(c)


def _names(e: Expr) -> frozenset[str]:
    """The names of e (`collect_names`). They depend on e alone, so each def
    keeps its right-hand side's (`_nmcache`), and a stdlib definition's are
    collected once per process."""
    acc: set[str] = set()
    collect_names(acc, e)
    return frozenset(acc)


def desugar_program(prog: Program, base_env: TypeEnv | None = None) -> Expr:
    """Expand aliases and lower a whole program to a single core expression.

    `def` items become a chain of nested lets around the main expression,
    the def spine. It is lowered with no Python frame per def, in the order
    of nested lets: each def's type, outermost first, then the main
    expression, then each right-hand side, innermost first. So the fresh
    names of a def are numbered after those of the defs below it and of
    the main expression.

    Each def caches (`_ldcache`, stored like `_excache`) its right-hand side
    lowered, its synthesized type if it has no annotation, and a verifying
    trace of what those read: the fresh names drawn, in order; the aliases
    consulted; and the environment, of which they read the entries of the
    free names and the type-variable bounds. A later lowering reuses both
    when each read gives the same answer (`_recall`), and replaying the
    draws against `used` yields the same names (`_replay`). Otherwise the
    replay's names are taken back and the def is lowered again, replacing
    the entry. So a stdlib definition, whose tree lives as long as the
    process, is lowered once per process for each numbering of its fresh
    names. The checker keeps the type of a reused core (`keep_type`).
    """
    if prog.main is None:
        raise DesugarError("program has no main expression")
    aliases: dict[str, Alias] = {}
    for a in prog.aliases:
        if a.name in aliases:
            raise DesugarError(f"duplicate type alias {a.name!r}", a.loc)
        aliases[a.name] = Alias(a.params, a.rhs)
    used: set[str] = set()
    for dfn in prog.defs:
        used.add(dfn.name)
        used |= memo(dfn.rhs, "_nmcache", _names)
    collect_names(used, prog.main)
    d = Desugarer(aliases, used)
    env: dict[str, TypeExpr] = dict(base_env or {})
    # Defs add no bound, so every right-hand side sees the base's.
    bounds = tuple((k, t) for k, t in env.items() if k.startswith(_BOUND))
    scopes = []
    for dfn in prog.defs:
        hit = d._recall(dfn, env, bounds)
        if hit is not None and hit.ann is not None:
            ann, read = hit.ann, [hit.consulted]
        else:
            consulted = len(d.consulted)
            ann = d._let_type(dfn, env)
            read = d.consulted[consulted:]
        scopes.append((dfn, ann, env, hit, read))
        env = {**env, dfn.name: ann}
    out = d.desugar(prog.main, env)
    for dfn, ann, env, hit, read in reversed(scopes):
        rhs = None if isinstance(dfn.rhs, SApply) else d._reuse(dfn, ann, env, bounds, hit, read)
        out = d._bind(dfn, ann, out, env, rhs)
    return out


def cps_transform(e: Expr, k: Expr, aliases: Mapping[str, Alias] | None = None, env: TypeEnv | None = None) -> Expr:
    """The paper-style transform T[[e]]k as a standalone entry point."""
    d = Desugarer(aliases)
    collect_names(d.used, e)
    if isinstance(k, Expr):
        collect_names(d.used, k)
    return d.cps(e, k, dict(env or {}))
