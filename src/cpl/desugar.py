"""Lowering of derived forms into the core language.

let/letk spawn a wrapper server and request it; lambdas become single-service
`app` instances via the continuation-passing transform; thunks become `force`
servers. Derived forms whose wrapped body mentions `this` produce transparent
templates so the enclosing instance is substituted in, keeping the sugar
referentially transparent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .builtins import OPS, PROJECTIONS
from .core import (
    BOT,
    THIS,
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
from .parser import Program, SApply, SLambda, SLet, SLetK, SThunk
from .typecheck import TypeCheckError, TypeContext, join, promote, type_of

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


class Desugarer:
    def __init__(self, aliases: Mapping[str, Alias] | None = None, used_names: set[str] | None = None):
        self.aliases: dict[str, Alias] = dict(aliases or {})
        self.used: set[str] = set(used_names or set())

    # -- fresh names --------------------------------------------------------

    def fresh(self, base: str, avoid: frozenset[str] | set[str] = frozenset()) -> str:
        name = fresh_name(base, self.used | set(avoid))
        self.used.add(name)
        return name

    # -- type alias expansion ------------------------------------------------

    def expand_type(self, t: TypeExpr, loc: Loc | None = None, _stack: tuple[str, ...] = ()) -> TypeExpr:
        if isinstance(t, AliasT):
            if t.name in _stack:
                raise DesugarError(f"cyclic type alias {t.name!r}", loc)
            alias = self.aliases.get(t.name)
            if alias is None:
                raise DesugarError(f"unknown type alias {t.name!r}", loc)
            if len(alias.params) != len(t.args):
                raise DesugarError(
                    f"type alias {t.name!r} expects {len(alias.params)} arguments, got {len(t.args)}",
                    loc,
                )
            args = tuple(self.expand_type(a, loc, _stack) for a in t.args)
            body = self.expand_type(alias.rhs, loc, _stack + (t.name,))
            return substitute_type_in_type(body, dict(zip(alias.params, args)))
        if isinstance(t, SvcT):
            return SvcT(tuple(self.expand_type(a, loc, _stack) for a in t.args))
        if isinstance(t, SrvT):
            return SrvT(
                tuple((n, self.expand_type(s, loc, _stack)) for n, s in t.services)  # type: ignore[arg-type]
            )
        if isinstance(t, InstT):
            return InstT(self.expand_type(t.inner, loc, _stack))
        if isinstance(t, ImgT):
            return ImgT(self.expand_type(t.inner, loc, _stack))
        if isinstance(t, Univ):
            return Univ(t.var, self.expand_type(t.bound, loc, _stack), self.expand_type(t.body, loc, _stack))
        if isinstance(t, DataT):
            return DataT(t.ctor, tuple(self.expand_type(a, loc, _stack) for a in t.args))
        return t

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
            t = self.synth(e.expr, env)
            if isinstance(t, ImgT):
                return InstT(t.inner)
            if isinstance(t, (SrvT, SrvBot)):
                return InstT(t)
            return None
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
        entries: dict[str, SvcT] = {}
        for r in t.rules:
            for p in r.patterns:
                svc = SvcT(tuple(self.expand_type(a) for _, a in p.params))
                entries.setdefault(p.service, svc)
        return SrvT(tuple(entries.items()))

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
            ttype = self.template_type(e)
            rules = []
            for r in e.rules:
                pats = tuple(
                    JoinPattern(p.service, tuple((n, self.expand_type(t, e.loc)) for n, t in p.params))
                    for p in r.patterns
                )
                ext = {n: t for p in pats for n, t in p.params}
                if not e.transparent_this:
                    ext[THIS] = InstT(ttype)
                rules.append(ReactionRule(pats, self.desugar(r.body, {**env, **ext})))
            return ServerTemplate(tuple(rules), e.transparent_this, loc=e.loc)
        if isinstance(e, Request):
            callee = self.desugar_value(e.callee, env)
            args = [self.desugar_value(a, env) for a in e.args]
            if isinstance(callee, SApply):
                t = self.synth(callee, env)
                if t is None:
                    raise DesugarError("cannot determine the callee type of this request", e.loc)
                v = self.fresh("v")
                inner = self.desugar(Request(Var(v), tuple(args), loc=e.loc), {**env, v: t})
                wrapper = self._wrapper("k", ((v, t),), inner)
                return self.cps(callee, ServiceRef(Spwn(wrapper), "k", loc=e.loc), env)
            lifted = self._lift_applies(callee, args, env, e.loc)
            if lifted is not None:
                return lifted
            return Request(callee, tuple(args), loc=e.loc)
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

    def desugar_value(self, e: Expr, env: TypeEnv) -> Expr:
        """Desugar an expression in argument position; applications are kept
        for the caller to lift."""
        if isinstance(e, SApply):
            return e
        return self.desugar(e, env)

    def _lift_applies(self, callee: Expr, args: list[Expr], env: TypeEnv, loc: Loc | None) -> Optional[Expr]:
        """If a request argument is an application, CPS-lift the leftmost one."""
        for i, a in enumerate(args):
            if isinstance(a, SApply):
                t = self.synth(a, env)
                if t is None:
                    raise DesugarError(
                        "cannot determine the result type of this application; "
                        "bind it with letk and an annotation",
                        a.loc,
                    )
                avoid = frozenset().union(*(free_vars(x) for x in args if not isinstance(x, SApply)))
                v = self.fresh("v", avoid)
                inner_args = list(args)
                inner_args[i] = Var(v)
                inner = self._lift_applies(callee, inner_args, env, loc)
                if inner is None:
                    inner = Request(callee, tuple(inner_args), loc=loc)
                wrapper = self._wrapper("k", ((v, t),), inner)
                k = ServiceRef(Spwn(wrapper), "k", loc=loc)
                return self.cps(a, k, env)
        return None

    def _wrapper(self, svc: str, params: tuple[tuple[str, TypeExpr], ...], body: Expr) -> ServerTemplate:
        transparent = THIS in free_vars(body)
        rule = ReactionRule((JoinPattern(svc, params),), body)
        return ServerTemplate((rule,), transparent)

    def _let(self, e: SLet, env: TypeEnv) -> Expr:
        ann = self.expand_type(e.ann, e.loc) if e.ann else None
        if ann is None:
            ann = self.synth(e.rhs, env)
        if ann is None:
            raise DesugarError(f"let binding {e.name!r} needs a type annotation", e.loc)
        body = self.desugar(e.body, {**env, e.name: ann})
        wrapper = self._wrapper("let", ((e.name, ann),), body)
        target = ServiceRef(Spwn(wrapper, loc=e.loc), "let", loc=e.loc)
        if isinstance(e.rhs, SApply):
            return self.cps(e.rhs, target, env)
        rhs = self.desugar(e.rhs, env)
        return Request(target, (rhs,), loc=e.loc)

    def _letk(self, e: SLetK, env: TypeEnv) -> Expr:
        binders = tuple((n, self.expand_type(t, e.loc)) for n, t in e.binders)
        ext = dict(binders)
        if len(binders) == 1:
            body = self.desugar(e.body, {**env, **ext})
            wrapper = self._wrapper("k", binders, body)
        else:
            # Destructuring: receive the tuple, then project components.
            tup = DataT("Tuple", tuple(t for _, t in binders))
            p = self.fresh("p", frozenset(n for n, _ in binders))
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
            callee = self.desugar_value(e.rhs.callee, env)
            args = [self.desugar_value(a, env) for a in e.rhs.args] + [target]
            lifted = self._lift_applies(callee, args, env, e.loc)
            if lifted is not None:
                return lifted
            return Request(callee, tuple(args), loc=e.loc)
        raise DesugarError("letk right-hand side must be a service request or application", e.loc)

    def _lambda(self, e: SLambda, env: TypeEnv) -> Expr:
        params = tuple((n, self.expand_type(t, e.loc)) for n, t in e.params)
        ret = self.expand_type(e.ret, e.loc)
        avoid = free_vars_surface(e.body) | {n for n, _ in params}
        k = self.fresh("k", avoid)
        inner_env = {**env, **dict(params)}
        body = self.cps(e.body, Var(k), inner_env)
        rule = ReactionRule(
            (JoinPattern("app", params + ((k, SvcT((ret,))),)),),
            body,
        )
        transparent = THIS in free_vars(body)
        return Spwn(ServerTemplate((rule,), transparent, loc=e.loc), loc=e.loc)

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
        avoid = free_vars_surface(e.body)
        k = self.fresh("k", avoid) if "k" in avoid else "k"
        self.used.add(k)
        if isinstance(e.body, Request):
            callee = self.desugar_value(e.body.callee, env)
            args = [self.desugar_value(a, env) for a in e.body.args] + [Var(k)]
            lifted = self._lift_applies(callee, args, env, e.loc)
            body: Expr = lifted if lifted is not None else Request(callee, tuple(args), loc=e.loc)
        else:
            body = self.cps(e.body, Var(k), env)
        rule = ReactionRule((JoinPattern("force", ((k, SvcT((ann,))),)),), body)
        transparent = THIS in free_vars(body)
        return ServerTemplate((rule,), transparent, loc=e.loc)

    # -- the continuation-passing transform -----------------------------------

    def cps(self, e: Expr, k: Expr, env: TypeEnv) -> Expr:
        """T[[e]]k: deliver the value of e to continuation k."""
        if isinstance(e, SLambda):
            return Request(k, (self._lambda(e, env),), loc=e.loc)
        if isinstance(e, SApply):
            fn_t = self.synth(e.fn, env)
            if not (isinstance(fn_t, InstT) and isinstance(fn_t.inner, SrvT) and fn_t.inner.get("app")):
                raise DesugarError(
                    "cannot determine the function type of this application target",
                    e.loc,
                )
            avoid = free_vars_surface(e) | free_vars_surface(k)
            vf = self.fresh("vf", avoid)

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
                va = self.fresh("v", avoid)
                kn = f"k{idx + 2}"
                inner = chain(idx + 1, fn_var, arg_vars + [va])
                wrapper = self._wrapper(kn, ((va, t),), inner)
                return self.cps(arg, ServiceRef(Spwn(wrapper), kn, loc=e.loc), env)

            body = chain(0, vf, [])
            wrapper = self._wrapper("k1", ((vf, fn_t),), body)
            return self.cps(e.fn, ServiceRef(Spwn(wrapper), "k1", loc=e.loc), env)
        return Request(k, (self.desugar(e, env),), loc=getattr(e, "loc", None))


def free_vars_surface(e: Expr) -> frozenset[str]:
    """Free variables of a surface expression (over-approximate on sugar)."""
    if isinstance(e, SLet):
        return free_vars_surface(e.rhs) | (free_vars_surface(e.body) - {e.name})
    if isinstance(e, SLetK):
        bound = {n for n, _ in e.binders}
        return free_vars_surface(e.rhs) | (free_vars_surface(e.body) - bound)
    if isinstance(e, SLambda):
        return free_vars_surface(e.body) - {n for n, _ in e.params}
    if isinstance(e, SApply):
        out = free_vars_surface(e.fn)
        for a in e.args:
            out |= free_vars_surface(a)
        return out
    if isinstance(e, SThunk):
        return free_vars_surface(e.body)
    if isinstance(e, ServerTemplate):
        out: frozenset[str] = frozenset()
        for r in e.rules:
            out |= free_vars_surface(r.body) - set(r.bound_names)
        if not e.transparent_this:
            out -= {THIS}
        return out
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, This):
        return frozenset((THIS,))
    out = frozenset()
    for c in children(e):
        out |= free_vars_surface(c)
    return out


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------


def collect_names(src_names: set[str], e: Expr) -> None:
    if isinstance(e, Var):
        src_names.add(e.name)
    elif isinstance(e, ServerTemplate):
        for r in e.rules:
            src_names.update(r.bound_names)
            for p in r.patterns:
                src_names.add(p.service)
            collect_names(src_names, r.body)
    elif isinstance(e, SLet):
        src_names.add(e.name)
        collect_names(src_names, e.rhs)
        collect_names(src_names, e.body)
    elif isinstance(e, SLetK):
        src_names.update(n for n, _ in e.binders)
        collect_names(src_names, e.rhs)
        collect_names(src_names, e.body)
    elif isinstance(e, SLambda):
        src_names.update(n for n, _ in e.params)
        collect_names(src_names, e.body)
    elif isinstance(e, SApply):
        collect_names(src_names, e.fn)
        for a in e.args:
            collect_names(src_names, a)
    elif isinstance(e, SThunk):
        collect_names(src_names, e.body)
    else:
        for c in children(e):
            collect_names(src_names, c)


def desugar_program(prog: Program, base_env: TypeEnv | None = None) -> Expr:
    """Expand aliases and lower a whole program to a single core expression.

    `def` items become a chain of nested lets around the main expression.
    """
    if prog.main is None:
        raise DesugarError("program has no main expression")
    d, env, chain = _prepare(prog, base_env)
    return d.desugar(chain, env)


def _prepare(prog: Program, base_env: TypeEnv | None) -> tuple[Desugarer, dict[str, TypeExpr], Expr]:
    aliases: dict[str, Alias] = {}
    for a in prog.aliases:
        if a.name in aliases:
            raise DesugarError(f"duplicate type alias {a.name!r}", a.loc)
        aliases[a.name] = Alias(a.params, a.rhs)
    used: set[str] = set()
    for dfn in prog.defs:
        used.add(dfn.name)
        collect_names(used, dfn.rhs)
    if prog.main is not None:
        collect_names(used, prog.main)
    d = Desugarer(aliases, used)
    env: dict[str, TypeExpr] = dict(base_env or {})
    chain: Expr = prog.main if prog.main is not None else Par(())
    for dfn in reversed(prog.defs):
        chain = SLet(dfn.name, dfn.ann, dfn.rhs, chain, loc=dfn.loc)
    return d, env, chain


def cps_transform(e: Expr, k: Expr, aliases: Mapping[str, Alias] | None = None, env: TypeEnv | None = None) -> Expr:
    """The paper-style transform T[[e]]k as a standalone entry point."""
    d = Desugarer(aliases)
    collect_names(d.used, e)
    if isinstance(k, Expr):
        collect_names(d.used, k)
    return d.cps(e, k, dict(env or {}))
