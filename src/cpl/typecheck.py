"""Algorithmic typing and subtyping.

The implementation computes minimal types and folds subsumption into the
checking positions, each through `require_subtype` (parallel components,
rule bodies, conditions, request arguments, operands, replacement images,
type-application bounds, buffered messages). Subtyping is the syntax-directed
kernel variant: universal bounds must agree, reflexivity and transitivity are
admissible.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .builtins import OPS
from .core import (
    BOOL,
    BOT,
    ENDPOINTS,
    FLOAT,
    INT,
    SRV_BOT,
    STRING,
    THIS,
    UNIT,
    Addr,
    Address,
    BaseLit,
    BaseOp,
    Bot,
    Closure,
    DataT,
    Expr,
    ExternalRef,
    If,
    Image,
    ImgT,
    InstT,
    ListV,
    MapV,
    Par,
    Repl,
    Request,
    RoutingTable,
    ServerTemplate,
    ServiceRef,
    Snap,
    Spwn,
    SrvBot,
    SrvT,
    SvcT,
    This,
    Top,
    TupleV,
    TypeAbs,
    TypeApp,
    TypeExpr,
    TypeVar,
    Univ,
    Var,
    ZeroImage,
    force,
    free_type_vars,
    free_vars,
    fresh_name,
    image_of,
    substitute_type_in_type,
)
from .errors import CplError, Loc
from .frozen import frozen, store
from .pretty import pretty_type


class TypeCheckError(CplError):
    """A violated premise of the typing rules, tagged with its kind."""

    def __init__(
        self,
        kind: str,
        msg: str,
        loc: Loc | None = None,
        expected: TypeExpr | None = None,
        actual: TypeExpr | None = None,
    ):
        detail = msg
        if expected is not None:
            detail += f" (expected {pretty_type(expected)}"
            if actual is not None:
                detail += f", got {pretty_type(actual)}"
            detail += ")"
        elif actual is not None:
            detail += f" (got {pretty_type(actual)})"
        super().__init__(f"{loc}: {kind}: {detail}" if loc else f"{kind}: {detail}")
        self.kind = kind
        self.msg = msg
        self.loc = loc
        self.expected = expected
        self.actual = actual


@frozen
class TypeContext:
    """Ordered bindings; lookup returns the rightmost entry."""

    entries: tuple[tuple[str, str, TypeExpr], ...] = ()  # (kind, name, type)

    def extend_var(self, name: str, t: TypeExpr) -> "TypeContext":
        return TypeContext(self.entries + (("var", name, t),))

    def extend_tvar(self, name: str, bound: TypeExpr) -> "TypeContext":
        return TypeContext(self.entries + (("tvar", name, bound),))

    def lookup_var(self, name: str) -> Optional[TypeExpr]:
        for kind, n, t in reversed(self.entries):
            if kind == "var" and n == name:
                return t
        return None

    def lookup_tvar(self, name: str) -> Optional[TypeExpr]:
        for kind, n, t in reversed(self.entries):
            if kind == "tvar" and n == name:
                return t
        return None

    def tvar_names(self) -> frozenset[str]:
        return frozenset(n for kind, n, _ in self.entries if kind == "tvar")


LocationTyping = dict[Address, TypeExpr]  # values are Img types


def context_from(vars: dict[str, TypeExpr] | None = None) -> TypeContext:
    ctx = TypeContext()
    for n, t in (vars or {}).items():
        ctx = ctx.extend_var(n, t)
    return ctx


# ---------------------------------------------------------------------------
# Subtyping
# ---------------------------------------------------------------------------


def subtype(ctx: TypeContext, t: TypeExpr, u: TypeExpr) -> bool:
    if isinstance(u, Top):
        return True
    if isinstance(t, Bot):
        return True
    if t == u:
        return True
    if isinstance(t, TypeVar):
        bound = ctx.lookup_tvar(t.name)
        return bound is not None and subtype(ctx, bound, u)
    if isinstance(t, SrvBot) and isinstance(u, SrvT):
        return True
    if isinstance(t, SrvT) and isinstance(u, SrvT):
        for name, usvc in u.services:
            tsvc = t.get(name)
            if tsvc is None or not subtype(ctx, tsvc, usvc):
                return False
        return True
    if isinstance(t, SvcT) and isinstance(u, SvcT):
        if len(t.args) != len(u.args):
            return False
        return all(subtype(ctx, ua, ta) for ta, ua in zip(t.args, u.args))
    if isinstance(t, InstT) and isinstance(u, InstT):
        return subtype(ctx, t.inner, u.inner)
    if isinstance(t, ImgT) and isinstance(u, ImgT):
        return subtype(ctx, t.inner, u.inner)
    if isinstance(t, Univ) and isinstance(u, Univ):
        if t.bound != u.bound:
            return False
        f = fresh_name("a", ctx.tvar_names() | free_type_vars(t.body) | free_type_vars(u.body))
        ext = ctx.extend_tvar(f, t.bound)
        tb = substitute_type_in_type(t.body, {t.var: TypeVar(f)})
        ub = substitute_type_in_type(u.body, {u.var: TypeVar(f)})
        return subtype(ext, tb, ub)
    if isinstance(t, DataT) and isinstance(u, DataT):
        if t.ctor != u.ctor or len(t.args) != len(u.args):
            return False
        return all(subtype(ctx, a, b) for a, b in zip(t.args, u.args))
    return False


def promote(ctx: TypeContext, t: TypeExpr) -> TypeExpr:
    """Expose a type variable through its bounds (algorithmic S-TVar)."""
    seen = 0
    while isinstance(t, TypeVar):
        bound = ctx.lookup_tvar(t.name)
        if bound is None:
            return t
        t = bound
        seen += 1
        if seen > 1000:
            raise TypeCheckError("EscapingTypeVar", "type-variable bound cycle")
    return t


def join(ctx: TypeContext, a: TypeExpr, b: TypeExpr, loc: Loc | None, what: str) -> TypeExpr:
    if subtype(ctx, a, b):
        return b
    if subtype(ctx, b, a):
        return a
    raise TypeCheckError("NotASubtype", f"incompatible types in {what}", loc, expected=a, actual=b)


def require_subtype(
    ctx: TypeContext, got: TypeExpr, want: TypeExpr, loc: Loc | None, msg: str, kind: str = "NotASubtype"
) -> None:
    """The subsumption premise of a checking position: got <: want, or a
    `kind` error. Callers type the term first, so this adds no frame per
    nesting level of the term."""
    if not subtype(ctx, got, want):
        raise TypeCheckError(kind, msg, loc, expected=want, actual=got)


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------


def type_of(ctx: TypeContext, sigma: LocationTyping, e: Expr) -> TypeExpr:
    """Minimal type of e, or a TypeCheckError naming the violated premise."""
    loc = getattr(e, "loc", None)
    if isinstance(e, Var):
        t = ctx.lookup_var(e.name)
        if t is None:
            raise TypeCheckError("UnboundVar", f"unbound variable {e.name!r}", loc)
        return t
    if isinstance(e, This):
        t = ctx.lookup_var(THIS)
        if t is None:
            raise TypeCheckError("UnboundVar", "this used outside a server template", loc)
        return t
    if isinstance(e, BaseLit):
        v = e.value
        if isinstance(v, bool):
            return BOOL
        if isinstance(v, int):
            return INT
        if isinstance(v, float):
            return FLOAT
        return STRING
    if isinstance(e, ExternalRef):
        # Any other external name is an observer sink, like `result`.
        return ENDPOINTS.get(e.name, ENDPOINTS["result"])
    if isinstance(e, Par):
        for x in e.exprs:
            t = type_of(ctx, sigma, x)
            require_subtype(ctx, t, UNIT, getattr(x, "loc", loc), "parallel component must have type Unit")
        return UNIT
    if isinstance(e, ServerTemplate):
        return _type_of_template(ctx, sigma, e)
    if type(e) is Closure:
        return _type_of_template(ctx, sigma, force(e))
    if isinstance(e, ZeroImage):
        return ImgT(SRV_BOT)
    if isinstance(e, Image):
        return _type_of_image(ctx, sigma, e)
    if isinstance(e, Snap):
        t = promote(ctx, type_of(ctx, sigma, e.expr))
        if isinstance(t, InstT):
            return ImgT(t.inner)
        raise TypeCheckError("NotAnInstance", "snap requires a server instance", loc, actual=t)
    if isinstance(e, Repl):
        t1 = promote(ctx, type_of(ctx, sigma, e.target))
        if not isinstance(t1, InstT):
            raise TypeCheckError("NotAnInstance", "repl requires a server instance", loc, actual=t1)
        t2 = promote(ctx, type_of(ctx, sigma, e.image))
        img2 = as_image_type(t2)
        if img2 is None:
            raise TypeCheckError("NotAnImage", "repl requires a server image", loc, actual=t2)
        want = ImgT(t1.inner)
        require_subtype(ctx, img2, want, loc, "replacement image must preserve the instance interface")
        return UNIT
    if isinstance(e, Spwn):
        t = promote(ctx, type_of(ctx, sigma, e.expr))
        img = as_image_type(t)
        if img is None:
            raise TypeCheckError("NotAnImage", "spwn requires a server image or template", loc, actual=t)
        return InstT(img.inner)
    if isinstance(e, Addr):
        t = sigma.get(e.address)
        if t is None:
            raise TypeCheckError("UnboundVar", f"address {e.address.id} not allocated", loc)
        assert isinstance(t, ImgT)
        return InstT(t.inner)
    if isinstance(e, ServiceRef):
        t = promote(ctx, type_of(ctx, sigma, e.target))
        if not isinstance(t, InstT):
            raise TypeCheckError("NotAnInstance", "service selection needs a server instance", loc, actual=t)
        inner = promote(ctx, t.inner)
        svc = inner.get(e.service) if isinstance(inner, SrvT) else None
        if svc is None:
            raise TypeCheckError("ServiceNotFound", f"service {e.service!r} not provided", loc, actual=inner)
        return svc
    if isinstance(e, Request):
        t = promote(ctx, type_of(ctx, sigma, e.callee))
        if not isinstance(t, SvcT):
            raise TypeCheckError("NotAService", "request target is not a service", loc, actual=t)
        if len(t.args) != len(e.args):
            raise TypeCheckError(
                "ArityMismatch",
                f"service expects {len(t.args)} arguments, got {len(e.args)}",
                loc,
            )
        for a, want in zip(e.args, t.args):
            # The def spine's right-hand sides are request arguments.
            kept = a._tycache
            got = None if kept is None else _kept_type(ctx, sigma, kept)
            if got is None:
                got = type_of(ctx, sigma, a)
                if kept is not None:
                    _keep(ctx, sigma, a, got)
            require_subtype(ctx, got, want, getattr(a, "loc", loc), "request argument has the wrong type")
        return UNIT
    if isinstance(e, TypeAbs):
        inner = type_of(ctx.extend_tvar(e.var, e.bound), sigma, e.body)
        return Univ(e.var, e.bound, inner)
    if isinstance(e, TypeApp):
        t = promote(ctx, type_of(ctx, sigma, e.expr))
        if not isinstance(t, Univ):
            raise TypeCheckError("NotAUniversal", "type application needs a universal", loc, actual=t)
        if not free_type_vars(e.arg) <= ctx.tvar_names():
            raise TypeCheckError("EscapingTypeVar", "type argument mentions unbound type variables", loc)
        require_subtype(ctx, e.arg, t.bound, loc, "type argument violates the bound")
        return substitute_type_in_type(t.body, {t.var: e.arg})
    if isinstance(e, BaseOp):
        ts = [type_of(ctx, sigma, x) for x in e.operands]
        op = OPS.get(e.op)
        if op is None:
            raise TypeCheckError("NotAService", f"unknown base operation {e.op!r}", loc)
        if len(ts) != op.arity:
            raise TypeCheckError("ArityMismatch", f"{e.op} takes {op.arity} operands, got {len(ts)}", loc)
        return op.rule(_Checked(ctx, e.op, loc, ts))
    if isinstance(e, If):
        ct = type_of(ctx, sigma, e.cond)
        require_subtype(ctx, ct, BOOL, loc, "condition must be Bool")
        t1 = type_of(ctx, sigma, e.then)
        t2 = type_of(ctx, sigma, e.orelse)
        return join(ctx, t1, t2, loc, "if branches")
    if isinstance(e, TupleV):
        return DataT("Tuple", tuple(type_of(ctx, sigma, x) for x in e.items))
    if isinstance(e, ListV):
        if not e.items:
            return DataT("List", (BOT,))
        elem: TypeExpr = type_of(ctx, sigma, e.items[0])
        for x in e.items[1:]:
            elem = join(ctx, elem, type_of(ctx, sigma, x), loc, "list literal")
        return DataT("List", (elem,))
    if isinstance(e, MapV):
        if not e.entries:
            return DataT("Map", (BOT, BOT))
        kt: TypeExpr = type_of(ctx, sigma, e.entries[0][0])
        vt: TypeExpr = type_of(ctx, sigma, e.entries[0][1])
        for k, v in e.entries[1:]:
            kt = join(ctx, kt, type_of(ctx, sigma, k), loc, "map keys")
            vt = join(ctx, vt, type_of(ctx, sigma, v), loc, "map values")
        return DataT("Map", (kt, vt))
    raise TypeCheckError("NotAService", f"cannot type node {type(e).__name__}", loc)


def keep_type(e: Expr) -> None:
    """Let the checker keep e's type on e (`_tycache`) when it types e as a
    request argument. The desugarer asks this for the cores it reuses
    across loads; other terms are typed afresh, at no cost per term.

    Kept with the type are the context types of e's free variables. It is
    reused while Σ is empty, no type variable is in scope and each of those
    types is identical or `==`: the typing rules then read nothing else. A
    failed check keeps nothing."""
    if e._tycache is None:
        store(e, "_tycache", ())


def _plain_scope(ctx: TypeContext, sigma: LocationTyping) -> bool:
    """Σ is empty and no type variable is in scope."""
    return not sigma and all(kind != "tvar" for kind, _, _ in ctx.entries)


def _kept_type(ctx: TypeContext, sigma: LocationTyping, kept: tuple) -> Optional[TypeExpr]:
    if not kept or not _plain_scope(ctx, sigma):
        return None
    t, reads = kept
    for n, u in reads:
        v = ctx.lookup_var(n)
        if v is not u and v != u:
            return None
    return t


def _keep(ctx: TypeContext, sigma: LocationTyping, e: Expr, t: TypeExpr) -> None:
    if _plain_scope(ctx, sigma):
        store(e, "_tycache", (t, tuple((n, ctx.lookup_var(n)) for n in free_vars(e))))


def as_image_type(t: TypeExpr | None) -> Optional[ImgT]:
    """Images, plus the template-to-image coercion spwn (srv r) = spwn (srv r, eps)."""
    if isinstance(t, ImgT):
        return t
    if isinstance(t, (SrvT, SrvBot)):
        return ImgT(t)
    return None


def _service_table(services: Iterable[tuple[str, SvcT]], conflict: str, loc: Loc | None = None) -> SrvT:
    """The server type of the (name, service type) pairs; a name given
    twice must carry one type, or `service <name> <conflict>` is raised."""
    table: dict[str, SvcT] = {}
    for name, svc in services:
        prev = table.setdefault(name, svc)
        if prev != svc:
            raise TypeCheckError(
                "InconsistentServiceType", f"service {name!r} {conflict}", loc, expected=prev, actual=svc
            )
    return SrvT(tuple(table.items()))


def _type_of_template(ctx: TypeContext, sigma: LocationTyping, e: ServerTemplate) -> SrvT:
    loc = getattr(e, "loc", None)
    services = ((p.service, SvcT(tuple(t for _, t in p.params))) for r in e.rules for p in r.patterns)
    ttype = _service_table(services, "declared at different types", loc)
    # A closed template type needs no walk over the context.
    ftv = free_type_vars(ttype)
    if ftv and not ftv <= ctx.tvar_names():
        missing = sorted(ftv - ctx.tvar_names())
        raise TypeCheckError(
            "EscapingTypeVar", f"template type mentions unbound type variables {missing}", loc
        )
    for r in e.rules:
        inner = ctx
        for p in r.patterns:
            for n, t in p.params:
                inner = inner.extend_var(n, t)
        if not e.transparent_this:
            inner = inner.extend_var(THIS, InstT(ttype))
        bt = type_of(inner, sigma, r.body)
        require_subtype(ctx, bt, UNIT, getattr(r.body, "loc", loc), "rule body must have type Unit")
    return ttype


def _type_of_image(ctx: TypeContext, sigma: LocationTyping, e: Image) -> ImgT:
    loc = getattr(e, "loc", None)
    t = promote(ctx, type_of(ctx, sigma, e.template))
    if not isinstance(t, SrvT):
        raise TypeCheckError("NotAnImage", "image template must be a server template", loc, actual=t)
    for m in e.buffer:
        svc = t.get(m.service)
        if svc is None:
            raise TypeCheckError(
                "ServiceNotFound", f"buffered message {m.service!r} not understood", loc, actual=t
            )
        if len(svc.args) != len(m.args):
            raise TypeCheckError(
                "ArityMismatch",
                f"buffered {m.service!r} has {len(m.args)} arguments, service takes {len(svc.args)}",
                loc,
            )
        for a, want in zip(m.args, svc.args):
            got = type_of(ctx, sigma, a)
            msg = f"buffered {m.service!r} argument has the wrong type"
            require_subtype(ctx, got, want, loc, msg, "BufferIllTyped")
    return ImgT(t)


class _Checked:
    """The checker's view of a base operation's operands (`builtins.Operands`).

    Operand types are kept unpromoted so type variables survive joins;
    `shape` promotes where a rule needs a constructor.
    """

    def __init__(self, ctx: TypeContext, op: str, loc: Loc | None, ts: list[TypeExpr]):
        self.ctx, self.op, self.loc, self.ts = ctx, op, loc, ts

    def type(self, i: int) -> TypeExpr:
        return self.ts[i]

    def shape(self, i: int) -> TypeExpr:
        return promote(self.ctx, self.ts[i])

    def want(self, i: int, t: TypeExpr) -> None:
        require_subtype(self.ctx, self.ts[i], t, self.loc, f"{self.op}: operand {i + 1} has the wrong type")

    def want_key(self, i: int, key: TypeExpr) -> None:
        t = self.ts[i]
        if not subtype(self.ctx, t, key) and not subtype(self.ctx, key, t):
            self.fail("NotASubtype", f"{self.op}: key type mismatch", key, t)

    def join(self, t: TypeExpr, u: TypeExpr) -> TypeExpr:
        return join(self.ctx, t, u, self.loc, self.op)

    def fail(self, kind: str, msg: str, expected: TypeExpr | None = None, actual: TypeExpr | None = None):
        raise TypeCheckError(kind, msg, self.loc, expected=expected, actual=actual)


# ---------------------------------------------------------------------------
# Routing tables and unions
# ---------------------------------------------------------------------------


def check_routing_table(ctx: TypeContext, sigma: LocationTyping, table: RoutingTable) -> bool:
    """Definition: dom(mu) = dom(Sigma) and each entry types at Sigma(i)."""
    if set(table.keys()) != set(sigma.keys()):
        return False
    for addr, entry in table.items():
        want = sigma[addr]
        try:
            got = type_of(ctx, sigma, image_of(entry))
        except TypeCheckError:
            return False
        if not subtype(ctx, got, want):
            return False
    return True


def server_type_union(t: SrvT, u: SrvT) -> SrvT:
    """Union of two server-template types; defined only when shared service
    names carry identical annotations."""
    return _service_table((*t.services, *u.services), "has conflicting annotations in union")
