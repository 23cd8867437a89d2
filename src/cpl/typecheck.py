"""Algorithmic typing and subtyping.

The implementation computes minimal types and folds subsumption into the
checking positions (request arguments, replacement operands, type-application
bounds, buffered messages). Subtyping is the syntax-directed kernel variant:
universal bounds must agree, reflexivity and transitivity are admissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .builtins import OPS
from .core import (
    BOOL,
    BOT,
    FLOAT,
    INT,
    SRV_BOT,
    STRING,
    THIS,
    TOP,
    UNIT,
    Addr,
    Address,
    BaseLit,
    BaseOp,
    Bot,
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
    free_type_vars,
    fresh_name,
    image_of,
    substitute_type_in_type,
)
from .errors import CplError, Loc
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


@dataclass(frozen=True)
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
        if e.name == "timer":
            return SvcT((INT, SvcT(())))
        return SvcT((TOP,))
    if isinstance(e, Par):
        for x in e.exprs:
            t = type_of(ctx, sigma, x)
            if not subtype(ctx, t, UNIT):
                raise TypeCheckError(
                    "NotASubtype", "parallel component must have type Unit",
                    getattr(x, "loc", loc), expected=UNIT, actual=t,
                )
        return UNIT
    if isinstance(e, ServerTemplate):
        return _type_of_template(ctx, sigma, e)
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
        img2 = _as_image_type(t2)
        if img2 is None:
            raise TypeCheckError("NotAnImage", "repl requires a server image", loc, actual=t2)
        if not subtype(ctx, img2, ImgT(t1.inner)):
            raise TypeCheckError(
                "NotASubtype", "replacement image must preserve the instance interface",
                loc, expected=ImgT(t1.inner), actual=img2,
            )
        return UNIT
    if isinstance(e, Spwn):
        t = promote(ctx, type_of(ctx, sigma, e.expr))
        img = _as_image_type(t)
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
        if isinstance(inner, SrvT):
            svc = inner.get(e.service)
            if svc is None:
                raise TypeCheckError(
                    "ServiceNotFound", f"service {e.service!r} not provided", loc, actual=inner
                )
            return svc
        raise TypeCheckError("ServiceNotFound", f"service {e.service!r} not provided", loc, actual=inner)
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
            got = type_of(ctx, sigma, a)
            if not subtype(ctx, got, want):
                raise TypeCheckError(
                    "NotASubtype", "request argument has the wrong type",
                    getattr(a, "loc", loc), expected=want, actual=got,
                )
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
        if not subtype(ctx, e.arg, t.bound):
            raise TypeCheckError(
                "NotASubtype", "type argument violates the bound", loc, expected=t.bound, actual=e.arg
            )
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
        if not subtype(ctx, ct, BOOL):
            raise TypeCheckError("NotASubtype", "condition must be Bool", loc, expected=BOOL, actual=ct)
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


def _as_image_type(t: TypeExpr) -> Optional[ImgT]:
    """Images, plus the template-to-image coercion spwn (srv r) = spwn (srv r, eps)."""
    if isinstance(t, ImgT):
        return t
    if isinstance(t, (SrvT, SrvBot)):
        return ImgT(t)
    return None


def _type_of_template(ctx: TypeContext, sigma: LocationTyping, e: ServerTemplate) -> SrvT:
    entries: dict[str, SvcT] = {}
    loc = getattr(e, "loc", None)
    for r in e.rules:
        seen: set[str] = set()
        for p in r.patterns:
            for n in p.param_names:
                if n in seen:
                    raise TypeCheckError(
                        "NonLinearPattern", f"parameter {n!r} bound twice in a rule", loc
                    )
                seen.add(n)
            svc = SvcT(tuple(t for _, t in p.params))
            prev = entries.get(p.service)
            if prev is None:
                entries[p.service] = svc
            elif prev != svc:
                raise TypeCheckError(
                    "InconsistentServiceType",
                    f"service {p.service!r} declared at different types",
                    loc, expected=prev, actual=svc,
                )
    ttype = SrvT(tuple(entries.items()))
    if not free_type_vars(ttype) <= ctx.tvar_names():
        missing = sorted(free_type_vars(ttype) - ctx.tvar_names())
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
        if not subtype(ctx, bt, UNIT):
            raise TypeCheckError(
                "NotASubtype", "rule body must have type Unit",
                getattr(r.body, "loc", loc), expected=UNIT, actual=bt,
            )
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
            if not subtype(ctx, got, want):
                raise TypeCheckError(
                    "BufferIllTyped",
                    f"buffered {m.service!r} argument has the wrong type",
                    loc, expected=want, actual=got,
                )
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
        if not subtype(self.ctx, self.ts[i], t):
            self.fail("NotASubtype", f"{self.op}: operand {i + 1} has the wrong type", t, self.ts[i])

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
    merged: dict[str, SvcT] = dict(t.services)
    for name, svc in u.services:
        prev = merged.get(name)
        if prev is None:
            merged[name] = svc
        elif prev != svc:
            raise TypeCheckError(
                "InconsistentServiceType",
                f"service {name!r} has conflicting annotations in union",
                expected=prev, actual=svc,
            )
    return SrvT(tuple(merged.items()))
