"""Compact, re-parseable rendering of core terms and types, and the JSON
form of observed values."""

from __future__ import annotations

from .core import (
    Addr,
    AliasT,
    BaseLit,
    BaseOp,
    BaseT,
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
    MessageValue,
    Par,
    Placement,
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
    Top,
    TupleV,
    TypeAbs,
    TypeApp,
    TypeExpr,
    TypeVar,
    UnitT,
    Univ,
    Var,
    ZeroImage,
    force,
)
from .frozen import memo

_INFIX = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "div": "/",
    "mod": "%",
    "eq": "==",
    "neq": "!=",
    "le": "<=",
    "ge": ">=",
    "cons": "::",
}


def pretty_type(t: TypeExpr) -> str:
    """The text of t, cached on the node as `_ptcache`: types are immutable,
    and the stdlib's expanded annotations are shared by every load."""
    return memo(t, "_ptcache", _type_text)


def _type_text(t: TypeExpr) -> str:
    if isinstance(t, Top):
        return "Top"
    if isinstance(t, UnitT):
        return "Unit"
    if isinstance(t, Bot):
        return "Bot"
    if isinstance(t, SrvBot):
        return "SrvBot"
    if isinstance(t, BaseT):
        return t.name
    if isinstance(t, TypeVar):
        return t.name
    if isinstance(t, SvcT):
        return "<" + ", ".join(pretty_type(a) for a in t.args) + ">"
    if isinstance(t, SrvT):
        if not t.services:
            return "srv { }"
        inner = ", ".join(f"{n}: {pretty_type(s)}" for n, s in t.services)
        return "srv { " + inner + " }"
    if isinstance(t, InstT):
        return f"inst {_type_atom(t.inner)}"
    if isinstance(t, ImgT):
        return f"img {_type_atom(t.inner)}"
    if isinstance(t, Univ):
        bound = "" if isinstance(t.bound, Top) else f" <: {pretty_type(t.bound)}"
        return f"forall {t.var}{bound}. {pretty_type(t.body)}"
    if isinstance(t, DataT):
        if t.ctor == "Tuple":
            return "(" + ", ".join(pretty_type(a) for a in t.args) + ")"
        if not t.args:
            return t.ctor
        return t.ctor + "[" + ", ".join(pretty_type(a) for a in t.args) + "]"
    if isinstance(t, AliasT):
        if not t.args:
            return t.name
        return t.name + "[" + ", ".join(pretty_type(a) for a in t.args) + "]"
    raise TypeError(f"unprintable type: {t!r}")


def _type_atom(t: TypeExpr) -> str:
    s = pretty_type(t)
    if isinstance(t, (Univ, InstT, ImgT)):
        return f"({s})"
    return s


def pretty_message(m: MessageValue) -> str:
    return m.service + "<" + ", ".join(pretty_expr(a) for a in m.args) + ">"


def pretty_expr(e: Expr) -> str:
    """The text of e; a closure prints as the template it forces to. A
    server template's text is cached on the node as `_pcache`, and so is
    the text of each component of a parallel composition: substitution and
    Spwn share templates between steps, forcing a closure that extends a
    forced one shares the subterms the new names leave alone, the stdlib's
    templates live for the whole process, and a trace prints a soup whose
    components mostly outlive the step. Terms are immutable, so the text
    cannot go stale. No other node keeps its text, which would hold
    O(size × depth) of it. The classes a trace meets most are tested
    first."""
    if isinstance(e, BaseLit):
        v = e.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return repr(v)
    if isinstance(e, ListV):
        return "[" + ", ".join(pretty_expr(x) for x in e.items) + "]"
    if isinstance(e, TupleV):
        return "(" + ", ".join(pretty_expr(x) for x in e.items) + ")"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, This):
        return "this"
    if isinstance(e, Par):
        if not e.exprs:
            return "par"
        if len(e.exprs) == 1:
            return f"par({_cached_text(e.exprs[0])})"
        return "(" + " || ".join(map(_cached_text, e.exprs)) + ")"
    if isinstance(e, ServerTemplate):
        return _cached_text(e)
    if type(e) is Closure:
        return _cached_text(force(e))
    if isinstance(e, Spwn):
        kw = "spwn local " if e.placement is Placement.LOCAL else "spwn "
        return kw + _atom(e.expr)
    if isinstance(e, ServiceRef):
        return f"{_atom(e.target)}#{e.service}"
    if isinstance(e, Request):
        return _atom(e.callee) + "<" + ", ".join(pretty_expr(a) for a in e.args) + ">"
    if isinstance(e, Snap):
        return "snap " + _atom(e.expr)
    if isinstance(e, Repl):
        target = _atom(e.target)
        image = _atom(e.image)
        # Juxtaposed operands: a bare `par` target would absorb a following
        # paren group as an explicit list, and a callable target would absorb
        # it as a call, so force a group around the target.
        if target == "par" or image.startswith("("):
            target = f"({target})"
        return f"repl {target} {image}"
    if isinstance(e, Addr):
        mark = "~" if e.address.placement is Placement.LOCAL else ""
        return f"@{mark}{e.address.id}"
    if isinstance(e, Image):
        buf = ", ".join(pretty_message(m) for m in e.buffer)
        return f"img({pretty_expr(e.template)}, [{buf}])"
    if isinstance(e, ZeroImage):
        return "zero"
    if isinstance(e, TypeAbs):
        bound = "" if isinstance(e.bound, Top) else f" <: {pretty_type(e.bound)}"
        return f"/\\{e.var}{bound}. {pretty_expr(e.body)}"
    if isinstance(e, TypeApp):
        return f"{_atom(e.expr)}[{pretty_type(e.arg)}]"
    if isinstance(e, BaseOp):
        if e.op in _INFIX and len(e.operands) == 2:
            a, b = e.operands
            return f"({pretty_expr(a)} {_INFIX[e.op]} {pretty_expr(b)})"
        return e.op + "(" + ", ".join(pretty_expr(x) for x in e.operands) + ")"
    if isinstance(e, If):
        return (
            f"(if {pretty_expr(e.cond)} then {pretty_expr(e.then)} "
            f"else {pretty_expr(e.orelse)})"
        )
    if isinstance(e, MapV):
        pairs = ", ".join(f"({pretty_expr(k)}, {pretty_expr(v)})" for k, v in e.entries)
        return f"mkMap([{pairs}])"
    if isinstance(e, ExternalRef):
        return f"^{e.name}"
    raise TypeError(f"unprintable expression: {e!r}")


def _template_text(e: ServerTemplate) -> str:
    star = "*" if e.transparent_this else ""
    rules = []
    for r in e.rules:
        pats = " & ".join(
            p.service
            + "<"
            + ", ".join(f"{n}: {pretty_type(t)}" for n, t in p.params)
            + ">"
            for p in r.patterns
        )
        rules.append(f"{pats} :> {pretty_expr(r.body)}")
    inner = "  ".join(rules)
    return "srv" + star + " { " + inner + " }"


def _cached_text(e: Expr) -> str:
    """The text of a template or of a component of a parallel composition,
    cached on the node as `_pcache`."""
    return memo(e, "_pcache", _template_text if type(e) is ServerTemplate else pretty_expr)


def _atom(e: Expr) -> str:
    """Render e so a postfix operator or keyword operand can attach safely."""
    s = pretty_expr(e)
    if isinstance(
        e,
        (Var, This, Addr, ExternalRef, BaseLit, TupleV, ListV, TypeApp, ServiceRef, ZeroImage),
    ):
        return s
    if isinstance(e, Par) and not e.exprs:
        return s
    if isinstance(e, BaseOp) and not (e.op in _INFIX and len(e.operands) == 2):
        return s
    if isinstance(e, (Image, MapV)):
        return s
    if s.startswith("("):
        return s
    return f"({s})"


def value_to_json(v: Expr):
    """The JSON form of a value: literals as themselves, tuples and lists as
    arrays, a map as an object if its keys are strings (else as an array of
    pairs), and anything else as a tagged object."""
    if isinstance(v, BaseLit):
        return v.value
    if isinstance(v, TupleV):
        return [value_to_json(x) for x in v.items]
    if isinstance(v, ListV):
        return [value_to_json(x) for x in v.items]
    if isinstance(v, MapV):
        if all(isinstance(k, BaseLit) and isinstance(k.value, str) for k, _ in v.entries):
            return {k.value: value_to_json(x) for k, x in v.entries}  # type: ignore[union-attr]
        return [[value_to_json(k), value_to_json(x)] for k, x in v.entries]
    if isinstance(v, Addr):
        return {"$addr": v.address.id}
    if isinstance(v, ServiceRef) and isinstance(v.target, Addr):
        return {"$svc": [v.target.address.id, v.service]}
    if isinstance(v, ExternalRef):
        return {"$ext": v.name}
    if isinstance(v, ZeroImage):
        return {"$image": None}
    return {"$value": pretty_expr(v)}


# `pretty_print` is the spec-facing name.
pretty_print = pretty_expr
