"""Core term and type language: expressions, types, routing tables, substitution.

Everything here is immutable; values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import LinearityError, Loc

# The self-reference is a distinguished token; it is stored under this key in
# substitutions and free-variable sets so shadowing rules stay explicit.
THIS = "this"


class Placement(Enum):
    LOCAL = "local"
    REMOTE = "remote"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class TypeExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Top(TypeExpr):
    pass


@dataclass(frozen=True)
class UnitT(TypeExpr):
    pass


@dataclass(frozen=True)
class Bot(TypeExpr):
    """Internal least type; the minimal type of empty collection literals."""


@dataclass(frozen=True)
class BaseT(TypeExpr):
    """Primitive data type: Int, Bool, Float or String."""

    name: str


@dataclass(frozen=True)
class TypeVar(TypeExpr):
    name: str


@dataclass(frozen=True)
class SvcT(TypeExpr):
    """Service type <T1, ..., Tn>."""

    args: tuple[TypeExpr, ...]


@dataclass(frozen=True)
class SrvT(TypeExpr):
    """Server-template type; a finite map from service names to service types.

    Entries are kept sorted by name so structural equality is order-independent.
    """

    services: tuple[tuple[str, SvcT], ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.services, key=lambda kv: kv[0]))
        names = [n for n, _ in entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate service names in server type: {dupes}")
        object.__setattr__(self, "services", entries)

    def get(self, name: str) -> Optional[SvcT]:
        for n, t in self.services:
            if n == name:
                return t
        return None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.services)


@dataclass(frozen=True)
class SrvBot(TypeExpr):
    """The template type of inert servers; subtype of every server type."""


@dataclass(frozen=True)
class InstT(TypeExpr):
    inner: TypeExpr


@dataclass(frozen=True)
class ImgT(TypeExpr):
    inner: TypeExpr


@dataclass(frozen=True, eq=False)
class Univ(TypeExpr):
    """Bounded universal; kernel variant (bounds compared for equality).

    The only type binder, so its `==` makes `==` on every type
    alpha-equivalence: the bodies are compared with both variables renamed
    to one name free in neither."""

    var: str
    bound: TypeExpr
    body: TypeExpr

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Univ):
            return NotImplemented
        if self.bound != other.bound:
            return False
        if self.var == other.var:
            return self.body == other.body
        f = TypeVar(fresh_name(self.var, free_type_vars(self.body) | free_type_vars(other.body)))
        body = substitute_type_in_type(self.body, {self.var: f})
        return body == substitute_type_in_type(other.body, {other.var: f})

    def __hash__(self) -> int:
        return hash(self.bound)


@dataclass(frozen=True)
class DataT(TypeExpr):
    """Built-in data constructor: List[T], Tuple[T...], Map[K, V]."""

    ctor: str
    args: tuple[TypeExpr, ...]


@dataclass(frozen=True)
class AliasT(TypeExpr):
    """Unexpanded type-alias application; eliminated by desugaring."""

    name: str
    args: tuple[TypeExpr, ...]


TOP = Top()
UNIT = UnitT()
BOT = Bot()
SRV_BOT = SrvBot()
INT = BaseT("Int")
BOOL = BaseT("Bool")
FLOAT = BaseT("Float")
STRING = BaseT("String")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Expr:
    __slots__ = ()


def _loc_field() -> Loc | None:
    return field(default=None, compare=False, repr=False)  # type: ignore[return-value]


@dataclass(frozen=True)
class Var(Expr):
    name: str
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class This(Expr):
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class JoinPattern:
    service: str
    params: tuple[tuple[str, TypeExpr], ...]

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.params)


@dataclass(frozen=True)
class ReactionRule:
    patterns: tuple[JoinPattern, ...]
    body: Expr

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("reaction rule needs at least one join pattern")
        seen: set[str] = set()
        for p in self.patterns:
            for n in p.param_names:
                if n in seen:
                    raise LinearityError(f"parameter {n!r} bound twice in one rule")
                seen.add(n)

    @property
    def bound_names(self) -> tuple[str, ...]:
        return tuple(n for p in self.patterns for n in p.param_names)


@dataclass(frozen=True)
class ServerTemplate(Expr):
    rules: tuple[ReactionRule, ...]
    # Derived forms that wrap a body containing a free `this` are marked
    # transparent: substitution for `this` descends into them and the
    # typechecker does not rebind `this` for their rule bodies.
    transparent_this: bool = False
    loc: Loc | None = _loc_field()

    def service_names(self) -> tuple[str, ...]:
        out: list[str] = []
        for r in self.rules:
            for p in r.patterns:
                if p.service not in out:
                    out.append(p.service)
        return tuple(out)


@dataclass(frozen=True)
class Spwn(Expr):
    expr: Expr
    placement: Placement = Placement.REMOTE
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class ServiceRef(Expr):
    target: Expr
    service: str
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Request(Expr):
    callee: Expr
    args: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Par(Expr):
    exprs: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Snap(Expr):
    expr: Expr
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Repl(Expr):
    target: Expr
    image: Expr
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Address:
    id: int
    placement: Placement = Placement.REMOTE

    def __hash__(self) -> int:
        # Equal addresses have equal ids, so the id alone is a valid hash; it
        # spares every table lookup a tuple and an Enum hash in Python.
        return hash(self.id)


@dataclass(frozen=True)
class Addr(Expr):
    address: Address
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class MessageValue:
    service: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Image(Expr):
    """Server image expression (template, buffer); a value once closed."""

    template: Expr
    buffer: tuple[MessageValue, ...]
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class ZeroImage(Expr):
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class TypeAbs(Expr):
    var: str
    bound: TypeExpr
    body: Expr
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class TypeApp(Expr):
    expr: Expr
    arg: TypeExpr
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class BaseOp(Expr):
    op: str
    operands: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class BaseLit(Expr):
    value: Union[int, bool, float, str]
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class If(Expr):
    """Built-in conditional; branches are not evaluation contexts."""

    cond: Expr
    then: Expr
    orelse: Expr
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class TupleV(Expr):
    items: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class ListV(Expr):
    items: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class MapV(Expr):
    """Map value; entries kept sorted by key digest for canonical equality."""

    entries: tuple[tuple[Expr, Expr], ...]
    loc: Loc | None = _loc_field()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple(sorted(self.entries, key=lambda kv: repr(kv[0])))
        )


@dataclass(frozen=True)
class ExternalRef(Expr):
    """Engine-provided service endpoint (observer sink or timer); a value.

    Printed as ^name. `run` substitutes designated free continuation names
    with these; they are test and CLI plumbing, not semantics.
    """

    name: str
    loc: Loc | None = _loc_field()


# Routing tables ------------------------------------------------------------


class ServerImage:
    __slots__ = ()


@dataclass(frozen=True)
class Inert(ServerImage):
    pass


Bindings = tuple[tuple[str, Expr], ...]
# A mailbox's queues: (service, arity) -> its (arrival number, message) pairs.
Queues = dict[tuple[str, int], tuple[tuple[int, MessageValue], ...]]


def bind(pattern: JoinPattern, msg: MessageValue) -> Bindings:
    """The parameter bindings of one pattern taking one message."""
    return tuple((n, v) for (n, _), v in zip(pattern.params, msg.args))


class Mailbox:
    """The buffered messages of one instance: one FIFO queue per (service,
    arity), each message tagged with its arrival number; no queue is empty.

    A join pattern only takes messages of its own service and arity, which
    are interchangeable, so whether a rule matches and which messages it
    takes depend only on the queue lengths and heads: both read O(patterns)
    messages whatever the depth. `ordered()` is the arrival-ordered view.
    A mailbox is immutable; each operation returns a new one that shares
    the untouched queues.
    """

    __slots__ = ("_queues", "_arrivals", "_ordered")

    def __init__(self, queues: Optional[Queues] = None, arrivals: int = 0) -> None:
        self._queues = {} if queues is None else queues
        self._arrivals = arrivals
        self._ordered: Optional[tuple[MessageValue, ...]] = None

    @staticmethod
    def of(messages: Iterable[MessageValue]) -> "Mailbox":
        """A mailbox holding `messages`, oldest first."""
        messages = tuple(messages)
        if not messages:
            return EMPTY_MAILBOX
        queues: dict[tuple[str, int], list[tuple[int, MessageValue]]] = {}
        for i, m in enumerate(messages):
            queues.setdefault((m.service, len(m.args)), []).append((i, m))
        box = Mailbox({k: tuple(q) for k, q in queues.items()}, len(messages))
        box._ordered = messages
        return box

    def received(self, msg: MessageValue) -> "Mailbox":
        """This mailbox with msg arrived last."""
        key = (msg.service, len(msg.args))
        queues = self._queues.copy()
        queues[key] = queues.get(key, ()) + ((self._arrivals, msg),)
        return Mailbox(queues, self._arrivals + 1)

    def can_take(self, patterns: Sequence[JoinPattern]) -> bool:
        """Whether every pattern finds a message of its own: the queue
        lengths against the number of patterns per (service, arity)."""
        queues = self._queues
        if len(patterns) == 1:  # no queue is empty, so presence suffices
            p = patterns[0]
            return (p.service, len(p.params)) in queues
        need: dict[tuple[str, int], int] = {}
        for p in patterns:
            key = (p.service, len(p.params))
            need[key] = n = need.get(key, 0) + 1
            if len(queues.get(key, ())) < n:
                return False
        return True

    def take(
        self, patterns: Sequence[JoinPattern]
    ) -> Optional[tuple[tuple[MessageValue, ...], Bindings, "Mailbox"]]:
        """The oldest message per pattern, left to right: the messages
        consumed, the bindings and the rest; None if a pattern finds none."""
        queues = self._queues
        used: dict[tuple[str, int], int] = {}
        consumed = []
        for p in patterns:
            key = (p.service, len(p.params))
            i = used.get(key, 0)
            queue = queues.get(key, ())
            if i == len(queue):
                return None
            consumed.append(queue[i][1])
            used[key] = i + 1
        bindings = tuple(b for p, m in zip(patterns, consumed) for b in bind(p, m))
        names = [n for n, _ in bindings]
        assert len(set(names)) == len(names), "pattern linearity violated"
        rest = queues.copy()
        for key, n in used.items():
            if n == len(queues[key]):
                del rest[key]
            else:
                rest[key] = queues[key][n:]
        return tuple(consumed), bindings, Mailbox(rest, self._arrivals) if rest else EMPTY_MAILBOX

    def ordered(self) -> tuple[MessageValue, ...]:
        """The messages in arrival order."""
        if self._ordered is None:
            self._ordered = tuple(m for _, m in sorted(chain.from_iterable(self._queues.values())))
        return self._ordered

    def __len__(self) -> int:
        return sum(map(len, self._queues.values()))

    def __iter__(self) -> Iterator[MessageValue]:
        return iter(self.ordered())


EMPTY_MAILBOX = Mailbox()


class Live(ServerImage):
    """A live entry: a template and the mailbox of its buffered messages.
    `buffer` is the arrival-ordered view, and equality compares (template,
    buffer); the constructor takes a mailbox or a sequence of messages."""

    __slots__ = ("template", "mailbox")

    def __init__(self, template: ServerTemplate, buffer: Union[Mailbox, Iterable[MessageValue]]) -> None:
        self.template = template
        self.mailbox = buffer if isinstance(buffer, Mailbox) else Mailbox.of(buffer)

    @property
    def buffer(self) -> tuple[MessageValue, ...]:
        return self.mailbox.ordered()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Live) and self.template == other.template and self.buffer == other.buffer

    def __hash__(self) -> int:
        return hash((self.template, self.buffer))

    def __repr__(self) -> str:
        return f"Live(template={self.template!r}, buffer={self.buffer!r})"


INERT = Inert()

RoutingTable = dict[Address, ServerImage]


def image_of(entry: ServerImage) -> Expr:
    """The image value a Snap of this table entry yields."""
    if isinstance(entry, Inert):
        return ZeroImage()
    assert isinstance(entry, Live)
    return Image(entry.template, entry.buffer)


# ---------------------------------------------------------------------------
# Subterms
# ---------------------------------------------------------------------------


class Shape(NamedTuple):
    """How the nodes of one term class hold their immediate subterms.

    `children` lists them left to right. `rebuild` makes the node again from
    new subterms, keeping every other field and `loc`. The first `evals` of
    them are evaluation-context positions; None means all of them.
    """

    children: Callable[[Any], tuple[Expr, ...]]
    rebuild: Callable[[Any, Sequence[Expr]], Expr]
    evals: Optional[int] = None


def _rebuild_image(e: Image, kids: Sequence[Expr]) -> Image:
    buffer, i = [], 1
    for m in e.buffer:
        j = i + len(m.args)
        buffer.append(MessageValue(m.service, tuple(kids[i:j])))
        i = j
    return Image(kids[0], tuple(buffer), loc=e.loc)


# Rule bodies sit under binders (parameters and `this`), so a template has no
# subterms here; every walk treats templates explicitly.
_LEAF = Shape(lambda e: (), lambda e, kids: e, 0)

SHAPES: dict[type, Shape] = {
    Var: _LEAF,
    This: _LEAF,
    Addr: _LEAF,
    ZeroImage: _LEAF,
    BaseLit: _LEAF,
    ExternalRef: _LEAF,
    ServerTemplate: _LEAF,
    Spwn: Shape(lambda e: (e.expr,), lambda e, k: Spwn(k[0], e.placement, loc=e.loc)),
    ServiceRef: Shape(lambda e: (e.target,), lambda e, k: ServiceRef(k[0], e.service, loc=e.loc)),
    Request: Shape(lambda e: (e.callee, *e.args), lambda e, k: Request(k[0], tuple(k[1:]), loc=e.loc)),
    Par: Shape(lambda e: e.exprs, lambda e, k: Par(tuple(k), loc=e.loc)),
    Snap: Shape(lambda e: (e.expr,), lambda e, k: Snap(k[0], loc=e.loc)),
    Repl: Shape(lambda e: (e.target, e.image), lambda e, k: Repl(k[0], k[1], loc=e.loc)),
    Image: Shape(lambda e: (e.template, *(a for m in e.buffer for a in m.args)), _rebuild_image, 0),
    TypeAbs: Shape(lambda e: (e.body,), lambda e, k: TypeAbs(e.var, e.bound, k[0], loc=e.loc), 0),
    TypeApp: Shape(lambda e: (e.expr,), lambda e, k: TypeApp(k[0], e.arg, loc=e.loc)),
    BaseOp: Shape(lambda e: e.operands, lambda e, k: BaseOp(e.op, tuple(k), loc=e.loc)),
    If: Shape(lambda e: (e.cond, e.then, e.orelse), lambda e, k: If(k[0], k[1], k[2], loc=e.loc), 1),
    TupleV: Shape(lambda e: e.items, lambda e, k: TupleV(tuple(k), loc=e.loc)),
    ListV: Shape(lambda e: e.items, lambda e, k: ListV(tuple(k), loc=e.loc)),
    MapV: Shape(
        lambda e: tuple(x for kv in e.entries for x in kv),
        lambda e, k: MapV(tuple(zip(k[::2], k[1::2])), loc=e.loc),
    ),
}


def shape_of(e: Expr) -> Shape:
    """The table entry of e's class; terms outside the core (surface sugar)
    count as leaves."""
    return SHAPES.get(type(e), _LEAF)


def children(e: Expr) -> tuple[Expr, ...]:
    """The immediate subterms of e, left to right."""
    return shape_of(e).children(e)


def with_children(e: Expr, kids: Sequence[Expr]) -> Expr:
    """e rebuilt from new immediate subterms, given in the order of `children`."""
    return shape_of(e).rebuild(e, kids)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def is_value(e: Expr) -> bool:
    cached = getattr(e, "_vcache", None)
    if cached is not None:
        return cached
    v: bool
    if isinstance(e, (ServerTemplate, Addr, ZeroImage, TypeAbs, BaseLit, ExternalRef)):
        v = True
    elif isinstance(e, ServiceRef):
        v = isinstance(e.target, (Addr, ExternalRef))
    elif isinstance(e, Par):
        v = len(e.exprs) == 0
    elif isinstance(e, Image):
        v = isinstance(e.template, ServerTemplate) and all(is_value(a) for a in children(e)[1:])
    elif isinstance(e, (TupleV, ListV, MapV)):
        v = all(is_value(x) for x in children(e))
    else:
        v = False
    object.__setattr__(e, "_vcache", v)
    return v


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

_NO_NAMES: frozenset[str] = frozenset()


def free_vars(e: Expr) -> frozenset[str]:
    """Free term variables of e; the self-reference appears as "this"."""
    fv = getattr(e, "_fvcache", None)
    if fv is not None:
        return fv
    if isinstance(e, Var):
        fv = frozenset((e.name,))
    elif isinstance(e, This):
        fv = frozenset((THIS,))
    elif isinstance(e, ServerTemplate):
        out: set[str] = set()
        for r in e.rules:
            body = free_vars(r.body) - set(r.bound_names)
            if not e.transparent_this:
                body = body - {THIS}
            out |= body
        fv = frozenset(out)
    else:
        fv = _NO_NAMES
        for c in children(e):
            cv = free_vars(c)
            if cv:
                fv = fv | cv if fv else cv
    object.__setattr__(e, "_fvcache", fv)
    return fv


def free_type_vars(t: TypeExpr) -> frozenset[str]:
    if isinstance(t, TypeVar):
        return frozenset((t.name,))
    if isinstance(t, SvcT):
        return frozenset().union(*(free_type_vars(a) for a in t.args)) if t.args else frozenset()
    if isinstance(t, SrvT):
        return frozenset().union(*(free_type_vars(s) for _, s in t.services)) if t.services else frozenset()
    if isinstance(t, (InstT, ImgT)):
        return free_type_vars(t.inner)
    if isinstance(t, Univ):
        return free_type_vars(t.bound) | (free_type_vars(t.body) - {t.var})
    if isinstance(t, (DataT, AliasT)):
        return frozenset().union(*(free_type_vars(a) for a in t.args)) if t.args else frozenset()
    return frozenset()


def expr_type_vars(e: Expr) -> frozenset[str]:
    """Type variables occurring free in annotations and type subterms of e."""
    tv = getattr(e, "_tvcache", None)
    if tv is not None:
        return tv
    if isinstance(e, ServerTemplate):
        out: set[str] = set()
        for r in e.rules:
            for p in r.patterns:
                for _, t in p.params:
                    out |= free_type_vars(t)
            out |= expr_type_vars(r.body)
        tv = frozenset(out)
    elif isinstance(e, TypeAbs):
        tv = free_type_vars(e.bound) | (expr_type_vars(e.body) - {e.var})
    elif isinstance(e, TypeApp):
        tv = free_type_vars(e.arg) | expr_type_vars(e.expr)
    else:
        tv = _NO_NAMES
        for c in children(e):
            cv = expr_type_vars(c)
            if cv:
                tv = tv | cv if tv else cv
    object.__setattr__(e, "_tvcache", tv)
    return tv


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """The first `stem%N` not occurring in `avoid`; deterministic, and uses %
    which the lexer accepts in identifiers but users never need to write."""
    stem = base.split("%", 1)[0] or "x"
    i = 1
    while f"{stem}%{i}" in avoid:
        i += 1
    return f"{stem}%{i}"


Substitution = Mapping[str, Expr]


def substitute(e: Expr, subst: Substitution) -> Expr:
    """Capture-avoiding simultaneous substitution of values for variables.

    `this` may be included under the key "this"; it is not substituted under
    server templates unless they are transparent derived forms.
    """
    if not subst:
        return e
    return _subst(e, dict(subst))


def _subst(e: Expr, s: dict[str, Expr]) -> Expr:
    # Identity-preserving: untouched subtrees are shared, which keeps the
    # per-node free-variable caches alive across firings.
    fv = free_vars(e)
    if not any(k in fv for k in s):
        return e
    if isinstance(e, Var):
        return s.get(e.name, e)
    if isinstance(e, This):
        return s.get(THIS, e)
    if isinstance(e, ServerTemplate):
        return _subst_template(e, s)
    shape = shape_of(e)
    kids = []
    for c in shape.children(e):
        kids.append(_subst(c, s))
    return shape.rebuild(e, kids)


def _subst_template(t: ServerTemplate, s: dict[str, Expr]) -> ServerTemplate:
    new_rules = []
    for rule in t.rules:
        bound = set(rule.bound_names)
        local = {k: v for k, v in s.items() if k not in bound}
        if not t.transparent_this:
            local.pop(THIS, None)
        if not local:
            new_rules.append(rule)
            continue
        # Rename any rule parameter that would capture a free variable of the
        # replacement values.
        range_free: set[str] = set()
        for v in local.values():
            range_free |= free_vars(v)
        clashes = bound & range_free
        patterns = rule.patterns
        body = rule.body
        if clashes:
            avoid = frozenset(
                range_free | bound | free_vars(body) | set(local.keys())
            )
            renaming: dict[str, Expr] = {}
            fresh_by_old: dict[str, str] = {}
            for old in sorted(clashes):
                nn = fresh_name(old, avoid | set(fresh_by_old.values()))
                fresh_by_old[old] = nn
                renaming[old] = Var(nn)
            patterns = tuple(
                JoinPattern(
                    p.service,
                    tuple((fresh_by_old.get(n, n), ty) for n, ty in p.params),
                )
                for p in patterns
            )
            body = _subst(body, renaming)
        new_rules.append(ReactionRule(patterns, _subst(body, local)))
    return ServerTemplate(tuple(new_rules), t.transparent_this, loc=t.loc)


# Type substitution ----------------------------------------------------------


def substitute_type_in_type(t: TypeExpr, subst: Mapping[str, TypeExpr]) -> TypeExpr:
    if not subst:
        return t
    if isinstance(t, TypeVar):
        return subst.get(t.name, t)
    if isinstance(t, SvcT):
        return SvcT(tuple(substitute_type_in_type(a, subst) for a in t.args))
    if isinstance(t, SrvT):
        return SrvT(
            tuple((n, substitute_type_in_type(s, subst)) for n, s in t.services)  # type: ignore[arg-type]
        )
    if isinstance(t, InstT):
        return InstT(substitute_type_in_type(t.inner, subst))
    if isinstance(t, ImgT):
        return ImgT(substitute_type_in_type(t.inner, subst))
    if isinstance(t, Univ):
        inner = {k: v for k, v in subst.items() if k != t.var}
        bound = substitute_type_in_type(t.bound, subst)
        if not inner:
            return Univ(t.var, bound, t.body)
        captured = frozenset().union(*(free_type_vars(v) for v in inner.values()))
        var, body = t.var, t.body
        if var in captured:
            nn = fresh_name(var, captured | free_type_vars(body) | set(inner))
            body = substitute_type_in_type(body, {var: TypeVar(nn)})
            var = nn
        return Univ(var, bound, substitute_type_in_type(body, inner))
    if isinstance(t, DataT):
        return DataT(t.ctor, tuple(substitute_type_in_type(a, subst) for a in t.args))
    if isinstance(t, AliasT):
        return AliasT(t.name, tuple(substitute_type_in_type(a, subst) for a in t.args))
    return t


def substitute_type_in_expr(e: Expr, subst: Mapping[str, TypeExpr]) -> Expr:
    if not subst:
        return e
    tv = expr_type_vars(e)
    if not any(k in tv for k in subst):
        return e
    if isinstance(e, ServerTemplate):
        rules = tuple(
            ReactionRule(
                tuple(
                    JoinPattern(
                        p.service,
                        tuple((n, substitute_type_in_type(t, subst)) for n, t in p.params),
                    )
                    for p in r.patterns
                ),
                substitute_type_in_expr(r.body, subst),
            )
            for r in e.rules
        )
        return ServerTemplate(rules, e.transparent_this, loc=e.loc)
    if isinstance(e, TypeAbs):
        inner = {k: v for k, v in subst.items() if k != e.var}
        bound = substitute_type_in_type(e.bound, subst)
        if not inner:
            return TypeAbs(e.var, bound, e.body, loc=e.loc)
        captured = frozenset().union(*(free_type_vars(v) for v in inner.values()))
        var, body = e.var, e.body
        if var in captured:
            nn = fresh_name(var, captured | expr_type_vars(body) | set(inner))
            body = substitute_type_in_expr(body, {var: TypeVar(nn)})
            var = nn
        return TypeAbs(var, bound, substitute_type_in_expr(body, inner), loc=e.loc)
    if isinstance(e, TypeApp):
        return TypeApp(
            substitute_type_in_expr(e.expr, subst),
            substitute_type_in_type(e.arg, subst),
            loc=e.loc,
        )
    shape = shape_of(e)
    kids = []
    for c in shape.children(e):
        kids.append(substitute_type_in_expr(c, subst))
    return shape.rebuild(e, kids)


def substitute_type(target: Union[Expr, TypeExpr], var: str, t: TypeExpr) -> Union[Expr, TypeExpr]:
    """Capture-avoiding substitution of a type variable in a term or a type."""
    if isinstance(target, TypeExpr):
        return substitute_type_in_type(target, {var: t})
    return substitute_type_in_expr(target, {var: t})


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------


def alpha_eq(a: Expr, b: Expr, env: tuple[tuple[str, str], ...] = ()) -> bool:
    """Structural equality modulo bound names (rule parameters and type binders).

    A node with subterms is rebuilt around b's subterms, so `==` compares only
    its other fields (`loc` takes no part), and the subterms pairwise."""
    if isinstance(a, Var) and isinstance(b, Var):
        for x, y in reversed(env):
            if a.name == x or b.name == y:
                return a.name == x and b.name == y
        return a.name == b.name
    if type(a) is not type(b):
        return False
    if isinstance(a, ServerTemplate):
        assert isinstance(b, ServerTemplate)
        if a.transparent_this != b.transparent_this or len(a.rules) != len(b.rules):
            return False
        for ra, rb in zip(a.rules, b.rules):
            services = [(p.service, tuple(t for _, t in p.params)) for p in ra.patterns]
            if services != [(p.service, tuple(t for _, t in p.params)) for p in rb.patterns]:
                return False
            if not alpha_eq(ra.body, rb.body, env + tuple(zip(ra.bound_names, rb.bound_names))):
                return False
        return True
    if isinstance(a, TypeAbs):
        assert isinstance(b, TypeAbs)
        if a.bound != b.bound:
            return False
        if a.var == b.var:
            return alpha_eq(a.body, b.body, env)
        f = TypeVar(fresh_name(a.var, expr_type_vars(a.body) | expr_type_vars(b.body)))
        return alpha_eq(
            substitute_type_in_expr(a.body, {a.var: f}), substitute_type_in_expr(b.body, {b.var: f}), env
        )
    if isinstance(a, BaseLit):
        return type(a.value) is type(b.value) and a == b  # 1 == True in Python
    shape = shape_of(a)
    ka, kb = shape.children(a), shape.children(b)
    return (
        len(ka) == len(kb)
        and shape.rebuild(a, kb) == b
        and all(alpha_eq(x, y, env) for x, y in zip(ka, kb))
    )
