"""Core term and type language: expressions, types, routing tables, substitution.

Everything here is immutable; values can be shared freely across threads.

Node classes are `@frozen` (`cpl.frozen`): frozen dataclasses whose
methods are renamed copies of templates compiled once per field count,
because compiling generated source for each class, as `dataclasses` does,
was a third of importing the toolchain. The derived data any layer keeps
on a node is declared here, as a `None` class attribute commented with the
function that keeps it, and kept as `cpl.frozen` says.
"""

from __future__ import annotations

from dataclasses import field
from enum import Enum
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import LinearityError, Loc
from .frozen import frozen, store

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
    _tvcache = None  # free_type_vars
    _excache = None  # desugar.Desugarer._expand
    _ptcache = None  # pretty.pretty_type


@frozen
class Top(TypeExpr):
    pass


@frozen
class UnitT(TypeExpr):
    pass


@frozen
class Bot(TypeExpr):
    """Internal least type; the minimal type of empty collection literals."""


@frozen
class BaseT(TypeExpr):
    """Primitive data type: Int, Bool, Float or String."""

    name: str


@frozen
class TypeVar(TypeExpr):
    name: str


@frozen
class SvcT(TypeExpr):
    """Service type <T1, ..., Tn>."""

    args: tuple[TypeExpr, ...]


@frozen
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
        store(self, "services", entries)

    def get(self, name: str) -> Optional[SvcT]:
        for n, t in self.services:
            if n == name:
                return t
        return None


@frozen
class SrvBot(TypeExpr):
    """The template type of inert servers; subtype of every server type."""


@frozen
class InstT(TypeExpr):
    inner: TypeExpr


@frozen
class ImgT(TypeExpr):
    inner: TypeExpr


@frozen
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


@frozen
class DataT(TypeExpr):
    """Built-in data constructor: List[T], Tuple[T...], Map[K, V]."""

    ctor: str
    args: tuple[TypeExpr, ...]


@frozen
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
    # Whether the term is a value: a flag of its class, or None until
    # `is_value` computes it for the instance.
    _vcache = None
    _fvcache = None  # free_vars
    _tvcache = None  # expr_type_vars
    _scache = None  # machine._scan, on a soup component
    _pcache = None  # pretty._cached_text, on a template or soup component
    _tycache = None  # typecheck.keep_type, on a def's lowered right-hand side
    _instcache = None  # machine.instantiate, on a type abstraction
    _iccache = None  # runtime._compile, on a type abstraction: the instantiated body compiled
    _nmcache = None  # desugar.desugar_program, on a def's right-hand side


def _loc_field() -> Loc | None:
    return field(default=None, compare=False, repr=False)  # type: ignore[return-value]


@frozen
class Var(Expr):
    name: str
    loc: Loc | None = _loc_field()


@frozen
class This(Expr):
    loc: Loc | None = _loc_field()


@frozen
class JoinPattern:
    service: str
    params: tuple[tuple[str, TypeExpr], ...]

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.params)


@frozen
class ReactionRule:
    patterns: tuple[JoinPattern, ...]
    body: Expr
    _ccache = None  # runtime.Runtime._pump: the body compiled

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


@frozen
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


@frozen
class Closure(Expr):
    """A server template substituted into without entering its rules: its
    code, the template as written and shared by every copy, and `env`, the
    closed values substituted for some of the code's free names (`close`).

    It stands for the template `force` builds, which eager substitution
    would have built: `==`, `hash`, `rules` and every reader that needs the
    closed term go through it, and `eager_repr` shows it where a repr is
    seen. Matching reads the code's patterns, which substitution of closed
    values leaves as they are. `env` is never mutated."""

    code: ServerTemplate
    env: dict[str, Expr]
    _fcache = None  # force: the template
    _bcache = None  # close: the forced closure this one extends and the names added, until forced
    _rcache = None  # fire_rule: per rule, True once fired, then its body under env

    @property
    def rules(self) -> tuple[ReactionRule, ...]:
        return force(self).rules

    @property
    def loc(self) -> Loc | None:
        return self.code.loc

    def service_names(self) -> tuple[str, ...]:
        return self.code.service_names()

    def __eq__(self, other: object) -> bool:
        if type(other) is Closure:
            other = force(other)
        return force(self) == other if type(other) is ServerTemplate else NotImplemented

    def __hash__(self) -> int:
        return hash(force(self))


@frozen
class Spwn(Expr):
    expr: Expr
    placement: Placement = Placement.REMOTE
    loc: Loc | None = _loc_field()


@frozen
class ServiceRef(Expr):
    target: Expr
    service: str
    loc: Loc | None = _loc_field()


@frozen
class Request(Expr):
    callee: Expr
    args: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@frozen
class Par(Expr):
    exprs: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@frozen
class Snap(Expr):
    expr: Expr
    loc: Loc | None = _loc_field()


@frozen
class Repl(Expr):
    target: Expr
    image: Expr
    loc: Loc | None = _loc_field()


@frozen
class Address:
    id: int
    placement: Placement = Placement.REMOTE

    def __hash__(self) -> int:
        # Equal addresses have equal ids, so the id alone is a valid hash; it
        # spares every table lookup a tuple and an Enum hash in Python.
        return hash(self.id)


@frozen
class Addr(Expr):
    address: Address
    loc: Loc | None = _loc_field()


@frozen
class MessageValue:
    service: str
    args: tuple[Expr, ...]


@frozen
class Image(Expr):
    """Server image expression (template, buffer); a value once closed."""

    template: Expr
    buffer: tuple[MessageValue, ...]
    loc: Loc | None = _loc_field()


@frozen
class ZeroImage(Expr):
    loc: Loc | None = _loc_field()


@frozen
class TypeAbs(Expr):
    var: str
    bound: TypeExpr
    body: Expr
    loc: Loc | None = _loc_field()


@frozen
class TypeApp(Expr):
    expr: Expr
    arg: TypeExpr
    loc: Loc | None = _loc_field()


@frozen
class BaseOp(Expr):
    op: str
    operands: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@frozen
class BaseLit(Expr):
    value: Union[int, bool, float, str]
    loc: Loc | None = _loc_field()


@frozen
class If(Expr):
    """Built-in conditional; branches are not evaluation contexts."""

    cond: Expr
    then: Expr
    orelse: Expr
    loc: Loc | None = _loc_field()


@frozen
class TupleV(Expr):
    items: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@frozen
class ListV(Expr):
    items: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@frozen
class MapV(Expr):
    """Map value; entries kept sorted by key digest for canonical equality."""

    entries: tuple[tuple[Expr, Expr], ...]
    loc: Loc | None = _loc_field()

    def __post_init__(self) -> None:
        store(self, "entries", tuple(sorted(self.entries, key=lambda kv: eager_repr(kv[0]))))


@frozen
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


@frozen
class Inert(ServerImage):
    pass


Bindings = tuple[tuple[str, Expr], ...]
# A mailbox's queue of one (service, arity): its (arrival number, message)
# pairs are `items[start:end]`.
Queue = tuple[list[tuple[int, MessageValue]], int, int]
Queues = dict[tuple[str, int], Queue]


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

    A mailbox never changes; each operation returns a new one that shares
    the untouched queues. A queue is a view `(items, start, end)` of a list
    that later mailboxes may share (a persistent queue, as in Okasaki,
    *Purely Functional Data Structures*, 1998). `received` appends to the
    list in place when the view ends it, and copies the view first when a
    newer mailbox has appended past it; `take` advances `start`, and copies
    the rest into a new list once more than half of the list is consumed.
    No element of a list is ever overwritten, so every older mailbox keeps
    its messages, and `received` and `take` are O(1) amortised. Mailboxes
    that share a list need one lock for their `received` calls: the
    runtime holds the instance's lock.
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
        box = Mailbox({k: (q, 0, len(q)) for k, q in queues.items()}, len(messages))
        box._ordered = messages
        return box

    def received(self, msg: MessageValue) -> "Mailbox":
        """This mailbox with msg arrived last."""
        key = (msg.service, len(msg.args))
        items, start, end = self._queues.get(key) or ([], 0, 0)
        if end != len(items):
            items, start, end = items[start:end], 0, end - start
        items.append((self._arrivals, msg))
        queues = self._queues.copy()
        queues[key] = (items, start, end + 1)
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
            _, start, end = queues.get(key, _NO_QUEUE)
            if end - start < n:
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
            items, start, end = queues.get(key, _NO_QUEUE)
            if start + i == end:
                return None
            consumed.append(items[start + i][1])
            used[key] = i + 1
        bindings = tuple(b for p, m in zip(patterns, consumed) for b in bind(p, m))
        names = [n for n, _ in bindings]
        assert len(set(names)) == len(names), "pattern linearity violated"
        rest = queues.copy()
        for key, n in used.items():
            items, start, end = queues[key]
            start += n
            if start == end:
                del rest[key]
            elif 2 * start > len(items):
                rest[key] = (items[start:end], 0, end - start)
            else:
                rest[key] = (items, start, end)
        return tuple(consumed), bindings, Mailbox(rest, self._arrivals) if rest else EMPTY_MAILBOX

    def ordered(self) -> tuple[MessageValue, ...]:
        """The messages in arrival order."""
        if self._ordered is None:
            views = (items[start:end] for items, start, end in self._queues.values())
            self._ordered = tuple(m for _, m in sorted(chain.from_iterable(views)))
        return self._ordered

    def __len__(self) -> int:
        return sum(end - start for _, start, end in self._queues.values())


_NO_QUEUE: Queue = ([], 0, 0)
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


RoutingTable = dict[Address, ServerImage]


def image_of(entry: ServerImage) -> Expr:
    """The image value a Snap of this table entry yields."""
    if isinstance(entry, Inert):
        return ZeroImage()
    assert isinstance(entry, Live)
    return Image(entry.template, entry.buffer)


# ---------------------------------------------------------------------------
# Subterms and subtypes
# ---------------------------------------------------------------------------


class Shape(NamedTuple):
    """How the nodes of one term class hold their immediate subterms, or the
    nodes of one type class their immediate subtypes.

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
    Closure: _LEAF,
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


# The type classes with subtypes; the others are leaves. A `Univ`'s body sits
# under its binder, so the walks that track binders treat `Univ` explicitly.
TYPE_SHAPES: dict[type, Shape] = {
    SvcT: Shape(lambda t: t.args, lambda t, k: SvcT(tuple(k))),
    SrvT: Shape(
        lambda t: tuple(s for _, s in t.services),
        lambda t, k: SrvT(tuple((n, s) for (n, _), s in zip(t.services, k))),
    ),
    InstT: Shape(lambda t: (t.inner,), lambda t, k: InstT(k[0])),
    ImgT: Shape(lambda t: (t.inner,), lambda t, k: ImgT(k[0])),
    Univ: Shape(lambda t: (t.bound, t.body), lambda t, k: Univ(t.var, k[0], k[1])),
    DataT: Shape(lambda t: t.args, lambda t, k: DataT(t.ctor, tuple(k))),
    AliasT: Shape(lambda t: t.args, lambda t, k: AliasT(t.name, tuple(k))),
}


def map_type(t: TypeExpr, f: Callable[..., TypeExpr], *args: Any) -> TypeExpr:
    """t with `f(u, *args)` in place of each immediate subtype u; t itself
    when no subtype changed."""
    shape = TYPE_SHAPES.get(type(t))
    if shape is None:
        return t
    kids = shape.children(t)
    new = [f(k, *args) for k in kids]
    for k, n in zip(kids, new):
        if k is not n:
            return shape.rebuild(t, new)
    return t


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


# The classes whose values are all of their instances or none of them carry
# that as the class attribute `_vcache`; the others decide per instance by
# their rule here, and `is_value` caches the answer on the node. A class of
# neither kind (surface sugar) is not a value.
for _cls in (Var, This, Spwn, Request, Snap, Repl, TypeApp, BaseOp, If):
    _cls._vcache = False
for _cls in (ServerTemplate, Closure, Addr, ZeroImage, TypeAbs, BaseLit, ExternalRef):
    _cls._vcache = True

VALUE_RULES: dict[type, Callable[[Any], bool]] = {
    ServiceRef: lambda e: isinstance(e.target, (Addr, ExternalRef)),
    Par: lambda e: not e.exprs,
    Image: lambda e: isinstance(e.template, (ServerTemplate, Closure))
    and all(is_value(a) for m in e.buffer for a in m.args),
    TupleV: lambda e: all(map(is_value, e.items)),
    ListV: lambda e: all(map(is_value, e.items)),
    MapV: lambda e: all(is_value(x) for kv in e.entries for x in kv),
}


def is_value(e: Expr) -> bool:
    v = e._vcache
    if v is None:
        rule = VALUE_RULES.get(type(e))
        v = rule is not None and rule(e)
        store(e, "_vcache", v)
    return v


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

_NO_NAMES: frozenset[str] = frozenset()

# Each binder's subterms with the names it binds over them: a template binds
# its rules' parameters, and `this` unless it is transparent; a closure binds
# its environment's names over its code; `parser` adds the derived forms.
# Every other class binds nothing over its `children`. This is the one
# statement of the binder rule: free variables, substitution, forcing,
# firing a closure and `alpha_eq` read it.
SCOPES: dict[type, Callable[[Any], tuple[tuple[Expr, tuple[str, ...]], ...]]] = {
    ServerTemplate: lambda e: tuple(
        (r.body, r.bound_names if e.transparent_this else r.bound_names + (THIS,)) for r in e.rules
    ),
    Closure: lambda e: ((e.code, tuple(e.env)),),
}


def free_vars(e: Expr) -> frozenset[str]:
    """Free term variables of e, derived forms too; the self-reference appears as "this"."""
    fv = e._fvcache
    if fv is not None:
        return fv
    if isinstance(e, Var):
        fv = frozenset((e.name,))
    elif isinstance(e, This):
        fv = frozenset((THIS,))
    else:
        fv = _NO_NAMES
        scopes = SCOPES.get(type(e))
        for c, bound in scopes(e) if scopes else zip(children(e), repeat(())):
            cv = free_vars(c)
            if not cv.isdisjoint(bound):
                cv = cv.difference(bound)
            if cv:
                fv = fv | cv if fv else cv
    store(e, "_fvcache", fv)
    return fv


def free_type_vars(t: TypeExpr) -> frozenset[str]:
    """Type variables occurring free in t; cached on the node."""
    tv = t._tvcache
    if tv is not None:
        return tv
    if isinstance(t, TypeVar):
        tv = frozenset((t.name,))
    elif isinstance(t, Univ):
        tv = free_type_vars(t.bound) | (free_type_vars(t.body) - {t.var})
    else:
        tv = _NO_NAMES
        shape = TYPE_SHAPES.get(type(t))
        for c in shape.children(t) if shape else ():
            cv = free_type_vars(c)
            if cv:
                tv = tv | cv if tv else cv
    store(t, "_tvcache", tv)
    return tv


def expr_type_vars(e: Expr) -> frozenset[str]:
    """Type variables occurring free in annotations and type subterms of e."""
    tv = e._tvcache
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
    elif type(e) is Closure:
        # Each value of the environment occurs in the forced template.
        tv = expr_type_vars(e.code).union(*map(expr_type_vars, e.env.values()))
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
    store(e, "_tvcache", tv)
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

# Substitution stops at server templates. Where it reaches a template, or a
# closure, with free names it replaces by closed values, it builds a
# `Closure`: the code as written and the values of those names, in
# O(free names), without entering the rules (an environment machine's flat
# closure: Cardelli, LFP 1984; Biernacka & Danvy, ACM TOCL 9(1), 2007). A
# closure reached again extends its environment. The terms it stands for are
# built only where they are read:
# - `fire_rule` substitutes the fired rule's body alone, under the
#   environment, then `this`, then the bindings;
# - `force` builds the whole template that eager substitution would have
#   built, memoised on the closure, for the readers that need the closed
#   term (the printer, `canonical`, `alpha_eq`, `==`, `hash`, `eager_repr`
#   and the checker); type substitution maps the code and forces nothing.
# Values with free variables are substituted eagerly, with the
# capture-avoiding renaming of rule parameters (`_subst_template`).


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
    if free_vars(e).isdisjoint(s):
        return e
    cls = type(e)
    if cls is Var:
        return s.get(e.name, e)
    if cls is This:
        return s.get(THIS, e)
    if cls is ServerTemplate or cls is Closure:
        if all(not free_vars(s[n]) for n in free_vars(e) if n in s):
            return close(e, s)
        return _subst_template(force(e) if cls is Closure else e, s)
    shape = SHAPES.get(cls, _LEAF)
    return shape.rebuild(e, [_subst(c, s) for c in shape.children(e)])


def close(t: Union[ServerTemplate, Closure], s: Mapping[str, Expr]) -> Closure:
    """The closure of t under the closed values s gives its free names.

    The environment keeps only those names, in name order. A closure that
    extends a forced one remembers it, so that `force` starts from it and
    shares the subterms the new names leave alone, as eager substitution
    would."""
    names = sorted(n for n in free_vars(t) if n in s)
    if type(t) is not Closure:
        return Closure(t, {n: s[n] for n in names})
    added = {n: s[n] for n in names}
    c = Closure(t.code, {**t.env, **added})
    if t._fcache is not None or t._bcache is not None:
        store(c, "_bcache", (t, added))
    return c


def force(e: Expr) -> Expr:
    """The template a closure stands for, as eager substitution of its
    environment builds it; any other term as it is. Memoised on the
    closure, and built from the closure it extends when there is one, which
    is then let go."""
    if type(e) is not Closure:
        return e
    t = e._fcache
    if t is None:
        link = e._bcache
        if link is None:
            t = _subst_template(e.code, e.env)
        else:
            t = _subst_template(force(link[0]), link[1])
            store(e, "_bcache", None)
        store(e, "_fcache", t)
        store(e, "_rcache", None)
    return t


def fire_rule(c: Closure, i: int, bindings: Bindings, this: Expr) -> Expr:
    """Rule React's instance of rule i of c: its body under the
    environment, then `this`, then the bindings, as firing rule i of the
    forced template would give.

    A forced closure fires from the forced body. Otherwise a rule's first
    firing substitutes its body from the code in one walk, so a one-shot
    `let` wrapper pays for nothing else. From its second firing on, and from
    its first if its body reads neither a parameter nor `this`, the rule
    fires from its body under the environment, built once per closure, so a
    hot server pays for its environment once."""
    forced = c._fcache
    if forced is not None:
        body = forced.rules[i].body
    else:
        done = c._rcache or (None,) * len(c.code.rules)
        body = done[i]
        if body is None or body is True:
            written, bound = SCOPES[ServerTemplate](c.code)[i]
            if body is None and not free_vars(written).isdisjoint(bound):
                store(c, "_rcache", done[:i] + (True,) + done[i + 1 :])
                s = dict(c.env)
                s.setdefault(THIS, this)
                s.update(bindings)
                return _subst(written, s)
            body = _subst(written, {n: v for n, v in c.env.items() if n not in bound})
            store(c, "_rcache", done[:i] + (body,) + done[i + 1 :])
    s = dict(bindings)
    s[THIS] = this
    return _subst(body, s)


def eager_repr(e: Expr) -> str:
    """The repr of e as eager substitution would have built it, which map
    keys sort by and faults show: a closure at any depth shows as the
    template it stands for."""
    text = repr(e)
    return text if "Closure(" not in text else repr(_eager(e))


def _eager(e: Expr) -> Expr:
    e = force(e)
    if type(e) is ServerTemplate:
        rules = tuple(ReactionRule(r.patterns, _eager(r.body)) for r in e.rules)
        return ServerTemplate(rules, e.transparent_this, loc=e.loc)
    return with_children(e, [_eager(c) for c in children(e)])


def _subst_template(t: ServerTemplate, s: dict[str, Expr]) -> ServerTemplate:
    """Eager substitution into every rule of t, renaming any parameter that
    would capture a free variable of the values."""
    new_rules = []
    for rule, (body, bound) in zip(t.rules, SCOPES[ServerTemplate](t)):
        local = {k: v for k, v in s.items() if k not in bound}
        if not local:
            new_rules.append(rule)
            continue
        range_free: set[str] = set()
        for v in local.values():
            range_free |= free_vars(v)
        clashes = range_free.intersection(rule.bound_names)
        patterns = rule.patterns
        if clashes:
            avoid = frozenset(range_free | set(bound) | free_vars(body) | set(local.keys()))
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


# The engine endpoints and their types: the observer sinks a program sends
# its observations to, and `timer`, which delivers its continuation after a
# delay in ms.
ENDPOINTS: dict[str, TypeExpr] = {
    "result": SvcT((TOP,)),
    "event": SvcT((TOP,)),
    "print": SvcT((TOP,)),
    "timer": SvcT((INT, SvcT(()))),
}


def wire_observers(core: Expr) -> Expr:
    """Close a program over the engine endpoints: its free endpoint names
    become external references."""
    names = {n: ExternalRef(n) for n in free_vars(core) if n in ENDPOINTS}
    return substitute(core, names) if names else core


# Type substitution ----------------------------------------------------------


def substitute_type_in_type(t: TypeExpr, subst: Mapping[str, TypeExpr]) -> TypeExpr:
    if not subst:
        return t
    if isinstance(t, TypeVar):
        return subst.get(t.name, t)
    if isinstance(t, Univ):
        var, body = _under_binder(t.var, t.body, subst, substitute_type_in_type, free_type_vars)
        return Univ(var, substitute_type_in_type(t.bound, subst), body)
    return map_type(t, substitute_type_in_type, subst)


def _under_binder(
    var: str, body: Any, subst: Mapping[str, TypeExpr], walk: Callable, type_vars: Callable
) -> tuple[str, Any]:
    """The binder and body of a type binder (`Univ` or `TypeAbs`) after a
    capture-avoiding substitution: `walk` substitutes in the body and
    `type_vars` gives its free type variables. The binder shadows its own
    name, and is renamed when a replacement mentions it free."""
    inner = {k: v for k, v in subst.items() if k != var}
    if inner:
        captured = frozenset().union(*(free_type_vars(v) for v in inner.values()))
        if var in captured:
            nn = fresh_name(var, captured | type_vars(body) | set(inner))
            body = walk(body, {var: TypeVar(nn)})
            var = nn
        body = walk(body, inner)
    return var, body


def substitute_type_in_expr(e: Expr, subst: Mapping[str, TypeExpr]) -> Expr:
    if not subst:
        return e
    tv = expr_type_vars(e)
    if not any(k in tv for k in subst):
        return e
    if type(e) is Closure:
        # Into a closure whose values mention no type variable, substituting
        # into the code commutes with forcing, so it forces nothing.
        if any(map(expr_type_vars, e.env.values())):
            return substitute_type_in_expr(force(e), subst)
        return Closure(substitute_type_in_expr(e.code, subst), e.env)
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
        var, body = _under_binder(e.var, e.body, subst, substitute_type_in_expr, expr_type_vars)
        return TypeAbs(var, substitute_type_in_type(e.bound, subst), body, loc=e.loc)
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
    its other fields (`loc` takes no part), and the subterms pairwise.
    Closures compare as the templates they stand for."""
    a, b = force(a), force(b)
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
        scopes = SCOPES[ServerTemplate]
        for ra, rb, (ba, na), (bb, nb) in zip(a.rules, b.rules, scopes(a), scopes(b)):
            services = [(p.service, tuple(t for _, t in p.params)) for p in ra.patterns]
            if services != [(p.service, tuple(t for _, t in p.params)) for p in rb.patterns]:
                return False
            if not alpha_eq(ba, bb, env + tuple(zip(na, nb))):
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
