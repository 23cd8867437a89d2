"""Deterministic small-step machine for the seven reduction rules.

The term is a soup: a top-level parallel composition whose components are
the molecules of a reflexive chemical abstract machine. Each step takes the
redexes one pre-order walk over the evaluation positions would find
(congruence is implicit): the walk stops at the first nested parallel
composition and otherwise reports the first deliverable request and the
first contraction candidate (Spwn, Snap, Repl, type application, base
operation, if). Rules take priority in the order Par, Rcv, React,
contraction, and only the chosen redex is contracted.

That walk is not made over the whole term. Each top-level component caches
a summary of its own walk (`_scache`), with positions relative to itself:
its first Par redex, the sendable requests before it and its first
contraction candidate before it. Terms are immutable, so a summary holds
while its component stays in the soup. `step` reads the summaries in
component order and checks the requests against the routing table there, so
a Repl that makes an instance live or inert invalidates nothing.

What a step costs. Whether a term is a value is a flag of its class for 16
of the 22 term classes (`core.is_value`), so a node a step has just built
answers at once; only service references, parallel compositions, images,
tuples, lists and maps decide per instance, once, and cache the answer on
the node. A step then walks again only what it built: the summary of the
component it rewrote or appended, or of the components a Par step spliced
into the soup (one pass over the non-value evaluation positions, each
subterm's flag read once), and, for React, the rule body it substitutes
into, descending only where a node's cached free variables meet the
substitution, stopping at server templates, which it closes over the
values (`core.Closure`), and sharing every other subterm. A step that
writes no routing table entry (Par, Base, If, TAppAbs, Snap, and a request
to an engine endpoint) shares its parent's table and ready set; Rcv, React,
Spwn and Repl copy both before writing, so every earlier configuration,
which the bounded explorer keeps, stays as it was.

React does not scan the routing table. Every configuration carries a ready
set: the addresses whose entry is live and whose buffer matches at least one
rule of its template. A step re-matches only the entry it writes (a
delivered message, a React residual, a spawned or replaced image), so a join
is retried only when its buffer changes. The deterministic policy fixes all
three nondeterminism dimensions: the ready instance with the smallest id at
or after the round-robin cursor (else the smallest ready id), rules in
definition order, and the oldest matching message. The bounded explorer
enumerates applications of `step`'s own rule functions: every deliverable
request, every instance, rule and complete match, and every Spwn, Snap and
Repl position.

Matching does not scan a buffer either. A live entry keeps its messages in a
`Mailbox`: one FIFO queue per (service, arity), each message tagged with its
arrival number. A readiness check compares queue lengths with the patterns'
demand, and a React takes the queue heads, so both read O(patterns) messages
whatever the depth. `Live.buffer` is the arrival-ordered view, which
snapshots, traces, digests and the typechecker see as before.

The threaded runtime runs the same rules on another scheduler. It shares
this module's side conditions (`spawnable`, `address_of`, `timer_due`,
`instantiate`, `branch`), its table entries (`Live`, `Inert`) and its
idle-timer rule (`TimerRounds`), so an ill-formed redex raises the
same `StuckError` on both engines and both fire the same timer rounds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .builtins import EffectContext, apply_builtin
from .core import (
    Addr,
    Address,
    BaseLit,
    BaseOp,
    Bindings,
    Closure,
    Expr,
    ExternalRef,
    If,
    Image,
    Inert,
    ListV,
    Live,
    Mailbox,
    MapV,
    MessageValue,
    Par,
    Placement,
    Repl,
    Request,
    RoutingTable,
    ServerImage,
    ServerTemplate,
    ServiceRef,
    Snap,
    Spwn,
    THIS,
    TupleV,
    TypeAbs,
    TypeApp,
    TypeExpr,
    ZeroImage,
    bind,
    fire_rule,
    image_of,
    is_value,
    shape_of,
    substitute,
    substitute_type_in_expr,
)
from .errors import ExplosionError, StuckError
from .frozen import frozen, store
from .pretty import pretty_expr

Observation = tuple[int, str, tuple[Expr, ...]]

# `TimerRounds` stops a run after this many idle timer rounds in a row, which
# bounds re-arming loops (the recovery combinator re-arms its check forever).
MAX_IDLE_TIMER_ROUNDS = 6


class TimerRounds:
    """The idle-timer rule of both engines. Whenever nothing else can move
    but timers are armed, ask `fire`, with the count of observations and
    replacements so far, whether time jumps to the next deadline to deliver
    the timers due then. The stretch before each question (from the start,
    for the first) is idle if it added neither; a round fires unless the
    `MAX_IDLE_TIMER_ROUNDS` stretches that end at the previous question
    were all idle."""

    def __init__(self) -> None:
        self.idle, self.progress = 0, (0, 0)

    def fire(self, progress: tuple[int, int]) -> bool:
        if self.idle >= MAX_IDLE_TIMER_ROUNDS:
            return False
        self.idle = self.idle + 1 if progress == self.progress else 0
        self.progress = progress
        return True


@dataclass
class Config:
    """A machine state e | mu plus bookkeeping for builtins and plumbing.

    `expr` is the soup, a top-level parallel composition (`initial_config`
    wraps any other term). `ready` holds the addresses whose entry is live
    and whose buffer matches at least one rule of its template. It is
    derived from `table` when a config is built without it; after that,
    write entries through `put`. A step that writes no entry returns a
    config sharing its parent's table and ready set (`moved`), so write
    into a `copy`.
    """

    expr: Expr
    table: RoutingTable
    next_address: int
    logical_time: int = 0
    timers: tuple[tuple[int, Expr], ...] = ()
    observations: tuple[Observation, ...] = ()
    replaces: int = 0
    ready: set[Address] = field(default=None, compare=False, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.ready is None:
            self.ready = {a for a, entry in self.table.items() if _reacts(entry)}

    def copy(self) -> "Config":
        return Config(
            self.expr,
            dict(self.table),
            self.next_address,
            self.logical_time,
            self.timers,
            self.observations,
            self.replaces,
            set(self.ready),
        )

    def moved(self, expr: Expr) -> "Config":
        """This configuration with the term expr, sharing the table and the
        ready set, for a step that writes no entry. Steps write entries only
        into a `copy`, so every earlier configuration keeps its own."""
        return Config(
            expr,
            self.table,
            self.next_address,
            self.logical_time,
            self.timers,
            self.observations,
            self.replaces,
            self.ready,
        )

    def put(self, addr: Address, entry: ServerImage) -> None:
        """Write one table entry and update its membership of the ready set."""
        self.table[addr] = entry
        if _reacts(entry):
            self.ready.add(addr)
        else:
            self.ready.discard(addr)


def initial_config(expr: Expr) -> Config:
    top = expr if isinstance(expr, Par) else Par((expr,))
    return Config(top, {}, 0)


@dataclass
class Policy:
    """Resolves the three scheduling dimensions.

    Deterministic policies with equal seeds give identical traces; the seed
    only offsets the initial round-robin scan origin (buffers are totally
    ordered, so there are no equal-age message ties to break).
    """

    seed: int = 0
    cursor: int = field(default=0)

    def __post_init__(self) -> None:
        self.cursor = self.seed % 64


def deterministic(seed: int = 0) -> Policy:
    return Policy(seed)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


@frozen
class MatchResult:
    consumed: tuple[MessageValue, ...]
    residual: Union[Mailbox, tuple[MessageValue, ...]]  # a mailbox for a mailbox
    subst: Bindings

    def substitution(self) -> dict[str, Expr]:
        return dict(self.subst)


def match_patterns(
    patterns, buffer: Union[Mailbox, Sequence[MessageValue]], policy: Policy
) -> Optional[MatchResult]:
    """Match0/Match1: oldest matching message per pattern, left to right.

    Greedy selection is complete here: two patterns can compete only for
    messages of the same service and arity, which are interchangeable.
    `buffer` is a mailbox or a sequence in arrival order; the residual is a
    mailbox for a mailbox and a tuple otherwise.
    """
    box = buffer if isinstance(buffer, Mailbox) else Mailbox.of(buffer)
    taken = box.take(patterns)
    if taken is None:
        return None
    consumed, bindings, rest = taken
    return MatchResult(consumed, rest if box is buffer else rest.ordered(), bindings)


def enumerate_matches(patterns, buffer: tuple[MessageValue, ...]) -> list[MatchResult]:
    """All distinct complete matches, by brute force over ordered selections.

    Intended for oracle-sized inputs; buffers up to length 8 stay cheap, and
    the test suite exercises lengths up to 6.
    """
    out: list[MatchResult] = []
    seen: set[tuple] = set()

    def go(idx: int, taken: tuple[int, ...], bindings: tuple[tuple[str, Expr], ...]) -> None:
        if idx == len(patterns):
            consumed = tuple(buffer[i] for i in taken)
            residual = tuple(m for j, m in enumerate(buffer) if j not in taken)
            key = (consumed, residual, bindings)
            if key not in seen:
                seen.add(key)
                out.append(MatchResult(consumed, residual, bindings))
            return
        p = patterns[idx]
        for i, m in enumerate(buffer):
            if i in taken:
                continue
            if m.service == p.service and len(m.args) == len(p.params):
                go(idx + 1, taken + (i,), bindings + bind(p, m))

    go(0, (), ())
    return out


# ---------------------------------------------------------------------------
# Ready set
# ---------------------------------------------------------------------------

def _reacts(entry: ServerImage) -> bool:
    """Whether some rule of a live entry matches its buffer."""
    if isinstance(entry, Live):
        t = entry.template
        for rule in (t.code if type(t) is Closure else t).rules:
            if entry.mailbox.can_take(rule.patterns):
                return True
    return False


# ---------------------------------------------------------------------------
# Redex search
# ---------------------------------------------------------------------------

# A position is None for the root, else (parent, parent's subterms, index of
# this subterm among them, parent's position). A path is a position without
# the parents: None, else (parent's subterms, index, parent's path).
Position = Optional[tuple[Expr, tuple[Expr, ...], int, "Position"]]
Path = Optional[tuple[tuple[Expr, ...], int, "Path"]]
Site = tuple[Expr, Position]

# What one walk over a term finds, each with its path from the term: its
# first Par redex (the walk stops there), the sendable requests before it and
# its first contraction candidate before it. A site at the term itself is
# _HERE, and paths name no parent, so that the summary cached on a term holds
# no reference to it.
Found = tuple[Optional[Expr], Path]
Summary = tuple[Optional[Found], tuple[Found, ...], Optional[Found]]
_HERE: Found = (None, None)


def _deliverable(e: Request, table: RoutingTable) -> bool:
    """Whether a sendable request can be received now."""
    callee = e.callee
    return isinstance(callee, ExternalRef) or isinstance(table.get(callee.target.address), Live)


# The forms `step` contracts in place, and among them the administrative
# ones, which touch neither the routing table nor the scheduler.
_CONTRACTIBLE = frozenset((Spwn, Snap, Repl, TypeApp, BaseOp, If))
_ADMINISTRATIVE = frozenset((TypeApp, BaseOp, If))


def _candidates(root: Expr, forms: frozenset[type]) -> Iterator[Found]:
    """The non-value subterms of root in evaluation position that a rule may
    contract, in pre-order, each with its path from root: parallel
    compositions with a parallel component (Par), sendable requests (Rcv:
    value arguments to an engine endpoint or an address; deliverable when
    the callee is an endpoint or a live instance), and terms of a class in
    `forms` whose evaluation subterms are values (contracting one may still
    be stuck). One walk serves `_summary` and `_successors`, with no
    Python frame per nesting level."""
    if is_value(root):
        return
    todo: list[Found] = [(root, None)]
    while todo:
        site = todo.pop()
        x, path = site
        cls = type(x)
        shape = shape_of(x)
        kids = shape.children(x)
        # The evaluation subterms that are not values, by index: each
        # one's value flag is read here once, for the tests and the walk.
        rest = [i for i in range(len(kids) if shape.evals is None else shape.evals) if not is_value(kids[i])]
        if cls is Par:
            if Par in map(type, kids):
                yield site
        elif cls is Request:
            kind = type(x.callee)
            if not rest and (kind is ExternalRef or kind is ServiceRef and type(x.callee.target) is Addr):
                yield site
        elif not rest and cls in forms:
            yield site
        for i in reversed(rest):
            todo.append((kids[i], (kids, i, path)))


def _located(site: Found, root: Expr, at: Position) -> Site:
    """A subterm of root given by its path, as a site of the term in which
    root sits at position `at`; (None, None) stands for root itself."""
    links = []
    path = site[1]
    while path is not None:
        links.append(path)
        path = path[2]
    node, pos = root, at
    for kids, i, _ in reversed(links):
        pos = (node, kids, i, pos)
        node = kids[i]
    return node, pos


def _plug(pos: Position, r: Expr) -> Expr:
    """The root with r in place of the subterm at pos; the ancestors are
    rebuilt, every other subterm is shared."""
    while pos is not None:
        node, kids, i, pos = pos
        new = list(kids)
        new[i] = r
        r = shape_of(node).rebuild(node, new)
    return r


def _summary(e: Expr, forms: frozenset[type]) -> Summary:
    """What one walk over e finds (see `Summary`)."""
    reqs: list[Found] = []
    red = None
    for site in _candidates(e, forms):
        x, path = site
        if path is None:
            site = _HERE
        cls = type(x)
        if cls is Par:
            return site, tuple(reqs), red
        if cls is Request:
            reqs.append(site)
        elif red is None:
            red = site
    return None, tuple(reqs), red


def _scan(
    root: Par, table: Optional[RoutingTable], forms: frozenset[type]
) -> tuple[Optional[Site], Optional[Site], Optional[Site]]:
    """The sites one pre-order walk over the evaluation positions of root
    would find: the first Par redex (a parallel composition with a parallel
    component; the walk stops there), the first deliverable request (none
    when table is None) and the first term of a class in `forms` whose
    evaluation subterms are values. Contracting that one may still be stuck.

    The root comes first; below it, the walk is read off the summaries of
    the top-level components in order, and only deliverability is checked
    against the table here."""
    comps = root.exprs
    if Par in map(type, comps):
        return (root, None), None, None
    rcv = red = None
    cached = forms is _CONTRACTIBLE
    for i, comp in enumerate(comps):
        # A summary does not depend on the routing table, so `step`'s is
        # cached on the component, like `is_value`'s.
        s = comp._scache if cached else None
        if s is None:
            s = _summary(comp, forms)
            if cached:
                store(comp, "_scache", s)
        par, reqs, r = s
        if rcv is None and table is not None:
            for q in reqs:
                if _deliverable(comp if q[0] is None else q[0], table):
                    rcv = _located(q, comp, (root, comps, i, None))
                    break
        if red is None and r is not None:
            red = _located(r, comp, (root, comps, i, None))
        if par is not None:
            return _located(par, comp, (root, comps, i, None)), rcv, red
    return None, rcv, red


def _flatten_one(e: Par) -> Par:
    for i, x in enumerate(e.exprs):
        if type(x) is Par:
            return Par(e.exprs[:i] + x.exprs + e.exprs[i + 1 :], loc=e.loc)
    raise AssertionError("no nested parallel composition")


# ---------------------------------------------------------------------------
# Side conditions, shared with the threaded runtime. Each takes evaluated
# operands and raises StuckError when the redex is stuck.
# ---------------------------------------------------------------------------


def spawnable(v: Expr, op: str) -> ServerImage:
    """The table entry that `op` (Spwn or Repl) writes for the image value v;
    a template means (template, eps)."""
    if isinstance(v, ZeroImage):
        return Inert()
    if isinstance(v, (ServerTemplate, Closure)):
        return Live(v, ())
    if isinstance(v, Image) and is_value(v):
        return Live(v.template, v.buffer)
    raise StuckError(f"{op} applied to a non-image value: {pretty_expr(v)}")


def address_of(v: Expr, op: str, table: Mapping[Address, object]) -> Address:
    """The address that `op` (Snap or Repl) acts on; `table` holds the
    allocated ones."""
    if not isinstance(v, Addr):
        raise StuckError(f"{op} applied to a non-address value: {pretty_expr(v)}")
    if v.address not in table:
        raise StuckError(f"{op} on unallocated address @{v.address.id}")
    return v.address


def timer_due(delay: Expr, now: int) -> int:
    """The deadline of a timer armed at time `now`."""
    if not (isinstance(delay, BaseLit) and type(delay.value) is int):
        raise StuckError(f"timer delay is not an Int: {pretty_expr(delay)}")
    return now + delay.value


def instantiate(fn: Expr, arg: TypeExpr) -> Expr:
    """Rule TAppAbs: the body of a type abstraction at type arg.

    Memoised on the abstraction node (`_instcache`): the last argument and
    its body, reused for that same argument object but not for an `==` one,
    since alpha-equivalent arguments that differ in binder names give
    bodies that print differently. Only the last is kept, so a node that
    outlives a load, as the stdlib's do, holds one body, not one for each
    load's arguments.
    """
    if not isinstance(fn, TypeAbs):
        raise StuckError("type application of a non-universal value")
    hit = fn._instcache
    if hit is not None and hit[0] is arg:
        return hit[1]
    body = substitute_type_in_expr(fn.body, {fn.var: arg})
    store(fn, "_instcache", (arg, body))
    return body


def branch(cond: Expr, then: Expr, orelse: Expr) -> Expr:
    """Rule If: the branch that a boolean condition selects."""
    if not (isinstance(cond, BaseLit) and isinstance(cond.value, bool)):
        raise StuckError("if condition is not a boolean")
    return then if cond.value else orelse


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


@frozen
class Stepped:
    config: Config
    rule: str
    detail: str = ""


def step(config: Config, policy: Policy) -> Optional[Stepped]:
    """Perform exactly one atomic reduction, or report quiescence with None.

    `_scan` finds the first Par redex, the first deliverable request and the
    first contraction candidate, walking only the top-level components that
    have no cached summary yet. The priority is Par, then Rcv, then React,
    then contraction, and only the redex taken is contracted: a stuck term
    or a builtin elsewhere has no effect yet. React reads the
    configuration's ready set instead of matching every instance.
    """
    par, rcv, red = _scan(config.expr, config.table, _CONTRACTIBLE)
    if par is not None:
        return Stepped(config.moved(_plug(par[1], _flatten_one(par[0]))), "Par")
    if rcv is not None:
        return _receive(config, *rcv)
    if config.ready:
        return _react(config, policy)
    if red is not None:
        return _contract(config, *red)
    return None


def _receive(config: Config, req: Request, pos: Position) -> Stepped:
    """Rule Rcv, or an engine endpoint consuming the request."""
    callee = req.callee
    if isinstance(callee, ExternalRef):
        c = config.moved(_plug(pos, Par(())))
        if callee.name == "timer":
            c.timers = c.timers + ((timer_due(req.args[0], c.logical_time), req.args[1]),)
            return Stepped(c, "Timer", callee.name)
        c.observations = c.observations + ((c.logical_time, callee.name, tuple(req.args)),)
        return Stepped(c, "Obs", callee.name)
    c = config.copy()
    c.expr = _plug(pos, Par(()))
    addr = callee.target.address
    entry = c.table[addr]
    grown = Live(entry.template, entry.mailbox.received(MessageValue(callee.service, req.args)))
    if addr in c.ready:
        c.table[addr] = grown  # one more message never disables a match
    else:
        c.put(addr, grown)
    return Stepped(c, "Rcv", f"@{addr.id}")


def _react(config: Config, policy: Policy) -> Stepped:
    """Rule React on the first ready instance in round-robin order from the
    cursor, with its first matching rule in definition order."""
    after = [a for a in config.ready if a.id >= policy.cursor]
    addr = min(after or config.ready, key=lambda a: a.id)
    entry = config.table[addr]
    t = entry.template
    for ridx, rule in enumerate((t.code if type(t) is Closure else t).rules):
        m = match_patterns(rule.patterns, entry.mailbox, policy)
        if m is not None:
            break
    else:
        raise AssertionError(f"@{addr.id} is ready but matches no rule")
    policy.cursor = addr.id + 1
    return _fire(config, addr, ridx, m)


def _fire(config: Config, addr: Address, ridx: int, m: MatchResult) -> Stepped:
    """Rule React: the instance at addr fires its rule ridx on match m. The
    residual becomes its buffer and the instantiated body joins the top level.

    Only the fired rule's body is substituted into. A closure's is
    substituted under its environment too (`core.fire_rule`), so the other
    rules, and the templates in this one, stay as they are until a reader
    forces them."""
    template = config.table[addr].template
    if type(template) is Closure:
        body = fire_rule(template, ridx, m.subst, Addr(addr))
    else:
        subst = m.substitution()
        subst[THIS] = Addr(addr)
        body = substitute(template.rules[ridx].body, subst)
    c = config.copy()
    c.put(addr, Live(template, m.residual))
    assert isinstance(c.expr, Par)
    c.expr = Par(c.expr.exprs + (body,))
    return Stepped(c, "React", f"@{addr.id}/r{ridx + 1}")


def _contract(config: Config, e: Expr, pos: Position) -> Stepped:
    """Contract a Spwn, Snap, Repl, type application, base operation or if
    whose evaluation subterms are values. Raises StuckError if it is stuck.
    Only Spwn and Repl write an entry, so only they copy the table."""
    cls = type(e)
    c = config.copy() if cls is Spwn or cls is Repl else config.moved(config.expr)
    detail = ""
    if cls is Spwn:
        img = spawnable(e.expr, "spwn")
        addr = Address(c.next_address, e.placement)
        c.put(addr, img)
        c.next_address += 1
        rule, detail, r = "Spwn", f"@{addr.id}", Addr(addr)
    elif cls is Snap:
        addr = address_of(e.expr, "snap", config.table)
        rule, detail, r = "Snap", f"@{addr.id}", image_of(config.table[addr])
    elif cls is Repl:
        addr = address_of(e.target, "repl", config.table)
        c.put(addr, spawnable(e.image, "repl"))
        c.replaces += 1
        rule, detail, r = "Repl", f"@{addr.id}", Par(())
    elif cls is TypeApp:
        rule, r = "TAppAbs", instantiate(e.expr, e.arg)
    elif cls is BaseOp:

        def fresh_id() -> int:
            c.next_address += 1
            return c.next_address - 1

        fx = EffectContext(fresh_id=fresh_id, local_time=lambda: c.logical_time)
        rule, r = "Base", apply_builtin(e.op, e.operands, fx)
    else:
        assert isinstance(e, If)
        rule, r = "If", branch(e.cond, e.then, e.orelse)
    c.expr = _plug(pos, r)
    return Stepped(c, rule, detail)


# ---------------------------------------------------------------------------
# Runs and traces
# ---------------------------------------------------------------------------


@frozen
class TraceStep:
    index: int
    rule: str
    detail: str
    top: str


Sink = Callable[[TraceStep], object]


@dataclass
class Trace:
    """A sink that keeps every step. `render` is the one formatter of step
    text: `cpl trace` streams each step through it as it happens."""

    steps: list[TraceStep] = field(default_factory=list)

    def __call__(self, s: TraceStep) -> None:
        self.steps.append(s)

    def normalized_rules(self) -> list[str]:
        keep = {"Spwn", "Rcv", "React", "Snap", "Repl"}
        return [f"{s.rule}{(' ' + s.detail) if s.rule == 'React' else ''}" for s in self.steps if s.rule in keep]

    def render(self) -> str:
        lines = []
        for s in self.steps:
            head = f"STEP {s.index} {s.rule}"
            if s.detail:
                head += f" {s.detail}"
            lines.append(head)
            lines.append(f"  {s.top}")
        return "\n".join(lines) + ("\n" if lines else "")


COMPLETED = "completed"
QUIESCENT = "quiescent"
STEP_LIMIT = "step-limit"


@dataclass
class RunResult:
    final: Config
    status: str

    @property
    def observations(self) -> tuple[Observation, ...]:
        return self.final.observations


def digest(config: Config) -> str:
    return hashlib.sha256(canonical(config).encode()).hexdigest()[:16]


def canonical(config: Config) -> str:
    """Canonical rendering with addresses renumbered by first encounter."""
    mapping: dict[int, int] = {}

    def num(a: Address) -> str:
        if a.id not in mapping:
            mapping[a.id] = len(mapping)
        tag = "~" if a.placement is Placement.LOCAL else ""
        return f"@{tag}{mapping[a.id]}"

    def walk(e: Expr) -> str:
        if isinstance(e, Addr):
            return num(e.address)
        if isinstance(e, ServerTemplate):
            return pretty_expr(e)
        if isinstance(e, Par):
            return "(" + "||".join(walk(x) for x in e.exprs) + ")"
        if isinstance(e, Request):
            return walk(e.callee) + "<" + ",".join(walk(a) for a in e.args) + ">"
        if isinstance(e, ServiceRef):
            return walk(e.target) + "#" + e.service
        if isinstance(e, Spwn):
            return f"spwn[{e.placement}]({walk(e.expr)})"
        if isinstance(e, Snap):
            return f"snap({walk(e.expr)})"
        if isinstance(e, Repl):
            return f"repl({walk(e.target)},{walk(e.image)})"
        if isinstance(e, Image):
            msgs = ",".join(m.service + "<" + ",".join(walk(a) for a in m.args) + ">" for m in e.buffer)
            return f"img({walk(e.template)},[{msgs}])"
        if isinstance(e, TypeApp):
            return f"{walk(e.expr)}[ty]"
        if isinstance(e, BaseOp):
            return e.op + "(" + ",".join(walk(a) for a in e.operands) + ")"
        if isinstance(e, If):
            return f"if({walk(e.cond)},{walk(e.then)},{walk(e.orelse)})"
        if isinstance(e, TupleV):
            return "(" + ",".join(walk(a) for a in e.items) + ")"
        if isinstance(e, ListV):
            return "[" + ",".join(walk(a) for a in e.items) + "]"
        if isinstance(e, MapV):
            return "{" + ",".join(walk(k) + ":" + walk(v) for k, v in e.entries) + "}"
        return pretty_expr(e)

    parts = [walk(config.expr)]
    for addr in sorted(config.table.keys(), key=lambda a: a.id):
        entry = config.table[addr]
        if isinstance(entry, Inert):
            parts.append(f"{num(addr)}=0")
        else:
            buf = ",".join(m.service + "<" + ",".join(walk(a) for a in m.args) + ">" for m in entry.buffer)
            parts.append(f"{num(addr)}=({pretty_expr(entry.template)},[{buf}])")
    parts.append(f"t={config.logical_time}")
    parts.append("timers=" + ",".join(f"{due}:{walk(k)}" for due, k in config.timers))
    parts.append("obs=" + ";".join(f"{s}({','.join(walk(a) for a in args)})" for _, s, args in config.observations))
    return "|".join(parts)


def fire_next_timers(config: Config, first_only: bool = False) -> Config:
    """Jump logical time to the earliest timer deadline and deliver every
    timer due by then, in the order they were armed. With `first_only`, only
    the first armed of them is delivered: the explorer fires one per step."""
    due = min(d for d, _ in config.timers)
    fired = [i for i, (d, _) in enumerate(config.timers) if d == due]
    if first_only:
        del fired[1:]
    c = config.copy()
    c.timers = tuple(t for i, t in enumerate(config.timers) if i not in fired)
    c.logical_time = max(c.logical_time, due)
    assert isinstance(c.expr, Par)
    c.expr = Par(c.expr.exprs + tuple(Request(config.timers[i][1], ()) for i in fired))
    return c


def _completed(config: Config) -> bool:
    assert isinstance(config.expr, Par)
    return all(is_value(x) for x in config.expr.exprs)


def pending_messages(config: Config) -> list[tuple[Address, MessageValue]]:
    out = []
    for addr in sorted(config.table.keys(), key=lambda a: a.id):
        entry = config.table[addr]
        if isinstance(entry, Live):
            for m in entry.buffer:
                out.append((addr, m))
    return out


def run(config: Config, policy: Policy, max_steps: int, sink: Optional[Sink] = None) -> RunResult:
    """Iterate step until completion, quiescence, or the step limit. Timers
    fire by the rule of `TimerRounds`.

    With a sink, each step is handed to it as a `TraceStep` as soon as it is
    taken, its term printed by `pretty_expr`; run keeps none of them. A
    `Trace` keeps them all, and `cpl trace` writes each to stdout, so a run
    that raises has already handed over the steps before the fault."""
    current = config
    rounds = TimerRounds()
    for index in range(1, max_steps + 1):
        s = step(current, policy)
        if s is None:
            if not current.timers or not rounds.fire((len(current.observations), current.replaces)):
                status = COMPLETED if _completed(current) else QUIESCENT
                return RunResult(current, status)
            fired = fire_next_timers(current)
            s = Stepped(fired, "Timer", f"t={fired.logical_time}")
        if sink is not None:
            sink(TraceStep(index, s.rule, s.detail, pretty_expr(s.config.expr)))
        current = s.config
    return RunResult(current, STEP_LIMIT)


# ---------------------------------------------------------------------------
# Bounded exhaustive exploration
# ---------------------------------------------------------------------------


def _admin_close(config: Config) -> Config:
    """Apply deterministic, confluent administrative steps to a fixpoint:
    Par flattening, base operations, conditionals, type applications. Each
    round finds the first such redex with `step`'s walk and contracts it as
    `step` does, so a stuck one raises StuckError."""
    current = config
    for _ in range(100_000):
        par, _, red = _scan(current.expr, None, _ADMINISTRATIVE)
        if par is not None:
            current = current.moved(_plug(par[1], _flatten_one(par[0])))
        elif red is not None:
            current = _contract(current, *red).config
        else:
            return current
    raise ExplosionError("administrative closure did not terminate")


def _successors(config: Config) -> Iterator[Config]:
    """All single-step nondeterministic continuations of a closed config, each
    built by the rule function `step` uses: Rcv at every deliverable request,
    a contraction at every evaluated position that is not stuck (a closed
    config has only Spwn, Snap and Repl left), and React for every instance,
    rule and complete match."""
    root = config.expr
    for site in _candidates(root, _CONTRACTIBLE):
        x, pos = _located(site, root, None)
        cls = type(x)
        if cls is Request:
            if _deliverable(x, config.table):
                yield _receive(config, x, pos).config
        elif cls is not Par:
            try:
                s = _contract(config, x, pos)
            except StuckError:
                continue
            yield s.config
    for addr in sorted(config.table, key=lambda a: a.id):
        entry = config.table[addr]
        if isinstance(entry, Live):
            t = entry.template
            for ridx, rule in enumerate((t.code if type(t) is Closure else t).rules):
                for m in enumerate_matches(rule.patterns, entry.buffer):
                    yield _fire(config, addr, ridx, m).config


def enumerate_reachable(config: Config, depth: int, state_cap: int = 20_000) -> dict[str, Config]:
    """All configurations reachable in at most `depth` nondeterministic steps,
    keyed by canonical digest (addresses renumbered). A config with no step
    fires its earliest timer."""
    start = _admin_close(config)
    seen: dict[str, Config] = {digest(start): start}
    frontier = [start]
    for _ in range(depth):
        nxt: list[Config] = []
        for cfg in frontier:
            succs = list(_successors(cfg))
            if not succs and cfg.timers:
                succs = [fire_next_timers(cfg, first_only=True)]
            for s in succs:
                s = _admin_close(s)
                d = digest(s)
                if d not in seen:
                    if len(seen) >= state_cap:
                        raise ExplosionError(f"state cap {state_cap} exceeded")
                    seen[d] = s
                    nxt.append(s)
        if not nxt:
            break
        frontier = nxt
    return seen


def terminal_configs(reachable: dict[str, Config]) -> list[Config]:
    return [cfg for cfg in reachable.values() if not cfg.timers and next(_successors(cfg), None) is None]
