"""Concurrent message-passing runtime.

Each live instance is a reactive entity with a mailbox (`core.Mailbox`, the
same per-service queues as the small-step machine); firings are serialized
per instance and executed on a small thread pool. Local placement runs an
instance's firings inline on the sender's thread (bounded depth); remote
placement queues them independently. snap/repl/send on one address are
linearized by that instance's lock. The rules themselves are the small-step
machine's: an instance holds one of its table entries (`Live` or `Inert`),
and every side condition is a `machine` helper, so a stuck redex raises the
same `StuckError` on both engines.

A firing runs its rule's body compiled once to a tree of closures (Feeley &
Lapalme, 1987) and kept on the rule; the closures hold subterms only, never
a runtime, bindings or an address, so the stdlib's rules, which live for the
whole process, pin no run. The body runs under the firing's bindings (the
matched parameters and `this`) instead of substituting them into a copy of
the body first, as the machine's React rule does. Templates closed over
values are `core.Closure`s, as on the machine. A value that still has free
variables is closed when it escapes the firing (spawned, sent, observed,
installed, held in an image or type abstraction, or returned to an
enclosing operation): a template with substitution's constructor,
`core.close`, any other value by substitution. A closure's instance matches
with its code's patterns and fires the code's rule, compiled once per
process, under `this`, then the environment, then the matched parameters,
so a transparent `srv*` keeps the enclosing `this` and a parameter shadows
an environment name.

`await_quiescence` settles the pool once per timer round; whether another
round fires is the machine's idle-timer rule, `machine.TimerRounds`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NoReturn

from .builtins import apply_builtin
from .core import (
    THIS,
    Addr,
    Address,
    BaseOp,
    Closure,
    Expr,
    ExternalRef,
    If,
    Image,
    ListV,
    Live,
    MapV,
    MessageValue,
    Par,
    Placement,
    Repl,
    Request,
    ServerImage,
    ServerTemplate,
    ServiceRef,
    Snap,
    Spwn,
    This,
    TupleV,
    TypeApp,
    Var,
    children,
    close,
    free_vars,
    image_of,
    is_value,
    substitute,
    wire_observers,
    with_children,
)
from .errors import MachineError
from .frozen import memo, store
from .machine import (
    TimerRounds,
    address_of,
    branch,
    deterministic,
    instantiate,
    match_patterns,
    spawnable,
    timer_due,
)
from .pretty import value_to_json

_POOL_SIZE = 8
_INLINE_DEPTH_LIMIT = 40
# Firings take the oldest matching messages, as on the small-step machine.
_MATCH_POLICY = deterministic()
# The values that a compiled term rebuilds from its evaluated subterms.
_REBUILT = (ServiceRef, Image, TupleV, ListV, MapV)
_TEMPLATES = (ServerTemplate, Closure)
_UNIT = Par(())


@dataclass
class Observation:
    t: int
    service: str
    args: tuple[Expr, ...]


class ObservationLog:
    """Append-only log of messages delivered to observer endpoints."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: list[Observation] = []

    def append(self, obs: Observation) -> None:
        with self._lock:
            self._items.append(obs)

    def snapshot(self) -> list[Observation]:
        with self._lock:
            return list(self._items)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def to_json_lines(self) -> str:
        return "".join(
            json.dumps({"t": o.t, "service": o.service, "args": [value_to_json(a) for a in o.args]})
            + "\n"
            for o in self.snapshot()
        )


class _Tracker:
    """Counts outstanding work units for quiescence detection."""

    def __init__(self) -> None:
        self._n = 0
        self._cv = threading.Condition()

    def inc(self) -> None:
        with self._cv:
            self._n += 1

    def dec(self) -> None:
        with self._cv:
            self._n -= 1
            if self._n == 0:
                self._cv.notify_all()

    def wait_zero(self, deadline: float) -> bool:
        with self._cv:
            return self._cv.wait_for(lambda: self._n == 0, deadline - time.monotonic())


@dataclass
class _Instance:
    address: Address
    entry: ServerImage
    lock: threading.Lock = field(default_factory=threading.Lock)
    scheduled: bool = False
    firing: int = 0


class Runtime:
    """RuntimeHandle: instance registry, observer channel, clock and id source."""

    def __init__(self, virtual_time: bool = False):
        self.virtual_time = virtual_time
        self.log = ObservationLog()
        self.dropped: list[tuple[Address, str]] = []  # appended under _fault_lock
        self.replace_log: list[tuple[Address, int]] = []
        # Entries are never removed, so a membership test needs no lock.
        self._instances: dict[Address, _Instance] = {}
        self._reg_lock = threading.Lock()
        self._next_addr = itertools.count(0)
        self._next_id = itertools.count(1)
        self._tracker = _Tracker()
        self._queue: deque = deque()
        self._qlock = threading.Condition()
        self._stop = False
        self._clock_lock = threading.Lock()
        self._vclock = 0
        self._t0 = time.monotonic()
        self._timers: list[tuple[int, int, Expr]] = []  # (due, seq, continuation), unordered
        self._timer_seq = itertools.count()
        self._errors: list[BaseException] = []  # appended under _fault_lock
        self._fault_lock = threading.Lock()
        self._local_depth = threading.local()
        self._threads = [
            threading.Thread(target=self._worker, daemon=True, name=f"cpl-rt-{i}")
            for i in range(_POOL_SIZE)
        ]
        for t in self._threads:
            t.start()

    # -- pool ---------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._qlock:
                while not self._queue and not self._stop:
                    self._qlock.wait()
                if self._stop and not self._queue:
                    return
                task = self._queue.popleft()
            try:
                task()
            except BaseException as exc:  # surfaced by await_quiescence
                with self._fault_lock:
                    self._errors.append(exc)
            finally:
                self._tracker.dec()

    def _submit(self, task) -> None:
        self._tracker.inc()
        with self._qlock:
            self._queue.append(task)
            self._qlock.notify()

    def shutdown(self) -> None:
        with self._qlock:
            self._stop = True
            self._qlock.notify_all()

    # -- clock and ids --------------------------------------------------------

    def local_time(self) -> int:
        if self.virtual_time:
            with self._clock_lock:
                return self._vclock
        return int((time.monotonic() - self._t0) * 1000)

    def fresh_id(self) -> int:
        return next(self._next_id)

    # -- spec operations -------------------------------------------------------

    def boot(self, program: Expr) -> "Runtime":
        """Start executing a program, closed over the engine endpoints."""
        closed = wire_observers(program)
        self._submit(lambda: _compile(closed)(self, {}))
        return self

    def rt_spawn(self, image: Expr, placement: Placement = Placement.REMOTE) -> Address:
        entry = spawnable(image, "spwn")
        inst = _Instance(addr := Address(next(self._next_addr), placement), entry)
        with self._reg_lock:
            self._instances[addr] = inst
        if isinstance(entry, Live) and entry.mailbox:
            self._schedule_pump(inst)
        return addr

    def rt_send(self, addr: Address, service: str, args: tuple[Expr, ...]) -> None:
        """Buffer a message; a send to an inert or unallocated address is
        dropped (the machine leaves it undelivered)."""
        inst = self._instances.get(addr)
        if inst is not None:
            with inst.lock:
                entry = inst.entry
                live = isinstance(entry, Live)
                if live:
                    inst.entry = Live(entry.template, entry.mailbox.received(MessageValue(service, tuple(args))))
            if live:
                self._schedule_pump(inst)
                return
        with self._fault_lock:
            self.dropped.append((addr, service))

    def rt_snapshot(self, addr: Address) -> Expr:
        inst = self._lookup(addr)
        with inst.lock:
            return image_of(inst.entry)

    def rt_replace(self, addr: Address, image: Expr) -> None:
        inst = self._lookup(addr)
        entry = spawnable(image, "repl")
        with inst.lock:
            inst.entry = entry
            self.replace_log.append((addr, len(entry.mailbox) if isinstance(entry, Live) else 0))
        if isinstance(entry, Live):
            self._schedule_pump(inst)

    def await_quiescence(self, timeout_ms: int = 30_000) -> ObservationLog:
        """Block until no rule can fire and nothing is in transit, firing
        timer rounds by `machine.TimerRounds`. The clock jumps to a deadline
        only in virtual-time mode, else the wait is real."""
        deadline = time.monotonic() + timeout_ms / 1000.0
        rounds = TimerRounds()
        while True:
            self.timed_out = not self._tracker.wait_zero(deadline)
            if self._errors:  # only ever appended to, so the check stays true
                raise self._errors[0]
            if self.timed_out:
                break
            with self._clock_lock:
                due = min(self._timers)[0] if self._timers else None
            if due is None or not rounds.fire((len(self.log), len(self.replace_log))):
                break
            if not self.virtual_time:
                wait = due - self.local_time()
                if wait > 0:
                    wait = min(wait, int((deadline - time.monotonic()) * 1000))
                    if wait <= 0:
                        self.timed_out = True
                        break
                    time.sleep(wait / 1000.0)
                due = self.local_time()
            self._fire_due(due)
        return self.log

    def advance_virtual(self, ms: int) -> None:
        """Advance the virtual clock by ms and deliver the timers now due;
        lets tests drive recovery timeouts explicitly."""
        if not self.virtual_time:
            raise MachineError("advance_virtual requires virtual-time mode")
        self._fire_due(self.local_time() + ms)

    def _fire_due(self, now: int) -> None:
        """Deliver every timer due by `now`, earliest first; in virtual-time
        mode the clock first moves up to `now`."""
        with self._clock_lock:
            if self.virtual_time:
                self._vclock = now = max(self._vclock, now)
            ready = [t for t in self._timers if t[0] <= now]
            self._timers = [t for t in self._timers if t[0] > now]
        for _, _, k in sorted(ready):
            self._submit(lambda k=k: self._request(k, ()))

    def pending_summary(self) -> list[tuple[Address, MessageValue]]:
        out = []
        with self._reg_lock:
            instances = list(self._instances.items())
        for addr, inst in sorted(instances, key=lambda kv: kv[0].id):
            with inst.lock:
                entry = inst.entry
            if isinstance(entry, Live):
                out.extend((addr, m) for m in entry.buffer)
        return out

    def apply_builtin(self, op: str, args: tuple[Expr, ...]) -> Expr:
        # The runtime is its own `EffectContext`; one on `self` would be a cycle.
        return apply_builtin(op, args, self)

    # -- internals -------------------------------------------------------------

    def _lookup(self, addr: Address) -> _Instance:
        with self._reg_lock:
            inst = self._instances.get(addr)
        if inst is None:
            raise MachineError(f"unknown address @{addr.id}")
        return inst

    def _schedule_pump(self, inst: _Instance) -> None:
        with inst.lock:
            if inst.scheduled:
                return
            inst.scheduled = True
        depth = getattr(self._local_depth, "n", 0)
        if inst.address.placement is Placement.LOCAL and depth < _INLINE_DEPTH_LIMIT:
            self._local_depth.n = depth + 1
            try:
                self._pump(inst)
            finally:
                self._local_depth.n = depth
        else:
            self._submit(lambda: self._pump(inst))

    def _pump(self, inst: _Instance) -> None:
        while True:
            with inst.lock:
                fired, entry = None, inst.entry
                # No firing starts after shutdown, so a self-sending rule ends.
                if isinstance(entry, Live) and not self._stop:
                    t = entry.template
                    for rule in (t.code if type(t) is Closure else t).rules:
                        m = match_patterns(rule.patterns, entry.mailbox, _MATCH_POLICY)
                        if m is not None:
                            inst.entry = Live(t, m.residual)
                            fired = (rule, m.subst)
                            break
                if fired is None:
                    inst.scheduled = False
                    return
                inst.firing += 1
                assert inst.firing == 1, "overlapping firings on one instance"
            rule, bindings = fired
            try:
                env = {THIS: Addr(inst.address)}
                if type(t) is Closure:
                    env.update(t.env)
                env.update(bindings)
                memo(rule, "_ccache", lambda r: _compile(r.body))(self, env)
            finally:
                with inst.lock:
                    inst.firing -= 1

    def _request(self, callee: Expr, args: tuple[Expr, ...]) -> Expr:
        """Dispatch a request whose callee and arguments are evaluated."""
        if isinstance(callee, ExternalRef):
            if callee.name == "timer":
                due = timer_due(args[0], self.local_time())
                with self._clock_lock:
                    self._timers.append((due, next(self._timer_seq), args[1]))
            else:
                self.log.append(Observation(self.local_time(), callee.name, args))
        elif isinstance(callee, ServiceRef) and isinstance(callee.target, Addr):
            self.rt_send(callee.target.address, callee.service, args)
        else:
            raise MachineError(f"request target is not a service reference: {callee!r}")
        return _UNIT


Compiled = Callable[[Runtime, dict[str, Expr]], Expr]


def _compile(e: Expr) -> Compiled:
    """e as a closure f(runtime, env) over its subterms' closures, run under
    the firing's bindings: requests are dispatched and values returned, and
    a value with free variables is closed by substituting env into it."""
    if isinstance(e, (Var, This)):
        name = e.name if isinstance(e, Var) else THIS
        return lambda rt, env: env[name] if name in env else _open(e)
    if is_value(e):
        if not free_vars(e):
            return lambda rt, env: e
        if type(e) in _TEMPLATES:
            return lambda rt, env: close(e, env)
        return lambda rt, env: substitute(e, env)
    if isinstance(e, Request):
        ref = e.callee if isinstance(e.callee, ServiceRef) else None
        # A send to `t#s` needs only t's address: no reference is built for
        # a target looked up in env, such as an environment name.
        callee = _compile(e.callee if ref is None else ref.target)
        args = [_compile(a) for a in e.args]

        def request(rt, env):
            target = callee(rt, env)
            values = tuple([f(rt, env) for f in args])
            if ref is not None and isinstance(target, Addr):
                rt.rt_send(target.address, ref.service, values)
                return _UNIT
            return rt._request(target if ref is None else with_children(ref, (target,)), values)

        return request
    kids = [_compile(c) for c in children(e)]
    if isinstance(e, Par):

        def par(rt, env):
            for f in kids:
                f(rt, env)
            return _UNIT

        return par
    if isinstance(e, Spwn):
        return lambda rt, env: Addr(rt.rt_spawn(kids[0](rt, env), e.placement))
    if isinstance(e, Snap):
        return lambda rt, env: rt.rt_snapshot(address_of(kids[0](rt, env), "snap", rt._instances))
    if isinstance(e, Repl):

        def repl(rt, env):
            target, image = kids[0](rt, env), kids[1](rt, env)
            rt.rt_replace(address_of(target, "repl", rt._instances), image)
            return _UNIT

        return repl
    if isinstance(e, TypeApp):

        def tapp(rt, env):
            # The instantiated body of a closed abstraction is closed; it is
            # compiled once for each `instantiate` memo entry, kept beside it.
            fn = kids[0](rt, env)
            body, hit = instantiate(fn, e.arg), fn._iccache
            if hit is None or hit[0] is not body:
                hit = store(fn, "_iccache", (body, _compile(body)))
            return hit[1](rt, {})

        return tapp
    if isinstance(e, BaseOp):
        return lambda rt, env: rt.apply_builtin(e.op, tuple([f(rt, env) for f in kids]))
    if isinstance(e, If):
        return lambda rt, env: branch(kids[0](rt, env), kids[1], kids[2])(rt, env)
    if isinstance(e, _REBUILT):
        return lambda rt, env: with_children(e, [f(rt, env) for f in kids])
    return lambda rt, env: _open(e)


def _open(e: Expr) -> NoReturn:
    raise MachineError(f"cannot evaluate open expression: {e!r}")


def boot(program: Expr, virtual_time: bool = False) -> Runtime:
    """Start a runtime executing `program`; spec-facing convenience."""
    return Runtime(virtual_time=virtual_time).boot(program)
