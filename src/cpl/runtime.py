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
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .builtins import EffectContext, apply_builtin
from .core import (
    THIS,
    Addr,
    Address,
    BaseLit,
    BaseOp,
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
    ServiceRef,
    Snap,
    Spwn,
    TupleV,
    TypeApp,
    ZeroImage,
    children,
    image_of,
    is_value,
    substitute,
    with_children,
)
from .errors import MachineError
from .machine import (
    MAX_IDLE_TIMER_ROUNDS,
    address_of,
    branch,
    deterministic,
    instantiate,
    match_patterns,
    spawnable,
    timer_due,
    wire_observers,
)

_POOL_SIZE = 8
_INLINE_DEPTH_LIMIT = 40
# Firings take the oldest matching messages, as on the small-step machine.
_MATCH_POLICY = deterministic()
# The values `_eval` rebuilds from their evaluated subterms.
_REBUILT = (ServiceRef, Image, TupleV, ListV, MapV)


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


def value_to_json(v: Expr):
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
    from .pretty import pretty_expr

    return {"$value": pretty_expr(v)}


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
            while self._n > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(min(remaining, 0.1))
            return True


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
        self._timers: list[tuple[int, int, Expr]] = []  # (due, seq, continuation)
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
                    self._qlock.wait(0.1)
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

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

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
        self._submit(lambda: self._eval(closed))
        return self

    def rt_spawn(self, image: Expr, placement: Placement = Placement.REMOTE) -> Address:
        entry = spawnable(image, "spwn")
        addr = Address(next(self._next_addr), placement)
        inst = _Instance(addr, entry)
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
        """Block until no rule can fire and nothing is in transit. Timers
        fire by the rule at `machine.MAX_IDLE_TIMER_ROUNDS`; the clock jumps
        to a deadline only in virtual-time mode, else the wait is real."""
        deadline = time.monotonic() + timeout_ms / 1000.0
        idle_rounds = 0
        self.timed_out = False
        while True:
            if not self._tracker.wait_zero(deadline):
                self.timed_out = True
                self._raise_pending_error()
                break
            self._raise_pending_error()
            with self._clock_lock:
                timers = sorted(self._timers)
            if not timers:
                break
            if idle_rounds >= MAX_IDLE_TIMER_ROUNDS:
                break
            progress_before = (len(self.log), len(self.replace_log))
            due = timers[0][0]
            if not self.virtual_time:
                now = self.local_time()
                if due > now:
                    wait = min(due - now, max(0, int((deadline - time.monotonic()) * 1000)))
                    if wait <= 0:
                        self.timed_out = True
                        break
                    time.sleep(wait / 1000.0)
            self._fire_due(due if self.virtual_time else self.local_time())
            if not self._tracker.wait_zero(deadline):
                self.timed_out = True
                self._raise_pending_error()
                break
            self._raise_pending_error()
            progress_after = (len(self.log), len(self.replace_log))
            idle_rounds = idle_rounds + 1 if progress_after == progress_before else 0
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
            self._submit(lambda k=k: self._eval(Request(k, ())))

    def _raise_pending_error(self) -> None:
        if self._errors:  # only ever appended to, so the check stays true
            raise self._errors[0]

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
        fx = EffectContext(fresh_id=self.fresh_id, local_time=self.local_time)
        return apply_builtin(op, args, fx)

    # -- internals -------------------------------------------------------------

    def _lookup(self, addr: Address) -> _Instance:
        with self._reg_lock:
            inst = self._instances.get(addr)
        if inst is None:
            raise MachineError(f"unknown address @{addr.id}")
        return inst

    def _schedule_pump(self, inst: _Instance) -> None:
        inline = False
        if inst.address.placement is Placement.LOCAL:
            depth = getattr(self._local_depth, "n", 0)
            if depth < _INLINE_DEPTH_LIMIT:
                inline = True
        with inst.lock:
            if inst.scheduled:
                return
            inst.scheduled = True
        if inline:
            self._local_depth.n = getattr(self._local_depth, "n", 0) + 1
            try:
                self._pump(inst)
            finally:
                self._local_depth.n -= 1
        else:
            self._submit(lambda: self._pump(inst))

    def _pump(self, inst: _Instance) -> None:
        while True:
            with inst.lock:
                fired = None
                entry = inst.entry
                if isinstance(entry, Live):
                    for rule in entry.template.rules:
                        m = match_patterns(rule.patterns, entry.mailbox, _MATCH_POLICY)
                        if m is not None:
                            inst.entry = Live(entry.template, m.residual)
                            fired = (rule, m.subst)
                            break
                if fired is None:
                    inst.scheduled = False
                    return
                inst.firing += 1
                assert inst.firing == 1, "overlapping firings on one instance"
            rule, bindings = fired
            try:
                subst = dict(bindings)
                subst[THIS] = Addr(inst.address)
                self._eval(substitute(rule.body, subst))
            finally:
                with inst.lock:
                    inst.firing -= 1

    def _eval(self, e: Expr) -> Expr:
        """Big-step evaluation; requests are dispatched, values returned."""
        if is_value(e):
            return e
        if isinstance(e, Par):
            for x in e.exprs:
                self._eval(x)
            return Par(())
        if isinstance(e, Request):
            callee = self._eval(e.callee)
            args = tuple(self._eval(a) for a in e.args)
            if isinstance(callee, ExternalRef):
                if callee.name == "timer":
                    due = timer_due(args[0], self.local_time())
                    with self._clock_lock:
                        heapq.heappush(self._timers, (due, next(self._timer_seq), args[1]))
                    return Par(())
                self.log.append(Observation(self.local_time(), callee.name, args))
                return Par(())
            if isinstance(callee, ServiceRef) and isinstance(callee.target, Addr):
                self.rt_send(callee.target.address, callee.service, args)
                return Par(())
            raise MachineError(f"request target is not a service reference: {callee!r}")
        if isinstance(e, Spwn):
            return Addr(self.rt_spawn(self._eval(e.expr), e.placement))
        if isinstance(e, Snap):
            return self.rt_snapshot(address_of(self._eval(e.expr), "snap", self._instances))
        if isinstance(e, Repl):
            target = self._eval(e.target)
            image = self._eval(e.image)
            self.rt_replace(address_of(target, "repl", self._instances), image)
            return Par(())
        if isinstance(e, TypeApp):
            return self._eval(instantiate(self._eval(e.expr), e.arg))
        if isinstance(e, BaseOp):
            args = tuple(self._eval(a) for a in e.operands)
            return self.apply_builtin(e.op, args)
        if isinstance(e, If):
            return self._eval(branch(self._eval(e.cond), e.then, e.orelse))
        if isinstance(e, _REBUILT):
            return with_children(e, [self._eval(c) for c in children(e)])
        raise MachineError(f"cannot evaluate open expression: {e!r}")


def boot(program: Expr, virtual_time: bool = False) -> Runtime:
    """Start a runtime executing `program`; spec-facing convenience."""
    return Runtime(virtual_time=virtual_time).boot(program)
