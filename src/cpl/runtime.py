"""Concurrent message-passing runtime.

Each live instance is a reactive entity with a mailbox (`core.Mailbox`, the
same per-service queues as the small-step machine); firings are serialized
per instance and executed on a small thread pool. Local placement runs an
instance's firings inline on the sender's thread (bounded depth); remote
placement queues them independently. snap/repl/send on one address are
linearized by that instance's lock.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .builtins import EffectContext, apply_builtin
from .core import (
    EMPTY_MAILBOX,
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
    Mailbox,
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
    TupleV,
    TypeAbs,
    TypeApp,
    ZeroImage,
    children,
    free_vars,
    is_value,
    substitute,
    substitute_type_in_expr,
    with_children,
)
from .errors import MachineError
from .machine import _as_spawnable, deterministic, match_patterns

DEFAULT_OBSERVERS = ("result", "event", "print")
_INLINE_DEPTH_LIMIT = 40
# Firings take the oldest matching messages, as on the small-step machine.
_MATCH_POLICY = deterministic()


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
    template: Optional[ServerTemplate]  # None means inert
    mailbox: Mailbox
    lock: threading.Lock = field(default_factory=threading.Lock)
    scheduled: bool = False
    firing: int = 0


class Runtime:
    """RuntimeHandle: instance registry, observer channel, clock and id source."""

    def __init__(self, virtual_time: bool = False, pool_size: int = 8):
        self.virtual_time = virtual_time
        self.log = ObservationLog()
        self.dropped: list[tuple[Address, str]] = []  # appended under _fault_lock
        self.replace_log: list[tuple[Address, int]] = []
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
            for i in range(pool_size)
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

    def boot(self, program: Expr, observer_services: tuple[str, ...] = DEFAULT_OBSERVERS) -> "Runtime":
        """Start executing a closed program; designated free continuation
        names are wired to the observer endpoint first."""
        subst = {
            name: ExternalRef(name)
            for name in free_vars(program)
            if name in observer_services or name == "timer"
        }
        closed = substitute(program, subst) if subst else program
        self._submit(lambda: self._eval(closed))
        return self

    def rt_spawn(self, image: Expr, placement: Placement = Placement.REMOTE) -> Address:
        template, mailbox = _decode_image(image, "spwn")
        addr = Address(next(self._next_addr), placement)
        inst = _Instance(addr, template, mailbox)
        with self._reg_lock:
            self._instances[addr] = inst
        if template is not None and mailbox:
            self._schedule_pump(inst)
        return addr

    def rt_send(self, addr: Address, service: str, args: tuple[Expr, ...]) -> None:
        inst = self._lookup(addr)
        with inst.lock:
            if inst.template is None:
                with self._fault_lock:
                    self.dropped.append((addr, service))
                return
            inst.mailbox = inst.mailbox.received(MessageValue(service, tuple(args)))
        self._schedule_pump(inst)

    def rt_snapshot(self, addr: Address) -> Expr:
        inst = self._lookup(addr)
        with inst.lock:
            if inst.template is None:
                return ZeroImage()
            return Image(inst.template, inst.mailbox.ordered())

    def rt_replace(self, addr: Address, image: Expr) -> None:
        inst = self._lookup(addr)
        template, mailbox = _decode_image(image, "repl")
        with inst.lock:
            inst.template = template
            inst.mailbox = mailbox
            self.replace_log.append((addr, len(mailbox)))
        if template is not None:
            self._schedule_pump(inst)

    def await_quiescence(self, timeout_ms: int = 30_000, max_idle_timer_rounds: int = 6) -> ObservationLog:
        """Block until no rule can fire and nothing is in transit.

        In virtual-time mode the clock jumps to the next timer deadline when
        the system is otherwise idle; rounds that cause no observations,
        replacements or spawns count as idle and bound re-arming loops.
        """
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
            if idle_rounds >= max_idle_timer_rounds:
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
                for m in inst.mailbox.ordered():
                    out.append((addr, m))
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
                if inst.template is not None:
                    for rule in inst.template.rules:
                        m = match_patterns(rule.patterns, inst.mailbox, _MATCH_POLICY)
                        if m is not None:
                            inst.mailbox = m.residual
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
                    delay = args[0]
                    if not (isinstance(delay, BaseLit) and type(delay.value) is int):
                        raise MachineError("timer delay must be an Int")
                    due = self.local_time() + delay.value
                    with self._clock_lock:
                        heapq.heappush(self._timers, (due, next(self._timer_seq), args[1]))
                    return Par(())
                self.log.append(Observation(self.local_time(), callee.name, args))
                return Par(())
            if isinstance(callee, ServiceRef) and isinstance(callee.target, Addr):
                self.rt_send(callee.target.address, callee.service, args)
                return Par(())
            raise MachineError(f"request target is not a service reference: {callee!r}")
        if isinstance(e, ServiceRef):
            target = self._eval(e.target)
            return ServiceRef(target, e.service)
        if isinstance(e, Spwn):
            img = self._eval(e.expr)
            return Addr(self.rt_spawn(img, e.placement))
        if isinstance(e, Snap):
            target = self._eval(e.expr)
            if not isinstance(target, Addr):
                raise MachineError("snap needs an address")
            return self.rt_snapshot(target.address)
        if isinstance(e, Repl):
            target = self._eval(e.target)
            image = self._eval(e.image)
            if not isinstance(target, Addr):
                raise MachineError("repl needs an address")
            self.rt_replace(target.address, image)
            return Par(())
        if isinstance(e, Image):
            tmpl = self._eval(e.template)
            buf = tuple(MessageValue(m.service, tuple(self._eval(a) for a in m.args)) for m in e.buffer)
            if not isinstance(tmpl, ServerTemplate):
                raise MachineError("image template must evaluate to a server template")
            return Image(tmpl, buf)
        if isinstance(e, TypeApp):
            inner = self._eval(e.expr)
            if not isinstance(inner, TypeAbs):
                raise MachineError("type application needs a type abstraction")
            return self._eval(substitute_type_in_expr(inner.body, {inner.var: e.arg}))
        if isinstance(e, BaseOp):
            args = tuple(self._eval(a) for a in e.operands)
            return self.apply_builtin(e.op, args)
        if isinstance(e, If):
            c = self._eval(e.cond)
            if isinstance(c, BaseLit) and isinstance(c.value, bool):
                return self._eval(e.then if c.value else e.orelse)
            raise MachineError("if condition must be a Bool")
        if isinstance(e, (TupleV, ListV, MapV)):
            kids = []
            for c in children(e):
                kids.append(self._eval(c))
            return with_children(e, kids)
        raise MachineError(f"cannot evaluate open expression: {e!r}")


def _decode_image(image: Expr, op: str) -> tuple[Optional[ServerTemplate], Mailbox]:
    """(template, mailbox) of an image value; None stands for the inert image."""
    img = _as_spawnable(image)
    if img is None:
        raise MachineError(f"{op} needs a server image, got {image!r}")
    return (img.template, img.mailbox) if isinstance(img, Live) else (None, EMPTY_MAILBOX)


def boot(
    program: Expr,
    virtual_time: bool = False,
    observer_services: tuple[str, ...] = DEFAULT_OBSERVERS,
) -> Runtime:
    """Start a runtime executing `program`; spec-facing convenience."""
    rt = Runtime(virtual_time=virtual_time)
    return rt.boot(program, observer_services)
