"""Span tracer for the traced run.

Wraps the public entry points of each toolchain layer at the module (or
class) attributes their callers look up, records one span per layer
boundary and counts every call. Spans live in memory and are written out
when the run ends. The untraced run never installs these wrappers.

A span opens when a wrapped function is entered from outside its layer;
calls from inside the same layer (the typechecker's recursion, `step`
calling `match_patterns`) are only counted. A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from oracles import RULES


def count_nodes(root, expr_cls) -> int:
    """Number of `expr_cls` nodes reachable from a desugared core term."""
    fields_of: dict[type, tuple[str, ...]] = {}
    n = 0
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, (tuple, list)):
            stack.extend(x)
            continue
        cls = type(x)
        names = fields_of.get(cls)
        if names is None:
            names = tuple(getattr(cls, "__dataclass_fields__", ()))
            fields_of[cls] = names
        if not names:
            continue
        if isinstance(x, expr_cls):
            n += 1
        stack.extend(getattr(x, f) for f in names)
    return n


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.step_times: dict[int, list[float]] = defaultdict(list)
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        stack.append((idx, layer))
        return idx

    def _close(self, idx: int) -> float:
        end = perf_counter()
        self._stack().pop()
        span = self.spans[idx]
        span[2] = end
        return end - span[1]

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def peak(self, key: str, value: int) -> None:
        with self._lock:
            if value > self.peaks[key]:
                self.peaks[key] = value

    def begin_op(self, kind: str) -> int:
        self.op += 1
        return self._open(f"op.{kind}", "op")

    def end_op(self, idx: int) -> None:
        self._close(idx)

    def wrap(self, name: str, layer: str, fn, after=None):
        """A wrapper around `fn` that counts calls as `name`, opens a span at
        a layer boundary, and calls `after(result, args, duration)` with the
        span's duration, or None for a same-layer call."""
        tracer = self

        def traced(*args, **kwargs):
            tracer.add(name)
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, None)
                return result
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(idx)
            if after is not None:
                after(result, args, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def patch_function(self, module, attr: str, layer: str, after=None) -> None:
        """Replace `module.attr` in every loaded `cpl` module that holds the
        same function object, since callers look it up in their own module."""
        original = getattr(module, attr)
        wrapper = self.wrap(f"{layer}.{attr}", layer, original, after)
        for modname, mod in list(sys.modules.items()):
            if (modname == "cpl" or modname.startswith("cpl.")) and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, layer: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, layer, original, after))

    def install(self) -> None:
        """Wrap the layer entry points of an imported `cpl` package."""
        from cpl import builtins, core, desugar, machine, parser, runtime, typecheck

        def on_parse(result, args, duration):
            self.add("parser.bytes", len(args[0].encode()))

        def on_desugar(result, args, duration):
            self.add("desugar.core_nodes", count_nodes(result, core.Expr))

        def on_step(result, args, duration):
            if duration is not None:
                self.step_times[self.op].append(duration)
            if result is not None:
                self.add("machine.steps")
                self.add(f"machine.steps.{result.rule}")
                self.peak("machine.peak_instances", len(result.config.table))

        def on_match(result, args, duration):
            self.peak("machine.peak_buffer", len(args[1]))
            if result is not None:
                self.add("machine.match_hits")

        def on_render(result, args, duration):
            self.add("pretty.trace_bytes", len(result.encode()))

        def on_quiescence(result, args, duration):
            rt = args[0]
            self.add("runtime.dropped", len(rt.dropped))
            self.add("runtime.instances_end", len(rt._instances))
            self.add("runtime.pending_end", len(rt.pending_summary()))

        self.patch_function(parser, "parse", "parser", on_parse)
        self.patch_function(desugar, "desugar_program", "desugar", on_desugar)
        self.patch_function(typecheck, "type_of", "typecheck")
        self.patch_function(typecheck, "subtype", "typecheck")
        self.patch_function(machine, "step", "machine", on_step)
        self.patch_function(machine, "match_patterns", "machine", on_match)
        self.patch_function(machine, "digest", "machine")
        self.patch_function(builtins, "apply_builtin", "builtins")
        self.patch_method(machine.Trace, "render", "pretty", "pretty.render", on_render)
        for attr in ("rt_send", "rt_spawn", "rt_snapshot", "rt_replace"):
            self.patch_method(runtime.Runtime, attr, "runtime", f"runtime.{attr}")
        self.patch_method(
            runtime.Runtime, "await_quiescence", "runtime", "runtime.await_quiescence", on_quiescence
        )

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: (self time, inclusive time), in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        own: Counter = Counter()
        total: Counter = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own[name] += (end - start) - covered[i]
            total[name] += end - start
        return own, total

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"]}) + "\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps([i, name, round(start, 7), round(end, 7), parent, op]) + "\n")

    def metrics(self, code_lines: dict[str, int], lines_total: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        own, total = self.self_times()
        c, p = self.counts, self.peaks
        steps = c["machine.steps"]
        last_decile: list[float] = []
        for times in self.step_times.values():
            last_decile.extend(times[len(times) - math.ceil(len(times) / 10):])
        quiescence_s = total["runtime.await_quiescence"]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {
            "parser.self_s": (own["parser.parse"], "s"),
            "parser.kb_per_s": (ratio(c["parser.bytes"] / 1024, own["parser.parse"]), "KiB/s"),
            "desugar.self_s": (own["desugar.desugar_program"], "s"),
            "desugar.core_nodes": (c["desugar.core_nodes"], "count"),
            "typecheck.self_s": (own["typecheck.type_of"] + own["typecheck.subtype"], "s"),
            "typecheck.type_of_calls": (c["typecheck.type_of"], "count"),
            "typecheck.subtype_calls": (c["typecheck.subtype"], "count"),
            "machine.steps": (steps, "count"),
        }
        for rule in RULES:
            m[f"machine.steps.{rule}"] = (c[f"machine.steps.{rule}"], "count")
        m.update({
            "machine.self_s": (own["machine.step"], "s"),
            "machine.us_per_step": (ratio(total["machine.step"] * 1e6, steps), "us"),
            "machine.us_per_step_last_decile": (ratio(sum(last_decile) * 1e6, len(last_decile)), "us"),
            "machine.match_calls": (c["machine.match_patterns"], "count"),
            "machine.match_hit_ratio": (ratio(c["machine.match_hits"], c["machine.match_patterns"]), "ratio"),
            "machine.peak_instances": (p["machine.peak_instances"], "count"),
            "machine.peak_buffer": (p["machine.peak_buffer"], "count"),
            "builtins.calls": (c["builtins.apply_builtin"], "count"),
            "machine.digest_calls": (c["machine.digest"], "count"),
            "machine.digest_s": (total["machine.digest"], "s"),
            "pretty.trace_render_s": (total["pretty.render"], "s"),
            "pretty.trace_bytes": (c["pretty.trace_bytes"], "bytes"),
            "runtime.self_s": (own["runtime.await_quiescence"], "s"),
            "runtime.sends": (c["runtime.rt_send"], "count"),
            "runtime.sends_per_s": (ratio(c["runtime.rt_send"], quiescence_s), "1/s"),
            "runtime.spawns": (c["runtime.rt_spawn"], "count"),
            "runtime.snapshots": (c["runtime.rt_snapshot"], "count"),
            "runtime.replaces": (c["runtime.rt_replace"], "count"),
            "runtime.dropped": (c["runtime.dropped"], "count"),
            "runtime.instances_end": (c["runtime.instances_end"], "count"),
            "runtime.pending_end": (c["runtime.pending_end"], "count"),
            "runtime.threads_left": (c["runtime.threads_left"], "count"),
        })
        for module, lines in code_lines.items():
            m[f"code.lines.{module}"] = (lines, "lines")
        m["code.lines_total"] = (lines_total, "lines")
        m["bench.trace_overhead_ratio"] = (overhead_ratio, "ratio")
        return m
