"""Front-to-back plumbing: prelude loading, checking, and engine drivers."""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass
from typing import Optional

from . import machine, runtime
from .core import BaseLit, Expr, ExternalRef, ListV, Par, TupleV, TypeExpr, substitute
from .desugar import desugar_program
from .errors import CplError
from .machine import wire_observers
from .parser import Program, parse
from .typecheck import LocationTyping, TypeContext, context_from, type_of

BASE_ENV: dict[str, TypeExpr] = {
    name: type_of(TypeContext(), {}, ExternalRef(name)) for name in (*machine.OBSERVERS, "timer")
}

STDLIB_FILES = (
    "prelude.cpl",
    "worker.cpl",
    "loadaware.cpl",
    "balanced.cpl",
    "recover.cpl",
    "grouper.cpl",
    "mapreduce.cpl",
    "supervision.cpl",
)


def stdlib_source(name: str) -> str:
    return importlib.resources.files("cpl").joinpath("stdlib", name).read_text()


@functools.cache
def _parsed_stdlib(name: str) -> Program:
    """The stdlib file parsed once per process; a `Program` is immutable.
    Desugaring stays per load: fresh names depend on the merged program."""
    return parse(stdlib_source(name))


def example_source(name: str) -> str:
    return importlib.resources.files("cpl").joinpath("examples", name).read_text()


def example_path(name: str) -> str:
    return str(importlib.resources.files("cpl").joinpath("examples", name))


def _merge_programs(parts: list[Program]) -> Program:
    aliases = []
    defs = []
    main = None
    for p in parts:
        aliases.extend(p.aliases)
        defs.extend(p.defs)
        if p.main is not None:
            if main is not None:
                raise CplError("multiple main expressions after merging sources")
            main = p.main
    return Program(tuple(aliases), tuple(defs), main)


@dataclass
class Loaded:
    core: Expr
    env: dict[str, TypeExpr]


def load_program(
    text: str,
    include_prelude: bool = True,
    input_value: Optional[Expr] = None,
) -> Loaded:
    """Parse, merge with the stdlib, and desugar to a core expression."""
    parts: list[Program] = []
    if include_prelude:
        parts.extend(_parsed_stdlib(name) for name in STDLIB_FILES)
    parts.append(parse(text))
    merged = _merge_programs(parts)
    if merged.main is None:
        # An empty program (or a pure library file) means the unit expression.
        merged = Program(merged.aliases, merged.defs, Par(()))
    env = dict(BASE_ENV)
    if input_value is not None:
        env["input"] = check_expr(input_value, {})
    core = desugar_program(merged, env)
    if input_value is not None:
        core = substitute(core, {"input": input_value})
    return Loaded(core, env)


def check_expr(core: Expr, env: dict[str, TypeExpr]) -> TypeExpr:
    """Type the whole desugared program under the engine-provided bindings."""
    ctx = context_from(env)
    sigma: LocationTyping = {}
    return type_of(ctx, sigma, core)


def run_smallstep(
    core: Expr,
    seed: int = 0,
    max_steps: int = 500_000,
    record_trace: bool = False,
) -> machine.RunResult:
    wired = wire_observers(core)
    config = machine.initial_config(wired)
    policy = machine.deterministic(seed)
    return machine.run(config, policy, max_steps, record_trace=record_trace)


def run_concurrent(
    core: Expr,
    virtual_time: bool = False,
    timeout_ms: int = 30_000,
) -> runtime.Runtime:
    rt = runtime.boot(core, virtual_time=virtual_time)
    rt.await_quiescence(timeout_ms)
    return rt


def json_to_value(obj) -> Expr:
    """JSON ingestion: arrays are lists, 2-arrays are pairs, objects become
    association lists; strings, ints, floats and booleans are literals."""
    if isinstance(obj, bool):
        return BaseLit(obj)
    if isinstance(obj, (int, float, str)):
        return BaseLit(obj)
    if isinstance(obj, list):
        items = tuple(json_to_value(x) for x in obj)
        if len(obj) == 2:
            return TupleV(items)
        return ListV(items)
    if isinstance(obj, dict):
        return ListV(tuple(TupleV((BaseLit(k), json_to_value(v))) for k, v in obj.items()))
    raise CplError(f"cannot ingest JSON value {obj!r}")
