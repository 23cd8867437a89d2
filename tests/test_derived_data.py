"""The derived-data protocol of `cpl.frozen`: every datum a layer keeps on a
node is declared once, as a `None` class attribute of a base class, and only
`cpl.frozen` writes it or decides where a node keeps it."""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import cpl.core as core
import cpl.frozen as frozen_mod
import cpl.machine as machine
import cpl.parser as parser
import cpl.toolchain as tc
from cpl.core import Var
from cpl.frozen import memo, store

EXAMPLES = sorted(p.name for p in (Path(core.__file__).parent / "examples").glob("*.cpl"))
SRC = Path(core.__file__).parent


def _frozen(x) -> bool:
    """x is a frozen class, or an instance of one."""
    cls = x if isinstance(x, type) else type(x)
    return dataclasses.is_dataclass(cls) and cls.__setattr__ is frozen_mod._frozen_setattr


def declared(cls: type) -> set[str]:
    """The derived data that cls's bases declare."""
    return {n for k in cls.__mro__ for n in vars(k) if n.startswith("_") and n.endswith("cache")}


def frozen_classes_in_use():
    mods = [importlib.import_module(f"cpl.{m}") for m in ("builtins", "core", "errors", "machine", "parser", "typecheck")]
    return {c for m in mods for c in vars(m).values() if isinstance(c, type) and _frozen(c)}


def test_every_datum_is_declared_once_as_none():
    """Each derived datum of a node class is declared `None` on exactly one
    class it inherits from; a subclass may carry a class-level value flag
    (`_vcache`) over it."""
    classes = frozen_classes_in_use()
    assert len(classes) >= 50
    for cls in classes:
        for name in declared(cls):
            nones = [k for k in cls.__mro__ if name in vars(k) and vars(k)[name] is None]
            assert len(nones) == 1, (cls, name, nones)
    assert declared(core.Var) >= {"_vcache", "_fvcache", "_tvcache", "_scache", "_pcache", "_tycache"}
    assert declared(core.BaseT) == {"_tvcache", "_excache", "_ptcache"}
    assert declared(core.ReactionRule) == {"_ccache"}
    assert declared(parser.Definition) == {"_ldcache"}


def _walk(roots):
    """Every object reachable from roots through containers, the fields and
    derived data of nodes, and the attributes of the toolchain's objects."""
    seen, todo = set(), list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (str, int, float, bool, type(None), type)) or callable(x):
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, dict):
            todo.extend(x.keys())
            todo.extend(x.values())
        elif isinstance(x, (tuple, list, set, frozenset)):
            todo.extend(x)
        elif type(x).__module__.startswith("cpl.") and hasattr(x, "__dict__"):
            todo.extend(vars(x).values())


def _stdlib_roots():
    return [tc._parsed_stdlib(name) for name in tc.STDLIB_FILES]


@pytest.mark.parametrize("name", EXAMPLES)
def test_nodes_hold_only_their_fields_and_declared_data(name):
    """After load, check, both engines and a trace, every frozen node
    reachable from the final terms, routing tables and stdlib trees holds in
    its instance dict its fields and declared derived data, nothing else."""
    loaded = tc.load_program(tc.example_source(name))
    tc.check_expr(loaded.core, loaded.env)
    ran = tc.run_smallstep(loaded.core, seed=1)
    texts = []
    traced = tc.run_smallstep(loaded.core, seed=1, max_steps=2000, sink=lambda s: texts.append(machine.Trace([s]).render()))
    assert texts
    rt = tc.run_concurrent(loaded.core, virtual_time=True)
    try:
        roots = [loaded.core, ran.final, traced.final, rt, *_stdlib_roots()]
        nodes = [x for x in _walk(roots) if _frozen(x)]
    finally:
        rt.shutdown()
    kept = {n for x in nodes for n in vars(x)} - {f.name for x in nodes for f in dataclasses.fields(x)}
    assert {"_fvcache", "_pcache", "_ldcache"} <= kept
    for x in nodes:
        fields = {f.name for f in dataclasses.fields(x)}
        assert set(vars(x)) - fields <= declared(type(x)), (type(x), set(vars(x)) - fields)


def test_memo_computes_once_per_node():
    calls = []

    def compute(node):
        calls.append(node)
        return f"text {len(calls)}"

    a, b = Var("a"), Var("a")
    assert [memo(n, "_pcache", compute) for n in (a, b, a, b, a)] == ["text 1", "text 2", "text 1", "text 2", "text 1"]
    assert len(calls) == 2 and calls[0] is a and calls[1] is b
    # Derived data is no field: equality, hash and repr do not see it.
    assert a == b and hash(a) == hash(b) and repr(a) == repr(Var("a"))
    assert store(a, "_fvcache", frozenset("a")) == a._fvcache == {"a"}


def test_only_frozen_writes_or_reads_derived_data_around_the_protocol():
    """No module but `cpl.frozen` gets round the refusal to assign with
    `object.__setattr__` or reads a derived datum with a `getattr` default:
    reads are plain attribute reads, and writes go through `store`/`memo`."""
    banned = re.compile(r"object\.__setattr__|getattr\([^)]*[\"']_\w*cache[\"']")
    hits = [
        f"{p.name}:{i}: {line.strip()}"
        for p in sorted(SRC.glob("*.py")) if p.name != "frozen.py"
        for i, line in enumerate(p.read_text().splitlines(), 1) if banned.search(line)
    ]
    assert len(list(SRC.glob("*.py"))) > 10
    assert hits == []
