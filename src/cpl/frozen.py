"""Frozen dataclasses whose methods are not compiled per class.

`@frozen` makes a class a frozen dataclass: `dataclasses.fields`, `replace`
and `is_dataclass` see the same fields, and `__init__`, `repr`, `==`,
`hash` and the refusal to assign or delete behave the same. But
`dataclasses` compiles generated source for six methods of every class,
which for the toolchain's 53 frozen classes was a third of importing it.
Here each method is compiled once per process and field count, as a
template over the placeholder fields `_0`, `_1`, ...; a class gets a copy
of the template's code object with the placeholders renamed to its fields
(`CodeType.replace`), so `__eq__` and `__hash__` run the bytecode
dataclasses would generate. `__init__` stores each field straight into the
instance's `__dict__`: one `object.__setattr__` call per field cost 1.7
times as much for three fields, and the small-step machine builds nodes at
every step. Reading `__dict__` gives the instance a dict object, 64 bytes
that inline attribute values would not need. `__repr__` has no recursion
guard, as a frozen instance cannot contain itself. A method the class
body defines is kept (`Univ.__eq__`, `Address.__hash__`).

Derived data. Nodes are immutable, so each layer keeps what it derives from
a node on the node. Each datum is declared once, as a `None` class attribute
of the base class that carries it, and read as a plain attribute. `store`
alone writes it, into the instance's `__dict__` (half the cost of getting
round the refusal with `object.__setattr__`), so this module alone decides
where a node keeps it; `memo` computes a datum on its first read.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from types import CodeType, FunctionType
from typing import Callable, Sequence, TypeVar

T = TypeVar("T", bound=type)
V = TypeVar("V")

_GLOBALS: dict = {}
_TEMPLATES: dict[tuple[str, int], CodeType] = {}


def _labels(names: Sequence[str]) -> list[str]:
    """The literal pieces of a repr that precede each field's value."""
    return [("(" if i == 0 else ", ") + f"{n}=" for i, n in enumerate(names)]


def _template(kind: str, n: int) -> CodeType:
    """The code of method `kind` over `n` placeholder fields."""
    code = _TEMPLATES.get((kind, n))
    if code is None:
        ps = [f"_{i}" for i in range(n)]
        mine, theirs = ("".join(f"{x}.{p}," for p in ps) for x in ("self", "other"))
        stores = " __d = self.__dict__\n" + "".join(f" __d[{p!r}] = {p}\n" for p in ps)
        shown = "".join(f"{label}{{self.{p}!r}}" for label, p in zip(_labels(ps), ps)) + (")" if n else "()")
        src = {
            "init": f"def __init__(self, {', '.join(ps)}):\n{stores} pass",
            "init+post": f"def __init__(self, {', '.join(ps)}):\n{stores} self.__post_init__()",
            "eq": "def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
                  f"  return ({mine}) == ({theirs})\n return NotImplemented",
            "hash": f"def __hash__(self):\n return hash(({mine}))",
            "repr": f"def __repr__(self):\n return f'{{self.__class__.__qualname__}}{shown}'",
        }[kind]
        ns: dict = {}
        exec(src, _GLOBALS, ns)
        (fn,) = ns.values()
        code = _TEMPLATES[kind, n] = fn.__code__
    return code


def _method(cls: type, kind: str, names: Sequence[str]) -> FunctionType:
    """Method `kind` of `cls` over the fields `names`: the template's code
    with its placeholders renamed."""
    code = _template(kind, len(names))
    ps = [f"_{i}" for i in range(len(names))]
    rename = dict(zip(ps, names)) | dict(zip(_labels(ps), _labels(names)))

    def sub(xs: tuple) -> tuple:
        return tuple(map(rename.get, xs, xs))

    fn = FunctionType(code.replace(co_varnames=sub(code.co_varnames), co_names=sub(code.co_names),
                                   co_consts=sub(code.co_consts)), _GLOBALS)
    fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    return fn


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls: T) -> T:
    """`cls` as a frozen dataclass whose methods are renamed templates."""
    if not cls.__doc__:
        # dataclass() would otherwise compute one from inspect.signature.
        cls.__doc__ = f"{cls.__name__}({', '.join(cls.__dict__.get('__annotations__', ()))})"
    dataclass(cls, init=False, repr=False, eq=False)
    fs = fields(cls)
    compared = [f.name for f in fs if f.compare]
    init = _method(cls, "init+post" if hasattr(cls, "__post_init__") else "init", [f.name for f in fs])
    init.__defaults__ = tuple(f.default for f in fs if f.default is not MISSING) or None
    init.__annotations__ = {**{f.name: f.type for f in fs}, "return": None}
    cls.__init__ = init  # type: ignore[misc]
    for name, kind, names in (("__repr__", "repr", [f.name for f in fs if f.repr]), ("__eq__", "eq", compared)):
        if name not in cls.__dict__:
            setattr(cls, name, _method(cls, kind, names))
    # A class that defines __eq__ but not __hash__ has __hash__ = None.
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = _method(cls, "hash", compared)  # type: ignore[assignment]
    cls.__setattr__ = _frozen_setattr  # type: ignore[assignment]
    cls.__delattr__ = _frozen_delattr  # type: ignore[assignment]
    return cls


def store(node: object, name: str, value: V) -> V:
    """Set attribute `name` of the frozen node to value, and return value:
    a derived datum, or a field that `__post_init__` normalizes."""
    node.__dict__[name] = value
    return value


def memo(node: object, name: str, compute: Callable[..., V]) -> V:
    """The derived datum `name` of node: `compute(node)`, computed on the
    first read and then kept."""
    value = getattr(node, name)
    if value is None:
        value = store(node, name, compute(node))
    return value
