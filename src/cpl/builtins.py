"""Base operations: one table, `OPS`, describes each of them once.

An `Op` holds an operation's arity, its evaluator and its type rule.

- The evaluator runs over value operands. It checks their kinds at run time,
  because buffers and lists may hold arbitrary values. freshID/localTime are
  impure and go through the `EffectContext` of the executing engine.
- The type rule is written against `Operands`, a view of the operands that
  its caller supplies. The typechecker's view checks each operand and raises
  its type errors. The desugarer's view, used to synthesize `let`
  annotations, skips the checks and gives up on operands it cannot type.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, NoReturn, Optional, Protocol

from .core import (
    BOOL,
    INT,
    STRING,
    BaseLit,
    Bot,
    DataT,
    Expr,
    Image,
    ImgT,
    ListV,
    MapV,
    TupleV,
    TypeExpr,
    is_value,
)
from .errors import MachineError

PROJECTIONS = ("fst", "snd", "thrd", "frth")


@dataclass
class EffectContext:
    """Impure hooks; each engine provides its own linearizable versions."""

    fresh_id: Callable[[], int]
    local_time: Callable[[], int]


class Operands(Protocol):
    """The operands of one base operation, as its type rule sees them."""

    op: str

    def type(self, i: int) -> TypeExpr:
        """Operand i's type, type variables kept."""

    def shape(self, i: int) -> TypeExpr:
        """Operand i's type, type variables replaced by their bounds."""

    def want(self, i: int, t: TypeExpr) -> None:
        """Require operand i to be a subtype of t."""

    def want_key(self, i: int, key: TypeExpr) -> None:
        """Require operand i to be a subtype or a supertype of a map's key type."""

    def join(self, t: TypeExpr, u: TypeExpr) -> TypeExpr:
        """The larger of two types, one of which must be a subtype of the other."""

    def fail(self, kind: str, msg: str, expected: Optional[TypeExpr] = None,
             actual: Optional[TypeExpr] = None) -> NoReturn:
        """Reject the operands."""


@dataclass(frozen=True)
class Op:
    arity: int
    run: Callable[[tuple[Expr, ...], EffectContext], Expr]
    rule: Callable[[Operands], TypeExpr]


# Evaluators ------------------------------------------------------------------


class _Fault(Exception):
    """A run-time fault; `apply_builtin` names the operation."""


def _lit_value(e: Expr, kinds: tuple[type, ...], what: str):
    # Python's bool is an int; a Bool operand is taken only where bool is asked for.
    if isinstance(e, BaseLit) and isinstance(e.value, kinds) and (bool in kinds or not isinstance(e.value, bool)):
        return e.value
    raise _Fault(f"expected {what}, got {e!r}")


def _num(e: Expr) -> int | float:
    return _lit_value(e, (int, float), "a number")


def _bool(e: Expr) -> bool:
    return _lit_value(e, (bool,), "a Bool")


def _str(e: Expr) -> str:
    return _lit_value(e, (str,), "a String")


def _node(e: Expr, cls: type, what: str):
    if isinstance(e, cls):
        return e
    raise _Fault(f"expected {what}, got {e!r}")


def _items(e: Expr) -> tuple[Expr, ...]:
    return _node(e, ListV, "a List").items


def _entries(e: Expr) -> tuple[tuple[Expr, Expr], ...]:
    return _node(e, MapV, "a Map").entries


def _values_equal(a: Expr, b: Expr) -> bool:
    """Structural equality on values; distinct kinds compare unequal, also
    inside tuples, lists and maps, so `true` is neither `1` nor `1.0` (Python's
    own `==` says it is). Int and Float compare as numbers: `1 == 1.0`."""
    if isinstance(a, BaseLit) and isinstance(b, BaseLit):
        return a.value == b.value and isinstance(a.value, bool) == isinstance(b.value, bool)
    if isinstance(a, (TupleV, ListV)) and type(a) is type(b):
        return len(a.items) == len(b.items) and all(map(_values_equal, a.items, b.items))
    if isinstance(a, MapV) and isinstance(b, MapV):
        return len(a.entries) == len(b.entries) and all(
            _values_equal(k, l) and _values_equal(v, w) for (k, v), (l, w) in zip(a.entries, b.entries)
        )
    return a == b


def _map_get(m: Expr, key: Expr) -> Optional[Expr]:
    for k, v in _entries(m):
        if _values_equal(k, key):
            return v
    return None


def _map_put(m: Expr, key: Expr, val: Expr) -> MapV:
    return MapV(tuple((k, v) for k, v in _entries(m) if not _values_equal(k, key)) + ((key, val),))


def _numeric(fn: Callable[[int | float, int | float], int | float | bool]):
    return lambda args, fx: BaseLit(fn(_num(args[0]), _num(args[1])))


def _project(idx: int):
    def run(args: tuple[Expr, ...], fx: EffectContext) -> Expr:
        items = _node(args[0], TupleV, "a tuple").items
        if len(items) <= idx:
            raise _Fault(f"tuple has only {len(items)} components")
        return items[idx]

    return run


def _nonempty(e: Expr) -> tuple[Expr, ...]:
    items = _items(e)
    if not items:
        raise _Fault("empty list")
    return items


def _range(args: tuple[Expr, ...], fx: EffectContext) -> Expr:
    lo, hi = (_lit_value(a, (int,), "an Int") for a in args)
    return ListV(tuple(BaseLit(i) for i in range(lo, hi + 1)))


def _size(args: tuple[Expr, ...], fx: EffectContext) -> Expr:
    v = args[0]
    if isinstance(v, ListV):
        return BaseLit(len(v.items))
    if isinstance(v, MapV):
        return BaseLit(len(v.entries))
    raise _Fault(f"expected a List or Map, got {v!r}")


def _mk_map(args: tuple[Expr, ...], fx: EffectContext) -> Expr:
    m = MapV(())
    for p in _items(args[0]):
        pair = _node(p, TupleV, "a tuple").items
        if len(pair) != 2:
            raise _Fault("entries must be pairs")
        m = _map_put(m, pair[0], pair[1])
    return m


def _get(args: tuple[Expr, ...], fx: EffectContext) -> Expr:
    v = _map_get(args[0], args[1])
    if v is None:
        raise _Fault(f"missing key {args[1]!r}")
    return v


def _get_or(args: tuple[Expr, ...], fx: EffectContext) -> Expr:
    v = _map_get(args[0], args[1])
    return args[2] if v is None else v


def _filter_buffer(args: tuple[Expr, ...], fx: EffectContext) -> Expr:
    img, names = args
    drop = {_str(n) for n in _items(names)}
    img = _node(img, Image, "a server image")
    return Image(img.template, tuple(m for m in img.buffer if m.service not in drop))


# Type rules ------------------------------------------------------------------


def _list_of(t: TypeExpr) -> DataT:
    return DataT("List", (t,))


def _typed(result: TypeExpr, *operands: TypeExpr) -> Callable[[Operands], TypeExpr]:
    """The rule of an operation whose operands have fixed types."""

    def rule(v: Operands) -> TypeExpr:
        for i, t in enumerate(operands):
            v.want(i, t)
        return result

    return rule


def _elem(v: Operands, i: int) -> TypeExpr:
    """The element type of list operand i."""
    t = v.shape(i)
    if isinstance(t, DataT) and t.ctor == "List":
        return t.args[0]
    if isinstance(t, Bot):
        return t
    v.fail("NotASubtype", f"{v.op}: operand {i + 1} must be a List", actual=t)


def _entry(v: Operands, i: int) -> tuple[TypeExpr, TypeExpr]:
    """The key and value types of map operand i."""
    t = v.shape(i)
    if isinstance(t, DataT) and t.ctor == "Map":
        return t.args[0], t.args[1]
    if isinstance(t, Bot):
        return t, t
    v.fail("NotASubtype", f"{v.op}: operand {i + 1} must be a Map", actual=t)


def _component(idx: int) -> Callable[[Operands], TypeExpr]:
    def rule(v: Operands) -> TypeExpr:
        t = v.shape(0)
        if isinstance(t, DataT) and t.ctor == "Tuple" and len(t.args) > idx:
            return t.args[idx]
        v.fail("NotASubtype", f"{v.op}: operand must be a wide-enough tuple", actual=t)

    return rule


def _shaped(check: Callable[[Operands, int], object], result: TypeExpr) -> Callable[[Operands], TypeExpr]:
    """The rule of an operation that needs only operand 1's shape: `check`."""

    def rule(v: Operands) -> TypeExpr:
        check(v, 0)
        return result

    return rule


def _size_t(v: Operands) -> TypeExpr:
    t = v.shape(0)
    if isinstance(t, DataT) and t.ctor in ("List", "Map"):
        return INT
    v.fail("NotASubtype", "size: operand must be a List or Map", actual=t)


def _mk_map_t(v: Operands) -> TypeExpr:
    elem = _elem(v, 0)
    if isinstance(elem, DataT) and elem.ctor == "Tuple" and len(elem.args) == 2:
        return DataT("Map", elem.args)
    if isinstance(elem, Bot):
        return DataT("Map", (elem, elem))
    v.fail("NotASubtype", "mkMap: operand must be a list of pairs", actual=v.type(0))


def _get_t(v: Operands) -> TypeExpr:
    key, val = _entry(v, 0)
    v.want_key(1, key)
    return val


def _put_t(v: Operands) -> TypeExpr:
    key, val = _entry(v, 0)
    return DataT("Map", (v.join(key, v.type(1)), v.join(val, v.type(2))))


def _filter_buffer_t(v: Operands) -> TypeExpr:
    t = v.shape(0)
    if not isinstance(t, ImgT):
        v.fail("NotAnImage", "filterBuffer: operand must be an image", actual=t)
    v.want(1, _list_of(STRING))
    return t


# The table -------------------------------------------------------------------

_ARITH = _typed(INT, INT, INT)
_CMP = _typed(BOOL, INT, INT)
_LOGIC = _typed(BOOL, BOOL, BOOL)


def _div(a: int | float, b: int | float) -> int | float:
    return a // b if isinstance(a, int) and isinstance(b, int) else a / b


OPS: dict[str, Op] = {
    "add": Op(2, _numeric(operator.add), _ARITH),
    "sub": Op(2, _numeric(operator.sub), _ARITH),
    "mul": Op(2, _numeric(operator.mul), _ARITH),
    "div": Op(2, _numeric(_div), _ARITH),
    "mod": Op(2, _numeric(operator.mod), _ARITH),
    "max": Op(2, _numeric(max), _ARITH),
    "min": Op(2, _numeric(min), _ARITH),
    "le": Op(2, _numeric(operator.le), _CMP),
    "lt": Op(2, _numeric(operator.lt), _CMP),
    "ge": Op(2, _numeric(operator.ge), _CMP),
    "gt": Op(2, _numeric(operator.gt), _CMP),
    "eq": Op(2, lambda args, fx: BaseLit(_values_equal(*args)), lambda v: BOOL),
    "neq": Op(2, lambda args, fx: BaseLit(not _values_equal(*args)), lambda v: BOOL),
    "not": Op(1, lambda args, fx: BaseLit(not _bool(args[0])), _typed(BOOL, BOOL)),
    "and": Op(2, lambda args, fx: BaseLit(_bool(args[0]) and _bool(args[1])), _LOGIC),
    "or": Op(2, lambda args, fx: BaseLit(_bool(args[0]) or _bool(args[1])), _LOGIC),
    **{name: Op(1, _project(i), _component(i)) for i, name in enumerate(PROJECTIONS)},
    "head": Op(1, lambda args, fx: _nonempty(args[0])[0], lambda v: _elem(v, 0)),
    "tail": Op(1, lambda args, fx: ListV(_nonempty(args[0])[1:]), lambda v: _list_of(_elem(v, 0))),
    "cons": Op(
        2, lambda args, fx: ListV((args[0],) + _items(args[1])),
        lambda v: _list_of(v.join(v.type(0), _elem(v, 1))),
    ),
    "isEmpty": Op(1, lambda args, fx: BaseLit(not _items(args[0])), _shaped(_elem, BOOL)),
    "append": Op(
        2, lambda args, fx: ListV(_items(args[0]) + _items(args[1])),
        lambda v: _list_of(v.join(_elem(v, 0), _elem(v, 1))),
    ),
    "reverse": Op(1, lambda args, fx: ListV(_items(args[0])[::-1]), lambda v: _list_of(_elem(v, 0))),
    "range": Op(2, _range, _typed(_list_of(INT), INT, INT)),
    "len": Op(1, lambda args, fx: BaseLit(len(_str(args[0]))), _typed(INT, STRING)),
    "split": Op(
        1, lambda args, fx: ListV(tuple(BaseLit(w) for w in _str(args[0]).split())),
        _typed(_list_of(STRING), STRING),
    ),
    "concat": Op(2, lambda args, fx: BaseLit(_str(args[0]) + _str(args[1])), _typed(STRING, STRING, STRING)),
    "freshID": Op(0, lambda args, fx: BaseLit(fx.fresh_id()), _typed(INT)),
    "localTime": Op(0, lambda args, fx: BaseLit(fx.local_time()), _typed(INT)),
    "size": Op(1, _size, _size_t),
    "mkMap": Op(1, _mk_map, _mk_map_t),
    "get": Op(2, _get, _get_t),
    "getOr": Op(3, _get_or, lambda v: v.join(_entry(v, 0)[1], v.type(2))),
    "put": Op(3, lambda args, fx: _map_put(*args), _put_t),
    "hasKey": Op(2, lambda args, fx: BaseLit(_map_get(args[0], args[1]) is not None), _shaped(_entry, BOOL)),
    "keys": Op(
        1, lambda args, fx: ListV(tuple(k for k, _ in _entries(args[0]))),
        lambda v: _list_of(_entry(v, 0)[0]),
    ),
    "items": Op(
        1, lambda args, fx: ListV(tuple(TupleV(kv) for kv in _entries(args[0]))),
        lambda v: _list_of(DataT("Tuple", _entry(v, 0))),
    ),
    "mapValues": Op(
        1, lambda args, fx: ListV(tuple(v for _, v in _entries(args[0]))),
        lambda v: _list_of(_entry(v, 0)[1]),
    ),
    "filterBuffer": Op(2, _filter_buffer, _filter_buffer_t),
}


def is_builtin(name: str) -> bool:
    return name in OPS


def apply_builtin(name: str, args: tuple[Expr, ...], fx: EffectContext) -> Expr:
    """Evaluate one base operation over value operands."""
    op = OPS.get(name)
    if op is None:
        raise MachineError(f"unknown base operation {name!r}")
    if len(args) != op.arity:
        raise MachineError(f"{name}: expected {op.arity} operands, got {len(args)}")
    for a in args:
        if not is_value(a):
            raise MachineError(f"{name}: operand not a value: {a!r}")
    try:
        return op.run(args, fx)
    except _Fault as exc:
        raise MachineError(f"{name}: {exc}") from None
    except ZeroDivisionError:
        raise MachineError(f"{name}: division by zero") from None
