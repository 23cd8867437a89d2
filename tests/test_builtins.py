"""Base operations: evaluator, type rule and synthesized annotation per op.

`PINNED` records, for every base operation, what the toolchain did before
the three descriptions of each operation (evaluator, checker rule,
desugarer annotation) became one table. It was generated by `observe`
below; the rewrite must reproduce it exactly.
"""

import json

import pytest
from conftest import cc_obs, run_cc, run_ss, ss_obs

from cpl.builtins import OPS, EffectContext, apply_builtin, is_builtin
from cpl.cli import main
from cpl.core import (
    BaseLit,
    BaseOp,
    BaseT,
    Bot,
    DataT,
    Image,
    JoinPattern,
    ListV,
    MapV,
    MessageValue,
    Par,
    ReactionRule,
    Request,
    ServerTemplate,
    SvcT,
    Top,
    TupleV,
    Var,
)
from cpl.desugar import desugar_program
from cpl.errors import DesugarError, MachineError
from cpl.parser import Program, SLet
from cpl.pretty import pretty_expr, pretty_type
from cpl.typecheck import TypeCheckError, TypeContext, context_from, subtype, type_of

EMPTY = TypeContext()


def _lit(v):
    return BaseLit(v)


def _list(*vs):
    return ListV(tuple(_lit(v) for v in vs))


_MAP = MapV(((_lit("a"), _lit(1)), (_lit("b"), _lit(2))))
_TUPLE4 = TupleV((_lit(1), _lit("a"), _lit(True), _lit(2.5)))
_TEMPLATE = ServerTemplate((
    ReactionRule((JoinPattern("a", (("x", BaseT("Int")),)),), Par(())),
    ReactionRule((JoinPattern("b", ()),), Par(())),
))
_IMAGE = Image(_TEMPLATE, (MessageValue("a", (_lit(1),)), MessageValue("b", ())))

# Well-typed value operands for every base operation.
SAMPLES = {
    "add": (_lit(7), _lit(3)),
    "sub": (_lit(7), _lit(3)),
    "mul": (_lit(7), _lit(3)),
    "div": (_lit(7), _lit(2)),
    "mod": (_lit(7), _lit(3)),
    "max": (_lit(7), _lit(3)),
    "min": (_lit(7), _lit(3)),
    "le": (_lit(2), _lit(3)),
    "lt": (_lit(2), _lit(3)),
    "ge": (_lit(2), _lit(3)),
    "gt": (_lit(2), _lit(3)),
    "eq": (_lit(2), _lit(2)),
    "neq": (_lit(2), _lit(3)),
    "not": (_lit(True),),
    "and": (_lit(True), _lit(False)),
    "or": (_lit(True), _lit(False)),
    "fst": (_TUPLE4,),
    "snd": (_TUPLE4,),
    "thrd": (_TUPLE4,),
    "frth": (_TUPLE4,),
    "head": (_list(1, 2, 3),),
    "tail": (_list(1, 2, 3),),
    "cons": (_lit(0), _list(1, 2)),
    "isEmpty": (_list(1, 2, 3),),
    "append": (_list(1), _list(2, 3)),
    "reverse": (_list(1, 2, 3),),
    "range": (_lit(1), _lit(3)),
    "len": (_lit("abc"),),
    "split": (_lit("a b"),),
    "concat": (_lit("a"), _lit("b")),
    "freshID": (),
    "localTime": (),
    "size": (_list(1, 2),),
    "mkMap": (ListV((TupleV((_lit("a"), _lit(1))), TupleV((_lit("b"), _lit(2))))),),
    "get": (_MAP, _lit("a")),
    "getOr": (_MAP, _lit("c"), _lit(0)),
    "put": (_MAP, _lit("c"), _lit(3)),
    "hasKey": (_MAP, _lit("a")),
    "keys": (_MAP,),
    "items": (_MAP,),
    "mapValues": (_MAP,),
    "filterBuffer": (_IMAGE, _list("b")),
}


def _effects() -> EffectContext:
    return EffectContext(fresh_id=lambda: 41, local_time=lambda: 5)


def _checked(e) -> str:
    try:
        return "ok: " + pretty_type(type_of(EMPTY, {}, e))
    except TypeCheckError as exc:
        return str(exc)


def _wrong_kind(operand):
    if isinstance(operand, BaseLit) and isinstance(operand.value, str):
        return BaseLit(1)
    return BaseLit("s")


def _annotation(op: str) -> str:
    """The annotation desugar gives `let x = op(a0, ..) in result<x>`."""
    names = tuple(f"a{i}" for i in range(len(SAMPLES[op])))
    env = {n: type_of(EMPTY, {}, v) for n, v in zip(names, SAMPLES[op])}
    env["result"] = SvcT((Top(),))
    rhs = BaseOp(op, tuple(Var(n) for n in names))
    prog = Program((), (), SLet("x", None, rhs, Request(Var("result"), (Var("x"),))))
    try:
        core = desugar_program(prog, env)
    except DesugarError as exc:
        return f"DesugarError: {exc}"
    [pattern] = core.callee.target.expr.rules[0].patterns
    return pretty_type(pattern.params[0][1])


def observe(op: str) -> tuple:
    """(checker type, wrong operand kind, wrong arity, value, annotation)."""
    args = SAMPLES[op]
    wrong = "n/a" if not args else _checked(BaseOp(op, (_wrong_kind(args[0]),) + args[1:]))
    return (
        _checked(BaseOp(op, args)),
        wrong,
        _checked(BaseOp(op, args + (BaseLit(0),))),
        pretty_expr(apply_builtin(op, args, _effects())),
        _annotation(op),
    )


PINNED = {
    'add': (
        'ok: Int',
        'NotASubtype: add: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: add takes 2 operands, got 3',
        '10',
        'Int',
    ),
    'sub': (
        'ok: Int',
        'NotASubtype: sub: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: sub takes 2 operands, got 3',
        '4',
        'Int',
    ),
    'mul': (
        'ok: Int',
        'NotASubtype: mul: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: mul takes 2 operands, got 3',
        '21',
        'Int',
    ),
    'div': (
        'ok: Int',
        'NotASubtype: div: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: div takes 2 operands, got 3',
        '3',
        'Int',
    ),
    'mod': (
        'ok: Int',
        'NotASubtype: mod: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: mod takes 2 operands, got 3',
        '1',
        'Int',
    ),
    'max': (
        'ok: Int',
        'NotASubtype: max: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: max takes 2 operands, got 3',
        '7',
        'Int',
    ),
    'min': (
        'ok: Int',
        'NotASubtype: min: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: min takes 2 operands, got 3',
        '3',
        'Int',
    ),
    'le': (
        'ok: Bool',
        'NotASubtype: le: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: le takes 2 operands, got 3',
        'true',
        'Bool',
    ),
    'lt': (
        'ok: Bool',
        'NotASubtype: lt: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: lt takes 2 operands, got 3',
        'true',
        'Bool',
    ),
    'ge': (
        'ok: Bool',
        'NotASubtype: ge: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: ge takes 2 operands, got 3',
        'false',
        'Bool',
    ),
    'gt': (
        'ok: Bool',
        'NotASubtype: gt: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: gt takes 2 operands, got 3',
        'false',
        'Bool',
    ),
    'eq': (
        'ok: Bool',
        'ok: Bool',
        'ArityMismatch: eq takes 2 operands, got 3',
        'true',
        'Bool',
    ),
    'neq': (
        'ok: Bool',
        'ok: Bool',
        'ArityMismatch: neq takes 2 operands, got 3',
        'true',
        'Bool',
    ),
    'not': (
        'ok: Bool',
        'NotASubtype: not: operand 1 has the wrong type (expected Bool, got String)',
        'ArityMismatch: not takes 1 operands, got 2',
        'false',
        'Bool',
    ),
    'and': (
        'ok: Bool',
        'NotASubtype: and: operand 1 has the wrong type (expected Bool, got String)',
        'ArityMismatch: and takes 2 operands, got 3',
        'false',
        'Bool',
    ),
    'or': (
        'ok: Bool',
        'NotASubtype: or: operand 1 has the wrong type (expected Bool, got String)',
        'ArityMismatch: or takes 2 operands, got 3',
        'true',
        'Bool',
    ),
    'fst': (
        'ok: Int',
        'NotASubtype: fst: operand must be a wide-enough tuple (got String)',
        'ArityMismatch: fst takes 1 operands, got 2',
        '1',
        'Int',
    ),
    'snd': (
        'ok: String',
        'NotASubtype: snd: operand must be a wide-enough tuple (got String)',
        'ArityMismatch: snd takes 1 operands, got 2',
        '"a"',
        'String',
    ),
    'thrd': (
        'ok: Bool',
        'NotASubtype: thrd: operand must be a wide-enough tuple (got String)',
        'ArityMismatch: thrd takes 1 operands, got 2',
        'true',
        'Bool',
    ),
    'frth': (
        'ok: Float',
        'NotASubtype: frth: operand must be a wide-enough tuple (got String)',
        'ArityMismatch: frth takes 1 operands, got 2',
        '2.5',
        'Float',
    ),
    'head': (
        'ok: Int',
        'NotASubtype: head: operand 1 must be a List (got String)',
        'ArityMismatch: head takes 1 operands, got 2',
        '1',
        'Int',
    ),
    'tail': (
        'ok: List[Int]',
        'NotASubtype: tail: operand 1 must be a List (got String)',
        'ArityMismatch: tail takes 1 operands, got 2',
        '[2, 3]',
        'List[Int]',
    ),
    'cons': (
        'ok: List[Int]',
        'NotASubtype: incompatible types in cons (expected String, got Int)',
        'ArityMismatch: cons takes 2 operands, got 3',
        '[0, 1, 2]',
        'List[Int]',
    ),
    'isEmpty': (
        'ok: Bool',
        'NotASubtype: isEmpty: operand 1 must be a List (got String)',
        'ArityMismatch: isEmpty takes 1 operands, got 2',
        'false',
        'Bool',
    ),
    'append': (
        'ok: List[Int]',
        'NotASubtype: append: operand 1 must be a List (got String)',
        'ArityMismatch: append takes 2 operands, got 3',
        '[1, 2, 3]',
        'List[Int]',
    ),
    'reverse': (
        'ok: List[Int]',
        'NotASubtype: reverse: operand 1 must be a List (got String)',
        'ArityMismatch: reverse takes 1 operands, got 2',
        '[3, 2, 1]',
        'List[Int]',
    ),
    'range': (
        'ok: List[Int]',
        'NotASubtype: range: operand 1 has the wrong type (expected Int, got String)',
        'ArityMismatch: range takes 2 operands, got 3',
        '[1, 2, 3]',
        'List[Int]',
    ),
    'len': (
        'ok: Int',
        'NotASubtype: len: operand 1 has the wrong type (expected String, got Int)',
        'ArityMismatch: len takes 1 operands, got 2',
        '3',
        'Int',
    ),
    'split': (
        'ok: List[String]',
        'NotASubtype: split: operand 1 has the wrong type (expected String, got Int)',
        'ArityMismatch: split takes 1 operands, got 2',
        '["a", "b"]',
        'List[String]',
    ),
    'concat': (
        'ok: String',
        'NotASubtype: concat: operand 1 has the wrong type (expected String, got Int)',
        'ArityMismatch: concat takes 2 operands, got 3',
        '"ab"',
        'String',
    ),
    'freshID': (
        'ok: Int',
        'n/a',
        'ArityMismatch: freshID takes 0 operands, got 1',
        '41',
        'Int',
    ),
    'localTime': (
        'ok: Int',
        'n/a',
        'ArityMismatch: localTime takes 0 operands, got 1',
        '5',
        'Int',
    ),
    'size': (
        'ok: Int',
        'NotASubtype: size: operand must be a List or Map (got String)',
        'ArityMismatch: size takes 1 operands, got 2',
        '2',
        'Int',
    ),
    'mkMap': (
        'ok: Map[String, Int]',
        'NotASubtype: mkMap: operand 1 must be a List (got String)',
        'ArityMismatch: mkMap takes 1 operands, got 2',
        'mkMap([("a", 1), ("b", 2)])',
        'Map[String, Int]',
    ),
    'get': (
        'ok: Int',
        'NotASubtype: get: operand 1 must be a Map (got String)',
        'ArityMismatch: get takes 2 operands, got 3',
        '1',
        'Int',
    ),
    'getOr': (
        'ok: Int',
        'NotASubtype: getOr: operand 1 must be a Map (got String)',
        'ArityMismatch: getOr takes 3 operands, got 4',
        '0',
        'Int',
    ),
    'put': (
        'ok: Map[String, Int]',
        'NotASubtype: put: operand 1 must be a Map (got String)',
        'ArityMismatch: put takes 3 operands, got 4',
        'mkMap([("a", 1), ("b", 2), ("c", 3)])',
        'Map[String, Int]',
    ),
    'hasKey': (
        'ok: Bool',
        'NotASubtype: hasKey: operand 1 must be a Map (got String)',
        'ArityMismatch: hasKey takes 2 operands, got 3',
        'true',
        'Bool',
    ),
    'keys': (
        'ok: List[String]',
        'NotASubtype: keys: operand 1 must be a Map (got String)',
        'ArityMismatch: keys takes 1 operands, got 2',
        '["a", "b"]',
        'List[String]',
    ),
    'items': (
        'ok: List[(String, Int)]',
        'NotASubtype: items: operand 1 must be a Map (got String)',
        'ArityMismatch: items takes 1 operands, got 2',
        '[("a", 1), ("b", 2)]',
        'List[(String, Int)]',
    ),
    'mapValues': (
        'ok: List[Int]',
        'NotASubtype: mapValues: operand 1 must be a Map (got String)',
        'ArityMismatch: mapValues takes 1 operands, got 2',
        '[1, 2]',
        'List[Int]',
    ),
    'filterBuffer': (
        'ok: img srv { a: <Int>, b: <> }',
        'NotAnImage: filterBuffer: operand must be an image (got String)',
        'ArityMismatch: filterBuffer takes 2 operands, got 3',
        'img(srv { a<x: Int> :> par  b<> :> par }, [a<1>])',
        'img srv { a: <Int>, b: <> }',
    ),
}

# Checker paths the wrong first operand above does not reach.
EDGES = {
    "get(map, 1)": BaseOp("get", (_MAP, _lit(1))),
    "mkMap([1])": BaseOp("mkMap", (_list(1),)),
    "mkMap([])": BaseOp("mkMap", (_list(),)),
    "size(map)": BaseOp("size", (_MAP,)),
    "thrd((1, 2))": BaseOp("thrd", (TupleV((_lit(1), _lit(2))),)),
    "head([])": BaseOp("head", (_list(),)),
    "cons(true, [1])": BaseOp("cons", (_lit(True), _list(1))),
    "append([1], [true])": BaseOp("append", (_list(1), _list(True))),
    "put(map, 1, 2)": BaseOp("put", (_MAP, _lit(1), _lit(2))),
    "getOr(map, 1, true)": BaseOp("getOr", (_MAP, _lit(1), _lit(True))),
    "filterBuffer(img, [1])": BaseOp("filterBuffer", (_IMAGE, _list(1))),
    "concat(a, 1)": BaseOp("concat", (_lit("a"), _lit(1))),
    "nope(1)": BaseOp("nope", (_lit(1),)),
}

PINNED_EDGES = {
    'get(map, 1)': 'NotASubtype: get: key type mismatch (expected String, got Int)',
    'mkMap([1])': 'NotASubtype: mkMap: operand must be a list of pairs (got List[Int])',
    'mkMap([])': 'ok: Map[Bot, Bot]',
    'size(map)': 'ok: Int',
    'thrd((1, 2))': 'NotASubtype: thrd: operand must be a wide-enough tuple (got (Int, Int))',
    'head([])': 'ok: Bot',
    'cons(true, [1])': 'NotASubtype: incompatible types in cons (expected Bool, got Int)',
    'append([1], [true])': 'NotASubtype: incompatible types in append (expected Int, got Bool)',
    'put(map, 1, 2)': 'NotASubtype: incompatible types in put (expected String, got Int)',
    'getOr(map, 1, true)': 'NotASubtype: incompatible types in getOr (expected Int, got Bool)',
    'filterBuffer(img, [1])': 'NotASubtype: filterBuffer: operand 2 has the wrong type (expected List[String], got List[Int])',
    'concat(a, 1)': 'NotASubtype: concat: operand 2 has the wrong type (expected String, got Int)',
    'nope(1)': "NotAService: unknown base operation 'nope'",
}

# Evaluator faults on ill-kinded operands.
FAULTS = {
    "div(1, 0)": ("div", (_lit(1), _lit(0))),
    "mod(1, 0)": ("mod", (_lit(1), _lit(0))),
    "add(1, true)": ("add", (_lit(1), _lit(True))),
    "range(1.5, 2)": ("range", (_lit(1.5), _lit(2))),
    "not(1)": ("not", (_lit(1),)),
    "len(1)": ("len", (_lit(1),)),
    "head([])": ("head", (_list(),)),
    "tail([])": ("tail", (_list(),)),
    "cons(1, 2)": ("cons", (_lit(1), _lit(2))),
    "fst(1)": ("fst", (_lit(1),)),
    "thrd((1, 2))": ("thrd", (TupleV((_lit(1), _lit(2))),)),
    "size(1)": ("size", (_lit(1),)),
    "mkMap([(1, 2, 3)])": ("mkMap", (ListV((TupleV((_lit(1), _lit(2), _lit(3))),)),)),
    "get(map, z)": ("get", (_MAP, _lit("z"))),
    "keys(1)": ("keys", (_lit(1),)),
    "filterBuffer(1, [])": ("filterBuffer", (_lit(1), _list())),
    "add(1)": ("add", (_lit(1),)),
    "add(1, x)": ("add", (_lit(1), Var("x"))),
    "nope()": ("nope", ()),
}

PINNED_FAULTS = {
    'div(1, 0)': 'div: division by zero',
    'mod(1, 0)': 'mod: division by zero',
    'add(1, true)': 'add: expected a number, got BaseLit(value=True)',
    'range(1.5, 2)': 'range: expected an Int, got BaseLit(value=1.5)',
    'not(1)': 'not: expected a Bool, got BaseLit(value=1)',
    'len(1)': 'len: expected a String, got BaseLit(value=1)',
    'head([])': 'head: empty list',
    'tail([])': 'tail: empty list',
    'cons(1, 2)': 'cons: expected a List, got BaseLit(value=2)',
    'fst(1)': 'fst: expected a tuple, got BaseLit(value=1)',
    'thrd((1, 2))': 'thrd: tuple has only 2 components',
    'size(1)': 'size: expected a List or Map, got BaseLit(value=1)',
    'mkMap([(1, 2, 3)])': 'mkMap: entries must be pairs',
    'get(map, z)': "get: missing key BaseLit(value='z')",
    'keys(1)': 'keys: expected a Map, got BaseLit(value=1)',
    'filterBuffer(1, [])': 'filterBuffer: expected a server image, got BaseLit(value=1)',
    'add(1)': 'add: expected 2 operands, got 1',
    'add(1, x)': "add: operand not a value: Var(name='x')",
    'nope()': "unknown base operation 'nope'",
}


@pytest.mark.parametrize("op", sorted(SAMPLES))
def test_pinned_behaviour(op):
    assert is_builtin(op)
    assert observe(op) == PINNED[op]


def test_every_sample_is_pinned():
    assert sorted(PINNED) == sorted(SAMPLES)
    assert len(SAMPLES) == 42


@pytest.mark.parametrize("case", sorted(EDGES))
def test_pinned_checker_edges(case):
    assert _checked(EDGES[case]) == PINNED_EDGES[case]


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_pinned_evaluator_faults(case):
    op, args = FAULTS[case]
    with pytest.raises(MachineError) as ei:
        apply_builtin(op, args, _effects())
    assert str(ei.value) == PINNED_FAULTS[case]


@pytest.mark.parametrize("engine", ["smallstep", "concurrent"])
def test_cli_prints_a_fault_text_with_the_operand_repr(tmp_path, capsys, monkeypatch, engine):
    """A builtin fault names its operand by `repr`; run unchecked, it is one
    stderr line and exit 4 on both engines."""
    import cpl.toolchain as tc

    monkeypatch.setattr(tc, "check_expr", lambda core, env: None)
    f = tmp_path / "fault.cpl"
    f.write_text("result<cons(1, 3)>\n")
    assert main(["run", str(f), "--no-prelude", f"--engine={engine}"]) == 4
    assert capsys.readouterr().err == "internal error: cons: expected a List, got BaseLit(value=3)\n"


# Map entries are ordered by the `repr` of their keys, which differs from
# the order of the key values: `"it's"` prints with double quotes, and
# "-3" < "10" < "2" as text.
MAPS = 'result<(mkMap([("b", 1), ("it\'s", 2), ("a", 3)]), mkMap([(10, 1), (-3, 2), (2, 3)]), ' \
       'mkMap([((1, -1), 1), ((-1, 2), 2), ((1, 10), 3)]))>\n'


@pytest.mark.parametrize("engine", ["smallstep", "concurrent"])
def test_map_entries_print_in_key_repr_order(tmp_path, capsys, engine):
    f = tmp_path / "maps.cpl"
    f.write_text(MAPS)
    assert main(["run", str(f), "--no-prelude", f"--engine={engine}"]) == 0
    assert json.loads(capsys.readouterr().out)["args"] == [[
        {"it's": 2, "a": 3, "b": 1},
        [[-3, 2], [10, 1], [2, 3]],
        [[[-1, 2], 2], [[1, -1], 1], [[1, 10], 3]],
    ]]
    assert main(["trace", str(f), "--no-prelude"]) == 0
    assert capsys.readouterr().out.splitlines()[5] == (
        '  par(^result<(mkMap([("it\'s", 2), ("a", 3), ("b", 1)]), mkMap([(-3, 2), (10, 1), (2, 3)]), '
        "mkMap([((-1, 2), 2), ((1, -1), 1), ((1, 10), 3)]))>)"
    )


# ---------------------------------------------------------------------------
# Guards over the one table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", sorted(OPS))
def test_type_rule_covers_evaluator(op):
    assert op in SAMPLES, f"base operation {op!r} has no sample operands"
    args = SAMPLES[op]
    assert len(args) == OPS[op].arity
    value = apply_builtin(op, args, _effects())
    rule_type = type_of(EMPTY, {}, BaseOp(op, args))
    assert subtype(EMPTY, type_of(EMPTY, {}, value), rule_type)


def _synthesized(op: str, types: tuple) -> str:
    """Desugar's annotation for `let x = op(a0, ..)` with ai: types[i]."""
    names = tuple(f"a{i}" for i in range(len(types)))
    env = dict(zip(names, types), result=SvcT((Top(),)))
    rhs = BaseOp(op, tuple(Var(n) for n in names))
    core = desugar_program(Program((), (), SLet("x", None, rhs, Request(Var("result"), (Var("x"),)))), env)
    [pattern] = core.callee.target.expr.rules[0].patterns
    return pretty_type(pattern.params[0][1])


_I, _B, _T = BaseT("Int"), Bot(), Top()

# Operands with unequal element types: the desugarer used the container's
# type (the first operand's for append), which the checker rejects.
UNEQUAL = {
    "append": (DataT("List", (_B,)), DataT("List", (_I,))),
    "cons": (_T, DataT("List", (_I,))),
    "getOr": (DataT("Map", (_B, _B)), _I, _I),
    "put": (DataT("Map", (_I, DataT("List", (_B,)))), _I, DataT("List", (_I,))),
}


@pytest.mark.parametrize("op", sorted(UNEQUAL))
def test_synthesized_annotation_is_checker_type(op):
    types = UNEQUAL[op]
    ctx = context_from({f"a{i}": t for i, t in enumerate(types)})
    checked = type_of(ctx, {}, BaseOp(op, tuple(Var(f"a{i}") for i in range(len(types)))))
    assert _synthesized(op, types) == pretty_type(checked)


@pytest.mark.parametrize("src", [
    "def f = /\\a <: Int. srv { go<x: a> :> let ys = cons(x, [1]) in result<ys> }; par",
    "def f = /\\a <: List[Int]. srv { go<x: a> :> let y = head(x) in result<y> }; par",
])
def test_synthesis_joins_under_type_variable_bounds(tmp_path, src):
    f = tmp_path / "p.cpl"
    f.write_text(src + "\n")
    assert main(["check", str(f), "--no-prelude"]) == 0


@pytest.mark.parametrize("src, printed", [
    ("let ys = append([], [1]) in result<ys>", [[1]]),
    ("let n = getOr(mkMap([]), 1, 5) in result<n>", [5]),
])
def test_unannotated_let_over_collection_op_runs(tmp_path, capsys, src, printed):
    f = tmp_path / "p.cpl"
    f.write_text(src + "\n")
    assert main(["check", str(f), "--no-prelude"]) == 0
    capsys.readouterr()
    assert main(["run", str(f), "--no-prelude"]) == 0
    assert [json.loads(line)["args"][0] for line in capsys.readouterr().out.splitlines()] == printed


# Equality never confuses Bool with Int, also inside data and map keys;
# Int and Float still compare as numbers.
EQUALITY = {
    "1 == true": False,
    "0 == false": False,
    "1 != true": True,
    "1.0 == true": False,
    "(1, true) == (1, 1)": False,
    "[false] == [0]": False,
    "mkMap([(1, 2)]) == mkMap([(true, 2)])": False,
    "hasKey(put(mkMap([]), 1, 2), true)": False,
    "getOr(put(mkMap([]), true, 2), 1, 0) == 0": True,
    "[(1, true)] == [(1, 1)]": False,
    "1 == 1.0": True,
    "true == true": True,
}


@pytest.mark.parametrize("expr", sorted(EQUALITY))
def test_equality_is_kind_aware_on_both_engines(expr):
    src = f"result<{expr}>"
    assert ss_obs(run_ss(src)) == [EQUALITY[expr]]
    with run_cc(src, prelude=False) as rt:
        assert cc_obs(rt) == [EQUALITY[expr]]
