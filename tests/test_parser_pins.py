"""Pins of the front end's output.

Digests of the token streams, of the parse trees with every node's `loc`,
and of `cpl desugar` for the shipped sources, plus a seeded corpus of
operator expressions. A parser rewrite that builds the same trees and
reports the same errors leaves every digest unchanged.
"""

import dataclasses
import enum
import hashlib
import random
import sys

import pytest

import cpl.toolchain as tc
from cpl.cli import main
from cpl.errors import ParseError
from cpl.parser import parse, parse_expr, tokenize
from cpl.pretty import pretty_expr

EXAMPLES = (
    "fact.cpl",
    "stuck.cpl",
    "supervision_demo.cpl",
    "wordcount.cpl",
    "wordcount_ft.cpl",
    "wordcount_lb.cpl",
)


def _dump(x) -> str:
    """Like `repr`, but with every dataclass field, `loc` included."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        inner = ", ".join(f"{f.name}={_dump(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({inner})"
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(_dump(i) for i in x) + ")"
    if isinstance(x, enum.Enum):
        return x.name
    return repr(x)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _sources():
    for name in tc.STDLIB_FILES:
        yield f"stdlib/{name}", tc.stdlib_source(name)
    for name in EXAMPLES:
        yield f"examples/{name}", tc.example_source(name)


def test_token_streams_pinned():
    parts = [
        f"{name} {t.kind} {t.text!r} {t.loc.line}:{t.loc.col}"
        for name, src in _sources()
        for t in tokenize(src)
    ]
    assert _digest(parts) == "bc34b28abe74bcaa"


def test_parse_trees_with_locs_pinned():
    parts = [f"{name} {_dump(parse(src))}" for name, src in _sources()]
    assert _digest(parts) == "adbd2dc5c57c2bba"


def test_desugar_output_pinned(capsys):
    parts = []
    for name in EXAMPLES:
        for flags in ([], ["--prelude"]):
            rc = main(["desugar", *flags, tc.example_path(name)])
            captured = capsys.readouterr()
            parts.append(f"{name} {flags} {rc} {captured.out} {captured.err}")
    # Re-recorded when the errors of supervision_demo.cpl and wordcount_ft.cpl
    # without the prelude (an unknown alias in a template parameter) gained
    # the template's position; every other part is unchanged.
    assert _digest(parts) == "fe40ab6f57e232ca"


# ---------------------------------------------------------------------------
# Operator corpus
# ---------------------------------------------------------------------------

_BINARY = ("==", "!=", "<=", ">=", "::", "+", "-", "*", "/", "%", "||")
_ATOMS = ("a", "b", "c", "x", "1", "2", "3.5")


def _gen(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(_ATOMS)
    d = depth - 1
    form = rng.randrange(10)
    if form < 4:
        return f"{_gen(rng, d)} {rng.choice(_BINARY)} {_gen(rng, d)}"
    if form == 4:
        return f"-{_gen(rng, d)}"
    if form == 5:
        return f"spwn {_gen(rng, d)}"
    if form == 6:
        return f"thunk {_gen(rng, d)}"
    if form == 7:
        return f"if {_gen(rng, d)} then {_gen(rng, d)} else {_gen(rng, d)}"
    if form == 8:
        return f"let x = {_gen(rng, d)} in {_gen(rng, d)}"
    return f"({_gen(rng, d)})"


def _operator_corpus() -> list[str]:
    rng = random.Random(20240607)
    out: dict[str, None] = {}
    while len(out) < 500:
        s = _gen(rng, 4)
        if rng.random() < 0.1:
            # Truncated inputs exercise the error paths and their locations.
            words = s.split(" ")
            s = " ".join(words[: rng.randrange(1, len(words) + 1)])
        out[s] = None
    return list(out)


def _outcome(s: str) -> str:
    try:
        return _dump(parse_expr(s))
    except ParseError as exc:
        return f"ParseError {exc.msg!r} at {exc.loc}"


def test_operator_corpus_pinned():
    corpus = _operator_corpus()
    parts = [f"{s} => {_outcome(s)}" for s in corpus]
    assert _digest(parts) == "f46631a6df28d99c"


@pytest.mark.parametrize(
    "src, printed",
    [
        ("a - b + c", "((a - b) + c)"),
        ("a :: b :: c", "(a :: (b :: c))"),
        ("-2 * x", "(-2 * x)"),
        ("if c then x else y || z", "((if c then x else y) || z)"),
    ],
)
def test_operator_shapes(src, printed):
    assert pretty_expr(parse_expr(src)) == printed


def test_comparisons_do_not_chain():
    with pytest.raises(ParseError) as ei:
        parse_expr("a == b == c")
    assert ei.value.msg == "unexpected '==' after expression"
    assert str(ei.value.loc) == "1:8"


# ---------------------------------------------------------------------------
# Program corpus: larger and odder inputs
# ---------------------------------------------------------------------------

_NAMES = ("a", "b", "xs", "acc", "k", "worker_1", "Fact", "go")
_SERVICES = ("go", "put", "get", "let", "k", "done")
_STRINGS = ('"plain"', r'"esc \"q\" \\ \n \t"', '"tab\there"', '"two\nlines\n"', '""')
_SCALARS = ("1", "42", "0", "3.25", "10.0", "true", "false", "this", "zero", "@3", "@~4", "^print")


def _gen_type(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(("Int", "Bool", "Float", "String", "Top", "Unit", "Bot", "SrvBot", "a", "TMR"))
    d = depth - 1
    form = rng.randrange(11)
    if form == 0:
        return f"List[{_gen_type(rng, d)}]"
    if form == 1:
        return f"Map[{_gen_type(rng, d)}, {_gen_type(rng, d)}]"
    if form == 2:
        return f"({_gen_type(rng, d)}, {_gen_type(rng, d)})"
    if form == 3:
        return f"({_gen_type(rng, d)}) -> {_gen_type(rng, d)}"
    if form == 4:
        return f"<{', '.join(_gen_type(rng, d) for _ in range(rng.randrange(3)))}>"
    if form == 5:
        return f"srv {{ get: <{_gen_type(rng, d)}>, put: <Int, {_gen_type(rng, d)}> }}"
    if form == 6:
        return f"inst {_gen_type(rng, d)}"
    if form == 7:
        return f"img {_gen_type(rng, d)}"
    if form == 8:
        return f"forall a. {_gen_type(rng, d)}"
    if form == 9:
        return f"forall b <: {_gen_type(rng, d)}. <b>"
    return f"Pair[{_gen_type(rng, d)}, Int]"


def _gen_template(rng: random.Random, depth: int) -> str:
    header = rng.sample(("go", "put", "get", "done"), rng.randrange(3))
    arity = {s: rng.randrange(1, 3) for s in header}
    lines = [f"{s}: <{', '.join(_gen_type(rng, 1) for _ in range(arity[s]))}>" for s in header]
    rules = []
    for _ in range(rng.randrange(1, 4)):
        pats = []
        for j in range(rng.randrange(1, 3)):
            if header and rng.random() < 0.5:
                s = rng.choice(header)
                pats.append(f"{s}<{', '.join(f'p{j}{i}' for i in range(arity[s]))}>")
            else:
                params = ", ".join(f"q{j}{i}: {_gen_type(rng, 1)}" for i in range(rng.randrange(3)))
                pats.append(f"{rng.choice(('ready', 'tick', 'let'))}<{params}>")
        rules.append(f"{' & '.join(pats)} :> {_gen_expr(rng, depth - 1)}")
    star = "*" if rng.random() < 0.3 else ""
    sep = rng.choice((",\n  ", " ", "\n  "))
    body = sep.join(lines) + ("\n  " if lines else "") + "\n  ".join(rules)
    return f"srv{star} {{ {body} }}"


def _gen_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(_NAMES + _SCALARS + _STRINGS)
    d = depth - 1
    e = lambda: _gen_expr(rng, d)  # noqa: E731
    forms = (
        lambda: f"{e()} {rng.choice(_BINARY)} {e()}",
        lambda: f"-{e()}",
        lambda: f"spwn {rng.choice(('', 'local '))}{e()}",
        lambda: f"snap {e()}",
        lambda: f"repl {rng.choice(_NAMES)} {rng.choice(_NAMES)}",
        lambda: f"thunk{rng.choice(('', '[Int] '))} {e()}",
        lambda: f"if {e()} then {e()}\n  else {e()}",
        lambda: f"let x{rng.choice(('', ': ' + _gen_type(rng, 2)))} = {e()} in {e()}",
        lambda: f"letk r: {_gen_type(rng, 2)} = {e()} in {e()}",
        lambda: f"letk (u: Int, v: {_gen_type(rng, 2)}) = {e()} in {e()}",
        lambda: f"\\(x: Int, f: {_gen_type(rng, 2)}) -> {_gen_type(rng, 2)}. {e()}",
        lambda: f"/\\a. {e()}",
        lambda: f"/\\a <: {_gen_type(rng, 2)}. {e()}",
        lambda: f"({e()})",
        lambda: f"({e()}, {e()})",
        lambda: f"[{', '.join(e() for _ in range(rng.randrange(4)))}]",
        lambda: f"par({e()}, {e()})",
        lambda: "par",
        lambda: f"{rng.choice(_NAMES)}#{rng.choice(_SERVICES)}<{e()}>",
        lambda: f"{rng.choice(_NAMES)}[{_gen_type(rng, 2)}]",
        lambda: f"{rng.choice(('add', 'f', 'len'))}({e()}, {e()})",
        lambda: f"({e()})#{rng.choice(_SERVICES)}",
        lambda: _gen_template(rng, d),
        lambda: f"img({_gen_template(rng, d)}, [go<1, \"s\">, put<@2, 2.5>])",
    )
    return rng.choice(forms)()


def _gen_program(rng: random.Random, n_items: int) -> str:
    items = []
    for i in range(n_items):
        comment = rng.choice(("", "  // trailing comment", "\n// a comment line"))
        if rng.random() < 0.25:
            params = rng.choice(("", "[a]", "[a, b]"))
            items.append(f"type T{i}{params} = {_gen_type(rng, 3)};{comment}")
        else:
            ann = rng.choice(("", f": {_gen_type(rng, 2)}"))
            items.append(f"def D{i}{ann} = {_gen_expr(rng, 4)};{comment}")
    main = _gen_expr(rng, 3) if rng.random() < 0.7 else ""
    return "\n".join(items) + "\n" + main + rng.choice(("", "\n", "  \n\t", "\n// end"))


def _program_corpus() -> list[str]:
    rng = random.Random(20261020)
    corpus = [_gen_program(rng, rng.randrange(1, 8)) for _ in range(60)]
    corpus.append("def Long = " + " :: ".join(str(i) for i in range(300)) + " :: [];")
    return corpus


def _program_outcome(src: str) -> str:
    try:
        prog = parse(src)
    except ParseError as exc:
        return f"ParseError {exc.msg!r} at {exc.loc}"
    # The 300-element chain nests deeper than `_dump`'s four frames per
    # level fit under the default limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        return _dump(prog)
    finally:
        sys.setrecursionlimit(limit)


def test_program_corpus_pinned():
    corpus = _program_corpus()
    tokens = [f"{t.kind} {t.text!r} {t.loc.line}:{t.loc.col}" for src in corpus for t in tokenize(src)]
    trees = [_program_outcome(src) for src in corpus]
    assert sum(o.startswith("ParseError") for o in trees) == 0
    assert _digest(tokens) == "594b7c97df2c908e"
    assert _digest(trees) == "7fe016cf07dfa28f"


def _boundaries(src: str) -> list[int]:
    """Every offset at which a token starts or ends, the ends of the source included."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(src) if ch == "\n"]
    out = {0, len(src)}
    for t in tokenize(src)[:-1]:
        start = line_starts[t.loc.line - 1] + t.loc.col - 1
        out.add(start)
        # A string token's text is unescaped, so its length is not the source's.
        out.add(start + (_raw_len(src, start) + 2 if t.kind == "STRING" else len(t.text)))
    return sorted(out)


def _raw_len(src: str, start: int) -> int:
    """The length of the body of the string literal opening at `start`."""
    i = start + 1
    while src[i] != '"':
        i += 2 if src[i] == "\\" else 1
    return i - start - 1


def test_truncated_programs_pinned():
    rng = random.Random(7)
    samples = [_gen_program(rng, 3) for _ in range(4)]
    parts = [f"{src[:cut]!r} => {_program_outcome(src[:cut])}" for src in samples for cut in _boundaries(src)]
    assert _digest(parts) == "afbccea4e7622f82"
