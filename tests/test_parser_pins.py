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
