"""Concrete syntax for .cpl files.

Grammar sketch: `srv { pat & pat :> body ... }`,
`spwn [local] e`, `e#x`, `e<args>`, `e || e`, `snap e`, `repl e1 e2`, derived
`let`/`letk`/`thunk`/lambdas, `def`/`type` items terminated by `;`, and `//`
line comments. Requests own the angle brackets, so there are no bare `<`/`>`
comparison operators; use `<=`, `>=`, `==`, `!=` or the named lt/gt base ops.
Precedence, loosest to tightest: `||` < `== != <= >=` (no chaining) < `::`
(right) < `+ -` < `* / %` (both left) < prefix forms < postfix `#`, `<…>`,
`[T]` and calls.

Cost model: one regex scan fills four arrays with each token's key (the
text of punctuation and keywords, else the kind), text, line and column, as
strings and ints that the garbage collector does not track. The parser names
a token by its index and builds a `Loc` only when a node or a `ParseError`
needs one; `tokenize` gives the same tokens as `Token` tuples whose `loc` is
built on read. Testing the next token is one comparison of its key, and each
form dispatches on the next key instead of trying its alternatives in turn.
"""

from __future__ import annotations

import re
from typing import Any, Callable, NamedTuple, Optional

from . import core
from .builtins import is_builtin
from .core import (
    Addr,
    Address,
    AliasT,
    BaseLit,
    BaseOp,
    BaseT,
    Bot,
    DataT,
    Expr,
    ExternalRef,
    If,
    Image,
    ListV,
    MessageValue,
    Par,
    Placement,
    ServerTemplate,
    ServiceRef,
    Snap,
    Spwn,
    SrvBot,
    SrvT,
    SvcT,
    This,
    Top,
    TupleV,
    TypeAbs,
    TypeApp,
    TypeExpr,
    TypeVar,
    UnitT,
    Univ,
    Repl,
    Request,
    ReactionRule,
    JoinPattern,
    ZeroImage,
    _loc_field,
    is_value,
)
from .errors import Loc, ParseError
from .frozen import frozen

KEYWORDS = {
    "srv", "spwn", "local", "snap", "repl", "this", "par", "let", "letk",
    "thunk", "def", "type", "if", "then", "else", "in", "true", "false",
    "zero", "img", "inst", "forall",
}

# ---------------------------------------------------------------------------
# Surface-only nodes
# ---------------------------------------------------------------------------


@frozen
class SLet(Expr):
    name: str
    ann: Optional[TypeExpr]
    rhs: Expr
    body: Expr
    loc: Loc | None = _loc_field()


@frozen
class SLetK(Expr):
    binders: tuple[tuple[str, TypeExpr], ...]  # one, or several (destructuring)
    rhs: Expr
    body: Expr
    loc: Loc | None = _loc_field()


@frozen
class SLambda(Expr):
    params: tuple[tuple[str, TypeExpr], ...]
    ret: TypeExpr
    body: Expr
    loc: Loc | None = _loc_field()


@frozen
class SApply(Expr):
    fn: Expr
    args: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@frozen
class SThunk(Expr):
    ann: Optional[TypeExpr]
    body: Expr
    loc: Loc | None = _loc_field()


# The derived forms' binders (`core.SCOPES`): a let binds its name over its
# body, a letk its binders, a lambda its parameters.
core.SCOPES.update({
    SLet: lambda e: ((e.rhs, ()), (e.body, (e.name,))),
    SLetK: lambda e: ((e.rhs, ()), (e.body, tuple(n for n, _ in e.binders))),
    SLambda: lambda e: ((e.body, tuple(n for n, _ in e.params)),),
    SApply: lambda e: tuple((x, ()) for x in (e.fn, *e.args)),
    SThunk: lambda e: ((e.body, ()),),
})


@frozen
class Definition:
    name: str
    ann: Optional[TypeExpr]
    rhs: Expr
    loc: Loc | None = None
    _ldcache = None  # desugar.Desugarer._reuse (`cpl.frozen`'s derived data)


@frozen
class TypeAliasDef:
    name: str
    params: tuple[str, ...]
    rhs: TypeExpr
    loc: Loc | None = None


@frozen
class Program:
    aliases: tuple[TypeAliasDef, ...]
    defs: tuple[Definition, ...]
    main: Optional[Expr]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # IDENT, INT, FLOAT, STRING, PUNCT, EOF
    text: str
    line: int
    col: int

    @property
    def loc(self) -> Loc:
        return Loc(self.line, self.col)


_PUNCT2 = (":>", "<=", ">=", "==", "!=", "::", "||", "/\\", "<:", "->")
_PUNCT1 = "{}()[]<>,;:#&+-*/%=.\\@~^!|"
_ESCAPES = {"n": "\n", "t": "\t"}

# Leading blanks, then one alternative per token kind, tried in order, the
# most frequent first. `\d` is what `int` accepts; an identifier must start
# with a letter or `_`, which `_scan` checks, as `\w` also admits digits
# such as `²`. A `"` that does not open a whole literal falls through to ERR.
# `_scan` stops before trailing blanks, which would otherwise backtrack into
# ERR.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?P<IDENT>[^\W\d][\w%]*)|(?P<COMMENT>//[^\n]*)"
    f"|(?P<PUNCT>{'|'.join(map(re.escape, _PUNCT2))}|[{re.escape(_PUNCT1)}])"
    r"|(?P<NL>\n)|(?P<FLOAT>\d+\.\d+)|(?P<INT>\d+)"
    r'|(?P<STRING>"[^"\\]*(?:\\.[^"\\]*)*")|(?P<ERR>.))',
    re.DOTALL,
)


def tokenize(src: str) -> list[Token]:
    keys, texts, lines, cols = _scan(src)
    # Kinds are the only upper-case keys; the others are keywords or punctuation.
    kinds = (k if k.isupper() else "IDENT" if k in KEYWORDS else "PUNCT" for k in keys)
    return list(map(Token, kinds, texts, lines, cols))


def _scan(src: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """Each token's key (its text for punctuation and keywords, else its
    kind), text, line and column, the last token being EOF."""
    keys, texts, lines, cols = [], [], [], []
    key, add_text, add_line, add_col = keys.append, texts.append, lines.append, cols.append
    line, line_start = 1, 0
    m = None
    for m in _TOKEN_RE.finditer(src, 0, len(src.rstrip(" \t\r"))):
        kind = m.lastgroup
        if kind == "NL":
            line, line_start = line + 1, m.end()
            continue
        if kind == "COMMENT":
            continue
        text = m[kind]
        add_line(line)
        add_col(m.end() - len(text) - line_start + 1)
        if kind == "PUNCT":
            key(text)
        elif kind == "IDENT":
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", Loc(line, cols[-1]))
            key(text if text in KEYWORDS else kind)
        elif kind == "STRING":
            key(kind)
            if "\n" in text:
                line, line_start = line + text.count("\n"), src.rindex("\n", 0, m.end()) + 1
            text = re.sub(r"\\(.)", lambda e: _ESCAPES.get(e[1], e[1]), text[1:-1], flags=re.DOTALL)
        elif kind == "ERR":
            msg = "unterminated string literal" if text == '"' else f"unexpected character {text!r}"
            raise ParseError(msg, Loc(line, cols[-1]))
        else:
            key(kind)
        add_text(text)
    # EOF sits after trailing blanks, but a final comment does not move it.
    end = m.start("COMMENT") if m and m.lastgroup == "COMMENT" else len(src)
    key("EOF")
    add_text("")
    add_line(line)
    add_col(end - line_start + 1)
    return keys, texts, lines, cols


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Binary operators: key -> (base operation, precedence). `||` gathers its
# operands into one `Par`, `::` associates to the right, a comparison takes
# no comparison operand, the rest associate to the left.
_BINARY = {
    "||": ("par", 0),
    "==": ("eq", 1), "!=": ("neq", 1), "<=": ("le", 1), ">=": ("ge", 1),
    "::": ("cons", 2),
    "+": ("add", 3), "-": ("sub", 3),
    "*": ("mul", 4), "/": ("div", 4), "%": ("mod", 4),
}
# Keys that open a prefix form or follow an expression as a postfix form.
_PREFIX = frozenset(("spwn", "snap", "repl", "thunk", "if", "let", "letk", "\\", "/\\", "-"))
_POSTFIX = frozenset(("#", "<", "[", "("))
_NAMED_TYPES = {"Top": Top, "Unit": UnitT, "Bot": Bot, "SrvBot": SrvBot}


class _Parser:
    """Recursive descent over `_scan`'s arrays; a token is its index."""

    def __init__(self, src: str):
        self.keys, self.texts, self.lines, self.cols = _scan(src)
        # One more EOF key, so that `keys[pos + 1]` never needs a bound;
        # `next` stops at the first.
        self.keys.append("EOF")
        self.pos = 0

    # token helpers --------------------------------------------------------

    def loc(self, i: int) -> Loc:
        return Loc(self.lines[i], self.cols[i])

    def next(self) -> int:
        """Consume the next token; its index."""
        i = self.pos
        if self.keys[i] != "EOF":
            self.pos = i + 1
        return i

    def accept(self, key: str) -> bool:
        """Consume the next token if its key is `key`."""
        if self.keys[self.pos] == key:
            self.pos += 1
            return True
        return False

    def found(self, what: str) -> ParseError:
        """The error `what` at the next token, which the message names."""
        return ParseError(f"{what}, found {self.texts[self.pos]!r}", self.loc(self.pos))

    def expect(self, key: str) -> None:
        if self.keys[self.pos] != key:
            raise self.found(f"expected {key!r}")
        self.pos += 1

    def ident(self, what: str = "identifier") -> str:
        if self.keys[self.pos] != "IDENT":
            raise self.found(f"expected {what}")
        return self.texts[self.next()]

    def service_name(self) -> int:
        # Service names live in their own namespace; keywords are permitted
        # (desugared wrappers use services named let/k).
        key = self.keys[self.pos]
        if key != "IDENT" and key not in KEYWORDS:
            raise self.found("expected a service name")
        return self.next()

    def end(self, what: str, result: Any) -> Any:
        """`result`, the `what` just parsed, if nothing follows it."""
        if self.keys[self.pos] != "EOF":
            raise ParseError(f"unexpected {self.texts[self.pos]!r} after {what}", self.loc(self.pos))
        return result

    def seq(self, close: str, item: Callable[[], Any]) -> list[Any]:
        """Comma-separated `item`s up to `close`, which is consumed."""
        out = []
        keys = self.keys
        while keys[self.pos] != close:
            out.append(item())
            if keys[self.pos] == ",":
                self.pos += 1
            elif keys[self.pos] != close:
                raise self.found("expected ','")
        self.pos += 1
        return out

    def typed_binder(self, what: str) -> tuple[str, TypeExpr]:
        name = self.ident(what)
        self.expect(":")
        return name, self.type_expr()

    # program --------------------------------------------------------------

    def program(self) -> Program:
        aliases: list[TypeAliasDef] = []
        defs: list[Definition] = []
        while True:
            if self.keys[self.pos] == "def":
                loc = self.loc(self.next())
                name = self.ident("definition name")
                ann = self.type_expr() if self.accept(":") else None
                self.expect("=")
                rhs = self.expr()
                self.expect(";")
                defs.append(Definition(name, ann, rhs, loc))
            elif self.keys[self.pos] == "type":
                loc = self.loc(self.next())
                name = self.ident("type alias name")
                params: list[str] = []
                if self.accept("["):
                    params = self.seq("]", lambda: self.ident("type parameter"))
                self.expect("=")
                rhs = self.type_expr()
                self.expect(";")
                aliases.append(TypeAliasDef(name, tuple(params), rhs, loc))
            else:
                break
        main: Optional[Expr] = None
        if self.keys[self.pos] != "EOF":
            main = self.end("main expression", self.expr())
        return Program(tuple(aliases), tuple(defs), main)

    # expressions ----------------------------------------------------------

    def expr(self, level: int = 0) -> Expr:
        """Precedence climbing over `_BINARY`: operators binding at `level` or tighter."""
        keys = self.keys
        left = self.prefix_expr() if keys[self.pos] in _PREFIX else self.postfix_expr()
        while True:
            op = _BINARY.get(keys[self.pos])
            if op is None or op[1] < level:
                return left
            name, prec = op
            if prec == 0:
                # No flattening: `(a || b) || c` stays nested so parsing is the
                # exact inverse of pretty-printing. Rule Par flattens at run time.
                parts = [left]
                while self.accept("||"):
                    parts.append(self.expr(1))
                return Par(tuple(parts), loc=getattr(left, "loc", None))
            i = self.next()
            if prec == 2:
                # A `::` chain is built in a loop, not one frame per element.
                ops, operands = [i], [left, self.expr(3)]
                while keys[self.pos] == "::":
                    ops.append(self.next())
                    operands.append(self.expr(3))
                left = operands.pop()
                for i in reversed(ops):
                    left = BaseOp("cons", (operands.pop(), left), loc=self.loc(i))
                continue
            left = BaseOp(name, (left, self.expr(prec + 1)), loc=self.loc(i))
            if prec == 1 and keys[self.pos] != "||":
                return left  # comparisons do not chain

    def prefix_expr(self) -> Expr:
        key = self.keys[self.pos]
        if key not in _PREFIX:
            return self.postfix_expr()
        loc = self.loc(self.next())
        if key == "spwn":
            placement = Placement.LOCAL if self.accept("local") else Placement.REMOTE
            return Spwn(self.prefix_expr(), placement, loc=loc)
        if key == "snap":
            return Snap(self.prefix_expr(), loc=loc)
        if key == "repl":
            target = self.postfix_expr()
            return Repl(target, self.postfix_expr(), loc=loc)
        if key == "thunk":
            ann = None
            if self.accept("["):
                ann = self.type_expr()
                self.expect("]")
            return SThunk(ann, self.expr(1), loc=loc)
        if key == "if":
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            return If(cond, then, self.expr(1), loc=loc)
        if key == "let":
            name = self.ident("binder")
            ann = self.type_expr() if self.accept(":") else None
            self.expect("=")
            rhs = self.expr()
            self.expect("in")
            return SLet(name, ann, rhs, self.expr(), loc=loc)
        if key == "letk":
            grouped = self.accept("(")
            binders = [self.typed_binder("binder")]
            while grouped and self.keys[self.pos] != ")":
                self.expect(",")
                binders.append(self.typed_binder("binder"))
            if grouped:
                self.pos += 1
            self.expect("=")
            rhs = self.expr()
            self.expect("in")
            return SLetK(tuple(binders), rhs, self.expr(), loc=loc)
        if key == "\\":
            self.expect("(")
            params = self.seq(")", lambda: self.typed_binder("parameter"))
            self.expect("->")
            ret = self.type_expr()
            self.expect(".")
            return SLambda(tuple(params), ret, self.expr(), loc=loc)
        if key == "/\\":
            var = self.ident("type variable")
            bound = self.type_expr() if self.accept("<:") else Top()
            self.expect(".")
            return TypeAbs(var, bound, self.expr(), loc=loc)
        operand = self.prefix_expr()  # key == "-"
        if isinstance(operand, BaseLit) and type(operand.value) in (int, float):  # not bool
            return BaseLit(-operand.value, loc=loc)
        return BaseOp("sub", (BaseLit(0, loc=loc), operand), loc=loc)

    def postfix_expr(self) -> Expr:
        # Call syntax `f(args)` only attaches to unparenthesized variables
        # and call chains, so juxtaposed operands (repl e1 e2) never swallow
        # a parenthesized neighbour.
        keys = self.keys
        grouped = keys[self.pos] == "("
        e = self.atom()
        callable_head = isinstance(e, core.Var) and not grouped
        while (key := keys[self.pos]) in _POSTFIX:
            if key == "(" and not callable_head:
                break
            loc = self.loc(self.next())
            if key == "#":
                e = ServiceRef(e, self.texts[self.service_name()], loc=loc)
            elif key == "<":
                e = Request(e, tuple(self.seq(">", self.expr)), loc=loc)
            elif key == "[":
                ty = self.type_expr()
                self.expect("]")
                e = TypeApp(e, ty, loc=loc)
            else:
                args = tuple(self.seq(")", self.expr))
                if isinstance(e, core.Var) and is_builtin(e.name):
                    e = BaseOp(e.name, args, loc=loc)
                else:
                    e = SApply(e, args, loc=loc)
                continue  # a call result stays callable: `f(a)(b)`
            callable_head = False
        return e

    def atom(self) -> Expr:
        i = self.next()
        key, text = self.keys[i], self.texts[i]
        if key == "IDENT":
            return core.Var(text, loc=self.loc(i))
        if key == "INT":
            return BaseLit(int(text), loc=self.loc(i))
        if key == "(":
            if self.keys[self.pos] == ")":
                raise ParseError("empty parentheses are not an expression", self.loc(i))
            items = [self.expr()]
            while self.accept(","):
                items.append(self.expr())
            self.expect(")")
            return items[0] if len(items) == 1 else TupleV(tuple(items), loc=self.loc(i))
        loc = self.loc(i)
        if key == "STRING":
            return BaseLit(text, loc=loc)
        if key == "FLOAT":
            return BaseLit(float(text), loc=loc)
        if key in ("true", "false"):
            return BaseLit(key == "true", loc=loc)
        if key == "this":
            return This(loc=loc)
        if key == "zero":
            return ZeroImage(loc=loc)
        if key == "par":
            items = self.seq(")", self.expr) if self.accept("(") else ()
            return Par(tuple(items), loc=loc)
        if key == "srv":
            return self.template(loc)
        if key == "img":
            self.expect("(")
            tmpl = self.expr()
            self.expect(",")
            self.expect("[")
            buf = tuple(self.seq("]", self.message))
            self.expect(")")
            return Image(tmpl, buf, loc=loc)
        if key == "^":
            return ExternalRef(self.ident("external service name"), loc=loc)
        if key == "@":
            placement = Placement.LOCAL if self.accept("~") else Placement.REMOTE
            num = self.next()
            if self.keys[num] != "INT":
                raise ParseError("expected address number after @", self.loc(num))
            return Addr(Address(int(self.texts[num]), placement), loc=loc)
        if key == "[":
            return ListV(tuple(self.seq("]", self.expr)), loc=loc)
        raise ParseError(f"unexpected token {text!r}", loc)

    def message(self) -> MessageValue:
        name = self.texts[self.service_name()]
        self.expect("<")
        args = tuple(self.seq(">", self.expr))
        if not all(map(is_value, args)):
            raise ParseError("buffered message arguments must be values", self.loc(self.pos))
        return MessageValue(name, args)

    def template(self, loc: Loc) -> Expr:
        transparent = self.accept("*")
        self.expect("{")
        header: dict[str, SvcT] = {}
        # Header entries: `name: <T, ...>` separated by optional commas, until
        # the first pattern (`name<`), which starts the rules.
        keys = self.keys
        while keys[self.pos] == "IDENT" and keys[self.pos + 1] == ":":
            name, ty = self.typed_binder("identifier")
            if not isinstance(ty, SvcT):
                raise ParseError(f"service {name!r} must be declared at a service type", loc)
            if name in header:
                raise ParseError(f"duplicate service declaration {name!r}", loc)
            header[name] = ty
            self.accept(",")
        rules: list[ReactionRule] = []
        while keys[self.pos] != "}":
            rules.append(self.rule(header))
        self.pos += 1
        if not rules:
            raise ParseError("server template needs at least one rule", loc)
        return ServerTemplate(tuple(rules), transparent, loc=loc)

    def rule(self, header: dict[str, SvcT]) -> ReactionRule:
        patterns = [self.pattern(header)]
        while self.accept("&"):
            patterns.append(self.pattern(header))
        self.expect(":>")
        body = self.expr()
        return ReactionRule(tuple(patterns), body)

    def pattern(self, header: dict[str, SvcT]) -> JoinPattern:
        at = self.service_name()
        service = self.texts[at]
        self.expect("<")
        params = self.seq(">", self.pattern_param)
        declared = header.get(service)
        resolved: list[tuple[str, TypeExpr]] = []
        for idx, (p, ann) in enumerate(params):
            if ann is None:
                if declared is None or len(declared.args) != len(params):
                    raise ParseError(
                        f"parameter {p!r} of service {service!r} needs a type "
                        "annotation (inline or via a header declaration)",
                        self.loc(at),
                    )
                ann = declared.args[idx]
            resolved.append((p, ann))
        if declared is not None and len(declared.args) != len(params):
            raise ParseError(
                f"service {service!r} declared with {len(declared.args)} "
                f"parameters but pattern has {len(params)}",
                self.loc(at),
            )
        return JoinPattern(service, tuple(resolved))

    def pattern_param(self) -> tuple[str, Optional[TypeExpr]]:
        name = self.ident("pattern parameter")
        return name, (self.type_expr() if self.accept(":") else None)

    # types ------------------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        if self.keys[self.pos] != "(":
            return self.prefix_type()
        i = self.next()
        args: list[TypeExpr] = []
        if self.keys[self.pos] != ")":
            args.append(self.type_expr())
            while self.accept(","):
                args.append(self.type_expr())
        self.expect(")")
        if self.accept("->"):
            return SvcT((*args, SvcT((self.type_expr(),))))
        if len(args) == 1:
            return args[0]
        if not args:
            raise ParseError("empty type parentheses", self.loc(i))
        return DataT("Tuple", tuple(args))

    def prefix_type(self) -> TypeExpr:
        key = self.keys[self.pos]
        if key == "IDENT":
            name = self.texts[self.next()]
            if name in _NAMED_TYPES:
                return _NAMED_TYPES[name]()
            if name in ("Int", "Bool", "Float", "String"):
                return BaseT(name)
            args = tuple(self.seq("]", self.type_expr)) if self.accept("[") else ()
            if name in ("List", "Map", "Tuple"):
                return DataT(name, args)
            if name[0].islower() and not args:
                return TypeVar(name)
            return AliasT(name, args)
        if key == "(":
            return self.type_expr()
        if key not in ("inst", "img", "forall", "<", "srv"):
            raise self.found("expected a type")
        i = self.next()
        if key == "inst":
            return core.InstT(self.prefix_type())
        if key == "img":
            return core.ImgT(self.prefix_type())
        if key == "forall":
            var = self.ident("type variable")
            bound = self.type_expr() if self.accept("<:") else Top()
            self.expect(".")
            return Univ(var, bound, self.type_expr())
        if key == "<":
            return SvcT(tuple(self.seq(">", self.type_expr)))
        self.expect("{")

        def entry() -> tuple[str, TypeExpr]:
            name, ty = self.typed_binder("service name")
            if not isinstance(ty, SvcT):
                raise ParseError(f"service {name!r} must have a service type", self.loc(i))
            return name, ty

        return SrvT(tuple(self.seq("}", entry)))


def _parse(text: str, rule: Callable[[_Parser], Any]) -> Any:
    """Run `rule` over `text`'s tokens. Nesting deeper than Python's
    recursion limit allows is a parse error at the token reached."""
    p = _Parser(text)
    try:
        return rule(p)
    except RecursionError:
        raise ParseError("expression nested too deeply", p.loc(p.pos)) from None


def parse(text: str) -> Program:
    """Parse a .cpl source string into a surface program."""
    return _parse(text, _Parser.program)


def parse_expr(text: str) -> Expr:
    """Parse a single expression (no defs or aliases)."""
    return _parse(text, lambda p: p.end("expression", p.expr()))
