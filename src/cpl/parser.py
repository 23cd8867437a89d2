"""Concrete syntax for .cpl files.

Grammar sketch: `srv { pat & pat :> body ... }`,
`spwn [local] e`, `e#x`, `e<args>`, `e || e`, `snap e`, `repl e1 e2`, derived
`let`/`letk`/`thunk`/lambdas, `def`/`type` items terminated by `;`, and `//`
line comments. Requests own the angle brackets, so there are no bare `<`/`>`
comparison operators; use `<=`, `>=`, `==`, `!=` or the named lt/gt base ops.
Precedence, loosest to tightest: `||` < `== != <= >=` (no chaining) < `::`
(right) < `+ -` < `* / %` (both left) < prefix forms < postfix `#`, `<…>`,
`[T]` and calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

KEYWORDS = {
    "srv", "spwn", "local", "snap", "repl", "this", "par", "let", "letk",
    "thunk", "def", "type", "if", "then", "else", "in", "true", "false",
    "zero", "img", "inst", "forall",
}

# ---------------------------------------------------------------------------
# Surface-only nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SLet(Expr):
    name: str
    ann: Optional[TypeExpr]
    rhs: Expr
    body: Expr
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class SLetK(Expr):
    binders: tuple[tuple[str, TypeExpr], ...]  # one, or several (destructuring)
    rhs: Expr
    body: Expr
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class SLambda(Expr):
    params: tuple[tuple[str, TypeExpr], ...]
    ret: TypeExpr
    body: Expr
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class SApply(Expr):
    fn: Expr
    args: tuple[Expr, ...]
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class SThunk(Expr):
    ann: Optional[TypeExpr]
    body: Expr
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Definition:
    name: str
    ann: Optional[TypeExpr]
    rhs: Expr
    loc: Loc | None = None


@dataclass(frozen=True)
class TypeAliasDef:
    name: str
    params: tuple[str, ...]
    rhs: TypeExpr
    loc: Loc | None = None


@dataclass(frozen=True)
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
    loc: Loc


_PUNCT2 = (":>", "<=", ">=", "==", "!=", "::", "||", "/\\", "<:", "->")
_PUNCT1 = "{}()[]<>,;:#&+-*/%=.\\@~^!|"
_ESCAPES = {"n": "\n", "t": "\t"}

# Leading blanks, then one alternative per token kind, tried in order. `\d`
# is what `int` accepts; an identifier must start with a letter or `_`, which
# `tokenize` checks, as `\w` also admits digits such as `²`. A `"` that does
# not open a whole literal falls through to ERR. `tokenize` stops the scan
# before trailing blanks, which would otherwise backtrack into ERR.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?P<NL>\n)|(?P<COMMENT>//[^\n]*)"
    r'|(?P<STRING>"[^"\\]*(?:\\.[^"\\]*)*")'
    r"|(?P<FLOAT>\d+\.\d+)|(?P<INT>\d+)|(?P<IDENT>\w[\w%]*)"
    f"|(?P<PUNCT>{'|'.join(map(re.escape, _PUNCT2))}|[{re.escape(_PUNCT1)}])"
    r"|(?P<ERR>.))",
    re.DOTALL,
)


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN_RE.finditer(src, 0, len(src.rstrip(" \t\r"))):
        kind = m.lastgroup
        if kind == "NL":
            line, line_start = line + 1, m.end()
            continue
        if kind == "COMMENT":
            continue
        start, text = m.start(kind), m[kind]
        loc = Loc(line, start - line_start + 1)
        if kind == "STRING":
            if "\n" in text:
                line += text.count("\n")
                line_start = src.rindex("\n", start, m.end()) + 1
            text = text[1:-1]
            if "\\" in text:
                text = re.sub(r"\\(.)", lambda e: _ESCAPES.get(e[1], e[1]), text, flags=re.DOTALL)
        elif kind == "ERR" and text == '"':
            raise ParseError("unterminated string literal", loc)
        elif kind == "ERR" or (kind == "IDENT" and not (text[0].isalpha() or text[0] == "_")):
            raise ParseError(f"unexpected character {text[0]!r}", loc)
        toks.append(Token(kind, text, loc))
    # EOF sits after trailing blanks, but a final comment does not move it.
    end = m.start("COMMENT") if m and m.lastgroup == "COMMENT" else len(src)
    toks.append(Token("EOF", "", Loc(line, end - line_start + 1)))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Binary operators: token -> (base operation, precedence). `::` associates to
# the right, a comparison takes no comparison operand, the rest associate to
# the left.
_BINARY = {
    "==": ("eq", 1), "!=": ("neq", 1), "<=": ("le", 1), ">=": ("ge", 1),
    "::": ("cons", 2),
    "+": ("add", 3), "-": ("sub", 3),
    "*": ("mul", 4), "/": ("div", 4), "%": ("mod", 4),
}


class _Parser:
    def __init__(self, src: str):
        # One more EOF after the last, so that `peek(1)` never needs a bound;
        # `next` stops at the first.
        self.toks = tokenize(src)
        self.toks.append(self.toks[-1])
        self.pos = 0

    # token helpers --------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def at(self, text: str, ahead: int = 0) -> bool:
        t = self.toks[self.pos + ahead]
        return t.text == text and t.kind in ("PUNCT", "IDENT")

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        """Consume the token `text` if it is next."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "EOF":
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.loc)
        return self.next()

    def ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "IDENT" or t.text in KEYWORDS:
            raise ParseError(f"expected {what}, found {t.text!r}", t.loc)
        return self.next()

    def service_name(self) -> Token:
        # Service names live in their own namespace; keywords are permitted
        # (desugared wrappers use services named let/k).
        t = self.peek()
        if t.kind != "IDENT":
            raise ParseError(f"expected a service name, found {t.text!r}", t.loc)
        return self.next()

    def seq(self, close: str, item: Callable[[], Any]) -> list[Any]:
        """Comma-separated `item`s up to `close`, which is consumed."""
        out = []
        while not self.at(close):
            out.append(item())
            if not self.at(close):
                self.expect(",")
        self.expect(close)
        return out

    def typed_binder(self, what: str) -> tuple[str, TypeExpr]:
        name = self.ident(what).text
        self.expect(":")
        return name, self.type_expr()

    # program --------------------------------------------------------------

    def program(self) -> Program:
        aliases: list[TypeAliasDef] = []
        defs: list[Definition] = []
        while True:
            if self.at("def"):
                loc = self.next().loc
                name = self.ident("definition name").text
                ann = self.type_expr() if self.accept(":") else None
                self.expect("=")
                rhs = self.expr()
                self.expect(";")
                defs.append(Definition(name, ann, rhs, loc))
            elif self.at("type"):
                loc = self.next().loc
                name = self.ident("type alias name").text
                params: list[str] = []
                if self.accept("["):
                    params = self.seq("]", lambda: self.ident("type parameter").text)
                self.expect("=")
                rhs = self.type_expr()
                self.expect(";")
                aliases.append(TypeAliasDef(name, tuple(params), rhs, loc))
            else:
                break
        main: Optional[Expr] = None
        if not self.at_kind("EOF"):
            main = self.expr()
            t = self.peek()
            if t.kind != "EOF":
                raise ParseError(f"unexpected {t.text!r} after main expression", t.loc)
        return Program(tuple(aliases), tuple(defs), main)

    # expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        first = self.binary()
        if not self.at("||"):
            return first
        parts = [first]
        while self.accept("||"):
            parts.append(self.binary())
        # No flattening here: `(a || b) || c` stays nested so parsing is the
        # exact inverse of pretty-printing. Rule Par flattens at run time.
        return Par(tuple(parts), loc=getattr(parts[0], "loc", None))

    def binary(self, level: int = 1) -> Expr:
        """Precedence climbing over `_BINARY`: operators binding at `level` or tighter."""
        left = self.prefix_expr()
        while True:
            t = self.peek()
            op = _BINARY.get(t.text) if t.kind == "PUNCT" else None
            if op is None or op[1] < level:
                return left
            self.next()
            name, prec = op
            right = self.binary(prec if name == "cons" else prec + 1)
            left = BaseOp(name, (left, right), loc=t.loc)
            if prec == 1:  # comparisons do not chain
                return left

    def prefix_expr(self) -> Expr:
        t = self.peek()
        if self.at("spwn"):
            loc = self.next().loc
            placement = Placement.LOCAL if self.accept("local") else Placement.REMOTE
            return Spwn(self.prefix_expr(), placement, loc=loc)
        if self.at("snap"):
            loc = self.next().loc
            return Snap(self.prefix_expr(), loc=loc)
        if self.at("repl"):
            loc = self.next().loc
            target = self.postfix_expr()
            image = self.postfix_expr()
            return Repl(target, image, loc=loc)
        if self.at("thunk"):
            loc = self.next().loc
            ann = None
            if self.accept("["):
                ann = self.type_expr()
                self.expect("]")
            body = self.binary()
            return SThunk(ann, body, loc=loc)
        if self.at("if"):
            loc = self.next().loc
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            orelse = self.binary()
            return If(cond, then, orelse, loc=loc)
        if self.at("let"):
            return self.let_expr()
        if self.at("letk"):
            return self.letk_expr()
        if self.at("\\"):
            return self.lambda_expr()
        if self.at("/\\"):
            loc = self.next().loc
            var = self.ident("type variable").text
            bound = self.type_expr() if self.accept("<:") else Top()
            self.expect(".")
            body = self.expr()
            return TypeAbs(var, bound, body, loc=loc)
        if t.kind == "PUNCT" and t.text == "-":
            loc = self.next().loc
            operand = self.prefix_expr()
            if (
                isinstance(operand, BaseLit)
                and isinstance(operand.value, (int, float))
                and not isinstance(operand.value, bool)
            ):
                return BaseLit(-operand.value, loc=loc)
            return BaseOp("sub", (BaseLit(0, loc=loc), operand), loc=loc)
        return self.postfix_expr()

    def let_expr(self) -> Expr:
        loc = self.next().loc
        name = self.ident("binder").text
        ann = self.type_expr() if self.accept(":") else None
        self.expect("=")
        rhs = self.expr()
        self.expect("in")
        body = self.expr()
        return SLet(name, ann, rhs, body, loc=loc)

    def letk_expr(self) -> Expr:
        loc = self.next().loc
        binders: list[tuple[str, TypeExpr]] = []
        if self.accept("("):
            while True:
                binders.append(self.typed_binder("binder"))
                if self.at(")"):
                    break
                self.expect(",")
            self.expect(")")
        else:
            binders.append(self.typed_binder("binder"))
        self.expect("=")
        rhs = self.expr()
        self.expect("in")
        body = self.expr()
        return SLetK(tuple(binders), rhs, body, loc=loc)

    def lambda_expr(self) -> Expr:
        loc = self.next().loc
        self.expect("(")
        params = self.seq(")", lambda: self.typed_binder("parameter"))
        self.expect("->")
        ret = self.type_expr()
        self.expect(".")
        body = self.expr()
        return SLambda(tuple(params), ret, body, loc=loc)

    def postfix_expr(self) -> Expr:
        # Call syntax `f(args)` only attaches to unparenthesized variables
        # and call chains, so juxtaposed operands (repl e1 e2) never swallow
        # a parenthesized neighbour.
        grouped = self.at("(")
        e = self.atom()
        callable_head = isinstance(e, core.Var) and not grouped
        while True:
            t = self.peek()
            if t.kind != "PUNCT":
                break
            if t.text == "#":
                self.next()
                svc = self.service_name().text
                e = ServiceRef(e, svc, loc=t.loc)
                callable_head = False
            elif t.text == "<":
                self.next()
                e = Request(e, tuple(self.seq(">", self.expr)), loc=t.loc)
                callable_head = False
            elif t.text == "[":
                self.next()
                ty = self.type_expr()
                self.expect("]")
                e = TypeApp(e, ty, loc=t.loc)
                callable_head = False
            elif t.text == "(" and callable_head:
                self.next()
                args = tuple(self.seq(")", self.expr))
                if isinstance(e, core.Var) and is_builtin(e.name):
                    e = BaseOp(e.name, args, loc=t.loc)
                else:
                    e = SApply(e, args, loc=t.loc)
            else:
                break
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return BaseLit(int(t.text), loc=t.loc)
        if t.kind == "FLOAT":
            self.next()
            return BaseLit(float(t.text), loc=t.loc)
        if t.kind == "STRING":
            self.next()
            return BaseLit(t.text, loc=t.loc)
        if self.accept("true"):
            return BaseLit(True, loc=t.loc)
        if self.accept("false"):
            return BaseLit(False, loc=t.loc)
        if self.accept("this"):
            return This(loc=t.loc)
        if self.accept("zero"):
            return ZeroImage(loc=t.loc)
        if self.accept("par"):
            items = self.seq(")", self.expr) if self.accept("(") else ()
            return Par(tuple(items), loc=t.loc)
        if self.at("srv"):
            return self.template()
        if self.accept("img"):
            self.expect("(")
            tmpl = self.expr()
            self.expect(",")
            self.expect("[")
            buf = tuple(self.seq("]", self.message))
            self.expect(")")
            return Image(tmpl, buf, loc=t.loc)
        if self.accept("^"):
            name = self.ident("external service name").text
            return ExternalRef(name, loc=t.loc)
        if self.accept("@"):
            placement = Placement.LOCAL if self.accept("~") else Placement.REMOTE
            num = self.next()
            if num.kind != "INT":
                raise ParseError("expected address number after @", num.loc)
            return Addr(Address(int(num.text), placement), loc=t.loc)
        if self.accept("["):
            return ListV(tuple(self.seq("]", self.expr)), loc=t.loc)
        if self.accept("("):
            if self.at(")"):
                raise ParseError("empty parentheses are not an expression", t.loc)
            items = [self.expr()]
            while self.accept(","):
                items.append(self.expr())
            self.expect(")")
            return items[0] if len(items) == 1 else TupleV(tuple(items), loc=t.loc)
        if t.kind == "IDENT" and t.text not in KEYWORDS:
            self.next()
            return core.Var(t.text, loc=t.loc)
        raise ParseError(f"unexpected token {t.text!r}", t.loc)

    def message(self) -> MessageValue:
        name = self.service_name().text
        self.expect("<")
        args = tuple(self.seq(">", self.expr))
        if not all(map(is_value, args)):
            raise ParseError("buffered message arguments must be values", self.peek().loc)
        return MessageValue(name, args)

    def template(self) -> Expr:
        start = self.expect("srv")
        transparent = self.accept("*")
        self.expect("{")
        header: dict[str, SvcT] = {}
        # Header entries: `name: <T, ...>` separated by optional commas, until
        # the first pattern (`name<`), which starts the rules.
        while (
            self.peek().kind == "IDENT"
            and self.peek().text not in KEYWORDS
            and self.at(":", ahead=1)
        ):
            name, ty = self.typed_binder("identifier")
            if not isinstance(ty, SvcT):
                raise ParseError(f"service {name!r} must be declared at a service type", start.loc)
            if name in header:
                raise ParseError(f"duplicate service declaration {name!r}", start.loc)
            header[name] = ty
            self.accept(",")
        rules: list[ReactionRule] = []
        while not self.at("}"):
            rules.append(self.rule(header))
        self.expect("}")
        if not rules:
            raise ParseError("server template needs at least one rule", start.loc)
        return ServerTemplate(tuple(rules), transparent, loc=start.loc)

    def rule(self, header: dict[str, SvcT]) -> ReactionRule:
        patterns = [self.pattern(header)]
        while self.accept("&"):
            patterns.append(self.pattern(header))
        self.expect(":>")
        body = self.expr()
        return ReactionRule(tuple(patterns), body)

    def pattern(self, header: dict[str, SvcT]) -> JoinPattern:
        name_tok = self.service_name()
        self.expect("<")
        params = self.seq(">", self.pattern_param)
        declared = header.get(name_tok.text)
        resolved: list[tuple[str, TypeExpr]] = []
        for idx, (p, ann) in enumerate(params):
            if ann is None:
                if declared is None or len(declared.args) != len(params):
                    raise ParseError(
                        f"parameter {p!r} of service {name_tok.text!r} needs a type "
                        "annotation (inline or via a header declaration)",
                        name_tok.loc,
                    )
                ann = declared.args[idx]
            resolved.append((p, ann))
        if declared is not None and len(declared.args) != len(params):
            raise ParseError(
                f"service {name_tok.text!r} declared with {len(declared.args)} "
                f"parameters but pattern has {len(params)}",
                name_tok.loc,
            )
        return JoinPattern(name_tok.text, tuple(resolved))

    def pattern_param(self) -> tuple[str, Optional[TypeExpr]]:
        name = self.ident("pattern parameter").text
        return name, (self.type_expr() if self.accept(":") else None)

    # types ------------------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        t = self.peek()
        if self.accept("("):
            args: list[TypeExpr] = []
            if not self.at(")"):
                args.append(self.type_expr())
                while self.accept(","):
                    args.append(self.type_expr())
            self.expect(")")
            if self.accept("->"):
                return SvcT((*args, SvcT((self.type_expr(),))))
            if len(args) == 1:
                return args[0]
            if not args:
                raise ParseError("empty type parentheses", t.loc)
            return DataT("Tuple", tuple(args))
        return self.prefix_type()

    def prefix_type(self) -> TypeExpr:
        t = self.peek()
        if self.accept("inst"):
            return core.InstT(self.prefix_type())
        if self.accept("img"):
            return core.ImgT(self.prefix_type())
        if self.accept("forall"):
            var = self.ident("type variable").text
            bound = self.type_expr() if self.accept("<:") else Top()
            self.expect(".")
            return Univ(var, bound, self.type_expr())
        if self.accept("<"):
            return SvcT(tuple(self.seq(">", self.type_expr)))
        if self.accept("srv"):
            self.expect("{")

            def entry() -> tuple[str, TypeExpr]:
                name, ty = self.typed_binder("service name")
                if not isinstance(ty, SvcT):
                    raise ParseError(f"service {name!r} must have a service type", t.loc)
                return name, ty

            return SrvT(tuple(self.seq("}", entry)))
        if self.at("("):
            return self.type_expr()
        if t.kind == "IDENT" and t.text not in KEYWORDS:
            self.next()
            name = t.text
            if name == "Top":
                return Top()
            if name == "Unit":
                return UnitT()
            if name == "Bot":
                return Bot()
            if name == "SrvBot":
                return SrvBot()
            if name in ("Int", "Bool", "Float", "String"):
                return BaseT(name)
            args = tuple(self.seq("]", self.type_expr)) if self.accept("[") else ()
            if name in ("List", "Map", "Tuple"):
                return DataT(name, args)
            if name[0].islower() and not args:
                return TypeVar(name)
            return AliasT(name, args)
        raise ParseError(f"expected a type, found {t.text!r}", t.loc)


def parse(text: str) -> Program:
    """Parse a .cpl source string into a surface program."""
    return _Parser(text).program()


def parse_expr(text: str) -> Expr:
    """Parse a single expression (no defs or aliases)."""
    p = _Parser(text)
    e = p.expr()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected {t.text!r} after expression", t.loc)
    return e
