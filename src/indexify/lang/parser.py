"""Recursive-descent parser for MiniImp (.mi sources).

The grammar lives in docs/grammar.md; the pretty-printer in printer.py emits
the canonical formatting, and parse(print(p)) == p structurally.

The source is scanned once, by one regular expression whose last
alternative takes any character no token starts with.  Tokens are
(kind, text, offset) tuples, and a line and column are worked out from an
offset only when a MiniImpSyntaxError is raised.
"""

from __future__ import annotations

import re

from .ast import (
    BOOL,
    FLOAT,
    INT,
    OPERATORS,
    SCALARS,
    STR,
    Assert,
    Assign,
    BinOp,
    BotLiteral,
    Call,
    Decl,
    Expr,
    ExprStmt,
    FunctionDef,
    If,
    Literal,
    MakeSymbolic,
    MiniImpSyntaxError,
    Param,
    Program,
    Return,
    Stmt,
    TypeTag,
    UnOp,
    Var,
    While,
    index_of,
)

KEYWORDS = {
    "int", "float", "bool", "str", "index",
    "if", "else", "while", "return", "assert", "symbolic",
    "true", "false", "bot", "nan", "inf",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\|\||&&|==|!=|<=|>=|->|[-+*/%<>!=(){},;@])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_STR_ESCAPES = {"n": 0x0A, "t": 0x09, "r": 0x0D, "0": 0x00, '"': 0x22, "\\": 0x5C}
_ESCAPE_RE = re.compile(r'\\(x[0-9A-Fa-f]{2}|[ntr0"\\])')


def _syntax_error(msg: str, source: str, offset: int) -> MiniImpSyntaxError:
    """The error msg at offset in source, placed at its 1-based line and
    column; a tab is one column."""
    line = source.count("\n", 0, offset) + 1
    return MiniImpSyntaxError(msg, line, offset - source.rfind("\n", 0, offset))


def tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, without whitespace or comments,
    then ("eof", "", len(source))."""
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise _syntax_error(f"unexpected character {m.group()!r}", source, m.start())
        if kind != "ws" and kind != "comment":
            append((kind, m.group(), m.start()))
    append(("eof", "", len(source)))
    return tokens


def unescape_string(body: str) -> bytes:
    r"""The bytes that escaped text denotes: UTF-8 text with the escapes
    \n \t \r \0 \" \\ and \xHH (exactly two hex digits).

    Source string literals (between their quotes), garden and seed literals
    and test-case strings are all decoded here; a bad escape raises ValueError.
    """
    out = bytearray()
    pos = 0
    while (i := body.find("\\", pos)) >= 0:
        out += body[pos:i].encode("utf-8")
        m = _ESCAPE_RE.match(body, i)
        if m is None:
            bad = body[i : i + 4] if body.startswith("\\x", i) else body[i : i + 2]
            raise ValueError(f"bad escape {bad}")
        e = m.group(1)
        out.append(int(e[1:], 16) if e[0] == "x" else _STR_ESCAPES[e])
        pos = m.end()
    out += body[pos:].encode("utf-8")
    return bytes(out)


class Parser:
    """The current token's kind, text and offset are attributes, which bump
    advances; a syntax error is placed from the offset when it is raised."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.i = 0
        self.kind, self.text, self.pos = self.tokens[0]

    # -- token plumbing ----------------------------------------------------

    def bump(self) -> str:
        """Consume the current token, never eof; returns its text."""
        text = self.text
        self.i += 1
        self.kind, self.text, self.pos = self.tokens[self.i]
        return text

    def eat(self, text: str) -> bool:
        # no number, string or eof token has the text of an operator or word
        if self.text == text:
            self.bump()
            return True
        return False

    def expect(self, text: str) -> None:
        if self.text != text:
            self.fail(f"expected {text!r}, found {self.text!r}")
        self.bump()

    def fail(self, msg: str):
        raise _syntax_error(msg, self.source, self.pos) from None

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        functions = []
        while self.kind != "eof":
            functions.append(self.function())
        names = set()
        for f in functions:
            if f.name in names:
                raise MiniImpSyntaxError(f"duplicate function {f.name!r}")
            names.add(f.name)
        return Program(functions)

    def type_name(self) -> TypeTag:
        if not self.eat("index"):
            return self.base_type()
        self.expect("<")
        base = self.base_type()
        self.expect(">")
        return index_of(base)

    def function(self) -> FunctionDef:
        rtype = self.type_name()
        name = self.ident()
        self.expect("(")
        params = []
        if self.text != ")":
            while True:
                ptype = self.type_name()
                params.append(Param(self.ident(), ptype))
                if not self.eat(","):
                    break
        self.expect(")")
        body = self.block()
        return FunctionDef(name, params, rtype, body)

    def ident(self) -> str:
        if self.kind != "ident" or self.text in KEYWORDS:
            self.fail(f"expected identifier, found {self.text!r}")
        return self.bump()

    def block(self) -> list[Stmt]:
        self.expect("{")
        stmts = []
        while not self.eat("}"):
            stmts.append(self.statement())
        return stmts

    def statement(self) -> Stmt:
        if self.text in SCALARS or self.text == "index":
            ty = self.type_name()
            name = self.ident()
            init = None
            if self.eat("="):
                init = self.expression()
            self.expect(";")
            return Decl(name, ty, init)
        if self.eat("if"):
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            then = self.block()
            orelse = self.block() if self.eat("else") else []
            return If(cond, then, orelse)
        if self.eat("while"):
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            return While(cond, self.block())
        if self.eat("assert"):
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            self.expect(";")
            return Assert(cond)
        if self.eat("return"):
            value = None if self.text == ";" else self.expression()
            self.expect(";")
            return Return(value)
        if self.eat("symbolic"):
            name = self.ident()
            self.expect(";")
            return MakeSymbolic(name)
        # assignment or bare expression
        if self.kind == "ident" and self.tokens[self.i + 1][1] == "=" \
                and self.tokens[self.i + 2][1] != "=":
            name = self.ident()
            self.expect("=")
            value = self.expression()
            self.expect(";")
            return Assign(name, value)
        expr = self.expression()
        self.expect(";")
        return ExprStmt(expr)

    def expression(self, floor: int = 1) -> Expr:
        """Precedence climbing: a unary, then each binary operator that
        binds at least as tightly as floor, its right operand parsed one
        level tighter than the operator."""
        left = self.unary()
        while (op := OPERATORS.get(self.text)) is not None and op.precedence >= floor:
            left = BinOp(self.bump(), left, self.expression(op.precedence + 1))
        return left

    def unary(self) -> Expr:
        if self.eat("!"):
            return UnOp("!", self.unary())
        if self.eat("-"):
            operand = self.unary()
            # fold negation into numeric literals so -1 and -2.5 are literals
            if isinstance(operand, Literal) and operand.tag in (INT, FLOAT):
                return Literal(operand.tag, -operand.value)
            return UnOp("-", operand)
        return self.primary()

    def primary(self) -> Expr:
        kind, text = self.kind, self.text
        if kind == "int":
            self.bump()
            if self.eat("@"):
                return Literal(index_of(self.base_type()), int(text))
            return Literal(INT, int(text))
        if kind == "float":
            self.bump()
            return Literal(FLOAT, float(text))
        if kind == "string":
            try:
                value = unescape_string(text[1:-1])
            except ValueError as e:
                self.fail(str(e))
            self.bump()
            return Literal(STR, value)
        if text in ("true", "false"):
            self.bump()
            return Literal(BOOL, text == "true")
        if text in ("nan", "inf"):
            self.bump()
            return Literal(FLOAT, float(text))
        if self.eat("bot"):
            self.expect("@")
            return BotLiteral(index_of(self.base_type()))
        if self.eat("("):
            e = self.expression()
            self.expect(")")
            return e
        if kind == "ident":
            name = self.ident()
            if self.eat("("):
                args = []
                if self.text != ")":
                    while True:
                        args.append(self.expression())
                        if not self.eat(","):
                            break
                self.expect(")")
                return Call(name, args)
            return Var(name)
        self.fail(f"expected expression, found {text!r}")

    def base_type(self) -> TypeTag:
        tag = SCALARS.get(self.text)
        if tag is None:
            self.fail(f"unknown type {self.text!r}")
        self.bump()
        return tag


def parse(source: str) -> Program:
    return Parser(source).program()


def parse_scalar_literal(text: str) -> Literal:
    """One scalar MiniImp literal, a leading - included: a test-case value,
    or a non-str garden or seed literal.  The text must be exactly one
    literal token after an optional -, with no whitespace, comment or
    parentheses; anything else (an index, bot, a variable) raises
    MiniImpSyntaxError."""
    m = _TOKEN_RE.fullmatch(text[1:] if text.startswith("-") else text)
    literal_token = m is not None and m.lastgroup in ("int", "float", "string", "ident")
    lit = Parser(text).unary() if literal_token else None
    if not isinstance(lit, Literal):
        raise MiniImpSyntaxError(f"bad literal {text!r}")
    return lit
