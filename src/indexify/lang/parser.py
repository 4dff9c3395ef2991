"""Recursive-descent parser for MiniImp (.mi sources).

The grammar lives in docs/grammar.md; the pretty-printer in printer.py emits
the canonical formatting, and parse(print(p)) == p structurally.
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
    """,
    re.VERBOSE,
)

_STR_ESCAPES = {"n": 0x0A, "t": 0x09, "r": 0x0D, "0": 0x00, '"': 0x22, "\\": 0x5C}
_ESCAPE_RE = re.compile(r'\\(x[0-9A-Fa-f]{2}|[ntr0"\\])')


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind},{self.text!r})"


def tokenize(source: str) -> list[Token]:
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise MiniImpSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
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
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def bump(self) -> Token:
        t = self.cur
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in ("op", "ident")

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.bump()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise MiniImpSyntaxError(
                f"expected {text!r}, found {self.cur.text!r}", self.cur.line, self.cur.col
            )
        return self.bump()

    def fail(self, msg: str):
        raise MiniImpSyntaxError(msg, self.cur.line, self.cur.col)

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        functions = []
        while self.cur.kind != "eof":
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

    def at_type(self) -> bool:
        return self.cur.kind == "ident" and (self.cur.text in SCALARS or self.cur.text == "index")

    def function(self) -> FunctionDef:
        rtype = self.type_name()
        name = self.ident()
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self.type_name()
                params.append(Param(self.ident(), ptype))
                if not self.eat(","):
                    break
        self.expect(")")
        body = self.block()
        return FunctionDef(name, params, rtype, body)

    def ident(self) -> str:
        tok = self.cur
        if tok.kind != "ident" or tok.text in KEYWORDS:
            self.fail(f"expected identifier, found {tok.text!r}")
        self.bump()
        return tok.text

    def block(self) -> list[Stmt]:
        self.expect("{")
        stmts = []
        while not self.eat("}"):
            stmts.append(self.statement())
        return stmts

    def statement(self) -> Stmt:
        if self.at_type():
            ty = self.type_name()
            name = self.ident()
            init = None
            if self.eat("="):
                init = self.expression()
            self.expect(";")
            return Decl(name, ty, init)
        if self.at("if"):
            self.bump()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            then = self.block()
            orelse = self.block() if self.eat("else") else []
            return If(cond, then, orelse)
        if self.at("while"):
            self.bump()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            return While(cond, self.block())
        if self.at("assert"):
            self.bump()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            self.expect(";")
            return Assert(cond)
        if self.at("return"):
            self.bump()
            value = None if self.at(";") else self.expression()
            self.expect(";")
            return Return(value)
        if self.at("symbolic"):
            self.bump()
            name = self.ident()
            self.expect(";")
            return MakeSymbolic(name)
        # assignment or bare expression
        if self.cur.kind == "ident" and self.tokens[self.i + 1].text == "=" \
                and self.tokens[self.i + 2].text != "=":
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
        while (op := OPERATORS.get(self.cur.text)) is not None and op.precedence >= floor:
            left = BinOp(self.bump().text, left, self.expression(op.precedence + 1))
        return left

    def unary(self) -> Expr:
        if self.at("!"):
            self.bump()
            return UnOp("!", self.unary())
        if self.at("-"):
            self.bump()
            operand = self.unary()
            # fold negation into numeric literals so -1 and -2.5 are literals
            if isinstance(operand, Literal) and operand.tag in (INT, FLOAT):
                return Literal(operand.tag, -operand.value)
            return UnOp("-", operand)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "int":
            self.bump()
            if self.eat("@"):
                return Literal(index_of(self.base_type()), int(tok.text))
            return Literal(INT, int(tok.text))
        if tok.kind == "float":
            self.bump()
            return Literal(FLOAT, float(tok.text))
        if tok.kind == "string":
            self.bump()
            try:
                return Literal(STR, unescape_string(tok.text[1:-1]))
            except ValueError as e:
                raise MiniImpSyntaxError(str(e), tok.line, tok.col) from None
        if tok.text in ("true", "false"):
            self.bump()
            return Literal(BOOL, tok.text == "true")
        if tok.text in ("nan", "inf"):
            self.bump()
            return Literal(FLOAT, float(tok.text))
        if tok.text == "bot":
            self.bump()
            self.expect("@")
            return BotLiteral(index_of(self.base_type()))
        if self.eat("("):
            e = self.expression()
            self.expect(")")
            return e
        if tok.kind == "ident":
            name = self.ident()
            if self.eat("("):
                args = []
                if not self.at(")"):
                    while True:
                        args.append(self.expression())
                        if not self.eat(","):
                            break
                self.expect(")")
                return Call(name, args)
            return Var(name)
        self.fail(f"expected expression, found {tok.text!r}")

    def base_type(self) -> TypeTag:
        tok = self.bump()
        if tok.text not in SCALARS:
            raise MiniImpSyntaxError(f"unknown type {tok.text!r}", tok.line, tok.col)
        return SCALARS[tok.text]


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
