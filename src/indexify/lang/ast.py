"""MiniImp AST, type tags and runtime values.

MiniImp is a small C-flavoured imperative language: non-recursive functions
over int / float / bool / str scalars, plus the `index<t>` types that only
appear in rewritten programs.  Strings are byte strings with no encoding
normalisation.  AST nodes are plain dataclasses that hold syntax only, so
two pipelines producing the same syntax compare equal.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass


@dataclass(frozen=True)
class TypeTag:
    """A scalar type; `index` wraps exactly one non-index base type."""

    name: str
    base: TypeTag | None = None

    def __repr__(self) -> str:
        if self.name == "index":
            return f"index<{self.base.name}>"
        return self.name


INT = TypeTag("int")
FLOAT = TypeTag("float")
BOOL = TypeTag("bool")
STR = TypeTag("str")

SCALARS = {t.name: t for t in (INT, FLOAT, BOOL, STR)}


def index_of(base: TypeTag) -> TypeTag:
    if base.name == "index":
        raise ValueError("index types do not nest")
    return TypeTag("index", base)


def is_index(tag: TypeTag) -> bool:
    return tag.name == "index"


INTRINSICS = ("idx", "unidx")  # index and unindex a value; no function may take these names


class Bottom:
    """The undefined value: any computation that leaves the garden."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOT"


BOT = Bottom()


# How a run of the interpreter, or a path of the explorer, ends.
VERDICT_OK = "ok"  # main returned
VERDICT_ASSERT = "assertion-failure"
VERDICT_ESCAPED = "escaped-garden"
VERDICT_BOUND = "bound-exceeded"  # a loop iterated more often than the unroll bound
VERDICT_DIV_ZERO = "division-by-zero"
VERDICT_UNINIT = "uninitialised-read"  # a variable was read before any assignment
VERDICT_NO_RETURN = "missing-return"  # a function finished without returning


class RunEnd(Exception):
    """The end of a run or path, with its verdict.  Each engine catches it
    in one place.  A fault of a well-formed program (a zero divisor, an
    uninitialised read, a missing return) ends only the path it happens on;
    bad input raises MiniImpError instead."""

    def __init__(self, verdict: str):
        self.verdict = verdict


class EscapedGarden(RunEnd):
    """Raised when execution consumes BOT (unindexing it or branching on it)."""

    def __init__(self):
        self.verdict = VERDICT_ESCAPED


class DivisionByZero(RunEnd):
    """A `/` or `%` by zero."""

    def __init__(self):
        self.verdict = VERDICT_DIV_ZERO


def no_bot(*values) -> None:
    """Consume values: BOT among them escapes the garden."""
    for v in values:
        if v.raw is BOT:
            raise EscapedGarden()


@dataclass(frozen=True)
class Value:
    """Tagged runtime value.

    raw is int / float / bool / bytes, or for index tags an int in
    [0, |garden|) or BOT.
    """

    tag: TypeTag
    raw: object

    def __repr__(self) -> str:
        return f"{self.raw!r}:{self.tag!r}"


def mk_int(n: int) -> Value:
    return Value(INT, int(n))


def mk_float(x: float) -> Value:
    return Value(FLOAT, float(x))


def mk_bool(b: bool) -> Value:
    return Value(BOOL, bool(b))


def mk_str(s: bytes | str) -> Value:
    if isinstance(s, str):
        s = s.encode("utf-8")
    return Value(STR, bytes(s))


def float_key(x: float) -> bytes:
    """Dict key for a float: its bit pattern.

    A float garden holds only values that equal themselves and nothing else,
    never a NaN or a -0.0 (garden.IndexMap.admit), so there equal keys are
    equal values, and a NaN or a -0.0 is looked up as BOT.
    """
    return struct.pack("<d", x)


def value_key(v: Value) -> object:
    if v.tag is FLOAT:
        return float_key(v.raw)
    return v.raw


def truthy(v: Value) -> bool:
    """C-style truthiness for concrete non-index values.

    Index values are resolved through the garden by the caller: BOT escapes,
    otherwise an index is as truthy as the value it denotes.
    """
    if v.tag is BOOL:
        return bool(v.raw)
    if v.tag is INT:
        return v.raw != 0
    if v.tag is FLOAT:
        return v.raw != 0.0
    if v.tag is STR:
        return len(v.raw) > 0
    raise TypeError(f"no truthiness for {v.tag!r}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(eq=True)
class Expr:
    pass


@dataclass(eq=False)
class Literal(Expr):
    tag: TypeTag
    value: object

    def __eq__(self, other):
        # every NaN prints as nan, so nan == nan structurally
        if not isinstance(other, Literal) or self.tag != other.tag:
            return False
        x, y = self.value, other.value
        return x == y or x != x and y != y


@dataclass(eq=True)
class BotLiteral(Expr):
    """Undefined-value literal; only produced by the rewriter."""

    tag: TypeTag  # always an index type


@dataclass(eq=True)
class Var(Expr):
    name: str


@dataclass(eq=True)
class Call(Expr):
    name: str
    args: list[Expr]


@dataclass(eq=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


def _divide(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero()
    q = abs(a) // abs(b)  # C semantics: truncate toward zero
    return q if (a >= 0) == (b >= 0) else -q


@dataclass(frozen=True)
class Operator:
    """A binary operator.  precedence: a higher level binds more tightly, and
    the operators of one level associate to the left.  operand: the type of
    both operands, None for any one type but str.  fn maps the operands' raw
    payloads to the result's; && and || evaluate both operands."""

    precedence: int
    operand: TypeTag | None
    result: TypeTag
    fn: object


# Every binary operator; the parser, printer, type checker, interpreter and
# explorer all read it.
OPERATORS = {
    "||": Operator(1, BOOL, BOOL, lambda a, b: bool(a or b)),
    "&&": Operator(2, BOOL, BOOL, lambda a, b: bool(a and b)),
    "==": Operator(3, None, BOOL, operator.eq),  # IEEE on floats: nan != nan
    "!=": Operator(3, None, BOOL, operator.ne),
    "<": Operator(4, INT, BOOL, operator.lt),
    "<=": Operator(4, INT, BOOL, operator.le),
    ">": Operator(4, INT, BOOL, operator.gt),
    ">=": Operator(4, INT, BOOL, operator.ge),
    "+": Operator(5, INT, INT, operator.add),
    "-": Operator(5, INT, INT, operator.sub),
    "*": Operator(6, INT, INT, operator.mul),
    "/": Operator(6, INT, INT, _divide),
    "%": Operator(6, INT, INT, lambda a, b: a - _divide(a, b) * b),
}


@dataclass(eq=True)
class UnOp(Expr):
    op: str
    operand: Expr


@dataclass(eq=True)
class Stmt:
    pass


@dataclass(eq=True)
class Decl(Stmt):
    name: str
    type: TypeTag
    init: Expr | None = None


@dataclass(eq=True)
class Assign(Stmt):
    name: str
    value: Expr


@dataclass(eq=True)
class If(Stmt):
    cond: Expr
    then: list[Stmt]
    orelse: list[Stmt]


@dataclass(eq=True)
class While(Stmt):
    cond: Expr
    body: list[Stmt]


@dataclass(eq=True)
class Assert(Stmt):
    cond: Expr


@dataclass(eq=True)
class Return(Stmt):
    value: Expr | None


@dataclass(eq=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(eq=True)
class MakeSymbolic(Stmt):
    name: str


@dataclass(eq=True)
class Param:
    name: str
    type: TypeTag


@dataclass(eq=True)
class FunctionDef:
    name: str
    params: list[Param]
    return_type: TypeTag
    body: list[Stmt]


@dataclass(eq=True)
class Program:
    functions: list[FunctionDef]

    @property
    def main(self) -> FunctionDef:
        for f in self.functions:
            if f.name == "main":
                return f
        raise LookupError("program has no main function")

    def function(self, name: str) -> FunctionDef | None:
        for f in self.functions:
            if f.name == name:
                return f
        return None


class MiniImpError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


class MiniImpSyntaxError(MiniImpError):
    pass


class MiniImpTypeError(MiniImpError):
    pass


# ---------------------------------------------------------------------------
# Walks: stable statement paths
# ---------------------------------------------------------------------------

# The rewriter never adds, removes or reorders statements, so a statement's
# path is identical in a program and its rewritten form.  That is what makes
# coverage comparable across modes.


def walk_stmts(body: list[Stmt], path: tuple = ()):
    """Yield (path, stmt) in pre-order; path identifies a stmt across rebuilds."""
    for i, s in enumerate(body):
        here = path + (i,)
        yield here, s
        if isinstance(s, If):
            yield from walk_stmts(s.then, here + ("t",))
            yield from walk_stmts(s.orelse, here + ("e",))
        elif isinstance(s, While):
            yield from walk_stmts(s.body, here + ("b",))


def walk_exprs(body: list[Stmt]):
    """Yield every expression in body in pre-order: statements in walk_stmts
    order, each statement's own expressions, then their subexpressions."""
    for _, s in walk_stmts(body):
        for attr in ("init", "value", "cond", "expr"):
            e = getattr(s, attr, None)
            if e is not None:
                yield from _subexprs(e)


def _subexprs(e: Expr):
    yield e
    if isinstance(e, BinOp):
        yield from _subexprs(e.left)
        yield from _subexprs(e.right)
    elif isinstance(e, UnOp):
        yield from _subexprs(e.operand)
    elif isinstance(e, Call):
        for a in e.args:
            yield from _subexprs(a)


def declared_types(f: FunctionDef, inputs: dict | None = None) -> dict:
    """name -> declared type, for the params and every Decl of f, nested ones
    included.  A Decl retyped to index<t> reports its index type.  Given
    inputs, the same walk adds to it each variable f makes symbolic, with its
    declared type, unless inputs holds it already."""
    out = {p.name: p.type for p in f.params}
    for _, s in walk_stmts(f.body):
        if isinstance(s, Decl):
            out[s.name] = s.type
        elif inputs is not None and isinstance(s, MakeSymbolic):
            inputs.setdefault(s.name, out[s.name])
    return out


def symbolic_inputs(p: Program) -> dict:
    """name -> declared type of every input of p, in statement order: the
    one table of p's inputs.  An input is a variable p makes symbolic, and
    the type checker gives one name one type in every function that makes
    it symbolic."""
    out = {}
    for f in p.functions:
        declared_types(f, out)
    return out
