"""Concrete MiniImp interpreter.

Runs both original and rewritten programs.  For rewritten programs it needs
the gardens (for the idx/unidx intrinsics and for index truthiness) and the
indexed operator tables.  Consuming BOT - unindexing it, branching on it, or
comparing against it - abandons the run with the escaped-garden verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    BOT,
    Assert,
    Assign,
    BinOp,
    BotLiteral,
    Call,
    Decl,
    EscapedGarden,
    Expr,
    ExprStmt,
    FunctionDef,
    If,
    Literal,
    MakeSymbolic,
    MiniImpError,
    Program,
    Return,
    Stmt,
    UnOp,
    Value,
    Var,
    While,
    declared_types,
    is_index,
    mk_bool,
    mk_int,
    no_bot,
    truthy,
)

VERDICT_OK = "ok"
VERDICT_ASSERT = "assertion-failure"
VERDICT_ESCAPED = "escaped-garden"
VERDICT_BOUND = "bound-exceeded"
VERDICT_DIV_ZERO = "division-by-zero"


@dataclass(frozen=True)
class InterpResult:
    verdict: str
    return_value: Value | None
    covered_branches: frozenset
    outputs: tuple


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class _AssertFailed(Exception):
    pass


class _BoundExceeded(Exception):
    pass


class DivisionByZero(Exception):
    """A `/` or `%` by zero.  It ends the run or path with a verdict: the
    program is well-formed, so this is not an input error."""


class Interpreter:
    def __init__(self, program: Program, inputs, *, gardens=None, tables=None,
                 unroll: int = 16, bot_propagate: bool = False):
        self.program = program
        self.inputs = inputs or {}
        self.gardens = gardens or {}
        self.tables = tables or {}
        self.unroll = unroll
        self.bot_propagate = bot_propagate
        self.decls = {f.name: declared_types(f) for f in program.functions}
        self.covered_branches = set()
        self.outputs = []
        self.loop_counts = {}

    # -- entry ---------------------------------------------------------------

    def run(self) -> InterpResult:
        verdict = VERDICT_OK
        value = None
        try:
            value = self.call_function(self.program.main, [])
        except _AssertFailed:
            verdict = VERDICT_ASSERT
        except EscapedGarden:
            verdict = VERDICT_ESCAPED
        except _BoundExceeded:
            verdict = VERDICT_BOUND
        except DivisionByZero:
            verdict = VERDICT_DIV_ZERO
        return InterpResult(
            verdict=verdict,
            return_value=value,
            covered_branches=frozenset(self.covered_branches),
            outputs=tuple(self.outputs),
        )

    def call_function(self, f: FunctionDef, args: list[Value]) -> Value:
        scope = {}
        for p, a in zip(f.params, args):
            scope[p.name] = a
        try:
            self.exec_block(f.body, scope, (f.name,))
        except _ReturnSignal as r:
            return r.value
        raise MiniImpError(f"{f.name} finished without returning")

    # -- statements ----------------------------------------------------------

    def exec_block(self, body: list[Stmt], scope, path) -> None:
        for i, s in enumerate(body):
            self.exec_stmt(s, scope, path + (i,))

    def exec_stmt(self, s: Stmt, scope, path) -> None:
        if isinstance(s, Decl):
            scope[s.name] = self.eval(s.init, scope) if s.init is not None else None
        elif isinstance(s, Assign):
            scope[s.name] = self.eval(s.value, scope)
        elif isinstance(s, If):
            taken = self.condition(s.cond, scope)
            self.covered_branches.add((path, taken))
            self.exec_block(s.then if taken else s.orelse, scope, path + ("t" if taken else "e",))
        elif isinstance(s, While):
            while True:
                taken = self.condition(s.cond, scope)
                self.covered_branches.add((path, taken))
                if not taken:
                    break
                n = self.loop_counts.get(path, 0) + 1
                if n > self.unroll:
                    raise _BoundExceeded()
                self.loop_counts[path] = n
                self.exec_block(s.body, scope, path + ("b",))
        elif isinstance(s, Assert):
            if not self.condition(s.cond, scope):
                raise _AssertFailed()
        elif isinstance(s, Return):
            raise _ReturnSignal(self.eval(s.value, scope) if s.value else None)
        elif isinstance(s, ExprStmt):
            self.eval(s.expr, scope)
        elif isinstance(s, MakeSymbolic):
            self.bind_symbolic(s.name, scope, path[0])
        else:
            raise MiniImpError(f"cannot execute {s!r}")

    def bind_symbolic(self, name: str, scope, fn_name: str) -> None:
        if name not in self.inputs:
            raise MiniImpError(f"unbound symbolic variable {name!r}")
        v = self.inputs[name]
        want = self.decls[fn_name].get(name)
        if want is None:
            raise MiniImpError(f"no declaration for {name!r}")
        if is_index(want) and v.tag == want.base:
            # inputs carry real values; map them into the garden here
            garden = self.gardens.get(want.base)
            if garden is None:
                raise MiniImpError(f"no garden for {want.base!r}")
            v = Value(want, garden.index_or_bot(v))
        if v.tag != want:
            raise MiniImpError(f"input {name!r} has tag {v.tag!r}, expected {want!r}")
        scope[name] = v

    # -- expressions ---------------------------------------------------------

    def condition(self, e: Expr, scope) -> bool:
        return self.truth(self.eval(e, scope))

    def truth(self, v: Value) -> bool:
        no_bot(v)
        if is_index(v.tag):
            garden = self.gardens.get(v.tag.base)
            if garden is None:
                raise MiniImpError(f"no garden for {v.tag!r}")
            return truthy(garden.value_at(v.raw))
        return truthy(v)

    def eval(self, e: Expr, scope) -> Value:
        if isinstance(e, Literal):
            return Value(e.tag, e.value)
        if isinstance(e, BotLiteral):
            return Value(e.tag, BOT)
        if isinstance(e, Var):
            v = scope.get(e.name)
            if v is None:
                raise MiniImpError(f"read of uninitialised variable {e.name!r}")
            return v
        if isinstance(e, UnOp):
            v = self.eval(e.operand, scope)
            no_bot(v)
            if e.op == "!":
                return mk_bool(not v.raw)
            return mk_int(-v.raw)
        if isinstance(e, BinOp):
            lv = self.eval(e.left, scope)
            rv = self.eval(e.right, scope)
            no_bot(lv, rv)
            return concrete_binop(e.op, lv, rv)
        if isinstance(e, Call):
            return self.call(e, scope)
        raise MiniImpError(f"cannot evaluate {e!r}")

    def call(self, e: Call, scope) -> Value:
        args = [self.eval(a, scope) for a in e.args]
        user = self.program.function(e.name)
        if user is not None:
            return self.call_function(user, args)
        if e.name == "idx":
            return self.intrinsic_idx(args[0])
        if e.name == "unidx":
            return self.intrinsic_unidx(args[0])
        if e.name in self.tables:
            return self.table_call(self.tables[e.name], args)
        if e.name == "puts":
            no_bot(args[0])
            self.outputs.append(args[0].raw)
            return mk_int(0)
        from ..iot import REGISTRY  # iot imports lang, so not at module level

        op = REGISTRY.get(e.name)
        if op is None:
            raise MiniImpError(f"call to unknown function {e.name!r}")
        no_bot(*args)
        return op.eval(*args)

    def intrinsic_idx(self, v: Value) -> Value:
        no_bot(v)
        garden = self.gardens.get(v.tag)
        if garden is None:
            raise MiniImpError(f"idx: no garden for {v.tag!r}")
        from .ast import index_of

        return Value(index_of(v.tag), garden.index_or_bot(v))

    def intrinsic_unidx(self, v: Value) -> Value:
        no_bot(v)
        garden = self.gardens.get(v.tag.base)
        if garden is None:
            raise MiniImpError(f"unidx: no garden for {v.tag!r}")
        return garden.value_at(v.raw)

    def table_call(self, table, args: list[Value]) -> Value:
        key = []
        for v in args:
            if v.raw is BOT and not self.bot_propagate:
                raise EscapedGarden()
            key.append(v.raw)
        return table.lookup_value(tuple(key))


def _c_div(a: int, b: int) -> int:
    # C semantics: truncate toward zero
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def concrete_binop(op: str, lv: Value, rv: Value) -> Value:
    a, b = lv.raw, rv.raw
    if op == "==":
        return mk_bool(a == b)  # IEEE semantics on floats: nan != nan
    if op == "!=":
        return mk_bool(a != b)
    if op == "&&":
        return mk_bool(bool(a and b))
    if op == "||":
        return mk_bool(bool(a or b))
    if op == "<":
        return mk_bool(a < b)
    if op == "<=":
        return mk_bool(a <= b)
    if op == ">":
        return mk_bool(a > b)
    if op == ">=":
        return mk_bool(a >= b)
    if op == "+":
        return mk_int(a + b)
    if op == "-":
        return mk_int(a - b)
    if op == "*":
        return mk_int(a * b)
    if op in ("/", "%"):
        if b == 0:
            raise DivisionByZero()
        q = _c_div(a, b)
        return mk_int(q if op == "/" else a - q * b)
    raise MiniImpError(f"unknown operator {op!r}")


def interpret(p: Program, inputs=None, *, gardens=None, tables=None,
              unroll: int = 16, bot_propagate: bool = False) -> InterpResult:
    return Interpreter(
        p, inputs, gardens=gardens, tables=tables, unroll=unroll,
        bot_propagate=bot_propagate,
    ).run()
