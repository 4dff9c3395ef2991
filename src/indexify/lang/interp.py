"""Concrete MiniImp interpreter.

Runs both original and rewritten programs.  For rewritten programs it needs
the gardens (for the idx/unidx intrinsics and for index truthiness) and the
indexed operator tables.  Every way a run ends is a lang.ast.RunEnd, caught
in run() alone, which gives the run its verdict.  Consuming BOT - unindexing
it, branching on it, comparing against it, or passing it to an indexed
table's call (iot.IndexedOperatorTable.call, which also ends a raw-result
miss) - ends it with the escaped-garden verdict.  A fault of a well-formed
program ends it with a verdict too: a `/` or `%` by zero, a read of a
variable before any assignment (uninitialised-read), and a function that
finishes without returning (missing-return).  MiniImpError is bad input:
a test case that names an unknown input or gives one a wrong type, or a
program that needs a garden the run lacks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..iot import REGISTRY
from .ast import (
    BOT,
    OPERATORS,
    VERDICT_ASSERT,
    VERDICT_BOUND,
    VERDICT_ESCAPED,  # re-exported: check and perfbench import it from here
    VERDICT_NO_RETURN,
    VERDICT_OK,
    VERDICT_UNINIT,
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
    MiniImpError,
    Program,
    Return,
    RunEnd,
    Stmt,
    UnOp,
    Value,
    Var,
    While,
    index_of,
    is_index,
    mk_bool,
    mk_int,
    no_bot,
    symbolic_inputs,
    truthy,
)

# The default loop bound: a loop that iterates more often ends the run with
# VERDICT_BOUND.  Exploration and replay bound their loops the same way, so a
# replayed test case reproduces its bound-exceeded verdict.
UNROLL = 16


@dataclass(frozen=True)
class InterpResult:
    verdict: str
    return_value: Value | None
    covered_branches: frozenset
    outputs: tuple


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class Interpreter:
    def __init__(self, program: Program, inputs, *, gardens=None, tables=None,
                 unroll: int = UNROLL, bot_propagate: bool = False, input_types=None):
        # input_types is symbolic_inputs(program), which a caller running one
        # program many times works out once and passes in
        self.program = program
        self.inputs = inputs or {}
        self.gardens = gardens or {}
        self.tables = tables or {}
        self.unroll = unroll
        self.bot_propagate = bot_propagate
        self.input_types = symbolic_inputs(program) if input_types is None else input_types
        unknown = self.inputs.keys() - self.input_types
        if unknown:
            raise MiniImpError(f"input {min(unknown)!r} is never made symbolic")
        self.covered_branches = set()
        self.outputs = []
        self.loop_counts = {}

    # -- entry ---------------------------------------------------------------

    def run(self) -> InterpResult:
        verdict = VERDICT_OK
        value = None
        try:
            value = self.call_function(self.program.main, [])
        except RunEnd as end:
            verdict = end.verdict
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
        raise RunEnd(VERDICT_NO_RETURN)

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
                    raise RunEnd(VERDICT_BOUND)
                self.loop_counts[path] = n
                self.exec_block(s.body, scope, path + ("b",))
        elif isinstance(s, Assert):
            if not self.condition(s.cond, scope):
                raise RunEnd(VERDICT_ASSERT)
        elif isinstance(s, Return):
            raise _ReturnSignal(self.eval(s.value, scope) if s.value else None)
        elif isinstance(s, ExprStmt):
            self.eval(s.expr, scope)
        elif isinstance(s, MakeSymbolic):
            self.bind_symbolic(s.name, scope)
        else:
            raise MiniImpError(f"cannot execute {s!r}")

    def bind_symbolic(self, name: str, scope) -> None:
        if name not in self.inputs:
            raise MiniImpError(f"unbound symbolic variable {name!r}")
        v = self.inputs[name]
        want = self.input_types[name]
        if is_index(want) and v.tag == want.base:
            # inputs carry real values; map them into the garden here
            v = Value(want, self.garden(want.base).index_or_bot(v))
        if v.tag != want:
            raise MiniImpError(f"input {name!r} has tag {v.tag!r}, expected {want!r}")
        scope[name] = v

    # -- expressions ---------------------------------------------------------

    def condition(self, e: Expr, scope) -> bool:
        return self.truth(self.eval(e, scope))

    def truth(self, v: Value) -> bool:
        no_bot(v)
        if is_index(v.tag):
            return truthy(self.garden(v.tag.base).value_at(v.raw))
        return truthy(v)

    def eval(self, e: Expr, scope) -> Value:
        if isinstance(e, Literal):
            return Value(e.tag, e.value)
        if isinstance(e, BotLiteral):
            return Value(e.tag, BOT)
        if isinstance(e, Var):
            v = scope.get(e.name)
            if v is None:
                raise RunEnd(VERDICT_UNINIT)
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
            op = OPERATORS[e.op]
            return Value(op.result, op.fn(lv.raw, rv.raw))
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
            return self.tables[e.name].call(tuple(a.raw for a in args), self.bot_propagate)
        if e.name == "puts":
            no_bot(args[0])
            self.outputs.append(args[0].raw)
            return mk_int(0)
        op = REGISTRY.get(e.name)
        if op is None:
            raise MiniImpError(f"call to unknown function {e.name!r}")
        no_bot(*args)
        return op.eval(*args)

    def intrinsic_idx(self, v: Value) -> Value:
        no_bot(v)
        return Value(index_of(v.tag), self.garden(v.tag).index_or_bot(v))

    def intrinsic_unidx(self, v: Value) -> Value:
        no_bot(v)
        return self.garden(v.tag.base).value_at(v.raw)

    def garden(self, base):
        """The garden of base values, which a run that indexes them needs."""
        garden = self.gardens.get(base)
        if garden is None:
            raise MiniImpError(f"no garden for {base!r}")
        return garden


def interpret(p: Program, inputs=None, **kw) -> InterpResult:
    """p's run on inputs; kw is Interpreter's: gardens, tables, unroll,
    bot_propagate and input_types."""
    return Interpreter(p, inputs, **kw).run()
