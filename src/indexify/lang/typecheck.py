"""MiniImp typechecker.

Checks the type of every expression against its use and builtin calls
against the operator signature table, and rejects recursive user functions
(the call graph must be a DAG).  One name made symbolic in several functions
is one input, so it must have one declared type in all of them.  It attaches
nothing to the AST: a program passes unchanged or raises.  Works on both
original programs and rewriter output; for the latter, pass the
indexed-operator signatures via extra_sigs.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter

from ..garden import OperatorSignature
from ..iot import REGISTRY
from .ast import (
    BOOL,
    INT,
    INTRINSICS,
    OPERATORS,
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
    MiniImpTypeError,
    Program,
    Return,
    Stmt,
    TypeTag,
    UnOp,
    Var,
    While,
    index_of,
    is_index,
)


class TypeChecker:
    def __init__(self, program: Program, extra_sigs=None):
        self.program = program
        self.builtins = {name: op.signature for name, op in REGISTRY.items()}
        if extra_sigs:
            self.builtins.update(extra_sigs)
        self.user_fns: dict[str, OperatorSignature] = {}
        self.calls_from: dict[str, set[str]] = {}
        self.inputs: dict[str, tuple] = {}  # input name -> (function, type)

    def run(self) -> Program:
        for f in self.program.functions:
            if f.name in self.builtins:
                raise MiniImpTypeError(f"function {f.name!r} shadows a builtin")
            if f.name in INTRINSICS:
                raise MiniImpTypeError(f"function {f.name!r} shadows an intrinsic")
            self.user_fns[f.name] = OperatorSignature(
                f.name, tuple(p.type for p in f.params), f.return_type)
        main = self.program.function("main")
        if main is None:
            raise MiniImpTypeError("program has no main function")
        if main.params:
            raise MiniImpTypeError("main takes no parameters")
        for f in self.program.functions:
            self.check_function(f)
        self.check_dag()
        return self.program

    def check_dag(self) -> None:
        # the sorter takes each caller's callees as its predecessors, so it
        # reports a cycle against the call direction; sorting keeps the
        # reported cycle independent of set order
        graph = {f: sorted(callees) for f, callees in self.calls_from.items()}
        try:
            TopologicalSorter(graph).prepare()
        except CycleError as e:
            cycle = " -> ".join(reversed(e.args[1]))
            raise MiniImpTypeError(f"recursive call chain: {cycle}") from None

    def check_function(self, f: FunctionDef) -> None:
        scope: dict[str, TypeTag] = {}
        for p in f.params:
            if p.name in scope:
                raise MiniImpTypeError(f"duplicate parameter {p.name!r} in {f.name}")
            scope[p.name] = p.type
        self.check_block(f, f.body, scope)

    def check_block(self, f: FunctionDef, body: list[Stmt], scope) -> None:
        for s in body:
            self.check_stmt(f, s, scope)

    def check_stmt(self, f: FunctionDef, s: Stmt, scope) -> None:
        if isinstance(s, Decl):
            if s.name in scope:
                raise MiniImpTypeError(f"duplicate declaration of {s.name!r} in {f.name}")
            if s.init is not None:
                got = self.check_expr(f, s.init, scope)
                if got != s.type:
                    raise MiniImpTypeError(
                        f"cannot initialise {s.name}: {s.type!r} with {got!r}"
                    )
            scope[s.name] = s.type
        elif isinstance(s, Assign):
            if s.name not in scope:
                raise MiniImpTypeError(f"assignment to undeclared variable {s.name!r}")
            got = self.check_expr(f, s.value, scope)
            if got != scope[s.name]:
                raise MiniImpTypeError(
                    f"cannot assign {got!r} to {s.name}: {scope[s.name]!r}"
                )
        elif isinstance(s, If):
            # a condition may have any type: every scalar has a truth value
            self.check_expr(f, s.cond, scope)
            self.check_block(f, s.then, scope)
            self.check_block(f, s.orelse, scope)
        elif isinstance(s, While):
            self.check_expr(f, s.cond, scope)
            self.check_block(f, s.body, scope)
        elif isinstance(s, Assert):
            self.check_expr(f, s.cond, scope)
        elif isinstance(s, Return):
            if s.value is None:
                raise MiniImpTypeError(f"{f.name}: return requires a value")
            got = self.check_expr(f, s.value, scope)
            if got != f.return_type:
                raise MiniImpTypeError(
                    f"{f.name} returns {f.return_type!r}, got {got!r}"
                )
        elif isinstance(s, ExprStmt):
            self.check_expr(f, s.expr, scope)
        elif isinstance(s, MakeSymbolic):
            if s.name not in scope:
                raise MiniImpTypeError(f"symbolic on undeclared variable {s.name!r}")
            first = self.inputs.setdefault(s.name, (f.name, scope[s.name]))
            if first[1] != scope[s.name]:  # named in function-name order, not program order
                (f1, t1), (f2, t2) = sorted((first, (f.name, scope[s.name])))
                raise MiniImpTypeError(f"input {s.name!r} is {t1!r} in {f1} and {t2!r} in {f2}")
        else:
            raise MiniImpTypeError(f"unknown statement {s!r}")

    def check_expr(self, f: FunctionDef, e: Expr, scope) -> TypeTag:
        if isinstance(e, Literal):
            return e.tag
        if isinstance(e, BotLiteral):
            return e.tag
        if isinstance(e, Var):
            if e.name not in scope:
                raise MiniImpTypeError(f"undeclared variable {e.name!r} in {f.name}")
            return scope[e.name]
        if isinstance(e, BinOp):
            lt = self.check_expr(f, e.left, scope)
            rt = self.check_expr(f, e.right, scope)
            op = OPERATORS.get(e.op)
            if op is None:
                raise MiniImpTypeError(f"unknown operator {e.op!r}")
            if op.operand is None:  # == and !=
                if lt != rt:
                    raise MiniImpTypeError(f"{e.op} on mismatched types {lt!r}, {rt!r}")
                if lt is STR:
                    raise MiniImpTypeError("== on str is not defined; use strcmp")
            elif not (lt is op.operand and rt is op.operand):
                raise MiniImpTypeError(
                    f"{e.op} needs {op.operand.name} operands, got {lt!r}, {rt!r}")
            return op.result
        if isinstance(e, UnOp):
            ot = self.check_expr(f, e.operand, scope)
            if e.op == "!":
                if ot is BOOL:
                    return BOOL
                raise MiniImpTypeError(f"! needs bool, got {ot!r}")
            if e.op == "-":
                if ot is INT:
                    return INT
                raise MiniImpTypeError(f"unary - needs int, got {ot!r}")
            raise MiniImpTypeError(f"unknown unary operator {e.op!r}")
        if isinstance(e, Call):
            return self.check_call(f, e, scope)
        raise MiniImpTypeError(f"unknown expression {e!r}")

    def check_call(self, f: FunctionDef, e: Call, scope) -> TypeTag:
        arg_types = [self.check_expr(f, a, scope) for a in e.args]
        # index/unindex intrinsics are polymorphic over the indexed base type
        if e.name == "idx":
            if len(arg_types) != 1:
                raise MiniImpTypeError("idx takes one argument")
            t = arg_types[0]
            if is_index(t):
                raise MiniImpTypeError("idx applied to an already-indexed value")
            return index_of(t)
        if e.name == "unidx":
            if len(arg_types) != 1:
                raise MiniImpTypeError("unidx takes one argument")
            t = arg_types[0]
            if not is_index(t):
                raise MiniImpTypeError(f"unidx needs an index value, got {t!r}")
            return t.base
        sig = None
        if e.name in self.user_fns:
            sig = self.user_fns[e.name]
            self.calls_from.setdefault(f.name, set()).add(e.name)
        elif e.name in self.builtins:
            sig = self.builtins[e.name]
        else:
            raise MiniImpTypeError(f"call to unknown function {e.name!r}")
        if sig.arity != len(arg_types):
            raise MiniImpTypeError(
                f"{e.name} expects {sig.arity} arguments, got {len(arg_types)}"
            )
        for i, (want, got) in enumerate(zip(sig.arg_types, arg_types)):
            if want != got:
                raise MiniImpTypeError(
                    f"{e.name} argument {i + 1} expects {want!r}, got {got!r}"
                )
        return sig.return_type


def typecheck(p: Program, extra_sigs=None) -> Program:
    """Return p unchanged if it typechecks; raise MiniImpTypeError if not."""
    return TypeChecker(p, extra_sigs).run()
