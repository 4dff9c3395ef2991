"""Canonical pretty-printer for MiniImp programs."""

from __future__ import annotations

import math

from .ast import (
    BOOL,
    FLOAT,
    INT,
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
    Program,
    Return,
    Stmt,
    TypeTag,
    UnOp,
    Var,
    While,
)

# tighter than every binary operator
_UNARY_PREC = max(op.precedence for op in OPERATORS.values()) + 1


_NAMED_ESCAPES = {0x09: "\\t", 0x0A: "\\n", 0x5C: "\\\\"}
_BYTE_TEXT = [_NAMED_ESCAPES.get(c) or (chr(c) if 0x20 <= c < 0x7F else f"\\x{c:02x}")
              for c in range(256)]


def escape_bytes(b: bytes) -> str:
    r"""The escaped text of b, as garden files hold it: printable ASCII as
    itself, \t \n \\ by name, every other byte as \xHH.  A " stays as it
    is; print_literal escapes it inside a quoted literal."""
    return "".join([_BYTE_TEXT[c] for c in b])


def print_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return repr(x)


def print_literal(tag: TypeTag, value) -> str:
    """The MiniImp source text of a literal of type tag."""
    if tag is INT:
        return str(value)
    if tag is FLOAT:
        return print_float(value)
    if tag is BOOL:
        return "true" if value else "false"
    if tag is STR:
        return '"' + escape_bytes(value).replace('"', '\\"') + '"'
    return f"{value}@{tag.base.name}"  # index literal


def print_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Literal):
        s = print_literal(e.tag, e.value)
        # negative numeric literals bind like a unary expression
        if e.tag in (INT, FLOAT) and s.startswith("-") and prec > _UNARY_PREC:
            return f"({s})"
        return s
    if isinstance(e, BotLiteral):
        return f"bot@{e.tag.base.name}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.name}({', '.join(print_expr(a) for a in e.args)})"
    if isinstance(e, UnOp):
        s = f"{e.op}{print_expr(e.operand, _UNARY_PREC + 1)}"
        return f"({s})" if prec > _UNARY_PREC else s
    if isinstance(e, BinOp):
        p = OPERATORS[e.op].precedence
        s = f"{print_expr(e.left, p)} {e.op} {print_expr(e.right, p + 1)}"
        return f"({s})" if prec > p else s
    raise TypeError(f"unprintable node {e!r}")


def _print_block(body: list[Stmt], indent: int, out: list[str]) -> None:
    pad = "  " * indent
    for s in body:
        if isinstance(s, Decl):
            init = f" = {print_expr(s.init)}" if s.init is not None else ""
            out.append(f"{pad}{s.type!r} {s.name}{init};")
        elif isinstance(s, Assign):
            out.append(f"{pad}{s.name} = {print_expr(s.value)};")
        elif isinstance(s, If):
            out.append(f"{pad}if ({print_expr(s.cond)}) {{")
            _print_block(s.then, indent + 1, out)
            if s.orelse:
                out.append(f"{pad}}} else {{")
                _print_block(s.orelse, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(s, While):
            out.append(f"{pad}while ({print_expr(s.cond)}) {{")
            _print_block(s.body, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(s, Assert):
            out.append(f"{pad}assert({print_expr(s.cond)});")
        elif isinstance(s, Return):
            out.append(f"{pad}return {print_expr(s.value)};" if s.value else f"{pad}return;")
        elif isinstance(s, ExprStmt):
            out.append(f"{pad}{print_expr(s.expr)};")
        elif isinstance(s, MakeSymbolic):
            out.append(f"{pad}symbolic {s.name};")
        else:
            raise TypeError(f"unprintable statement {s!r}")


def print_function(f: FunctionDef) -> str:
    params = ", ".join(f"{p.type!r} {p.name}" for p in f.params)
    out = [f"{f.return_type!r} {f.name}({params}) {{"]
    _print_block(f.body, 1, out)
    out.append("}")
    return "\n".join(out)


def print_program(p: Program) -> str:
    return "\n\n".join(print_function(f) for f in p.functions) + "\n"
