"""The indexification rewriting schema over MiniImp ASTs.

Eight rules, each rewriting exactly one site:

  R3  retype a str/float declaration (variable, parameter, return) to index<t>
  R4  fold an in-garden literal at an index-expecting position to its index
  R5  replace an out-of-garden literal at an index-expecting position by bot
  R6  rename a call to an operator in F+ to its indexed version (i_*)
  R7  wrap a still-raw argument of an indexed call in idx(...)
  R8  wrap an index-valued argument of an unindexed external call in unidx(...)
  R9  wrap an unindexed call result assigned to an indexed target in idx(...)
  R10 wrap an indexed call result assigned to a raw target in unidx(...)

R4/R5 apply only where an index is expected (indexed-call arguments, targets
with indexed declarations): a literal feeding an unindexed operator stays raw,
since that operator still computes on real values.  Guards consult declared
types - never rewrite state - so every redex order reaches the same normal
form; confluence_probe checks exactly that.  R9/R10 wait until no R7/R8 redex
remains in the same call.

A redex's path is the sequence of field names and list positions that leads
from the Program to its site, for example
("functions", 0, "body", 3, "init", "args", 1).  The site is the node a rule
replaces: the type field itself for R3 (a function's "return_type", a
parameter's or a Decl's "type"), the argument for R7/R8 on a call argument,
the expression otherwise.  So two sites are nested exactly when one path is a
prefix of the other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .iot import REGISTRY, GardenDim, IndexedOperatorTable
from .lang.ast import (
    BOT,
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
    Program,
    Return,
    Stmt,
    TypeTag,
    UnOp,
    Value,
    Var,
    While,
    declared_types,
    index_of,
    is_index,
    walk_exprs,
    walk_stmts,
)
from .lang.printer import print_literal, print_program, print_type
from .lang.typecheck import typecheck


class RewriteError(Exception):
    pass


class StaleRedex(RewriteError):
    """The redex guard no longer holds at its site; caller should re-scan."""


INTRINSICS = ("idx", "unidx")

@dataclass
class RewriteConfig:
    indexed_types: set
    f_plus: set
    gardens: dict
    tables: dict  # indexed name (i_*) -> IndexedOperatorTable

    def __post_init__(self):
        for name in self.f_plus:
            if "i_" + name not in self.tables:
                raise RewriteError(f"operator {name!r} in F+ has no table")
        for t in self.indexed_types:
            if t not in self.gardens:
                raise RewriteError(f"indexed type {t!r} has no garden")

    def table_for(self, callee: str) -> IndexedOperatorTable | None:
        """The table governing a call, whether or not R6 renamed it yet."""
        if callee in self.tables:
            return self.tables[callee]
        if callee in self.f_plus:
            return self.tables["i_" + callee]
        return None


@dataclass(frozen=True)
class Redex:
    rule: str
    path: tuple  # field names and list positions from the Program to the site

    def __repr__(self):
        return f"<{self.rule} at {'/'.join(map(str, self.path))}>"


@dataclass(frozen=True)
class IndexationResult:
    program: Program
    tables: dict


# ---------------------------------------------------------------------------
# Paths: locate and persistently replace AST nodes
# ---------------------------------------------------------------------------


def _get(node, path):
    for step in path:
        node = node[step] if isinstance(step, int) else getattr(node, step)
    return node


def _put(node, path, repl):
    """Return a copy of node with the subtree at path replaced."""
    if not path:
        return repl
    step, rest = path[0], path[1:]
    if isinstance(step, int):
        items = list(node)
        items[step] = _put(items[step], rest, repl)
        return items
    return replace(node, **{step: _put(getattr(node, step), rest, repl)})


# ---------------------------------------------------------------------------
# Guard predicates
# ---------------------------------------------------------------------------


class _Guards:
    def __init__(self, program: Program, cfg: RewriteConfig, fn: FunctionDef):
        self.program = program
        self.cfg = cfg
        self.fn = fn
        # rebuilt per scan: every rule application yields a new FunctionDef.
        # A Decl retyped by R3 and one still awaiting R3 both count as
        # indexed, which is what keeps the guards order-independent.
        self.decls = declared_types(fn)

    def declared_indexed(self, tag: TypeTag | None) -> bool:
        if tag is None:
            return False
        return is_index(tag) or tag in self.cfg.indexed_types

    def is_index_valued(self, e: Expr) -> bool:
        """Whether e denotes an index now or by declaration (the schema's
        indexedness check, extended to variables via their declared type)."""
        if isinstance(e, Literal):
            return is_index(e.tag)
        if isinstance(e, BotLiteral):
            return True
        if isinstance(e, Var):
            return self.declared_indexed(self.decls.get(e.name))
        if isinstance(e, Call):
            if e.name == "idx":
                return True
            if e.name == "unidx":
                return False
            t = self.cfg.table_for(e.name)
            if t is not None:
                return t.result_indexed
            user = self.program.function(e.name)
            if user is not None:
                return self.declared_indexed(user.return_type)
            return False  # external builtin results are raw
        return False

    def is_raw_indexed_literal(self, e: Expr) -> bool:
        return isinstance(e, Literal) and e.tag in self.cfg.indexed_types

    def arg_expectations(self, callee: str):
        """Per-position expectation: "index", "raw-indexed", or None.

        "index" positions want an index value (table garden dimensions and
        user-function parameters of indexed declared type); "raw-indexed"
        positions are external parameters of a to-be-indexed type that must
        keep receiving real values.
        """
        if callee in INTRINSICS:
            return None
        t = self.cfg.table_for(callee)
        if t is not None:
            return ["index" if isinstance(d, GardenDim) else None for d in t.dims]
        user = self.program.function(callee)
        if user is not None:
            return ["index" if self.declared_indexed(p.type) else None
                    for p in user.params]
        op = REGISTRY.get(callee)
        if op is not None:
            return ["raw-indexed" if at in self.cfg.indexed_types else None
                    for at in op.signature.arg_types]
        return None

    def unindexed_external(self, callee: str):
        """The registry entry for callee when it stays unindexed, else None."""
        if callee in INTRINSICS or self.cfg.table_for(callee) is not None:
            return None
        if self.program.function(callee) is not None:
            return None
        return REGISTRY.get(callee)


# ---------------------------------------------------------------------------
# Redex search
# ---------------------------------------------------------------------------


def find_redexes(p: Program, cfg: RewriteConfig) -> list[Redex]:
    """Every site matching a rule guard, in deterministic traversal order."""
    out: list[Redex] = []
    for fi, fn in enumerate(p.functions):
        g = _Guards(p, cfg, fn)
        base = ("functions", fi)
        if fn.return_type in cfg.indexed_types:
            out.append(Redex("R3", base + ("return_type",)))
        for pi, prm in enumerate(fn.params):
            if prm.type in cfg.indexed_types:
                out.append(Redex("R3", base + ("params", pi, "type")))
        _scan_block(fn.body, base + ("body",), g, out)
    return out


def _scan_block(body, path, g, out):
    for i, s in enumerate(body):
        _scan_stmt(s, path + (i,), g, out)


def _scan_stmt(s: Stmt, path, g: _Guards, out):
    if isinstance(s, Decl):
        if s.type in g.cfg.indexed_types:
            out.append(Redex("R3", path + ("type",)))
        if s.init is not None:
            _scan_rhs_site(g.declared_indexed(g.decls.get(s.name)), s.init,
                           path + ("init",), g, out)
    elif isinstance(s, Assign):
        _scan_rhs_site(g.declared_indexed(g.decls.get(s.name)), s.value,
                       path + ("value",), g, out)
    elif isinstance(s, If):
        _scan_expr(s.cond, path + ("cond",), g, out, context=None)
        _scan_block(s.then, path + ("then",), g, out)
        _scan_block(s.orelse, path + ("orelse",), g, out)
    elif isinstance(s, While):
        _scan_expr(s.cond, path + ("cond",), g, out, context=None)
        _scan_block(s.body, path + ("body",), g, out)
    elif isinstance(s, Assert):
        _scan_expr(s.cond, path + ("cond",), g, out, context=None)
    elif isinstance(s, Return):
        if s.value is not None:
            _scan_rhs_site(g.declared_indexed(g.fn.return_type), s.value,
                           path + ("value",), g, out)
    elif isinstance(s, ExprStmt):
        _scan_expr(s.expr, path + ("expr",), g, out, context=None)
    # MakeSymbolic has no expressions


def _scan_rhs_site(target_indexed: bool, rhs: Expr, path, g: _Guards, out):
    """An assignment-like site: Eq. R4/R5 for direct literals, R9/R10 for
    direct calls crossing the indexed/unindexed boundary."""
    context = "index" if target_indexed else None
    if isinstance(rhs, Call):
        _maybe_boundary_wrap(target_indexed, rhs, path, g, out)
    _scan_expr(rhs, path, g, out, context=context)


def _maybe_boundary_wrap(target_indexed: bool, call: Call, path, g: _Guards, out):
    if call.name in INTRINSICS:
        return
    table = g.cfg.table_for(call.name)
    if table is None:
        op = g.unindexed_external(call.name)
        if op is None:
            return  # user functions are rewritten structurally, never wrapped
        returns_indexed_type = op.signature.return_type in g.cfg.indexed_types
        if target_indexed and returns_indexed_type:
            # R9 waits until R8 has unwrapped every argument of this call
            if not any(g.is_index_valued(a) for a in call.args):
                out.append(Redex("R9", path))
    else:
        if not target_indexed and table.result_indexed:
            # R10 mirrors R9: wait until every argument is in index form
            if not _has_pending_args(call, table, g):
                out.append(Redex("R10", path))


def _has_pending_args(call: Call, table, g: _Guards) -> bool:
    for a, d in zip(call.args, table.dims):
        if isinstance(d, GardenDim):
            if not g.is_index_valued(a) or g.is_raw_indexed_literal(a):
                return True
    return False


def _scan_expr(e: Expr, path, g: _Guards, out, context):
    """context is "index" when an index value is expected at this position."""
    if isinstance(e, Literal):
        if context == "index" and e.tag in g.cfg.indexed_types:
            garden = g.cfg.gardens[e.tag]
            if garden.index_or_bot(Value(e.tag, e.value)) is not BOT:
                out.append(Redex("R4", path))
            else:
                out.append(Redex("R5", path))
        return
    if isinstance(e, (BotLiteral, Var)):
        return
    if isinstance(e, UnOp):
        _scan_expr(e.operand, path + ("operand",), g, out, context=None)
        return
    if isinstance(e, BinOp):
        if e.op in ("==", "!="):
            # equality against an index-valued side makes the other operand an
            # index position: literals fold (R4/R5), other raw values wrap (R7)
            sides = ((e.left, e.right, "left"), (e.right, e.left, "right"))
            for child, other, step in sides:
                child_path = path + (step,)
                if g.is_index_valued(other):
                    if g.is_raw_indexed_literal(child):
                        _scan_expr(child, child_path, g, out, context="index")
                        continue
                    if not g.is_index_valued(child) and not isinstance(child, Literal):
                        out.append(Redex("R7", child_path))
                _scan_expr(child, child_path, g, out, context=None)
            return
        _scan_expr(e.left, path + ("left",), g, out, context=None)
        _scan_expr(e.right, path + ("right",), g, out, context=None)
        return
    if isinstance(e, Call):
        if e.name in g.cfg.f_plus:
            out.append(Redex("R6", path))
        expectations = g.arg_expectations(e.name)
        for i, a in enumerate(e.args):
            want = expectations[i] if expectations and i < len(expectations) else None
            arg_path = path + ("args", i)
            if want == "index":
                if not g.is_index_valued(a) and not g.is_raw_indexed_literal(a):
                    out.append(Redex("R7", arg_path))
                _scan_expr(a, arg_path, g, out, context="index")
            elif want == "raw-indexed":
                if g.is_index_valued(a):
                    out.append(Redex("R8", arg_path))
                _scan_expr(a, arg_path, g, out, context=None)
            else:
                _scan_expr(a, arg_path, g, out, context=None)
        return
    raise RewriteError(f"cannot scan {e!r}")


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------


def apply_rule(p: Program, r: Redex, cfg: RewriteConfig,
               redexes: list[Redex] | None = None) -> Program:
    """Apply one rule at one site; raises StaleRedex if the guard is gone.

    redexes is find_redexes(p, cfg) when the caller has just computed it;
    without it the guard is checked by a fresh scan.
    """
    if redexes is None:
        redexes = find_redexes(p, cfg)
    if r not in redexes:
        raise StaleRedex(f"{r!r} no longer applies")
    node = _get(p, r.path)
    if r.rule == "R3":
        repl = index_of(node)
    elif r.rule == "R4":
        idx = cfg.gardens[node.tag].index_or_bot(Value(node.tag, node.value))
        repl = Literal(index_of(node.tag), idx)
    elif r.rule == "R5":
        repl = BotLiteral(index_of(node.tag))
    elif r.rule == "R6":
        repl = replace(node, name="i_" + node.name)
    elif r.rule in ("R7", "R9"):
        repl = Call("idx", [node])
    elif r.rule in ("R8", "R10"):
        repl = Call("unidx", [node])
    else:
        raise RewriteError(f"unknown rule {r.rule!r}")
    return _put(p, r.path, repl)


def _ast_size(p: Program) -> int:
    """Functions, params, statements and expression nodes."""
    n = 0
    for f in p.functions:
        n += 1 + len(f.params) + sum(1 for _ in walk_stmts(f.body))
        n += sum(1 for _ in walk_exprs(f.body))
    return n


def normalize(p: Program, cfg: RewriteConfig, order: str = "first",
              rng: random.Random | None = None) -> IndexationResult:
    """Rewrite to normal form and package gardens/tables with the result."""
    for name in cfg.tables:
        if p.function(name) is not None:
            raise RewriteError(f"program already defines {name!r}")
    cap = 10 * _ast_size(p) + 10
    cur = p
    steps = 0
    while True:
        redexes = find_redexes(cur, cfg)
        if not redexes:
            break
        steps += 1
        if steps > cap:
            raise RewriteError("rewriting did not terminate: schema bug")
        if order == "random":
            r = (rng or random).choice(redexes)
        else:
            r = redexes[0]
        cur = apply_rule(cur, r, cfg, redexes)
    extra = {t.indexed_name: t.indexed_signature() for t in cfg.tables.values()}
    typecheck(cur, extra_sigs=extra)
    return IndexationResult(program=cur, tables=dict(cfg.tables))


@dataclass(frozen=True)
class ConfluenceReport:
    trials: int
    all_equal: bool
    distinct_normal_forms: int


def confluence_probe(p: Program, cfg: RewriteConfig, trials: int,
                     seed: int = 0) -> ConfluenceReport:
    """Normalize under `trials` random redex orders and compare normal forms."""
    if trials < 2:
        raise RewriteError("confluence probe needs at least 2 trials")
    forms = {}
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        res = normalize(p, cfg, order="random", rng=rng)
        forms.setdefault(print_program(res.program), res.program)
    return ConfluenceReport(
        trials=trials,
        all_equal=len(forms) == 1,
        distinct_normal_forms=len(forms),
    )


# ---------------------------------------------------------------------------
# Indexed source emission
# ---------------------------------------------------------------------------


def _emit_table_fn(t: IndexedOperatorTable) -> str:
    sig = t.indexed_signature()
    params = ", ".join(f"{print_type(ty)} s{i + 1}" for i, ty in enumerate(sig.arg_types))
    lines = [f"{print_type(sig.return_type)} {t.indexed_name}({params}) {{"]
    for key, cell in t.rows.items():
        if cell is BOT:
            continue  # falls through to the catch-all
        conds = " && ".join(f"s{i + 1} == {print_literal(ty, k)}"
                            for i, (ty, k) in enumerate(zip(sig.arg_types, key)))
        lines.append(f"  if ({conds}) {{ return {print_literal(t.cell_tag, cell)}; }}")
    if t.result_indexed:
        lines.append(f"  return bot@{t.result.type_tag.name};")
    else:
        # the textual encoding has no raw bottom, and any in-band value (such
        # as -1, a real strncmp result) would pass for a hit: a miss consumes
        # BOT instead.  Raw-result tables are the int-valued string operators.
        lines.append("  return strlen(unidx(bot@str));")
    lines.append("}")
    return "\n".join(lines)


def emit_indexed_source(result: IndexationResult) -> str:
    """Pretty-printed rewritten program plus the injected table definitions."""
    parts = [print_program(result.program).rstrip("\n")]
    for name in sorted(result.tables):
        parts.append(_emit_table_fn(result.tables[name]))
    return "\n\n".join(parts) + "\n"
