"""The indexification rewriting schema over MiniImp ASTs.

Eight rules, each rewriting exactly one site:

  R3  retype a str/float declaration (variable, parameter, return) to index<t>
  R4  fold an in-garden literal at an index-expecting position to its index
  R5  replace an out-of-garden literal at an index-expecting position by bot
  R6  rename a call to an operator in F+ to its indexed version (i_*)
  R7  wrap a still-raw value at an index-expecting position in idx(...)
  R8  wrap an index-valued argument of an unindexed external call in unidx(...)
  R9  wrap an unindexed call result assigned to an indexed target in idx(...)
  R10 wrap an indexed call result assigned to a raw target in unidx(...)

A position may expect one of two things.  An index position (a table's
garden dimension, a user parameter of indexed declared type, or a side of
==/!= whose other side is index-valued) folds a raw literal of an indexed
type (R4/R5) and wraps any other raw non-literal (R7).  A raw-indexed
position (an external builtin's parameter of an indexed type) unwraps an
index-valued argument (R8).  Elsewhere a literal stays raw, since the
operator it feeds still computes on real values; the one other place a
literal folds is an assignment-like site (declaration, assignment, return)
with an indexed target.  R9/R10 wait until no argument of the call has a
redex of its position: R8 for R9; R4, R5 or R7 for R10.  Guards consult
declared types - never rewrite state - so every redex order reaches the same
normal form; confluence_probe checks exactly that.

A redex's path is the sequence of field names and list positions that leads
from the Program to its site, for example
("functions", 0, "body", 3, "init", "args", 1).  The site is the node a rule
replaces: the type field itself for R3 (a function's "return_type", a
parameter's or a Decl's "type"), the argument for R7/R8 on a call argument,
the expression otherwise.  So two sites are nested exactly when one path is a
prefix of the other.

normalize scans once per round and contracts every redex of that scan whose
site is not nested in, or around, another one it takes: a complete
development (Huet, "Confluent reductions", JACM 1980), which confluence lets
reach the one-step normal form.  No rule inserts or removes a list element,
so the untouched sites of a round keep their paths.  order="random" contracts
one redex per scan instead, for confluence_probe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .iot import REGISTRY, GardenDim, IndexedOperatorTable, table_source
from .lang.ast import (
    BOT,
    INTRINSICS,
    Assign,
    BinOp,
    BotLiteral,
    Call,
    Decl,
    Expr,
    ExprStmt,
    FunctionDef,
    Literal,
    Program,
    Return,
    Stmt,
    TypeTag,
    UnOp,
    Value,
    Var,
    declared_types,
    index_of,
    is_index,
    walk_exprs,
    walk_stmts,
)
from .lang.printer import print_program
from .lang.typecheck import typecheck


class RewriteError(Exception):
    pass


class StaleRedex(RewriteError):
    """The redex guard no longer holds at its site; caller should re-scan."""


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
            kind, callee = self.callee(e.name)
            if kind == "intrinsic":
                return e.name == "idx"
            if kind == "table":
                return callee.result_indexed
            if kind == "user":
                return self.declared_indexed(callee.return_type)
            return False  # external builtin results are raw
        return False

    def arg_expectations(self, call: Call):
        """Each argument of call with what its position expects: "index",
        "raw-indexed", or None.

        "index" positions want an index value (table garden dimensions and
        user-function parameters of indexed declared type); "raw-indexed"
        positions are external parameters of a to-be-indexed type that must
        keep receiving real values.
        """
        kind, obj = self.callee(call.name)
        if kind == "table":
            wants = ["index" if isinstance(d, GardenDim) else None for d in obj.dims]
        elif kind == "user":
            wants = ["index" if self.declared_indexed(p.type) else None
                     for p in obj.params]
        elif kind == "builtin" and obj is not None:
            wants = ["raw-indexed" if at in self.cfg.indexed_types else None
                     for at in obj.signature.arg_types]
        else:
            wants = []
        return zip(call.args, wants + [None] * (len(call.args) - len(wants)))

    def callee(self, name: str):
        """What a callee name denotes, checked in this order: ("intrinsic",
        name), ("table", its table, whether or not R6 renamed the call),
        ("user", its FunctionDef) or ("builtin", its registry entry, None
        for an unknown name)."""
        if name in INTRINSICS:
            return "intrinsic", name
        table = self.cfg.table_for(name)
        if table is not None:
            return "table", table
        user = self.program.function(name)
        if user is not None:
            return "user", user
        return "builtin", REGISTRY.get(name)


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
        _scan_stmts(fn.body, base + ("body",), g, out)
    return out


def _scan_stmts(body: list[Stmt], path, g: _Guards, out):
    for i, s in enumerate(body):
        at = path + (i,)
        if isinstance(s, (Decl, Assign, Return)):
            if isinstance(s, Decl) and s.type in g.cfg.indexed_types:
                out.append(Redex("R3", at + ("type",)))
            step = "init" if isinstance(s, Decl) else "value"
            rhs = getattr(s, step)
            if rhs is not None:
                target = g.fn.return_type if isinstance(s, Return) else g.decls.get(s.name)
                _scan_site(rhs, at + (step,), g, out, g.declared_indexed(target))
        elif isinstance(s, ExprStmt):
            _scan_expr(s.expr, at + ("expr",), g, out)
        elif hasattr(s, "cond"):  # if, while, assert: a condition and its blocks
            _scan_expr(s.cond, at + ("cond",), g, out)
            for step in ("then", "orelse", "body"):
                if hasattr(s, step):
                    _scan_stmts(getattr(s, step), at + (step,), g, out)
        # MakeSymbolic has no expressions


def _scan_site(rhs: Expr, path, g: _Guards, out, indexed: bool):
    """An assignment-like site, whose target is indexed or not.  A literal
    folds (R4/R5) for an indexed target.  A call whose result crosses between
    indices and real values is wrapped once no argument of it has a position
    rule: a builtin's raw result for an indexed target (R9), a table's index
    result for a raw one (R10)."""
    if isinstance(rhs, Call):
        kind, callee = g.callee(rhs.name)
        if kind == "builtin" and callee is not None:
            crosses = indexed and callee.signature.return_type in g.cfg.indexed_types
        else:  # intrinsics and user functions (rewritten structurally) never cross
            crosses = kind == "table" and not indexed and callee.result_indexed
        if crosses and not any(_position_rule(a, want, g)
                               for a, want in g.arg_expectations(rhs)):
            out.append(Redex("R9" if indexed else "R10", path))
    _scan_expr(rhs, path, g, out, "index" if indexed and isinstance(rhs, Literal) else None)


def _position_rule(e: Expr, want, g: _Guards) -> str | None:
    """The rule e needs where its position expects want: at an "index"
    position a raw literal of an indexed type folds (R4 in the garden, R5
    out of it) and any other raw non-literal is wrapped (R7); at a
    "raw-indexed" position an index-valued e is unwrapped (R8)."""
    if want == "index":
        if isinstance(e, Literal):
            if e.tag in g.cfg.indexed_types:
                in_garden = g.cfg.gardens[e.tag].index_or_bot(Value(e.tag, e.value)) is not BOT
                return "R4" if in_garden else "R5"
        elif not g.is_index_valued(e):
            return "R7"
    elif want == "raw-indexed" and g.is_index_valued(e):
        return "R8"
    return None


def _scan_expr(e: Expr, path, g: _Guards, out, want=None):
    """e's position rule, then, unless that folded e, its subexpressions'
    redexes, each under what its own position expects."""
    rule = want and _position_rule(e, want, g)
    if rule:
        out.append(Redex(rule, path))
        if rule in ("R4", "R5"):
            return
    if isinstance(e, (Literal, BotLiteral, Var)):
        return
    if isinstance(e, UnOp):
        _scan_expr(e.operand, path + ("operand",), g, out)
    elif isinstance(e, BinOp):
        # equality against an index-valued side makes the other an index position
        equality = e.op in ("==", "!=")
        for step, other in (("left", e.right), ("right", e.left)):
            want = "index" if equality and g.is_index_valued(other) else None
            _scan_expr(getattr(e, step), path + (step,), g, out, want)
    elif isinstance(e, Call):
        if e.name in g.cfg.f_plus:
            out.append(Redex("R6", path))
        for i, (a, want) in enumerate(g.arg_expectations(e)):
            _scan_expr(a, path + ("args", i), g, out, want)
    else:
        raise RewriteError(f"cannot scan {e!r}")


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------


def apply_rule(p: Program, r: Redex, cfg: RewriteConfig,
               redexes: set[Redex] | None = None) -> Program:
    """Apply one rule at one site; raises StaleRedex if the guard is gone.

    redexes is the set find_redexes returned for the caller's current round;
    without it the guard is checked by a fresh scan of p.
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


def _development(redexes: list[Redex]) -> list[Redex]:
    """The redexes one parallel step contracts: deepest site first, each one
    whose site neither is, nor lies above or below, a site already taken."""
    taken, covered = [], set()
    for r in sorted(redexes, key=lambda r: -len(r.path)):
        if r.path in covered:
            continue  # taken sites are no shallower: r is at or above one
        taken.append(r)
        covered.update(r.path[:k] for k in range(1, len(r.path) + 1))
    return taken


def normalize(p: Program, cfg: RewriteConfig, order: str = "first",
              rng: random.Random | None = None) -> IndexationResult:
    """Rewrite to normal form and package gardens/tables with the result.

    By default each round scans once and contracts every non-nested redex of
    that scan (a complete development); nested ones wait for the next round.
    order="random" contracts one randomly chosen redex per scan, the one-step
    rewriter confluence_probe compares normal forms of.
    """
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
        if order == "random":
            batch = [(rng or random).choice(redexes)]
        else:
            batch = _development(redexes)
        found = set(redexes)
        for r in batch:
            steps += 1
            if steps > cap:
                raise RewriteError("rewriting did not terminate: schema bug")
            cur = apply_rule(cur, r, cfg, found)
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


def emit_indexed_source(result: IndexationResult) -> str:
    """Pretty-printed rewritten program plus the injected table definitions,
    each table's i_* function as iot.table_source writes it, by name."""
    parts = [print_program(result.program).rstrip("\n")]
    parts += [table_source(result.tables[name]) for name in sorted(result.tables)]
    return "\n\n".join(parts) + "\n"
