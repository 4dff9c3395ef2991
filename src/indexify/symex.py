"""Forking symbolic executor over MiniImp programs.

Two engines share one core.  Indexed mode runs rewriter output: symbolic
variables range over garden indices, and indexed-operator calls fork per table
row (after filtering rows against concrete arguments and pins already
entailed by the path condition).  A path ends as a run of the interpreter
does, by raising a lang.ast.RunEnd, and Engine.run alone catches it; its
verdict is the path's.  Main returning, a failed assertion, an exceeded
loop bound, consuming BOT (EscapedGarden; a BOT argument of a table call and
a raw-result miss escape at the call, by iot.IndexedOperatorTable.call's
rule, which the interpreter and the emitted i_* functions follow too), a
zero divisor, an uninitialised read and a function finishing without
returning each end only their own path.  MiniImpError and SymexError are
bad input, such as a call to an unknown function or an index with no
garden, and end the whole run.  Baseline mode runs the original program
and either abandons at intractable operator calls or concretizes their
symbolic arguments (fixed defaults for strings and floats, a model value
pinned into the path condition for finite-domain variables), mimicking what
dynamic symbolic execution does.  An abandoned path is counted as escaped
and emits no test case.
Concretizing binds the value where it is read: from then on the state's
inputs and every variable and temporary that held the symbolic value hold
the concrete one.

Paths are enumerated depth-first over explicit states, forked by copy.  Each
function body is lowered once per exploration into a flat list of
three-address instructions, so a decision (a branch's truth, ==/!= on a
symbolic operand, a table's free dimension or row, forcing a symbolic value)
is always the last step of one instruction.  A state is a frame stack (each
frame: its instructions, the next one to run, its variables and temporaries),
loop counts, its symbolic inputs (a concretized one holds its bound value),
covered statements and branches, and the path condition.  At a decision the
option list is built (true branch first, table rows in ascending result order,
the BOT successor last) and every option checked; a table fork's list is built
once per (table, concrete or pinned arguments) in an exploration, from one
table.line over the free dimension, and reused by every state that reaches
the call with them.  The state takes the first feasible one, and a copy per
other feasible option, which resumes at the next instruction, goes on the
stack.  Each node of the decision tree therefore runs once.  An if, while or
assert whose condition is T(x, k...) ==/!= c (T an indexed table, x its only
variable argument, at a garden dimension, and the rest literals) is one
fused site: the first concrete or pinned x to reach it computes the site's
line, the cells of x's whole garden dimension in one table.line pass, which
the site keeps for the exploration; each such x reads its index's cell
there, escapes on BOT, and runs the statement's own instruction with the
comparison's truth as its condition.
A free x forks on the rows as any indexed call does, and its successors run
the unfused chain.  The wallclock and state budgets are checked at every
decision and loop back-edge.  Every solver variable ranges over [0, size),
and every constant is a garden index or an int (a bool is 0 or 1); BOT never
enters a path condition.  A state's path condition is its solver.PathState
and nothing else: a persistent object (extending one returns a new one, so
state copies share it) that decides every check and gives every model, so a
check costs the atoms it adds and the classes that var-var
disequalities join.  Every queued option was satisfiable when checked, so
emitted test cases replay on the concrete interpreter by construction; an
option the solver cannot decide is dropped and counted, and the run goes on.
A test case carries what replay and the artifacts need: its verdict, its
concrete inputs (a model of the path condition) and its branch trace, one
frozenset shared by every test case with the same trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import solver
from .iot import REGISTRY, GardenDim, IndexedOperatorTable, IntPoolDim
from .lang.ast import (
    BOT,
    BOOL,
    INT,
    OPERATORS,
    STR,
    VERDICT_ASSERT,
    VERDICT_BOUND,
    VERDICT_ESCAPED,
    VERDICT_NO_RETURN,
    VERDICT_OK,
    VERDICT_UNINIT,
    Assert,
    Assign,
    BinOp,
    BotLiteral,
    Call,
    Decl,
    EscapedGarden,
    ExprStmt,
    If,
    Literal,
    MakeSymbolic,
    MiniImpError,
    Program,
    Return,
    RunEnd,
    TypeTag,
    UnOp,
    Value,
    Var,
    While,
    declared_types,
    index_of,
    is_index,
    mk_bool,
    mk_float,
    mk_int,
    mk_str,
    no_bot,
    truthy,
)
from .lang.interp import UNROLL, interpret
from .solver import FiniteVar, var_eq_const, var_eq_var, var_neq_const, var_neq_var

MODE_INDEXED = "indexed"
MODE_ABANDON = "baseline-abandon"
MODE_CONCRETIZE = "baseline-concretize"

_BOOLS = (mk_bool(False), mk_bool(True))


class SymexError(Exception):
    pass


@dataclass(frozen=True)
class SymRef:
    """A store entry backed by a finite-domain solver variable."""

    var: FiniteVar
    tag: TypeTag  # the value's tag in the program (index<t>, int, bool)


@dataclass(frozen=True)
class Opaque:
    """A symbolic value with no finite domain (baseline str/float inputs)."""

    name: str
    tag: TypeTag


@dataclass(frozen=True)
class Unindexed:
    """unidx() applied to a symbolic index: forced concrete only on demand."""

    ref: SymRef


@dataclass(frozen=True)
class ExploreConfig:
    mode: str = MODE_INDEXED
    gardens: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    unroll: int = UNROLL
    max_states: int = 100_000
    wallclock_s: float = 60.0
    bot_propagate: bool = False
    int_domain: int = 256  # symbolic non-indexed ints range over [0, this)

    def __post_init__(self):
        if self.int_domain < 1:  # an empty domain has no value to give an input
            raise SymexError(f"int_domain must be at least 1, not {self.int_domain}")


@dataclass(frozen=True)
class TestCase:
    path_id: int
    verdict: str
    inputs: dict  # symbolic name -> concrete Value (unindexed)
    covered_branches: frozenset


@dataclass(frozen=True)
class ExplorationReport:
    mode: str
    test_cases: tuple
    branch_total: int
    branch_covered: int
    instr_total: int
    instr_covered: int
    states: int
    paths: int
    solver_queries: int
    solver_unknowns: int  # options and models the solver could not decide
    atoms_generated: int
    atoms_sent: int
    escaped_paths: int
    truncated: bool
    iot_fork_sizes: tuple
    elapsed_s: float

    @property
    def branch_cov(self) -> float:
        return self.branch_covered / self.branch_total if self.branch_total else 1.0

    @property
    def instr_cov(self) -> float:
        return self.instr_covered / self.instr_total if self.instr_total else 1.0

    @property
    def assertion_failures(self) -> int:
        return sum(1 for t in self.test_cases if t.verdict == VERDICT_ASSERT)


class _Abandoned(EscapedGarden):
    """A path abandoned by policy at an intractable operation: counted as
    escaped, never emitted as a test case."""


class _Infeasible(Exception):
    pass


class _Truncated(Exception):
    """The wallclock or state budget ran out inside a path."""


# ---------------------------------------------------------------------------
# Lowering: function bodies to flat instruction lists
# ---------------------------------------------------------------------------
#
# An instruction is a tuple (handler, fields...).  Operands are a variable
# name (str, read when the instruction runs), a temporary (int, written by an
# earlier instruction of the same frame) or a constant (a Value, a bool, or
# None).
# Expressions are in three-address form, so a decision is always the last
# thing an instruction does: the decision writes its payload to the
# instruction's destination, and each successor state resumes at the frame's
# next instruction.
#
# An if lowers to op_branch, and a while to op_branch, then op_iterate, which
# counts the iteration its body starts.  A condition T(x, k...) ==/!= c
# lowers to op_table, op_table_step and op_compare, then the statement's
# op_branch or op_assert.  fuse() turns that op_table into op_fused, a
# superoperator over the chain: it keeps op_table's fields and adds a _Site
# and the statement's own instruction twice, its condition the constant False
# in one copy and True in the other.  For a concrete or pinned x the site
# reads the cell of x's index from its line, computed by the first such x to
# reach it (BOT escapes), skips the chain and runs the copy the comparison's
# truth picks, so op_branch and op_assert alone mark the edge or fail the
# assertion, and a while's op_iterate runs next as it does after the chain.
# For a free x op_fused calls op_table, so the row fork and its successors are
# the chain's, with no instruction added; any other x also goes through
# op_table, which escapes or ends the path on an uninitialised read as the
# chain does.


_SYMBOLIC = (SymRef, Opaque, Unindexed)
_EQ_FORCED = (Unindexed, Opaque)  # an ==/!= operand is forced when it is one


def _pure(e) -> bool:
    """Evaluating e cannot decide, concretize or end the path."""
    return isinstance(e, (Literal, BotLiteral, Var))


_CHAIN = 3  # a fused site's distance to its statement's own instruction


class _Site:
    """The comparison T(x, k...) ==/!= c of a fused site.  T's key for x = i
    is head + (i,) + tail, the literals' raw values around x.  line is None
    until a concrete or pinned x first reaches the site, then T.line(head,
    tail), x's garden dimension read in one pass, kept for the exploration."""

    __slots__ = ("var", "table", "head", "tail", "c", "want", "line")

    def __init__(self, var, table, head, tail, c, want):
        self.var = var
        self.table = table
        self.head = head
        self.tail = tail
        self.c = c
        self.want = want
        self.line = None


class _Lowering:
    def __init__(self, engine, codes):
        self.engine = engine
        self.codes = codes  # function name -> its instruction list
        self.code = None
        self.temps = 0

    def function(self, fn):
        self.code = self.codes[fn.name]
        self.temps = 0
        # an int or bool variable holds a Value or a finite symbolic value,
        # unless a garden of its type lets unidx() give it an unindexed one
        gardens = self.engine.cfg.gardens
        decls = declared_types(fn, self.engine.input_types)
        self.finite = {name for name, tag in decls.items()
                       if tag in (INT, BOOL) and tag not in gardens}
        self.block(fn.body, (fn.name,))
        self.emit(self.engine.op_raise, RunEnd, VERDICT_NO_RETURN)

    def emit(self, *ins) -> int:
        self.code.append(ins)
        return len(self.code) - 1

    def patch(self, at: int, field: int) -> None:
        """Point field of instruction at (a jump target) at the next one."""
        ins = self.code[at]
        self.code[at] = ins[:field] + (len(self.code),) + ins[field + 1:]

    def temp(self) -> int:
        self.temps += 1
        return self.temps - 1

    # -- statements ----------------------------------------------------------

    def block(self, body, path):
        for i, s in enumerate(body):
            self.stmt(s, path + (i,))

    def stmt(self, s, path):
        op = self.engine
        self.emit(op.op_mark, path)
        op.instr_total += 1
        if isinstance(s, Decl):
            self.assign(s.name, s.init)
        elif isinstance(s, Assign):
            self.assign(s.name, s.value)
        elif isinstance(s, If):
            cond, site = self.cond(s.cond)
            at = self.emit(op.op_branch, cond, (path, True), (path, False), None)
            op.branch_total += 2  # two edges per site
            self.block(s.then, path + ("t",))
            if s.orelse:
                skip = self.emit(op.op_jump, None)
                self.patch(at, 4)
                self.block(s.orelse, path + ("e",))
                self.patch(skip, 1)
            else:
                self.patch(at, 4)
            self.fuse(site, at)
        elif isinstance(s, While):
            head = len(self.code)
            cond, site = self.cond(s.cond)
            at = self.emit(op.op_branch, cond, (path, True), (path, False), None)
            op.branch_total += 2
            self.emit(op.op_iterate, path)
            self.block(s.body, path + ("b",))
            self.emit(op.op_jump, head)
            self.patch(at, 4)
            self.fuse(site, at)
        elif isinstance(s, Assert):
            cond, site = self.cond(s.cond)
            self.fuse(site, self.emit(op.op_assert, cond))
        elif isinstance(s, Return):
            self.emit(op.op_return, self.expr(s.value) if s.value else None)
        elif isinstance(s, ExprStmt):
            v = self.expr(s.expr)
            if isinstance(s.expr, Var):  # still a read of the variable
                self.emit(op.op_set, self.temp(), v)
        elif isinstance(s, MakeSymbolic):
            self.emit(op.op_symbolic, s.name)
        else:
            raise MiniImpError(f"cannot execute {s!r}")

    def assign(self, name, e):
        if e is None or _pure(e):
            self.emit(self.engine.op_set, name, None if e is None else self.expr(e))
        else:
            self.expr(e, name)

    def holds(self, e):
        """What e may evaluate to besides a Value: "finite" (a finite
        symbolic value) for an int or bool variable, "any" (a finite
        symbolic, opaque or unindexed value) for another variable, a user
        function's result or unidx(), and None for every other expression."""
        if isinstance(e, Var) and e.name in self.finite:
            return "finite"
        if isinstance(e, Var) or (isinstance(e, Call) and (
                e.name in self.codes or e.name == "unidx")):
            return "any"
        return None

    def cond(self, e):
        """The operand of a condition (a Value, or a bool written by op_truth
        or op_compare) and its _Site when e has the fused shape, else None."""
        v = self.expr(e)
        if self.holds(e) is None:
            return v, self.site(e)
        t = self.temp()
        self.emit(self.engine.op_truth, t, v)
        return t, None

    def site(self, e):
        """A _Site for e of the shape T(x, k...) ==/!= c: T an indexed
        table, x the call's only variable, at a garden dimension, and the
        k... and c literals with a value.  None for any other expression."""
        if not (isinstance(e, BinOp) and e.op in ("==", "!=")):
            return None
        call, c = (e.left, e.right) if isinstance(e.left, Call) else (e.right, e.left)
        table = self.engine.cfg.tables.get(call.name) if isinstance(call, Call) else None
        if table is None or not isinstance(c, Literal) or call.name in self.codes:
            return None
        at = [i for i, a in enumerate(call.args) if not isinstance(a, Literal)]
        if len(at) != 1 or not isinstance(call.args[at[0]], Var) \
                or not isinstance(table.dims[at[0]], GardenDim):
            return None
        at = at[0]
        raws = tuple(a.value for a in call.args[:at] + call.args[at + 1:])
        return _Site(call.args[at].name, table, raws[:at], raws[at:], c.value,
                     e.op == "==")

    def fuse(self, site, at):
        """Turn the op_table that opens the chain of statement instruction
        at (op_table, op_table_step, op_compare, then at itself) into the
        fused site: op_fused, op_table's fields, the site, and the
        statement's instruction twice, its condition the constant False,
        then True."""
        if site is not None:
            head, ins = self.code[at - _CHAIN], self.code[at]
            assert head[0] == self.engine.op_table, head
            self.code[at - _CHAIN] = (self.engine.op_fused,) + head[1:] + (
                site, ins[:1] + (False,) + ins[2:], ins[:1] + (True,) + ins[2:])

    # -- expressions ---------------------------------------------------------

    def operands(self, exprs):
        """Lower exprs left to right.  A variable is read where its value is
        consumed, unless a later operand may decide or end the path: then it
        is read first, so an uninitialised read ends the path where the
        interpreter's run ends."""
        out = []
        for i, e in enumerate(exprs):
            v = self.expr(e)
            if isinstance(e, Var) and not all(map(_pure, exprs[i + 1:])):
                t = self.temp()
                self.emit(self.engine.op_set, t, v)
                v = t
            out.append(v)
        return tuple(out)

    def expr(self, e, dst=None):
        """Lower e and return its operand; with dst, the value lands there."""
        op = self.engine
        if isinstance(e, Literal):
            return Value(e.tag, e.value)
        if isinstance(e, BotLiteral):
            return Value(e.tag, BOT)
        if isinstance(e, Var):
            return e.name
        if dst is None:
            dst = self.temp()
        if isinstance(e, UnOp):
            v = self.expr(e.operand)
            if e.op == "!":
                t = self.temp()
                self.emit(op.op_truth, t, v)
                self.emit(op.op_not, dst, t)
            else:  # unary minus applies to an int only
                self.emit(op.op_arith, dst, OPERATORS["-"], mk_int(0), v)
        elif isinstance(e, BinOp):
            self.binop(e, dst)
        elif isinstance(e, Call):
            self.call(e, dst)
        else:
            raise MiniImpError(f"cannot evaluate {e!r}")
        return dst

    def binop(self, e, dst):
        op = self.engine
        lv, rv = self.operands([e.left, e.right])
        if e.op in ("==", "!="):
            if self.holds(e.left) == "any":
                lv = self.force(lv, _EQ_FORCED)
            if self.holds(e.right) == "any":
                rv = self.force(rv, _EQ_FORCED)
            self.emit(op.op_compare, dst, e.op == "==", lv, rv)
        elif e.op in ("&&", "||"):
            tl, tr = self.temp(), self.temp()
            self.emit(op.op_truth, tl, lv)
            self.emit(op.op_truth, tr, rv)
            self.emit(op.op_logic, dst, e.op == "&&", tl, tr)
        else:
            self.emit(op.op_arith, dst, OPERATORS[e.op], lv, rv)

    def force(self, v, forced):
        """A temporary holding v, forced concrete if it is one of forced."""
        t = self.temp()
        self.emit(self.engine.op_force, t, v, forced)
        return t

    def call(self, e, dst):
        op = self.engine
        args = self.operands(e.args)
        if e.name in self.codes:
            params = tuple(p.name for p in op.program.function(e.name).params)
            self.emit(op.op_call, dst, self.codes[e.name], params, args)
        elif e.name == "idx":
            v = args[0] if self.holds(e.args[0]) is None else \
                self.force(args[0], _SYMBOLIC)
            self.emit(op.op_idx, dst, v)
        elif e.name == "unidx":
            self.emit(op.op_unidx, dst, args[0])
        elif e.name in op.cfg.tables:
            table, parts = op.cfg.tables[e.name], self.temp()
            self.emit(op.op_table, dst, table, args, parts)
            self.emit(op.op_table_step, dst, table, parts)
        elif e.name == "puts":
            self.emit(op.op_puts, dst, args[0])
        elif e.name not in REGISTRY:
            self.emit(op.op_raise, MiniImpError, f"call to unknown function {e.name!r}")
        else:
            # op_builtin applies a baseline's policy to every symbolic
            # operand; indexed mode forces each one first, and abandons at an
            # opaque one, which lies outside the index algebra
            if op.cfg.mode == MODE_INDEXED and any(map(self.holds, e.args)):
                args = tuple(self.force(a, _SYMBOLIC) for a in args)
            self.emit(op.op_builtin, dst, REGISTRY[e.name], args)


# ---------------------------------------------------------------------------
# Explicit states
# ---------------------------------------------------------------------------


class _Frame:
    """One activation: its instructions, the next one to run, and its store
    of variables and temporaries."""

    __slots__ = ("code", "ip", "store", "dst")

    def __init__(self, code, store, dst):
        self.code = code
        self.ip = 0
        self.store = store
        self.dst = dst  # the caller's destination for the return value

    def copy(self) -> "_Frame":
        f = _Frame(self.code, self.store.copy(), self.dst)
        f.ip = self.ip
        return f


class _State:
    """One path in flight, copied at each decision it forks."""

    __slots__ = ("frames", "facts", "branches", "stmts", "symvars", "loop_counts")

    def __init__(self, main_code):
        self.frames = [_Frame(main_code, {}, None)]
        self.facts = solver.PathState()  # the path condition
        self.branches = set()  # covered (statement path, taken) edges
        self.stmts = set()     # covered statement paths
        self.symvars: dict[str, SymRef | Opaque | Value] = {}  # bound: a Value
        self.loop_counts: dict[tuple, int] = {}

    def copy(self) -> "_State":
        st = _State.__new__(_State)
        st.frames = [f.copy() for f in self.frames]
        st.facts = self.facts  # persistent: extend() returns a new one
        st.branches = self.branches.copy()
        st.stmts = self.stmts.copy()
        st.symvars = self.symvars.copy()
        st.loop_counts = self.loop_counts.copy()
        return st


def _fetch(store, a):
    """An operand's value: a variable or a temporary holds it, and anything
    else is a constant."""
    if a.__class__ is str:
        v = store.get(a)
        if v is None:
            raise RunEnd(VERDICT_UNINIT)
        return v
    if a.__class__ is int:
        return store[a]
    return a


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


class Engine:
    def __init__(self, program: Program, cfg: ExploreConfig):
        self.program = program
        self.cfg = cfg
        self.queries = 0
        self.unknowns = 0
        self.atoms_generated = 0
        self.atoms_sent = 0
        self.states = 0
        self.iot_fork_sizes = []
        self.input_types = {}  # the program's symbolic_inputs, which the lowering finds
        self.symrefs: dict[str, SymRef | Opaque] = {}
        self.input_values: dict[int, dict] = {}  # id(SymRef) -> constant -> input
        self.fork_options: dict[tuple, list] = {}  # (table, parts) -> its fork's options
        self.stack: list[_State] = []
        self.deadline = 0.0
        self.codes = {f.name: [] for f in program.functions}
        self.instr_total = self.branch_total = 0  # counted by the lowering
        lowering = _Lowering(self, self.codes)
        for f in program.functions:
            lowering.function(f)

    def symbolic_ref(self, name):
        """The store entry for the input name, built once and shared by
        every path (it depends on the program and config only)."""
        ref = self.symrefs.get(name)
        if ref is not None:
            return ref
        tag = self.input_types[name]
        if is_index(tag):
            garden = self.cfg.gardens.get(tag.base)
            if garden is None:
                raise SymexError(f"symbolic {name}: no garden for {tag!r}")
            if len(garden) == 0:
                raise SymexError(f"symbolic {name}: the {tag.base!r} garden is "
                                 "empty; provide seeds")
            # inputs are real values, so BOT is outside the initial domain
            ref = SymRef(FiniteVar(name, len(garden)), tag)
        elif tag is INT:
            ref = SymRef(FiniteVar(name, self.cfg.int_domain), tag)
        elif tag is BOOL:
            ref = SymRef(FiniteVar(name, 2), tag)
        else:
            ref = Opaque(name, tag)
        self.symrefs[name] = ref
        return ref

    def explore(self) -> ExplorationReport:
        start = time.monotonic()
        self.deadline = start + self.cfg.wallclock_s
        self.stack = [_State(self.codes[self.program.main.name])]
        self.states = 1
        test_cases = []
        covered_branches = set()
        covered_stmts = set()
        traces = {}  # one shared frozenset per distinct branch trace
        escaped = 0
        paths = 0
        truncated = False
        while self.stack:
            try:
                self.check_budget()
                st = self.stack.pop()
                end = self.run(st)
            except _Truncated:
                truncated = True
                break
            if end is None:
                continue
            verdict = end.verdict
            paths += 1
            covered_branches |= st.branches
            covered_stmts |= st.stmts
            if verdict == VERDICT_ESCAPED:
                escaped += 1
            model = None if end.__class__ is _Abandoned else self.model(st, ())
            if model is not None:  # None: the solver could not give one
                trace = frozenset(st.branches)
                test_cases.append(TestCase(
                    path_id=len(test_cases),
                    verdict=verdict,
                    inputs=self.concrete_inputs(st, model),
                    covered_branches=traces.setdefault(trace, trace),
                ))
        return ExplorationReport(
            mode=self.cfg.mode,
            test_cases=tuple(test_cases),
            branch_total=self.branch_total,
            branch_covered=len(covered_branches),
            instr_total=self.instr_total,
            instr_covered=len(covered_stmts),
            states=self.states,
            paths=paths,
            solver_queries=self.queries,
            solver_unknowns=self.unknowns,
            atoms_generated=self.atoms_generated,
            atoms_sent=self.atoms_sent,
            escaped_paths=escaped,
            truncated=truncated,
            iot_fork_sizes=tuple(self.iot_fork_sizes),
            elapsed_s=time.monotonic() - start,
        )

    def check_budget(self) -> None:
        if time.monotonic() > self.deadline or self.states > self.cfg.max_states:
            raise _Truncated()

    def run(self, st: _State):
        """Run st to the end of its path and return the RunEnd that ended
        it, or None when the path turned out infeasible.  Successor states
        of its decisions go on the stack."""
        try:
            while True:
                fr = st.frames[-1]
                ins = fr.code[fr.ip]
                fr.ip += 1
                ins[0](st, fr, ins)
        except RunEnd as end:
            return end
        except _Infeasible:
            return None

    # -- decisions -----------------------------------------------------------

    def decide(self, st, fr, dst, options, generated=0, record_fork=False):
        """Fork st over its feasible options, (atoms, payload) pairs, in
        order: st takes the first, and a copy of st per other option goes on
        the stack, last option deepest.  Each writes its payload to dst and
        resumes at the frame's next instruction."""
        self.check_budget()
        self.atoms_generated += generated + sum(len(atoms) for atoms, _ in options)
        feasible = []
        for atoms, payload in options:
            facts = self.check(st, atoms) if atoms else st.facts
            if facts is not None:
                feasible.append((payload, facts))
        if record_fork:
            self.iot_fork_sizes.append(len(feasible))
        if not feasible:
            raise _Infeasible()
        self.states += len(feasible)
        for payload, facts in reversed(feasible[1:]):
            succ = st.copy()
            succ.frames[-1].store[dst] = payload
            succ.facts = facts
            self.stack.append(succ)
        fr.store[dst], st.facts = feasible[0]

    def check(self, st, atoms):
        """The path condition plus atoms when that is satisfiable; None when
        it is not, or when the solver cannot tell (counted as unknown)."""
        facts = st.facts.extend(atoms)
        self.queries += 1
        self.atoms_sent += facts.simplified
        status = facts.status
        if status == solver.UNKNOWN:
            self.unknowns += 1
        return facts if status == solver.SAT else None

    def model(self, st, variables):
        """The model of the path condition over its variables and
        `variables`; None when the solver cannot tell (counted as unknown)."""
        self.queries += 1
        self.atoms_sent += st.facts.simplified
        res = st.facts.solve(variables)
        if res.status == solver.UNKNOWN:
            self.unknowns += 1
            return None
        if res.status == solver.UNSAT:
            raise SymexError("path condition became unsatisfiable")
        return res.model

    # -- symbolic values -----------------------------------------------------

    def _garden(self, tag):
        garden = self.cfg.gardens.get(tag.base)
        if garden is None:
            raise SymexError(f"no garden for {tag!r}")
        return garden

    def intractable(self, st, values, kinds):
        """Apply the policy for an operation outside equality theory to its
        operands, values, and return them as the operation uses them.

        Nothing happens unless an operand is one of kinds.  Then abandon
        (and indexed mode) ends the path, counted as escaped with no test
        case.  Concretize binds each distinct such operand once: an opaque
        value to its fixed default, a finite one to its model value, pinned
        into the path condition so the path stays consistent.  The bound
        Value replaces the symbolic one in st.symvars and in every variable
        and temporary of every frame.  An unindexed value, which unidx() in
        an emitted program gives, is bound to its index's garden value; the
        index stays symbolic in st.symvars, pinned.
        """
        bound = {}
        for s in values:
            if not isinstance(s, kinds) or id(s) in bound:
                continue
            if self.cfg.mode != MODE_CONCRETIZE:
                raise _Abandoned()
            if isinstance(s, Opaque):
                value = st.symvars[s.name] = _concretize_default(s.tag)
            else:
                ref = s.ref if isinstance(s, Unindexed) else s
                model = self.model(st, [ref.var])
                if model is None:  # undecided: the path cannot be pinned
                    raise _Infeasible()
                c = model[ref.var.name]
                st.facts = st.facts.extend((var_eq_const(ref.var, c),))
                value = self._input_value(ref.tag, c)
                if ref is s:
                    st.symvars[ref.var.name] = value
            bound[id(s)] = value
            for fr in st.frames:
                store = fr.store
                for key, held in store.items():
                    if held is s:
                        store[key] = value
        return [bound.get(id(v), v) for v in values] if bound else values

    def _input_value(self, tag, c) -> Value:
        """The input value solver constant c stands for: an index is
        unindexed through its garden, and an int or bool is c."""
        if is_index(tag):
            return self._garden(tag).value_at(c)
        return mk_bool(bool(c)) if tag is BOOL else mk_int(c)

    def truth(self, v: Value) -> bool:
        no_bot(v)
        if is_index(v.tag):
            return truthy(self._garden(v.tag).value_at(v.raw))
        return truthy(v)

    def _truth_options(self, v: SymRef):
        if is_index(v.tag):
            garden = self._garden(v.tag)
            falsy = [i for i in range(v.var.size)
                     if not truthy(garden.value_at(i))]
        else:
            falsy = [0]
        options = [([var_neq_const(v.var, f) for f in falsy], True)]
        options += [([var_eq_const(v.var, f)], False) for f in falsy]
        return options

    # -- instructions ----------------------------------------------------------

    def op_mark(self, st, fr, ins):  # (op, statement path)
        st.stmts.add(ins[1])

    def op_set(self, st, fr, ins):  # (op, dst, operand)
        fr.store[ins[1]] = _fetch(fr.store, ins[2])

    def op_symbolic(self, st, fr, ins):  # (op, name)
        name = ins[1]  # an input bound by concretization keeps its value
        ref = st.symvars.get(name)
        if ref is None:
            ref = st.symvars[name] = self.symbolic_ref(name)
        fr.store[name] = ref

    def op_raise(self, st, fr, ins):  # (op, exception class, its argument)
        raise ins[1](ins[2])

    def op_jump(self, st, fr, ins):  # (op, target)
        fr.ip = ins[1]

    def op_truth(self, st, fr, ins):  # (op, dst, operand): dst = a bool
        v = _fetch(fr.store, ins[2])
        if isinstance(v, Opaque):
            v, = self.intractable(st, (v,), (Opaque,))
        if isinstance(v, Value):
            fr.store[ins[1]] = self.truth(v)
            return
        if isinstance(v, Unindexed):
            v = v.ref  # an index is as truthy as the value it denotes
        self.decide(st, fr, ins[1], self._truth_options(v))

    def _taken(self, st, fr, cond) -> bool:
        # a condition is a temporary or a constant: cond() reads a variable
        # through op_truth
        c = fr.store[cond] if cond.__class__ is int else cond
        if c.__class__ is bool:
            return c
        if c is _BOOLS[0] or c is _BOOLS[1]:  # what comparisons store
            return c.raw
        return self.truth(c)

    def op_branch(self, st, fr, ins):  # (op, cond, edge_t, edge_e, else_at)
        if self._taken(st, fr, ins[1]):
            st.branches.add(ins[2])
        else:
            st.branches.add(ins[3])
            fr.ip = ins[4]

    def op_iterate(self, st, fr, ins):  # (op, loop path): its body starts again
        n = st.loop_counts.get(ins[1], 0) + 1
        if n > self.cfg.unroll:
            raise RunEnd(VERDICT_BOUND)
        st.loop_counts[ins[1]] = n
        self.check_budget()

    def op_assert(self, st, fr, ins):  # (op, cond)
        if not self._taken(st, fr, ins[1]):
            raise RunEnd(VERDICT_ASSERT)

    def op_return(self, st, fr, ins):  # (op, operand)
        value = _fetch(fr.store, ins[1])
        st.frames.pop()
        if not st.frames:
            raise RunEnd(VERDICT_OK)
        st.frames[-1].store[fr.dst] = value

    def op_call(self, st, fr, ins):  # (op, dst, callee code, params, args)
        args = [_fetch(fr.store, a) for a in ins[4]]
        st.frames.append(_Frame(ins[2], dict(zip(ins[3], args)), ins[1]))

    def op_not(self, st, fr, ins):  # (op, dst, bool)
        fr.store[ins[1]] = _BOOLS[not fr.store[ins[2]]]

    def op_logic(self, st, fr, ins):  # (op, dst, is_and, bool, bool)
        lb, rb = fr.store[ins[3]], fr.store[ins[4]]
        fr.store[ins[1]] = _BOOLS[(lb and rb) if ins[2] else (lb or rb)]

    def op_arith(self, st, fr, ins):  # (op, dst, operator, left, right)
        lv, rv = _fetch(fr.store, ins[3]), _fetch(fr.store, ins[4])
        if not (isinstance(lv, Value) and isinstance(rv, Value)):
            # ordering and arithmetic live outside equality theory
            lv, rv = self.intractable(st, (lv, rv), _SYMBOLIC)
        no_bot(lv, rv)
        fr.store[ins[1]] = Value(ins[2].result, ins[2].fn(lv.raw, rv.raw))

    def op_force(self, st, fr, ins):  # (op, dst, operand, classes forced)
        # A forced value is finite symbolic, unindexed, or has no finite
        # domain: an ==/!= operand, which intractable binds or abandons, or
        # an indexed-mode builtin's operand, which intractable abandons.  The
        # rewriter applies idx only to values of an indexed type, whose
        # symbolic inputs are finite.  A finite value is forced by
        # enumerating its feasible finite domain.
        v = _fetch(fr.store, ins[2])
        if not isinstance(v, ins[3]):
            fr.store[ins[1]] = v
            return
        if isinstance(v, Opaque):
            fr.store[ins[1]], = self.intractable(st, (v,), (Opaque,))
            return
        ref = v.ref if isinstance(v, Unindexed) else v
        self.decide(st, fr, ins[1], [([var_eq_const(ref.var, c)], self._input_value(ref.tag, c))
                                     for c in range(ref.var.size)])

    def op_compare(self, st, fr, ins):  # (op, dst, want, left, right)
        dst, want = ins[1], ins[2]
        lv, rv = _fetch(fr.store, ins[3]), _fetch(fr.store, ins[4])
        if isinstance(lv, Value) and isinstance(rv, Value):
            if lv.raw is BOT or rv.raw is BOT:
                raise EscapedGarden()
            fr.store[dst] = _BOOLS[(lv.raw == rv.raw) == want]
        elif isinstance(lv, SymRef) and isinstance(rv, SymRef):
            self.decide(st, fr, dst, [
                ([var_eq_var(lv.var, rv.var)], _BOOLS[want]),
                ([var_neq_var(lv.var, rv.var)], _BOOLS[not want])])
        else:
            sym, conc = (lv, rv) if isinstance(lv, SymRef) else (rv, lv)
            no_bot(conc)
            c = _const_for(sym, conc)
            if c is None:  # constant outside the symbolic domain: never equal
                fr.store[dst] = _BOOLS[not want]
                return
            self.decide(st, fr, dst, [
                ([var_eq_const(sym.var, c)], _BOOLS[want]),
                ([var_neq_const(sym.var, c)], _BOOLS[not want])])

    def op_idx(self, st, fr, ins):  # (op, dst, operand)
        v = _fetch(fr.store, ins[2])
        no_bot(v)
        garden = self.cfg.gardens.get(v.tag)
        if garden is None:
            raise SymexError(f"idx: no garden for {v.tag!r}")
        fr.store[ins[1]] = Value(index_of(v.tag), garden.index_or_bot(v))

    def op_unidx(self, st, fr, ins):  # (op, dst, operand)
        v = _fetch(fr.store, ins[2])
        if isinstance(v, Value):
            fr.store[ins[1]] = self._garden(v.tag).value_at(v.raw)
        elif isinstance(v, SymRef):
            fr.store[ins[1]] = Unindexed(v)
        else:
            raise SymexError(f"unidx applied to {v!r}")

    def op_puts(self, st, fr, ins):  # (op, dst, operand)
        v = _fetch(fr.store, ins[2])
        if isinstance(v, Value):  # a symbolic value is a sink, never needed
            no_bot(v)
        fr.store[ins[1]] = mk_int(0)

    def op_builtin(self, st, fr, ins):  # (op, dst, builtin, args)
        args = self.intractable(st, [_fetch(fr.store, a) for a in ins[3]], _SYMBOLIC)
        no_bot(*args)
        fr.store[ins[1]] = ins[2].eval(*args)

    # -- indexed operator tables -------------------------------------------------

    def op_table(self, st, fr, ins):  # (op, dst, table, args, parts)
        # parts[i] is argument i's key component, or its SymRef while free.
        # The relevant-subset optimization: concrete arguments and pins already
        # entailed by the path condition filter rows before any forking.  Every
        # argument is read before any is consumed, as in the interpreter: a key
        # with no free component, or with a BOT one, is the table's call
        table = ins[2]
        parts, free = [], False
        for a in [_fetch(fr.store, a) for a in ins[3]]:
            if isinstance(a, Value):
                parts.append(a.raw)
            elif isinstance(a, SymRef):
                pin = st.facts.pin(a.var.name)
                if pin is None:
                    free = True
                    parts.append(a)
                else:
                    parts.append(pin)
            else:
                raise SymexError(f"indexed call on unsupported value {a!r}")
        if not free or BOT in parts:
            fr.ip += 1
            fr.store[ins[1]] = table.call(tuple(parts), self.cfg.bot_propagate)
            return
        # op_table_step, next, takes the call through its free dimensions
        self._table_fork(st, fr, table, tuple(parts), ins[4],
                         table.size * max(table.arity, 1))

    def op_table_step(self, st, fr, ins):  # (op, dst, table, parts)
        parts = fr.store[ins[3]]
        if parts.__class__ is tuple:  # free dimensions left: decide again here
            fr.ip -= 1
            self._table_fork(st, fr, ins[2], parts, ins[3], 0)
        else:  # the cell
            fr.store[ins[1]] = ins[2].cell_value(parts, self.cfg.bot_propagate)

    # -- fused table-compare-branch sites -------------------------------------
    #
    # A fused instruction is op_table's (op, dst, table, args, parts), then
    # the _Site and the statement's own instruction with its condition False,
    # then True.  op_table_step, op_compare and that instruction follow it.

    def op_fused(self, st, fr, ins):  # (op, op_table's, site, if false, if true)
        """For a concrete or pinned x, read its cell from the site's line,
        computed when such an x first reaches the site (an index outside the
        line is BOT), skip the chain and run the statement's instruction for
        the comparison's truth.  A free x goes through op_table, which forks
        on the rows, and so does any other x, escapes and uninitialised
        reads included; the chain after the site then runs."""
        site = ins[5]
        x = fr.store.get(site.var)
        if x.__class__ is SymRef:
            i = st.facts.pin(x.var.name)
        else:
            i = x.raw if x.__class__ is Value else None
        if i.__class__ is not int:
            self.op_table(st, fr, ins)
            return
        line = site.line
        if line is None:
            line = site.line = site.table.line(site.head, site.tail)
        cell = line[i] if 0 <= i < len(line) else BOT
        if cell is BOT:  # a key outside the domains included
            raise EscapedGarden()
        fr.ip += _CHAIN
        stmt = ins[7] if (cell == site.c) == site.want else ins[6]
        stmt[0](st, fr, stmt)

    def _table_fork(self, st, fr, table, parts, dst, generated):
        """Enumerate the first free dimension while another one is free,
        then fork on the rows: the payload is the parts with one more
        dimension fixed, or the call's cell.  The options are built once per
        (table, parts) and reused by every state that reaches the call with
        the same concrete or pinned arguments and free SymRefs."""
        free = [i for i, p in enumerate(parts) if isinstance(p, SymRef)]
        rows = len(free) == 1
        options = self.fork_options.get((table, parts))
        if options is None:
            options = self.fork_options[table, parts] = (
                _row_options(table, parts, free[0]) if rows else
                _dim_options(parts, free[0], table.dims[free[0]]))
        self.decide(st, fr, dst, options, generated, record_fork=rows)

    # -- reporting -----------------------------------------------------------------

    def concrete_inputs(self, st, model) -> dict:
        out = {}
        for name, ref in st.symvars.items():
            if isinstance(ref, SymRef):
                c = model.get(name, 0)  # 0 where the path condition never names it
                values = self.input_values.get(id(ref))
                if values is None:
                    values = self.input_values[id(ref)] = {}
                value = values.get(c)
                if value is None:
                    value = values[c] = self._input_value(ref.tag, c)
                out[name] = value
            elif isinstance(ref, Opaque):
                out[name] = _concretize_default(ref.tag)
            else:  # bound by concretization
                out[name] = ref
        return out


def _concretize_default(tag: TypeTag) -> Value:
    """The fixed default of an opaque (str or float) input."""
    return mk_str(b"") if tag is STR else mk_float(0.0)


def _const_for(sym: SymRef, conc: Value):
    """The solver constant of a concrete operand compared with sym (an index,
    int or bool, as sym is), or None outside sym's domain."""
    c = int(conc.raw)
    return c if sym.var.contains(c) else None


def _dim_options(parts, at: int, dim):
    """One option per value of a table dimension, for a symbolic argument
    that is not the call's free one; out of an int pool, the cell is BOT."""
    ref = parts[at]
    options = [([var_eq_const(ref.var, v)], parts[:at] + (v,) + parts[at + 1:])
               for v in dim.domain()]
    if isinstance(dim, IntPoolDim):
        options.append(([var_neq_const(ref.var, v) for v in dim.domain()], BOT))
    return options


def _row_options(table: IndexedOperatorTable, parts, free_at: int):
    """One option per table row that the concrete arguments leave, read
    from one line of the table, plus one BOT successor whose condition
    excludes every surviving row.  Engine builds them once per (table,
    concrete or pinned arguments) in an exploration and reuses them, so
    they are only read."""
    ref = parts[free_at]
    line = table.line(parts[:free_at], parts[free_at + 1:])
    rows = sorted((cell, v) for v, cell in zip(table.dims[free_at].domain(), line)
                  if cell is not BOT)
    options = [([var_eq_const(ref.var, v)], cell) for cell, v in rows]
    options.append(([var_neq_const(ref.var, v) for _, v in rows], BOT))
    return options


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def explore(program: Program, cfg: ExploreConfig) -> ExplorationReport:
    """Explore a rewritten (or fully concrete) program in indexed mode."""
    if cfg.mode != MODE_INDEXED:
        raise SymexError("explore runs indexed mode; use explore_baseline")
    return Engine(program, cfg).explore()


def explore_baseline(program: Program, cfg: ExploreConfig) -> ExplorationReport:
    """Explore the original program, abandoning or concretizing at operator
    calls that would generate intractable constraints."""
    if cfg.mode not in (MODE_ABANDON, MODE_CONCRETIZE):
        raise SymexError("baseline mode must be abandon or concretize")
    return Engine(program, cfg).explore()


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    verdict: str
    expected: str
    detail: str = ""


def replay(program: Program, tc: TestCase, **kw) -> ReplayResult:
    """Re-run a test case on the concrete interpreter and compare outcomes.
    kw is interpret's: gardens, tables, unroll and bot_propagate."""
    return compare_replay(tc, interpret(program, tc.inputs, **kw))


def compare_replay(tc: TestCase, res) -> ReplayResult:
    """Whether res, a concrete run on tc's inputs, reproduces tc's verdict
    and branch trace."""
    if res.verdict != tc.verdict:
        return ReplayResult(False, res.verdict, tc.verdict, "verdict mismatch")
    if res.covered_branches != tc.covered_branches:
        return ReplayResult(False, res.verdict, tc.verdict, "branch trace mismatch")
    return ReplayResult(True, res.verdict, tc.verdict)
