"""Forking symbolic executor over MiniImp programs.

Two engines share one core.  Indexed mode runs rewriter output: symbolic
variables range over garden indices, and indexed-operator calls fork per table
row (after filtering rows against concrete arguments and pins already
entailed by the path condition).  The executor consumes BOT as the
interpreter does, by raising EscapedGarden, which ends the path with the
escaped-garden verdict.  Baseline mode runs the original program and either
abandons at intractable operator calls or concretizes their symbolic
arguments (fixed defaults for strings and floats, a model value pinned into
the path condition for finite-domain variables), mimicking what dynamic
symbolic execution does.

Paths are enumerated by replay.  Each entry of the exploration stack is the
list of options chosen so far on one path.  A run re-executes the program
from the start; at each decision along that prefix it takes the recorded
option again, adding its atoms to the path condition without building the
option list or asking the solver.  Past the prefix the run is at the
frontier: only there is a decision's option list built (true branch first,
table rows in ascending result order, the BOT successor last), every option
checked, the first feasible one taken and the other feasible ones queued.
Every solver variable ranges over [0, size), and every constant is a
garden index or an int (a bool is 0 or 1); BOT never enters a path
condition.  The path condition travels with the run as a solver.PathState,
so a check costs the atoms it adds, and only a path condition with a
var-var disequality goes to solver.solve.  Every queued option was
satisfiable when checked, so emitted test cases replay on the concrete
interpreter by construction; an option the solver cannot decide is dropped
and counted, and the run goes on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import solver
from .iot import REGISTRY, IndexedOperatorTable, IntPoolDim
from .lang.ast import (
    BOT,
    BOOL,
    INT,
    STR,
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
    program_layout,
    truthy,
)
from .lang.interp import (
    VERDICT_ASSERT,
    VERDICT_BOUND,
    VERDICT_DIV_ZERO,
    VERDICT_ESCAPED,
    VERDICT_OK,
    DivisionByZero,
    concrete_binop,
    interpret,
)
from .solver import FiniteVar, var_eq_const, var_eq_var, var_neq_const, var_neq_var

MODE_INDEXED = "indexed"
MODE_ABANDON = "baseline-abandon"
MODE_CONCRETIZE = "baseline-concretize"

_INTRACTABLE_CLASSES = ("string", "float")


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
    unroll: int = 16
    max_states: int = 100_000
    wallclock_s: float = 60.0
    bot_propagate: bool = False
    int_domain: int = 256  # symbolic non-indexed ints range over [0, this)


@dataclass(frozen=True)
class TestCase:
    path_id: int
    verdict: str
    inputs: dict  # symbolic name -> concrete Value (unindexed)
    covered_branches: frozenset
    pc: tuple


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


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Terminal(Exception):
    """An assertion failure, an exceeded bound, or abandonment by policy."""

    def __init__(self, verdict, emit=True):
        self.verdict = verdict
        self.emit = emit  # abandoned-by-policy paths are counted, never emitted


class _Infeasible(Exception):
    pass


class _Option:
    __slots__ = ("atoms", "payload", "state")

    def __init__(self, atoms, payload):
        self.atoms = atoms
        self.payload = payload
        # the path state once the option is taken, set when it is found
        # feasible: every run that replays the option reaches it with the
        # same path condition
        self.state = None


class Engine:
    def __init__(self, program: Program, cfg: ExploreConfig):
        self.program = program
        self.cfg = cfg
        self.layout = program_layout(program)
        self.decls = {f.name: declared_types(f) for f in program.functions}
        self.queries = 0
        self.unknowns = 0
        self.atoms_generated = 0
        self.atoms_sent = 0
        self.states = 0
        self.iot_fork_sizes = []
        self.symrefs: dict[tuple, SymRef | Opaque] = {}

    def symbolic_ref(self, fn_name, name):
        """The store entry for `symbolic name` in fn_name, built once and
        shared by every path (it depends on the program and config only)."""
        ref = self.symrefs.get((fn_name, name))
        if ref is not None:
            return ref
        tag = self.decls[fn_name].get(name)
        if tag is None:
            raise SymexError(f"no declaration for symbolic {name!r}")
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
        self.symrefs[fn_name, name] = ref
        return ref

    def explore(self) -> ExplorationReport:
        start = time.monotonic()
        deadline = start + self.cfg.wallclock_s
        stack: list[list[_Option]] = [[]]
        self.states = 1
        test_cases = []
        covered_branches = set()
        covered_stmts = set()
        escaped = 0
        paths = 0
        truncated = False
        while stack:
            if time.monotonic() > deadline or self.states > self.cfg.max_states:
                truncated = True
                break
            prefix = stack.pop()
            run = _Run(self, prefix, stack)
            outcome = run.execute()
            if outcome is None:
                continue
            verdict, emit = outcome
            paths += 1
            covered_branches |= run.covered_branches
            covered_stmts |= run.covered_stmts
            if verdict == VERDICT_ESCAPED:
                escaped += 1
            model = run.model(run.finite_vars()) if emit else None
            if model is not None:  # None: the solver could not give one
                test_cases.append(TestCase(
                    path_id=len(test_cases),
                    verdict=verdict,
                    inputs=run.concrete_inputs(model),
                    covered_branches=frozenset(run.covered_branches),
                    pc=tuple(run.pc),
                ))
        return ExplorationReport(
            mode=self.cfg.mode,
            test_cases=tuple(test_cases),
            branch_total=2 * self.layout.branch_count,
            branch_covered=len(covered_branches),
            instr_total=self.layout.stmt_count,
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


class _Run:
    """One re-execution of the program along a decision prefix."""

    def __init__(self, engine: Engine, prefix, stack):
        self.engine = engine
        self.cfg = engine.cfg
        self.program = engine.program
        self.path = prefix  # the options chosen so far, the frontier's appended
        self.stack = stack
        self.depth = 0
        self.pc: list = []
        self.state = solver.PathState()  # the facts of pc
        self.covered_branches = set()
        self.covered_stmts = set()
        self.symvars: dict[str, SymRef | Opaque] = {}
        self.concretized: dict[str, Value] = {}
        self.loop_counts: dict[tuple, int] = {}

    # -- decisions -----------------------------------------------------------

    def decide(self, options, generated: int = 0, record_fork=False):
        """Take the path's next decision and return the chosen payload.

        options is a callable returning the decision's _Option list; it is
        called only at the frontier, since a replayed decision takes its
        recorded option.
        """
        d = self.depth
        self.depth += 1
        if d < len(self.path):
            opt = self.path[d]
            self.pc.extend(opt.atoms)
            self.state = opt.state
            return opt.payload
        # frontier: successor states are created here
        options = options()
        self.engine.atoms_generated += generated + sum(len(o.atoms) for o in options)
        feasible = []
        for opt in options:
            opt.state = self.check(opt.atoms) if opt.atoms else self.state
            if opt.state is not None:
                feasible.append(opt)
        if record_fork:
            self.engine.iot_fork_sizes.append(len(feasible))
        if not feasible:
            raise _Infeasible()
        self.engine.states += len(feasible)
        for opt in reversed(feasible[1:]):
            self.stack.append(self.path + [opt])
        opt = feasible[0]
        self.state = opt.state
        self.path.append(opt)
        self.pc.extend(opt.atoms)
        return opt.payload

    def check(self, atoms):
        """The state of pc plus atoms when that is satisfiable; None when it
        is not, or when the solver cannot tell (counted as unknown)."""
        state = self.state.extend(atoms)
        self.engine.queries += 1
        self.engine.atoms_sent += state.simplified
        status = state.status
        if status is None:
            status = solver.solve(tuple(self.pc) + tuple(atoms)).status
            if status == solver.UNKNOWN:
                self.engine.unknowns += 1
        return state if status == solver.SAT else None

    def model(self, variables):
        """solve()'s model of pc over its variables and `variables`; None
        when the solver cannot tell (counted as unknown)."""
        self.engine.queries += 1
        self.engine.atoms_sent += self.state.simplified
        if self.state.status is not None:
            model = self.state.model(variables)
        else:
            res = solver.solve(tuple(self.pc), variables=variables)
            if res.status == solver.UNKNOWN:
                self.engine.unknowns += 1
                return None
            model = res.model
        if model is None:
            raise SymexError("path condition became unsatisfiable")
        return model

    # -- entry ---------------------------------------------------------------

    def execute(self):
        try:
            self.call_function(self.program.main, [])
        except EscapedGarden:
            return (VERDICT_ESCAPED, True)
        except DivisionByZero:
            return (VERDICT_DIV_ZERO, True)
        except _Terminal as t:
            return (t.verdict, t.emit)
        except _Infeasible:
            return None
        return (VERDICT_OK, True)

    def call_function(self, fn, args):
        scope = {p.name: a for p, a in zip(fn.params, args)}
        try:
            self.exec_block(fn.body, scope, (fn.name,))
        except _Return as r:
            return r.value
        raise MiniImpError(f"{fn.name} finished without returning")

    # -- statements ------------------------------------------------------------

    def exec_block(self, body, scope, path):
        for i, s in enumerate(body):
            self.exec_stmt(s, scope, path + (i,))

    def exec_stmt(self, s, scope, path):
        self.covered_stmts.add(path)
        if isinstance(s, Decl):
            scope[s.name] = self.eval(s.init, scope) if s.init is not None else None
        elif isinstance(s, Assign):
            scope[s.name] = self.eval(s.value, scope)
        elif isinstance(s, If):
            taken = self.truth(self.eval(s.cond, scope))
            self.covered_branches.add((path, taken))
            self.exec_block(s.then if taken else s.orelse, scope,
                            path + ("t" if taken else "e",))
        elif isinstance(s, While):
            while True:
                taken = self.truth(self.eval(s.cond, scope))
                self.covered_branches.add((path, taken))
                if not taken:
                    break
                n = self.loop_counts.get(path, 0) + 1
                if n > self.cfg.unroll:
                    raise _Terminal(VERDICT_BOUND)
                self.loop_counts[path] = n
                self.exec_block(s.body, scope, path + ("b",))
        elif isinstance(s, Assert):
            if not self.truth(self.eval(s.cond, scope)):
                raise _Terminal(VERDICT_ASSERT)
        elif isinstance(s, Return):
            raise _Return(self.eval(s.value, scope) if s.value else None)
        elif isinstance(s, ExprStmt):
            self.eval(s.expr, scope)
        elif isinstance(s, MakeSymbolic):
            scope[s.name] = self.make_symbolic(s.name, path[0])
        else:
            raise MiniImpError(f"cannot execute {s!r}")

    def make_symbolic(self, name, fn_name):
        if name not in self.symvars:
            self.symvars[name] = self.engine.symbolic_ref(fn_name, name)
        return self.symvars[name]

    # -- symbolic values --------------------------------------------------------

    def resolve(self, v):
        if isinstance(v, SymRef):
            return self.concretized.get(v.var.name, v)
        if isinstance(v, Opaque):
            return self.concretized.get(v.name, v)
        return v

    def _garden(self, tag):
        garden = self.cfg.gardens.get(tag.base)
        if garden is None:
            raise SymexError(f"no garden for {tag!r}")
        return garden

    def intractable(self, syms) -> None:
        """Apply the policy for an operation outside equality theory.

        Abandon terminates the path (counted as escaped, no test case);
        concretize binds opaque values to fixed defaults and pins finite
        variables to their current model value so the path stays consistent.
        """
        if self.cfg.mode != MODE_CONCRETIZE:
            raise _Terminal(VERDICT_ESCAPED, emit=False)
        for s in syms:
            if isinstance(s, Opaque):
                self.concretized[s.name] = _concretize_default(s.tag)
            else:
                model = self.model([s.var])
                if model is None:  # undecided: the path cannot be pinned
                    raise _Infeasible()
                c = model[s.var.name]
                atom = var_eq_const(s.var, c)
                self.pc.append(atom)
                self.state = self.state.extend((atom,))
                self.concretized[s.var.name] = _value_from_const(s.tag, c)

    def _input_value(self, tag, c) -> Value:
        """The input value solver constant c stands for: an index is
        unindexed through its garden."""
        if is_index(tag):
            return self._garden(tag).value_at(c)
        return _value_from_const(tag, c)

    def truth(self, v) -> bool:
        v = self.resolve(v)
        if isinstance(v, Value):
            no_bot(v)
            if is_index(v.tag):
                return truthy(self._garden(v.tag).value_at(v.raw))
            return truthy(v)
        if isinstance(v, Unindexed):
            v = v.ref  # an index is as truthy as the value it denotes
        if isinstance(v, Opaque):
            self.intractable([v])
            return self.truth(self.resolve(v))
        return self.decide(lambda: self._truth_options(v))

    def _truth_options(self, v: SymRef):
        if is_index(v.tag):
            garden = self._garden(v.tag)
            falsy = [i for i in range(v.var.size)
                     if not truthy(garden.value_at(i))]
        else:
            falsy = [0]
        options = [_Option([var_neq_const(v.var, f) for f in falsy], True)]
        options += [_Option([var_eq_const(v.var, f)], False) for f in falsy]
        return options

    def force_value(self, v) -> Value:
        """Concretize on demand by enumerating the feasible finite domain."""
        v = self.resolve(v)
        if isinstance(v, Value):
            no_bot(v)
            return v
        if isinstance(v, Opaque):
            self.intractable([v])
            return self.force_value(v)
        return self.decide(lambda: self._value_options(v))

    def _value_options(self, v):
        ref, value = ((v.ref, self._input_value) if isinstance(v, Unindexed)
                      else (v, _value_from_const))
        return [_Option([var_eq_const(ref.var, c)], value(ref.tag, c))
                for c in range(ref.var.size)]

    # -- expressions --------------------------------------------------------------

    def eval(self, e, scope):
        if isinstance(e, Literal):
            return Value(e.tag, e.value)
        if isinstance(e, BotLiteral):
            return Value(e.tag, BOT)
        if isinstance(e, Var):
            v = scope.get(e.name)
            if v is None:
                raise MiniImpError(f"read of uninitialised variable {e.name!r}")
            return self.resolve(v)
        if isinstance(e, UnOp):
            v = self.resolve(self.eval(e.operand, scope))
            if e.op == "!":
                return mk_bool(not self.truth(v))
            if not isinstance(v, Value):
                self.intractable([v])
                v = self.resolve(v)
            no_bot(v)
            return mk_int(-v.raw)
        if isinstance(e, BinOp):
            return self.binop(e, scope)
        if isinstance(e, Call):
            return self.call(e, scope)
        raise MiniImpError(f"cannot evaluate {e!r}")

    def binop(self, e: BinOp, scope):
        lv = self.resolve(self.eval(e.left, scope))
        rv = self.resolve(self.eval(e.right, scope))
        if e.op in ("==", "!="):
            return self.compare(e.op, lv, rv)
        if e.op in ("&&", "||"):
            lb = self.truth(lv)
            rb = self.truth(rv)
            return mk_bool((lb and rb) if e.op == "&&" else (lb or rb))
        if not (isinstance(lv, Value) and isinstance(rv, Value)):
            # ordering and arithmetic live outside equality theory
            self.intractable([x for x in (lv, rv) if not isinstance(x, Value)])
            lv, rv = self.resolve(lv), self.resolve(rv)
            if not (isinstance(lv, Value) and isinstance(rv, Value)):
                raise SymexError("operands remained symbolic after concretization")
        no_bot(lv, rv)
        return concrete_binop(e.op, lv, rv)

    def compare(self, op, lv, rv):
        want = op == "=="
        if isinstance(lv, Value) and isinstance(rv, Value):
            no_bot(lv, rv)
            return mk_bool((lv.raw == rv.raw) == want)
        if isinstance(lv, Opaque) or isinstance(rv, Opaque):
            self.intractable([x for x in (lv, rv) if isinstance(x, Opaque)])
            return self.compare(op, self.resolve(lv), self.resolve(rv))
        if isinstance(lv, Unindexed) or isinstance(rv, Unindexed):
            lv = self.force_value(lv) if isinstance(lv, Unindexed) else lv
            rv = self.force_value(rv) if isinstance(rv, Unindexed) else rv
            return self.compare(op, lv, rv)
        if isinstance(lv, SymRef) and isinstance(rv, SymRef):
            return mk_bool(self.decide(lambda: [
                _Option([var_eq_var(lv.var, rv.var)], want),
                _Option([var_neq_var(lv.var, rv.var)], not want)]))
        sym, conc = (lv, rv) if isinstance(lv, SymRef) else (rv, lv)
        no_bot(conc)
        c = _const_for(sym, conc)
        if c is None:  # constant outside the symbolic domain: never equal
            return mk_bool(not want)
        return mk_bool(self.decide(lambda: [
            _Option([var_eq_const(sym.var, c)], want),
            _Option([var_neq_const(sym.var, c)], not want)]))

    # -- calls ----------------------------------------------------------------

    def call(self, e: Call, scope):
        args = [self.eval(a, scope) for a in e.args]
        user = self.program.function(e.name)
        if user is not None:
            return self.call_function(user, args)
        if e.name == "idx":
            return self.intrinsic_idx(args[0])
        if e.name == "unidx":
            return self.intrinsic_unidx(args[0])
        if e.name in self.cfg.tables:
            return self.table_call(self.cfg.tables[e.name], args)
        if e.name == "puts":
            return self.builtin_puts(args[0])
        op = REGISTRY.get(e.name)
        if op is None:
            raise MiniImpError(f"call to unknown function {e.name!r}")
        return self.builtin_call(op, args)

    def intrinsic_idx(self, v):
        v = self.force_value(v)
        garden = self.cfg.gardens.get(v.tag)
        if garden is None:
            raise SymexError(f"idx: no garden for {v.tag!r}")
        return Value(index_of(v.tag), garden.index_or_bot(v))

    def intrinsic_unidx(self, v):
        v = self.resolve(v)
        if isinstance(v, Value):
            return self._garden(v.tag).value_at(v.raw)
        if isinstance(v, SymRef):
            return Unindexed(v)
        raise SymexError(f"unidx applied to {v!r}")

    def builtin_puts(self, v):
        v = self.resolve(v)
        if isinstance(v, Value):  # a symbolic value is a sink, never needed
            no_bot(v)
        return mk_int(0)

    def builtin_call(self, op, args):
        resolved = [self.resolve(a) for a in args]
        syms = [a for a in resolved if not isinstance(a, Value)]
        if syms:
            if self.cfg.mode == MODE_INDEXED:
                # values outside the index algebra stay intractable even here
                if any(isinstance(a, Opaque) for a in syms):
                    raise _Terminal(VERDICT_ESCAPED, emit=False)
            elif op.klass in _INTRACTABLE_CLASSES:
                self.intractable(syms)
                resolved = [self.resolve(a) for a in resolved]
            resolved = [a if isinstance(a, Value) else self.force_value(a)
                        for a in resolved]
        no_bot(*resolved)
        return op.eval(*resolved)

    # -- indexed operator tables -------------------------------------------------

    def table_call(self, table: IndexedOperatorTable, args):
        # parts[i] is argument i's key component, or its SymRef while free.
        # The relevant-subset optimization: concrete arguments and pins already
        # entailed by the path condition filter rows before any forking
        parts = []
        for a in map(self.resolve, args):
            if isinstance(a, Value):
                if a.raw is BOT and self.cfg.bot_propagate:
                    return table.cell_value(BOT)
                no_bot(a)
                parts.append(a.raw)
            elif isinstance(a, SymRef):
                pin = self.state.pin(a.var.name)
                parts.append(a if pin is None else pin)
            else:
                raise SymexError(f"indexed call on unsupported value {a!r}")
        free = [i for i, p in enumerate(parts) if isinstance(p, SymRef)]
        if not free:
            return table.cell_value(table.lookup(tuple(parts)))
        naive = len(table.rows) * max(table.arity, 1)
        # reduce to one free dimension by enumerating the others
        for i in free[:-1]:
            v = self.decide(lambda: _dim_options(parts[i], table.dims[i]),
                            generated=naive)
            naive = 0
            if v is None:
                return table.cell_value(BOT)
            parts[i] = v
        cell = self.decide(lambda: _row_options(table, parts, free[-1]),
                           generated=naive, record_fork=True)
        return table.cell_value(cell)

    # -- reporting -----------------------------------------------------------------

    def finite_vars(self):
        return [v.var for v in self.symvars.values() if isinstance(v, SymRef)]

    def concrete_inputs(self, model) -> dict:
        out = {}
        for name, ref in self.symvars.items():
            if isinstance(ref, Opaque):
                out[name] = self.concretized.get(name, _concretize_default(ref.tag))
            else:
                out[name] = self._input_value(ref.tag, model.get(name, 0))
        return out


def _value_from_const(tag: TypeTag, c: int) -> Value:
    """The program value of solver constant c for a finite variable of type
    tag; an index stays an index."""
    if is_index(tag):
        return Value(tag, c)
    if tag is BOOL:
        return mk_bool(bool(c))
    return mk_int(c)


def _concretize_default(tag: TypeTag) -> Value:
    """The fixed default of an opaque (str or float) input."""
    return mk_str(b"") if tag is STR else mk_float(0.0)


def _const_for(sym: SymRef, conc: Value):
    """The solver constant of a concrete operand compared with sym (an index,
    int or bool, as sym is), or None outside sym's domain."""
    c = int(conc.raw)
    return c if sym.var.contains(c) else None


def _dim_options(ref: SymRef, dim):
    """One option per value of a table dimension, for a symbolic argument
    that is not the call's free one."""
    options = [_Option([var_eq_const(ref.var, v)], v) for v in dim.domain()]
    if isinstance(dim, IntPoolDim):  # out-of-pool values all map to BOT
        options.append(
            _Option([var_neq_const(ref.var, v) for v in dim.domain()], None))
    return options


def _row_options(table: IndexedOperatorTable, parts, free_at: int):
    """One option per table row that the concrete arguments leave, plus one
    BOT successor whose condition excludes every surviving row."""
    ref = parts[free_at]
    rows = []
    for v in table.dims[free_at].domain():
        cell = table.lookup(tuple(v if i == free_at else p
                                  for i, p in enumerate(parts)))
        if cell is not BOT:
            rows.append((cell, v))
    rows.sort()
    options = [_Option([var_eq_const(ref.var, v)], cell) for cell, v in rows]
    options.append(_Option([var_neq_const(ref.var, v) for _, v in rows], BOT))
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


def replay(program: Program, tc: TestCase, *, gardens=None, tables=None,
           unroll: int = 16, bot_propagate: bool = False) -> ReplayResult:
    """Re-run a test case on the concrete interpreter and compare outcomes."""
    res = interpret(program, tc.inputs, gardens=gardens, tables=tables,
                    unroll=unroll, bot_propagate=bot_propagate)
    if res.verdict != tc.verdict:
        return ReplayResult(False, res.verdict, tc.verdict, "verdict mismatch")
    if res.covered_branches != tc.covered_branches:
        return ReplayResult(False, res.verdict, tc.verdict, "branch trace mismatch")
    return ReplayResult(True, res.verdict, tc.verdict)
