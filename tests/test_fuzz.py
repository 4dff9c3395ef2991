"""Randomized program fuzz: rewriting stays confluent and semantics-preserving
on generated MiniImp programs, not just the shipped corpus."""

import random
from itertools import product

import pytest

from indexify import rewrite
from indexify.bench import CORPUS, load_entry
from indexify.check import agrees, behaviour
from indexify.lang.ast import BOOL, FLOAT, INT, STR, mk_bool, mk_int, symbolic_inputs
from indexify.lang.interp import interpret
from indexify.lang.parser import parse
from indexify.lang.printer import print_program
from indexify.lang.typecheck import typecheck
from indexify.rewrite import RewriteConfig, confluence_probe, emit_indexed_source, normalize
from indexify.symex import (MODE_ABANDON, MODE_CONCRETIZE, Engine, ExploreConfig, explore,
                            explore_baseline, replay)

from conftest import build_cfg

STR_CONSTS = ['"a"', '"b"', '"ab"', '"ba"', '""']
INT_CONSTS = ["0", "1", "2", "3"]
FLOAT_CONSTS = ["0.0", "-1.0", "1.0"]
FLOAT_UNARY = ["sqrt", "fabs"]
FLOAT_OPS = ["fadd", "fsub", "fmul", "fdiv", "fmin", "fmax"] + FLOAT_UNARY


class ProgramGen:
    """Generates type-correct programs over the string operators.

    With extended=True a program may also hold `while` loops, `assert`s, a
    call to one user function and a second symbolic input, the bool `flag`
    or the int `num`.  `num` appears only where the explorer keeps it
    symbolic (equality, truthiness and the int arguments of strncmp and
    substr), never under arithmetic or ordering, which abandon the path.

    With sites=True half of the conditions of `if`, `while` and `assert`
    compare strcmp, strlen or strncmp of a string input (`sym`, or the user
    function's parameter) and literals with an int literal, the shape the
    explorer fuses into one site.

    With faults=True a program may declare an int with no initialiser and
    assign it on one branch of an `if` only, so a later read may be
    uninitialised, and with extended=True the user function may end in an
    `if` that returns, so a path may finish without returning.
    """

    def __init__(self, rng, extended=False, sites=False, faults=False):
        self.rng = rng
        self.extended = extended
        self.sites = sites
        self.faults = faults
        self.str_vars = []
        self.int_vars = []
        self.fresh = 0
        self.sym_int = None   # the symbolic int input, when there is one
        self.sym_bool = None  # the symbolic bool input, when there is one
        self.helper = None    # the user function main may call

    def str_expr(self, depth=0):
        r = self.rng
        choices = ["const"]
        if self.str_vars:
            choices += ["var", "var"]
        if depth < 2:
            choices += ["strcat", "strstr", "substr"]
        kind = r.choice(choices)
        if kind == "const":
            return r.choice(STR_CONSTS)
        if kind == "var":
            return r.choice(self.str_vars)
        if kind == "strcat":
            return f"strcat({self.str_expr(depth + 1)}, {self.str_expr(depth + 1)})"
        if kind == "strstr":
            return f"strstr({self.str_expr(depth + 1)}, {self.str_expr(depth + 1)})"
        return (f"substr({self.str_expr(depth + 1)}, "
                f"{self.int_expr(depth + 1, sym=True)}, "
                f"{self.int_expr(depth + 1, sym=True)})")

    def int_expr(self, depth=0, sym=False):
        r = self.rng
        choices = ["const"]
        if self.int_vars:
            choices += ["var"]
        if depth < 2:
            choices += ["strlen", "strcmp", "strncmp", "plus"]
            if self.helper is not None:
                choices += ["call"]
        if sym and self.sym_int is not None:
            choices += ["sym"]
        kind = r.choice(choices)
        if kind == "const":
            return r.choice(INT_CONSTS)
        if kind == "var":
            return r.choice(self.int_vars)
        if kind == "sym":
            return self.sym_int
        if kind == "call":
            return f"{self.helper}({self.str_expr(depth + 1)}, {self.int_expr(depth + 1)})"
        if kind == "strlen":
            return f"strlen({self.str_expr(depth + 1)})"
        if kind == "strcmp":
            return f"strcmp({self.str_expr(depth + 1)}, {self.str_expr(depth + 1)})"
        if kind == "strncmp":
            return (f"strncmp({self.str_expr(depth + 1)}, "
                    f"{self.str_expr(depth + 1)}, {self.int_expr(depth + 1, sym=True)})")
        return f"{self.int_expr(depth + 1)} + {self.int_expr(depth + 1)}"

    def site_cond(self):
        """op(sym, lit...) ==/!= lit, op one of strcmp, strlen, strncmp."""
        r = self.rng
        op = r.choice(["strcmp", "strlen", "strncmp"])
        args = self.str_vars[0]
        if op != "strlen":
            args += f", {r.choice(STR_CONSTS)}"
        if op == "strncmp":
            args += f", {r.choice(INT_CONSTS)}"
        return f"{op}({args}) {r.choice(['==', '!='])} {r.choice(INT_CONSTS)}"

    def cond(self, boolean=False):
        r = self.rng
        if self.sites and not boolean and r.random() < 0.5:
            return self.site_cond()
        kinds = ["inteq", "intlt"] if boolean else ["strtruth", "inteq", "intlt"]
        if self.sym_bool is not None:
            kinds += ["flag"]
        kind = r.choice(kinds)
        if kind == "strtruth":
            return self.str_expr(1)
        if kind == "inteq":
            op = r.choice(["==", "!="]) if self.extended else "=="
            return f"{self.int_expr(1, sym=True)} {op} {self.int_expr(1, sym=True)}"
        if kind == "flag":
            form = r.randrange(3)
            if form == 2:
                return f"{self.sym_bool} && {self.cond(boolean=True)}"
            return f"!{self.sym_bool}" if form else self.sym_bool
        return f"{self.int_expr(1)} < {self.int_expr(1)}"

    def block(self, n, indent):
        # declarations inside a block may not have executed after it
        saved = (list(self.str_vars), list(self.int_vars))
        out = self.stmts(n, indent)
        self.str_vars, self.int_vars = saved
        return out

    def stmts(self, n, indent="  "):
        out = []
        r = self.rng
        kinds = ["sdecl", "idecl", "sassign", "puts", "if"]
        if self.extended:
            kinds += ["while", "assert"]
        if self.faults:
            kinds += ["udecl"]
        for _ in range(n):
            kind = r.choice(kinds)
            if kind == "sdecl" or (kind == "sassign" and not self.str_vars):
                name = f"s{self.fresh}"
                self.fresh += 1
                out.append(f"{indent}str {name} = {self.str_expr()};")
                self.str_vars.append(name)
            elif kind == "idecl":
                name = f"n{self.fresh}"
                self.fresh += 1
                out.append(f"{indent}int {name} = {self.int_expr()};")
                self.int_vars.append(name)
            elif kind == "sassign":
                out.append(f"{indent}{r.choice(self.str_vars)} = {self.str_expr()};")
            elif kind == "puts":
                out.append(f"{indent}puts({self.str_expr()});")
            elif kind == "if":
                out.append(f"{indent}if ({self.cond()}) {{")
                # declarations inside a branch may not have executed afterwards
                saved = (list(self.str_vars), list(self.int_vars))
                out.extend(self.stmts(r.randint(1, 2), indent + "  "))
                self.str_vars, self.int_vars = list(saved[0]), list(saved[1])
                if r.random() < 0.4:
                    out.append(f"{indent}}} else {{")
                    out.extend(self.stmts(r.randint(1, 2), indent + "  "))
                    self.str_vars, self.int_vars = saved
                out.append(f"{indent}}}")
            elif kind == "assert":
                out.append(f"{indent}assert({self.cond()});")
            elif kind == "udecl":  # assigned on one branch: a later read may fail
                name = f"u{self.fresh}"
                self.fresh += 1
                out.append(f"{indent}int {name};")
                out.append(f"{indent}if ({self.cond()}) {{ {name} = {self.int_expr()}; }}")
                self.int_vars.append(name)
            elif r.random() < 0.3:  # a loop that may run into the unroll bound
                out.append(f"{indent}while ({self.cond()}) {{")
                out.extend(self.block(r.randint(1, 2), indent + "  "))
                out.append(f"{indent}}}")
            else:
                counter = f"w{self.fresh}"
                self.fresh += 1
                out.append(f"{indent}int {counter} = 0;")
                out.append(f"{indent}while ({counter} < 2 && {self.cond(boolean=True)}) {{")
                out.extend(self.block(r.randint(1, 2), indent + "  "))
                out.append(f"{indent}  {counter} = {counter} + 1;")
                out.append(f"{indent}}}")
        return out

    def function(self):
        """One user function over a str and an int parameter."""
        self.str_vars, self.int_vars = ["a"], ["b"]
        body = self.stmts(self.rng.randint(1, 3))
        if self.faults and self.rng.random() < 0.5:  # a path with no return
            body.append(f"  if ({self.cond()}) {{ return {self.int_expr()}; }}")
            lines = ["int helper(str a, int b) {", *body, "}", ""]
        else:
            lines = ["int helper(str a, int b) {", *body,
                     f"  return {self.int_expr()};", "}", ""]
        self.helper = "helper"
        return lines

    def program(self):
        r = self.rng
        self.fresh = 0
        lines = ["int main() {", "  str sym;", "  symbolic sym;"]
        if self.extended:
            self.sym_int = self.sym_bool = self.helper = None
            lines = self.function() + lines
            if r.random() < 0.5:
                self.sym_bool = "flag"
                lines += ["  bool flag;", "  symbolic flag;"]
            else:
                self.sym_int = "num"
                lines += ["  int num;", "  symbolic num;"]
        self.str_vars = ["sym"]
        self.int_vars = []
        body = self.stmts(r.randint(3, 6))
        lines += body
        lines.append(f"  return {self.int_expr()};")
        lines.append("}")
        return "\n".join(lines)


class FloatProgramGen:
    """Generates type-correct programs over the float builtins, with one
    symbolic input, the float `x`.  A program declares float variables built
    from the eight float builtins over float variables and the literals
    0.0, -1.0 and 1.0, and its `if` and `assert` conditions compare two such
    expressions with == or !=.  It declares 0.0 and -1.0 first, so the
    harvested seeds always hold both."""

    def __init__(self, rng):
        self.rng = rng

    def expr(self, depth=0):
        r = self.rng
        kind = r.choice(["const", "var", "var"] + (["op", "op"] if depth < 2 else []))
        if kind == "const":
            return r.choice(FLOAT_CONSTS)
        if kind == "var":
            return r.choice(self.vars)
        op = r.choice(FLOAT_OPS)
        args = [self.expr(depth + 1) for _ in range(1 if op in FLOAT_UNARY else 2)]
        return f"{op}({', '.join(args)})"

    def cond(self):
        return f"{self.expr(1)} {self.rng.choice(['==', '!='])} {self.expr(1)}"

    def stmts(self, n, indent="  ", depth=0):
        out = []
        r = self.rng
        for _ in range(n):
            kind = r.choice(["decl", "decl", "assign", "if", "assert"] if depth < 2
                            else ["decl", "assign"])
            if kind == "decl":
                name = f"f{self.fresh}"
                self.fresh += 1
                out.append(f"{indent}float {name} = {self.expr()};")
                self.vars.append(name)
            elif kind == "assign":
                out.append(f"{indent}r = r + {r.randint(1, 3)};")
            elif kind == "assert":
                out.append(f"{indent}assert({self.cond()});")
            else:
                # declarations inside a branch may not have executed afterwards
                saved = list(self.vars)
                out.append(f"{indent}if ({self.cond()}) {{")
                out.extend(self.stmts(r.randint(1, 2), indent + "  ", depth + 1))
                self.vars = list(saved)
                if r.random() < 0.4:
                    out.append(f"{indent}}} else {{")
                    out.extend(self.stmts(r.randint(1, 2), indent + "  ", depth + 1))
                    self.vars = saved
                out.append(f"{indent}}}")
        return out

    def program(self):
        self.vars, self.fresh = ["x", "zero", "m"], 0
        lines = ["int main() {", "  float x;", "  symbolic x;", "  float zero = 0.0;",
                 "  float m = -1.0;", "  int r = 0;"]
        lines += self.stmts(self.rng.randint(3, 6))
        lines += ["  return r;", "}"]
        return "\n".join(lines)


def test_confluence_on_random_programs():
    rng = random.Random(8080)
    for trial in range(30):
        src = ProgramGen(rng).program()
        program = typecheck(parse(src))
        f_plus = set(rng.sample(["strcat", "strstr", "strcmp", "strncmp",
                                 "strlen", "substr"], rng.randint(1, 4)))
        cfg = build_cfg(program, f_plus)
        rep = confluence_probe(program, cfg, trials=50, seed=trial)
        assert rep.all_equal, src


def test_homomorphism_on_random_programs():
    rng = random.Random(4242)
    compared = 0
    for trial in range(30):
        src = ProgramGen(rng).program()
        program = typecheck(parse(src))
        f_plus = set(rng.sample(["strcat", "strstr", "strcmp", "strncmp",
                                 "strlen", "substr"], rng.randint(2, 5)))
        cfg = build_cfg(program, f_plus, k=rng.randint(0, 2))
        res = normalize(typecheck(parse(src)), cfg)
        garden = cfg.gardens[STR]
        for _ in range(30):
            inputs = {"sym": rng.choice(garden.values())}
            agreed = agrees(program, res.program, inputs, gardens=cfg.gardens, tables=cfg.tables)
            assert agreed is not False, src
            compared += agreed is True
    assert compared > 200


def test_random_rewrites_roundtrip_through_printer():
    rng = random.Random(7)
    for trial in range(10):
        src = ProgramGen(rng).program()
        program = typecheck(parse(src))
        cfg = build_cfg(program, {"strstr", "strcat"})
        res = normalize(program, cfg)
        text = print_program(res.program)
        assert parse(text) == res.program


def _assert_batched_matches_one_step(program, cfg, monkeypatch, label):
    # a round checks its redexes only against its own scan; here every
    # application is re-checked by a fresh find_redexes (apply_rule without
    # the round's set raises StaleRedex when a guard no longer holds)
    one_step = normalize(program, cfg, order="random", rng=random.Random(0))
    apply = rewrite.apply_rule
    with monkeypatch.context() as m:
        m.setattr(rewrite, "apply_rule", lambda p, r, c, redexes=None: apply(p, r, c))
        batched = normalize(program, cfg)
    assert print_program(batched.program) == print_program(one_step.program), label


def test_batched_rounds_apply_no_stale_redex_on_random_programs(monkeypatch):
    rng = random.Random(1980)
    for trial in range(300):
        src = ProgramGen(rng).program()
        program = typecheck(parse(src))
        f_plus = rng.sample(["strcat", "strstr", "strcmp", "strncmp", "strlen",
                             "substr"], rng.randint(1, 4))
        cfg = build_cfg(program, f_plus, k=rng.randint(0, 1))
        _assert_batched_matches_one_step(program, cfg, monkeypatch, src)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_batched_rounds_apply_no_stale_redex_on_corpus(entry, monkeypatch):
    cfg, pipe = load_entry(entry)
    rcfg = RewriteConfig(set(cfg.indexed_types), pipe.f_plus, pipe.gardens,
                         pipe.tables)
    _assert_batched_matches_one_step(pipe.program, rcfg, monkeypatch, entry.name)


ORACLE_INT_DOMAIN = 3  # the symbolic int `num` ranges over 0, 1, 2
ORACLE_UNROLL = 3


def _oracle_inputs(program, gardens):
    """Every input of the garden product: each symbolic input of an indexed
    type over its garden, a bool over both values and an int, `num`, over
    [0, ORACLE_INT_DOMAIN)."""
    domains = {BOOL: [mk_bool(False), mk_bool(True)],
               INT: [mk_int(n) for n in range(ORACLE_INT_DOMAIN)]}
    names, types = zip(*symbolic_inputs(program).items())
    for values in product(*(gardens[t].values() if t in gardens else domains[t]
                            for t in types)):
        yield dict(zip(names, values))


def _check_exhaustively(src, f_plus, k, int_pool=None, tag=STR):
    """The exhaustive oracle on one program: on small gardens, interpret
    the rewritten program on every input of the garden product.  The
    (verdict, branch trace) pairs it shows must be exactly those of the
    explorer's test cases: none missing, none extra.  On every input the
    emitted .indexed.mi shows the in-memory program's behaviour, and on
    every input that does not escape, so does the original program.  The
    garden indexes the type tag, str by default.  Returns the number of
    inputs compared with the original program and the verdicts seen."""
    program = typecheck(parse(src))
    cfg = build_cfg(program, f_plus, k=k, maxlen=3, int_pool=int_pool, tag=tag)
    res = normalize(program, cfg)
    gardens, tables = cfg.gardens, cfg.tables
    rep = explore(res.program, ExploreConfig(
        gardens=gardens, tables=tables, unroll=ORACLE_UNROLL,
        int_domain=ORACLE_INT_DOMAIN))
    assert not rep.truncated and rep.solver_unknowns == 0, src
    assert rep.paths == len(rep.test_cases), src  # nothing abandoned
    explored = {(tc.verdict, tc.covered_branches) for tc in rep.test_cases}
    emitted = parse(emit_indexed_source(res))
    names = {f.name for f in program.functions}
    seen = set()
    compared = 0
    for inputs in _oracle_inputs(program, gardens):
        mem = interpret(res.program, inputs, gardens=gardens, tables=tables,
                        unroll=ORACLE_UNROLL)
        seen.add((mem.verdict, mem.covered_branches))
        out = interpret(emitted, inputs, gardens=gardens, unroll=ORACLE_UNROLL)
        assert behaviour(out, names) == behaviour(mem, names), (src, inputs)
        agreed = agrees(program, res.program, inputs, gardens=gardens, tables=tables,
                        unroll=ORACLE_UNROLL)
        assert agreed is not False, (src, inputs)
        compared += agreed is True
    assert explored == seen, src
    return compared, {v for v, _ in seen}


def test_exploration_is_complete_on_random_programs():
    rng = random.Random(2008)
    programs = compared = 0
    verdicts = set()
    for trial in range(60):
        src = ProgramGen(rng, extended=True).program()
        f_plus = rng.sample(["strcat", "strstr", "strcmp", "strncmp", "strlen",
                             "substr"], rng.randint(1, 4))
        n, seen = _check_exhaustively(src, f_plus, rng.randint(0, 2))
        compared += n
        verdicts |= seen
        programs += 1
    assert programs == 60 and compared > 400
    # without faults the generator reaches every verdict but division by
    # zero, an uninitialised read and a missing return
    assert verdicts == {"ok", "escaped-garden", "assertion-failure", "bound-exceeded"}


def test_exploration_is_complete_on_random_programs_with_faults():
    # the same oracle where a path may read an int before any assignment or
    # leave the helper without returning: the explorer ends such a path with
    # the fault's verdict at the point where the interpreter's run ends
    rng = random.Random(3535)
    compared = 0
    verdicts = set()
    for trial in range(40):
        src = ProgramGen(rng, extended=True, faults=True).program()
        f_plus = rng.sample(["strcat", "strstr", "strcmp", "strncmp", "strlen",
                             "substr"], rng.randint(1, 4))
        n, seen = _check_exhaustively(src, f_plus, rng.randint(0, 2))
        compared += n
        verdicts |= seen
    assert compared > 250
    assert verdicts == {"ok", "escaped-garden", "assertion-failure", "bound-exceeded",
                        "uninitialised-read", "missing-return"}


def test_exploration_is_complete_on_random_float_programs():
    # the same oracle where the garden indexes float: seeds 0.0, -1.0 and
    # the program's other literals, grown by the float builtins of F+.  A
    # NaN or -0.0 result is outside the garden, so index equality is float
    # equality and a rewritten comparison takes the original's branch
    rng = random.Random(1717)
    compared = 0
    verdicts = set()
    for trial in range(200):
        src = FloatProgramGen(rng).program()
        f_plus = rng.sample(FLOAT_OPS, rng.randint(1, 4))
        n, seen = _check_exhaustively(src, f_plus, rng.randint(0, 1), tag=FLOAT)
        compared += n
        verdicts |= seen
    assert compared > 400  # 480 at this seed
    assert verdicts == {"ok", "escaped-garden", "assertion-failure"}


def test_exploration_is_complete_on_random_float_programs_with_a_wider_f_plus():
    # the float oracle with F+ drawn as 2-6 of the eight builtins, from its
    # own stream.  More tables have no non-BOT row, and such a table's
    # emitted function must escape on a BOT argument as its call does
    rng = random.Random(1717)
    compared = 0
    verdicts = set()
    for trial in range(40):
        src = FloatProgramGen(rng).program()
        f_plus = rng.sample(FLOAT_OPS, rng.randint(2, 6))
        n, seen = _check_exhaustively(src, f_plus, rng.randint(0, 1), tag=FLOAT)
        compared += n
        verdicts |= seen
    assert compared > 100  # 122 at this seed
    assert verdicts == {"ok", "escaped-garden", "assertion-failure"}


def test_exploration_is_complete_on_random_fused_sites(monkeypatch):
    # the same oracle on programs whose conditions often have the fused
    # shape, with the site's operators always indexed.  The int pool leaves
    # out 3, so every cell of a strncmp at n = 3 is BOT: on garden keys the
    # three operators have no other BOT cell.  A fused site decides a
    # concrete or pinned input itself and gives any other to op_table.
    calls = {"op_fused": 0, "op_table": 0}  # op_table: those op_fused makes
    inside = [False]
    op_fused, op_table = Engine.op_fused, Engine.op_table

    def counted_fused(self, st, fr, ins):
        calls["op_fused"] += 1
        inside[0] = True
        try:
            return op_fused(self, st, fr, ins)
        finally:
            inside[0] = False

    def counted_table(self, st, fr, ins):
        calls["op_table"] += inside[0]
        return op_table(self, st, fr, ins)

    monkeypatch.setattr(Engine, "op_fused", counted_fused)
    monkeypatch.setattr(Engine, "op_table", counted_table)
    rng = random.Random(2424)
    compared = 0
    verdicts = set()
    for trial in range(40):
        src = ProgramGen(rng, extended=True, sites=True).program()
        f_plus = ["strcmp", "strlen", "strncmp"] + rng.sample(
            ["strcat", "strstr", "substr"], rng.randint(0, 2))
        n, seen = _check_exhaustively(src, f_plus, rng.randint(0, 2), int_pool=(0, 1, 2))
        compared += n
        verdicts |= seen
    assert compared > 250
    assert verdicts == {"ok", "escaped-garden", "assertion-failure", "bound-exceeded"}
    # 309 site visits at this seed, 14 of them with a free input
    assert calls["op_fused"] - calls["op_table"] > 200, calls


def test_baselines_replay_on_random_programs():
    # both baselines run the original program, where `sym` has no finite
    # domain: abandon ends a path where an operator reads a symbolic value,
    # and concretize binds it there, `sym` to "" and `num` to a model value.
    # Every test case replays on the original program with its verdict and
    # branch trace, and every other path was abandoned
    rng = random.Random(7)
    cases = abandoned = 0
    for trial in range(120):
        src = ProgramGen(rng, extended=True).program()
        program = typecheck(parse(src))
        for mode in (MODE_ABANDON, MODE_CONCRETIZE):
            rep = explore_baseline(program, ExploreConfig(
                mode=mode, unroll=ORACLE_UNROLL, int_domain=ORACLE_INT_DOMAIN))
            assert not rep.truncated and rep.solver_unknowns == 0, src
            assert rep.paths == len(rep.test_cases) + rep.escaped_paths, src
            for tc in rep.test_cases:
                assert replay(program, tc, unroll=ORACLE_UNROLL).ok, (src, mode, tc)
            cases += len(rep.test_cases)
            abandoned += rep.escaped_paths
    assert cases > 150 and abandoned > 100  # 171 and 113 at this seed


def test_indexed_mode_covers_every_edge_abandon_covers():
    # the paper's reach claim edge by edge, on runs within the oracle's
    # bounds: every branch edge of the original program's functions that an
    # abandon test case covers, an indexed test case covers too
    rng = random.Random(99)
    ahead = 0
    bounds = {"unroll": ORACLE_UNROLL, "int_domain": ORACLE_INT_DOMAIN}
    for trial in range(150):
        src = ProgramGen(rng, extended=True).program()
        f_plus = rng.sample(["strcat", "strstr", "strcmp", "strncmp", "strlen",
                             "substr"], rng.randint(1, 4))
        program = typecheck(parse(src))
        cfg = build_cfg(program, f_plus, k=rng.randint(0, 2), maxlen=3)
        indexed = explore(normalize(program, cfg).program,
                          ExploreConfig(gardens=cfg.gardens, tables=cfg.tables, **bounds))
        abandon = explore_baseline(program, ExploreConfig(mode=MODE_ABANDON, **bounds))
        assert not indexed.truncated and not abandon.truncated, src
        names = {f.name for f in program.functions}
        by_indexed, by_abandon = ({b for tc in rep.test_cases for b in tc.covered_branches
                                   if b[0][0] in names} for rep in (indexed, abandon))
        assert by_abandon <= by_indexed, src
        ahead += by_abandon < by_indexed
    assert ahead > 90  # indexed mode covers strictly more edges in 98 programs
