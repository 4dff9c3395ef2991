"""Randomized program fuzz: rewriting stays confluent and semantics-preserving
on generated MiniImp programs, not just the shipped corpus."""

import random

import pytest

from indexify import rewrite
from indexify.bench import CORPUS, load_entry
from indexify.garden import BuilderConfig, build_garden, harvest_int_pool, harvest_seeds
from indexify.iot import REGISTRY, memoise_all
from indexify.lang.ast import STR, mk_str
from indexify.lang.interp import interpret
from indexify.lang.parser import parse
from indexify.lang.printer import print_program
from indexify.lang.typecheck import typecheck
from indexify.rewrite import RewriteConfig, confluence_probe, normalize

STR_CONSTS = ['"a"', '"b"', '"ab"', '"ba"', '""']
INT_CONSTS = ["0", "1", "2", "3"]


class ProgramGen:
    """Generates type-correct programs over the string operators."""

    def __init__(self, rng):
        self.rng = rng
        self.str_vars = []
        self.int_vars = []
        self.fresh = 0

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
                f"{self.int_expr(depth + 1)}, {self.int_expr(depth + 1)})")

    def int_expr(self, depth=0):
        r = self.rng
        choices = ["const"]
        if self.int_vars:
            choices += ["var"]
        if depth < 2:
            choices += ["strlen", "strcmp", "strncmp", "plus"]
        kind = r.choice(choices)
        if kind == "const":
            return r.choice(INT_CONSTS)
        if kind == "var":
            return r.choice(self.int_vars)
        if kind == "strlen":
            return f"strlen({self.str_expr(depth + 1)})"
        if kind == "strcmp":
            return f"strcmp({self.str_expr(depth + 1)}, {self.str_expr(depth + 1)})"
        if kind == "strncmp":
            return (f"strncmp({self.str_expr(depth + 1)}, "
                    f"{self.str_expr(depth + 1)}, {self.int_expr(depth + 1)})")
        return f"{self.int_expr(depth + 1)} + {self.int_expr(depth + 1)}"

    def cond(self):
        r = self.rng
        kind = r.choice(["strtruth", "inteq", "intlt"])
        if kind == "strtruth":
            return self.str_expr(1)
        if kind == "inteq":
            return f"{self.int_expr(1)} == {self.int_expr(1)}"
        return f"{self.int_expr(1)} < {self.int_expr(1)}"

    def stmts(self, n, indent="  "):
        out = []
        r = self.rng
        for _ in range(n):
            kind = r.choice(["sdecl", "idecl", "sassign", "puts", "if"])
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
            else:
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
        return out

    def program(self):
        self.str_vars = ["sym"]
        self.int_vars = []
        self.fresh = 0
        body = self.stmts(self.rng.randint(3, 6))
        lines = ["int main() {", "  str sym;", "  symbolic sym;"]
        lines += body
        lines.append(f"  return {self.int_expr()};")
        lines.append("}")
        return "\n".join(lines)


def build_cfg(program, f_plus, k=1):
    seeds = harvest_seeds(program, {STR})
    builders = tuple(REGISTRY[n].signature for n in sorted(f_plus)
                     if REGISTRY[n].signature.arg_types == (STR, STR)
                     and REGISTRY[n].signature.return_type is STR)
    gardens = build_garden(seeds, BuilderConfig(builders=builders, k=k,
                                                max_str_len=4), types={STR})
    tables = memoise_all(gardens, f_plus, harvest_int_pool(program))
    return RewriteConfig({STR}, set(f_plus), gardens, tables)


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
            indexed = interpret(res.program, inputs, gardens=cfg.gardens,
                                tables=cfg.tables)
            if indexed.verdict == "escaped-garden":
                continue
            original = interpret(program, inputs)
            assert indexed.verdict == original.verdict, src
            assert indexed.return_value == original.return_value, src
            assert indexed.outputs == original.outputs, src
            compared += 1
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
