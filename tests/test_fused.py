"""Fused table-compare-branch sites: an `if`, `while` or `assert` whose
condition is T(x, k...) ==/!= c decides a concrete or pinned x on the cell
of x's index in the site's line of T, then runs the statement's own
instruction with the comparison's truth as its condition.  It must behave
exactly as the unfused op_table, op_table_step, op_compare and statement
chain does."""

import collections
import dataclasses
import random
import types

import pytest

from indexify.bench import CORPUS, load_entry
from indexify.cli import (CliConfig, build_pipeline, explore_config, rewrite_pipeline,
                          run_mode)
from indexify.garden import load_gardens
from indexify.iot import IndexedOperatorTable, memoise_all
from indexify.lang.ast import (BOT, STR, VERDICT_UNINIT, EscapedGarden, RunEnd, Value, While,
                               walk_stmts)
from indexify.lang.interp import VERDICT_ASSERT, interpret
from indexify.lang.parser import parse
from indexify.solver import PathState, var_eq_const
from indexify.symex import (_CHAIN, MODE_ABANDON, MODE_CONCRETIZE, MODE_INDEXED, Engine,
                            ExploreConfig, _Lowering)

GARDEN_TEXT = "0\tstr\t\n1\tstr\ta\n2\tstr\txab\n3\tstr\tb\n"

# Indexed source: raw-result sites (strcmp, strlen, strncmp at an int
# outside the pool, so every cell is BOT) and indexed-result sites (strstr
# against an index literal, with x at either argument).
SITES_SOURCE = """\
int main() {
  index<str> x;
  symbolic x;
  int r = 0;
  if (i_strcmp(x, 1@str) == 0) { r = 1; }
  if (i_strlen(x) != 3) { r = r + 2; }
  while (i_strstr(x, 1@str) == 1@str) { r = r + 4; }
  if (i_strstr(2@str, x) != 0@str) { r = r + 8; }
  if (r == 2) { assert(i_strncmp(x, 1@str, 9) == 0); }
  return r;
}
"""


def _sites_setup():
    gardens = load_gardens(GARDEN_TEXT)
    tables = memoise_all(gardens, {"strcmp", "strlen", "strncmp", "strstr"}, (0, 1, 3))
    return parse(SITES_SOURCE), gardens, tables


def fused_sites(engine):
    """(code, position) of every fused instruction the engine lowered."""
    return [(code, p) for code in engine.codes.values()
            for p, ins in enumerate(code) if ins[0] == engine.op_fused]


def chain_outcome(engine, code, p, i):
    """What the unfused chain after fused site p gives for x = i: lookup,
    then the chain's own op_table_step (cell_value) and op_compare.  BOT
    when either escapes."""
    site = code[p][5]
    fr = types.SimpleNamespace(store={}, ip=0)
    step, compare = code[p + 1], code[p + 2]
    fr.store[step[3]] = site.table.lookup(site.head + (i,) + site.tail)
    try:
        engine.op_table_step(None, fr, step)
        engine.op_compare(None, fr, compare)
    except EscapedGarden:
        return BOT
    return fr.store[compare[1]].raw


def _effect(engine, code, run, store, ip, facts):
    """What run(st, fr), then a while's op_iterate when it runs next, does to
    a fresh state whose frame holds store and has just been dispatched
    instruction ip: the branch edges it marks, its loop counts and the next
    instruction, or its verdict when the path ends there (BOT: it escapes)."""
    st = types.SimpleNamespace(branches=set(), loop_counts={}, facts=facts)
    fr = types.SimpleNamespace(store=store, ip=ip + 1)
    try:
        run(st, fr)
        ins = code[fr.ip]
        if ins[0] == engine.op_iterate:
            fr.ip += 1
            ins[0](st, fr, ins)
    except EscapedGarden:
        return BOT
    except RunEnd as end:
        return end.verdict
    return st.branches, st.loop_counts, fr.ip


def site_effect(engine, code, p, x, facts=None):
    """What fused site p does with x bound to the Value or SymRef x."""
    return _effect(engine, code, lambda st, fr: engine.op_fused(st, fr, code[p]),
                   {code[p][5].var: x}, p, facts)


def chain_effect(engine, code, p, i):
    """What the unfused chain after fused site p does for x = i: the cell
    lookup keeps, then op_table_step, op_compare and the statement's own
    instruction, dispatched as Engine.run does, then a while's op_iterate."""
    site, parts = code[p][5], code[p + 1][3]

    def run(st, fr):
        for _ in range(_CHAIN):
            ins = code[fr.ip]
            fr.ip += 1
            ins[0](st, fr, ins)
    return _effect(engine, code, run,
                   {parts: site.table.lookup(site.head + (i,) + site.tail)}, p, None)


@pytest.mark.parametrize("bot_propagate", [False, True])
def test_fused_partitions_agree_with_lookup_and_compare(bot_propagate):
    # every site decides each garden index, concrete or pinned, as the
    # chain does: the same edge, loop count and jump, the same escape, the
    # same assertion failure
    program, gardens, tables = _sites_setup()
    engine = Engine(program, ExploreConfig(gardens=gardens, tables=tables,
                                           bot_propagate=bot_propagate))
    sites = fused_sites(engine)
    assert [code[p][2].op_name for code, p in sites] == \
        ["strcmp", "strlen", "strstr", "strstr", "strncmp"]
    engine.explore()  # sets the budgets a loop iteration checks
    ref = engine.symbolic_ref("x")
    seen, iterations = set(), 0
    for code, p in sites:
        site, stmt = code[p][5], code[p + _CHAIN]
        for i in range(len(gardens[STR])):
            truth, chain = chain_outcome(engine, code, p, i), chain_effect(engine, code, p, i)
            pinned = PathState().extend((var_eq_const(ref.var, i),))
            assert site_effect(engine, code, p, Value(ref.tag, i)) == chain, (site.table, i)
            assert site_effect(engine, code, p, ref, pinned) == chain, (site.table, i)
            if truth is BOT:
                assert chain is BOT
            elif stmt[0] == engine.op_assert:
                assert chain == (VERDICT_ASSERT if not truth else (set(), {}, p + _CHAIN + 1))
            else:
                assert chain[0] == {stmt[2] if truth else stmt[3]}, (site.table, i)
                after = code[p + _CHAIN + 1]
                if after[0] == engine.op_iterate:  # the while counts its iteration
                    assert chain[1] == ({after[1]: 1} if truth else {}), (site.table, i)
                    iterations += bool(truth)
            seen.add((site.table.result_indexed, truth))
        for i in (-1, len(gardens[STR])):  # an index outside the line escapes
            assert site_effect(engine, code, p, Value(ref.tag, i)) is BOT
            assert chain_effect(engine, code, p, i) is BOT
    # true, false and BOT cells of raw- and indexed-result tables alike
    assert seen == {(r, out) for r in (False, True) for out in (True, False, BOT)}
    assert iterations > 0


def test_exploration_fills_only_the_entries_it_reads(monkeypatch):
    # the first site forks on x's rows through op_table; strlen and the
    # while see x pinned to each of the 4 garden values, and the strstr
    # after the loop only "" and "b": x = "a" loops to the bound and
    # x = "xab" escapes at the while.  A site computes its line, x's whole
    # garden dimension, at the first pinned visit and reads it at every
    # later one; a site no pinned x reaches computes none.
    program, gardens, tables = _sites_setup()
    lines = collections.Counter()  # site -> the lines its pinned visits compute
    visits = collections.Counter()  # site -> its pinned visits
    reading = [None]  # the site whose pinned or concrete x is being read
    line, op_fused, op_table = IndexedOperatorTable.line, Engine.op_fused, Engine.op_table

    def counted_line(self, head, tail):
        if reading[0] is not None:
            lines[reading[0]] += 1
        return line(self, head, tail)

    def counted_fused(self, st, fr, ins):
        reading[0] = ins[5]
        visits[ins[5]] += 1
        try:
            return op_fused(self, st, fr, ins)
        finally:
            reading[0] = None

    def uncounted_table(self, st, fr, ins):
        if reading[0] is not None:
            visits[reading[0]] -= 1
        reading[0] = None
        return op_table(self, st, fr, ins)

    monkeypatch.setattr(IndexedOperatorTable, "line", counted_line)
    monkeypatch.setattr(Engine, "op_fused", counted_fused)
    monkeypatch.setattr(Engine, "op_table", uncounted_table)
    engine = Engine(program, ExploreConfig(gardens=gardens, tables=tables))
    engine.explore()
    sites = [code[p][5] for code, p in fused_sites(engine)]
    # x = "a" meets the while's site once per iteration, up to the bound
    assert [visits[site] for site in sites] == [0, 4, 20, 2, 0]
    assert [lines[site] for site in sites] == [0, 1, 1, 1, 0]
    assert [site.line is not None for site in sites] == [lines[site] == 1 for site in sites]
    for site in sites[1:4]:
        assert site.line == [site.table.lookup(site.head + (i,) + site.tail)
                             for i in range(len(gardens[STR]))]


def _flags_3():
    """The configuration and pipeline of flags 3: three comparisons of one
    symbolic string with a flag each."""
    src = "int main() { str flag; symbolic flag; int r = 0;\n" + "".join(
        f'  if (strcmp(flag, "-{f}") == 0) {{ r = {i}; }}\n'
        for i, f in enumerate("abc", 1)) + "  return r; }\n"
    cfg = CliConfig(input_path="flags.mi", indexed_types=(STR,),
                    f_plus_names=("strcmp",), k=0)
    return cfg, rewrite_pipeline(build_pipeline(parse(src), cfg), cfg)


def test_a_pinned_site_runs_no_chain(monkeypatch):
    # flags 3: the first comparison forks on 4 rows (3 flags and the empty
    # string; its BOT option is infeasible) and pins `flag`, and each of the
    # 4 successors runs that site's chain; the other two sites decide from
    # the cell and run only op_branch, 4 times each
    cfg, pipe = _flags_3()
    calls = {"op_table": 0, "op_table_step": 0, "op_compare": 0, "op_branch": 0}
    for name in calls:
        real = getattr(Engine, name)

        def counted(self, st, fr, ins, real=real, name=name):
            calls[name] += 1
            return real(self, st, fr, ins)

        monkeypatch.setattr(Engine, name, counted)
    rep = run_mode(cfg, pipe, MODE_INDEXED)
    assert (rep.paths, rep.iot_fork_sizes) == (4, (4,))
    assert calls == {"op_table": 1, "op_table_step": 4, "op_compare": 4, "op_branch": 12}


def _sizes(x):
    """The length of x and of every list, tuple and dict inside it; None
    for anything else."""
    if isinstance(x, dict):
        x = [*x.keys(), *x.values()]
    if isinstance(x, (list, tuple)):
        return [len(x), *map(_sizes, x)]
    return None


def test_each_exploration_computes_each_sites_line_once(monkeypatch):
    # flags 3: the first site's row fork and the two pinned sites each
    # compute one line per exploration.  A second exploration over the same
    # tables computes them again: a line belongs to the exploration's
    # lowering, not to the table.  lookup is never called, and no attribute
    # of the table grows, so it keeps no cell; only cell_value's one shared
    # Value per distinct cell is added.
    cfg, pipe = _flags_3()
    table = pipe.tables["i_strcmp"]
    lines, lookups = [], []
    line, lookup = IndexedOperatorTable.line, IndexedOperatorTable.lookup

    def counted_line(self, head, tail):
        lines.append((head, tail))
        return line(self, head, tail)

    def counted_lookup(self, key):
        lookups.append(key)
        return lookup(self, key)

    def sizes():
        return {name: _sizes(value) for name, value in vars(table).items()
                if name != "_values"}

    monkeypatch.setattr(IndexedOperatorTable, "line", counted_line)
    monkeypatch.setattr(IndexedOperatorTable, "lookup", counted_lookup)
    before = sizes()
    for explorations in (1, 2):
        rep = run_mode(cfg, pipe, MODE_INDEXED)
        assert (rep.paths, rep.iot_fork_sizes) == (4, (4,))
        assert len(lines) == 3 * explorations
        assert sorted(set(lines)) == sorted(lines[:3])  # one per site
        assert sizes() == before
    assert lookups == []
    assert set(table._values) <= {-1, 0, 1}


# ---------------------------------------------------------------------------
# a fused condition against its unfused spelling
# ---------------------------------------------------------------------------

SETUPS = {
    "free": "symbolic x;",
    "pinned": 'symbolic x;\n  int d = strcmp(x, "xab");',
    "concrete": 'x = "a";',
    # on the path where x is "a", x becomes BOT: "axab" is not in the garden
    "escaping": 'symbolic x;\n  if (strcmp(x, "a") == 0) { x = strcat(x, "xab"); }',
}

# (fused, unfused): both declare c where the statement's condition is read,
# so both spellings have the same statements at the same paths
SPELLINGS = {
    "if": ("int c = 0;\n  if (strcmp(x, \"a\") == 0) { r = 1; }",
           "int c = strcmp(x, \"a\");\n  if (c == 0) { r = 1; }"),
    "while": ("int c = 0;\n  while (strcmp(x, \"a\") == 0) { r = r + 1; c = 0; }",
              "int c = strcmp(x, \"a\");\n"
              "  while (c == 0) { r = r + 1; c = strcmp(x, \"a\"); }"),
    "assert": ("int c = 0;\n  assert(strcmp(x, \"a\") != 0);",
               "int c = strcmp(x, \"a\");\n  assert(c != 0);"),
}


def _program(setup, stmt):
    return f"int main() {{\n  str x;\n  int r = 0;\n  {setup}\n  {stmt}\n  return r;\n}}\n"


def _run(src, bot_propagate):
    cfg = CliConfig(input_path="t.mi", indexed_types=(STR,),
                    f_plus_names=("strcat", "strcmp"), k=0, unroll=3,
                    bot_propagate=bot_propagate)
    pipe = rewrite_pipeline(build_pipeline(parse(src), cfg), cfg)
    engine = Engine(pipe.indexed.program, ExploreConfig(
        gardens=pipe.gardens, tables=pipe.tables, unroll=cfg.unroll,
        bot_propagate=bot_propagate, wallclock_s=10.0))
    return engine, engine.explore()


def _observed(rep):
    """Everything a report says but its wall time."""
    counters = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)
                if f.name not in ("test_cases", "elapsed_s")}
    cases = [(tc.path_id, tc.verdict, tc.inputs, tc.covered_branches)
             for tc in rep.test_cases]
    return counters, cases


@pytest.mark.parametrize("bot_propagate", [False, True])
@pytest.mark.parametrize("setup", sorted(SETUPS))
@pytest.mark.parametrize("kind", sorted(SPELLINGS))
def test_fused_condition_matches_its_unfused_spelling(kind, setup, bot_propagate):
    fused_src, unfused_src = (_program(SETUPS[setup], s) for s in SPELLINGS[kind])
    fused, fused_rep = _run(fused_src, bot_propagate)
    unfused, unfused_rep = _run(unfused_src, bot_propagate)
    # the setup's own comparison is fused in both, the statement only in one
    extra = 1 if setup == "escaping" else 0
    assert (len(fused_sites(fused)), len(fused_sites(unfused))) == (1 + extra, extra)
    assert _observed(fused_rep) == _observed(unfused_rep)
    verdicts = {tc.verdict for tc in fused_rep.test_cases}
    if setup == "escaping":
        assert "escaped-garden" in verdicts
    # only a free or pinned x can be "a" at the statement
    if kind == "assert" and setup in ("free", "pinned"):
        assert "assertion-failure" in verdicts
    if kind == "while" and setup in ("free", "pinned"):
        assert "bound-exceeded" in verdicts


# ---------------------------------------------------------------------------
# fused against unfused lowering of the same program
# ---------------------------------------------------------------------------


def _explore_both(monkeypatch, program, cfg):
    fused = Engine(program, cfg).explore()
    with monkeypatch.context() as m:
        m.setattr(_Lowering, "site", lambda self, e: None)
        engine = Engine(program, cfg)
        assert fused_sites(engine) == []
        unfused = engine.explore()
    return fused, unfused


class FusedShapes:
    """Random programs over one symbolic string x, made of the shapes a site
    fuses: if, while and assert on strcmp, strlen or strncmp of x against a
    literal, with the literal on either side.  Reassigning x to a literal
    makes it concrete, and strcat onto x can leave the garden (BOT)."""

    STRS = ('"a"', '"b"', '"ab"', '""')

    def __init__(self, rng):
        self.rng = rng

    def cond(self):
        r = self.rng
        call = r.choice([f"strcmp(x, {r.choice(self.STRS)})", "strlen(x)",
                         f"strncmp(x, {r.choice(self.STRS)}, {r.randint(0, 2)})"])
        c, op = str(r.randint(0, 2)), r.choice(["==", "!="])
        return f"{call} {op} {c}" if r.random() < 0.8 else f"{c} {op} {call}"

    def stmts(self, depth, n):
        r, out = self.rng, []
        for _ in range(n):
            kind = r.choice(["if", "if", "while", "assert", "assign", "cat"]
                            if depth < 2 else ["assign", "cat", "count"])
            if kind == "if":
                out.append(f"if ({self.cond()}) {{ {self.stmts(depth + 1, 2)} }}"
                           f" else {{ {self.stmts(depth + 1, 1)} }}")
            elif kind == "while":
                out.append(f"while ({self.cond()}) {{ {self.stmts(depth + 1, 1)} }}")
            elif kind == "assert":
                out.append(f"assert({self.cond()});")
            elif kind == "assign":
                out.append(f"x = {r.choice(self.STRS)};")
            elif kind == "cat":
                out.append(f"x = strcat(x, {r.choice(self.STRS)});")
            else:
                out.append("r = r + 1;")
        return " ".join(out)

    def program(self):
        return (f"int main() {{ str x; symbolic x; int r = 0; if ({self.cond()}) {{ r = 1; }} "
                + self.stmts(0, 4) + " return r; }")


def test_fusion_keeps_the_reports_of_random_programs(monkeypatch):
    rng = random.Random(23)
    fused_runs = 0
    for _ in range(40):
        src = FusedShapes(rng).program()
        cfg = CliConfig(input_path="r.mi", indexed_types=(STR,),
                        f_plus_names=("strcat", "strcmp", "strlen", "strncmp"),
                        k=1, maxlen=3, unroll=3, bot_propagate=rng.random() < 0.5)
        pipe = rewrite_pipeline(build_pipeline(parse(src), cfg), cfg)
        explore_cfg = ExploreConfig(gardens=pipe.gardens, tables=pipe.tables, unroll=3,
                                    bot_propagate=cfg.bot_propagate, wallclock_s=10.0)
        fused_runs += bool(fused_sites(Engine(pipe.indexed.program, explore_cfg)))
        fused, unfused = _explore_both(monkeypatch, pipe.indexed.program, explore_cfg)
        assert _observed(fused) == _observed(unfused), src
    assert fused_runs == 40


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_fusion_keeps_every_corpus_report(monkeypatch, entry):
    cfg, pipe = load_entry(entry)
    pipe = rewrite_pipeline(pipe, cfg)
    for bot_propagate in (False, True):
        fused, unfused = _explore_both(monkeypatch, pipe.indexed.program, ExploreConfig(
            gardens=pipe.gardens, tables=pipe.tables, bot_propagate=bot_propagate))
        assert _observed(fused) == _observed(unfused)


@pytest.mark.parametrize("bot_propagate", [False, True])
def test_fusion_keeps_the_reports_of_every_site_kind(monkeypatch, bot_propagate):
    program, gardens, tables = _sites_setup()
    fused, unfused = _explore_both(monkeypatch, program, ExploreConfig(
        gardens=gardens, tables=tables, unroll=3, bot_propagate=bot_propagate))
    assert _observed(fused) == _observed(unfused)
    assert {tc.verdict for tc in fused.test_cases} >= \
        {"ok", "escaped-garden", "bound-exceeded"}


@pytest.mark.parametrize("x", ["bot@str", "7@str"])  # BOT, outside the garden
def test_a_fused_site_escapes_where_the_chain_does(monkeypatch, x):
    _, gardens, tables = _sites_setup()
    program = parse("int main() { index<str> x = %s; int r = 0;\n"
                    "  if (i_strcmp(x, 1@str) == 0) { r = 1; }\n"
                    "  return r; }\n" % x)
    for bot_propagate in (False, True):
        fused, unfused = _explore_both(monkeypatch, program, ExploreConfig(
            gardens=gardens, tables=tables, bot_propagate=bot_propagate))
        assert _observed(fused) == _observed(unfused)
        assert [tc.verdict for tc in fused.test_cases] == ["escaped-garden"]


def test_a_fused_site_reads_an_uninitialised_variable_as_the_chain_does(monkeypatch):
    # the read ends the path with its verdict, at the site as in the chain
    # and in the interpreter
    _, gardens, tables = _sites_setup()
    program = parse("int main() { index<str> x; int r = 0;\n"
                    "  if (i_strcmp(x, 1@str) == 0) { r = 1; }\n"
                    "  return r; }\n")
    assert len(fused_sites(Engine(program, ExploreConfig(gardens=gardens, tables=tables)))) == 1
    fused, unfused = _explore_both(monkeypatch, program, ExploreConfig(
        gardens=gardens, tables=tables))
    assert _observed(fused) == _observed(unfused)
    assert [tc.verdict for tc in fused.test_cases] == [VERDICT_UNINIT]
    assert interpret(program, gardens=gardens, tables=tables).verdict == VERDICT_UNINIT


@pytest.mark.parametrize("bot_propagate", [False, True])
def test_a_table_call_reads_every_argument_before_it_consumes_one(bot_propagate):
    # the interpreter evaluates every argument first, so a BOT argument
    # before an uninitialised one ends the run at the read, not in an escape
    _, gardens, tables = _sites_setup()
    program = parse("int main() { index<str> x = bot@str; int n;\n"
                    "  if (i_strncmp(x, 1@str, n) == 0) { return 1; }\n"
                    "  return 0; }\n")
    kw = dict(gardens=gardens, tables=tables, bot_propagate=bot_propagate)
    report = Engine(program, ExploreConfig(**kw)).explore()
    assert [tc.verdict for tc in report.test_cases] == [VERDICT_UNINIT]
    assert interpret(program, **kw).verdict == VERDICT_UNINIT


def _conditions(engine):
    """The condition field of every op_branch and op_assert the engine
    lowered, and of both copies of the statement at each fused site, with
    the number of fused sites and of whiles.  On the way it checks that an
    op_branch is followed by op_iterate with the statement's path exactly
    when the statement is a while, and that each while has one op_iterate."""
    stmts = (engine.op_branch, engine.op_assert)
    whiles = {path for f in engine.program.functions
              for path, s in walk_stmts(f.body, (f.name,)) if isinstance(s, While)}
    conds, sites, iterated = [], 0, []
    for code in engine.codes.values():
        for p, ins in enumerate(code):
            if ins[0] == engine.op_fused:
                sites += 1
                assert ins[6][0] == ins[7][0] == code[p + _CHAIN][0] in stmts
                assert (ins[6][1], ins[7][1]) == (False, True)
                assert ins[6][2:] == ins[7][2:] == code[p + _CHAIN][2:]
                conds += [ins[6][1], ins[7][1]]
            elif ins[0] in stmts:
                conds.append(ins[1])
            if ins[0] == engine.op_branch:
                path = ins[2][0]
                assert (code[p + 1] == (engine.op_iterate, path)) == (path in whiles)
            elif ins[0] == engine.op_iterate:
                iterated.append(ins[1])
    assert len(iterated) == len(whiles) and set(iterated) == whiles
    return conds, sites, len(whiles)


def test_a_statement_condition_is_a_temporary_or_a_constant():
    # Engine._taken reads its condition without _fetch: the lowering reads
    # a variable condition through op_truth into a temporary
    engines = []
    for entry in CORPUS:
        cfg, pipe = load_entry(entry)
        pipe = rewrite_pipeline(pipe, cfg)
        for mode in (MODE_INDEXED, MODE_ABANDON, MODE_CONCRETIZE):
            program = pipe.indexed.program if mode == MODE_INDEXED else pipe.program
            engines.append(Engine(program, explore_config(cfg, pipe, mode)))
    rng = random.Random(24)
    for _ in range(20):
        cfg = CliConfig(input_path="r.mi", indexed_types=(STR,),
                        f_plus_names=("strcat", "strcmp", "strlen", "strncmp"),
                        k=1, maxlen=3)
        pipe = rewrite_pipeline(build_pipeline(parse(FusedShapes(rng).program()), cfg), cfg)
        engines.append(Engine(pipe.indexed.program, explore_config(cfg, pipe, MODE_INDEXED)))
    kinds, sites, whiles = set(), 0, 0
    for engine in engines:
        conds, n, loops = _conditions(engine)
        kinds |= {c.__class__ for c in conds}
        sites += n
        whiles += loops
    assert kinds <= {int, Value, bool}
    assert int in kinds and bool in kinds and sites > 40 and whiles > 20
