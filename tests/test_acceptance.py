"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its runtime when it holds; the
tolerances and time budgets are asserted inside the tests themselves.
"""

import random
import time

import pytest

from indexify import solver
from indexify.bench import CONTROL, CORPUS, STRING_HEAVY, load_entry, run_corpus
from indexify.check import agrees, check_runs
from indexify.cli import rewrite_pipeline
from indexify.garden import (
    BuilderConfig,
    SeedSet,
    build_garden,
    load_gardens,
)
from indexify.iot import REGISTRY, memoise, memoise_all
from indexify.lang.ast import (
    BOOL,
    BOT,
    FLOAT,
    STR,
    mk_bool,
    mk_float,
    mk_int,
    mk_str,
    symbolic_inputs,
    value_key,
)
from indexify.lang.parser import parse
from indexify.lang.typecheck import typecheck
from indexify.rewrite import RewriteConfig, confluence_probe, normalize
from indexify.symex import (
    MODE_ABANDON,
    MODE_CONCRETIZE,
    MODE_INDEXED,
    ExploreConfig,
    explore,
    explore_baseline,
    replay,
)

from conftest import FIG4A_SOURCE, FIG5_GARDEN_TEXT, eval_builtin, value_for
from test_solver import brute_force, random_pc


def _report(n, name, t0):
    print(f"\nACCEPTANCE {n} ({name}): PASS in {time.monotonic() - t0:.2f}s")


@pytest.fixture(scope="module")
def corpus_runs():
    return run_corpus(modes=(MODE_INDEXED, MODE_ABANDON, MODE_CONCRETIZE))


def test_criterion_1_garden_golden():
    t0 = time.monotonic()
    seeds = SeedSet()
    for v in (b"a", b"b", b""):
        seeds.add(mk_str(v))
    cfg = BuilderConfig(
        builders=(REGISTRY["strcat"], REGISTRY["strstr"]),
        k=2, max_str_len=2,
    )
    garden = build_garden(seeds, cfg, types={STR})[STR]
    got = {v.raw for v in garden.values()}
    assert got == {b"", b"a", b"b", b"aa", b"bb", b"ab", b"ba"}
    assert len(garden) == 7
    assert time.monotonic() - t0 < 1.0
    _report(1, "garden golden test", t0)


def test_criterion_2_memoization_oracle():
    t0 = time.monotonic()
    rng = random.Random(2024)
    checked_rows = 0
    configs = 0
    while configs < 100:
        if rng.random() < 0.5:
            tag = STR
            seeds = SeedSet()
            for _ in range(rng.randint(1, 4)):
                seeds.add(mk_str(bytes(rng.choice(b"ab")
                                       for _ in range(rng.randint(0, 3)))))
            pool = ("strcat", "strstr")
            ops = ("strcat", "strstr", "strcmp", "strncmp", "strlen", "substr")
        else:
            tag = FLOAT
            seeds = SeedSet()
            for _ in range(rng.randint(1, 3)):
                seeds.add(mk_float(rng.choice([0.0, 1.0, 2.0, -1.5, 0.25])))
            pool = ("fadd", "fmul", "fmin")
            ops = ("fadd", "fsub", "fmul", "fdiv", "sqrt", "fabs")
        builders = tuple(REGISTRY[n] for n in rng.sample(pool, rng.randint(1, len(pool))))
        bcfg = BuilderConfig(builders=builders, k=rng.randint(0, 3),
                             max_str_len=rng.randint(2, 4))
        gardens = build_garden(seeds, bcfg, types={tag})
        if not 0 < len(gardens[tag]) <= 64:
            continue
        configs += 1
        garden = gardens[tag]
        index_of_value = {value_key(v): i for i, v in enumerate(garden.values())}
        for name in rng.sample(ops, 2):
            table = memoise(gardens, REGISTRY[name], int_pool=(0, 1, 4))
            for key, cell in table.rows.items():
                args = [value_for(d, k) for d, k in zip(table.dims, key)]
                out = eval_builtin(name, args)
                if table.result_indexed:
                    want = index_of_value.get(value_key(out), BOT)
                else:
                    want = out.raw
                assert cell == want or (cell is BOT and want is BOT), (name, key)
                checked_rows += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert checked_rows > 1000
    _report(2, f"memoization oracle, {checked_rows} rows", t0)


def test_criterion_3_figure_pinned_rows():
    t0 = time.monotonic()
    gardens = load_gardens(FIG5_GARDEN_TEXT)
    table = memoise_all(gardens, {"strstr"})["i_strstr"]
    assert table.rows[(0, 2)] == 2
    assert table.rows[(0, 3)] == 1
    _report(3, "figure-pinned strstr rows", t0)


def test_criterion_4_confluence_fuzz():
    t0 = time.monotonic()
    for entry in CORPUS:
        cfg, pipe = load_entry(entry)
        rcfg = RewriteConfig(set(cfg.indexed_types), pipe.f_plus,
                             pipe.gardens, pipe.tables)
        rep = confluence_probe(pipe.program, rcfg, trials=1000, seed=17)
        assert rep.all_equal, entry.name
        assert rep.distinct_normal_forms == 1, entry.name
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(4, "confluence fuzz, 12 programs x 1000 orders", t0)


def test_criterion_5_homomorphism_differential():
    t0 = time.monotonic()
    rng = random.Random(55)
    compared = 0
    for entry in CORPUS:
        cfg, pipe = load_entry(entry)
        rewrite_pipeline(pipe, cfg)
        res = pipe.indexed
        names = symbolic_inputs(pipe.program)
        for _ in range(200):
            inputs = {}
            for name, tag in names.items():
                if tag is STR:
                    inputs[name] = rng.choice(pipe.gardens[STR].values())
                elif tag is FLOAT:
                    inputs[name] = rng.choice(pipe.gardens[FLOAT].values())
                elif tag is BOOL:
                    inputs[name] = mk_bool(rng.random() < 0.5)
                else:
                    inputs[name] = mk_int(rng.randrange(256))
            agreed = agrees(pipe.program, res.program, inputs, gardens=pipe.gardens,
                            tables=pipe.tables)
            assert agreed is not False, (entry.name, inputs)
            compared += agreed is True
    assert compared > 1000
    _report(5, f"homomorphism differential, {compared} non-escaping runs", t0)


def test_criterion_6_solver_oracle():
    t0 = time.monotonic()
    rng = random.Random(606)
    for _ in range(10_000):
        pc, vs = random_pc(rng, max_vars=4, max_domain=8)
        res = solver.solve(pc, variables=vs)
        assert res.status == brute_force(pc, vs)
        if res.status == solver.SAT:
            assert solver.satisfies(pc, res.model)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, "solver oracle, 10000 path conditions", t0)


def test_criterion_7_vendor_bug_end_to_end():
    t0 = time.monotonic()
    from indexify.bench import corpus_path

    source = open(corpus_path("vendor_check")).read()
    program = typecheck(parse(source))
    gardens = load_gardens("0\tstr\tNVidia\n1\tstr\tNVidia Corporation\n")
    tables = memoise_all(gardens, {"strncmp"}, int_pool=(0, 1, 4, 64))
    res = normalize(typecheck(parse(source)),
                    RewriteConfig({STR}, {"strncmp"}, gardens, tables))
    rep = explore(res.program, ExploreConfig(mode=MODE_INDEXED, gardens=gardens,
                                             tables=tables, wallclock_s=60.0))
    failures = [tc for tc in rep.test_cases if tc.verdict == "assertion-failure"]
    assert failures
    bug = {"vendor": mk_str(b"NVidia"), "nv11vendor": mk_str(b"NVidia Corporation")}
    found = [tc for tc in failures if tc.inputs == bug]
    assert found, "no failure has vendor NVidia and nv11vendor NVidia Corporation"
    for tc in found:
        assert replay(res.program, tc, gardens=gardens, tables=tables).ok
    for mode in (MODE_ABANDON, MODE_CONCRETIZE):
        base = explore_baseline(program, ExploreConfig(mode=mode, wallclock_s=60.0))
        assert all(tc.verdict != "assertion-failure" for tc in base.test_cases), mode
    _report(7, "vendor bug end to end", t0)


def test_criterion_8_relevant_row_simplification():
    t0 = time.monotonic()
    # figure-scale garden: n = 4
    gardens = load_gardens(FIG5_GARDEN_TEXT)
    tables = memoise_all(gardens, {"strstr"})
    res = normalize(typecheck(parse(FIG4A_SOURCE)),
                    RewriteConfig({STR}, {"strstr"}, gardens, tables))
    rep = explore(res.program, ExploreConfig(mode=MODE_INDEXED, gardens=gardens,
                                             tables=tables))
    table = tables["i_strstr"]
    bar = 2
    matching = sum(1 for i in range(len(gardens[STR]))
                   if table.rows[(i, bar)] is not BOT)
    assert rep.iot_fork_sizes == (matching + 1,)
    assert rep.iot_fork_sizes[0] <= len(gardens[STR]) + 1
    assert rep.iot_fork_sizes[0] < len(gardens[STR]) ** 2

    # a larger garden: every string over {a, b} up to length 3, plus "bar"
    seeds = SeedSet()
    seeds.add(mk_str(b"ab"))
    big = build_garden(seeds, BuilderConfig(k=0, max_str_len=3, mode="kleene"),
                       types={STR})
    big[STR].admit(mk_str(b"bar"))
    n = len(big[STR])
    tables = memoise_all(big, {"strstr"})
    src = 'int main(){ str s; symbolic s; if (strstr(s, "bar")) { return 1; } return 0; }'
    res = normalize(typecheck(parse(src)),
                    RewriteConfig({STR}, {"strstr"}, big, tables))
    rep = explore(res.program, ExploreConfig(mode=MODE_INDEXED, gardens=big,
                                             tables=tables))
    table = tables["i_strstr"]
    bar = big[STR].index_or_bot(mk_str(b"bar"))
    matching = sum(1 for i in range(n) if table.rows[(i, bar)] is not BOT)
    bot_region = n - matching
    expected = matching + (1 if bot_region else 0)
    assert rep.iot_fork_sizes == (expected,)
    assert rep.iot_fork_sizes[0] <= n + 1
    assert rep.iot_fork_sizes[0] < n * n
    _report(8, f"relevant-row filtering, garden sizes 4 and {n}", t0)


def test_criterion_9_coverage_direction(corpus_runs):
    t0 = time.monotonic()
    for r in corpus_runs.results:
        indexed = r.reports[MODE_INDEXED]
        abandon = r.reports[MODE_ABANDON]
        if r.entry.category == STRING_HEAVY:
            assert indexed.branch_covered > abandon.branch_covered, r.entry.name
        elif r.entry.category == CONTROL:
            assert indexed.branch_covered == abandon.branch_covered, r.entry.name
            assert indexed.branch_covered == \
                r.reports[MODE_CONCRETIZE].branch_covered, r.entry.name
    _report(9, "coverage direction over the corpus", t0)


def test_criterion_10_replay_soundness(corpus_runs):
    t0 = time.monotonic()
    total = 0
    for r in corpus_runs.results:
        cfg, pipe = load_entry(r.entry)
        rewrite_pipeline(pipe, cfg)
        assert check_runs(cfg, pipe, r.reports) == [], r.entry.name
        total += sum(len(rep.test_cases) for rep in r.reports.values())
    assert total > 100
    _report(10, f"replay soundness, {total} test cases", t0)
