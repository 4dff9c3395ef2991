import itertools

import pytest

from indexify import solver
from indexify.bench import corpus_path
from indexify.cli import (
    CliConfig,
    build_pipeline,
    human_summary,
    rewrite_pipeline,
    run_mode,
)
from indexify.garden import (
    BuilderConfig,
    build_garden,
    harvest_int_pool,
    harvest_seeds,
    load_gardens,
)
from indexify.iot import REGISTRY, IndexedOperatorTable, memoise_all
from indexify.lang.ast import BOT, STR, mk_str
from indexify.lang.interp import interpret
from indexify.lang.parser import parse
from indexify.lang.printer import print_program
from indexify.lang.typecheck import typecheck
from indexify.rewrite import RewriteConfig, normalize
from indexify.symex import (
    MODE_ABANDON,
    MODE_CONCRETIZE,
    MODE_INDEXED,
    ExploreConfig,
    explore,
    explore_baseline,
    replay,
)

from conftest import FIG4A_SOURCE, FIG5_GARDEN_TEXT


def indexed_setup(source, f_plus, *, garden_text=None, k=3, maxlen=8):
    p = typecheck(parse(source))
    if garden_text is not None:
        gardens = load_gardens(garden_text)
    else:
        seeds = harvest_seeds(p, {STR})
        builders = tuple(
            REGISTRY[n].signature for n in sorted(f_plus)
            if all(t is STR for t in REGISTRY[n].signature.arg_types)
            and REGISTRY[n].signature.return_type is STR
        )
        gardens = build_garden(seeds, BuilderConfig(builders=builders, k=k,
                                                    max_str_len=maxlen),
                               types={STR})
    tables = memoise_all(gardens, f_plus, harvest_int_pool(p))
    cfg = RewriteConfig({STR}, set(f_plus), gardens, tables)
    res = normalize(typecheck(parse(source)), cfg)
    return p, res, gardens, tables


def run_indexed(res, gardens, tables, **kw):
    return explore(res.program, ExploreConfig(mode=MODE_INDEXED, gardens=gardens,
                                              tables=tables, **kw))


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------


def test_fig4b_paths_with_harvested_garden():
    _, res, gardens, tables = indexed_setup(FIG4A_SOURCE, {"strstr"})
    rep = run_indexed(res, gardens, tables)
    returns = {tc.inputs["s1"].raw: tc.verdict for tc in rep.test_cases}
    assert rep.branch_covered == 2  # both return branches
    assert all(v == "ok" for v in returns.values())
    assert b"bar" in returns  # the truthy row


def test_fig4b_escape_path_with_figure_garden():
    # the figure's garden has no empty string: strstr("oo","bar") leaves it
    _, res, gardens, tables = indexed_setup(FIG4A_SOURCE, {"strstr"},
                                            garden_text=FIG5_GARDEN_TEXT)
    rep = run_indexed(res, gardens, tables)
    verdicts = sorted(tc.verdict for tc in rep.test_cases)
    assert "escaped-garden" in verdicts
    assert "ok" in verdicts
    assert rep.escaped_paths == 1


def test_concrete_program_single_path():
    src = 'int main(){ str a = strcat("x", "y"); return strlen(a); }'
    _, res, gardens, tables = indexed_setup(src, {"strcat", "strlen"}, k=1)
    rep = run_indexed(res, gardens, tables)
    assert rep.paths == 1
    assert len(rep.test_cases) == 1
    assert rep.iot_fork_sizes == ()  # concrete lookups never fork
    assert rep.solver_queries == 1  # only the terminal model query


def test_fork_counts_match_row_enumeration():
    _, res, gardens, tables = indexed_setup(FIG4A_SOURCE, {"strstr"},
                                            garden_text=FIG5_GARDEN_TEXT)
    rep = run_indexed(res, gardens, tables)
    table = tables["i_strstr"]
    bar = 2
    surviving = sum(1 for i in range(4) if table.rows[(i, bar)] is not BOT)
    assert rep.iot_fork_sizes == (surviving + 1,)  # rows plus one BOT successor


def test_escape_is_lazy():
    # a BOT result parked in a dead branch never escapes
    src = """
    int main() {
      str s;
      symbolic s;
      str u = strcat(s, s);
      if (1 == 2) {
        puts(u);
      }
      return 0;
    }
    """
    _, res, gardens, tables = indexed_setup(src, {"strcat"},
                                            garden_text="0\tstr\ta\n")
    rep = run_indexed(res, gardens, tables)
    assert [tc.verdict for tc in rep.test_cases] == ["ok"]
    assert rep.escaped_paths == 0


def test_bot_propagation_flag():
    src = """
    int main() {
      str s;
      symbolic s;
      str u = strcat(s, s);
      str w = strcat(u, s);
      return strlen(s);
    }
    """
    _, res, gardens, tables = indexed_setup(src, {"strcat", "strlen"},
                                            garden_text="0\tstr\ta\n")
    default = run_indexed(res, gardens, tables)
    assert [tc.verdict for tc in default.test_cases] == ["escaped-garden"]
    prop = run_indexed(res, gardens, tables, bot_propagate=True)
    assert [tc.verdict for tc in prop.test_cases] == ["ok"]
    # both runs replay under their own policy
    for rep, flag in ((default, False), (prop, True)):
        for tc in rep.test_cases:
            assert replay(res.program, tc, gardens=gardens, tables=tables,
                          bot_propagate=flag).ok


def test_truthiness_fork_on_symbolic_index():
    src = 'int main(){ str s; symbolic s; puts("a"); if (s) { return 1; } return 0; }'
    _, res, gardens, tables = indexed_setup(src, {"strstr"})
    rep = run_indexed(res, gardens, tables)
    raws = {tc.inputs["s"].raw for tc in rep.test_cases}
    assert b"" in raws  # the falsy garden value drives the false branch
    assert rep.branch_covered == 2


def test_bound_exceeded_path():
    src = """
    int main() {
      int n;
      symbolic n;
      int i = 0;
      while (i < 100) {
        i = i + 1;
      }
      return n;
    }
    """
    p = typecheck(parse(src))
    rep = explore(p, ExploreConfig(mode=MODE_INDEXED, unroll=8))
    assert [tc.verdict for tc in rep.test_cases] == ["bound-exceeded"]
    assert replay(p, rep.test_cases[0], unroll=8).ok


OPERATOR_ASSERTS = ("-a == 0 - 7", "a != 3", "a <= 7", "a > 6", "!(a >= 8)",
                    "false || true")


@pytest.mark.parametrize("negated", [None, *range(len(OPERATOR_ASSERTS))])
def test_operators_agree_across_engines(negated):
    # unary minus on a variable and the ordering and || operators, in both
    # engines; negating any one assert makes both fail it
    conds = [f"!({c})" if i == negated else c for i, c in enumerate(OPERATOR_ASSERTS)]
    asserts = " ".join(f"assert({c});" for c in conds)
    p = typecheck(parse(f"int main() {{ int a = 7; {asserts} return a; }}"))
    want = "ok" if negated is None else "assertion-failure"
    assert interpret(p).verdict == want
    rep = explore(p, ExploreConfig(mode=MODE_INDEXED))
    assert rep.paths == 1
    assert [tc.verdict for tc in rep.test_cases] == [want]


def test_state_limit_truncates_exploration():
    src = """
    int main() {
      int a;
      int b;
      symbolic a;
      symbolic b;
      if (a == 1) { return 1; }
      if (b == 2) { return 2; }
      return 0;
    }
    """
    p = typecheck(parse(src))
    full = explore(p, ExploreConfig(mode=MODE_INDEXED))
    assert (full.truncated, full.paths) == (False, 3)
    cut = explore(p, ExploreConfig(mode=MODE_INDEXED, max_states=2))
    assert cut.truncated
    assert cut.paths == 1
    assert len(cut.test_cases) == 1


def test_unsupported_arithmetic_abandons_without_testcase():
    src = "int main(){ int n; symbolic n; int m = n + 1; return m; }"
    p = typecheck(parse(src))
    for runner, mode in ((explore, MODE_INDEXED), (explore_baseline, MODE_ABANDON)):
        rep = runner(p, ExploreConfig(mode=mode))
        assert rep.escaped_paths == 1
        assert rep.test_cases == ()


@pytest.mark.parametrize("use", [
    "return -r;",
    "return r + 1;",
    "int x; symbolic x; if (r == x) { return 1; } return 1;",
    'str t = substr("ab", r, 1); return 1;',
])
def test_consuming_a_bot_result_escapes(use):
    # n = 2 is outside the int pool {1}, so every strncmp row is BOT and r is
    # BOT: unary minus, arithmetic, a symbolic comparison and an unindexed
    # builtin must each consume it as the interpreter does
    src = ('int main() { str s; symbolic s; int n = 1 + 1; '
           f'int r = strncmp(s, "zz", n); {use} }}')
    _, res, gardens, tables = indexed_setup(src, {"strncmp"}, k=0)
    rep = run_indexed(res, gardens, tables)
    assert rep.paths == 1
    assert [tc.verdict for tc in rep.test_cases] == ["escaped-garden"]
    for tc in rep.test_cases:
        assert replay(res.program, tc, gardens=gardens, tables=tables).ok


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_baseline_abandon_covers_nothing_past_the_operator():
    p = typecheck(parse(FIG4A_SOURCE))
    rep = explore_baseline(p, ExploreConfig(mode=MODE_ABANDON))
    assert rep.branch_covered == 0
    assert rep.escaped_paths == 1
    assert rep.test_cases == ()


def test_baseline_concretize_takes_the_default_path():
    p = typecheck(parse(FIG4A_SOURCE))
    rep = explore_baseline(p, ExploreConfig(mode=MODE_CONCRETIZE))
    assert rep.paths == 1
    tc = rep.test_cases[0]
    assert tc.inputs["s1"] == mk_str(b"")
    assert replay(p, tc).ok


def test_baseline_concretize_pins_finite_variables():
    # ordering on a symbolic int is outside equality theory: the concretize
    # policy pins the variable to its current model value and continues
    src = """
    int main() {
      int n;
      symbolic n;
      if (n == 3) {
        return 2;
      }
      int m = n + 1;
      return m;
    }
    """
    p = typecheck(parse(src))
    rep = explore_baseline(p, ExploreConfig(mode=MODE_CONCRETIZE))
    verdicts = {tc.inputs["n"].raw: tc.verdict for tc in rep.test_cases}
    assert verdicts == {3: "ok", 0: "ok"}  # the pin respects n != 3
    for tc in rep.test_cases:
        assert replay(p, tc).ok


def test_symbolic_scoping_is_function_local():
    # two functions may declare the same name with different types; the
    # symbolic marker binds against the enclosing function's declaration
    src = """
    int helper(int unused) {
      str n;
      return 1;
    }

    int main() {
      int n;
      symbolic n;
      if (n == 250) {
        return helper(n);
      }
      return 0;
    }
    """
    p = typecheck(parse(src))
    rep = explore_baseline(p, ExploreConfig(mode=MODE_ABANDON))
    raws = sorted(tc.inputs["n"].raw for tc in rep.test_cases)
    assert raws == [0, 250]
    for tc in rep.test_cases:
        assert replay(p, tc).ok


def test_symbolic_declared_in_nested_blocks():
    # symbolic variables declared inside an if body and a while body get
    # their declared type like top-level ones, in exploration and in replay
    src = """
    int main() {
      int n = 0;
      str a;
      symbolic a;
      if (strcmp(a, "go") == 0) {
        str b;
        symbolic b;
        if (strcmp(b, "x") == 0) { return 1; }
      }
      while (n < 1) {
        str c;
        symbolic c;
        n = n + 1;
        if (strcmp(c, "y") == 0) { return 2; }
      }
      return 0;
    }
    """
    _, res, gardens, tables = indexed_setup(src, {"strcmp"}, k=0)
    rep = run_indexed(res, gardens, tables)
    assert rep.branch_covered == rep.branch_total
    names = set()
    for tc in rep.test_cases:
        names |= set(tc.inputs)
        assert replay(res.program, tc, gardens=gardens, tables=tables).ok
    assert names == {"a", "b", "c"}


def test_bot_propagation_never_loses_coverage_on_corpus():
    # deferring escapes can only lengthen paths: branch coverage is monotone
    for name, f_plus in (("substring_loop", {"substr", "strcmp"}),
                         ("greeting_boundary", {"strcat", "strstr"}),
                         ("needle_chain", {"strstr"})):
        src = open(corpus_path(name)).read()
        _, res, gardens, tables = indexed_setup(src, f_plus, k=1)
        default = run_indexed(res, gardens, tables)
        prop = run_indexed(res, gardens, tables, bot_propagate=True)
        assert prop.branch_covered >= default.branch_covered, name


def test_vendor_bug_only_in_indexed_mode():
    src = open(corpus_path("vendor_check")).read()
    p, res, gardens, tables = indexed_setup(src, {"strncmp"})
    rep = run_indexed(res, gardens, tables)
    failures = [tc for tc in rep.test_cases if tc.verdict == "assertion-failure"]
    assert failures
    for mode in (MODE_ABANDON, MODE_CONCRETIZE):
        base = explore_baseline(p, ExploreConfig(mode=mode))
        assert all(tc.verdict != "assertion-failure" for tc in base.test_cases)


SCALARS_SOURCE = """
int main() {
  bool b;
  int n;
  symbolic b;
  symbolic n;
  int r = 0;
  if (b) { r = r + 1; }
  if (n) { r = r + 2; }
  if (b == true) { r = r + 4; }
  if (n == 300) { r = r + 8; }
  return r;
}
"""


@pytest.mark.parametrize("mode", [MODE_INDEXED, MODE_ABANDON, MODE_CONCRETIZE])
def test_symbolic_bool_and_int_scalars(mode):
    # a bool ranges over {0, 1} and an int over [0, int_domain): truthiness
    # forks on the constant 0, b == true re-reads b's fork, and 300 lies
    # outside the 256-value int domain, so n == 300 never forks
    p = typecheck(parse(SCALARS_SOURCE))
    runner = explore if mode == MODE_INDEXED else explore_baseline
    rep = runner(p, ExploreConfig(mode=mode))
    assert rep.paths == 4
    assert (rep.branch_covered, rep.branch_total) == (7, 8)
    assert [(tc.inputs["b"].raw, tc.inputs["n"].raw) for tc in rep.test_cases] == \
        [(True, 1), (True, 0), (False, 1), (False, 0)]
    assert solver.dump_query(rep.test_cases[0].pc) == "b != 0\nn != 0\nb = 1\n"
    for tc in rep.test_cases:
        assert tc.verdict == "ok"
        assert replay(p, tc).ok


def test_integer_program_identical_across_engines():
    src = open(corpus_path("int_maze")).read()
    p = typecheck(parse(src))
    a = explore(p, ExploreConfig(mode=MODE_INDEXED))
    b = explore_baseline(p, ExploreConfig(mode=MODE_ABANDON))
    assert [t.verdict for t in a.test_cases] == [t.verdict for t in b.test_cases]
    assert [t.inputs for t in a.test_cases] == [t.inputs for t in b.test_cases]
    assert (a.branch_covered, a.instr_covered) == (b.branch_covered, b.instr_covered)


# ---------------------------------------------------------------------------
# soundness properties
# ---------------------------------------------------------------------------


def test_every_testcase_replays():
    cases = [
        (FIG4A_SOURCE, {"strstr"}, None),
        (FIG4A_SOURCE, {"strstr"}, FIG5_GARDEN_TEXT),
        (open(corpus_path("vendor_check")).read(), {"strncmp"}, None),
        (open(corpus_path("substring_loop")).read(), {"substr", "strcmp"}, None),
    ]
    for src, f_plus, garden in cases:
        _, res, gardens, tables = indexed_setup(src, f_plus, garden_text=garden, k=1)
        rep = run_indexed(res, gardens, tables)
        assert rep.test_cases
        for tc in rep.test_cases:
            r = replay(res.program, tc, gardens=gardens, tables=tables)
            assert r.ok, (src[:30], tc.verdict, r)


def test_fork_partition_covers_the_domain():
    # over a small garden, every input assignment satisfies exactly one
    # emitted path condition: the forks partition the space
    src = open(corpus_path("vendor_check")).read()
    _, res, gardens, tables = indexed_setup(src, {"strncmp"})
    rep = run_indexed(res, gardens, tables)
    n = len(gardens[STR])
    assert n <= 8
    for v, w in itertools.product(range(n), repeat=2):
        asg = {"vendor": v, "nv11vendor": w}
        matches = [tc for tc in rep.test_cases if solver.satisfies(tc.pc, asg)]
        assert len(matches) == 1, (v, w, matches)


def test_under_approximation_against_original():
    # indexed paths correspond to real paths of the original program: replay
    # the unindexed inputs on the original and compare
    from indexify.lang.interp import interpret

    src = open(corpus_path("needle_chain")).read()
    p, res, gardens, tables = indexed_setup(src, {"strstr"})
    rep = run_indexed(res, gardens, tables)
    for tc in rep.test_cases:
        orig = interpret(p, tc.inputs)
        if tc.verdict != "escaped-garden":
            assert orig.verdict == tc.verdict
            assert orig.covered_branches == tc.covered_branches
        else:
            assert tc.covered_branches <= orig.covered_branches


def test_deterministic_reports():
    src = open(corpus_path("flag_dispatch")).read()
    _, res, gardens, tables = indexed_setup(src, {"strcmp"}, k=1)
    a = run_indexed(res, gardens, tables)
    b = run_indexed(res, gardens, tables)
    assert a.test_cases == b.test_cases
    assert (a.states, a.paths, a.solver_queries, a.atoms_sent) == \
        (b.states, b.paths, b.solver_queries, b.atoms_sent)


def test_mixed_raw_result_with_symbolic_int():
    src = open(corpus_path("count_gate")).read()
    _, res, gardens, tables = indexed_setup(src, {"strlen", "strncmp"}, k=1)
    rep = run_indexed(res, gardens, tables)
    assert rep.branch_covered == 4
    two = [tc for tc in rep.test_cases if tc.inputs["word"].raw == b"abcdef"
           and tc.inputs["limit"].raw == 6]
    assert two and two[0].verdict == "ok"
    for tc in rep.test_cases:
        assert replay(res.program, tc, gardens=gardens, tables=tables).ok


def test_symbolic_int_at_an_int_pool_dimension():
    # n and m are both free at substr's int dimensions over the pool {0, 1, 2}:
    # n is enumerated with one more option for every int outside the pool,
    # whose lookup is BOT, and m is the free dimension of the row fork
    src = 'int main() { str s = "abc"; int n; symbolic n; int m; symbolic m; ' \
          'str t = substr(s, n, m); if (strlen(t) == 2) { return 1; } return 0; }'
    _, res, gardens, tables = indexed_setup(src, {"substr", "strlen"}, k=0)
    assert [d.pool for d in tables["i_substr"].dims[1:]] == [(0, 1, 2)] * 2
    rep = run_indexed(res, gardens, tables)
    assert (rep.paths, rep.escaped_paths) == (7, 4)
    assert (rep.branch_covered, rep.branch_total) == (1, 2)
    out_of_pool = [tc for tc in rep.test_cases if tc.inputs["n"].raw not in (0, 1, 2)]
    assert [tc.inputs["n"].raw for tc in out_of_pool] == [3]
    assert out_of_pool[0].verdict == "escaped-garden"
    for tc in rep.test_cases:
        assert replay(res.program, tc, gardens=gardens, tables=tables).ok


def test_unindexing_a_symbolic_string_enumerates_its_garden():
    # strlen is not in F+, so the rewriter hands it unidx(s): the explorer
    # must force s to each feasible garden value, here {"", "ab"}
    src = 'int main() { str s; symbolic s; int r = 0; ' \
          'if (strcmp(s, "ab") == 0) { r = 1; } ' \
          'if (strlen(s) == 2) { r = r + 2; } return r; }'
    _, res, gardens, tables = indexed_setup(src, {"strcmp"}, k=1)
    assert [v.raw for v in gardens[STR].values()] == [b"", b"ab"]
    assert "strlen(unidx(s))" in print_program(res.program)
    rep = run_indexed(res, gardens, tables)
    assert rep.paths == 2
    assert (rep.branch_covered, rep.branch_total) == (4, 4)
    assert sorted(tc.inputs["s"].raw for tc in rep.test_cases) == [b"", b"ab"]
    for tc in rep.test_cases:
        assert replay(res.program, tc, gardens=gardens, tables=tables).ok


@pytest.mark.parametrize("unknown_at", [1, 2])
def test_solver_unknown_drops_one_option_and_exploration_goes_on(monkeypatch, unknown_at):
    # x != y is a var-var disequality, which only solver.solve decides: its
    # first call checks that option, its second gives that path's model
    src = "int main(){ int x; symbolic x; int y; symbolic y; " \
          "if (x == y) { return 1; } return 0; }"
    real, calls = solver.solve, []

    def flaky(pc, variables=(), **kw):
        calls.append(pc)
        if len(calls) == unknown_at:
            return solver.SolveResult(solver.UNKNOWN)
        return real(pc, variables, **kw)

    monkeypatch.setattr(solver, "solve", flaky)
    rep = explore(typecheck(parse(src)), ExploreConfig(mode=MODE_INDEXED, int_domain=4))
    assert rep.solver_unknowns == 1
    assert "unknowns=1" in human_summary(rep)
    assert [tc.inputs["x"].raw == tc.inputs["y"].raw for tc in rep.test_cases] == [True]
    # an undecided option is dropped; an undecided model keeps the path
    assert rep.paths == (1 if unknown_at == 1 else 2)


def test_replay_builds_no_options(monkeypatch):
    # the vars_deep benchmark shape: four symbolic strings, one strcmp each,
    # so a table fork at each of the 1 + 4 + 16 + 64 inner tree nodes
    lines = ["int main() {"]
    for i in range(4):
        lines += [f"  str s{i};", f"  symbolic s{i};"]
    lines.append("  int hits = 0;")
    for i, lit in enumerate("qrsq"):
        lines += [f'  if (strcmp(s{i}, "{lit}") == 0) {{', "    hits = hits + 1;", "  }"]
    lines += ["  assert(hits != 4);", "  return hits;", "}"]
    cfg = CliConfig(input_path="vars.mi", indexed_types=(STR,),
                    f_plus_names=("strcmp",), k=0)
    pipe = rewrite_pipeline(build_pipeline(parse("\n".join(lines)), cfg), cfg)
    counts = {"lookup": 0, "solve": 0}
    real_lookup, real_solve = IndexedOperatorTable.lookup, solver.solve

    def lookup(table, key):
        counts["lookup"] += 1
        return real_lookup(table, key)

    def solve(*args, **kw):
        counts["solve"] += 1
        return real_solve(*args, **kw)

    monkeypatch.setattr(IndexedOperatorTable, "lookup", lookup)
    monkeypatch.setattr(solver, "solve", solve)
    rep = run_mode(cfg, pipe, MODE_INDEXED)
    assert rep.paths == 4 ** 4
    assert len(rep.iot_fork_sizes) == 85
    assert counts["lookup"] == len(pipe.gardens[STR]) * len(rep.iot_fork_sizes) == 340
    assert counts["solve"] == 0  # x == c and x != c atoms only
