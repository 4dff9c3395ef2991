import itertools
import time

import pytest

from indexify import solver
from indexify.bench import CORPUS, corpus_path, load_entry
from indexify.check import check_case, check_runs
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
from indexify.lang.ast import BOT, FLOAT, STR, mk_str
from indexify.lang.interp import interpret
from indexify.lang.parser import parse
from indexify.lang.printer import print_program
from indexify.lang.typecheck import typecheck
from indexify.rewrite import RewriteConfig, emit_indexed_source, normalize
from indexify.symex import (
    MODE_ABANDON,
    MODE_CONCRETIZE,
    MODE_INDEXED,
    Engine,
    ExploreConfig,
    SymexError,
    explore,
    explore_baseline,
    replay,
)

from conftest import FIG4A_SOURCE, FIG5_GARDEN_TEXT, build_cfg, recording


def indexed_setup(source, f_plus, *, garden_text=None, k=3, maxlen=8):
    p = typecheck(parse(source))
    cfg = build_cfg(p, f_plus, k=k, maxlen=maxlen,
                    gardens=None if garden_text is None else load_gardens(garden_text))
    return p, normalize(typecheck(parse(source)), cfg), cfg.gardens, cfg.tables


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


GARDEN_MEMO_SHAPE = """
int main() {
  str s;
  symbolic s;
  int r = 0;
  str t = strcat(s, "ab");
  if (strcmp(t, "ab") == 0) {
    r = 1;
  }
  if (strstr(s, "bc")) {
    r = r + 2;
  }
  if (strncmp(s, "ca", 2) == 0) {
    r = r + 3;
  }
  str u = substr(s, 2, 4);
  if (strlen(u) == 4) {
    assert(r != 5);
  }
  return r;
}
"""


def test_exploration_computes_only_the_cells_it_reads(monkeypatch):
    # the garden_memo benchmark's shape, smaller: all six string operators
    # over a 43-value garden and the int pool 0..5
    p = typecheck(parse(GARDEN_MEMO_SHAPE))
    builders = (REGISTRY["strcat"], REGISTRY["strstr"])
    gardens = build_garden(harvest_seeds(p, {STR}),
                           BuilderConfig(builders=builders, k=2, max_str_len=6),
                           types={STR})
    ops = {"strcat", "strcmp", "strlen", "strncmp", "strstr", "substr"}
    calls = []
    for name in ops:
        monkeypatch.setitem(REGISTRY, name, recording(REGISTRY[name], calls))
    tables = memoise_all(gardens, ops, harvest_int_pool(p))
    assert calls == []
    res = normalize(typecheck(parse(GARDEN_MEMO_SHAPE)),
                    RewriteConfig({STR}, ops, gardens, tables))
    # (table, length, its fn calls) of each line and each lookup; cells() calls
    lines, lookups, whole = [], [], []
    line, lookup, cells = (IndexedOperatorTable.line, IndexedOperatorTable.lookup,
                           IndexedOperatorTable.cells)

    def recorded(table, head, tail):
        made = len(calls)
        out = line(table, head, tail)
        lines.append((table.indexed_name, len(out), len(calls) - made))
        return out

    def looked_up(table, key):
        made = len(calls)
        out = lookup(table, key)
        lookups.append((table.indexed_name, 1, len(calls) - made))
        return out

    def read_whole(table):
        whole.append(table.indexed_name)
        return cells(table)

    monkeypatch.setattr(IndexedOperatorTable, "line", recorded)
    monkeypatch.setattr(IndexedOperatorTable, "lookup", looked_up)
    monkeypatch.setattr(IndexedOperatorTable, "cells", read_whole)
    rep = run_indexed(res, gardens, tables)
    assert whole == []
    rows = sum(t.size for t in tables.values())
    # atoms_generated counts the whole table at each forking call, not the
    # cells computed
    assert (rep.paths, rep.atoms_generated) == (14, 3724)
    # every fn call belongs to one line, of strcat's row fork or of a fused
    # site, or to the lookup of a call with no free argument (strstr's
    # truth and substr, each of a pinned s), one call per cell; and the
    # cells computed are few
    assert all(length == made for _, length, made in lines + lookups)
    assert sorted(name for name, *_ in lines) == [
        "i_strcat", "i_strcmp", "i_strlen", "i_strncmp"]
    assert sorted(name for name, *_ in lookups) == ["i_strstr"] * 13 + ["i_substr"] * 13
    assert len(calls) == sum(length for _, length, _ in lines + lookups) == 4 * 43 + 26
    assert len(calls) < rows / 50
    assert rows == sum(len(t.rows) for t in tables.values()) == 18232


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


def test_concretization_runs_once_per_tree_node():
    # n + 1 pins n with one model query; the fork on k that follows copies
    # the pinned state, so the second path does not ask for the model again
    src = ("int main() { int n; symbolic n; int m = n + 1; int k; symbolic k; "
           "if (k == 2) { return 1; } return m; }")
    p = typecheck(parse(src))
    rep = explore_baseline(p, ExploreConfig(mode=MODE_CONCRETIZE))
    assert [(tc.inputs["n"].raw, tc.inputs["k"].raw) for tc in rep.test_cases] == \
        [(0, 2), (0, 0)]
    # the pin, the two sides of k == 2 and one model per path
    assert (rep.states, rep.paths, rep.solver_queries) == (3, 2, 5)
    for tc in rep.test_cases:
        assert replay(p, tc).ok


def test_concretization_binds_every_copy_of_the_value():
    # x + x binds n once, and the binding reaches main's variable and the
    # temporary that holds n for the outer +, so no read asks for n's model
    # again: the two sides of n == 3, the pin and one model per path
    src = ("int twice(int x) { return x + x; } "
           "int main() { int n; symbolic n; if (n == 3) { return 2; } "
           "return n + twice(n); }")
    p = typecheck(parse(src))
    rep = explore_baseline(p, ExploreConfig(mode=MODE_CONCRETIZE))
    assert (rep.states, rep.paths, rep.solver_queries) == (3, 2, 5)
    assert [tc.inputs["n"].raw for tc in rep.test_cases] == [3, 0]
    for tc in rep.test_cases:
        assert replay(p, tc).ok


def test_a_bound_input_keeps_its_value_when_made_symbolic_again():
    # m + n binds n in the first iteration; the second `symbolic n` reads
    # that value, as the interpreter reads the one input, so n == 7 does not
    # fork again
    src = ("int main() { int n; int i = 0; int m = 0; while (i < 2) { "
           "symbolic n; if (n == 7) { return 1; } m = m + n; i = i + 1; } "
           "return m; }")
    p = typecheck(parse(src))
    rep = explore_baseline(p, ExploreConfig(mode=MODE_CONCRETIZE))
    assert (rep.states, rep.paths, rep.solver_queries) == (3, 2, 5)
    assert [(tc.inputs["n"].raw, tc.verdict) for tc in rep.test_cases] == \
        [(7, "ok"), (0, "ok")]
    for tc in rep.test_cases:
        assert replay(p, tc).ok


# main and g, which main calls twice, make t symbolic: one input, which
# every `symbolic t` of a run binds to one value, so each mode forks on it
# as on one variable.  An int t takes both sides of t == 3 in every mode;
# abandon mode abandons at the first strcmp on a str t, and concretize binds
# it to ""
@pytest.mark.parametrize("decl, cond, expected", [
    ("int", "t == 3", {MODE_INDEXED: (4, [3, 0]), MODE_ABANDON: (4, [3, 0]),
                       MODE_CONCRETIZE: (4, [3, 0])}),
    ("str", 'strcmp(t, "ab") == 0',
     {MODE_INDEXED: (4, [b"", b"ab", b"abab", b"ababab", b"abababab"]),
      MODE_ABANDON: (0, []), MODE_CONCRETIZE: (2, [b""])}),
], ids=["int", "str"])
def test_an_input_made_symbolic_in_two_functions_is_one_input(decl, cond, expected):
    src = (f"int g(int n) {{ {decl} t; symbolic t; if ({cond}) {{ return n + 1; }} return n; }} "
           f"int main() {{ {decl} t; symbolic t; int a = g(0); int b = g(a); "
           f"if ({cond}) {{ return a + b; }} return a; }}")
    cfg = CliConfig("shared.mi")
    for mode, (covered, inputs) in expected.items():
        pipe = build_pipeline(parse(src), cfg)
        rep = run_mode(cfg, pipe, mode)
        assert (rep.branch_covered, rep.branch_total) == (covered, 4)
        assert [tc.inputs["t"].raw for tc in rep.test_cases] == inputs
        assert check_runs(cfg, pipe, {mode: rep}) == []


@pytest.mark.parametrize("mode", [MODE_INDEXED, MODE_ABANDON, MODE_CONCRETIZE])
@pytest.mark.parametrize("use", [
    "if (s) { return 1; }",
    "if (f) { return 1; }",
    "int m = -n; if (m == 0) { return 1; }",
])
def test_opaque_truth_and_symbolic_negation(mode, use):
    # a str or float that the run does not index has no finite domain, and
    # unary minus lies outside equality theory: each abandons the path, or
    # in concretize mode binds s to "", f to 0.0 and n to its model value,
    # which respects n != 3
    src = ("int main() { str s; symbolic s; float f; symbolic f; int n; symbolic n; "
           f"if (n == 3) {{ return 2; }} {use} return 0; }}")
    p = typecheck(parse(src))
    runner = explore if mode == MODE_INDEXED else explore_baseline
    rep = runner(p, ExploreConfig(mode=mode))
    assert rep.paths == 2
    concretized = mode == MODE_CONCRETIZE
    assert rep.escaped_paths == (0 if concretized else 1)
    assert [tc.inputs["n"].raw for tc in rep.test_cases] == ([3, 0] if concretized else [3])
    for tc in rep.test_cases:
        assert (tc.inputs["s"].raw, tc.inputs["f"].raw, tc.verdict) == (b"", 0.0, "ok")
        assert replay(p, tc).ok


def test_every_builtin_takes_its_str_or_float_parameters_first():
    # indexed mode forces a builtin's operands left to right and abandons at
    # an opaque (str or float) one.  With no such parameter after one of
    # another type, no operand forks before an opaque one ends the path
    for name, op in REGISTRY.items():
        types = op.signature.arg_types
        late = [t for i, t in enumerate(types)
                if t in (STR, FLOAT) and any(u != t for u in types[:i])]
        assert name == "puts" or not late, name


def test_an_opaque_builtin_operand_abandons_before_a_finite_one_forks():
    # --type float leaves s opaque: substr abandons at s before the symbolic
    # int n, its next operand, forks or asks the solver
    src = ("int main() { str s; symbolic s; int n; symbolic n; "
           "str t = substr(s, n, 1); return strlen(t); }")
    cfg = CliConfig(input_path="t.mi", indexed_types=(FLOAT,))
    rep = run_mode(cfg, rewrite_pipeline(build_pipeline(parse(src), cfg), cfg), MODE_INDEXED)
    assert (rep.paths, rep.states, rep.escaped_paths, rep.solver_queries) == (1, 1, 1, 0)
    assert rep.test_cases == ()


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
    assert (rep.states, rep.atoms_generated, rep.solver_queries) == (11, 14, 18)
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


def test_fork_partition_covers_the_domain(monkeypatch):
    # over a small garden, every input assignment satisfies exactly one
    # emitted path condition: the forks partition the space.  A path's
    # condition is its state's PathState, recorded as the engine asks it for
    # the path's test case.
    src = open(corpus_path("vendor_check")).read()
    _, res, gardens, tables = indexed_setup(src, {"strncmp"})
    conditions = []
    model = Engine.model

    def recording_model(self, st, variables):
        conditions.append(st.facts)
        return model(self, st, variables)

    monkeypatch.setattr(Engine, "model", recording_model)
    rep = run_indexed(res, gardens, tables)
    assert len(conditions) == len(rep.test_cases)
    n = len(gardens[STR])
    assert n <= 8
    vendor, nv11vendor = solver.FiniteVar("vendor", n), solver.FiniteVar("nv11vendor", n)
    for v, w in itertools.product(range(n), repeat=2):
        pins = (solver.var_eq_const(vendor, v), solver.var_eq_const(nv11vendor, w))
        matches = [i for i, facts in enumerate(conditions)
                   if facts.extend(pins).status == solver.SAT]
        assert len(matches) == 1, (v, w, matches)


@pytest.mark.parametrize("name", ["needle_chain", "substring_loop", "greeting_boundary"])
def test_under_approximation_against_original(name):
    # indexed paths correspond to real paths of the original program: each
    # test case replays and agrees with the original run on its inputs, and
    # an escaped one covers only branches the original run covers too.  At
    # their corpus configurations substring_loop and greeting_boundary have
    # escaped test cases; needle_chain has none.
    cfg, pipe = load_entry(next(e for e in CORPUS if e.name == name))
    rep = run_mode(cfg, pipe, MODE_INDEXED)
    escaped = 0
    for tc in rep.test_cases:
        if tc.verdict != "escaped-garden":
            assert check_case(tc, pipe.indexed.program, pipe.program,
                              gardens=pipe.gardens, tables=pipe.tables) is None
        else:
            escaped += 1
            assert tc.covered_branches <= interpret(pipe.program, tc.inputs).covered_branches
    assert escaped > 0 or name == "needle_chain"


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
    # x != y is a var-var disequality, which the path condition hands to
    # solver.search: its first call checks that option, its second gives that
    # path's model
    src = "int main(){ int x; symbolic x; int y; symbolic y; " \
          "if (x == y) { return 1; } return 0; }"
    real, calls = solver.search, []

    def flaky(classes, pairs, *args, **kw):
        calls.append(pairs)
        if len(calls) == unknown_at:
            return solver.SolveResult(solver.UNKNOWN)
        return real(classes, pairs, *args, **kw)

    monkeypatch.setattr(solver, "search", flaky)
    rep = explore(typecheck(parse(src)), ExploreConfig(mode=MODE_INDEXED, int_domain=4))
    assert len(calls) == unknown_at
    assert rep.solver_unknowns == 1
    assert "unknowns=1" in human_summary(rep)
    assert [tc.inputs["x"].raw == tc.inputs["y"].raw for tc in rep.test_cases] == [True]
    # an undecided option is dropped; an undecided model keeps the path
    assert rep.paths == (1 if unknown_at == 1 else 2)


@pytest.mark.parametrize("int_domain", [0, -3])
def test_an_int_domain_below_one_is_rejected(int_domain):
    # an empty domain has no value for a symbolic int: explore would emit a
    # test case with n = 0, outside it
    with pytest.raises(SymexError, match=f"int_domain must be at least 1, not {int_domain}"):
        ExploreConfig(mode=MODE_INDEXED, int_domain=int_domain)
    rep = explore(typecheck(parse("int main() { int n; symbolic n; return 1; }")),
                  ExploreConfig(mode=MODE_INDEXED, int_domain=1))
    assert [tc.inputs["n"].raw for tc in rep.test_cases] == [0]


def _vars_pipeline():
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
    return cfg, rewrite_pipeline(build_pipeline(parse("\n".join(lines)), cfg), cfg)


def test_each_tree_node_builds_its_options_once(monkeypatch):
    # a row fork's options are built once per call site and arguments, and
    # every later node reuses them: each of the 4 strcmp sites reads one
    # line, its 4 garden values, though 85 nodes fork on rows; no cell is
    # looked up on its own
    cfg, pipe = _vars_pipeline()
    counts = {"lookup": 0, "line": 0, "search": 0}
    real_lookup, real_line = IndexedOperatorTable.lookup, IndexedOperatorTable.line
    real_search = solver.search

    def lookup(table, key):
        counts["lookup"] += 1
        return real_lookup(table, key)

    def line(table, head, tail):
        counts["line"] += 1
        return real_line(table, head, tail)

    def search(*args, **kw):
        counts["search"] += 1
        return real_search(*args, **kw)

    monkeypatch.setattr(IndexedOperatorTable, "lookup", lookup)
    monkeypatch.setattr(IndexedOperatorTable, "line", line)
    monkeypatch.setattr(solver, "search", search)
    rep = run_mode(cfg, pipe, MODE_INDEXED)
    assert rep.paths == 4 ** 4
    assert len(rep.iot_fork_sizes) == 85
    assert len(pipe.gardens[STR]) == 4
    assert (counts["line"], counts["lookup"]) == (4, 0)
    assert counts["search"] == 0  # x == c and x != c atoms only


def test_one_call_site_forks_on_each_states_own_rows():
    # the branch on c leaves t "b" on one path and "a" on the other, so the
    # one i_strcat call forks twice with different concrete arguments: each
    # fork is over the rows its t leaves, plus the BOT successor, and
    # neither may reuse the other's options
    src = ('int main() { str s; symbolic s; int c; symbolic c; str t = "a"; '
           'if (c == 1) { t = "b"; } '
           'if (strcmp(strcat(s, t), "ab") == 0) { return 1; } return 0; }')
    cfg = CliConfig(input_path="key.mi", indexed_types=(STR,),
                    f_plus_names=("strcat", "strcmp"), k=0)
    pipe = rewrite_pipeline(build_pipeline(parse(src), cfg), cfg)
    garden, table = pipe.gardens[STR], pipe.tables["i_strcat"]
    assert [v.raw for v in garden.values()] == [b"", b"a", b"b", b"ab"]
    rep = run_mode(cfg, pipe, MODE_INDEXED)
    a, b = (garden.index_or_bot(mk_str(v)) for v in (b"a", b"b"))
    rows = {t: sum(table.lookup((i, t)) is not BOT for i in range(len(garden))) for t in (a, b)}
    # c == 1 is explored first, so t is "b" at the first fork
    assert rep.iot_fork_sizes == (rows[b] + 1, rows[a] + 1) == (3, 2)
    assert [(tc.inputs["s"].raw, tc.verdict) for tc in rep.test_cases] == [
        (b"", "ok"), (b"a", "ok"), (b"b", "escaped-garden"),
        (b"", "ok"), (b"a", "escaped-garden")]
    for tc in rep.test_cases:
        assert replay(pipe.indexed.program, tc, gardens=pipe.gardens, tables=pipe.tables).ok
    assert check_runs(cfg, pipe, {MODE_INDEXED: rep}) == []


def test_raw_result_table_miss_escapes_at_the_call():
    # strlen(s0) is outside strncmp's int pool for every garden value, so
    # each lookup misses.  A raw-result miss has no in-band value: it
    # escapes at the call, in memory as in the emitted source, instead of
    # returning BOT:int from main with verdict ok (the original program
    # returns 0, 0 and -1 here).  --bot-propagate keeps BOT flowing.
    src = 'int main() { str s0; symbolic s0; return strncmp("b", "ba", strlen(s0)); }'
    _, res, gardens, tables = indexed_setup(src, {"strncmp", "substr"}, k=0)
    rep = run_indexed(res, gardens, tables)
    assert sorted(tc.inputs["s0"].raw for tc in rep.test_cases) == [b"", b"b", b"ba"]
    assert [tc.verdict for tc in rep.test_cases] == ["escaped-garden"] * 3
    for tc in rep.test_cases:
        assert replay(res.program, tc, gardens=gardens, tables=tables).ok
    prop = run_indexed(res, gardens, tables, bot_propagate=True)
    assert [tc.verdict for tc in prop.test_cases] == ["ok"] * 3
    for tc in prop.test_cases:
        run = interpret(res.program, tc.inputs, gardens=gardens, tables=tables,
                        bot_propagate=True)
        assert (run.verdict, run.return_value.raw) == ("ok", BOT)


def test_each_tree_node_runs_its_indexed_call_once(monkeypatch):
    # states are forked by copy, so an indexed call runs once per node of
    # the decision tree: 1 + 4 + 16 + 64 = 85.  Re-running each of the 256
    # paths from main would run 256 x 4 = 1,024 calls
    cfg, pipe = _vars_pipeline()
    calls, real = [], Engine.op_table

    def op_table(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Engine, "op_table", op_table)
    rep = run_mode(cfg, pipe, MODE_INDEXED)
    assert (rep.paths, rep.states) == (256, 341)
    assert len(calls) == 85


def test_wallclock_budget_is_checked_inside_a_path():
    # a single path that does not end by itself: the deadline is checked at
    # the loop's back-edge and at every decision, not only between paths
    src = "int main() { int i = 0; while (i < 1000000000) { i = i + 1; } return i; }"
    p = typecheck(parse(src))
    t0 = time.monotonic()
    rep = explore(p, ExploreConfig(mode=MODE_INDEXED, unroll=10 ** 9, wallclock_s=0.05))
    assert time.monotonic() - t0 < 2.0
    assert rep.truncated
    assert (rep.paths, rep.test_cases) == (0, ())


def test_state_budget_is_checked_at_each_decision():
    # the budget is the number of states: a run stops at the first decision
    # made once the count has passed it, inside the path that makes it
    cfg, pipe = _vars_pipeline()
    full = run_mode(cfg, pipe, MODE_INDEXED)
    assert not full.truncated
    cut = explore(pipe.indexed.program, ExploreConfig(
        gardens=pipe.gardens, tables=pipe.tables, max_states=10))
    assert cut.truncated
    assert cut.states <= 10 + len(pipe.gardens[STR])
    # the first path forks 4 times, 4 states each: the fourth fork is refused
    assert (cut.paths, cut.test_cases) == (0, ())


def test_test_cases_share_one_branch_trace_per_distinct_trace():
    # 256 paths, but each of the 4 branches is taken or not: 16 traces
    cfg, pipe = _vars_pipeline()
    rep = run_mode(cfg, pipe, MODE_INDEXED)
    assert len(rep.test_cases) == 256
    traces = {tc.covered_branches for tc in rep.test_cases}
    assert len(traces) == len({id(tc.covered_branches) for tc in rep.test_cases}) == 16


def test_concretize_binds_an_unindexed_operand():
    # in an emitted program a builtin outside F+ reads unidx() of a symbolic
    # index.  Abandon ends that path; concretize binds the operand to the
    # garden value of the index's model value, and the index stays symbolic,
    # pinned to it
    src = ('int main(){ str s; symbolic s; if (strcmp(s, "ab") == 0) { return 1; } '
           'return strlen(s); }')
    _, res, gardens, _ = indexed_setup(src, {"strcmp"}, k=0)
    text = emit_indexed_source(res)
    assert "strlen(unidx(s))" in text
    emitted = typecheck(parse(text))
    abandon = explore_baseline(emitted, ExploreConfig(mode=MODE_ABANDON, gardens=gardens))
    assert (abandon.paths, abandon.escaped_paths, len(abandon.test_cases)) == (2, 1, 1)
    rep = explore_baseline(emitted, ExploreConfig(mode=MODE_CONCRETIZE, gardens=gardens))
    assert (rep.paths, rep.escaped_paths) == (2, 0)
    assert sorted(tc.inputs["s"].raw for tc in rep.test_cases) == [b"", b"ab"]
    for tc in rep.test_cases:
        assert replay(emitted, tc, gardens=gardens).ok
