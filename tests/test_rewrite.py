import random

import pytest

from indexify import rewrite
from indexify.bench import CORPUS, corpus_path, load_entry
from indexify.cli import CliConfig, build_pipeline, rewrite_pipeline, run_mode
from indexify.garden import build_garden, BuilderConfig, harvest_int_pool, harvest_seeds
from indexify.iot import REGISTRY, memoise_all
from indexify.lang.ast import BOT, FLOAT, STR, BotLiteral, Call, Decl, Literal, index_of, mk_int
from indexify.lang.interp import interpret
from indexify.lang.parser import parse
from indexify.lang.printer import print_program
from indexify.lang.typecheck import typecheck
from indexify.rewrite import (
    RewriteConfig,
    StaleRedex,
    apply_rule,
    confluence_probe,
    emit_indexed_source,
    find_redexes,
    normalize,
)
from indexify.symex import MODE_INDEXED

from conftest import FIG4A_SOURCE


def fig5_cfg(fig5_gardens):
    tables = memoise_all(fig5_gardens, {"strstr"})
    return RewriteConfig({STR}, {"strstr"}, fig5_gardens, tables)


def pipeline_cfg(source, f_plus, k=2, maxlen=8):
    p = typecheck(parse(source))
    seeds = harvest_seeds(p, {STR})
    builders = tuple(REGISTRY[n].signature for n in sorted(f_plus)
                     if all(t is STR for t in REGISTRY[n].signature.arg_types)
                     and REGISTRY[n].signature.return_type is STR)
    gardens = build_garden(seeds, BuilderConfig(builders=builders, k=k,
                                                max_str_len=maxlen), types={STR})
    tables = memoise_all(gardens, f_plus, harvest_int_pool(p))
    return p, RewriteConfig({STR}, set(f_plus), gardens, tables)


# ---------------------------------------------------------------------------
# redex discovery
# ---------------------------------------------------------------------------


def test_fig4a_redexes(fig4a_program, fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    redexes = find_redexes(fig4a_program, cfg)
    rules = [r.rule for r in redexes]
    assert rules.count("R3") == 2  # the two str declarations
    assert "R4" in rules  # "bar" is in the figure's garden
    assert "R6" in rules  # strstr is in F+
    assert "R8" in rules  # puts consumes an indexed variable
    assert "R9" in rules  # strcat's result flows into an indexed variable


def test_normal_form_has_no_redexes(fig4a_program, fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    res = normalize(fig4a_program, cfg)
    assert find_redexes(res.program, cfg) == []


def test_guard_disjointness_along_random_rewrites(fig5_gardens):
    # no site ever matches two rules at once; sequencing only orders rules
    # across steps, never stacks them on one site
    rng = random.Random(99)
    p = typecheck(parse(FIG4A_SOURCE))
    cfg = fig5_cfg(fig5_gardens)
    cur = p
    while True:
        redexes = find_redexes(cur, cfg)
        sites = [r.path for r in redexes]
        assert len(sites) == len(set(sites))
        if not redexes:
            break
        cur = apply_rule(cur, rng.choice(redexes), cfg)


# ---------------------------------------------------------------------------
# individual rules
# ---------------------------------------------------------------------------


def test_r9_wraps_unindexed_result(fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    p = typecheck(parse('int main(){ str s2; s2 = strcat("a", "foo"); return 0; }'))
    r9 = [r for r in find_redexes(p, cfg) if r.rule == "R9"]
    assert len(r9) == 1
    out = apply_rule(p, r9[0], cfg)
    rhs = out.main.body[1].value
    assert isinstance(rhs, Call) and rhs.name == "idx"
    assert rhs.args[0].name == "strcat"
    # the literals inside the unindexed call stay raw
    assert rhs.args[0].args[0] == Literal(STR, b"a")


def test_r8_unindexes_argument(fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    p = typecheck(parse("int main(){ str s1; symbolic s1; puts(s1); return 0; }"))
    r8 = [r for r in find_redexes(p, cfg) if r.rule == "R8"]
    assert len(r8) == 1
    out = apply_rule(p, r8[0], cfg)
    call = out.main.body[2].expr
    assert call.args[0] == Call("unidx", [_var("s1")])


def _var(name):
    from indexify.lang.ast import Var

    return Var(name)


def test_r6_then_r4_on_indexed_call(fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    p = typecheck(parse('int main(){ str s1; symbolic s1; if (strstr(s1, "bar")) { return 1; } return 0; }'))
    res = normalize(p, cfg)
    cond = res.program.main.body[2].cond
    assert cond.name == "i_strstr"
    assert cond.args[1] == Literal(index_of(STR), 2)  # index of "bar" in the garden


def test_r5_replaces_out_of_garden_literal(fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    p = typecheck(parse('int main(){ str s1; symbolic s1; if (strstr(s1, "zzz")) { return 1; } return 0; }'))
    r5 = [r for r in find_redexes(p, cfg) if r.rule == "R5"]
    assert len(r5) == 1
    res = normalize(p, cfg)
    cond = res.program.main.body[2].cond
    assert isinstance(cond.args[1], BotLiteral)


def test_r5_dead_when_seeds_are_harvested():
    p, cfg = pipeline_cfg(FIG4A_SOURCE, {"strstr"})
    cur = p
    while True:
        redexes = find_redexes(cur, cfg)
        assert all(r.rule != "R5" for r in redexes)
        if not redexes:
            break
        cur = apply_rule(cur, redexes[0], cfg)


def test_r10_on_synthetic_partial_rewrite(fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    # an indexed-result call assigned to a raw variable: only reachable
    # mid-rewrite, but the rule must still fire and wrap symmetrically
    p = parse("int main(){ int y; y = i_strstr(0@str, 2@str); return y; }")
    r10 = [r for r in find_redexes(p, cfg) if r.rule == "R10"]
    assert len(r10) == 1
    out = apply_rule(p, r10[0], cfg)
    assert out.main.body[1].value.name == "unidx"


def test_no_redexes_for_boundary_free_flows(fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    # raw values into a raw call and indexed values into an indexed call:
    # neither crosses the boundary, so neither generates a redex
    p = parse('int main(){ index<str> s; symbolic s; '
              'if (i_strstr(i_strstr(s, 2@str), 3@str)) { return 1; } '
              'puts(strcat("a", "b")); return 0; }')
    assert find_redexes(p, cfg) == []


def test_stale_redex_rejected(fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    p = typecheck(parse("int main(){ str s1; symbolic s1; puts(s1); return 0; }"))
    r3 = [r for r in find_redexes(p, cfg) if r.rule == "R3"][0]
    out = apply_rule(p, r3, cfg)
    with pytest.raises(StaleRedex):
        apply_rule(out, r3, cfg)


def test_normalize_scans_once_per_step(fig4a_program, fig5_gardens, monkeypatch):
    # normalize hands the redexes it found to apply_rule instead of letting
    # apply_rule scan again: one scan per step plus the final empty one
    calls = {"find_redexes": 0, "apply_rule": 0}

    def counting(name):
        fn = getattr(rewrite, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(rewrite, name, counting(name))
    normalize(fig4a_program, fig5_cfg(fig5_gardens))
    assert calls["apply_rule"] > 0
    assert calls["find_redexes"] == calls["apply_rule"] + 1


def test_equality_operand_folds_to_index():
    src = """
    int main() {
      float x;
      symbolic x;
      if (x == 2.0) {
        return 1;
      }
      return 0;
    }
    """
    from indexify.lang.ast import mk_float
    from indexify.garden import SeedSet

    p = typecheck(parse(src))
    seeds = SeedSet()
    seeds.add(mk_float(2.0))
    gardens = build_garden(seeds, BuilderConfig(builders=(), k=0), types={FLOAT})
    tables = memoise_all(gardens, {"fadd"})
    cfg = RewriteConfig({FLOAT}, {"fadd"}, gardens, tables)
    res = normalize(p, cfg)
    cond = res.program.main.body[2].cond
    assert cond.right == Literal(index_of(FLOAT), 0)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


FIG4B_EXPECTED = """\
int main() {
  index<str> s1;
  index<str> s2;
  symbolic s1;
  puts(unidx(s1));
  s2 = idx(strcat("a", "foo"));
  if (i_strstr(s1, 2@str)) {
    return 1;
  }
  return 0;
}
"""


def test_fig4a_normalizes_to_fig4b(fig4a_program, fig5_gardens):
    res = normalize(fig4a_program, fig5_cfg(fig5_gardens))
    assert print_program(res.program) == FIG4B_EXPECTED


def test_program_without_indexed_types_unchanged(fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    p = typecheck(parse("int main(){ int a; symbolic a; if (a == 3) { return 1; } return 0; }"))
    res = normalize(p, cfg)
    assert res.program == p


def test_vendor_program_renames_both_call_sites():
    src = open(corpus_path("vendor_check")).read()
    p, cfg = pipeline_cfg(src, {"strncmp"}, k=1)
    res = normalize(p, cfg)
    text = print_program(res.program)
    assert text.count("i_strncmp") == 2
    assert "strncmp(" not in text.replace("i_strncmp(", "")


def test_output_typechecks_with_index_types():
    for name, fp in [("substring_branch", {"strstr"}),
                     ("greeting_boundary", {"strcat", "strstr"}),
                     ("vendor_check", {"strncmp"})]:
        src = open(corpus_path(name)).read()
        p, cfg = pipeline_cfg(src, fp, k=1, maxlen=16)
        res = normalize(p, cfg)
        for f in res.program.functions:
            for _, s in _walk(f):
                if isinstance(s, Decl):
                    assert s.type not in cfg.indexed_types  # retyped to index<t>


def _walk(f):
    from indexify.lang.ast import walk_stmts

    return walk_stmts(f.body)


def test_iteration_cap_is_a_safety_net(fig4a_program, fig5_gardens):
    # a full normalize of the figure program takes far fewer steps than the cap
    res = normalize(fig4a_program, fig5_cfg(fig5_gardens))
    assert find_redexes(res.program, fig5_cfg(fig5_gardens)) == []


# ---------------------------------------------------------------------------
# confluence
# ---------------------------------------------------------------------------


def test_confluence_on_figure_program(fig4a_program, fig5_gardens):
    rep = confluence_probe(fig4a_program, fig5_cfg(fig5_gardens), trials=100, seed=3)
    assert rep.all_equal
    assert rep.distinct_normal_forms == 1


def test_confluence_single_statement_program(fig5_gardens):
    p = typecheck(parse("int main(){ str s; symbolic s; return 0; }"))
    rep = confluence_probe(p, fig5_cfg(fig5_gardens), trials=2, seed=0)
    assert rep.all_equal


# ---------------------------------------------------------------------------
# emitted indexed source
# ---------------------------------------------------------------------------


def test_emitted_source_parses_and_matches_table(fig4a_program, fig5_gardens):
    cfg = fig5_cfg(fig5_gardens)
    res = normalize(fig4a_program, cfg)
    text = emit_indexed_source(res)
    emitted = typecheck(parse(text))
    table = cfg.tables["i_strstr"]
    # the if-chain encodes exactly the table: compare every cell by running
    # the emitted function as plain MiniImp
    others = [f for f in emitted.functions if f.name != "main"]
    for (i, j), cell in sorted(table.rows.items()):
        probe = parse(
            "int main(){ index<str> r; r = i_strstr(%d@str, %d@str); "
            "if (r == %s) { return 1; } return 0; }"
            % (i, j, "0@str" if cell is BOT else f"{cell}@str")
        )
        program = type(emitted)(functions=others + [probe.main])
        out = interpret(program)
        if cell is BOT:
            assert out.verdict == "escaped-garden"  # comparing BOT escapes
        else:
            assert out.verdict == "ok"
            assert out.return_value == mk_int(1)


PICK_SOURCE = """
str pick(str s) {
  return strcat(s, "c");
}

int main() {
  str a;
  symbolic a;
  puts("a");
  str b = pick(a);
  if (strcmp(b, "ac") == 0) {
    return 1;
  }
  return 0;
}
"""

PICK_NORMAL_FORM = """\
index<str> pick(index<str> s) {
  return idx(strcat(unidx(s), "c"));
}

int main() {
  index<str> a;
  symbolic a;
  puts("a");
  index<str> b = pick(a);
  if (i_strcmp(b, 3@str) == 0) {
    return 1;
  }
  return 0;
}
"""

FADD_SOURCE = """
int main() {
  float a;
  float x;
  symbolic a;
  symbolic x;
  if (fadd(a, 1.5) == x) {
    return 1;
  }
  if (x == 3.0) {
    return 2;
  }
  return 0;
}
"""

FADD_NORMAL_FORM = """\
int main() {
  index<float> a;
  index<float> x;
  symbolic a;
  symbolic x;
  if (idx(fadd(unidx(a), 1.5)) == x) {
    return 1;
  }
  if (x == 1@float) {
    return 2;
  }
  return 0;
}
"""


@pytest.mark.parametrize("source, types, f_plus, normal_form", [
    # R3 on a user function's return type and parameter, R8/R9 in its body
    (PICK_SOURCE, (STR,), ("strcmp",), PICK_NORMAL_FORM),
    # R7 in the equality-operand form: a raw float result against an index
    (FADD_SOURCE, (FLOAT,), ("fmul",), FADD_NORMAL_FORM),
], ids=["r3-user-return", "r7-equality-operand"])
def test_rewrite_case_normal_form_confluence_and_emitted_source(
        source, types, f_plus, normal_form):
    cfg = CliConfig("case.mi", indexed_types=types, f_plus_names=f_plus, k=1)
    pipe = rewrite_pipeline(build_pipeline(parse(source), cfg), cfg)
    assert print_program(pipe.indexed.program) == normal_form
    rcfg = RewriteConfig(set(types), set(f_plus), pipe.gardens, pipe.tables)
    rep = confluence_probe(typecheck(parse(source)), rcfg, trials=20, seed=0)
    assert rep.all_equal
    report = run_mode(cfg, pipe, MODE_INDEXED)
    assert {tc.verdict for tc in report.test_cases} == {"ok", "escaped-garden"}
    assert report.branch_covered == report.branch_total
    emitted = parse(emit_indexed_source(pipe.indexed))
    for tc in report.test_cases:
        mem = interpret(pipe.indexed.program, tc.inputs, gardens=pipe.gardens,
                        tables=pipe.tables)
        out = interpret(emitted, tc.inputs, gardens=pipe.gardens)
        assert (out.verdict, out.return_value) == (mem.verdict, mem.return_value)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_emitted_source_agrees_with_in_memory_program(entry):
    # the emitted if-chains, run with gardens and no tables, give every test
    # case the verdict and return value of the in-memory tables
    cfg, pipe = load_entry(entry)
    report = run_mode(cfg, pipe, MODE_INDEXED)
    emitted = parse(emit_indexed_source(pipe.indexed))
    for tc in report.test_cases:
        mem = interpret(pipe.indexed.program, tc.inputs, gardens=pipe.gardens,
                        tables=pipe.tables, unroll=cfg.unroll)
        out = interpret(emitted, tc.inputs, gardens=pipe.gardens, unroll=cfg.unroll)
        assert (out.verdict, out.return_value) == (mem.verdict, mem.return_value), \
            (tc.path_id, tc.inputs)
