from dataclasses import replace

import pytest

from indexify.bench import (
    CONTROL,
    CORPUS,
    STRING_HEAVY,
    check_witnesses,
    corpus_path,
    format_aggregate,
    load_entry,
    run_corpus,
)
from indexify.cli import run_mode
from indexify.lang.ast import (BOOL, FLOAT, INT, STR, mk_bool, mk_float, mk_int, mk_str,
                               symbolic_inputs)
from indexify.lang.interp import VERDICT_ASSERT, VERDICT_OK, interpret
from indexify.lang.parser import parse
from indexify.lang.typecheck import typecheck
from indexify.symex import MODE_ABANDON, MODE_CONCRETIZE, MODE_INDEXED, ReplayResult, replay


@pytest.fixture(scope="module")
def aggregate():
    return run_corpus()


def test_corpus_has_twelve_entries_across_categories():
    assert len(CORPUS) == 12
    categories = {e.category for e in CORPUS}
    assert categories == {"string-heavy", "float-heavy", "mixed", "control"}


def test_every_entry_parses_typechecks_and_terminates():
    # at least one input completes within the default unroll bound:
    # defaults cover programs whose symbolic variables never block
    zero = {STR: mk_str(b""), INT: mk_int(0), FLOAT: mk_float(0.0), BOOL: mk_bool(False)}
    for entry in CORPUS:
        program = typecheck(parse(open(corpus_path(entry.name)).read()))
        defaults = {n: zero[tag] for n, tag in symbolic_inputs(program).items()}
        res = interpret(program, defaults)
        assert res.verdict in ("ok", "assertion-failure"), entry.name


def test_no_witness_violations(aggregate):
    assert aggregate.violations == ()


def test_indexed_dominates_baseline_mean(aggregate):
    assert aggregate.mean_branch_cov(MODE_INDEXED) > \
        aggregate.mean_branch_cov(MODE_ABANDON)


def test_controls_have_equal_coverage(aggregate):
    for r in aggregate.results:
        if r.entry.category == CONTROL:
            assert r.reports[MODE_INDEXED].branch_covered == \
                r.reports[MODE_ABANDON].branch_covered


def test_simplification_reduces_atoms_on_string_heavy(aggregate):
    for r in aggregate.results:
        if r.entry.category == STRING_HEAVY:
            rep = r.reports[MODE_INDEXED]
            assert rep.atoms_sent < rep.atoms_generated, r.entry.name


def test_report_stable_across_runs(aggregate):
    again = run_corpus()
    assert format_aggregate(again) == format_aggregate(aggregate)


def test_concretize_mode_runs_clean():
    entries = [e for e in CORPUS if e.name in ("vendor_check", "substring_branch")]
    agg = run_corpus(corpus=entries,
                     modes=(MODE_INDEXED, MODE_ABANDON, MODE_CONCRETIZE))
    assert agg.violations == ()


def test_aggregate_formatting(aggregate):
    text = format_aggregate(aggregate)
    assert "vendor_check" in text
    assert "mean_branch_cov[indexed]" in text


def test_replay_reports_a_tampered_test_case():
    # the replay behind every test case's check: a flipped verdict and a
    # dropped branch edge each fail it, with their reason
    cfg, pipe = load_entry(next(e for e in CORPUS if e.name == "vendor_check"))
    rep = run_mode(cfg, pipe, MODE_INDEXED)
    program, gardens, tables = pipe.indexed.program, pipe.gardens, pipe.tables
    tc = next(t for t in rep.test_cases if t.verdict == VERDICT_ASSERT)
    assert replay(program, tc, gardens=gardens, tables=tables).ok
    flipped = replace(tc, verdict=VERDICT_OK)
    assert replay(program, flipped, gardens=gardens, tables=tables) == \
        ReplayResult(False, VERDICT_ASSERT, VERDICT_OK, "verdict mismatch")
    edge = next(iter(tc.covered_branches))
    dropped = replace(tc, covered_branches=tc.covered_branches - {edge})
    assert replay(program, dropped, gardens=gardens, tables=tables) == \
        ReplayResult(False, VERDICT_ASSERT, VERDICT_ASSERT, "branch trace mismatch")


def test_every_witness_check_can_fail(aggregate):
    results = {r.entry.name: r for r in aggregate.results}

    def violations(name, entry=None, **reports):
        r = results[name]
        return check_witnesses(entry or r.entry, {**r.reports, **reports})

    vendor = results["vendor_check"].reports  # bug-indexed-only, coverage-gt
    indexed, abandon = vendor[MODE_INDEXED], vendor[MODE_ABANDON]
    no_bug = tuple(t for t in indexed.test_cases if t.verdict != VERDICT_ASSERT)
    assert violations("vendor_check", **{
        MODE_INDEXED: replace(indexed, test_cases=no_bug)}) == \
        ("expected an assertion-failure in indexed mode",)
    assert violations("vendor_check", **{
        MODE_ABANDON: replace(abandon, test_cases=indexed.test_cases)}) == \
        ("baseline-abandon unexpectedly found the assertion",)
    assert violations("vendor_check", **{
        MODE_ABANDON: replace(abandon, branch_covered=indexed.branch_covered)}) == \
        ("indexed coverage not strictly above abandon",)
    assert violations("vendor_check", **{
        MODE_INDEXED: replace(indexed, atoms_sent=indexed.atoms_generated)}) == \
        ("simplified atom count not below generated count",)
    maze = results["int_maze"].reports[MODE_ABANDON]  # coverage-eq
    assert violations("int_maze", **{
        MODE_ABANDON: replace(maze, branch_covered=maze.branch_covered - 1)}) == \
        ("coverage differs from baseline-abandon",)
    loop = results["substring_loop"].reports[MODE_INDEXED]  # escapes
    assert violations("substring_loop", **{
        MODE_INDEXED: replace(loop, escaped_paths=0)}) == \
        ("expected escaped-garden paths in indexed mode",)
    entry = replace(results["int_maze"].entry, witnesses=("coverage-eq", "nope"))
    assert violations("int_maze", entry) == ("unknown witness 'nope'",)
