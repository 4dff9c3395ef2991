"""indexify.check: each finding comes from one planted fault, and names the
test case it breaks.  vendor_check's indexed run is clean until a fault is
planted in a strncmp cell that reads 0 (a match) for a test case that does
not escape."""

import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest

import indexify
from indexify import check
from indexify.bench import CORPUS, load_entry, run_corpus
from indexify.check import check_runs
from indexify.cli import CliConfig, load_pipeline, run_mode
from indexify.iot import IndexedOperatorTable, serialize_tables
from indexify.lang import interp
from indexify.lang.ast import FLOAT
from indexify.lang.interp import (VERDICT_ASSERT, VERDICT_ESCAPED, VERDICT_OK, Interpreter,
                                  interpret)
from indexify.lang.printer import print_literal
from indexify.symex import MODE_ABANDON, MODE_CONCRETIZE, MODE_INDEXED

TABLE = "i_strncmp"


@pytest.fixture
def vendor_run():
    cfg, pipe = load_entry(next(e for e in CORPUS if e.name == "vendor_check"))
    report = run_mode(cfg, pipe, MODE_INDEXED)
    assert check_runs(cfg, pipe, {MODE_INDEXED: report}) == []
    return cfg, pipe, report


def cells_read(pipe, tc, monkeypatch) -> set:
    """The (table, key) pairs that tc's run on the in-memory tables looks up."""
    reads = set()
    lookup = IndexedOperatorTable.lookup

    def recorded(table, key):
        reads.add((table.indexed_name, key))
        return lookup(table, key)

    with monkeypatch.context() as m:
        m.setattr(IndexedOperatorTable, "lookup", recorded)
        interpret(pipe.indexed.program, tc.inputs, gardens=pipe.gardens, tables=pipe.tables)
    return reads


def matching_key(pipe, report, monkeypatch) -> tuple:
    """The first strncmp key that reads 0 in a non-escaping test case's run."""
    return next(key for tc in report.test_cases if tc.verdict != VERDICT_ESCAPED
                for name, key in sorted(cells_read(pipe, tc, monkeypatch))
                if name == TABLE and pipe.tables[TABLE].lookup(key) == 0)


def readers(pipe, report, key, monkeypatch) -> list:
    """The test cases of report whose in-memory run reads the strncmp key."""
    return [tc for tc in report.test_cases if (TABLE, key) in cells_read(pipe, tc, monkeypatch)]


def test_a_flipped_verdict_is_reported_as_a_replay_divergence(vendor_run):
    cfg, pipe, report = vendor_run
    tc = next(t for t in report.test_cases if t.verdict == VERDICT_ASSERT)
    flipped = tuple(replace(t, verdict=VERDICT_OK) if t is tc else t for t in report.test_cases)
    assert check_runs(cfg, pipe, {MODE_INDEXED: replace(report, test_cases=flipped)}) == \
        [f"indexed test case {tc.path_id}: replay diverged (verdict mismatch)"]


def test_a_tampered_table_cell_disagrees_inside_the_garden(vendor_run, tmp_path, monkeypatch):
    # the cell is changed in tables.iot and loaded as --indexOpDefs loads it;
    # the run explored over it replays, and its emitted source agrees with it
    cfg, pipe, report = vendor_run
    key = matching_key(pipe, report, monkeypatch)
    row = " ".join(map(str, key)) + " -> 0\n"
    lines = serialize_tables(pipe.tables).splitlines(keepends=True)
    start = lines.index(next(ln for ln in lines if ln.startswith(f"iot {TABLE[2:]} ")))
    lines[lines.index(row, start)] = row.replace("-> 0", "-> 1")
    path = tmp_path / "tables.iot"
    path.write_text("".join(lines))
    cfg = replace(cfg, iot_file=str(path))
    pipe = load_pipeline(cfg)
    report = run_mode(cfg, pipe, MODE_INDEXED)
    flagged = [tc for tc in readers(pipe, report, key, monkeypatch)
               if tc.verdict != VERDICT_ESCAPED]
    assert flagged
    assert check_runs(cfg, pipe, {MODE_INDEXED: report}) == \
        [f"indexed test case {tc.path_id}: disagrees inside the garden" for tc in flagged]


def test_a_dropped_emitted_row_is_reported_as_emitted_source_differs(vendor_run, monkeypatch):
    cfg, pipe, report = vendor_run
    key = matching_key(pipe, report, monkeypatch)
    types = pipe.tables[TABLE].indexed_signature().arg_types
    conds = " && ".join(f"s{i + 1} == {print_literal(t, k)}"
                        for i, (t, k) in enumerate(zip(types, key)))
    emit = check.emit_indexed_source

    def dropping_the_row(result):
        lines = emit(result).split("\n")
        kept = [ln for ln in lines if not ln.startswith(f"  if ({conds}) {{")]
        assert len(kept) == len(lines) - 1
        return "\n".join(kept)

    monkeypatch.setattr(check, "emit_indexed_source", dropping_the_row)
    flagged = readers(pipe, report, key, monkeypatch)
    assert flagged
    findings = [f"indexed test case {tc.path_id}: emitted source differs" for tc in flagged]
    assert check_runs(cfg, pipe, {MODE_INDEXED: report}) == findings
    # the corpus bench counts each finding as a violation of its entry
    entry = next(e for e in CORPUS if e.name == "vendor_check")
    assert run_corpus(corpus=(entry,), modes=(MODE_INDEXED,)).violations == \
        tuple(("vendor_check", f) for f in findings)


def test_each_program_runs_once_per_test_case(vendor_run, monkeypatch):
    # the replay, the agreement and the emitted-source comparison share one
    # run of the rewritten program; the original program runs once for each
    # test case that does not escape, and the emitted source once for each
    cfg, pipe, report = vendor_run
    runs = Counter()
    run = Interpreter.run

    def counted(self):
        runs[id(self.program)] += 1
        return run(self)

    monkeypatch.setattr(Interpreter, "run", counted)
    assert check_runs(cfg, pipe, {MODE_INDEXED: report}) == []
    n = len(report.test_cases)
    assert n == 9
    assert runs.pop(id(pipe.indexed.program)) == n
    assert runs.pop(id(pipe.program)) == sum(t.verdict != VERDICT_ESCAPED
                                             for t in report.test_cases)
    assert list(runs.values()) == [n]  # the emitted source


def test_each_program_works_out_its_inputs_once(vendor_run, monkeypatch):
    # check_runs gives each interpreter run its program's inputs table, so
    # the original, rewritten and emitted programs are each walked once for
    # their inputs, not once per test case and mode
    cfg, pipe, report = vendor_run
    reports = {MODE_INDEXED: report, MODE_ABANDON: run_mode(cfg, pipe, MODE_ABANDON)}
    walked = Counter()
    symbolic_inputs = interp.symbolic_inputs

    def counted(program):
        walked[id(program)] += 1
        return symbolic_inputs(program)

    monkeypatch.setattr(interp, "symbolic_inputs", counted)
    monkeypatch.setattr(check, "symbolic_inputs", counted)
    assert check_runs(cfg, pipe, reports) == []
    assert len(report.test_cases) + len(reports[MODE_ABANDON].test_cases) > 3  # runs > programs
    assert walked.pop(id(pipe.program)) == 1
    assert walked.pop(id(pipe.indexed.program)) == 1
    assert list(walked.values()) == [1]  # the emitted source


def test_a_bot_argument_escapes_in_the_emitted_source_too(tmp_path):
    # i_fdiv over the garden {0.0, -1.0} has no non-BOT row.  For x = -1.0
    # i_fmul(f1, f1) is BOT, and the i_fdiv call escapes on it, in memory
    # and in the emitted source alike
    path = tmp_path / "fdiv.mi"
    path.write_text("int main() { float x; symbolic x; float zero = 0.0; float m = -1.0;\n"
                    "  int r = 0; float f0 = fmax(fmin(m, 0.0), 0.0); float f1 = x;\n"
                    "  float f2 = fdiv(0.0, fmul(f1, f1)); return r; }\n")
    cfg = CliConfig(str(path), indexed_types=(FLOAT,), f_plus_names=("fadd", "fdiv", "fmul"),
                    k=0)
    pipe = load_pipeline(cfg)
    reports = {mode: run_mode(cfg, pipe, mode)
               for mode in (MODE_INDEXED, MODE_ABANDON, MODE_CONCRETIZE)}
    assert VERDICT_ESCAPED in {tc.verdict for tc in reports[MODE_INDEXED].test_cases}
    assert check_runs(cfg, pipe, reports) == []


def test_importing_check_loads_neither_cli_nor_bench():
    # bench imports check, and the CLI may: check must not import them back
    src = os.path.dirname(os.path.dirname(indexify.__file__))
    code = "import sys, indexify.check; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert not {"indexify.cli", "indexify.bench"} & set(out.split())
