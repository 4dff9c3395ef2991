"""Desk-scale corpus and measurement harness.

Twelve small programs exercise each transformation pathway: the vendor-string
bug, substring branching, a flag-dispatch ladder, a substring-search loop,
cross-boundary calls, nested indexed calls, float guards, mixed string/int
gates, and integer controls.  run_corpus() executes them under the requested
modes, checks each entry's expected witnesses and, with check.check_runs, the
paper's run invariants on every test case of every mode (every one replays,
an indexed one agrees with the original program inside the garden, and the
emitted source behaves as the in-memory tables), and aggregates coverage and
solver statistics.  A violation of either kind makes indexify-bench exit 1.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import dataclass
from importlib import resources

from .check import check_runs
from .cli import (MODE_NAMES, MODES, CliConfig, _TYPE_CHOICES, build_pipeline, format_columns,
                  run_mode, type_option)
from .lang.parser import parse
from .symex import MODE_ABANDON, MODE_INDEXED

DEFAULT_MODES = (MODE_INDEXED, MODE_ABANDON)

STRING_HEAVY = "string-heavy"
FLOAT_HEAVY = "float-heavy"
MIXED = "mixed"
CONTROL = "control"

# Witnesses:
#   bug-indexed-only   assertion-failure found in indexed mode, in no baseline
#   coverage-gt        indexed branch coverage strictly above baseline-abandon
#   coverage-eq        indexed branch coverage equals every baseline's
#   escapes            indexed mode abandons at least one path at the garden edge


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    category: str
    witnesses: tuple
    types: str = type_option(CliConfig.indexed_types)
    f_plus: tuple | None = None  # None: every builtin of the indexed classes
    k: int = CliConfig.k
    maxlen: int = CliConfig.maxlen


CORPUS = (
    CorpusEntry("vendor_check", STRING_HEAVY,
                ("bug-indexed-only", "coverage-gt")),
    CorpusEntry("substring_branch", STRING_HEAVY, ("coverage-gt",),
                f_plus=("strstr",)),
    CorpusEntry("flag_dispatch", STRING_HEAVY, ("coverage-gt",), k=1),
    CorpusEntry("substring_loop", STRING_HEAVY, ("coverage-gt", "escapes"), k=1),
    CorpusEntry("greeting_boundary", STRING_HEAVY, ("coverage-gt",),
                f_plus=("strcat", "strstr"), k=1, maxlen=16),
    CorpusEntry("needle_chain", STRING_HEAVY, ("coverage-gt",),
                f_plus=("strstr",)),
    CorpusEntry("float_guard", FLOAT_HEAVY, ("coverage-gt",),
                types="float", k=1),
    CorpusEntry("float_mix", FLOAT_HEAVY, ("coverage-gt",),
                types="float", k=1),
    CorpusEntry("count_gate", MIXED, ("coverage-gt",), k=1),
    CorpusEntry("str_concrete", MIXED, ("coverage-eq",), k=1),
    CorpusEntry("int_maze", CONTROL, ("coverage-eq",)),
    CorpusEntry("int_loop", CONTROL, ("coverage-eq",)),
)


def corpus_path(name: str) -> str:
    return str(resources.files("indexify").joinpath("corpus", f"{name}.mi"))


def entry_config(entry: CorpusEntry) -> CliConfig:
    return CliConfig(
        input_path=corpus_path(entry.name),
        indexed_types=_TYPE_CHOICES[entry.types],
        f_plus_names=entry.f_plus,
        k=entry.k,
        maxlen=entry.maxlen,
    )


def load_entry(entry: CorpusEntry):
    cfg = entry_config(entry)
    with open(cfg.input_path, encoding="utf-8") as fh:
        program = parse(fh.read())
    return cfg, build_pipeline(program, cfg)


@dataclass(frozen=True)
class EntryResult:
    entry: CorpusEntry
    reports: dict  # mode -> ExplorationReport
    violations: tuple


@dataclass(frozen=True)
class AggregateReport:
    results: tuple
    modes: tuple

    @property
    def violations(self):
        out = []
        for r in self.results:
            out.extend((r.entry.name, v) for v in r.violations)
        return tuple(out)

    def mean_branch_cov(self, mode: str) -> float:
        return statistics.mean(r.reports[mode].branch_cov for r in self.results)

    def mean_instr_cov(self, mode: str) -> float:
        return statistics.mean(r.reports[mode].instr_cov for r in self.results)


def check_witnesses(entry: CorpusEntry, reports: dict) -> tuple:
    violations = []
    indexed = reports.get(MODE_INDEXED)
    abandon = reports.get(MODE_ABANDON)
    baselines = [r for m, r in reports.items() if m != MODE_INDEXED]
    for w in entry.witnesses:
        if w == "bug-indexed-only":
            if indexed is None or indexed.assertion_failures == 0:
                violations.append("expected an assertion-failure in indexed mode")
            for b in baselines:
                if b.assertion_failures:
                    violations.append(f"{b.mode} unexpectedly found the assertion")
        elif w == "coverage-gt":
            if indexed is not None and abandon is not None \
                    and not indexed.branch_covered > abandon.branch_covered:
                violations.append("indexed coverage not strictly above abandon")
        elif w == "coverage-eq":
            for b in baselines:
                if indexed is not None and indexed.branch_covered != b.branch_covered:
                    violations.append(f"coverage differs from {b.mode}")
        elif w == "escapes":
            if indexed is not None and indexed.escaped_paths == 0:
                violations.append("expected escaped-garden paths in indexed mode")
        else:
            violations.append(f"unknown witness {w!r}")
    # direction of the constraint-simplification claim, on every string-heavy entry
    if entry.category == STRING_HEAVY and indexed is not None:
        if not indexed.atoms_sent < indexed.atoms_generated:
            violations.append("simplified atom count not below generated count")
    return tuple(violations)


def run_corpus(corpus=CORPUS, modes=DEFAULT_MODES) -> AggregateReport:
    results = []
    for entry in corpus:
        cfg, pipe = load_entry(entry)
        reports = {}
        for mode in modes:
            reports[mode] = run_mode(cfg, pipe, mode)
        results.append(EntryResult(
            entry=entry,
            reports=reports,
            violations=(*check_witnesses(entry, reports), *check_runs(cfg, pipe, reports)),
        ))
    return AggregateReport(results=tuple(results), modes=tuple(modes))


def format_aggregate(agg: AggregateReport) -> str:
    header = ["entry", "category"]
    for m in agg.modes:
        short = MODE_NAMES[m]
        header += [f"bcov[{short}]", f"paths[{short}]", f"asserts[{short}]"]
    header.append("witnesses")
    rows = [header]
    for r in sorted(agg.results, key=lambda r: r.entry.name):
        row = [r.entry.name, r.entry.category]
        for m in agg.modes:
            rep = r.reports[m]
            row += [f"{rep.branch_covered}/{rep.branch_total}",
                    str(rep.paths), str(rep.assertion_failures)]
        row.append("ok" if not r.violations else "; ".join(r.violations))
        rows.append(row)
    lines = format_columns(rows)
    for m in agg.modes:
        lines.append(f"mean_branch_cov[{m}] {agg.mean_branch_cov(m):.4f}")
        lines.append(f"mean_instr_cov[{m}] {agg.mean_instr_cov(m):.4f}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="indexify-bench",
                                description="Run the shipped corpus and check "
                                            "its expected witnesses.")
    p.add_argument("--modes", default=",".join(MODE_NAMES[m] for m in DEFAULT_MODES),
                   help=f"comma-separated: {','.join(MODES)} (default %(default)s)")
    p.add_argument("--out", help="write the aggregate report to this file")
    args = p.parse_args(argv)
    try:
        modes = tuple(MODES[m.strip()] for m in args.modes.split(","))
    except KeyError as e:
        print(f"indexify-bench: unknown mode {e}", file=sys.stderr)
        return 2
    agg = run_corpus(modes=modes)
    text = format_aggregate(agg)
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 1 if agg.violations else 0


if __name__ == "__main__":
    sys.exit(main())
