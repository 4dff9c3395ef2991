"""Command-line front end: harvest -> build garden -> memoise -> rewrite -> explore.

    indexify --type string program.mi
    indexify --type string program.mi --garden G.txt --F+ ops.txt
    indexify --type float bench.mi --baseline abandon
    indexify --type string program.mi --compare

Artifacts (garden file, operator tables, reports, test cases) land in
<input>.out/ by default; --outputIndexedIR additionally writes the rewritten
source to <input>.indexed.mi.  Exit status: 0 on success, 1 when an
assertion-failure test case was found (or a replay diverged), 2 on bad input,
an empty garden and a program nested too deeply included.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

from .garden import (
    BUILDER_MODES,
    BuilderConfig,
    GardenError,
    IndexMap,
    build_garden,
    harvest_int_pool,
    harvest_seeds,
    load_gardens,
    load_seeds,
    serialize_gardens,
)
from .iot import REGISTRY, IotError, memoise_all, parse_tables, serialize_tables
from .lang.ast import FLOAT, STR, MiniImpError, Program, Value, mk_str
from .lang.interp import UNROLL, interpret
from .lang.parser import parse, parse_scalar_literal
from .lang.printer import print_literal
from .lang.typecheck import typecheck
from .rewrite import RewriteConfig, RewriteError, confluence_probe, emit_indexed_source, normalize
from .symex import (
    MODE_ABANDON,
    MODE_CONCRETIZE,
    MODE_INDEXED,
    ExplorationReport,
    ExploreConfig,
    SymexError,
    TestCase,
    explore,
    explore_baseline,
)

_TYPE_CHOICES = {"string": (STR,), "float": (FLOAT,), "both": (STR, FLOAT)}
# A mode's name: its option value, its artifacts' suffix and its bench column.
MODES = {"indexed": MODE_INDEXED, "abandon": MODE_ABANDON, "concretize": MODE_CONCRETIZE}
MODE_NAMES = {mode: name for name, mode in MODES.items()}


class UsageError(Exception):
    pass


@dataclass
class CliConfig:
    """A run's settings.  Each bound's default is the one of the stage that
    owns it, and each command-line option's dest is its field's name."""

    input_path: str
    indexed_types: tuple = (STR,)
    seeds_file: str | None = None
    add_seeds_file: str | None = None
    garden_file: str | None = None
    iot_file: str | None = None
    f_plus_names: tuple | None = None  # None: every builtin of the indexed classes
    k: int = BuilderConfig.k
    maxlen: int = BuilderConfig.max_str_len
    builder_mode: str = BuilderConfig.mode
    baseline: str | None = None  # None = indexed mode
    emit_ir: bool = False
    outdir: str | None = None
    max_states: int = ExploreConfig.max_states
    timeout_s: float = ExploreConfig.wallclock_s
    unroll: int = UNROLL
    bot_propagate: bool = False

    def __post_init__(self):
        if not self.timeout_s > 0:  # a NaN timeout would never expire
            raise UsageError("--timeout must be a positive number of seconds, "
                             f"not {self.timeout_s}")
        if self.max_states < 1:
            raise UsageError(f"--max-states must be at least 1, not {self.max_states}")
        if self.unroll < 0:
            raise UsageError(f"--unroll must be at least 0, not {self.unroll}")
        if self.k < 0:
            raise UsageError(f"--k must be at least 0, not {self.k}")
        if self.maxlen < 1:
            raise UsageError(f"--maxlen must be at least 1, not {self.maxlen}")


@dataclass
class Pipeline:
    program: Program
    gardens: dict
    f_plus: set
    tables: dict
    indexed: object | None = None  # IndexationResult when rewriting ran

    def target(self, mode: str) -> tuple:
        """The program mode explores and the tables it reads: in indexed
        mode the rewritten program, once rewrite_pipeline has run, and the
        tables; in a baseline mode the original program and no table."""
        if mode == MODE_INDEXED:
            return self.indexed.program, self.tables
        return self.program, {}


# ---------------------------------------------------------------------------
# Input file formats
# ---------------------------------------------------------------------------


def read_text(path: str) -> str:
    """The text of the input file at path; every input file must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None


def parse_file(path: str, parse_text, *args):
    """parse_text(text, *args) of the input file at path; an error in the
    text names the file."""
    try:
        return parse_text(read_text(path), *args)
    except (GardenError, IotError) as e:
        raise UsageError(f"{path}: {e}") from None


def load_fplus_file(path: str, indexed_types) -> set:
    names = set()
    for line in read_text(path).splitlines():
        name = line.strip()
        if not name or name.startswith("#"):
            continue
        check_fplus_name(name, path, indexed_types)
        names.add(name)
    return names


def check_fplus_name(name: str, where: str, indexed_types) -> None:
    """Reject an F+ name that is not an operator of an indexed type: an io
    operator such as puts has no table that keeps its effect, and an
    operator of a type that is not indexed has no garden to tabulate over."""
    op = REGISTRY.get(name)
    if op is None:
        raise UsageError(f"{where}: unknown operator {name!r}")
    if op.indexes is None:
        raise UsageError(f"{where}: {name!r} is an io operator, "
                         "not a string or float one")
    if op.indexes not in indexed_types:
        raise UsageError(f"{where}: {name!r} is a {op.indexes!r} operator, and --type "
                         f"{type_option(indexed_types)} indexes no {op.indexes!r} values")


def type_option(indexed_types) -> str | None:
    """The --type value that indexes exactly indexed_types."""
    return next((k for k, v in _TYPE_CHOICES.items() if set(v) == set(indexed_types)), None)


def default_f_plus(indexed_types) -> set:
    return {name for name, op in REGISTRY.items() if op.indexes in indexed_types}


def default_builders(f_plus, indexed_types) -> tuple:
    """B+ defaults to the garden-growable part of F+: the builtin ops whose
    arguments and result are all of one indexed type."""
    builders = []
    for name in sorted(f_plus):
        op = REGISTRY[name]
        types = {*op.signature.arg_types, op.signature.return_type}
        if len(types) == 1 and op.signature.return_type in indexed_types:
            builders.append(op)
    return tuple(builders)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def build_pipeline(program: Program, cfg: CliConfig) -> Pipeline:
    typecheck(program)
    types = set(cfg.indexed_types)

    if cfg.f_plus_names is None:
        f_plus = default_f_plus(types)
    else:
        f_plus = set(cfg.f_plus_names)
        for name in sorted(f_plus):
            check_fplus_name(name, "F+", types)

    if cfg.seeds_file:
        seeds = parse_file(cfg.seeds_file, load_seeds)  # prevents constant harvesting
    else:
        seeds = harvest_seeds(program, types)
    if cfg.add_seeds_file:  # merged into whichever seed set was chosen
        for imap in parse_file(cfg.add_seeds_file, load_seeds).per_type.values():
            for v in imap.values():
                seeds.add(v)
    if STR in types:
        seeds.add(mk_str(b""))  # the empty string is always seeded

    int_pool = harvest_int_pool(program)

    if cfg.garden_file:
        gardens = parse_file(cfg.garden_file, load_gardens)
        for tag in gardens:
            if tag not in (STR, FLOAT):  # no --type indexes int or bool
                raise UsageError(f"{cfg.garden_file}: the garden holds {tag.name} "
                                 "values; only str and float values are indexed")
        for tag in types:
            gardens.setdefault(tag, IndexMap(tag))
    else:
        bcfg = BuilderConfig(
            builders=default_builders(f_plus, types),
            k=cfg.k, max_str_len=cfg.maxlen, mode=cfg.builder_mode,
        )
        gardens = build_garden(seeds, bcfg, types=types)

    tables = parse_file(cfg.iot_file, parse_tables, gardens) if cfg.iot_file else {}
    missing = {n for n in f_plus if "i_" + n not in tables}
    tables.update(memoise_all(gardens, missing, int_pool))

    return Pipeline(program=program, gardens=gardens, f_plus=f_plus, tables=tables)


def load_pipeline(cfg: CliConfig) -> Pipeline:
    """Parse the input file and build its pipeline, unrewritten."""
    return build_pipeline(parse(read_text(cfg.input_path)), cfg)


def rewrite_config(pipe: Pipeline, cfg: CliConfig) -> RewriteConfig:
    return RewriteConfig(
        indexed_types=set(cfg.indexed_types),
        f_plus=pipe.f_plus,
        gardens=pipe.gardens,
        tables=pipe.tables,
    )


def rewrite_pipeline(pipe: Pipeline, cfg: CliConfig) -> Pipeline:
    pipe.indexed = normalize(pipe.program, rewrite_config(pipe, cfg))
    return pipe


def explore_config(cfg: CliConfig, pipe: Pipeline, mode: str) -> ExploreConfig:
    """Every mode gets the gardens, which an emitted .indexed.mi needs to
    run, and the tables pipe.target(mode) reads."""
    return ExploreConfig(
        mode=mode,
        gardens=pipe.gardens,
        tables=pipe.target(mode)[1],
        unroll=cfg.unroll,
        max_states=cfg.max_states,
        wallclock_s=cfg.timeout_s,
        bot_propagate=cfg.bot_propagate,
    )


def run_mode(cfg: CliConfig, pipe: Pipeline, mode: str) -> ExplorationReport:
    if mode == MODE_INDEXED and pipe.indexed is None:
        rewrite_pipeline(pipe, cfg)
    run = explore if mode == MODE_INDEXED else explore_baseline
    return run(pipe.target(mode)[0], explore_config(cfg, pipe, mode))


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def format_input_value(v: Value) -> str:
    return print_literal(v.tag, v.raw)


def parse_input_value(text: str) -> Value:
    """A test-case value: one scalar MiniImp literal, a leading - included."""
    lit = parse_scalar_literal(text)
    return Value(lit.tag, lit.value)


def format_inputs(tc: TestCase, lines: dict) -> list:
    """The test case's inputs as name=value lines, sorted by name.

    lines memoises each line by its name and the id of its Value object,
    not by value equality, under which 0.0 and -0.0 are one value but print
    apart.  Its Values must outlive it, as a report's do while it is
    written.
    """
    out = []
    for name, v in sorted(tc.inputs.items()):
        line = lines.get((name, id(v)))
        if line is None:
            line = lines[name, id(v)] = f"{name}={format_input_value(v)}"
        out.append(line)
    return out


def format_testcase(tc: TestCase, inputs: list) -> str:
    """A .tc file; inputs is format_inputs(tc)."""
    return "\n".join([f"# testcase {tc.path_id} verdict={tc.verdict}", *inputs]) + "\n"


def parse_testcase_file(text: str):
    inputs = {}
    verdict = None
    for line in text.splitlines():
        if line.startswith("#"):
            if "verdict=" in line:
                verdict = line.split("verdict=", 1)[1].strip()
            continue
        if not line.strip():
            continue
        name, _, value = line.partition("=")
        name = name.strip()
        if name in inputs:
            raise UsageError(f"input {name!r} given twice")
        inputs[name] = parse_input_value(value)
    return inputs, verdict


def format_report(report: ExplorationReport, program_name: str) -> str:
    """The report's summary; format_report_line adds a line per test case."""
    lines = [
        f"program {program_name}",
        f"mode {report.mode}",
        f"paths {report.paths}",
        f"states {report.states}",
        f"solver_queries {report.solver_queries}",
        f"atoms_generated {report.atoms_generated}",
        f"atoms_sent {report.atoms_sent}",
        f"escaped_paths {report.escaped_paths}",
        f"branch_coverage {report.branch_covered}/{report.branch_total}",
        f"instr_coverage {report.instr_covered}/{report.instr_total}",
        f"truncated {str(report.truncated).lower()}",
    ]
    return "\n".join(lines) + "\n"


def format_report_line(tc: TestCase, inputs: list) -> str:
    """A test case's report line; inputs is format_inputs(tc)."""
    return f"testcase {tc.path_id} verdict={tc.verdict} {' '.join(inputs)}".rstrip() + "\n"


def human_summary(report: ExplorationReport) -> str:
    return (
        f"[{report.mode}] paths={report.paths} states={report.states} "
        f"bcov={report.branch_cov:.2%} icov={report.instr_cov:.2%} "
        f"queries={report.solver_queries} unknowns={report.solver_unknowns} "
        f"escaped={report.escaped_paths} "
        f"asserts={report.assertion_failures} "
        f"time={report.elapsed_s:.2f}s"
    )


def write_artifacts(cfg: CliConfig, pipe: Pipeline, reports: dict) -> str:
    outdir = cfg.outdir or cfg.input_path + ".out"
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "garden.txt"), "w", encoding="utf-8") as fh:
        fh.write(serialize_gardens(pipe.gardens))
    with open(os.path.join(outdir, "tables.iot"), "w", encoding="utf-8") as fh:
        fh.write(serialize_tables(pipe.tables))
    name = os.path.basename(cfg.input_path)
    lines = {}  # format_inputs' memo: the reports hold its Values until we return
    for mode, report in reports.items():
        suffix = MODE_NAMES[mode]
        tc_dir = os.path.join(outdir, f"testcases.{suffix}")
        os.makedirs(tc_dir, exist_ok=True)
        with open(os.path.join(outdir, f"report.{suffix}.txt"), "w",
                  encoding="utf-8") as rep:
            rep.write(format_report(report, name))
            for tc in report.test_cases:
                inputs = format_inputs(tc, lines)  # once, for the report line and the .tc file
                rep.write(format_report_line(tc, inputs))
                with open(os.path.join(tc_dir, f"{tc.path_id:04d}.tc"), "w",
                          encoding="utf-8") as fh:
                    fh.write(format_testcase(tc, inputs))
        # a rerun replaces the mode's test cases: remove a last run's surplus
        i = len(report.test_cases)
        while os.path.exists(path := os.path.join(tc_dir, f"{i:04d}.tc")):
            os.remove(path)
            i += 1
    if cfg.emit_ir and pipe.indexed is not None:
        with open(cfg.input_path + ".indexed.mi", "w", encoding="utf-8") as fh:
            fh.write(emit_indexed_source(pipe.indexed))
    return outdir


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(cfg: CliConfig, modes: tuple) -> int:
    """Explore the program in each mode, write the artifacts, and print a
    summary for one mode or a table for several.  Exit 1 when a mode found
    an assertion failure."""
    pipe = load_pipeline(cfg)
    if cfg.emit_ir:  # the IR needs the rewrite in a baseline run too
        rewrite_pipeline(pipe, cfg)
    reports = {mode: run_mode(cfg, pipe, mode) for mode in modes}
    outdir = write_artifacts(cfg, pipe, reports)
    if len(reports) == 1:
        print(human_summary(*reports.values()))
    else:
        print(comparison_table(reports))
    print(f"artifacts: {outdir}")
    return 1 if any(r.assertion_failures for r in reports.values()) else 0


def comparison_table(reports: dict) -> str:
    rows = [
        ("metric", *reports.keys()),
        ("branch_cov", *(f"{r.branch_cov:.2%}" for r in reports.values())),
        ("instr_cov", *(f"{r.instr_cov:.2%}" for r in reports.values())),
        ("paths", *(str(r.paths) for r in reports.values())),
        ("queries", *(str(r.solver_queries) for r in reports.values())),
        ("escaped", *(str(r.escaped_paths) for r in reports.values())),
        ("assert_failures", *(str(r.assertion_failures) for r in reports.values())),
        ("time_s", *(f"{r.elapsed_s:.2f}" for r in reports.values())),
    ]
    return "\n".join(format_columns(rows))


def format_columns(rows: list) -> list:
    """The lines of a text table: each row's cells padded to their column's
    widest cell and joined by two spaces, with no trailing space."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def cmd_replay(cfg: CliConfig, replay_path: str) -> int:
    pipe = load_pipeline(cfg)
    mode = MODES[cfg.baseline or "indexed"]
    if mode == MODE_INDEXED:
        rewrite_pipeline(pipe, cfg)
    target, tables = pipe.target(mode)
    paths = [replay_path]
    if os.path.isdir(replay_path):
        paths = [os.path.join(replay_path, p)
                 for p in sorted(os.listdir(replay_path)) if p.endswith(".tc")]
    bad = 0
    for p in paths:
        try:
            inputs, expected = parse_testcase_file(read_text(p))
            res = interpret(target, inputs, gardens=pipe.gardens, tables=tables,
                            unroll=cfg.unroll, bot_propagate=cfg.bot_propagate)
        except (UsageError, MiniImpError) as e:
            raise UsageError(f"{p}: {e}") from None
        ok = expected is None or res.verdict == expected
        print(f"{p}: verdict={res.verdict}"
              + ("" if ok else f" EXPECTED {expected}"))
        bad += 0 if ok else 1
    return 1 if bad else 0


def cmd_confluence(cfg: CliConfig, trials: int) -> int:
    pipe = load_pipeline(cfg)
    try:
        seed = int(os.environ.get("INDEXIFY_SEED", "0"))
    except ValueError:
        raise UsageError("INDEXIFY_SEED must be an integer") from None
    rep = confluence_probe(pipe.program, rewrite_config(pipe, cfg), trials, seed=seed)
    print(f"confluence: trials={rep.trials} distinct={rep.distinct_normal_forms} "
          f"all_equal={rep.all_equal}")
    return 0 if rep.all_equal else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The options.  One that sets a CliConfig field has the field's name
    as its dest, and a bound's default is the field's."""
    p = argparse.ArgumentParser(
        prog="indexify",
        description="Rewrite intractable operators into finite memoized lookup "
                    "tables and symbolically execute over the index algebra.",
    )
    p.add_argument("input_path", metavar="input", help="MiniImp source file (.mi)")
    p.add_argument("--type", dest="indexed_types", choices=sorted(_TYPE_CHOICES),
                   default=type_option(CliConfig.indexed_types),
                   help="types to index (default %(default)s)")
    p.add_argument("--seeds", dest="seeds_file",
                   help="seed file; prevents constant harvesting")
    p.add_argument("--addSeeds", dest="add_seeds_file",
                   help="seed file merged into the seeds, harvested or --seeds")
    p.add_argument("--garden", dest="garden_file",
                   help="load this garden file verbatim instead of building one")
    p.add_argument("--indexOpDefs", dest="iot_file",
                   help="reuse serialized operator tables from this file")
    p.add_argument("--F+", "--F_+", dest="f_plus_names", metavar="FPLUS_FILE",
                   help="file naming the operators to index, one per line")
    p.add_argument("--k", type=int, default=CliConfig.k,
                   help="builder application bound (default %(default)s)")
    p.add_argument("--maxlen", type=int, default=CliConfig.maxlen,
                   help="maximum admitted string length (default %(default)s)")
    p.add_argument("--builder", dest="builder_mode", choices=BUILDER_MODES,
                   default=CliConfig.builder_mode, help="garden growth mode")
    p.add_argument("--baseline", choices=[n for n, m in MODES.items() if m != MODE_INDEXED],
                   help="run the unrewritten program under a baseline policy")
    p.add_argument("--outputIndexedIR", dest="emit_ir", action="store_true",
                   help="write the rewritten source to <input>.indexed.mi")
    p.add_argument("--outdir", help="artifact directory (default <input>.out)")
    p.add_argument("--max-states", type=int, default=CliConfig.max_states,
                   help="exploration state bound (default %(default)s)")
    p.add_argument("--timeout", dest="timeout_s", type=float, default=CliConfig.timeout_s,
                   help="exploration wall-clock bound in seconds (default %(default)s)")
    p.add_argument("--unroll", type=int, default=CliConfig.unroll,
                   help="loop iteration bound (default %(default)s)")
    p.add_argument("--bot-propagate", action="store_true",
                   help="let BOT flow through indexed operators; only branches abandon")
    p.add_argument("--compare", action="store_true",
                   help="run indexed and baseline side by side")
    p.add_argument("--replay", dest="replay_path",
                   help="replay a test case file or directory")
    p.add_argument("--confluence", dest="confluence_trials", type=int,
                   help="probe rewriting confluence with N random orders")
    return p


def config_from_args(args) -> CliConfig:
    """The CliConfig of parsed args: --type names its types and the --F+
    file its operators; every other field is its option's value."""
    values = {f.name: getattr(args, f.name) for f in fields(CliConfig)}
    types = values["indexed_types"] = _TYPE_CHOICES[args.indexed_types]
    if args.f_plus_names is not None:
        values["f_plus_names"] = tuple(sorted(load_fplus_file(args.f_plus_names, types)))
    return CliConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.replay_path:
            return cmd_replay(cfg, args.replay_path)
        if args.confluence_trials is not None:
            return cmd_confluence(cfg, args.confluence_trials)
        if args.compare:
            return cmd_run(cfg, (MODE_INDEXED, MODES[cfg.baseline or "abandon"]))
        return cmd_run(cfg, (MODES[cfg.baseline or "indexed"],))
    except (UsageError, GardenError, IotError, RewriteError, MiniImpError,
            SymexError, OSError) as e:
        print(f"indexify: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"indexify: {args.input_path}: nested too deeply to analyse", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
