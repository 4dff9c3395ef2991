"""One pass over a workload: the user's pipeline, timed, then its checks.

For every job the timed part runs parse -> build_pipeline -> rewrite_pipeline
-> run_mode per mode -> write_artifacts, exactly the calls the CLI makes.
The checks that follow are not timed: every test case must replay through
symex.replay, every non-escaping indexed test case must give the same verdict
and return value on the original and the rewritten program under the
concrete interpreter, and the job's witnesses must hold.  A run checks its
first pass and every traced pass in full; any other pass must repeat the
first pass's signature, which includes a digest of every test case.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
import types
from dataclasses import dataclass, field, replace

from indexify import bench, cli, symex
from indexify.lang import parser
from indexify.lang.interp import VERDICT_ASSERT, VERDICT_ESCAPED, interpret
from indexify.symex import MODE_INDEXED


class MemoryDir:
    """A memory-backed artifact directory.

    write_artifacts formats and writes every file as it would on disk, but
    into this object, so that disk latency, which varies several-fold from
    run to run, stays out of the measurement.
    """

    def __init__(self):
        self.files: dict[str, str] = {}

    def open(self, path, mode="r", encoding=None):
        if "w" not in mode:
            raise ValueError(f"artifact files are written, not read: {path}")
        return _MemFile(self.files, path)

    @staticmethod
    def makedirs(path, exist_ok=False):
        pass

    @contextlib.contextmanager
    def installed(self):
        saved_os = cli.os
        cli.open = self.open  # shadows the builtin inside indexify.cli
        cli.os = types.SimpleNamespace(path=os.path, makedirs=self.makedirs)
        try:
            yield self
        finally:
            del cli.open
            cli.os = saved_os


class _MemFile(io.StringIO):
    def __init__(self, files, path):
        super().__init__()
        self._files, self._path = files, path

    def close(self):
        if not self.closed:
            self._files[self._path] = self.getvalue()
        super().close()


@dataclass
class JobRun:
    job: object
    cfg: object = None
    pipe: object = None
    setup_s: float = 0.0
    explore_s: dict = field(default_factory=dict)  # mode -> seconds
    reports: dict = field(default_factory=dict)    # mode -> ExplorationReport
    attempted: int = 0
    failures: list = field(default_factory=list)

    def signature(self):
        """What must repeat exactly from pass to pass: garden size, table rows,
        and per mode the counts of the report and a digest of its test cases.
        A pass whose signature equals a checked pass's is checked too."""
        if self.pipe is None:
            return None
        return (sum(len(g) for g in self.pipe.gardens.values()),
                sum(len(t.rows) for t in self.pipe.tables.values()),
                tuple((m, r.paths, r.states, r.branch_covered, r.escaped_paths,
                       r.truncated, bugs(r), _digest(r.test_cases))
                      for m, r in sorted(self.reports.items())))


@dataclass
class PassResult:
    runs: list
    verdict_s: float
    artifacts: dict  # path -> text, as written by this pass

    @property
    def setup_s(self) -> float:
        return sum(r.setup_s for r in self.runs)

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.runs)

    @property
    def failures(self) -> list:
        return [f for r in self.runs for f in r.failures]


def _digest(test_cases) -> str:
    h = hashlib.sha256()
    for tc in test_cases:
        h.update(repr((tc.verdict, sorted((k, v.raw) for k, v in tc.inputs.items()),
                       sorted(map(repr, tc.covered_branches)))).encode())
    return h.hexdigest()


def bugs(report) -> int:
    return sum(1 for t in report.test_cases if t.verdict == VERDICT_ASSERT)


def _setup(job, outdir):
    if job.source is None:
        cfg, pipe = bench.load_entry(job.entry)
    else:
        cfg = job.cfg
        pipe = cli.build_pipeline(parser.parse(job.source), cfg)
    cfg = replace(cfg, outdir=outdir)
    cli.rewrite_pipeline(pipe, cfg)
    return cfg, pipe


def _run_job(job, program_id, tracer) -> JobRun:
    run = JobRun(job)
    run.attempted = len(job.modes)
    if tracer is not None:
        tracer.program = program_id
    t0 = time.perf_counter()
    try:
        run.cfg, run.pipe = _setup(job, "mem/" + program_id)
    except Exception as e:  # a job that cannot be set up fails every mode
        run.failures += [f"{job.name}/{m}: setup failed: {type(e).__name__}: {e}"
                         for m in job.modes]
        return run
    run.setup_s = time.perf_counter() - t0
    for mode in job.modes:
        t0 = time.perf_counter()
        try:
            report = cli.run_mode(run.cfg, run.pipe, mode)
        except Exception as e:  # SymexError today on a solver UNKNOWN
            run.failures.append(f"{job.name}/{mode}: {type(e).__name__}: {e}")
            continue
        run.explore_s[mode] = time.perf_counter() - t0
        run.reports[mode] = report
        if report.truncated:
            run.failures.append(f"{job.name}/{mode}: exploration truncated "
                                f"after {report.paths} paths")
    run.attempted += 1
    try:
        cli.write_artifacts(run.cfg, run.pipe, run.reports)
    except Exception as e:
        run.failures.append(f"{job.name}: write_artifacts: {type(e).__name__}: {e}")
    return run


def _check(run: JobRun, tracer) -> None:
    if run.pipe is None:
        return
    cfg, pipe, name = run.cfg, run.pipe, run.job.name
    indexed_kw = dict(gardens=pipe.gardens, tables=pipe.tables)
    for mode, report in run.reports.items():
        target, kw = ((pipe.indexed.program, indexed_kw) if mode == MODE_INDEXED
                      else (pipe.program, {}))
        for tc in report.test_cases:
            run.attempted += 1
            res = symex.replay(target, tc, unroll=cfg.unroll,
                               bot_propagate=cfg.bot_propagate, **kw)
            if not res.ok:
                run.failures.append(f"{name}/{mode}: test case {tc.path_id} "
                                    f"does not replay: {res.detail}")
    indexed = run.reports.get(MODE_INDEXED)
    if indexed is not None:
        with tracer.span("agree") if tracer else contextlib.nullcontext():
            for tc in indexed.test_cases:
                if tc.verdict == VERDICT_ESCAPED:
                    continue
                run.attempted += 1
                orig = interpret(pipe.program, tc.inputs, unroll=cfg.unroll)
                new = interpret(pipe.indexed.program, tc.inputs, unroll=cfg.unroll,
                                bot_propagate=cfg.bot_propagate, **indexed_kw)
                if (orig.verdict, orig.return_value) != (new.verdict, new.return_value):
                    run.failures.append(
                        f"{name}: test case {tc.path_id} disagrees inside the garden: "
                        f"original {orig.verdict}/{orig.return_value}, "
                        f"rewritten {new.verdict}/{new.return_value}")
    run.attempted += 1
    run.failures += [f"{name}: witness: {v}"
                     for v in bench.check_witnesses(run.job.entry, run.reports)]


def time_setup(jobs) -> float:
    """Seconds to set every job of the workload up once more."""
    t0 = time.perf_counter()
    for job in jobs:
        _setup(job, "mem/setup")
    return time.perf_counter() - t0


def run_pass(jobs, pass_no: int, tracer=None, check=True) -> PassResult:
    memdir = MemoryDir()
    with memdir.installed():
        t0 = time.perf_counter()
        runs = [_run_job(job, f"{pass_no}:{job.name}", tracer) for job in jobs]
        verdict_s = time.perf_counter() - t0
    for run in runs if check else ():
        if tracer is not None:
            tracer.program = f"{pass_no}:{run.job.name}"
        try:
            _check(run, tracer)
        except Exception as e:  # a check that crashes fails, and the run goes on
            run.attempted += 1
            run.failures.append(f"{run.job.name}: checks: {type(e).__name__}: {e}")
    return PassResult(runs, verdict_s, memdir.files)

