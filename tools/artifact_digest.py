"""Digest of everything the benchmark workloads write.

    python3 tools/artifact_digest.py > digest.json

Runs every job of perfbench/workloads.py at seeds 1 and 2 through the calls
the command line makes (build_pipeline, rewrite_pipeline, run_mode per mode,
write_artifacts) with --outputIndexedIR on, writing the artifacts into a
temporary directory.  It prints one JSON object: the sha256 of every file
written, every counter of every report, a digest of each report's test
cases, and each job's rewriting: how many times it called
rewrite.find_redexes and rewrite.apply_rule, and one sha256 over every redex
list find_redexes returned, in call order.  Run it in two checkouts and diff
the outputs to check that a change keeps every artifact, counter, test case
and redex sequence.  The program is imported from the checkout's src/ and
the workloads from its perfbench/, which is only read.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import fields, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from indexify import bench, cli, rewrite  # noqa: E402
from indexify.lang.parser import parse  # noqa: E402

SEEDS = (1, 2)
UNCOUNTED = ("mode", "test_cases", "elapsed_s")  # not counters, or not repeatable


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_case_digest(test_cases) -> str:
    """One hash over each test case's id, verdict, inputs and branch trace."""
    h = hashlib.sha256()
    for tc in test_cases:
        inputs = sorted((name, repr(v.tag), repr(v.raw)) for name, v in tc.inputs.items())
        h.update(repr((tc.path_id, tc.verdict, inputs,
                       sorted(map(repr, tc.covered_branches)))).encode())
    return h.hexdigest()


def counters(report) -> dict:
    out = {f.name: getattr(report, f.name) for f in fields(report)
           if f.name not in UNCOUNTED}
    out["iot_fork_sizes"] = _sha256(repr(report.iot_fork_sizes).encode())
    out["test_cases"] = test_case_digest(report.test_cases)
    return out


@contextmanager
def rewriting_recorded():
    """Yield a dict that counts the find_redexes and apply_rule calls made in
    the block and hashes every redex list find_redexes returns, in order."""
    tally = {"find_redexes": 0, "apply_rule": 0}
    h = hashlib.sha256()
    find_redexes, apply_rule = rewrite.find_redexes, rewrite.apply_rule

    def recorded_find(*args, **kwargs):
        out = find_redexes(*args, **kwargs)
        tally["find_redexes"] += 1
        h.update(repr(out).encode())
        return out

    def recorded_apply(*args, **kwargs):
        tally["apply_rule"] += 1
        return apply_rule(*args, **kwargs)

    rewrite.find_redexes, rewrite.apply_rule = recorded_find, recorded_apply
    try:
        yield tally
    finally:
        rewrite.find_redexes, rewrite.apply_rule = find_redexes, apply_rule
        tally["redexes"] = h.hexdigest()


def run_job(job, outdir: str) -> dict:
    """Run one job with its artifacts under outdir; its reports' counters."""
    if job.source is None:
        cfg, pipe = bench.load_entry(job.entry)
    else:
        cfg = job.cfg
        pipe = cli.build_pipeline(parse(job.source), cfg)
    cfg = replace(cfg, outdir=outdir, emit_ir=True,
                  input_path=os.path.join(outdir, os.path.basename(cfg.input_path)))
    cli.rewrite_pipeline(pipe, cfg)
    reports = {mode: cli.run_mode(cfg, pipe, mode) for mode in job.modes}
    cli.write_artifacts(cfg, pipe, reports)
    return {mode: counters(r) for mode, r in reports.items()}


def digest() -> dict:
    files, reports, rewriting = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload in workloads.WORKLOADS:
                for job in workloads.make_jobs(workload, seed):
                    where = f"{seed}/{workload}/{job.name}"
                    with rewriting_recorded() as rewriting[where]:
                        reports[where] = run_job(job, os.path.join(tmp, where))
        for folder, _, names in os.walk(tmp):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, tmp)] = _sha256(fh.read())
    return {"file_count": len(files), "files": files, "reports": reports,
            "rewriting": rewriting}


if __name__ == "__main__":
    json.dump(digest(), sys.stdout, indent=1, sort_keys=True)
    print()
