"""Repeated passes over a workload, and the metrics derived from them."""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from dataclasses import dataclass

import pipeline as pt
from indexify import solver
from indexify.lang.ast import BinOp, Call, If, UnOp, While
from indexify.symex import MODE_ABANDON, MODE_INDEXED
from spans import EXPLORE, Tracer, write as write_spans

MIN_PASSES = 3
# The host alternates, for seconds at a time, between speeds up to 1.5x apart
# as neighbours load its shared cores, which moves a median over passes by
# more than any bound could allow.  So every time is scaled to a reference
# speed: a fixed pure-Python loop is timed right before and right after each
# pass, and the pass's times are multiplied by REFERENCE_S over the mean of
# the two.  Times are thus seconds at the reference speed.
CALIBRATION_LOOP = 300_000
REFERENCE_S = 0.02  # the loop's time on an unloaded core of a 2-core x86-64 VM
SETUP_REPEATS = 20
SETUP_REPEAT_SHARE = 0.1

END_TO_END_UNITS = {
    "verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "program_verdict_ms.p50": "ms",
    "program_verdict_ms.p90": "ms",
    "branch_cov": "ratio",
    "cov_lift": "ratio",
    "bugs_found": "count",
    "in_garden_ratio": "ratio",
}


def tail_percentile(n: int) -> int:
    """The highest percentile, up to 90, with at least ten of n samples
    beyond it; 50 when none above the median has."""
    for pct in range(90, 50, -1):
        if n * (100 - pct) >= 1000:
            return pct
    return 50


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class PassSummary:
    """What a run keeps of one pass, so that only one pass is alive at a time."""

    verdict_s: float   # wall time
    setups: list       # workload set-up times: the pass's own, then repeats
    samples: dict      # (program, mode) -> time to that verdict, in ms
    attempted: int
    failures: list
    signature: list    # counts that must repeat exactly in every pass
    counts: dict       # coverage, bugs and escapes of the pass
    layers: dict | None = None  # per-layer figures of a traced pass
    scale: float = 1.0  # REFERENCE_S over the calibration loop's time


def summarize(result, scale: float, tracer=None) -> PassSummary:
    runs = result.runs
    indexed = [r.reports[MODE_INDEXED] for r in runs if MODE_INDEXED in r.reports]
    abandon = [r.reports[MODE_ABANDON] for r in runs if MODE_ABANDON in r.reports]
    paths = sum(r.paths for r in indexed)
    escaped = sum(r.escaped_paths for r in indexed)
    cov = statistics.mean(r.branch_cov for r in indexed) if indexed else 0.0
    counts = {
        "branch_cov": cov,
        "cov_lift": cov - statistics.mean(r.branch_cov for r in abandon)
        if indexed and abandon else 0.0,
        "bugs_found": sum(pt.bugs(r) for r in indexed),
        "in_garden_ratio": 1 - escaped / paths if paths else 0.0,
        "escaped_ratio": escaped / paths if paths else 0.0,
    }
    # a program's time to one mode's verdict: its set-up plus that exploration
    samples = {(r.job.name, m): 1000 * (r.setup_s + s)
               for r in runs for m, s in r.explore_s.items()}
    layers = None
    if tracer is not None:
        layers = {k: v * scale if unit_of(k) == "s" else
                  v / scale if unit_of(k) == "1/s" else v
                  for k, v in layer_metrics(result, tracer).items()}
    return PassSummary(
        verdict_s=result.verdict_s, setups=[result.setup_s], samples=samples,
        attempted=result.attempted, failures=result.failures,
        signature=[r.signature() for r in runs], counts=counts,
        layers=layers, scale=scale)


def repeat_setup(jobs, summary: PassSummary) -> None:
    """Set the workload up again, untimed for verdict_s, while the repeats
    cost at most SETUP_REPEAT_SHARE of the pass: a cheap set-up is measured
    many times, an expensive one once per pass."""
    cost = summary.setups[0]
    gc.collect()
    while (len(summary.setups) <= SETUP_REPEATS
           and len(summary.setups) * cost <= SETUP_REPEAT_SHARE * summary.verdict_s):
        summary.setups.append(pt.time_setup(jobs))


def end_to_end(passes):
    # one sample per (program, mode): its median over passes
    per_pair: dict = {}
    for p in passes:
        for pair, ms in p.samples.items():
            per_pair.setdefault(pair, []).append(ms * p.scale)
    samples = sorted(statistics.median(v) for v in per_pair.values())
    tail = tail_percentile(len(samples))
    metrics = {
        "verdict_s": statistics.median(p.verdict_s * p.scale for p in passes),
        "setup_s": statistics.median(x * p.scale for p in passes for x in p.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "program_verdict_ms.p50": statistics.median(samples) if samples else 0.0,
        "program_verdict_ms.p90": percentile(samples, tail) if samples else 0.0,
    }
    # counts repeat in every pass (checked in measure), so any pass will do
    counts = dict(passes[-1].counts)
    notes = {"escaped_ratio": counts.pop("escaped_ratio"),
             "program_verdict_ms.samples": len(samples),
             "program_verdict_ms.p90.percentile": tail,
             "setup_s.samples": sum(len(p.setups) for p in passes),
             "passes": len(passes),
             "verdict_s.wall": statistics.median(p.verdict_s for p in passes),
             "host.speed": statistics.median(p.scale for p in passes)}
    return {**metrics, **counts}, notes


def measure(jobs, seconds: float, trace: bool, spans_path: str | None):
    """Repeat passes until `seconds` have gone by.  Traced runs alternate
    untraced and traced passes, so the overhead is measured in the same run."""
    plain, traced, drift, span_log = [], [], [], []
    start = time.perf_counter()
    for n in itertools.count():
        gc.collect()
        before = calibrate()
        if trace and n % 2:
            tracer = Tracer()
            with tracer.installed():
                result = pt.run_pass(jobs, n, tracer)
            scale = 2 * REFERENCE_S / (before + calibrate())
            summary = summarize(result, scale, tracer)
            span_log.append((n, tracer.spans))
            del tracer, result
            traced.append(summary)
        else:
            result = pt.run_pass(jobs, n, check=not plain)
            scale = 2 * REFERENCE_S / (before + calibrate())
            summary = summarize(result, scale)
            del result
            if all(summary.signature):  # every job was set up
                repeat_setup(jobs, summary)
            plain.append(summary)
        if summary.signature != plain[0].signature:
            drift.append(f"pass {n}: counts differ from pass 0: "
                         f"{summary.signature} != {plain[0].signature}")
        if not plain or (trace and not traced):
            continue
        elapsed = time.perf_counter() - start
        if elapsed >= 3 * seconds or (
                elapsed >= seconds and (trace or len(plain) >= MIN_PASSES)):
            if spans_path:
                write_spans(spans_path, span_log)
            return plain, traced, drift


def layer_metrics(result, tracer) -> dict:
    """Per-layer figures of one traced pass."""
    calls, incl, own = tracer.totals()
    runs = [r for r in result.runs if r.pipe is not None]
    reports = [rep for r in runs for rep in r.reports.values()]
    forks = [w for r in runs if MODE_INDEXED in r.reports
             for w in r.reports[MODE_INDEXED].iot_fork_sizes]
    rows = sum(len(t.rows) for r in runs for t in r.pipe.tables.values())
    explore_s = sum(incl[n] for n in EXPLORE)
    paths = sum(rep.paths for rep in reports)
    files = result.artifacts
    return {
        "lang.parse_s": incl["parse"],
        "lang.typecheck_s": incl["typecheck"],
        "lang.ast_nodes": sum(ast_nodes(r.pipe.program) for r in runs),
        "garden.harvest_s": incl["harvest_seeds"],
        "garden.grow_s": incl["build_garden"],
        "garden.size": sum(len(g) for r in runs for g in r.pipe.gardens.values()),
        "iot.memoise_s": incl["memoise_all"],
        "iot.rows": rows,
        "iot.bot_rows": sum(t.bot_rows for r in runs for t in r.pipe.tables.values()),
        "iot.lookups": tracer.lookups,
        "iot.lookup_s": tracer.lookup_s,
        "iot.rows_touched": len(tracer.touched),
        "iot.touched_ratio": len(tracer.touched) / rows if rows else 0.0,
        "rewrite.normalize_s": incl["normalize"],
        "rewrite.steps": calls["apply_rule"],
        "rewrite.find_redexes_calls": calls["find_redexes"],
        "rewrite.find_redexes_s": incl["find_redexes"],
        "solver.solve_calls": calls["solve"],
        "solver.solve_s": incl["solve"],
        "solver.sat_ratio": (tracer.solve_status[solver.SAT] / calls["solve"]
                             if calls["solve"] else 0.0),
        "solver.unknowns": tracer.solve_status[solver.UNKNOWN],
        "solver.simplify_calls": calls["simplify"],
        "solver.simplify_s": incl["simplify"],
        "solver.entailed_pins_calls": calls["entailed_pins"],
        "solver.entailed_pins_s": incl["entailed_pins"],
        "solver.atoms_sent": sum(rep.atoms_sent for rep in reports),
        "symex.explore_s": explore_s,
        "symex.self_s": sum(own[n] for n in EXPLORE) - tracer.lookup_s,
        "symex.paths": paths,
        "symex.states": sum(rep.states for rep in reports),
        "symex.paths_per_s": paths / explore_s if explore_s else 0.0,
        "symex.atoms_generated": sum(rep.atoms_generated for rep in reports),
        "symex.fork_width.mean": statistics.mean(forks) if forks else 0.0,
        "symex.fork_width.max": max(forks, default=0),
        "cli.write_artifacts_s": incl["write_artifacts"],
        "cli.artifact_bytes": sum(len(t.encode("utf-8")) for t in files.values()),
        "cli.testcase_files": sum(1 for p in files if p.endswith(".tc")),
        "check.replay_s": incl["replay"],
        "check.agree_s": incl["agree"],
        "trace.setup_s": result.setup_s,
        "trace.verdict_s": result.verdict_s,
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def ast_nodes(program) -> int:
    """Functions, parameters, statements and expression nodes."""
    def expr(e):
        if isinstance(e, BinOp):
            return 1 + expr(e.left) + expr(e.right)
        if isinstance(e, UnOp):
            return 1 + expr(e.operand)
        if isinstance(e, Call):
            return 1 + sum(expr(a) for a in e.args)
        return 1

    def block(body):
        n = 0
        for s in body:
            n += 1 + sum(expr(getattr(s, a)) for a in ("init", "value", "cond", "expr")
                         if getattr(s, a, None) is not None)
            if isinstance(s, If):
                n += block(s.then) + block(s.orelse)
            elif isinstance(s, While):
                n += block(s.body)
        return n

    return sum(1 + len(f.params) + block(f.body) for f in program.functions)


def run(jobs, seconds: float, trace: bool, spans_path: str | None):
    """Measure, then return the result object and the human-readable lines."""
    plain, traced, drift = measure(jobs, seconds, trace, spans_path)
    everything = plain + traced
    failures = [f for p in everything for f in p.failures] + drift
    # every pass after the first is one more operation: its counts must repeat
    attempted = sum(p.attempted for p in everything) + len(everything) - 1
    e2e, notes = end_to_end(plain)
    if trace:
        layers = [p.layers for p in traced]
        metrics = {k: statistics.median(x[k] for x in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = metrics["trace.verdict_s"] - e2e["verdict_s"]
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics, units = e2e, END_TO_END_UNITS
    lines = [f"FAILED {f}" for f in failures[:20]]
    lines += [f"{k} {v:.6g} {END_TO_END_UNITS.get(k, '')}".rstrip()
              for k, v in {**e2e, **notes}.items()]
    lines.append(f"failed_ratio {len(failures) / attempted:.6g} ratio "
                 f"({len(failures)} of {attempted})")
    if trace:
        lines += [f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines
