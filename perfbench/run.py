"""Benchmark of the indexify pipeline: time to verdict, set-up and memory.

    python3 perfbench/run.py --workload vars_deep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ./src; the
benchmark's own modules sit next to this file.  One run repeats passes over
the workload (see pipeline.py) until --seconds have gone by, and reports
medians over the passes.  With --trace 0 it prints the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and prints the
per-layer metrics, derived from spans recorded around the calls into each
layer (spans.py), and writes the spans to .bench_out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

METRICS.md lists every metric and which workload each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "indexify", "__init__.py")):
        print(f"run.py: no indexify sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    import metrics

    jobs = workloads.make_jobs(args.workload, args.seed)
    spans_path = None
    if args.trace:
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        spans_path = os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl")
    result, lines = metrics.run(jobs, args.seconds, bool(args.trace), spans_path)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
