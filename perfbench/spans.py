"""Spans around the calls the pipeline makes, recorded from outside the package.

A Tracer replaces module attributes of the package with timing wrappers for
the length of a `with tracer.installed():` block and restores them after.
Each call becomes a span (name, start, end, parent, program); spans stay in
memory until the run ends and write() puts them in a file.  Table lookups are too frequent
for a span each, so they are only counted and timed.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from indexify import bench, cli, rewrite, solver, symex
from indexify.iot import IndexedOperatorTable
from indexify.lang import parser

# (module, attribute, span name): every name the pipeline resolves at call time.
TARGETS = (
    (parser, "parse", "parse"),
    (bench, "parse", "parse"),
    (cli, "typecheck", "typecheck"),
    (rewrite, "typecheck", "typecheck"),
    (cli, "harvest_seeds", "harvest_seeds"),
    (cli, "build_garden", "build_garden"),
    (cli, "memoise_all", "memoise_all"),
    (cli, "normalize", "normalize"),
    (rewrite, "find_redexes", "find_redexes"),
    (rewrite, "apply_rule", "apply_rule"),
    (cli, "explore", "explore"),
    (cli, "explore_baseline", "explore_baseline"),
    (solver, "solve", "solve"),
    (solver, "simplify", "simplify"),
    (solver, "entailed_pins", "entailed_pins"),
    (cli, "write_artifacts", "write_artifacts"),
    (symex, "replay", "replay"),
)
EXPLORE = ("explore", "explore_baseline")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, program]
        self.stack: list[int] = []
        self.program = None  # identifier shared by the spans of one program
        self.exploring = 0
        self.lookups = 0
        self.lookup_s = 0.0
        self.touched: set = set()
        self.solve_status: dict = defaultdict(int)

    def _open(self, name) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else None, self.program])
        self.stack.append(sid)
        return sid

    def _close(self, sid) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if name == "solve":
                self.solve_status[out.status] += 1
            return out

        def traced_explore(*args, **kwargs):
            self.exploring += 1
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                self.exploring -= 1

        return traced_explore if name in EXPLORE else traced

    def _wrap_lookup(self, fn):
        def lookup(table, key):
            if not self.exploring:
                return fn(table, key)
            t0 = time.perf_counter()
            out = fn(table, key)
            self.lookup_s += time.perf_counter() - t0
            self.lookups += 1
            self.touched.add((table.indexed_name, key))
            return out

        return lookup

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        saved_lookup = IndexedOperatorTable.lookup
        try:
            for mod, attr, name in TARGETS:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            IndexedOperatorTable.lookup = self._wrap_lookup(saved_lookup)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            IndexedOperatorTable.lookup = saved_lookup

    # -- derived figures -------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += t1 - t0
            own[name] += t1 - t0 - child[sid]
        return calls, incl, own


def write(path: str, passes) -> None:
    """Write the spans of every traced pass, one JSON array per line:
    [pass, id, name, start, end, parent, program]; ids are per pass."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["pass", "id", "name", "start", "end", "parent",
                             "program"]) + "\n")
        for label, spans in passes:
            for sid, span in enumerate(spans):
                fh.write(json.dumps([label, sid, *span]) + "\n")
