"""Seeded workload generators.

Every workload is a list of jobs.  A job is one MiniImp program with the
configuration it is run under and the modes it is explored in.  The generated
families draw their literals from the seed, but their shape does not depend
on it: two seeds give programs that differ only by a renaming of bytes, so
garden size, table rows, rewrite steps, paths and bugs repeat exactly.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from indexify import bench
from indexify.cli import CliConfig
from indexify.lang.ast import STR
from indexify.symex import MODE_ABANDON, MODE_CONCRETIZE, MODE_INDEXED

# Exploration budgets sit far above what any job needs, so a truncation is a
# failure of the program, never of the budget.
MAX_STATES = 1_000_000
TIMEOUT_S = 150.0

VARS_N = 6
VARS_POOL = 3
FLAGS_N = 200
GARDEN_SEEDS = 3
GARDEN_K = 2
GARDEN_MAXLEN = 8
STRING_OPS = ("strcat", "strcmp", "strlen", "strncmp", "strstr", "substr")


@dataclass(frozen=True)
class Job:
    name: str
    modes: tuple
    entry: bench.CorpusEntry       # the witnesses the job's reports must show
    source: str | None = None      # generated program text; None: a corpus entry
    cfg: CliConfig | None = None   # the generated program's configuration


# A generated program plants a bug that only indexed mode reaches.  Its
# category is not string-heavy: the corpus claim that simplification drops
# atoms is made for the shipped entries, and a single strcmp per variable
# (vars_deep) leaves nothing to drop.
GENERATED_WITNESSES = ("bug-indexed-only", "coverage-gt")


def _generated(name: str, source: str, cfg: CliConfig) -> Job:
    entry = bench.CorpusEntry(name, "generated", GENERATED_WITNESSES)
    return Job(name, (MODE_INDEXED, MODE_ABANDON), entry, source, cfg)


def _cfg(name: str, f_plus, k: int, maxlen: int = 8) -> CliConfig:
    return CliConfig(input_path=name + ".mi", indexed_types=(STR,),
                     f_plus_names=tuple(f_plus), k=k, maxlen=maxlen,
                     max_states=MAX_STATES, timeout_s=TIMEOUT_S)


def vars_deep_source(rng: random.Random, n: int = VARS_N) -> str:
    """n symbolic strings, each compared once against a one-byte literal.

    Every pool literal occurs at least once, so the garden is the pool plus
    "" whatever the seed.  The assert fails only when every comparison
    matched: one bug, at the deepest path.
    """
    pool = rng.sample(string.ascii_lowercase, VARS_POOL)
    lits = pool + [rng.choice(pool) for _ in range(n - VARS_POOL)]
    rng.shuffle(lits)
    lines = ["int main() {"]
    for i in range(n):
        lines += [f"  str s{i};", f"  symbolic s{i};"]
    lines.append("  int hits = 0;")
    for i, lit in enumerate(lits):
        lines += [f'  if (strcmp(s{i}, "{lit}") == 0) {{',
                  "    hits = hits + 1;", "  }"]
    lines += [f"  assert(hits != {n});", "  return hits;", "}"]
    return "\n".join(lines) + "\n"


def flags_wide_source(rng: random.Random, n: int = FLAGS_N) -> str:
    """One symbolic string compared against n distinct flags; one flag trips
    an assert."""
    flags: list[str] = []
    seen = set()
    while len(flags) < n:
        f = "-" + "".join(rng.choices(string.ascii_lowercase, k=3))
        if f not in seen:
            seen.add(f)
            flags.append(f)
    trap = rng.randrange(1, n + 1)
    lines = ["int main() {", "  str flag;", "  symbolic flag;", "  int r = 0;"]
    for i, f in enumerate(flags, 1):
        lines += [f'  if (strcmp(flag, "{f}") == 0) {{', f"    r = {i};", "  }"]
    lines += [f"  assert(r != {trap});", "  return r;", "}"]
    return "\n".join(lines) + "\n"


def garden_memo_source(rng: random.Random) -> str:
    """Three two-byte seeds ("xx" for seeded letters x) feeding all six string
    operators; the int literals make the pool 0..5.  The assert fails on the
    inputs that start with the third seed, contain the second, and are at
    least six bytes long."""
    a, b, c = (ch * 2 for ch in rng.sample(string.ascii_lowercase, GARDEN_SEEDS))
    return f"""\
int main() {{
  str s;
  symbolic s;
  int r = 0;
  str t = strcat(s, "{a}");
  if (strcmp(t, "{a}") == 0) {{
    r = 1;
  }}
  if (strstr(s, "{b}")) {{
    r = r + 2;
  }}
  if (strncmp(s, "{c}", 2) == 0) {{
    r = r + 3;
  }}
  str u = substr(s, 2, 4);
  if (strlen(u) == 4) {{
    assert(r != 5);
  }}
  return r;
}}
"""


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "vars_deep":
        return [_generated(workload, vars_deep_source(rng),
                           _cfg(workload, ("strcmp",), k=0))]
    if workload == "flags_wide":
        return [_generated(workload, flags_wide_source(rng),
                           _cfg(workload, ("strcmp",), k=0))]
    if workload == "garden_memo":
        return [_generated(workload, garden_memo_source(rng),
                           _cfg(workload, STRING_OPS, k=GARDEN_K,
                                maxlen=GARDEN_MAXLEN))]
    if workload == "corpus":
        # The shipped corpus is fixed; the seed only orders the programs.
        entries = list(bench.CORPUS)
        rng.shuffle(entries)
        modes = (MODE_INDEXED, MODE_ABANDON, MODE_CONCRETIZE)
        return [Job(e.name, modes, e) for e in entries]
    raise KeyError(workload)


WORKLOADS = ("vars_deep", "garden_memo", "flags_wide", "corpus")
