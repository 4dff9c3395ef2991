"""The paper's experiment: the emitted .indexed.mi, where each indexed
operator is a user function of if-chains over garden indices, explored by
the unmodified engines with the gardens and no tables.

A behaviour is a test case's verdict and its branch trace restricted to the
original program's functions.  Indexed mode on the emitted program shows
exactly the behaviours of the table run.  Abandon shows a subset: it ends a
path where a builtin outside F+ reads unidx() of a symbolic index.  Every test
case replays on the emitted program, and every one that does not escape agrees
with the original program.
"""

import random
from dataclasses import replace

import pytest

from indexify.bench import CORPUS, load_entry
from indexify.check import check_case
from indexify.cli import explore_config, run_mode
from indexify.lang.parser import parse
from indexify.lang.typecheck import typecheck
from indexify.rewrite import emit_indexed_source, normalize
from indexify.symex import MODE_ABANDON, MODE_INDEXED, ExploreConfig, explore, explore_baseline

from conftest import build_cfg
from test_fuzz import ORACLE_INT_DOMAIN, ORACLE_UNROLL, ProgramGen


def _behaviours(rep, names):
    return {(tc.verdict, frozenset(b for b in tc.covered_branches if b[0][0] in names))
            for tc in rep.test_cases}


def _run_emitted(emitted, program, cfg):
    """Explore emitted under cfg; check that every test case replays on it
    and that every one that does not escape agrees with program."""
    run = explore if cfg.mode == MODE_INDEXED else explore_baseline
    rep = run(emitted, cfg)
    for tc in rep.test_cases:
        assert check_case(tc, emitted, program, gardens=cfg.gardens,
                          unroll=cfg.unroll) is None, (cfg.mode, tc)
    return rep


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_emitted_corpus_program_keeps_every_behaviour(entry):
    # the table run and the abandon run take the CLI's configurations; on
    # the corpus abandon loses no behaviour
    cfg, pipe = load_entry(entry)
    names = {f.name for f in pipe.program.functions}
    want = _behaviours(run_mode(cfg, pipe, MODE_INDEXED), names)
    emitted = typecheck(parse(emit_indexed_source(pipe.indexed)))
    for ecfg in (replace(explore_config(cfg, pipe, MODE_INDEXED), tables={}),
                 explore_config(cfg, pipe, MODE_ABANDON)):
        rep = _run_emitted(emitted, pipe.program, ecfg)
        assert not rep.truncated
        assert _behaviours(rep, names) == want, ecfg.mode


def test_emitted_random_programs_keep_every_behaviour():
    # an emitted run can take 100 times the table run's states, so each run
    # is capped; a truncated run is checked for a subset only, and counted
    rng = random.Random(1)
    truncated = lost = 0  # lost: programs where abandon loses a behaviour
    for trial in range(15):
        src = ProgramGen(rng, extended=True).program()
        f_plus = rng.sample(["strcat", "strstr", "strcmp", "strncmp", "strlen",
                             "substr"], rng.randint(1, 4))
        program = typecheck(parse(src))
        rcfg = build_cfg(program, f_plus, k=rng.randint(0, 2), maxlen=3)
        res = normalize(program, rcfg)
        base = ExploreConfig(gardens=rcfg.gardens, unroll=ORACLE_UNROLL,
                             int_domain=ORACLE_INT_DOMAIN, max_states=10_000)
        table = explore(res.program, replace(base, tables=rcfg.tables))
        assert not table.truncated, src
        names = {f.name for f in program.functions}
        want = _behaviours(table, names)
        emitted = typecheck(parse(emit_indexed_source(res)))
        for mode in (MODE_INDEXED, MODE_ABANDON):
            rep = _run_emitted(emitted, program, replace(base, mode=mode))
            got = _behaviours(rep, names)
            assert got <= want, (src, mode)
            truncated += rep.truncated
            if mode == MODE_INDEXED and not rep.truncated:
                assert got == want, src
            elif mode == MODE_ABANDON:
                lost += got != want
    assert truncated == 1  # one emitted indexed run needs 15,511 states
    assert lost == 12
