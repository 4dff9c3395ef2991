"""The paper's run invariants, checked on the test cases a run emits.

Indexify maps a finite part of the program's algebra of expressions to
indices augmented with BOT, so inside the garden a rewritten run that does
not escape behaves as the original.  A run's behaviour is its verdict,
return value and outputs, and the branch edges it covers in the original
program's functions: an emitted .indexed.mi adds i_* functions, whose
if-chains are table rows, not branches of the program.

check_runs checks a run's reports and returns one finding per broken
invariant, naming its mode and test case:

    replay diverged              the test case's replay on the program its
                                 mode explored gives another verdict or
                                 branch trace
    disagrees inside the garden  an indexed test case's rewritten run does
                                 not escape and behaves otherwise than the
                                 original program
    emitted source differs       the emitted source, run with the gardens,
                                 behaves otherwise than the in-memory tables
"""

from __future__ import annotations

from .lang.ast import symbolic_inputs
from .lang.interp import UNROLL, VERDICT_ESCAPED, interpret
from .lang.parser import parse
from .rewrite import emit_indexed_source
from .symex import MODE_INDEXED, compare_replay


def behaviour(res, functions) -> tuple:
    """What the interpreter run res shows: its verdict, return value and
    outputs, and the branch edges it covered in the named functions."""
    return (res.verdict, res.return_value, res.outputs,
            frozenset(b for b in res.covered_branches if b[0][0] in functions))


def agrees(original, rewritten, inputs, *, unroll: int = UNROLL, **kw) -> bool | None:
    """Whether the rewritten program's run on inputs shows the original's
    behaviour: None when it escapes the garden, where there is nothing to
    compare.  kw (gardens, tables, bot_propagate) is for the rewritten run."""
    return _agrees(original, interpret(rewritten, inputs, unroll=unroll, **kw), inputs, unroll)


def _agrees(original, new, inputs, unroll: int, input_types=None) -> bool | None:
    """agrees, given new, the rewritten program's run on inputs; input_types
    is the original program's inputs table, or None to work it out."""
    if new.verdict == VERDICT_ESCAPED:
        return None
    names = {f.name for f in original.functions}
    return behaviour(new, names) == behaviour(
        interpret(original, inputs, unroll=unroll, input_types=input_types), names)


def check_case(tc, explored, original=None, **kw) -> str | None:
    """The finding on test case tc, or None: tc replays on explored, the
    program it was explored on, and, given the original program, a run of
    explored on its inputs agrees with it.  kw is interpret's."""
    return _finding(tc, interpret(explored, tc.inputs, **kw), original,
                    kw.get("unroll", UNROLL))


def _finding(tc, res, original, unroll: int, input_types=None) -> str | None:
    """check_case's finding, given res, the run of explored on tc's inputs;
    input_types is _agrees'."""
    rep = compare_replay(tc, res)
    if not rep.ok:
        return f"replay diverged ({rep.detail})"
    if original is not None and \
            _agrees(original, res, tc.inputs, unroll, input_types) is False:
        return "disagrees inside the garden"
    return None


def check_runs(cfg, pipe, reports: dict) -> list:
    """The findings on every test case of reports (mode -> report), the run
    of cfg (a cli.CliConfig) on pipe (a cli.Pipeline).  Each test case must
    replay; an indexed one must agree with the original program and, unless
    cfg.bot_propagate lets BOT flow on as the emitted source cannot, behave
    in the emitted source as under the in-memory tables.  Each program runs
    at most once per test case, and its inputs table is worked out once."""
    findings = []
    names = {f.name for f in pipe.program.functions}
    original_types = symbolic_inputs(pipe.program)
    for mode, report in reports.items():
        indexed = mode == MODE_INDEXED
        explored, tables = pipe.target(mode)
        explored_types = original_types if explored is pipe.program else \
            symbolic_inputs(explored)
        original = pipe.program if indexed else None
        emitted = emitted_types = None
        if indexed and not cfg.bot_propagate:
            emitted = parse(emit_indexed_source(pipe.indexed))
            emitted_types = symbolic_inputs(emitted)
        for tc in report.test_cases:
            res = interpret(explored, tc.inputs, gardens=pipe.gardens, tables=tables,
                            unroll=cfg.unroll, bot_propagate=cfg.bot_propagate,
                            input_types=explored_types)
            found = [_finding(tc, res, original, cfg.unroll, original_types)]
            if emitted is not None:
                out = interpret(emitted, tc.inputs, gardens=pipe.gardens, unroll=cfg.unroll,
                                input_types=emitted_types)
                if behaviour(out, names) != behaviour(res, names):
                    found.append("emitted source differs")
            findings += [f"{mode} test case {tc.path_id}: {f}" for f in found if f]
    return findings
