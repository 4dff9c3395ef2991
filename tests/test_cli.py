import os
import re

import pytest

from indexify.bench import corpus_path
from indexify.cli import main
from indexify.garden import load_gardens
from indexify.lang.ast import mk_str
from indexify.lang.interp import interpret
from indexify.lang.parser import parse
from indexify.lang.typecheck import typecheck

from conftest import FIG4A_SOURCE, FIG5_GARDEN_TEXT


@pytest.fixture
def fig4a_file(tmp_path):
    p = tmp_path / "fig4a.mi"
    p.write_text(FIG4A_SOURCE)
    return str(p)


@pytest.fixture
def fig5_file(tmp_path):
    p = tmp_path / "garden.txt"
    p.write_text(FIG5_GARDEN_TEXT)
    return str(p)


@pytest.fixture
def fplus_file(tmp_path):
    p = tmp_path / "ops.txt"
    p.write_text("strstr\n")
    return str(p)


def run_cli(*args):
    if "--k" not in args and "--builder" not in args:
        args = args + ("--k", "1")
    return main(list(args))


def test_run_with_garden_and_fplus(fig4a_file, fig5_file, fplus_file, tmp_path, capsys):
    out = str(tmp_path / "art")
    code = run_cli("--type", "string", fig4a_file, "--garden", fig5_file,
                   "--F+", fplus_file, "--outdir", out, "--outputIndexedIR")
    assert code == 0
    emitted = open(fig4a_file + ".indexed.mi").read()
    assert "i_strstr(s1, 2@str)" in emitted
    typecheck(parse(emitted))
    # the explicit garden's indices are honoured verbatim
    assert open(os.path.join(out, "garden.txt")).read() == FIG5_GARDEN_TEXT


def test_exit_one_on_assertion_failure(tmp_path, capsys):
    out = str(tmp_path / "art")
    code = run_cli("--type", "string", corpus_path("vendor_check"),
                   "--outdir", out)
    assert code == 1
    report = open(os.path.join(out, "report.indexed.txt")).read()
    assert "verdict=assertion-failure" in report


@pytest.mark.parametrize("source, baseline, suffix", [
    # the concretized model pins n to 0
    ("int main(){ int n; symbolic n; return 10 / n; }", ("--baseline", "concretize"),
     "concretize"),
    ("int main(){ int z = 0; return 1 % z; }", (), "indexed"),
])
def test_division_by_zero_ends_the_path(source, baseline, suffix, tmp_path, capsys):
    # a zero divisor is a verdict of a well-formed program, not bad input
    prog = tmp_path / "div.mi"
    prog.write_text(source)
    out = str(tmp_path / "art")
    assert run_cli("--type", "string", str(prog), "--outdir", out, *baseline) == 0
    report = open(os.path.join(out, f"report.{suffix}.txt")).read()
    assert "verdict=division-by-zero" in report
    tc_dir = os.path.join(out, f"testcases.{suffix}")
    assert run_cli("--type", "string", str(prog), "--replay", tc_dir,
                   "--outdir", out, *baseline) == 0
    assert "verdict=division-by-zero" in capsys.readouterr().out


def test_exit_two_on_usage_error(tmp_path, capsys):
    assert run_cli("--type", "string", str(tmp_path / "missing.mi")) == 2
    bad = tmp_path / "bad.mi"
    bad.write_text("int main(){ return x; }")
    assert run_cli("--type", "string", str(bad)) == 2


def test_exit_two_on_empty_garden(tmp_path, capsys):
    # no float literals to harvest: the float garden is empty
    src = tmp_path / "nofloats.mi"
    src.write_text("int main(){ float x; symbolic x; float y = sqrt(x); return 0; }")
    code = run_cli("--type", "float", str(src), "--outdir", str(tmp_path / "art"))
    assert code == 2
    assert "garden is empty" in capsys.readouterr().err


# Malformed \x escapes: a sign, a space, a non-hex digit, one digit.  Each ends
# its literal, so the last is a trailing \xf.
BAD_ESCAPES = {"plus": "\\x+1", "space": "\\x 1", "nonhex": "\\xg0", "short": "\\xf"}

# case -> (file option, contents that are not UTF-8)
NOT_UTF8 = {
    "seed-not-utf8": ("--seeds", b"str:\xff\n"),
    "add-seed-not-utf8": ("--addSeeds", b"str:\xff\n"),
    "garden-not-utf8": ("--garden", b"0\tstr\t\xff\n"),
    "iot-not-utf8": ("--indexOpDefs", b"iot strstr \xff\n"),
    "fplus-not-utf8": ("--F+", b"strstr\xff\n"),
    "testcase-not-utf8": ("--replay", b's1="\xff"\n'),
}


# non-str literals read as MiniImp source does: no digit separators, no
# spelled-out infinity, and an int is not a float
BAD_SCALARS = {
    "garden-int-underscore": ("--garden", "0\tint\t1_0\n"),
    "garden-float-infinity": ("--garden", "0\tfloat\tinfinity\n"),
    "seed-float-underscore": ("--seeds", "float:1_0.5\n"),
    "seed-float-int": ("--seeds", "float:5\n"),
}


# a non-str literal is exactly one literal token after an optional -: no
# surrounding whitespace, comment, parentheses or second sign
BAD_LITERALS = {"space": " 1.5", "comment": "1.5 // note", "parens": "(1.5)",
                "double-minus": "--1.5"}

# table-file edits: (text to replace, replacement); the first table written is
# strcat's, whose first row is strcat("", "") = "" at index 0.  An index is a
# plain decimal inside the result garden, which has 14 values at --k 1, and
# each argument tuple has one row.
BAD_TABLES = {
    "iot-arity": ("iot strcat 2 ", "iot strcat \u00b2 "),
    "iot-index-underscore": ("\n0 0 -> 0\n", "\n0 0 -> 0_1\n"),
    "iot-index-range": ("\n0 0 -> 0\n", "\n0 0 -> 14\n"),
    "iot-duplicate-row": ("\n0 0 -> 0\n", "\n0 0 -> 0\n0 0 -> 5\n"),
}


def _tables_iot(src, tmp_path) -> str:
    out = tmp_path / "art"
    assert run_cli(str(src), "--outdir", str(out)) == 0
    return (out / "tables.iot").read_text()


def _bad_input_args(case, tmp_path, monkeypatch):
    src = tmp_path / "fig4a.mi"
    src.write_text(FIG4A_SOURCE)
    bad = tmp_path / "bad"
    where, _, kind = case.partition("-literal-")
    if kind:
        lit = BAD_LITERALS[kind]
        option, text = {
            "garden": ("--garden", FIG5_GARDEN_TEXT + f"0\tfloat\t{lit}\n"),
            "seed": ("--seeds", f"float:{lit}\n"),
            "testcase": ("--replay", f's1="bar"\nx={lit}\n'),
        }[where]
        bad.write_text(text)
        return [str(src), option, str(bad)]
    if case in BAD_TABLES:
        old, new = BAD_TABLES[case]
        text = _tables_iot(src, tmp_path)
        assert old in text
        bad.write_text(text.replace(old, new, 1))
        return [str(src), "--indexOpDefs", str(bad)]
    where, _, kind = case.partition("-escape-")
    if kind:
        lit = "a" + BAD_ESCAPES[kind]
        if where == "source":
            bad.write_text(f'int main(){{ str s = "{lit}"; return 0; }}\n')
            return [str(bad)]
        if where == "garden":
            bad.write_text(f"0\tstr\t{lit}\n")
            return [str(src), "--garden", str(bad)]
        if where == "seed":
            bad.write_text(f"str:{lit}\n")
            return [str(src), "--seeds", str(bad)]
        bad.write_text(f's1="{lit}"\n')
        return [str(src), "--replay", str(bad)]
    if case in NOT_UTF8:
        option, data = NOT_UTF8[case]
        bad.write_bytes(data)
        return [str(src), option, str(bad)]
    if case == "garden-index":
        bad.write_text("x\tstr\ta\n")
        return [str(src), "--garden", str(bad)]
    if case == "garden-trailing-backslash":
        bad.write_text("0\tstr\ta\\\n")
        return [str(src), "--garden", str(bad)]
    if case == "garden-bool":
        bad.write_text(FIG5_GARDEN_TEXT + "0\tbool\tmaybe\n")
        return [str(src), "--garden", str(bad)]
    if case in BAD_SCALARS:
        option, text = BAD_SCALARS[case]
        bad.write_text(FIG5_GARDEN_TEXT + text if option == "--garden" else text)
        return [str(src), option, str(bad)]
    if case == "seed-hex-escape":
        bad.write_text("str:ab\\xZZ\n")
        return [str(src), "--seeds", str(bad)]
    if case == "seed-float":
        bad.write_text("float:abc\n")
        return [str(src), "--seeds", str(bad)]
    if case == "iot-row":
        header, _, rows = _tables_iot(src, tmp_path).partition("\n")
        bad.write_text(header + "\na 0 -> 1\n" + rows.partition("\n")[2])
        return [str(src), "--indexOpDefs", str(bad)]
    if case == "testcase-value":
        bad.write_text("s=abc\n")
        return [str(src), "--replay", str(bad)]
    if case == "testcase-string":
        bad.write_text('s="\\"\n')
        return [str(src), "--replay", str(bad)]
    if case == "testcase-index":
        bad.write_text("s1=0@str\n")
        return [str(src), "--replay", str(bad)]
    if case == "testcase-bot":
        bad.write_text("s1=bot@str\n")
        return [str(src), "--replay", str(bad)]
    if case == "input-directory":
        return [str(tmp_path)]
    if case == "garden-directory":
        return [str(src), "--garden", str(tmp_path)]
    if case == "source-not-utf8":
        bad.write_bytes(b"int main(){ return 0; } // \xff\n")
        return [str(bad)]
    if case == "source-hex-escape":
        bad.write_text('int main(){ str s = "\\xZZ"; return 0; }\n')
        return [str(bad)]
    if case == "seed-variable":
        monkeypatch.setenv("INDEXIFY_SEED", "x")
        return [str(src), "--confluence", "5"]
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "garden-index", "garden-trailing-backslash", "garden-bool", "seed-hex-escape",
    "seed-float", "iot-row", "testcase-value", "testcase-string", "testcase-index",
    "testcase-bot", "input-directory", "garden-directory", "source-not-utf8",
    "source-hex-escape", "seed-variable", *NOT_UTF8, *BAD_SCALARS, *BAD_TABLES,
    *(f"{where}-escape-{kind}" for where in ("source", "garden", "seed", "testcase")
      for kind in BAD_ESCAPES),
    *(f"{where}-literal-{kind}" for where in ("garden", "seed", "testcase")
      for kind in BAD_LITERALS),
])
def test_bad_input_exits_two_with_a_message(case, tmp_path, capsys, monkeypatch):
    args = _bad_input_args(case, tmp_path, monkeypatch)
    capsys.readouterr()
    assert run_cli(*args, "--outdir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("indexify: ") and "Traceback" not in err
    if case.endswith("not-utf8"):
        assert f"{tmp_path / 'bad'}: not UTF-8 text" in err


def test_confluence_zero_trials_is_a_usage_error(fig4a_file, capsys):
    assert run_cli(fig4a_file, "--confluence", "0") == 2
    assert "at least 2 trials" in capsys.readouterr().err


def test_emitted_raw_table_miss_consumes_bot(tmp_path, capsys):
    # strncmp returns -1 for real, so a table miss must not read as -1 in the
    # emitted program: n = 2 is outside the int pool, and the lookup is BOT
    src = tmp_path / "miss.mi"
    src.write_text('int main(){ str s; symbolic s; int n = 1 + 1; '
                   'if (strncmp(s, "zz", n) == -1) { return 1; } return 0; }')
    ops = tmp_path / "ops.txt"
    ops.write_text("strncmp\n")
    out = str(tmp_path / "art")
    assert run_cli("--type", "string", str(src), "--F+", str(ops), "--k", "0",
                   "--outputIndexedIR", "--outdir", out) == 0
    report = open(os.path.join(out, "report.indexed.txt")).read()
    assert "verdict=escaped-garden" in report and "verdict=ok" not in report
    emitted = typecheck(parse(open(str(src) + ".indexed.mi").read()))
    gardens = load_gardens(open(os.path.join(out, "garden.txt")).read())
    res = interpret(emitted, {"s": mk_str(b"zz")}, gardens=gardens)
    assert res.verdict == "escaped-garden"


def test_artifacts_are_reproducible(fig4a_file, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert run_cli("--type", "string", fig4a_file, "--outdir", out) == 0
    for name in ("garden.txt", "tables.iot", "report.indexed.txt"):
        assert open(os.path.join(out1, name)).read() == \
            open(os.path.join(out2, name)).read()


def test_indexopdefs_roundtrip(fig4a_file, tmp_path, capsys):
    out1 = str(tmp_path / "first")
    assert run_cli("--type", "string", fig4a_file, "--outdir", out1) == 0
    out2 = str(tmp_path / "second")
    code = run_cli("--type", "string", fig4a_file,
                   "--indexOpDefs", os.path.join(out1, "tables.iot"),
                   "--outdir", out2)
    assert code == 0
    assert open(os.path.join(out1, "tables.iot")).read() == \
        open(os.path.join(out2, "tables.iot")).read()


def test_indexopdefs_rejects_mismatched_garden(fig4a_file, fig5_file, tmp_path, capsys):
    out1 = str(tmp_path / "first")
    assert run_cli("--type", "string", fig4a_file, "--outdir", out1) == 0
    code = run_cli("--type", "string", fig4a_file, "--garden", fig5_file,
                   "--indexOpDefs", os.path.join(out1, "tables.iot"),
                   "--outdir", str(tmp_path / "second"))
    assert code == 2
    assert "different garden" in capsys.readouterr().err


def test_seeds_file_prevents_harvest(fig4a_file, tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("str:zz\n")
    out = str(tmp_path / "art")
    assert run_cli("--type", "string", fig4a_file, "--seeds", str(seeds),
                   "--k", "0", "--outdir", out) == 0
    garden = open(os.path.join(out, "garden.txt")).read()
    assert "zz" in garden
    assert "bar" not in garden  # harvesting was disabled
    assert re.search(r"(?m)^\d+\tstr\t$", garden)  # the empty string is still always seeded


def test_add_seeds_augments_harvest(fig4a_file, tmp_path):
    seeds = tmp_path / "extra.txt"
    seeds.write_text("str:zz\n")
    out = str(tmp_path / "art")
    assert run_cli("--type", "string", fig4a_file, "--addSeeds", str(seeds),
                   "--k", "0", "--outdir", out) == 0
    garden = open(os.path.join(out, "garden.txt")).read()
    assert "zz" in garden and "bar" in garden


def test_float_mode_auto_fplus(tmp_path, capsys):
    out = str(tmp_path / "art")
    code = run_cli("--type", "float", corpus_path("float_guard"),
                   "--k", "1", "--outdir", out)
    assert code == 0
    tables = open(os.path.join(out, "tables.iot")).read()
    for name in ("fadd", "fsub", "fmul", "fdiv", "sqrt", "fabs", "fmin", "fmax"):
        assert f"iot {name} " in tables


def test_defaults_match_documentation():
    from indexify.cli import build_parser

    args = build_parser().parse_args(["prog.mi"])
    assert args.k == 3
    assert args.maxlen == 8
    assert args.types == "string"


def test_compare_emits_table(fig4a_file, tmp_path, capsys):
    out = str(tmp_path / "art")
    code = run_cli("--type", "string", fig4a_file, "--compare", "--outdir", out)
    assert code == 0
    text = capsys.readouterr().out
    assert "indexed" in text and "baseline-abandon" in text
    assert os.path.exists(os.path.join(out, "report.indexed.txt"))
    assert os.path.exists(os.path.join(out, "report.abandon.txt"))


def test_replay_command(tmp_path, capsys):
    out = str(tmp_path / "art")
    assert run_cli("--type", "string", corpus_path("vendor_check"),
                   "--outdir", out) == 1
    tc_dir = os.path.join(out, "testcases.indexed")
    code = run_cli("--type", "string", corpus_path("vendor_check"),
                   "--replay", tc_dir, "--outdir", out)
    assert code == 0  # every test case reproduces its recorded verdict
    assert "assertion-failure" in capsys.readouterr().out


def test_confluence_command(fig4a_file, capsys, monkeypatch):
    monkeypatch.setenv("INDEXIFY_SEED", "5")
    code = run_cli("--type", "string", fig4a_file, "--confluence", "25")
    assert code == 0
    assert "all_equal=True" in capsys.readouterr().out


def test_kleene_builder_mode(tmp_path, capsys):
    src = tmp_path / "tiny.mi"
    src.write_text('int main(){ str s; symbolic s; if (strstr(s, "ab")) { return 1; } return 0; }')
    out = str(tmp_path / "art")
    code = run_cli("--type", "string", str(src), "--builder", "kleene",
                   "--maxlen", "2", "--outdir", out)
    assert code == 0
    garden = open(os.path.join(out, "garden.txt")).read()
    # every string over the seed alphabet {a, b} up to the length cap
    for lit in ("a", "b", "aa", "ab", "ba", "bb"):
        assert f"\tstr\t{lit}\n" in garden
