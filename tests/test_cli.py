import os
import re
from dataclasses import replace

import pytest

from indexify import iot, symex
from indexify.bench import corpus_path
from indexify.check import check_runs
from indexify.cli import (MODE_NAMES, MODES, CliConfig, UsageError, load_pipeline, main, run_mode,
                          write_artifacts)
from indexify.garden import load_gardens
from indexify.lang.ast import (FLOAT, STR, VERDICT_ESCAPED, VERDICT_NO_RETURN, VERDICT_OK,
                               VERDICT_UNINIT, Value, mk_str)
from indexify.lang.interp import interpret
from indexify.lang.parser import parse
from indexify.lang.typecheck import typecheck
from indexify.rewrite import emit_indexed_source
from indexify.symex import MODE_INDEXED

from conftest import FIG4A_SOURCE, FIG5_GARDEN_TEXT, KERNEL, recording


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

# table-header edits, as in BAD_TABLES, and the message each is rejected with;
# strcmp's table is the second written, and its results stay raw ints
BAD_HEADERS = {
    "iot-header-fields": ("iot strcat 2 indexed:str ", "iot strcat 2 ", "malformed iot header"),
    "iot-header-operator": ("iot strcat 2 ", "iot nope 2 ",
                            "iot file for unknown operator 'nope'"),
    "iot-header-arity": ("iot strcmp 2 ", "iot strcmp 3 ",
                         "strcmp: arity 3 does not match signature"),
    "iot-header-kind": ("iot strcmp 2 raw:int ", "iot strcmp 2 indexed:str ",
                        "strcmp: result kind 'indexed:str' does not match gardens"),
}

# case -> (file option, contents, the message they are rejected with)
BAD_FILES = {
    "seed-prefix": ("--seeds", "abc\n", "seed line 1: expected str:<literal> or float:<literal>"),
    "garden-fields": ("--garden", "0\tstr\n", "garden line 1: expected 3 tab-separated fields"),
    "garden-type": ("--garden", "0\tchar\ta\n", "garden line 1: unknown type 'char'"),
    # a float garden holds only values that equal themselves and nothing else
    "garden-float-nan": ("--garden", "0\tfloat\t1.0\n1\tfloat\tnan\n",
                         "garden line 2: a float garden holds no NaN and no -0.0, found 'nan'"),
    "garden-float-negative-zero": ("--garden", "0\tfloat\t-0.0\n",
                                   "garden line 1: a float garden holds no NaN and no -0.0, "
                                   "found '-0.0'"),
    # fadd's table needs a float garden, which --type string does not grow
    "fplus-float": ("--F+", "fadd\n",
                    "'fadd' is a float operator, and --type string indexes no float values"),
}


# valid programs nested deeper than the parser, type checker or lowering
# can recurse
DEEP_SOURCES = {
    "source-deep-parens": "int main(){ int x = " + "(" * 1000 + "1" + ")" * 1000
                          + "; return x; }\n",
    "source-deep-plus": "int main(){ int x = " + " + ".join(["1"] * 500) + "; return x; }\n",
    "source-deep-ifs": "int main(){ int x = 0; " + "if (x == 0) { " * 600 + "x = 1; "
                       + "} " * 600 + "return x; }\n",
}


# case -> (source, the message it is rejected with): one per rejection of the
# tokenizer, the parser and the type checker.  The operator messages name the
# operand type each operator needs.
BAD_SOURCES = {
    "source-character": ("int main(){ return 1 $ 2; }", "unexpected character '$'"),
    "source-expected": ("int main(){ return 0 }", "expected ';', found '}'"),
    "source-duplicate-function": ("int f(){ return 0; } int f(){ return 1; } "
                                  "int main(){ return 0; }", "duplicate function 'f'"),
    "source-unknown-type": ("char main(){ return 0; }", "unknown type 'char'"),
    "source-identifier": ("int 5(){ return 0; }", "expected identifier, found '5'"),
    "source-shadowed-builtin": ("int strlen(str s){ return 0; } int main(){ return 0; }",
                                "function 'strlen' shadows a builtin"),
    # both engines would run the user function, where the type checker
    # typed the call as the intrinsic
    "source-shadowed-idx": ("int idx(int x){ return x + 1; } "
                            "int main(){ index<int> y = idx(3); return 0; }",
                            "function 'idx' shadows an intrinsic"),
    "source-shadowed-unidx": ('str unidx(str s){ return s; } '
                              'int main(){ str t = unidx("a"); return 0; }',
                              "function 'unidx' shadows an intrinsic"),
    "source-recursion": ("int main(){ return f(1); } "
                         "int f(int x){ return g(x); } int g(int x){ return f(x); }",
                         "recursive call chain: f -> g -> f"),
    "source-no-main": ("int f(){ return 0; }", "program has no main function"),
    "source-main-parameters": ("int main(int x){ return x; }", "main takes no parameters"),
    "source-duplicate-parameter": ("int f(int a, int a){ return a; } "
                                   "int main(){ return f(1, 2); }",
                                   "duplicate parameter 'a' in f"),
    "source-initialiser-type": ("int main(){ int x = true; return x; }",
                                "cannot initialise x: int with bool"),
    "source-undeclared-assignment": ("int main(){ y = 1; return 0; }",
                                     "assignment to undeclared variable 'y'"),
    "source-assignment-type": ('int main(){ int x; x = "a"; return x; }',
                               "cannot assign str to x: int"),
    "source-bare-return": ("int main(){ return; }", "main: return requires a value"),
    "source-return-type": ("int main(){ return true; }", "main returns int, got bool"),
    "source-undeclared-symbolic": ("int main(){ symbolic q; return 0; }",
                                   "symbolic on undeclared variable 'q'"),
    "source-input-types": ("int f(){ int s; symbolic s; if (s == 3) { return 1; } return 0; } "
                           'int main(){ str s; symbolic s; int r = f(); '
                           'if (strcmp(s, "ab") == 0) { return r; } return 0; }',
                           "input 's' is int in f and str in main"),
    "source-arith-operands": ("int main(){ return 1 + true; }",
                              "+ needs int operands, got int, bool"),
    "source-mod-operands": ("int main(){ return 1.5 % 2; }",
                            "% needs int operands, got float, int"),
    "source-ordering-operands": ("int main(){ bool b = 1.5 < 2.5; return 0; }",
                                 "< needs int operands, got float, float"),
    "source-mismatched-equality": ("int main(){ bool b = 1 != true; return 0; }",
                                   "!= on mismatched types int, bool"),
    "source-str-equality": ('int main(){ bool b = "a" == "b"; return 0; }',
                            "== on str is not defined; use strcmp"),
    "source-logic-operands": ("int main(){ bool b = true && 1; return 0; }",
                              "&& needs bool operands, got bool, int"),
    "source-not-operand": ("int main(){ bool b = !1; return 0; }", "! needs bool, got int"),
    "source-minus-operand": ("int main(){ bool t = true; int x = -t; return x; }",
                             "unary - needs int, got bool"),
    "source-idx-arity": ("int main(){ idx(1, 2); return 0; }", "idx takes one argument"),
    "source-idx-index": ('int main(){ idx(idx("a")); return 0; }',
                         "idx applied to an already-indexed value"),
    "source-unidx-arity": ("int main(){ unidx(); return 0; }", "unidx takes one argument"),
    "source-unidx-plain": ("int main(){ unidx(1); return 0; }",
                           "unidx needs an index value, got int"),
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
    if case in BAD_TABLES or case in BAD_HEADERS:
        old, new = BAD_TABLES[case] if case in BAD_TABLES else BAD_HEADERS[case][:2]
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
    if case in BAD_FILES:
        option, text, _ = BAD_FILES[case]
        bad.write_text(text)
        return [str(src), option, str(bad)]
    if case == "garden-index":
        bad.write_text("x\tstr\ta\n")
        return [str(src), "--garden", str(bad)]
    if case == "garden-trailing-backslash":
        bad.write_text("0\tstr\ta\\\n")
        return [str(src), "--garden", str(bad)]
    if case == "garden-int":  # well formed, but no --type indexes ints
        bad.write_text(FIG5_GARDEN_TEXT + "0\tint\t0\n1\tint\t5\n")
        return [str(src), "--garden", str(bad)]
    if case in DEEP_SOURCES:
        bad.write_text(DEEP_SOURCES[case])
        return [str(bad)]
    if case in BAD_SOURCES:
        bad.write_text(BAD_SOURCES[case][0])
        return [str(bad)]
    if case == "source-emitted":  # its i_* functions clash with the tables
        prog = tmp_path / "vendor_check.mi"
        prog.write_text(open(corpus_path("vendor_check")).read())
        assert run_cli(str(prog), "--outputIndexedIR", "--outdir", str(tmp_path / "art")) == 1
        return [str(prog) + ".indexed.mi"]
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
    if case == "testcase-type":  # one bad file of a replayed directory
        bad.mkdir()
        (bad / "0000.tc").write_text('s1="bar"\n')
        (bad / "0001.tc").write_text("s1=1\n")
        return [str(src), "--replay", str(bad)]
    if case == "testcase-bot":
        bad.write_text("s1=bot@str\n")
        return [str(src), "--replay", str(bad)]
    if case == "testcase-duplicate":
        bad.write_text('s1="ab"\ns1="zz"\n')
        return [str(src), "--replay", str(bad)]
    if case == "testcase-unknown-input":
        bad.write_text('s1="bar"\nnope=3\n')
        return [str(src), "--replay", str(bad)]
    if case == "fplus-unknown":
        bad.write_text("strstr\nnope\n")
        return [str(src), "--F+", str(bad)]
    if case == "fplus-puts":  # i_puts would print nothing
        bad.write_text("strcat\nputs\n")
        return [str(src), "--F+", str(bad)]
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
    "garden-index", "garden-trailing-backslash", "garden-int", "garden-bool", "seed-hex-escape",
    "seed-float", "iot-row", "testcase-value", "testcase-string", "testcase-index",
    "testcase-type", "testcase-bot", "testcase-duplicate", "testcase-unknown-input",
    "fplus-unknown", "fplus-puts", "input-directory", "garden-directory", "source-not-utf8",
    "source-hex-escape",
    "seed-variable", *NOT_UTF8, *DEEP_SOURCES, *BAD_SOURCES, "source-emitted",
    *BAD_SCALARS, *BAD_TABLES, *BAD_HEADERS, *BAD_FILES,
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
    if case == "testcase-duplicate":
        assert f"{tmp_path / 'bad'}: input 's1' given twice" in err
    if case == "testcase-unknown-input":
        assert f"{tmp_path / 'bad'}: input 'nope' is never made symbolic" in err
    if case == "testcase-type":
        assert f"{tmp_path / 'bad' / '0001.tc'}: input 's1' has tag int" in err
    if case == "fplus-unknown":
        assert f"{tmp_path / 'bad'}: unknown operator 'nope'" in err
    if case == "fplus-puts":
        assert f"{tmp_path / 'bad'}: 'puts' is an io operator" in err
    if case == "garden-int":
        assert f"{tmp_path / 'bad'}: the garden holds int values" in err
    if case in DEEP_SOURCES:
        assert err == f"indexify: {tmp_path / 'bad'}: nested too deeply to analyse\n"
    if case in BAD_SOURCES:
        assert BAD_SOURCES[case][1] in err
    if case == "source-emitted":
        assert "program already defines 'i_strcat'" in err
    if case.startswith(("garden-", "iot-", "fplus-")) and case != "garden-directory":
        assert err.startswith(f"indexify: {tmp_path / 'bad'}: ")  # the file is named
    if case in BAD_HEADERS:
        assert f"{tmp_path / 'bad'}: {BAD_HEADERS[case][2]}" in err
    if case in BAD_FILES:
        assert BAD_FILES[case][2] in err


def test_a_configured_f_plus_rejects_an_io_operator(tmp_path):
    # F+ given as a config field is checked as an --F+ file is: i_puts would
    # be a table call that prints nothing
    src = tmp_path / "puts.mi"
    src.write_text('int main() { str s; symbolic s; puts(s); return 0; }')
    cfg = CliConfig(input_path=str(src), f_plus_names=("puts", "strcat"))
    with pytest.raises(UsageError, match="F\\+: 'puts' is an io operator"):
        load_pipeline(cfg)


@pytest.mark.parametrize("name, types, message", [
    ("fadd", (STR,), "'fadd' is a float operator, and --type string indexes no float values"),
    ("strcat", (FLOAT,), "'strcat' is a str operator, and --type float indexes no str values"),
])
def test_a_configured_f_plus_rejects_an_operator_of_an_unindexed_type(name, types, message,
                                                                     tmp_path):
    # its table would need a garden of a type the run does not index
    src = tmp_path / "main.mi"
    src.write_text("int main() { return 0; }")
    cfg = CliConfig(input_path=str(src), indexed_types=types, f_plus_names=(name,))
    with pytest.raises(UsageError) as e:
        load_pipeline(cfg)
    assert str(e.value) == f"F+: {message}"


@pytest.mark.parametrize("flag, value", [
    ("--timeout", "nan"), ("--timeout", "-1"), ("--timeout", "0"),
    ("--max-states", "0"), ("--unroll", "-1"), ("--k", "-1"), ("--maxlen", "0"),
])
def test_bad_budget_exits_two_with_a_message(flag, value, fig4a_file, tmp_path, capsys):
    # a NaN timeout would never expire, and the others would explore nothing
    # or cut every loop, each without a word
    out = tmp_path / "out"
    assert run_cli(fig4a_file, flag, value, "--outdir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"indexify: {flag} must be ") and "Traceback" not in err
    assert not out.exists()  # rejected before any work


def test_a_bad_k_is_rejected_with_a_garden_file(fig4a_file, fig5_file, tmp_path, capsys):
    # a loaded garden grows nothing, but --k is checked all the same
    out = tmp_path / "out"
    assert run_cli(fig4a_file, "--garden", fig5_file, "--k", "-1", "--outdir", str(out)) == 2
    assert capsys.readouterr().err == "indexify: --k must be at least 0, not -1\n"
    assert not out.exists()


# case -> (source, what exploring it ends with): a runtime fault's verdict,
# or the message of a garden error, which is bad input; the default --type
# string grows no float garden
PROGRAM_ERRORS = {
    "no-return": ("int f(int x){ if (x) { return 1; } } "
                  "int main(){ int n; symbolic n; return f(n); }", VERDICT_NO_RETURN),
    "uninitialised": ("int main(){ int x; x; return 0; }", VERDICT_UNINIT),
    "index-garden": ("int main(){ if (0@float) { return 1; } return 0; }",
                     "no garden for index<float>"),
    "idx-garden": ("int main(){ idx(1.5); return 0; }", "idx: no garden for float"),
}


@pytest.mark.parametrize("baseline", [None, "abandon", "concretize"])
@pytest.mark.parametrize("case", PROGRAM_ERRORS)
def test_a_program_error_exits_two_and_writes_nothing(case, baseline, tmp_path, capsys):
    # A garden error exits 2 with its message and writes nothing.  A fault
    # of a well-formed program ends only the path that reaches it, with its
    # verdict: exit 0, artifacts written, and each test case replays to its
    # verdict.  Every mode reaches both faults here.
    source, outcome = PROGRAM_ERRORS[case]
    src = tmp_path / "p.mi"
    src.write_text(source)
    out = tmp_path / "out"
    args = (str(src), "--outdir", str(out)) + (("--baseline", baseline) if baseline else ())
    if outcome not in (VERDICT_NO_RETURN, VERDICT_UNINIT):
        assert run_cli(*args) == 2
        assert capsys.readouterr().err == f"indexify: {outcome}\n"
        assert not out.exists()
        return
    assert run_cli(*args) == 0
    assert capsys.readouterr().err == ""
    report = (out / f"report.{baseline or 'indexed'}.txt").read_text()
    assert f"verdict={outcome}" in report
    assert run_cli(*args, "--replay", str(out / f"testcases.{baseline or 'indexed'}")) == 0
    assert f"verdict={outcome}" in capsys.readouterr().out
    if case == "no-return":  # the interpreter, replaying the path n = 0
        tc = tmp_path / "n0.tc"
        tc.write_text("n=0\n")
        assert run_cli(*args, "--replay", str(tc)) == 0
        assert capsys.readouterr().out == f"{tc}: verdict={VERDICT_NO_RETURN}\n"


# case -> (source, verdict): only s = "ab" returns a value, so a path with
# another s ends in the fault
FAULTS = {
    "uninitialised": ('int main() { str s; symbolic s; int x; '
                      'if (strcmp(s, "ab") == 0) { x = 1; } return x; }', VERDICT_UNINIT),
    "no-return": ('int f(str s) { if (strcmp(s, "ab") == 0) { return 1; } } '
                  'int main() { str s; symbolic s; return f(s); }', VERDICT_NO_RETURN),
}


@pytest.mark.parametrize("case", FAULTS)
def test_a_runtime_fault_ends_only_its_path(case, tmp_path, capsys):
    # indexed mode reaches the fault beside the "ab" path, concretize mode
    # on s = "", and abandon mode ends its one path at strcmp first
    source, verdict = FAULTS[case]
    src = tmp_path / "p.mi"
    src.write_text(source)
    cfg = CliConfig(str(src), k=1)
    expected = {MODE_INDEXED: {VERDICT_OK, verdict}, symex.MODE_CONCRETIZE: {verdict},
                symex.MODE_ABANDON: set()}
    for mode, verdicts in expected.items():
        pipe = load_pipeline(cfg)
        report = run_mode(cfg, pipe, mode)
        assert {tc.verdict for tc in report.test_cases} == verdicts
        assert check_runs(cfg, pipe, {mode: report}) == []
    assert report.paths == report.escaped_paths == 1
    out = str(tmp_path / "out")
    for mode in ((), ("--baseline", "abandon"), ("--baseline", "concretize"), ("--compare",)):
        assert run_cli(str(src), *mode, "--outdir", out) == 0, mode
        assert capsys.readouterr().err == ""
    assert run_cli(str(src), "--replay", os.path.join(out, "testcases.indexed")) == 0
    assert f"verdict={verdict}" in capsys.readouterr().out


# case -> (float program, a garden input whose rewritten run must escape).
# Rewritten == on index<float> compares indices, so a garden holding a NaN
# would make sqrt(-1.0) equal itself, and one keying -0.0 as 0.0 would give
# fdiv(1.0, -0.0) 0.0's cell, +inf, where the original gives -inf.
FLOAT_EQUALITY = {
    "nan": ("int main() { float x; symbolic x; float m = fsub(0.0, 1.0); "
            "float y = sqrt(x); if (y == y) { return 1; } return 0; }", -1.0),
    "signed-zero": ("int main() { float x; symbolic x; float m = fsub(0.0, 1.0); "
                    "float y = fmul(x, m); float z = fdiv(1.0, y); "
                    "if (fmin(z, 0.0) == z) { return 1; } return 0; }", 0.0),
}


@pytest.mark.parametrize("case", FLOAT_EQUALITY)
def test_a_float_result_that_is_nan_or_negative_zero_escapes(case, tmp_path):
    source, escapes = FLOAT_EQUALITY[case]
    src = tmp_path / "p.mi"
    src.write_text(source)
    cfg = CliConfig(str(src), indexed_types=(FLOAT,), k=1)
    pipes = {}
    for mode in MODES.values():
        pipes[mode] = load_pipeline(cfg)
        report = run_mode(cfg, pipes[mode], mode)
        assert check_runs(cfg, pipes[mode], {mode: report}) == [], mode
    pipe = pipes[MODE_INDEXED]
    # the input is in the garden, and its rewritten run escapes where the
    # original takes a branch
    assert Value(FLOAT, escapes) in pipe.gardens[FLOAT].values()
    inputs = {"x": Value(FLOAT, escapes)}
    assert interpret(pipe.program, inputs).verdict == VERDICT_OK
    rewritten = interpret(pipe.target(MODE_INDEXED)[0], inputs, gardens=pipe.gardens,
                          tables=pipe.tables)
    assert rewritten.verdict == VERDICT_ESCAPED


@pytest.mark.parametrize("mode", [(), ("--baseline", "abandon"), ("--baseline", "concretize"),
                                  ("--compare",), ("--replay",)],
                         ids=["indexed", "abandon", "concretize", "compare", "replay"])
def test_an_input_with_two_types_exits_two_in_every_mode(mode, tmp_path, capsys):
    # without the type checker's rule, indexed mode compared a string's
    # index with 3 and wrote test cases --replay rejected, and both
    # baselines crashed on the string's opaque value
    source, message = BAD_SOURCES["source-input-types"]
    src = tmp_path / "p.mi"
    src.write_text(source)
    out = tmp_path / "out"
    if mode == ("--replay",):
        tc = tmp_path / "s.tc"
        tc.write_text('s="ab"\n')
        mode += (str(tc),)
    assert run_cli(str(src), *mode, "--outdir", str(out)) == 2
    assert capsys.readouterr().err == f"indexify: {message}\n"
    assert not out.exists()


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


def test_indexed_ir_and_tables_read_each_table_whole_once(tmp_path, monkeypatch):
    # tables.iot and the emitted IR read each table's kept cells(), so
    # writing both reads each table whole once: by one call of strncmp's
    # whole-table kernel, and by one fn call per cell of strcat and strlen,
    # which have none, after the fn calls of exploration's lookups
    src = tmp_path / "cmp.mi"
    src.write_text('int main(){ str s; symbolic s; str t = strcat(s, "b"); '
                   'if (strncmp(t, "ab", 2) == 0) { return strlen(s); } return 0; }')
    calls = {name: [] for name in ("strcat", "strncmp", "strlen")}
    for name in calls:
        monkeypatch.setitem(iot.REGISTRY, name, recording(iot.REGISTRY[name], calls[name]))
    cfg = CliConfig(input_path=str(src), f_plus_names=tuple(calls),
                    k=1, emit_ir=True, outdir=str(tmp_path / "art"))
    pipe = load_pipeline(cfg)
    del calls["strcat"][:]  # the garden's growth called strcat as a builder
    reports = {MODE_INDEXED: run_mode(cfg, pipe, MODE_INDEXED)}
    looked_up = {name: len(c) for name, c in calls.items()}  # one per lookup
    assert all(0 < looked_up[name] < pipe.tables["i_" + name].size for name in calls)
    assert KERNEL not in calls["strncmp"]
    write_artifacts(cfg, pipe, reports)
    assert calls["strncmp"][looked_up["strncmp"]:] == [KERNEL]
    for name in ("strcat", "strlen"):
        assert len(calls[name]) == looked_up[name] + pipe.tables["i_" + name].size
    made = {name: len(c) for name, c in calls.items()}
    # the files are what each writer makes on its own, from the kept cells
    assert open(tmp_path / "art" / "tables.iot").read() == iot.serialize_tables(pipe.tables)
    assert open(str(src) + ".indexed.mi").read() == emit_indexed_source(pipe.indexed)
    assert {name: len(c) for name, c in calls.items()} == made


def test_artifacts_print_each_zero_as_itself(tmp_path):
    # write_artifacts formats each input once per Value object: 0.0 == -0.0,
    # yet each test case keeps the zero it holds, in its line and its file
    src = tmp_path / "zeros.mi"
    src.write_text("int main(){ float x; float y; symbolic x; symbolic y; "
                   "float z = fadd(x, 0.5); return 0; }")
    cfg = CliConfig(input_path=str(src), indexed_types=(FLOAT,), k=0,
                    outdir=str(tmp_path / "art"))
    pipe = load_pipeline(cfg)
    zero, neg = Value(FLOAT, 0.0), Value(FLOAT, -0.0)
    cases = [symex.TestCase(i, "ok", inputs, frozenset()) for i, inputs in enumerate(
        [{"x": zero, "y": neg}, {"x": neg, "y": zero}, {"x": zero, "y": zero}])]
    report = replace(run_mode(cfg, pipe, MODE_INDEXED), test_cases=tuple(cases))
    out = write_artifacts(cfg, pipe, {MODE_INDEXED: report})
    lines = open(os.path.join(out, "report.indexed.txt")).read().splitlines()
    assert lines[-3:] == ["testcase 0 verdict=ok x=0.0 y=-0.0",
                          "testcase 1 verdict=ok x=-0.0 y=0.0",
                          "testcase 2 verdict=ok x=0.0 y=0.0"]
    tc = open(os.path.join(out, "testcases.indexed", "0001.tc")).read()
    assert tc == "# testcase 1 verdict=ok\nx=-0.0\ny=0.0\n"


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


def test_add_seeds_merges_into_a_seeds_file(fig4a_file, tmp_path):
    seeds, extra = tmp_path / "seeds.txt", tmp_path / "extra.txt"
    seeds.write_text("str:zz\n")
    extra.write_text("str:qq\n")
    out = tmp_path / "art"
    assert run_cli(fig4a_file, "--seeds", str(seeds), "--addSeeds", str(extra),
                   "--k", "0", "--outdir", str(out)) == 0
    garden = load_gardens((out / "garden.txt").read_text())
    assert {v.raw for v in garden[STR].values()} == {b"zz", b"qq", b""}


def test_float_mode_auto_fplus(tmp_path, capsys):
    out = str(tmp_path / "art")
    code = run_cli("--type", "float", corpus_path("float_guard"),
                   "--k", "1", "--outdir", out)
    assert code == 0
    tables = open(os.path.join(out, "tables.iot")).read()
    for name in ("fadd", "fsub", "fmul", "fdiv", "sqrt", "fabs", "fmin", "fmax"):
        assert f"iot {name} " in tables


def test_defaults_match_documentation(monkeypatch, capsys):
    # each default has one definition, in the stage that owns it: the loop
    # bound in the interpreter, garden growth's in BuilderConfig and
    # exploration's in ExploreConfig.  Every other place reads it there, and
    # the help of both entry points prints it.  argparse formats help only
    # when asked, so a bad % in a help string shows here and nowhere else.
    import dataclasses
    import inspect

    from indexify import bench, check, garden
    from indexify.cli import build_parser, config_from_args
    from indexify.garden import BuilderConfig
    from indexify.lang import interp
    from indexify.symex import ExploreConfig

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    unroll = interp.UNROLL  # interpret and symex.replay pass unroll on to Interpreter
    assert {default(interp.Interpreter, "unroll"), default(check.agrees, "unroll"),
            ExploreConfig().unroll} == {unroll}
    built, explored = BuilderConfig(), ExploreConfig()
    assert default(garden.extend, "max_str_len") == built.max_str_len
    owned = {"k": built.k, "maxlen": built.max_str_len, "builder_mode": built.mode,
             "max_states": explored.max_states, "timeout_s": explored.wallclock_s,
             "unroll": unroll}
    assert owned == {"k": 3, "maxlen": 8, "builder_mode": "ops", "max_states": 100_000,
                     "timeout_s": 60.0, "unroll": 16}  # as README's "Selected flags"
    cfg = CliConfig("prog.mi")
    assert {name: getattr(cfg, name) for name in owned} == owned
    entry = bench.CorpusEntry("prog", "generated", ())
    assert (entry.k, entry.maxlen) == (cfg.k, cfg.maxlen)

    parser = build_parser()
    args = parser.parse_args(["prog.mi"])
    assert {f.name for f in dataclasses.fields(CliConfig)} <= set(vars(args))
    assert {name: getattr(args, name) for name in owned} == owned
    assert args.indexed_types == entry.types == "string"  # as README's usage
    assert config_from_args(args) == cfg

    monkeypatch.setenv("COLUMNS", "200")  # no option's help wraps
    text = parser.format_help()
    for option, name in (("--k", "k"), ("--maxlen", "maxlen"), ("--max-states", "max_states"),
                         ("--timeout", "timeout_s"), ("--unroll", "unroll")):
        assert re.search(rf"^  {option} [A-Z_]+\s+\w[^\n]*\(default {owned[name]}\)$",
                         text, re.M), (option, text)
    assert re.search(r"^  --type \{both,float,string\}\s+\w[^\n]*\(default string\)$",
                     text, re.M), text
    baselines = ",".join(name for name in MODES if name != "indexed")
    assert baselines == "abandon,concretize"
    assert f"--baseline {{{baselines}}}" in text
    with pytest.raises(SystemExit):
        bench.main(["--help"])
    modes = ",".join(MODE_NAMES[m] for m in bench.DEFAULT_MODES)
    assert modes == "indexed,abandon"
    assert f"(default {modes})" in capsys.readouterr().out


def test_compare_emits_table(fig4a_file, tmp_path, capsys):
    out = str(tmp_path / "art")
    code = run_cli("--type", "string", fig4a_file, "--compare", "--outdir", out)
    assert code == 0
    text = capsys.readouterr().out
    assert "indexed" in text and "baseline-abandon" in text
    assert os.path.exists(os.path.join(out, "report.indexed.txt"))
    assert os.path.exists(os.path.join(out, "report.abandon.txt"))


def test_compare_exits_one_when_a_mode_finds_the_assertion(tmp_path, capsys):
    out = str(tmp_path / "art")
    code = run_cli("--type", "string", corpus_path("vendor_check"), "--compare",
                   "--outdir", out)
    assert code == 1  # indexed mode finds it; abandon does not
    assert re.search(r"^assert_failures +[1-9][0-9]* +0$", capsys.readouterr().out, re.M)


def test_replay_command(tmp_path, capsys):
    out = str(tmp_path / "art")
    assert run_cli("--type", "string", corpus_path("vendor_check"),
                   "--outdir", out) == 1
    tc_dir = os.path.join(out, "testcases.indexed")
    code = run_cli("--type", "string", corpus_path("vendor_check"),
                   "--replay", tc_dir, "--outdir", out)
    assert code == 0  # every test case reproduces its recorded verdict
    assert "assertion-failure" in capsys.readouterr().out


def test_every_engine_explores_the_emitted_program(tmp_path, capsys):
    # the paper's experiment: the emitted vendor_check, given its garden and
    # no F+, runs in every mode, where each operator is an i_* if-chain.  The
    # baselines find the assertion they miss on the original program, and
    # their test cases replay on the emitted program
    prog = tmp_path / "vendor_check.mi"
    prog.write_text(open(corpus_path("vendor_check")).read())
    assert run_cli(str(prog), "--outputIndexedIR", "--outdir", str(tmp_path / "art")) == 1
    assert run_cli(str(prog), "--baseline", "abandon", "--outdir", str(tmp_path / "orig")) == 0
    emitted, empty = str(prog) + ".indexed.mi", tmp_path / "empty.txt"
    empty.write_text("")
    given = ["--garden", str(tmp_path / "art" / "garden.txt"), "--F+", str(empty)]
    for mode, suffix in (([], "indexed"), (["--baseline", "abandon"], "abandon"),
                         (["--baseline", "concretize"], "concretize")):
        out = tmp_path / suffix
        assert run_cli(emitted, *given, *mode, "--outdir", str(out)) == 1
        report = (out / f"report.{suffix}.txt").read_text()
        assert "paths 9\n" in report and "solver_queries 957\n" in report
        assert report.count("verdict=assertion-failure") == 2
        capsys.readouterr()
        assert run_cli(emitted, *given, *mode, "--replay", str(out / f"testcases.{suffix}")) == 0
        assert capsys.readouterr().out.count("verdict=assertion-failure") == 2
        # with no garden for its inputs, the emitted program is bad input
        assert run_cli(emitted, "--type", "float", "--F+", str(empty), *mode,
                       "--outdir", str(out)) == 2
        assert "symbolic vendor: no garden for index<str>" in capsys.readouterr().err
        assert run_cli(emitted, "--type", "float", "--F+", str(empty), *mode,
                       "--replay", str(out / f"testcases.{suffix}")) == 2
        assert "no garden for str\n" in capsys.readouterr().err


def test_every_engine_branches_on_an_unindexed_input(tmp_path, capsys):
    # an index input's truth is its garden value's: "" is false, "a" true
    src = tmp_path / "unidx.mi"
    src.write_text("int main(){ index<str> s; symbolic s; "
                   "if (unidx(s)) { return 1; } return 0; }")
    garden, empty = tmp_path / "garden.txt", tmp_path / "empty.txt"
    garden.write_text("0\tstr\t\n1\tstr\ta\n")
    empty.write_text("")
    given = ["--garden", str(garden), "--F+", str(empty)]
    for mode, suffix in (([], "indexed"), (["--baseline", "abandon"], "abandon"),
                         (["--baseline", "concretize"], "concretize")):
        out = tmp_path / suffix
        assert run_cli(str(src), *given, *mode, "--outdir", str(out)) == 0
        report = (out / f"report.{suffix}.txt").read_text()
        assert "paths 2\n" in report and "branch_coverage 2/2\n" in report
        capsys.readouterr()
        assert run_cli(str(src), *given, *mode, "--replay", str(out / f"testcases.{suffix}")) == 0
        assert capsys.readouterr().out.count("verdict=ok") == 2


def test_a_rerun_replaces_the_test_cases(tmp_path, capsys):
    # flag_dispatch has 50 paths at --k 2 and 13 at --k 1: the second run
    # must leave its own 13 test cases, not the first run's other 37
    out = tmp_path / "art"
    program = corpus_path("flag_dispatch")
    assert run_cli(program, "--k", "2", "--outdir", str(out)) == 0
    assert len(os.listdir(out / "testcases.indexed")) == 50
    assert run_cli(program, "--k", "1", "--outdir", str(out)) == 0
    tc_dir = out / "testcases.indexed"
    assert sorted(os.listdir(tc_dir)) == [f"{i:04d}.tc" for i in range(13)]
    capsys.readouterr()
    assert run_cli(program, "--k", "1", "--replay", str(tc_dir)) == 0
    assert "EXPECTED" not in capsys.readouterr().out


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
