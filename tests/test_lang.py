import os
import random
import subprocess
import sys

import pytest

import indexify
from indexify.bench import CORPUS, corpus_path
from indexify.lang.ast import (
    BOOL,
    FLOAT,
    INT,
    STR,
    MiniImpSyntaxError,
    MiniImpTypeError,
    index_of,
    mk_int,
    mk_str,
    symbolic_inputs,
)
from indexify.lang.interp import interpret
from indexify.lang.parser import parse
from indexify.lang.printer import print_program
from indexify.lang.typecheck import typecheck

VENDOR_SOURCE = open(corpus_path("vendor_check")).read()


def test_importing_a_submodule_loads_no_other():
    # the package re-exports nothing, so the AST comes without the interpreter
    src = os.path.dirname(os.path.dirname(indexify.__file__))
    code = "import sys, indexify.lang.ast; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    others = {f"indexify.lang.{m}" for m in ("interp", "parser", "printer", "typecheck")}
    assert "indexify.lang.ast" in out.split() and not others & set(out.split())


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_minimal_program():
    p = parse("int main(){ return 0; }")
    assert len(p.functions) == 1
    assert len(p.main.body) == 1


def test_vendor_program_shape():
    p = parse(VENDOR_SOURCE)
    strings = [e for f in p.functions for _, s in _stmts(f)
               for e in _literals(s) if e.tag is STR]
    assert {e.value for e in strings} == {b"NVidia Corporation", b"NVidia"}
    asserts = [s for f in p.functions for _, s in _stmts(f)
               if type(s).__name__ == "Assert"]
    assert len(asserts) == 1


def _stmts(f):
    from indexify.lang.ast import walk_stmts

    return walk_stmts(f.body)


def _literals(s):
    from indexify.lang.ast import BinOp, Call, Literal, UnOp

    def walk(e):
        if isinstance(e, Literal):
            yield e
        elif isinstance(e, BinOp):
            yield from walk(e.left)
            yield from walk(e.right)
        elif isinstance(e, UnOp):
            yield from walk(e.operand)
        elif isinstance(e, Call):
            for a in e.args:
                yield from walk(a)

    for attr in ("init", "value", "cond", "expr"):
        e = getattr(s, attr, None)
        if e is not None:
            yield from walk(e)


def test_undeclared_variable_rejected():
    with pytest.raises(MiniImpTypeError, match="undeclared"):
        typecheck(parse("int main(){ return x; }"))


def test_duplicate_declaration_rejected():
    with pytest.raises(MiniImpTypeError, match="duplicate"):
        typecheck(parse("int main(){ int a; int a; return 0; }"))


def test_unknown_type_name_rejected():
    with pytest.raises(MiniImpSyntaxError):
        parse("wibble main(){ return 0; }")


def test_syntax_error_carries_position():
    with pytest.raises(MiniImpSyntaxError) as e:
        parse("int main(){\n  return ;; }")
    assert e.value.line == 2


@pytest.mark.parametrize("source, msg, line, col", [
    ("int main(){\n\treturn $; }", "unexpected character '$'", 2, 9),
    ("int main(){ return 0; }\n\t\t#", "unexpected character '#'", 2, 3),
    ('int main(){ str s = "ab; return 0; }', "unexpected character '\"'", 1, 21),
    ("// a comment\n  int main(){ return @; }", "expected expression, found '@'", 2, 22),
    ("int main(){ return 0 }", "expected ';', found '}'", 1, 22),
    ("int main(){\n  if (1 { return 0; } }", "expected ')', found '{'", 2, 9),
    ("int if(){ return 0; }", "expected identifier, found 'if'", 1, 5),
    ("int main(){ int 3 = 1; return 0; }", "expected identifier, found '3'", 1, 17),
    ("int main(){\n  return ;; }", "expected expression, found ';'", 2, 11),
    ("int main(){\r\n\treturn 1 +; }", "expected expression, found ';'", 2, 12),
    ('int main(){\n  str s;\n  s = "a\\qb"; return 0; }', "bad escape \\q", 3, 7),
    ('int main(){\n\n  str s = "\\x4"; return 0; }', "bad escape \\x4", 3, 11),
    ("wibble main(){ return 0; }", "unknown type 'wibble'", 1, 1),
    ("int main(){ index<wibble> x; return 0; }", "unknown type 'wibble'", 1, 19),
    ("int main(){ int x = 1@\n", "unknown type ''", 2, 1),
    ("int main(){ return 0;", "expected expression, found ''", 1, 22),
    ("int main(){ return 0;\n", "expected expression, found ''", 2, 1),
    ("int main(", "unknown type ''", 1, 10),
], ids=["char-after-tab", "char-last", "unterminated-string", "after-comment",
        "token", "token-line-2", "identifier-keyword", "identifier-number",
        "expression", "expression-crlf", "escape-line-3", "short-hex-escape",
        "type", "index-type", "type-at-eof", "expression-at-eof",
        "expression-at-eof-line-2", "type-at-eof-in-params"])
def test_a_syntax_error_names_its_line_and_column(source, msg, line, col):
    # a tab is one column, and a \r is one column before its \n
    with pytest.raises(MiniImpSyntaxError) as e:
        parse(source)
    assert (e.value.msg, e.value.line, e.value.col) == (msg, line, col)
    assert str(e.value) == f"{line}:{col}: {msg}"


def test_string_escapes_roundtrip():
    p = parse(r'int main(){ str s = "a\tb\n\\\"\x00\xff"; return 0; }')
    lit = p.main.body[0].init
    assert lit.value == b'a\tb\n\\"\x00\xff'
    assert parse(print_program(p)) == p


def test_index_and_bot_literals():
    p = parse("int main(){ index<str> s = 2@str; s = bot@str; return 0; }")
    assert p.main.body[0].type == index_of(STR)
    assert p.main.body[0].init.tag == index_of(STR)
    assert parse(print_program(p)) == p


def test_float_literals_roundtrip():
    src = "int main(){ float a = 2.0; float b = 1e-05; float c = nan; float d = -inf; return 0; }"
    p = parse(src)
    assert parse(print_program(p)) == p


def test_roundtrip_on_corpus():
    for entry in CORPUS:
        src = open(corpus_path(entry.name)).read()
        p = parse(src)
        assert parse(print_program(p)) == p, entry.name


# ---------------------------------------------------------------------------
# typechecking
# ---------------------------------------------------------------------------


def test_builtin_signature_lookup():
    typecheck(parse('int main(){ str s = strcat("a", "b"); return strlen(s); }'))


def test_builtin_type_mismatch():
    with pytest.raises(MiniImpTypeError, match="argument 2"):
        typecheck(parse('int main(){ str s = strcat("a", 1); return 0; }'))


def test_arity_mismatch():
    with pytest.raises(MiniImpTypeError, match="arguments"):
        typecheck(parse('int main(){ str s = strcat("a"); return 0; }'))


def test_unknown_function():
    with pytest.raises(MiniImpTypeError, match="unknown function"):
        typecheck(parse("int main(){ return frob(1); }"))


def test_indexed_call_annotation(fig5_strstr):
    p = parse("int main(){ index<str> r = i_strstr(0@str, 2@str); return 0; }")
    typecheck(p, extra_sigs={"i_strstr": fig5_strstr.indexed_signature()})


def test_recursion_rejected():
    src = "int f(int n){ return g(n); } int g(int n){ return f(n); } int main(){ return f(1); }"
    with pytest.raises(MiniImpTypeError, match="recursive"):
        typecheck(parse(src))


def test_str_equality_rejected():
    with pytest.raises(MiniImpTypeError, match="strcmp"):
        typecheck(parse('int main(){ str a = "x"; if (a == a) { return 1; } return 0; }'))


# f and main make one name symbolic with two types: one input, two types
INPUT_CLASH = {
    "f": "int f(){ int s; symbolic s; if (s == 3) { return 1; } return 0; }",
    "main": 'int main(){ str s; symbolic s; int r = f(); '
            'if (strcmp(s, "ab") == 0) { return r; } return 0; }',
}


@pytest.mark.parametrize("order", [("f", "main"), ("main", "f")], ids=["f-first", "main-first"])
def test_an_input_with_two_types_rejected(order):
    with pytest.raises(MiniImpTypeError) as e:
        typecheck(parse(" ".join(INPUT_CLASH[name] for name in order)))
    assert str(e.value) == "input 's' is int in f and str in main"


def test_an_input_made_symbolic_in_two_functions_has_one_type():
    src = ("int f(){ int s; symbolic s; return s; } "
           "int main(){ int s; symbolic s; bool b; symbolic b; return s + f(); }")
    p = typecheck(parse(src))
    assert symbolic_inputs(p) == {"s": INT, "b": BOOL}


# ---------------------------------------------------------------------------
# interpretation
# ---------------------------------------------------------------------------


def test_constant_return():
    p = typecheck(parse("int main(){ return 0; }"))
    r = interpret(p)
    assert r.verdict == "ok"
    assert r.return_value == mk_int(0)


def test_vendor_bug_concrete_trigger():
    p = typecheck(parse(VENDOR_SOURCE))
    r = interpret(p, {"vendor": mk_str(b"NVidia C"),
                      "nv11vendor": mk_str(b"NVidia Corporation")})
    assert r.verdict == "assertion-failure"
    ok = interpret(p, {"vendor": mk_str(b"NVidia Corporation"),
                       "nv11vendor": mk_str(b"NVidia Corporation")})
    assert ok.verdict == "ok"
    assert ok.return_value == mk_int(1)


def test_strstr_wrapper_oracle():
    src = """
    int main() {
      str r = strstr("foobar", "oo");
      assert(strcmp(r, "oobar") == 0);
      return strlen(r);
    }
    """
    r = interpret(typecheck(parse(src)))
    assert r.verdict == "ok"
    assert r.return_value == mk_int(5)


def test_interpreter_determinism():
    p = typecheck(parse(VENDOR_SOURCE))
    inputs = {"vendor": mk_str(b"NVidia"), "nv11vendor": mk_str(b"NVidia")}
    a = interpret(p, inputs)
    b = interpret(p, inputs)
    assert a == b


def test_loop_bound_exceeded():
    p = typecheck(parse("int main(){ int i = 0; while (i < 100) { i = i + 1; } return i; }"))
    assert interpret(p, unroll=16).verdict == "bound-exceeded"
    assert interpret(p, unroll=200).verdict == "ok"


def test_type_preservation_random_programs():
    # an expression returned as type t evaluates to a value tagged t
    rng = random.Random(5)
    exprs = [
        ("1 + 2 * 3", INT), ("7 % 3", INT), ("0 - 4 / 2", INT),
        ("1 < 2", BOOL), ("!(1 == 2) && true", BOOL),
        ("strlen(strcat(\"ab\", \"c\"))", INT),
        ("strcmp(\"a\", \"b\")", INT),
        ("fadd(1.5, 2.5)", FLOAT), ("fmin(1.0, 2.0)", FLOAT),
    ]
    for text, want in rng.sample(exprs, len(exprs)):
        ret = {INT: "int", BOOL: "bool", FLOAT: "float"}[want]
        p = typecheck(parse(f"{ret} main(){{ return {text}; }}"))
        assert interpret(p).return_value.tag is want


def test_c_division_truncates_toward_zero():
    p = typecheck(parse("int main(){ return (0 - 7) / 2; }"))
    assert interpret(p).return_value == mk_int(-3)
    p = typecheck(parse("int main(){ return (0 - 7) % 2; }"))
    assert interpret(p).return_value == mk_int(-1)


def test_user_function_call_by_value():
    src = """
    int bump(int n) { n = n + 1; return n; }
    int main() { int a = 5; int b = bump(a); return a * 10 + b; }
    """
    assert interpret(typecheck(parse(src))).return_value == mk_int(56)


def test_unbound_symbolic_rejected():
    p = typecheck(parse("int main(){ int n; symbolic n; return n; }"))
    with pytest.raises(Exception, match="unbound symbolic"):
        interpret(p, {})
