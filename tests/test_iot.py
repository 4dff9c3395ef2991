import hashlib
import math
import random
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from indexify import cli, garden
from indexify.garden import (
    BuilderConfig,
    IndexMap,
    SeedSet,
    build_garden,
    format_literal,
    load_gardens,
    serialize_gardens,
)
from indexify.iot import (
    REGISTRY,
    BuiltinOp,
    GardenDim,
    IotError,
    gardens_fingerprint,
    memoise,
    memoise_all,
    parse_iot,
    serialize_iot,
    table_source,
)
from indexify.lang.ast import (
    BOT,
    FLOAT,
    INT,
    STR,
    VERDICT_ESCAPED,
    EscapedGarden,
    Value,
    mk_float,
    mk_int,
    mk_str,
    value_key,
)
from indexify.lang.interp import interpret
from indexify.lang.parser import parse

from conftest import KERNEL, eval_builtin, recording, value_for


def s(x):
    return mk_str(x)


# ---------------------------------------------------------------------------
# concrete builtins
# ---------------------------------------------------------------------------


def test_strstr_semantics():
    assert eval_builtin("strstr", [s(b"foobar"), s(b"oo")]) == s(b"oobar")
    assert eval_builtin("strstr", [s(b"foobar"), s(b"zz")]) == s(b"")  # NULL analogue
    assert eval_builtin("strstr", [s(b"abc"), s(b"")]) == s(b"abc")


def test_strncmp_prefix_compare():
    args = [s(b"NVidia C"), s(b"NVidia Corporation")]
    assert eval_builtin("strncmp", args + [mk_int(4)]) == mk_int(0)
    assert eval_builtin("strncmp", args + [mk_int(64)]) == mk_int(-1)
    # comparison stops at the implicit terminator
    assert eval_builtin("strncmp", [s(b"ab"), s(b"ab")] + [mk_int(99)]) == mk_int(0)
    assert eval_builtin("strncmp", [s(b"ab\0x"), s(b"ab"), mk_int(9)]) == mk_int(0)
    assert eval_builtin("strncmp", [s(b"a"), s(b"b"), mk_int(-3)]) == mk_int(0)


def test_strcat_identity():
    assert eval_builtin("strcat", [s(b""), s(b"x")]) == s(b"x")
    assert eval_builtin("strcat", [s(b"x"), s(b"")]) == s(b"x")


def test_strcmp_sign_semantics():
    assert eval_builtin("strcmp", [s(b"a"), s(b"b")]) == mk_int(-1)
    assert eval_builtin("strcmp", [s(b"b"), s(b"a")]) == mk_int(1)
    assert eval_builtin("strcmp", [s(b"ab"), s(b"ab")]) == mk_int(0)
    assert eval_builtin("strcmp", [s(b"ab"), s(b"abc")]) == mk_int(-1)
    assert eval_builtin("strcmp", [s(b"a\0b"), s(b"a\0c")]) == mk_int(0)


def test_substr_clamps():
    assert eval_builtin("substr", [s(b"abcdef"), mk_int(2), mk_int(3)]) == s(b"cde")
    assert eval_builtin("substr", [s(b"ab"), mk_int(1), mk_int(9)]) == s(b"b")
    assert eval_builtin("substr", [s(b"ab"), mk_int(5), mk_int(1)]) == s(b"")
    assert eval_builtin("substr", [s(b"ab"), mk_int(0), mk_int(-1)]) == s(b"")


def test_float_semantics():
    assert eval_builtin("fadd", [mk_float(1.5), mk_float(2.0)]) == mk_float(3.5)
    assert math.isnan(eval_builtin("sqrt", [mk_float(-1.0)]).raw)
    assert eval_builtin("fdiv", [mk_float(1.0), mk_float(0.0)]).raw == math.inf
    assert eval_builtin("fdiv", [mk_float(-1.0), mk_float(0.0)]).raw == -math.inf
    assert math.isnan(eval_builtin("fdiv", [mk_float(0.0), mk_float(0.0)]).raw)
    # C fmin/fmax prefer the non-NaN operand
    assert eval_builtin("fmin", [mk_float(math.nan), mk_float(2.0)]) == mk_float(2.0)
    assert eval_builtin("fmax", [mk_float(3.0), mk_float(math.nan)]) == mk_float(3.0)


def test_builtin_tag_validation():
    with pytest.raises(IotError):
        REGISTRY["strcat"].eval(s(b"a"), mk_int(1))


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------


def test_fig5_pinned_rows(fig5_strstr):
    assert fig5_strstr.rows[(0, 2)] == 2
    assert fig5_strstr.rows[(0, 3)] == 1


def test_strcat_left_identity():
    gardens = _ab_garden()
    t = memoise(gardens, REGISTRY["strcat"])
    g = gardens[STR]
    empty = g.index_or_bot(s(b""))
    for i in range(len(g)):
        assert t.rows[(empty, i)] == i


def _ab_garden():
    seeds = SeedSet()
    for v in (b"a", b"b", b""):
        seeds.add(mk_str(v))
    return build_garden(
        seeds,
        BuilderConfig(builders=(REGISTRY["strcat"], REGISTRY["strstr"]), k=2, max_str_len=2),
        types={STR},
    )


def test_full_table_matches_oracle():
    # re-evaluate every row against the concrete operator and an
    # independently built value->index mapping
    gardens = _ab_garden()
    g = gardens[STR]
    index_of_value = {value_key(v): i for i, v in enumerate(g.values())}
    for name in ("strcat", "strstr", "strcmp"):
        t = memoise(gardens, REGISTRY[name])
        for key, cell in t.rows.items():
            args = [g.value_at(k) for k in key]
            out = eval_builtin(name, args)
            if t.result_indexed:
                want = index_of_value.get(value_key(out), BOT)
            else:
                want = out.raw
            assert cell == want or (cell is BOT and want is BOT)


def test_row_count_complete():
    gardens = _ab_garden()
    t = memoise(gardens, REGISTRY["strcat"])
    assert len(t.rows) == 49  # 7 x 7
    tn = memoise(gardens, REGISTRY["strncmp"], int_pool=(1, 4))
    assert len(tn.rows) == 7 * 7 * 2


def test_lookup_bot_absorption(fig5_gardens, fig5_strstr):
    assert fig5_strstr.lookup((0, 2)) == 2
    assert fig5_strstr.lookup((BOT, 2)) is BOT
    assert fig5_strstr.lookup((99, 0)) is BOT
    miss = fig5_strstr.lookup((3, 2))  # strstr("oo","bar") misses
    assert fig5_strstr.cell_value(miss).raw is BOT
    strncmp = memoise(fig5_gardens, REGISTRY["strncmp"], int_pool=(2,))
    assert strncmp.lookup((0, 0, 2)) == 0
    assert strncmp.lookup((0, 0, 99)) is BOT  # an int outside the pool


def _garden_memo_shape():
    """The garden_memo benchmark's shape, smaller: three two-byte seeds
    grown by strcat/strstr, and all six string operators over the int pool
    0..5."""
    seeds = SeedSet()
    for v in (b"", b"ab", b"bc", b"ca"):
        seeds.add(mk_str(v))
    builders = (REGISTRY["strcat"], REGISTRY["strstr"])
    gardens = build_garden(seeds, BuilderConfig(builders=builders, k=2, max_str_len=6),
                           types={STR})
    ops = ("strcat", "strcmp", "strlen", "strncmp", "strstr", "substr")
    return gardens, memoise_all(gardens, ops, int_pool=range(6))


def test_garden_and_row_order_pinned():
    # the digest pins garden index assignment and row order, so any change
    # in how argument tuples are enumerated shows here.
    gardens, tables = _garden_memo_shape()
    digest = hashlib.sha256(serialize_gardens(gardens).encode())
    for name in sorted(tables):
        digest.update(serialize_iot(tables[name]).encode())
    assert len(gardens[STR]) == 43
    assert sum(len(t.rows) for t in tables.values()) == 18232
    assert sum(t.bot_rows for t in tables.values()) == 2352
    assert digest.hexdigest() == \
        "f466bea545d78c0ad0e70be267b903b26fb6cfcd572c4245efb1a4d74f4ea86a"


def test_float_garden_and_row_order_pinned():
    # the float companion of the test above: signed zeros and a NaN seed,
    # grown by fadd/fmul, all eight maths operators.  Neither the NaN nor
    # -0.0 is admitted, as seed or as grown result, so every cell whose
    # result is one of them is BOT.
    seeds = SeedSet()
    for x in (0.0, -0.0, 1.0, -1.5, math.nan):
        seeds.add(mk_float(x))
    builders = (REGISTRY["fadd"], REGISTRY["fmul"])
    gardens = build_garden(seeds, BuilderConfig(builders=builders, k=2), types={FLOAT})
    ops = ("fadd", "fsub", "fmul", "fdiv", "sqrt", "fabs", "fmin", "fmax")
    tables = memoise_all(gardens, ops)
    digest = hashlib.sha256(serialize_gardens(gardens).encode())
    for name in sorted(tables):
        digest.update(serialize_iot(tables[name]).encode())
    assert len(gardens[FLOAT]) == 28
    assert sum(len(t.rows) for t in tables.values()) == 4760
    assert sum(t.bot_rows for t in tables.values()) == 2072
    assert digest.hexdigest() == \
        "18fd9f920ff8cf7f5935728093324877a9b53d48fd321f22bba5202ab273902c"


def _edge_gardens():
    """Gardens of edge values: the float garden is offered a NaN and both
    zeros but holds 0.0 only, so a cell whose result is a NaN or a -0.0 is
    BOT; and no string is longer than 3 bytes, so the pool reaches past
    every string."""
    gardens = {STR: IndexMap(STR), FLOAT: IndexMap(FLOAT)}
    for raw in (b"", b"\0", b"a\0b", b"\xff", b"a", b"b", b"ab", b"\xff\0"):
        gardens[STR].admit(mk_str(raw))
    for raw in (-0.0, 0.0, math.nan, math.inf, -math.inf, 1e308, 1.0, -1.0, 0.5):
        gardens[FLOAT].admit(mk_float(raw))
    return gardens, (-1, 0, 1, 3, 4, 9)


def _eval_cell(table, key):
    """A key's cell by way of BuiltinOp.eval on Values."""
    op = REGISTRY[table.op_name]
    try:
        out = op.eval(*(value_for(d, k) for d, k in zip(table.dims, key)))
    except Exception:
        return BOT
    return table.result.index_or_bot(out) if table.result_indexed else out.raw


@pytest.mark.parametrize("name", sorted(set(REGISTRY) - {"puts"}))
def test_edge_values_agree_on_every_path_to_a_cell(name):
    gardens, pool = _edge_gardens()
    assert len(gardens[FLOAT]) == 7  # neither the NaN nor -0.0 is admitted
    rows = memoise(gardens, REGISTRY[name], pool).rows
    looked_up = memoise(gardens, REGISTRY[name], pool)
    assert [looked_up.lookup(key) for key in rows] == list(rows.values())
    assert [_eval_cell(looked_up, key) for key in rows] == list(rows.values())
    some = memoise(gardens, REGISTRY[name], pool)
    for key in list(rows)[::7]:
        some.lookup(key)
    assert list(some.rows.items()) == list(rows.items())


def test_string_tables_over_edge_values_pinned():
    # the six string operators over strings that hold NULs: the digest was
    # taken before strcmp and strncmp prepared their arguments once per
    # column value, so it pins that no cell moved with that
    gardens, pool = _edge_gardens()
    ops = ("strcat", "strcmp", "strlen", "strncmp", "strstr", "substr")
    tables = memoise_all(gardens, ops, int_pool=pool)
    digest = hashlib.sha256()
    for name in sorted(tables):
        digest.update(serialize_iot(tables[name]).encode())
    assert sum(t.size for t in tables.values()) == 872
    assert sum(t.bot_rows for t in tables.values()) == 51
    assert digest.hexdigest() == \
        "eff18f8299750b0abb03856e7c773cc1f1d2e782489e492621e647437fc17c4a"


def test_a_table_prepares_each_column_value_once():
    gardens, pool = _edge_gardens()
    strncmp, prepared = REGISTRY["strncmp"], []

    def counted(raw):
        prepared.append(raw)
        return strncmp.prepare[0](raw)

    op = replace(strncmp, prepare=(counted, counted, None))
    t = memoise(gardens, op, pool)
    rows = t.rows
    n = len(gardens[STR])
    assert len(rows) == n * n * len(pool)
    assert len(prepared) == 2 * n  # per string column, once per garden value
    assert rows == memoise(gardens, strncmp, pool).rows
    assert [t.lookup(key) for key in rows] == list(rows.values())
    assert len(prepared) == 2 * n
    assert op.eval(s(b"a\0b"), s(b"a"), mk_int(3)) == mk_int(0)
    assert len(prepared) == 2 * n + 2  # eval prepares its own arguments


def test_builtins_return_raw_payloads_of_their_result_type():
    # the types mk_str, mk_int and mk_float gave: garden keys and printed
    # floats depend on them
    gardens, pool = _edge_gardens()
    want = {STR: bytes, INT: int, FLOAT: float}
    for name, op in REGISTRY.items():
        dims = memoise(gardens, op, pool).dims
        values = product(*([value_for(d, k) for k in d.domain()] for d in dims))
        for args in values:
            out = op.eval(*args)
            assert out.tag is op.signature.return_type
            assert type(op.call(*(a.raw for a in args))) is type(out.raw) \
                is want[out.tag], (name, args)


def test_a_raising_operator_gives_bot_on_every_path():
    # cells whose call raises, alone and in runs, first and last in a row,
    # read whole and looked up: each is BOT and no other cell moves
    gardens = _ab_garden()
    g, strcat = gardens[STR], REGISTRY["strcat"]

    def raises(a, b):
        return len(a + b) == 2 or a == b"b"

    def fn(a, b):
        if raises(a, b):
            raise ValueError(a, b)
        return strcat.fn(a, b)

    op = BuiltinOp(strcat.signature, fn, strcat.indexes)
    want = {key: BOT if raises(*(g.value_at(k).raw for k in key)) else cell
            for key, cell in memoise(gardens, strcat).rows.items()}
    assert sum(cell is BOT for cell in want.values()) > len(g)
    assert list(memoise(gardens, op).rows.items()) == list(want.items())
    partly = memoise(gardens, op)
    for key in list(want)[::5]:
        partly.lookup(key)
    assert serialize_iot(partly) == serialize_iot(memoise(gardens, op))
    assert list(partly.rows.items()) == list(want.items())
    assert [memoise(gardens, op).lookup(key) for key in want] == list(want.values())


def test_memoise_order_independent():
    # memoisation output is a pure function of gardens and the operator
    a = serialize_iot(memoise(_ab_garden(), REGISTRY["strstr"]))
    b = serialize_iot(memoise(_ab_garden(), REGISTRY["strstr"]))
    assert a == b


def test_raw_result_tables_keep_bot_distinct():
    gardens = _ab_garden()
    t = memoise(gardens, REGISTRY["strcmp"])
    assert not t.result_indexed
    assert -1 in t.rows.values()  # a legitimate -1 result
    assert t.lookup((0, 99)) is BOT  # out of range stays the BOT variant


def test_only_looked_up_cells_are_computed():
    # each lookup computes the cell it reads with one fn call, a repeated
    # key included, and keeps nothing.  The first whole read computes the
    # complete table, whatever was looked up before it, and keeps it: one
    # kernel call with strncmp's whole-table kernel, one fn call per cell
    # without it.  Later whole reads compute nothing
    gardens = _ab_garden()
    eager = memoise(gardens, REGISTRY["strncmp"], int_pool=(1, 4))
    for kernel in (False, True):
        calls = []
        op = recording(REGISTRY["strncmp"], calls)
        t = memoise(gardens, op if kernel else replace(op, tabulate=None), int_pool=(1, 4))
        assert calls == []  # the table computes no cell up front
        keys = [(0, 1, 4), (3, 2, 1), (6, 6, 4), (3, 2, 1), (0, 1, 4)]
        cells = [t.lookup(k) for k in keys]
        assert len(calls) == len(keys)  # one call per lookup, a repeat included
        assert cells[1] == cells[3] and cells[0] == cells[4]
        assert len(eager.rows) == t.size == 7 * 7 * 2  # every cell, before any lookup
        text = serialize_iot(t)  # the first whole read
        read_whole = 1 if kernel else t.size  # its calls
        assert len(calls) == len(keys) + read_whole
        assert calls.count(KERNEL) == (1 if kernel else 0)
        assert text == serialize_iot(eager)
        assert serialize_iot(parse_iot(text, gardens)) == text
        assert [eager.rows[k] for k in keys] == cells
        assert t.rows == eager.rows  # the complete table
        assert list(t.rows) == list(eager.rows)  # in product order
        assert t.bot_rows == eager.bot_rows
        assert serialize_iot(t) == text and t.cells() is t.cells()
        assert len(calls) == len(keys) + read_whole  # every read after the first: no call
        assert [t.lookup(k) for k in keys] == cells  # after a whole read, one call each
        len(t.rows)
        assert len(calls) == 2 * len(keys) + read_whole


def test_lookups_retain_nothing():
    # 40,000 distinct lookups of a strcmp table over 200 strings: the table
    # keeps none of the cells they compute
    garden = IndexMap(STR)
    for i in range(200):
        garden.admit(s(b"%03d" % i))
    t = memoise({STR: garden}, REGISTRY["strcmp"])
    keys = [*product(range(200), repeat=2)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in keys:
            t.lookup(key)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


@pytest.mark.parametrize("name, pool", [("strncmp", (1, 4)), ("strcat", ())])
def test_a_loaded_table_read_whole_computes_nothing(name, pool, monkeypatch):
    # a table read by parse_iot keeps the file's rows: reading it whole
    # reads them, with no fn or kernel call
    gardens = _ab_garden()
    text = serialize_iot(memoise(gardens, REGISTRY[name], int_pool=pool))
    calls = []
    monkeypatch.setitem(REGISTRY, name, recording(REGISTRY[name], calls))
    loaded = parse_iot(text, gardens)
    assert serialize_iot(loaded) == text
    assert loaded.bot_rows == text.count("-> BOT")
    assert len(loaded.rows) == loaded.size
    assert calls == []


@pytest.mark.parametrize("name, pool", [("strncmp", (1, 4)), ("strcat", ())])
def test_a_loaded_table_answers_from_its_file(name, pool, monkeypatch):
    # one in-domain cell of the file is edited by hand: the loaded table's
    # lookups, cells() and text all give the file's cells, and op.fn and
    # its kernel are never called
    gardens = _ab_garden()
    rows = memoise(gardens, REGISTRY[name], int_pool=pool).rows
    key = [*rows][9]
    new = 1 if rows[key] == 0 else 0  # an index of the 7-value garden too
    want = [*rows.values()]
    want[9] = new
    text = serialize_iot(memoise(gardens, REGISTRY[name], int_pool=pool))
    line = " ".join(map(str, key)) + " -> "
    edited = text.replace(f"\n{line}{rows[key]}\n", f"\n{line}{new}\n")
    assert edited.count("\n") == text.count("\n") and edited != text
    calls = []
    monkeypatch.setitem(REGISTRY, name, recording(REGISTRY[name], calls))
    loaded = parse_iot(edited, gardens)
    assert [loaded.lookup(k) for k in rows] == want
    assert loaded.lookup((7,) + key[1:]) is BOT  # outside the domains
    assert loaded.cells() == want
    assert serialize_iot(loaded) == edited
    assert calls == []


@pytest.mark.parametrize("looked_up", [False, True])
def test_keys_outside_the_domains_are_bot_and_compute_nothing(looked_up):
    gardens = _ab_garden()
    n = len(gardens[STR])
    calls = []
    t = memoise(gardens, recording(REGISTRY["strncmp"], calls), int_pool=(1, 4))
    if looked_up:
        assert t.lookup((0, 1, 4)) is not BOT
    made = len(calls)
    outside = [(BOT, 0, 1), (0, BOT, 4), (0, 0, BOT), (-1, 0, 1), (0, n, 4),
               (0, 0, 2), (0, 0, -1), (0, 0), (0, 0, 1, 1), ()]
    for _ in range(2):  # the second time after rows has computed every cell
        for key in outside:
            assert t.lookup(key) is BOT, key
            with pytest.raises(EscapedGarden):  # a raw-result miss escapes at the call
                t.cell_value(t.lookup(key))
            assert t.cell_value(t.lookup(key), bot_propagate=True).raw is BOT
        assert len(calls) == made
        assert len(t.rows) == t.size == n * n * 2
        made = len(calls)
    indexed = memoise(gardens, REGISTRY["strcat"])
    for key in ((BOT, 0), (-1, 0), (0, n), (0,)):
        for propagate in (False, True):  # a BOT index escapes where it is used
            assert indexed.cell_value(indexed.lookup(key), propagate).raw is BOT
    assert len(indexed.rows) == n * n


def _check_lines(t):
    """Each line of t, every dimension free in turn, against lookup of its
    keys; the number of lines checked."""
    domains = [[*d.domain()] for d in t.dims]
    lines = 0
    for at in range(t.arity):
        for fixed in product(*domains[:at], *domains[at + 1:]):
            head, tail = fixed[:at], fixed[at:]
            want = [t.lookup(head + (v,) + tail) for v in domains[at]]
            assert t.line(head, tail) == want, (t.op_name, head, tail)
            lines += 1
    return lines


def test_a_line_is_the_lookups_of_its_keys():
    # every line of the garden_memo shape's tables, substr's and strncmp's
    # int-pool dimensions free included, then of its tables as parse_iot
    # loads them; no line reads its table whole
    gardens, tables = _garden_memo_shape()
    n = len(gardens[STR])
    lines = {name: _check_lines(t) for name, t in tables.items()}
    assert lines == {"i_strcat": 2 * n, "i_strcmp": 2 * n, "i_strlen": 1,
                     "i_strncmp": 2 * n * 6 + n * n, "i_strstr": 2 * n,
                     "i_substr": 6 * 6 + 2 * n * 6}
    for name, t in tables.items():
        assert t._whole is None, name
        loaded = parse_iot(serialize_iot(t), gardens)
        assert _check_lines(loaded) == lines[name]
        assert loaded.cells() == t.cells()


def test_a_line_with_a_fixed_component_outside_its_domain_is_bot():
    # as lookup is on each of its keys, and no cell is computed
    gardens = _ab_garden()
    n = len(gardens[STR])
    calls = []
    t = memoise(gardens, recording(REGISTRY["strncmp"], calls), int_pool=(1, 4))
    for head, tail in [((), (BOT, 1)), ((), (0, 2)), ((), (0, -1)), ((-1,), (4,)),
                       ((n,), (1,)), ((0, n), ()), ((0,), (1, 1)), ((0,), ())]:
        free = t.dims[len(head)]
        want = [t.lookup(head + (v,) + tail) for v in free.domain()]
        assert want == [BOT] * len(free.domain())
        assert t.line(head, tail) == want, (head, tail)
    assert calls == []


def test_a_float_line_is_bot_where_the_result_is_nan_or_negative_zero():
    gardens, pool = _edge_gardens()
    g = gardens[FLOAT]
    zero, one = (g.index_or_bot(mk_float(x)) for x in (0.0, 1.0))
    fdiv, fmul = (memoise(gardens, REGISTRY[name]) for name in ("fdiv", "fmul"))
    # 0.0 / 0.0 is NaN and 0.0 * -1.0 is -0.0: neither is in the garden
    assert math.isnan(REGISTRY["fdiv"].fn(0.0, 0.0))
    assert fdiv.line((zero,), ())[zero] is BOT
    assert math.copysign(1.0, REGISTRY["fmul"].fn(0.0, -1.0)) == -1.0
    products = [0.0 * g.value_at(i).raw for i in range(len(g))]
    assert fmul.line((zero,), ()) == [
        BOT if math.isnan(r) or math.copysign(1.0, r) < 0 else zero for r in products]
    assert sum(math.isnan(r) for r in products) == 2  # 0.0 * inf and 0.0 * -inf
    assert fdiv.line((), (one,))[zero] == zero
    for name in ("fadd", "fsub", "fmul", "fdiv", "sqrt", "fabs", "fmin", "fmax"):
        _check_lines(memoise(gardens, REGISTRY[name], pool))


def test_a_raising_call_is_one_bot_cell_of_its_line():
    # the call on one argument raises: its cell is BOT, every other cell
    # of the line is computed, in one fn call each
    gardens = _ab_garden()
    g, strcat = gardens[STR], REGISTRY["strcat"]
    b = g.index_or_bot(s(b"b"))
    calls = []

    def fn(x, y):
        if x == b"b":
            raise ValueError(x)
        return strcat.fn(x, y)

    assert 0 < b < len(g) - 1  # cells come before and after the raising one
    t = memoise(gardens, recording(BuiltinOp(strcat.signature, fn, strcat.indexes), calls))
    plain = memoise(gardens, strcat)
    for y in range(len(g)):
        line = t.line((), (y,))
        assert len(calls) == len(g) * (y + 1)
        assert line == [BOT if x == b else plain.lookup((x, y)) for x in range(len(g))]
        assert line[b + 1] is not BOT
    assert t.line((b,), ()) == [BOT] * len(g)


def test_indexed_signature(fig5_strstr):
    sig = fig5_strstr.indexed_signature()
    assert sig.name == "i_strstr"
    assert all(t.name == "index" for t in sig.arg_types)
    assert sig.return_type.name == "index"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_roundtrip(fig5_gardens, fig5_strstr):
    text = serialize_iot(fig5_strstr)
    again = parse_iot(text, fig5_gardens)
    assert again.rows == fig5_strstr.rows
    assert serialize_iot(again) == text


def test_table_source_pinned(fig5_gardens, fig5_strstr):
    # the emitted i_* function: a read of each garden argument, so that a
    # BOT argument escapes at the call, a line per non-BOT row, in the row
    # order of tables.iot, then the miss.  A raw result's miss consumes BOT,
    # so it escapes at the call
    assert table_source(fig5_strstr) == "\n".join([
        "index<str> i_strstr(index<str> s1, index<str> s2) {",
        "  unidx(s1);",
        "  unidx(s2);",
        "  if (s1 == 0@str && s2 == 0@str) { return 0@str; }",
        "  if (s1 == 0@str && s2 == 1@str) { return 1@str; }",
        "  if (s1 == 0@str && s2 == 2@str) { return 2@str; }",
        "  if (s1 == 0@str && s2 == 3@str) { return 1@str; }",
        "  if (s1 == 1@str && s2 == 1@str) { return 1@str; }",
        "  if (s1 == 1@str && s2 == 2@str) { return 2@str; }",
        "  if (s1 == 1@str && s2 == 3@str) { return 1@str; }",
        "  if (s1 == 2@str && s2 == 2@str) { return 2@str; }",
        "  if (s1 == 3@str && s2 == 3@str) { return 3@str; }",
        "  return bot@str;",
        "}"])
    strlen = memoise_all(fig5_gardens, {"strlen"})["i_strlen"]
    assert table_source(strlen) == "\n".join([
        "int i_strlen(index<str> s1) {",
        "  unidx(s1);",
        "  if (s1 == 0@str) { return 6; }",
        "  if (s1 == 1@str) { return 5; }",
        "  if (s1 == 2@str) { return 3; }",
        "  if (s1 == 3@str) { return 2; }",
        "  return strlen(unidx(bot@str));",
        "}"])


def test_call_consumes_a_bot_component(fig5_gardens, fig5_strstr):
    # one rule for an indexed call, whatever its result: a BOT argument
    # escapes, or with bot_propagate gives the BOT Value; any other key
    # gives its cell's Value, a raw-result miss escaping as cell_value's does
    strlen = memoise_all(fig5_gardens, {"strlen"})["i_strlen"]
    for table, key, cell in ((fig5_strstr, (0, 2), 2), (strlen, (0,), 6)):
        assert table.call(key) == table.call(key, True) == Value(table.cell_tag, cell)
        bot = key[:-1] + (BOT,)
        with pytest.raises(EscapedGarden):
            table.call(bot)
        assert table.call(bot, bot_propagate=True) == Value(table.cell_tag, BOT)
    assert fig5_strstr.call((3, 2)) == Value(fig5_strstr.cell_tag, BOT)  # a miss
    with pytest.raises(EscapedGarden):
        strlen.call((99,))
    assert strlen.call((99,), bot_propagate=True) == Value(INT, BOT)


def test_an_emitted_function_with_no_row_escapes_on_a_bot_argument():
    # fdiv over {0.0, -1.0} gives NaN, -0.0, -inf and 1.0, none in the
    # garden: no row line reads s2, so only the read of each argument makes
    # the emitted call escape on a BOT argument, as the table's call does
    gardens = {FLOAT: IndexMap(FLOAT)}
    for raw in (0.0, -1.0):
        gardens[FLOAT].admit(mk_float(raw))
    fdiv = memoise_all(gardens, {"fdiv"})["i_fdiv"]
    assert fdiv.bot_rows == fdiv.size == 4
    program = parse(table_source(fdiv) + "\nint main() {\n"
                    "  index<float> r = i_fdiv(0@float, bot@float);\n  return 0;\n}")
    assert interpret(program, gardens=gardens).verdict == VERDICT_ESCAPED
    with pytest.raises(EscapedGarden):
        fdiv.call((0, BOT))


def test_parse_rejects_wrong_garden(fig5_strstr):
    other = load_gardens("0\tstr\tfoobar\n1\tstr\tbar\n")
    with pytest.raises(IotError, match="different garden"):
        parse_iot(serialize_iot(fig5_strstr), other)


def _hash_gardens():
    """A str garden of bytes that print escaped, or that print as
    themselves where a quoted literal would escape them, and a float garden
    of the infinities, a signed value and one printed with an exponent."""
    gardens = {STR: IndexMap(STR), FLOAT: IndexMap(FLOAT)}
    for raw in (b"", b'a"b', b"x\\y", b"\t", b"\n", b"\x00\x80\xff", "é→😀".encode()):
        gardens[STR].admit(mk_str(raw))
    for raw in (math.inf, -math.inf, 0.0, 1e-05, -2.5):
        gardens[FLOAT].admit(mk_float(raw))
    return gardens


def _per_value_fingerprint(dims, result) -> str:
    """gardens_fingerprint as first written: one update per literal, each
    formatted from its Value."""
    h = hashlib.sha256()
    for d in dims:
        if isinstance(d, GardenDim):
            h.update(b"garden\0")
            for v in d.imap.values():
                h.update(format_literal(v).encode("utf-8") + b"\0")
        else:
            h.update(b"pool\0")
            h.update(",".join(map(str, d.pool)).encode("ascii") + b"\0")
    if isinstance(result, IndexMap):
        h.update(b"result\0")
        for v in result.values():
            h.update(format_literal(v).encode("utf-8") + b"\0")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name, pool, empty, want", [
    ("strcat", (), False, "67e8e376d34ce5cc"),
    ("strlen", (), False, "2e9e1d580527443b"),
    ("fadd", (), False, "0f113c541c55d8a9"),
    ("substr", (-1, 0, 3), False, "1a661981361f8b65"),
    ("strncmp", (0, 2), False, "38e54dcec6682b50"),
    ("strstr", (), True, "d87c632ca8b40629"),
    ("substr", (), True, "9b9ecb096aef74db"),
])
def test_table_hash_pinned(name, pool, empty, want):
    # tables files carry this hash, so --indexOpDefs files written by any
    # earlier build must still load: the values are fixed, not recomputed.
    # The one exception is fadd's: its float garden held a NaN, which no
    # garden may hold now, so a table over such a garden cannot be reused
    gardens = {STR: IndexMap(STR)} if empty else _hash_gardens()
    t = memoise(gardens, REGISTRY[name], pool)
    assert t.garden_hash == want
    assert gardens_fingerprint(t.dims, t.result) == want
    assert _per_value_fingerprint(t.dims, t.result) == want


@pytest.mark.parametrize("name, tag, new, empty", [
    ("strcat", STR, mk_str(b"new\0"), False),
    ("substr", STR, mk_str(b""), True),
    ("fmul", FLOAT, mk_float(-0.5), False),
])
def test_table_hash_and_garden_file_follow_the_garden(name, tag, new, empty):
    # the kept garden text must not outlive an admit: a stale copy would
    # give a grown garden its old hash and its old garden file
    gardens = {STR: IndexMap(STR)} if empty else _hash_gardens()
    t = memoise(gardens, REGISTRY[name], (0, 1))
    text = serialize_gardens(gardens)
    before = gardens_fingerprint(t.dims, t.result)
    assert before == t.garden_hash
    gardens[tag].admit(new)
    after = gardens_fingerprint(t.dims, t.result)
    assert after != before
    assert after == _per_value_fingerprint(t.dims, t.result)
    assert serialize_gardens(gardens) != text
    assert load_gardens(serialize_gardens(gardens))[tag].values()[-1:] == [new]


def test_setup_formats_each_garden_value_once(monkeypatch, tmp_path):
    # every table of garden_memo hashes the same 121-value garden, and
    # garden.txt lists it: the text of each value is made once for all of them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import make_jobs

    calls = []

    def counting(v):
        calls.append(v)
        return format_literal(v)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "indexify" and \
                getattr(module, "format_literal", None) is format_literal:
            monkeypatch.setattr(module, "format_literal", counting)
    assert garden.format_literal is counting
    (job,) = make_jobs("garden_memo", 1)
    cfg = replace(job.cfg, outdir=str(tmp_path), input_path=str(tmp_path / "g.mi"))
    pipe = cli.build_pipeline(parse(job.source), cfg)
    cli.rewrite_pipeline(pipe, cfg)
    reports = {mode: cli.run_mode(cfg, pipe, mode) for mode in job.modes}
    cli.write_artifacts(cfg, pipe, reports)
    assert len(pipe.tables) == 6
    assert len(pipe.gardens[STR]) == 121
    assert 0 < len(calls) <= 121  # 1,573 + 121 when each table formatted its own


def test_parse_rejects_malformed(fig5_gardens):
    with pytest.raises(IotError, match="header"):
        parse_iot("nonsense\n", fig5_gardens)


def test_parse_rejects_rows_outside_the_domains():
    # lookup reads rows directly, so a row key outside the pool must not load
    # even when the row count is right
    gardens = _ab_garden()
    text = serialize_iot(memoise(gardens, REGISTRY["strncmp"], int_pool=(1, 4)))
    bad = text.replace("\n0 0 4 ->", "\n0 0 99 ->")
    assert bad != text
    with pytest.raises(IotError, match="argument tuples"):
        parse_iot(bad, gardens)


def test_raw_table_roundtrip():
    gardens = _ab_garden()
    t = memoise(gardens, REGISTRY["strncmp"], int_pool=(1, 4))
    again = parse_iot(serialize_iot(t), gardens)
    assert again.rows == t.rows
    assert [d.pool for d in again.dims if hasattr(d, "pool")] == [(1, 4)]


def test_memoise_all_keys_by_indexed_name():
    gardens = _ab_garden()
    tables = memoise_all(gardens, {"strcat", "strlen"}, int_pool=())
    assert set(tables) == {"i_strcat", "i_strlen"}


def test_random_float_tables_match_oracle():
    rng = random.Random(3)
    seeds = SeedSet()
    for _ in range(3):
        seeds.add(mk_float(rng.choice([0.0, 1.0, 2.0, -3.0, 0.5])))
    gardens = build_garden(
        seeds,
        BuilderConfig(builders=tuple(REGISTRY[n] for n in ("fadd", "fmul", "sqrt")), k=2),
        types={FLOAT},
    )
    g = gardens[FLOAT]
    index_of_value = {value_key(v): i for i, v in enumerate(g.values())}
    t = memoise(gardens, REGISTRY["fdiv"])
    for key, cell in t.rows.items():
        out = eval_builtin("fdiv", [g.value_at(k) for k in key])
        want = index_of_value.get(value_key(out), BOT)
        assert cell == want or (cell is BOT and want is BOT)


def _c_compare(a, b, n):
    """strncmp as C runs it, byte by byte: a string ends at its first NUL
    or its last byte."""
    for i in range(n):
        ca = a[i] if i < len(a) else 0
        cb = b[i] if i < len(b) else 0
        if ca != cb:
            return -1 if ca < cb else 1
        if ca == 0:
            return 0
    return 0


def test_string_comparisons_match_a_byte_loop():
    rng = random.Random(5)
    strs = [bytes(rng.choice(b"\0ab\xff") for _ in range(rng.randrange(5)))
            for _ in range(120)]
    for a in strs:
        for b in strs:
            want = _c_compare(a, b, 6)
            assert eval_builtin("strcmp", [s(a), s(b)]) == mk_int(want), (a, b)
            for n in (-1, 0, 1, 2, 4):
                want = _c_compare(a, b, n)
                assert eval_builtin("strncmp", [s(a), s(b), mk_int(n)]) == mk_int(want)


def _strcat_table(col_a, col_b):
    return [a + b for a, b in product(col_a, col_b)]


@pytest.mark.parametrize("name", ["strcmp", "strncmp", "strcat"])
def test_whole_table_kernels_agree_with_fn(name):
    # random gardens of short strings with NULs and \xff, the empty string
    # and strings equal after the NUL cut; pools with negative values, 0
    # and n past every length, and the empty pool.  strcat has no kernel in
    # the registry: one here checks that a kernel's results outside the
    # result garden are BOT
    rng = random.Random(11)
    op = REGISTRY[name]
    if op.tabulate is None:
        op = replace(op, tabulate=_strcat_table)
    for _ in range(40):
        garden = IndexMap(STR)
        for raw in (b"", b"a", b"a\0", b"a\0\xff"):
            if rng.random() < 0.5:
                garden.admit(s(raw))
        for _ in range(rng.randrange(8)):
            garden.admit(s(bytes(rng.choice(b"\0a\xff") for _ in range(rng.randrange(4)))))
        pool = rng.sample([-2, -1, 0, 1, 2, 3, 9], rng.randrange(5))
        calls = []
        t = memoise({STR: garden}, recording(op, calls), pool)
        fresh = memoise({STR: garden}, replace(op, tabulate=None), pool)
        keys = [*product(*(d.domain() for d in t.dims))]
        assert t.cells() == [fresh.lookup(k) for k in keys], (garden.values(), pool)
        assert calls == [KERNEL]  # an empty pool's table too: its kernel gives []
        assert t.cells() == fresh.cells()  # the kept cells: no call at all
        assert calls == [KERNEL]
