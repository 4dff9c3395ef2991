import itertools
import math
import random
from dataclasses import replace

import pytest

from indexify.bench import corpus_path
from indexify.garden import (
    BuilderConfig,
    GardenError,
    IndexMap,
    SeedSet,
    build_garden,
    extend,
    format_literal,
    harvest_int_pool,
    harvest_seeds,
    load_gardens,
    parse_literal,
    serialize_gardens,
)
from indexify.cli import format_input_value, parse_input_value
from indexify.iot import REGISTRY
from indexify.lang.ast import BOOL, BOT, FLOAT, INT, STR, EscapedGarden, Value, mk_str, value_key
from indexify.lang.parser import parse
from indexify.lang.printer import print_literal
from indexify.lang.typecheck import typecheck

from conftest import recording

STRCAT = REGISTRY["strcat"]
STRSTR = REGISTRY["strstr"]


def seed_set(*values):
    s = SeedSet()
    for v in values:
        s.add(mk_str(v))
    return s


def raws(imap):
    return [v.raw for v in imap.values()]


# ---------------------------------------------------------------------------
# harvesting
# ---------------------------------------------------------------------------


def test_harvest_vendor_constants():
    p = typecheck(parse(open(corpus_path("vendor_check")).read()))
    seeds = harvest_seeds(p, {STR})
    assert mk_str(b"NVidia Corporation") in seeds.values(STR)
    assert harvest_int_pool(p) == (0, 1, 4, 64)


def test_seed_set_keeps_the_first_of_each_value_in_order():
    # the first of each value wins, and a NaN or a -0.0 is skipped, as in a
    # garden: -0.0 is not 0.0's seed
    s = SeedSet()
    for tag, raw in [(FLOAT, -0.0), (STR, b"a"), (FLOAT, 1.0), (FLOAT, 0.0),
                     (FLOAT, float("nan")), (STR, b""), (FLOAT, -float("nan")),
                     (STR, b"a"), (FLOAT, 1.0), (FLOAT, -0.0), (INT, 0), (INT, 0)]:
        s.add(Value(tag, raw))
    assert [repr(v.raw) for v in s.values(FLOAT)] == ["1.0", "0.0"]
    assert s.values(STR) == [mk_str(b"a"), mk_str(b"")]
    assert s.values(INT) == [Value(INT, 0)]
    assert set(s.per_type) == {FLOAT, STR, INT}


def test_harvest_forces_empty_string():
    p = typecheck(parse("int main(){ return 0; }"))
    seeds = harvest_seeds(p, {STR})
    assert seeds.values(STR) == [mk_str(b"")]


def test_harvest_fig4a_seeds(fig4a_program):
    seeds = harvest_seeds(fig4a_program, {STR})
    assert raws(_as_map(seeds)) == [b"", b"a", b"foo", b"bar"]


def _as_map(seeds):
    imap = IndexMap(STR)
    for v in seeds.values(STR):
        imap.admit(v)
    return imap


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def test_extend_strcat_over_three_values():
    imap = _as_map(seed_set(b"", b"a", b"b"))
    extend(imap, STRCAT, max_str_len=8)
    assert raws(imap) == [b"", b"a", b"b", b"aa", b"ab", b"ba", b"bb"]


def test_extend_empty_garden_unchanged():
    imap = IndexMap(STR)
    extend(imap, STRCAT)
    assert len(imap) == 0


def test_extend_strstr_adds_suffix():
    imap = _as_map(seed_set(b"foobar", b"oo"))
    extend(imap, STRSTR, max_str_len=8)
    # brute-force substring-search oracle over the snapshot
    expected = {b"foobar", b"oo"}
    for h in (b"foobar", b"oo"):
        for n in (b"foobar", b"oo"):
            pos = h.find(n)
            expected.add(h[pos:] if pos >= 0 else b"")
    assert set(raws(imap)) == expected
    assert b"oobar" in raws(imap)


def test_extend_counts_skips():
    imap = _as_map(seed_set(b"abc", b"de"))
    extend(imap, STRCAT, max_str_len=4)
    # abc+abc, abc+de, de+abc are too long; de+de fits
    assert raws(imap) == [b"abc", b"de", b"dede"]


@pytest.mark.parametrize("fresh_from", range(5))
def test_extend_applies_the_tuples_with_a_fresh_value(fresh_from):
    # values[fresh_from:] are admitted after the others; a pass still
    # applies every tuple, those with a fresh value among them
    calls = []
    values = [b"", b"a", b"b", b"c"]
    imap = _as_map(seed_set(*values[:fresh_from]))
    for v in values[fresh_from:]:
        imap.admit(mk_str(v))
    extend(imap, recording(STRCAT, calls))
    assert calls == [*itertools.product(values, repeat=2)]  # in product order
    fresh = [tuple(values[i] for i in t) for t in itertools.product(range(4), repeat=2)
             if max(t) >= fresh_from]
    assert [c for c in calls if c in fresh] == fresh


def test_extend_rejects_foreign_operator():
    imap = IndexMap(STR)
    with pytest.raises(GardenError):
        extend(imap, REGISTRY["strlen"])


def _value_first_extend(imap, op, *, max_str_len):
    """extend as first written: each result is wrapped as a Value, then
    judged by its length, then offered to admit."""
    snapshot = imap.values()
    for idx in itertools.product(range(len(snapshot)), repeat=op.signature.arity):
        try:
            result = Value(op.signature.return_type, op.call(*(snapshot[i].raw for i in idx)))
        except Exception:
            continue
        if result.tag is not STR or len(result.raw) <= max_str_len:
            imap.admit(result)


def _strcat_unless_nul(a: bytes, b: bytes) -> bytes:
    """strcat that raises on a left operand starting with NUL."""
    if a[:1] == b"\0":
        raise ValueError("NUL")
    return a + b


_FLOATS = (math.nan, -math.nan, -0.0, 0.0, math.inf, -math.inf, 1.0, -2.5, 0.5, 1e308)


@pytest.mark.parametrize("name", ["strcat", "strstr", "raising", "fadd", "fmul",
                                  "fdiv", "fmin", "fmax"])
def test_raw_first_growth_equals_value_first_growth(name):
    # the values and their order (and so which of two equal floats is kept),
    # for random snapshots
    op = replace(STRCAT, fn=_strcat_unless_nul) if name == "raising" else REGISTRY[name]
    tag = op.signature.return_type
    rng = random.Random(name)
    for _ in range(40):
        max_str_len = rng.randint(1, 4)
        if tag is STR:
            seeds = [bytes(rng.choice(b"\0ab") for _ in range(rng.randint(0, max_str_len + 1)))
                     for _ in range(rng.randint(0, 6))]
        else:
            seeds = [rng.choice(_FLOATS) for _ in range(rng.randint(0, 6))]
        base = IndexMap(tag)
        for raw in seeds:
            base.admit(Value(tag, raw))
        got, want = IndexMap(tag), IndexMap(tag)
        for v in base.values():
            got.admit(v)
            want.admit(v)
        extend(got, op, max_str_len=max_str_len)
        _value_first_extend(want, op, max_str_len=max_str_len)
        assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]


# ---------------------------------------------------------------------------
# build_garden
# ---------------------------------------------------------------------------


def test_seven_value_garden():
    g = build_garden(seed_set(b"a", b"b", b""),
                     BuilderConfig(builders=(STRCAT, STRSTR), k=2, max_str_len=2),
                     types={STR})
    assert set(raws(g[STR])) == {b"", b"a", b"b", b"aa", b"bb", b"ab", b"ba"}


def test_k_zero_is_seeds():
    g = build_garden(seed_set(b"x", b"y"), BuilderConfig(builders=(STRCAT,), k=0),
                     types={STR})
    assert raws(g[STR]) == [b"x", b"y"]


def test_single_seed_strstr_closure():
    g = build_garden(seed_set(b"foobar"),
                     BuilderConfig(builders=(STRSTR,), k=1), types={STR})
    # strstr(x, x) = x; the only application dedups, nothing new appears
    assert raws(g[STR]) == [b"foobar"]


def test_monotonic_in_k():
    seeds = seed_set(b"a", b"b", b"")
    prev = None
    for k in range(4):
        g = build_garden(seeds, BuilderConfig(builders=(STRCAT, STRSTR), k=k,
                                              max_str_len=4), types={STR})
        cur = raws(g[STR])
        if prev is not None:
            assert cur[: len(prev)] == prev  # index prefixes stay stable
        prev = cur


def _full_pass_garden(seeds, builders, k, max_str_len):
    """Growth as first specified: every round applies every builder to every
    argument tuple of the round's snapshot."""
    imap = _as_map(seeds)
    for _ in range(k):
        snapshot = imap.values()
        for op in builders:
            for args in itertools.product(snapshot, repeat=op.signature.arity):
                out = op.eval(*args)
                if len(out.raw) <= max_str_len:
                    imap.admit(out)
    return imap


@pytest.mark.parametrize("extra", [(), (b"qq",)])
def test_growth_matches_full_passes(extra):
    # the garden_memo benchmark's seeds, and a fourth one
    seeds = seed_set(b"", b"ab", b"bc", b"ca", *extra)
    for k in range(1, 5):
        cfg = BuilderConfig(builders=(STRCAT, STRSTR), k=k, max_str_len=5)
        got = build_garden(seeds, cfg, types={STR})
        want = _full_pass_garden(seeds, (STRCAT, STRSTR), k, 5)
        assert raws(got[STR]) == raws(want)


def test_growth_stops_after_a_round_that_admits_nothing():
    calls = []
    builders = (recording(STRCAT, calls),)
    sizes = []
    for k in (3, 4, 50):
        calls.clear()
        g = build_garden(seed_set(b"a", b""), BuilderConfig(builders=builders, k=k,
                                                           max_str_len=2), types={STR})
        sizes.append((len(g[STR]), len(calls)))
    # rounds 1 and 2 admit aa and then nothing: round 1 applies the 4 tuples
    # over {a, ""}, round 2 the 9 over {a, "", aa}, and no later round any
    assert sizes == [(3, 13), (3, 13), (3, 13)]


def test_deterministic_serialization():
    seeds = seed_set(b"ab", b"c")
    cfg = BuilderConfig(builders=(STRCAT, STRSTR), k=2, max_str_len=4)
    a = serialize_gardens(build_garden(seeds, cfg, types={STR}))
    b = serialize_gardens(build_garden(seed_set(b"ab", b"c"), cfg, types={STR}))
    assert a == b


def test_bijection_roundtrip():
    g = build_garden(seed_set(b"a", b"b", b""),
                     BuilderConfig(builders=(STRCAT,), k=2, max_str_len=3),
                     types={STR})[STR]
    for v in g.values():
        assert g.value_at(g.index_or_bot(v)) == v
    for i in range(len(g)):
        assert g.index_or_bot(g.value_at(i)) == i


def test_dedup_no_duplicates():
    rng = random.Random(11)
    for _ in range(20):
        seeds = SeedSet()
        for _ in range(rng.randint(1, 4)):
            seeds.add(mk_str(bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 3)))))
        g = build_garden(seeds, BuilderConfig(builders=(STRCAT, STRSTR),
                                              k=rng.randint(0, 3),
                                              max_str_len=4), types={STR})[STR]
        keys = [value_key(v) for v in g.values()]
        assert len(keys) == len(set(keys))


def test_closure_bound():
    # every non-seed value is rebuildable by <= k nested applications: check
    # with an instrumented recomputation of the depth-limited closure
    seeds = seed_set(b"a", b"b", b"")
    k = 3
    g = build_garden(seeds, BuilderConfig(builders=(STRCAT, STRSTR), k=k,
                                          max_str_len=4), types={STR})[STR]
    layer = {v.raw for v in seeds.values(STR)}
    for _ in range(k):
        frontier = set(layer)
        for op in (STRCAT, STRSTR):
            for args in itertools.product(sorted(layer), repeat=op.signature.arity):
                out = op.eval(*map(mk_str, args))
                if len(out.raw) <= 4:
                    frontier.add(out.raw)
        layer = frontier
    for v in g.values():
        assert v.raw in layer


def test_kleene_mode_enumerates_alphabet():
    g = build_garden(seed_set(b"ab", b"b"),
                     BuilderConfig(k=2, max_str_len=2, mode="kleene"),
                     types={STR})[STR]
    assert set(raws(g)) == {b"", b"a", b"b", b"ab", b"aa", b"ba", b"bb"}


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def test_delta_bot_fig5(fig5_gardens):
    g = fig5_gardens[STR]
    assert g.index_or_bot(mk_str(b"bar")) == 2
    assert g.index_or_bot(mk_str(b"oobar")) == 1
    assert g.index_or_bot(mk_str(b"nope")) is BOT


def test_delta_inv_fig5(fig5_gardens):
    g = fig5_gardens[STR]
    assert g.value_at(2) == mk_str(b"bar")
    with pytest.raises(EscapedGarden):
        g.value_at(BOT)
    with pytest.raises(GardenError):
        g.value_at(99)


# ---------------------------------------------------------------------------
# garden files
# ---------------------------------------------------------------------------


def test_garden_file_roundtrip():
    g = build_garden(seed_set(b"a\tb", b"\xff", b""),
                     BuilderConfig(builders=(STRCAT,), k=1, max_str_len=8),
                     types={STR})
    text = serialize_gardens(g)
    again = load_gardens(text)
    assert serialize_gardens(again) == text


def test_string_text_round_trips_in_every_format():
    # garden text, test-case text and MiniImp source share one escape codec
    strings = [bytes([c]) for c in range(256)]
    strings += [bytes(range(256)), b'say "hi"', b"a\\b\\", b'\\"', b'"\\']
    for raw in strings:
        v = mk_str(raw)
        assert parse_literal(STR, format_literal(v)) == v
        assert parse_input_value(format_input_value(v)) == v
        source = f"int main(){{ str s = {print_literal(STR, raw)}; return 0; }}"
        assert parse(source).main.body[0].init.value == raw
    # a " stays unescaped in garden text; the source escapes \r \0 \" read too
    text = '0\tstr\tsay "hi"\n'
    assert serialize_gardens(load_gardens(text)) == text
    assert load_gardens('0\tstr\t\\r\\0\\"\n')[STR].values() == [mk_str(b'\r\x00"')]


def test_garden_file_verbatim_indices(fig5_gardens):
    assert raws(fig5_gardens[STR]) == [b"foobar", b"oobar", b"bar", b"oo"]


def test_garden_file_rejects_sparse_indices():
    with pytest.raises(GardenError, match="dense"):
        load_gardens("0\tstr\ta\n2\tstr\tb\n")


def test_garden_file_rejects_duplicates():
    with pytest.raises(GardenError, match="duplicate"):
        load_gardens("0\tstr\ta\n1\tstr\ta\n")


def test_float_garden_values():
    # a float garden holds only values that equal themselves and nothing
    # else: a NaN or a -0.0 is looked up as BOT, and a file holding one is bad
    text = "0\tfloat\t2.0\n1\tfloat\t0.0\n2\tfloat\tinf\n"
    g = load_gardens(text)
    assert serialize_gardens(g) == text
    assert g[FLOAT].index_or_bot(Value(FLOAT, 0.0)) == 1
    for raw in (float("nan"), -float("nan"), -0.0):
        assert g[FLOAT].index_or_bot(Value(FLOAT, raw)) is BOT
        assert g[FLOAT].raw_index_or_bot(raw) is BOT
        assert g[FLOAT].admit(Value(FLOAT, raw)) == (BOT, False)
    assert len(g[FLOAT]) == 3
    for bad in ("nan", "-nan", "-0.0"):
        with pytest.raises(GardenError, match=f"garden line 2: a float garden holds no NaN "
                                              f"and no -0.0, found '{bad}'"):
            load_gardens(f"0\tfloat\t2.0\n1\tfloat\t{bad}\n")


def test_scalar_literals_read_as_source_reads_them():
    for tag, raw in [(INT, -3), (INT, 2**70), (FLOAT, -0.0), (FLOAT, 1e-05),
                     (FLOAT, 1.5e+300), (FLOAT, float("-inf")), (BOOL, True)]:
        v = Value(tag, raw)
        assert value_key(parse_literal(tag, format_literal(v))) == value_key(v)
    for tag, text in [(INT, "1_0"), (INT, "0x10"), (INT, "1.0"), (FLOAT, "infinity"),
                      (FLOAT, "1_0.5"), (FLOAT, "5"), (BOOL, "True"), (INT, "0@str")]:
        with pytest.raises(GardenError):
            parse_literal(tag, text)
