"""Garden construction: growing a finite value set from seeds and indexing it.

A garden is the per-type finite set of values the rewritten program is
restricted to.  Seeds are harvested from program constants (the empty string
is always seeded for str); builders are applied in rounds, each round working
from a snapshot of the garden at the start of that round, so a value admitted
in round i is reachable by at most i nested builder applications over the
seeds.  A float garden holds no NaN and no -0.0 (is_garden_float), so a
float result that is one of them is outside it.  Index assignment is
canonical - seeds in harvest order, then round by round, builder by builder,
argument tuples in lexicographic index order - so two builds from the same
inputs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product, repeat

from .lang.ast import (
    BOT,
    FLOAT,
    INT,
    SCALARS,
    STR,
    EscapedGarden,
    Literal,
    MiniImpSyntaxError,
    Program,
    TypeTag,
    Value,
    float_key,
    mk_str,
    value_key,
    walk_exprs,
)
from .lang.parser import parse_scalar_literal, unescape_string
from .lang.printer import escape_bytes, print_literal


class GardenError(Exception):
    pass


@dataclass(frozen=True)
class OperatorSignature:
    name: str
    arg_types: tuple[TypeTag, ...]
    return_type: TypeTag

    @property
    def arity(self) -> int:
        return len(self.arg_types)


@dataclass
class SeedSet:
    """Each type's seeds in the order added; an IndexMap per type keeps the
    first of each value_key and skips a NaN or a -0.0, as a garden does."""
    per_type: dict[TypeTag, IndexMap] = field(default_factory=dict)

    def add(self, v: Value) -> None:
        if v.tag not in self.per_type:
            self.per_type[v.tag] = IndexMap(v.tag)
        self.per_type[v.tag].admit(v)

    def values(self, tag: TypeTag) -> list[Value]:
        return self.per_type[tag].values() if tag in self.per_type else []


def is_garden_float(x: float) -> bool:
    """Whether a float garden may hold x: x equals itself and no other
    garden value, so that index equality is float equality.  A NaN equals
    nothing, and -0.0 equals 0.0."""
    return x == x and (x != 0.0 or math.copysign(1.0, x) > 0.0)


class IndexMap:
    """Dense bijection between one type's garden values and [0, n).

    BOT is out-of-band: it is never a key and is represented by the BOT
    sentinel, not by any integer.

    The map also keeps its garden text: format_literal of each value, in
    index order, the literals a garden file holds.  It is made on first use
    and dropped when admit adds a value, so the garden file and the table
    hash format each value once however many tables read the garden.
    """

    def __init__(self, type_tag: TypeTag):
        self.type_tag = type_tag
        self._values: list[Value] = []
        self._index: dict[object, int] = {}
        self._texts: list[str] | None = None

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> list[Value]:
        return list(self._values)

    def texts(self) -> list[str]:
        """format_literal of each value, in index order: the garden text.
        The list is kept, and is not to be changed."""
        if self._texts is None:
            self._texts = [*map(format_literal, self._values)]
        return self._texts

    def admit(self, v: Value) -> tuple[int, bool]:
        """Insert v if new; returns (index, freshly_added).  A float that is
        not a garden float is skipped, and gets (BOT, False)."""
        if v.tag != self.type_tag:
            raise GardenError(f"value {v!r} does not belong in a {self.type_tag!r} garden")
        key = value_key(v)
        if key in self._index:
            return self._index[key], False
        if v.tag is FLOAT and not is_garden_float(v.raw):
            return BOT, False
        i = len(self._values)
        self._values.append(v)
        self._index[key] = i
        self._texts = None
        return i, True

    def index_or_bot(self, v: Value):
        """delta_bot: the index of v, or BOT if v is outside the garden."""
        return self._index.get(value_key(v), BOT)

    def raw_index_or_bot(self, raw):
        """index_or_bot of the value of the garden's type whose payload is
        raw, without building the Value."""
        return self._index.get(float_key(raw) if self.type_tag is FLOAT else raw, BOT)

    def raw_indices(self, raws):
        """raw_index_or_bot of each payload of raws, lazily, mapped in C
        where a payload is its own key (every type but float)."""
        if self.type_tag is FLOAT:
            return map(self.raw_index_or_bot, raws)
        return map(self._index.get, raws, repeat(BOT))

    def value_at(self, i) -> Value:
        """delta_inv: the value at index i; BOT escapes, overflow is a bug."""
        if i is BOT:
            raise EscapedGarden()
        if not 0 <= i < len(self._values):
            raise GardenError(f"index {i} outside garden of size {len(self._values)}")
        return self._values[i]


BUILDER_MODES = ("ops", "kleene")  # "ops" applies the builders; "kleene" enumerates strings


@dataclass(frozen=True)
class BuilderConfig:
    builders: tuple = ()  # iot.BuiltinOps, each mono-typed
    k: int = 3
    max_str_len: int = 8
    mode: str = "ops"  # one of BUILDER_MODES

    def __post_init__(self):
        if self.k < 0:
            raise GardenError("k must be >= 0")
        if self.max_str_len < 1:
            raise GardenError("max_str_len must be >= 1")
        if self.mode not in BUILDER_MODES:
            raise GardenError(f"unknown builder mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Seed harvesting
# ---------------------------------------------------------------------------


def iter_literals(p: Program):
    """Yield every Literal in the program, in source order."""
    for f in p.functions:
        for e in walk_exprs(f.body):
            if isinstance(e, Literal):
                yield e


def harvest_seeds(p: Program, types: set[TypeTag]) -> SeedSet:
    """Collect every literal of the requested types, plus forced values.

    The empty string is always seeded for str so the garden has a
    representative for no-match results.
    """
    seeds = SeedSet()
    if STR in types:
        seeds.add(mk_str(b""))
    for lit in iter_literals(p):
        if lit.tag in types:
            seeds.add(Value(lit.tag, lit.value))
    return seeds


def harvest_int_pool(p: Program) -> tuple[int, ...]:
    """All int literals in the program, sorted: the raw table dimension pool."""
    pool = {lit.value for lit in iter_literals(p) if lit.tag is INT}
    return tuple(sorted(pool))


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------


def extend(imap: IndexMap, op, *, snapshot: list[Value] | None = None,
           max_str_len: int = BuilderConfig.max_str_len) -> None:
    """One builder pass: apply op, an iot.BuiltinOp, to every argument tuple
    over the snapshot (the whole garden by default), in product order.

    Results already present, longer than max_str_len, failing to evaluate,
    or a NaN or a -0.0 are not admitted.  Each result is judged on op's raw
    payload, and a Value is built only for a result that is admitted.  All
    of op's argument types must equal the garden's type (builders are
    mono-typed).
    """
    sig = op.signature
    tag = imap.type_tag
    if any(t != tag for t in sig.arg_types) or sig.return_type != tag:
        raise GardenError(f"{sig.name} is not a builder for {tag!r}")
    if snapshot is None:
        snapshot = imap.values()
    limit = max_str_len if tag is STR else None  # only a string has a length bound
    call = op.fn if op.prepare is None else op.call  # no wrapper where none is needed
    for args in product([v.raw for v in snapshot], repeat=sig.arity):
        try:
            raw = call(*args)
        except Exception:
            continue
        if (limit is None or len(raw) <= limit) and imap.raw_index_or_bot(raw) is BOT:
            imap.admit(Value(tag, raw))


def build_garden(seeds: SeedSet, cfg: BuilderConfig,
                 types: set[TypeTag]) -> dict[TypeTag, IndexMap]:
    """Grow per-type gardens: up to k rounds, each applying every builder to
    every argument tuple over a snapshot taken at the start of the round.
    Growth stops after a round that admits nothing."""
    gardens: dict[TypeTag, IndexMap] = {}
    for tag in sorted(types, key=lambda t: t.name):
        imap = IndexMap(tag)
        for v in seeds.values(tag):
            imap.admit(v)
        gardens[tag] = imap

    if cfg.mode == "kleene":
        if STR in gardens:
            _kleene_fill(gardens[STR], cfg.max_str_len)
        return gardens

    for _ in range(cfg.k):
        snapshots = {tag: imap.values() for tag, imap in gardens.items()}
        for op in cfg.builders:
            tag = op.signature.return_type
            if tag not in gardens:
                raise GardenError(f"builder {op.signature.name} needs a {tag!r} garden")
            extend(gardens[tag], op, snapshot=snapshots[tag], max_str_len=cfg.max_str_len)
        if all(len(gardens[tag]) == len(snap) for tag, snap in snapshots.items()):
            break
    return gardens


def _kleene_fill(imap: IndexMap, max_len: int) -> None:
    """Admit every string over the seed byte alphabet up to max_len."""
    alphabet = sorted({b for v in imap.values() for b in v.raw})
    imap.admit(mk_str(b""))
    level = [b""]
    for _ in range(max_len):
        nxt = []
        for s in level:
            for c in alphabet:
                t = s + bytes([c])
                nxt.append(t)
                imap.admit(mk_str(t))
        level = nxt


# ---------------------------------------------------------------------------
# Garden files
# ---------------------------------------------------------------------------


def format_literal(v: Value) -> str:
    """Garden text of v: a str is its escaped bytes, unquoted (so a " stays
    unescaped); any other scalar is its MiniImp literal."""
    return escape_bytes(v.raw) if v.tag is STR else print_literal(v.tag, v.raw)


def parse_literal(tag: TypeTag, text: str) -> Value:
    """A garden-file literal of type tag: a str as format_literal writes it,
    any other scalar as exactly one MiniImp literal, a leading - included.
    Malformed text, or a literal of another type, raises GardenError."""
    try:
        if tag is STR:
            return Value(STR, unescape_string(text))
        lit = parse_scalar_literal(text)
        if lit.tag is tag:
            return Value(tag, lit.value)
    except (ValueError, MiniImpSyntaxError):
        pass
    raise GardenError(f"bad {tag.name} literal {text!r}")


def load_seeds(text: str) -> SeedSet:
    """Parse a seed file: one literal per line with a type prefix, str:...
    or float:..., the literal written as in a garden file."""
    seeds = SeedSet()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        prefix, colon, lit = line.partition(":")
        tag = {"str": STR, "float": FLOAT}.get(prefix) if colon else None
        try:
            if tag is None:
                raise GardenError("expected str:<literal> or float:<literal>")
            seeds.add(parse_literal(tag, lit))
        except GardenError as e:
            raise GardenError(f"seed line {lineno}: {e}") from None
    return seeds


def serialize_gardens(gardens: dict[TypeTag, IndexMap]) -> str:
    """The text of a garden file: a line `index<TAB>type<TAB>literal` per
    value, types by name, values in index order.  The literals are each
    garden's kept text (IndexMap.texts)."""
    lines = []
    for tag in sorted(gardens, key=lambda t: t.name):
        lines += (f"{i}\t{tag.name}\t{text}" for i, text in enumerate(gardens[tag].texts()))
    return "\n".join(lines) + ("\n" if lines else "")


def load_gardens(text: str) -> dict[TypeTag, IndexMap]:
    """Parse a garden file; indices are honoured verbatim and must be dense."""
    rows: dict[TypeTag, list[tuple[int, Value]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise GardenError(f"garden line {lineno}: expected 3 tab-separated fields")
        idx_text, type_name, lit = parts
        tag = SCALARS.get(type_name)
        if tag is None:
            raise GardenError(f"garden line {lineno}: unknown type {type_name!r}")
        try:
            entry = (int(idx_text), parse_literal(tag, lit))
            if tag is FLOAT and not is_garden_float(entry[1].raw):
                raise GardenError(f"a float garden holds no NaN and no -0.0, found {lit!r}")
        except (ValueError, GardenError) as e:
            raise GardenError(f"garden line {lineno}: {e}") from None
        rows.setdefault(tag, []).append(entry)
    gardens = {}
    for tag, entries in rows.items():
        entries.sort(key=lambda iv: iv[0])
        if [i for i, _ in entries] != list(range(len(entries))):
            raise GardenError(f"{tag.name} garden indices are not dense from 0")
        imap = IndexMap(tag)
        for i, v in entries:
            got, added = imap.admit(v)
            if not added or got != i:
                raise GardenError(f"duplicate value in {tag.name} garden at index {i}")
        gardens[tag] = imap
    return gardens
