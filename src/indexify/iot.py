"""Builtin operators and their indexed operator tables.

The registry holds the concrete C-flavoured semantics (string.h and maths.h
analogues) that serve as the oracle everywhere else.  memoise() makes an
IndexedOperatorTable: over the type-valid argument tuples of the gardens, it
maps index tuples to either result indices (when the return type is indexed)
or the operator's int results (when it is not, like strncmp's comparison
result).  A table's lookup computes the cell it is asked for, and its line
the cells along one free argument with the others fixed, in one pass; both
keep nothing.  The explorer reads lines, and a concrete call a lookup.
tables.iot, rows and the emitted IR read every cell through cells(), which
computes the whole table once and keeps it, the table's one store.  A table
read from a tables.iot file keeps the file's rows instead, and answers its
lookups and lines from them.  Builtins take and return raw payloads
(bytes, int, float): a table turns a raw result straight into its cell, and
BuiltinOp.eval alone wraps a result as a Value, for the interpreter and the
explorer.  A builtin may prepare an argument before its fn runs (strcmp
cuts each string at its first NUL); a table prepares each column value
once, when it is built, so a looked-up cell costs one fn call on prepared
column values, and a line one map of fn over a prepared column.  An order
operator (strcmp, strncmp) also has a whole-table kernel: read whole, its
table is filled from dense ranks of the garden's values, a row at a time,
with no call per cell.  BOT is always a distinct cell variant - never the
integer -1, which strncmp legitimately returns.

A table's call is the one rule of an indexed call, for the interpreter and
the explorer alike: a BOT argument ends the path at the call, as an escape
(or, with bot_propagate, gives BOT), and so does a raw-result miss.

Both texts of a table are written here, from its cells in one row order:
serialize_tables and parse_tables write and read the tables.iot format, and
table_source writes the i_* function the emitted .indexed.mi defines, which
states call's rule: it reads each garden argument before its rows.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
from dataclasses import dataclass
from itertools import chain, product, repeat, starmap

from .garden import IndexMap, OperatorSignature
from .lang.ast import (
    BOT,
    FLOAT,
    INT,
    STR,
    EscapedGarden,
    TypeTag,
    Value,
    index_of,
)
from .lang.printer import print_literal


class IotError(Exception):
    pass


# ---------------------------------------------------------------------------
# Concrete builtins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinOp:
    """A builtin: its signature and fn, its per-cell function, which maps
    argument payloads to the raw payload of the result (bytes, int, float).

    prepare is None, or one entry per argument: a function applied once to
    the argument's raw payload before fn runs, or None to pass the payload
    as it is.  A table prepares each column value once, so work that depends
    on one argument alone is done once per garden value, not once per cell.

    tabulate is None, or a whole-table kernel: given each argument's
    prepared column as a list, it returns fn's raw result for every tuple
    of their product, in itertools.product order.  It must agree with fn
    cell for cell, and it must not raise, since it has no per-cell BOT;
    fn stays the reference and serves every single cell.
    """

    signature: OperatorSignature
    fn: object
    indexes: TypeTag | None  # the type its table indexes; None for puts
    prepare: tuple | None = None
    tabulate: object = None

    def call(self, *raws):
        """The raw result of fn on raw argument payloads, each prepared
        first where its argument has a preparation."""
        if self.prepare is not None:
            raws = [raw if p is None else p(raw) for p, raw in zip(self.prepare, raws)]
        return self.fn(*raws)

    def eval(self, *args: Value) -> Value:
        """Apply the builtin to Values of its argument types.  This is the
        one place a builtin's raw result is wrapped as a Value."""
        for want, got in zip(self.signature.arg_types, args):
            if got.tag != want:
                raise IotError(
                    f"{self.signature.name}: argument tag {got.tag!r}, expected {want!r}"
                )
        return Value(self.signature.return_type, self.call(*[a.raw for a in args]))


def _strstr(hay: bytes, needle: bytes) -> bytes:
    # C: empty needle matches at the start; a miss is NULL, which we carry
    # as the empty string so the result stays indexable
    if not needle:
        return hay
    pos = hay.find(needle)
    return hay[pos:] if pos >= 0 else b""


def _c_string(s: bytes) -> bytes:
    """A C string's bytes: the payload cut at its first NUL."""
    return s.partition(b"\0")[0]


def _c_order(a: bytes, b: bytes) -> int:
    """C's comparison sign of two C strings.  Bytes compare unsigned, and a
    proper prefix sorts first, as its terminator does in C."""
    return (a > b) - (a < b)


def _strncmp(a: bytes, b: bytes, n: int) -> int:
    """C's strncmp sign of two C strings over at most n bytes."""
    if n <= 0:
        return 0
    a, b = a[:n], b[:n]
    return (a > b) - (a < b)  # _c_order inline: this runs once per cell


def _c_order_table(col_a: list, col_b: list) -> list:
    """_c_order of every pair of the columns' C strings, in product order.

    The strings of both columns are ranked densely, so a pair's sign is the
    sign of its rank difference.  Row a reads it off a window of signs, one
    C-level map over the ranks of col_b: signs[k-1-r_a+r_b] is
    sign(r_a - r_b) for ranks in [0, k).
    """
    order = sorted({*col_a, *col_b})
    rank = dict(zip(order, range(len(order))))
    k = len(order)
    signs = [1] * (k - 1) + [0] + [-1] * (k - 1)
    ranks_b = [*map(rank.__getitem__, col_b)]
    out = []
    for r in map(rank.__getitem__, col_a):
        out += map(signs[k - 1 - r : 2 * k - 1 - r].__getitem__, ranks_b)
    return out


def _strncmp_table(col_a: list, col_b: list, pool: list) -> list:
    """_strncmp over the product of its columns: for each n of the pool,
    the order of the n-byte prefixes (all 0 for n <= 0), interleaved so
    that n runs fastest."""
    pairs = len(col_a) * len(col_b)
    per_n = [_c_order_table([a[:n] for a in col_a], [b[:n] for b in col_b])
             if n > 0 else [0] * pairs for n in pool]
    return [*chain.from_iterable(zip(*per_n))]


def _substr(s: bytes, start: int, length: int) -> bytes:
    if start < 0 or start > len(s) or length < 0:
        return b""
    return s[start : start + length]


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(math.inf, sign)
    return a / b


def _sqrt(a: float) -> float:
    if a < 0.0:
        return math.nan  # domain error: no garden holds NaN, so its cell is BOT
    return math.sqrt(a)  # -0.0, nan and inf do not raise


def _fmin(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return min(a, b)


def _fmax(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return max(a, b)


def _sig(name, args, ret) -> OperatorSignature:
    return OperatorSignature(name, tuple(args), ret)


REGISTRY: dict[str, BuiltinOp] = {
    "strcat": BuiltinOp(_sig("strcat", [STR, STR], STR), operator.add, STR),
    "strstr": BuiltinOp(_sig("strstr", [STR, STR], STR), _strstr, STR),
    "strncmp": BuiltinOp(_sig("strncmp", [STR, STR, INT], INT), _strncmp, STR,
                         (_c_string, _c_string, None), _strncmp_table),
    "strcmp": BuiltinOp(_sig("strcmp", [STR, STR], INT), _c_order, STR,
                        (_c_string, _c_string), _c_order_table),
    "strlen": BuiltinOp(_sig("strlen", [STR], INT), len, STR),
    "substr": BuiltinOp(_sig("substr", [STR, INT, INT], STR), _substr, STR),
    "fadd": BuiltinOp(_sig("fadd", [FLOAT, FLOAT], FLOAT), operator.add, FLOAT),
    "fsub": BuiltinOp(_sig("fsub", [FLOAT, FLOAT], FLOAT), operator.sub, FLOAT),
    "fmul": BuiltinOp(_sig("fmul", [FLOAT, FLOAT], FLOAT), operator.mul, FLOAT),
    "fdiv": BuiltinOp(_sig("fdiv", [FLOAT, FLOAT], FLOAT), _fdiv, FLOAT),
    "sqrt": BuiltinOp(_sig("sqrt", [FLOAT], FLOAT), _sqrt, FLOAT),
    "fabs": BuiltinOp(_sig("fabs", [FLOAT], FLOAT), math.fabs, FLOAT),
    "fmin": BuiltinOp(_sig("fmin", [FLOAT, FLOAT], FLOAT), _fmin, FLOAT),
    "fmax": BuiltinOp(_sig("fmax", [FLOAT, FLOAT], FLOAT), _fmax, FLOAT),
    "puts": BuiltinOp(_sig("puts", [STR], INT), lambda s: 0, None),
}


# ---------------------------------------------------------------------------
# Indexed operator tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GardenDim:
    imap: IndexMap

    def domain(self):
        return range(len(self.imap))

    def column(self) -> dict:
        """Each key of the domain, in order, mapped to its raw argument."""
        return {i: v.raw for i, v in enumerate(self.imap.values())}


@dataclass(frozen=True)
class IntPoolDim:
    pool: tuple[int, ...]

    def domain(self):
        return self.pool

    def column(self) -> dict:
        return {k: k for k in self.pool}


class IndexedOperatorTable:
    """One operator over the gardens, computed cell by cell on demand.

    Key components are garden indices for indexed argument positions and
    raw ints for int positions.  A cell is a result-garden index (indexed
    results), the operator's int result (raw results), or BOT.  lookup
    computes a key's cell on every call and keeps nothing, and line computes
    the cells of every key along one dimension, lookup's cell for each, in
    one pass, and keeps nothing either.  Lookup of anything outside the
    dimension domains is BOT, the catch-all row, and computes nothing.
    rows is the complete table: exactly the tuples over the domains, in
    ascending (itertools.product) order, a fresh dict from the kept cells()
    on each access.  The gardens must not grow once the
    table exists: its cells are computed against them, and kept.  A table
    that parse_iot loaded keeps the file's rows as cells() from the start,
    and its lookups and lines read them: the file, not op.fn, is its table.

    A looked-up cell costs one call of op.fn on prepared column values:
    each column maps a key component to its argument, prepared once when
    the table is built, and a line's cells cost one map of op.fn over the
    free column with the other arguments bound.  The raw result goes
    straight to a cell, the result garden's index of it or the int itself,
    and no Value is built.  Read whole, a table whose op has a whole-table
    kernel (op.tabulate) is filled by one kernel call on the columns, not
    by a call per cell.
    """

    def __init__(self, op: BuiltinOp, dims, result, *, garden_hash, cells=None):
        sig = op.signature
        self.op_name = sig.name
        self.indexed_name = "i_" + sig.name
        self.signature = sig
        self.dims = dims
        self.result = result  # IndexMap for indexed results, INT for raw
        self.garden_hash = garden_hash
        self.cell_tag = index_of(result.type_tag) if self.result_indexed else result
        self._fn = op.fn
        self._tabulate = op.tabulate
        # raw result -> cell, and raw results -> cells lazily; a raw int
        # result is its own cell
        self._cell_of = result.raw_index_or_bot if self.result_indexed else None
        self._cells_of = result.raw_indices if self.result_indexed else None
        # per dimension, key component -> prepared argument: the domain
        # check and the argument of a cell in one probe
        self._columns = [d.column() for d in dims]
        self._whole = cells  # cells(): the file's rows, or made by a whole read
        if cells is None:
            for column, prepare in zip(self._columns, op.prepare or ()):
                if prepare is not None:
                    column.update(zip(column, map(prepare, column.values())))
        else:  # a component's argument is its offset in the file's rows
            stride = 1
            for column in reversed(self._columns):
                column.update(zip(column, range(0, stride * len(column), stride)))
                stride *= len(column)
            self._fn = lambda *offsets: cells[sum(offsets)]
            self._cell_of = self._cells_of = None
        self._values = {}  # cell -> its Value, for cell_value

    @property
    def result_indexed(self) -> bool:
        return isinstance(self.result, IndexMap)

    @property
    def arity(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        """The number of rows: the product of the domain sizes."""
        return math.prod(map(len, self._columns))

    @property
    def rows(self) -> dict:
        return dict(zip(product(*self._columns), self.cells()))

    @property
    def bot_rows(self) -> int:
        return self.cells().count(BOT)

    def lookup(self, key: tuple):
        """Return the cell for key: an index, an int, or BOT, computed on
        every call (read from the file's rows for a loaded table) and not
        kept."""
        columns = self._columns
        if len(key) != len(columns):
            return BOT
        args = [*map(dict.get, columns, key)]  # no argument is None
        if None in args:
            return BOT
        try:
            out = self._fn(*args)
        except Exception:
            return BOT
        return out if self._cell_of is None else self._cell_of(out)

    def cells(self) -> list:
        """Every cell, in product order of the domains, computed on the first
        call and kept: later calls return the same list, not to be changed.

        A loaded table returns the file's rows.  Otherwise one kernel call
        fills the list, or without a kernel one map of op.fn over the
        argument product, where a call that raises gives BOT and the cells
        after it still follow.
        """
        if self._whole is not None:
            return self._whole
        columns = self._columns
        if self._tabulate is not None:
            outs = self._tabulate(*(list(c.values()) for c in columns))
            cells = outs if self._cells_of is None else [*self._cells_of(outs)]
        else:
            cells = self._apply(product(*(c.values() for c in columns)))
        self._whole = cells
        return cells

    def line(self, head: tuple, tail: tuple) -> list:
        """The cells of head + (v,) + tail for every v of dimension
        len(head)'s domain, in domain order: lookup's cell for each key,
        computed in one pass of op.fn over the free column's prepared
        values with the fixed arguments bound (read from the file's rows
        for a loaded table), and not kept.  A fixed component outside its
        domain makes every cell BOT and computes none."""
        columns = self._columns
        at = len(head)
        free = columns[at]
        fixed = [*map(dict.get, columns[:at] + columns[at + 1:], head + tail)]
        if at + 1 + len(tail) != len(columns) or None in fixed:
            return [BOT] * len(free)
        return self._apply(zip(*map(repeat, fixed[:at]), free.values(),
                               *map(repeat, fixed[at:])))

    def _apply(self, args) -> list:
        """The cell of each argument tuple of the iterator args, in order,
        from one map of op.fn over it: a call that raises gives BOT, and the
        cells after it still follow."""
        cells = []
        while True:
            try:
                outs = starmap(self._fn, args)
                cells += outs if self._cells_of is None else self._cells_of(outs)
                return cells
            except Exception:
                # the cells before the raising call are appended, and its
                # argument tuple is consumed: it is BOT, and the rest go on
                cells.append(BOT)

    def call(self, key: tuple, bot_propagate: bool = False) -> Value:
        """The Value a call with key returns, the one rule of an indexed
        call, which table_source writes as text.  A BOT component is
        consumed at the call: it escapes, or with bot_propagate gives the
        BOT Value.  Any other key gives its cell's cell_value."""
        if BOT in key:
            if not bot_propagate:
                raise EscapedGarden()
            return self.cell_value(BOT, True)
        return self.cell_value(self.lookup(key), bot_propagate)

    def cell_value(self, cell, bot_propagate: bool = False) -> Value:
        """The Value an indexed call returns for a cell, one shared Value
        per distinct cell.  A BOT index is a value that escapes where it is
        used.  A raw-result miss has no in-band value, so it escapes at the
        call, as in the emitted source, unless bot_propagate lets BOT flow
        on."""
        value = self._values.get(cell)
        if value is not None:
            return value
        if cell is BOT:
            if not bot_propagate and not self.result_indexed:
                raise EscapedGarden()
            return Value(self.cell_tag, BOT)
        value = self._values[cell] = Value(self.cell_tag, cell)
        return value

    def indexed_signature(self) -> OperatorSignature:
        args = tuple(index_of(t) if isinstance(d, GardenDim) else t
                     for d, t in zip(self.dims, self.signature.arg_types))
        return OperatorSignature(self.indexed_name, args, self.cell_tag)


def gardens_fingerprint(dims, result) -> str:
    """Hash binding a table to the exact gardens (and pool) it was built from:
    the first 16 hex digits of SHA-256 over one section per argument
    dimension, in order, then one for an indexed result.  A garden section
    is its name (garden or result), a NUL, and each value's garden-file
    literal followed by a NUL; a pool section is pool, a NUL, the
    comma-joined pool and a NUL.  The literals are the gardens' kept text
    (IndexMap.texts), so no value is formatted here.  Tables files carry
    this hash, so its definition must not change."""
    h = hashlib.sha256()
    for d in dims:
        if isinstance(d, GardenDim):
            h.update(_garden_section(b"garden\0", d.imap))
        else:
            h.update(b"pool\0" + ",".join(map(str, d.pool)).encode("ascii") + b"\0")
    if isinstance(result, IndexMap):
        h.update(_garden_section(b"result\0", result))
    return h.hexdigest()[:16]


def _garden_section(name: bytes, imap: IndexMap) -> bytes:
    """A garden's section of gardens_fingerprint: name, then each literal
    followed by a NUL."""
    return name + "\0".join([*imap.texts(), ""]).encode("utf-8")


def _dims_for(signature: OperatorSignature, gardens, int_pool):
    dims = []
    for t in signature.arg_types:
        if t in gardens:
            dims.append(GardenDim(gardens[t]))
        elif t is INT:
            dims.append(IntPoolDim(tuple(sorted(set(int_pool)))))
        else:
            raise IotError(
                f"{signature.name}: argument type {t!r} has no garden and is not int"
            )
    return dims


def _result_for(signature: OperatorSignature, gardens):
    """The result garden, or INT for an operator whose int results stay raw."""
    t = signature.return_type
    if t not in gardens and t is not INT:
        raise IotError(f"{signature.name}: result type {t!r} has no garden and is not int")
    return gardens.get(t, INT)


def memoise(gardens: dict[TypeTag, IndexMap], op: BuiltinOp,
            int_pool=()) -> IndexedOperatorTable:
    """The table of op over the gardens (plus the int pool).  No cell is
    computed here: lookup computes the cell it is asked for, and line the
    cells along one dimension, each time, and the first whole read computes
    every cell once.  Only op's preparations run here, once per column
    value, and the table's garden hash is taken from the gardens' kept
    text, which no later table formats again.

    Rows are in itertools.product order of the dimension domains (last
    position fastest); serialize_iot and table_source, the writers of
    tables.iot and of the emitted IR, both lay rows out in it.  Each
    dimension fixes its arguments' type, so op.fn gets prepared column
    values without the per-call tag check and preparation of
    BuiltinOp.eval, and its raw result is never wrapped as a Value.
    """
    dims = _dims_for(op.signature, gardens, int_pool)
    result = _result_for(op.signature, gardens)
    return IndexedOperatorTable(op, dims, result,
                                garden_hash=gardens_fingerprint(dims, result))


def memoise_all(gardens, op_names, int_pool=()) -> dict[str, IndexedOperatorTable]:
    """Memoise every named operator; result is keyed by indexed name (i_*)."""
    tables = {}
    for name in sorted(op_names):
        op = REGISTRY.get(name)
        if op is None:
            raise IotError(f"cannot index unknown operator {name!r}")
        t = memoise(gardens, op, int_pool)
        tables[t.indexed_name] = t
    return tables


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_iot(t: IndexedOperatorTable) -> str:
    """The text of one table: its header, then every row in product order,
    read from t.cells().

    No row is built as a string of its own.  A row is three pieces: the
    text of its key's outer components (one per tuple of the outer
    dimensions), the text of its last component (one per value of the last
    dimension) and its arrow (one per distinct cell).  Each kind of piece
    is laid into every third slot of one list by slice assignment, and one
    join makes the rows' text.
    """
    kind = f"indexed:{t.result.type_tag.name}" if t.result_indexed \
        else f"raw:{t.result.name}"
    head = [f"iot {t.op_name} {t.arity} {kind} garden:{t.garden_hash}\n"]
    pools = [d.pool for d in t.dims if isinstance(d, IntPoolDim)]
    if pools:
        head.append("pool " + ",".join(map(str, pools[0])) + "\n")
    cells = t.cells()
    *outer, last = ([str(k) for k in d.domain()] for d in t.dims)
    prefixes = [*map("".join, product(*([k + " " for k in texts] for texts in outer)))]
    arrows = {cell: f" -> {cell}\n" for cell in set(cells)}
    width = 3 * len(last)  # the pieces of the rows of one prefix
    pieces = [None] * (width * len(prefixes))
    for j in range(len(last)):
        pieces[3 * j::width] = prefixes
    pieces[1::3] = last * len(prefixes)
    pieces[2::3] = map(arrows.__getitem__, cells)
    return "".join(head) + "".join(pieces)


def table_source(t: IndexedOperatorTable) -> str:
    """The MiniImp source of t's indexed function, as the emitted program
    defines it: call's rule as text.  First a read of each garden argument,
    `unidx(sN);`, so that a BOT argument escapes at the call, then one line
    per non-BOT row in product order, read from t.cells(), then a catch-all
    that every BOT row and every key outside the domains falls through to.

    A row line is `if (`, its key's conditions `s1 == <literal> && ...` and
    its return.  As in serialize_iot, no key part is formatted per row:
    each domain value's condition is formatted once, the outer dimensions'
    conditions are joined once per tuple of them, after `if (`, and each
    distinct cell's return is formatted once.
    """
    sig = t.indexed_signature()
    params = ", ".join(f"{ty!r} s{i + 1}" for i, ty in enumerate(sig.arg_types))
    cells = t.cells()
    *outer, last = ([f"s{i + 1} == {print_literal(ty, k)}" for k in d.domain()]
                    for i, (ty, d) in enumerate(zip(sig.arg_types, t.dims)))
    prefixes = ["  if (" + "".join(p)
                for p in product(*([c + " && " for c in conds] for conds in outer))]
    returns = {cell: f") {{ return {print_literal(t.cell_tag, cell)}; }}"
               for cell in set(cells) if cell is not BOT}
    rows = [prefix + cond + returns[cell]
            for (prefix, cond), cell in zip(product(prefixes, last), cells)
            if cell is not BOT]
    # the textual encoding has no raw bottom, and any in-band value (such as
    # -1, a real strncmp result) would pass for a hit: a raw-result miss
    # consumes BOT instead, and so escapes at the call, as cell_value's miss
    # does.  Raw-result tables are the int-valued string operators.
    miss = f"bot@{t.result.type_tag.name}" if t.result_indexed else "strlen(unidx(bot@str))"
    reads = [f"  unidx(s{i + 1});" for i, d in enumerate(t.dims) if isinstance(d, GardenDim)]
    return "\n".join([f"{sig.return_type!r} {t.indexed_name}({params}) {{",
                      *reads, *rows, f"  return {miss};", "}"])


def serialize_tables(tables: dict[str, IndexedOperatorTable]) -> str:
    """The text of a tables.iot file: every table, by indexed name."""
    return "".join(serialize_iot(tables[name]) for name in sorted(tables))


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text: str, line: str) -> int:
    """A number of a table file: ASCII digits after an optional -."""
    if _DECIMAL.fullmatch(text) is None:
        raise IotError(f"malformed iot line {line!r}: {text!r} is not a decimal int")
    return int(text)


def parse_iot(text: str, gardens: dict[TypeTag, IndexMap]) -> IndexedOperatorTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("iot "):
        raise IotError("not an iot file: missing header")
    head = lines[0].split()
    if len(head) != 5 or not head[4].startswith("garden:"):
        raise IotError(f"malformed iot header: {lines[0]!r}")
    name, arity, kind = head[1], _decimal(head[2], lines[0]), head[3]
    file_hash = head[4].split(":", 1)[1]
    op = REGISTRY.get(name)
    if op is None:
        raise IotError(f"iot file for unknown operator {name!r}")
    if arity != op.signature.arity:
        raise IotError(f"{name}: arity {arity} does not match signature")
    body = lines[1:]
    pool = ()
    if body and body[0].startswith("pool "):
        items = body[0][5:]
        pool = [_decimal(x, body[0]) for x in items.split(",")] if items else ()
        body = body[1:]
    dims = _dims_for(op.signature, gardens, pool)
    result = _result_for(op.signature, gardens)
    want_kind = "indexed" if isinstance(result, IndexMap) else "raw"
    if not kind.startswith(want_kind + ":"):
        raise IotError(f"{name}: result kind {kind!r} does not match gardens")
    got_hash = gardens_fingerprint(dims, result)
    if got_hash != file_hash:
        raise IotError(
            f"{name}: table was built from a different garden "
            f"(file {file_hash}, current {got_hash})"
        )
    size = len(result) if isinstance(result, IndexMap) else None
    read = {}
    for ln in body:
        left, _, right = ln.partition("->")
        right = right.strip()
        cell = BOT if right == "BOT" else _decimal(right, ln)
        if size is not None and cell is not BOT and not 0 <= cell < size:
            raise IotError(f"{name}: index {cell} in {ln!r} is outside the "
                           f"result garden of size {size}")
        read[tuple(_decimal(x, ln) for x in left.split())] = cell
    keys = [*product(*(d.domain() for d in dims))]
    if len(read) != len(body) or read.keys() != set(keys):
        raise IotError(f"{name}: table rows are not the {len(keys)} "
                       f"argument tuples of its domains")
    return IndexedOperatorTable(op, dims, result, garden_hash=file_hash,
                                cells=[*map(read.__getitem__, keys)])


def parse_tables(text: str,
                 gardens: dict[TypeTag, IndexMap]) -> dict[str, IndexedOperatorTable]:
    """The tables of a tables.iot file, keyed by indexed name; each table
    starts at a line beginning `iot `."""
    tables = [parse_iot(chunk, gardens)
              for chunk in re.split(r"(?m)^(?=iot )", text) if chunk.strip()]
    return {t.indexed_name: t for t in tables}
