"""Equality-theory solver over finite index domains.

Path conditions are conjunctions of (dis)equalities between variables and
constants.  A variable ranges over [0, size) and a constant is an int: in
the symbolic executor, a garden index or an int (a bool as 0 or 1).  The
escape value is out of band and never reaches a path condition.

==v atoms merge variables into equality classes, each named by its smallest
member.  A class's domain is one bitmask, bit c set while it can still take
c: ==c keeps bit c only, !=c clears it, a merge intersects the masks, and an
empty mask is unsatisfiable.  search() gives the classes values
most-constrained first, values ascending, so a class no var-var disequality
joins takes its lowest bit and models are deterministic and the smallest
available.  The search is exhaustive, so the verdict is exact; a per-query
budget converts pathological instances into an "unknown" verdict.

solve() joins the ==v components of a whole atom list and PathState maps
each variable to its class as a path condition grows; neither keeps a
union-find.  solve(), simplify() and entailed_pins() are the reference
PathState is tested against; a brute force over all assignments is solve()'s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

DEFAULT_BUDGET_S = 30.0


@dataclass(frozen=True)
class FiniteVar:
    """A solver variable over [0, size)."""

    name: str
    size: int

    def contains(self, c: int) -> bool:
        return 0 <= c < self.size


@dataclass(frozen=True)
class Atom:
    kind: str  # "==c" | "!=c" | "==v" | "!=v"
    var: FiniteVar
    other: object  # an int constant or another FiniteVar

    def __repr__(self):
        op = "=" if self.kind.startswith("==") else "!="
        rhs = self.other.name if isinstance(self.other, FiniteVar) else self.other
        return f"{self.var.name} {op} {rhs}"


def var_eq_const(v: FiniteVar, c) -> Atom:
    return Atom("==c", v, c)


def var_neq_const(v: FiniteVar, c) -> Atom:
    return Atom("!=c", v, c)


def var_eq_var(a: FiniteVar, b: FiniteVar) -> Atom:
    return Atom("==v", a, b)


def var_neq_var(a: FiniteVar, b: FiniteVar) -> Atom:
    return Atom("!=v", a, b)


@dataclass(frozen=True)
class SolveResult:
    status: str
    model: dict | None = None  # var name -> constant, only when sat


def holds(atom: Atom, assignment: dict) -> bool:
    """Evaluate one atom under a total assignment (name -> constant)."""
    a = assignment[atom.var.name]
    b = assignment[atom.other.name] if isinstance(atom.other, FiniteVar) else atom.other
    return (a == b) == atom.kind.startswith("==")


def satisfies(pc, assignment: dict) -> bool:
    return all(holds(a, assignment) for a in pc)


def pc_vars(pc) -> dict:
    out = {}
    for a in pc:
        out[a.var.name] = a.var
        if isinstance(a.other, FiniteVar):
            out[a.other.name] = a.other
    return out


class _Timeout(Exception):
    pass


def _domain(size: int) -> int:
    """The mask of [0, size): bit c set for each value c a variable can take."""
    return (1 << size) - 1


def _narrow(mask: int, a: Atom) -> int:
    """mask under a ==c or !=c atom: only bit c kept, or bit c cleared.  A
    negative or huge constant is fine: only a bit the mask has is shifted."""
    c = a.other
    if c < 0 or not mask >> c & 1:
        return 0 if a.kind == "==c" else mask
    return 1 << c if a.kind == "==c" else mask ^ (1 << c)


def _lowest(mask: int) -> int:
    """The smallest value of a non-empty mask."""
    return (mask & -mask).bit_length() - 1


def _classes(pc, names) -> dict:
    """Each of names (which hold every variable of pc's ==v atoms) -> its
    equality class under those atoms, named by the class's smallest member."""
    members = {name: {name} for name in names}  # a set shared by its class
    for a in pc:
        if a.kind == "==v":
            ca, cb = members[a.var.name], members[a.other.name]
            if ca is not cb:
                ca |= cb
                for name in cb:
                    members[name] = ca
    return {name: min(cls) for name, cls in members.items()}


def solve(pc, variables=(), budget_s: float = DEFAULT_BUDGET_S) -> SolveResult:
    """Decide pc; on sat, the model covers pc's variables plus `variables`."""
    vars_by_name = pc_vars(pc)
    for v in variables:
        vars_by_name.setdefault(v.name, v)
    cls = _classes(pc, vars_by_name)

    masks = {}  # class -> its domain: its members' domains intersected
    for name, v in vars_by_name.items():
        masks[cls[name]] = masks.get(cls[name], -1) & _domain(v.size)
    pairs = []
    for a in pc:
        if a.kind == "!=v":
            pairs.append((cls[a.var.name], cls[a.other.name]))
        elif a.kind != "==v":
            masks[cls[a.var.name]] = _narrow(masks[cls[a.var.name]], a)

    res = search(masks, pairs, budget_s)
    if res.status != SAT:
        return res
    return SolveResult(SAT, {name: res.model[cls[name]] for name in vars_by_name})


def search(masks: dict, pairs, budget_s: float = DEFAULT_BUDGET_S) -> SolveResult:
    """Give every equality class a value, different across each pair.

    masks maps a class's name to its domain mask (bit c set when the class
    can take c; a pinned class has one bit, an empty mask is unsatisfiable).
    pairs are the (name, name) of var-var disequalities.  Classes are
    assigned most-constrained first (fewest values left once the assigned
    neighbours' are taken out), values ascending, so the model (name ->
    constant) is deterministic and the smallest available.  The search is
    exhaustive, so the verdict is exact unless budget_s runs out first:
    then it is UNKNOWN.
    """
    neighbors: dict[str, set] = {root: set() for root in masks}
    for ra, rb in pairs:
        if ra == rb:
            return SolveResult(UNSAT)
        neighbors[ra].add(rb)
        neighbors[rb].add(ra)
    assignment = {}

    def candidates(root) -> int:
        free = masks[root]
        for nb in neighbors[root]:
            if nb in assignment:
                free &= ~(1 << assignment[nb])
        return free

    deadline = time.monotonic() + budget_s if budget_s else None

    def assign(remaining) -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise _Timeout()
        if not remaining:
            return True
        # most-constrained first; ties broken by class name for determinism
        root = min(remaining, key=lambda r: (candidates(r).bit_count(), r))
        rest = [r for r in remaining if r != root]
        free = candidates(root)
        while free:
            assignment[root] = _lowest(free)
            if assign(rest):
                return True
            free &= free - 1
        assignment.pop(root, None)
        return False

    try:
        ok = assign(list(masks))
    except _Timeout:
        return SolveResult(UNKNOWN)
    return SolveResult(SAT, assignment) if ok else SolveResult(UNSAT)


def entailed_pins(pc) -> dict:
    """Variable pins entailed by the equality atoms of a satisfiable pc.

    Used to filter table rows before forking; only equality reasoning is
    applied (constants reached through ==c / ==v chains).
    """
    names = pc_vars(pc)
    cls = _classes(pc, names)
    pins = {}
    for a in pc:
        if a.kind == "==c":
            pins[cls[a.var.name]] = a.other
    return {name: pins[cls[name]] for name in names if cls[name] in pins}


def _key(a: Atom):
    """What makes two atoms duplicates of each other for simplify()."""
    return (a.kind, a.var.name,
            a.other.name if isinstance(a.other, FiniteVar) else a.other)


def simplify(pc) -> tuple:
    """Drop atoms entailed by the rest: duplicates, out-of-domain
    disequalities, and disequalities already decided by constant pins.
    Equisatisfiable with the input, and any model of the output satisfies it.
    """
    cls = _classes(pc, pc_vars(pc))
    pins = {}
    conflict = False
    for a in pc:
        if a.kind == "==c":
            c = cls[a.var.name]
            if c in pins and pins[c] != a.other:
                conflict = True
            pins.setdefault(c, a.other)

    out = []
    seen = set()
    for a in pc:
        key = _key(a)
        if key in seen:
            continue
        if a.kind == "==v" and a.var.name == a.other.name:
            continue
        if a.kind == "!=c":
            if not a.var.contains(a.other):
                continue
            pin = pins.get(cls[a.var.name])
            if pin is not None and not conflict and pin != a.other:
                continue
        if a.kind == "!=v":
            pa = pins.get(cls[a.var.name])
            pb = pins.get(cls[a.other.name])
            if pa is not None and pb is not None and not conflict and pa != pb:
                continue
        seen.add(key)
        out.append(a)
    return tuple(out)


class _Class:
    """One equality class of a PathState."""

    __slots__ = ("name", "members", "mask", "pin", "clash", "neq", "keys")

    def __init__(self, var: FiniteVar):
        self.name = var.name  # the smallest member's name
        self.members = [var.name]
        self.mask = _domain(var.size)  # the values the class can still take
        self.pin = None     # the constant of the class's first ==c atom
        self.clash = False  # two ==c atoms of the class name different constants
        self.neq = {}       # constant -> distinct !=c atoms naming it, each
        #                     inside its own variable's domain
        self.keys = set()   # _key of every ==c, ==v and counted !=c atom

    def copy(self) -> "_Class":
        c = _Class.__new__(_Class)
        c.name, c.mask, c.pin, c.clash = self.name, self.mask, self.pin, self.clash
        c.members, c.neq, c.keys = self.members.copy(), self.neq.copy(), self.keys.copy()
        return c

    def absorb(self, other: "_Class") -> None:
        """Merge other, whose name is larger, into this class."""
        self.members += other.members
        self.mask &= other.mask
        if other.pin is not None:
            self.add_pin(other.pin)
        self.clash = self.clash or other.clash
        for c, n in other.neq.items():
            self.neq[c] = self.neq.get(c, 0) + n
        self.keys |= other.keys

    def add_pin(self, c: int) -> None:
        if self.pin is None:
            self.pin = c
        elif self.pin != c:
            self.clash = True

    def dropped(self) -> int:
        """The class's !=c atoms that simplify() drops, as its pin decides them."""
        if self.pin is None:
            return 0
        return sum(self.neq.values()) - self.neq.get(self.pin, 0)


class PathState:
    """The facts of a path condition, extended atom by atom along the path.

    It holds what solve(), simplify() and entailed_pins() would otherwise
    recompute from the whole condition at each query: each variable's
    equality class (one _Class its members share, named by its smallest
    member), each class's domain mask, the var-var disequalities, and, for
    simplify()'s count, each class's pin and !=c atoms.  extend() returns a
    new state and leaves this one unchanged, so every option at a fork is
    tried from the same state: it copies the dict of classes, and once each
    class the new atoms change.

    A state is unsatisfiable once a class's mask is empty.  Only the classes
    that var-var disequalities join go to search(), so without one a state's
    model is each class's lowest bit, and UNKNOWN comes only from that
    search's budget.  pin() is entailed_pins() for a satisfiable state only:
    the constant of a class's ==c atoms (of two clashing pins, the first),
    not a mask that !=c atoms narrow to one value.
    """

    __slots__ = ("_vars", "_edges", "_unsat", "_clash", "_kept", "_dropped")

    def __init__(self):
        self._vars = {}      # variable name -> its _Class
        self._edges = {}     # _key -> (name, name) of every distinct !=v atom
        self._unsat = False  # some class has no value left
        self._clash = False  # some class is pinned to two constants
        self._kept = 0       # distinct ==c and ==v atoms, and counted !=c atoms
        self._dropped = 0    # counted !=c atoms a pin decides (see _Class.dropped)

    def extend(self, atoms) -> "PathState":
        """The state of this path condition with atoms appended."""
        st = PathState.__new__(PathState)
        st._vars = self._vars.copy()
        st._edges = self._edges  # replaced, never changed in place
        st._unsat, st._clash, st._kept, st._dropped = (
            self._unsat, self._clash, self._kept, self._dropped)
        owned = set()  # the classes st made or copied, and has not merged away
        for a in atoms:
            st._add(a, owned)
        for cls in owned:
            st._dropped += cls.dropped()
            st._clash = st._clash or cls.clash
            st._unsat = st._unsat or not cls.mask
        return st

    def _class(self, var: FiniteVar, owned) -> _Class:
        cls = self._vars.get(var.name)
        if cls is None:
            cls = self._vars[var.name] = _Class(var)
            owned.add(cls)
        return cls

    def _own(self, cls: _Class, owned) -> _Class:
        """cls, copied on its first change in this extend()."""
        if cls in owned:
            return cls
        self._dropped -= cls.dropped()
        cls = cls.copy()
        for name in cls.members:
            self._vars[name] = cls
        owned.add(cls)
        return cls

    def _add(self, a: Atom, owned) -> None:
        cls = self._class(a.var, owned)
        if a.kind == "!=v":
            self._class(a.other, owned)
            key = _key(a)
            if key not in self._edges:
                self._edges = {**self._edges, key: (a.var.name, a.other.name)}
            return
        if a.kind == "!=c" and not a.var.contains(a.other):
            return  # vacuous, and simplify() drops it
        if a.kind == "==v":
            other = self._class(a.other, owned)
            if other is not cls:
                cls, gone = self._own(cls, owned), self._own(other, owned)
                if gone.name < cls.name:
                    cls, gone = gone, cls
                cls.absorb(gone)
                owned.remove(gone)
                for name in gone.members:
                    self._vars[name] = cls
            elif a.var.name == a.other.name:
                return
        cls = self._own(cls, owned)
        if a.kind == "==c":
            cls.add_pin(a.other)
        key = _key(a)
        if key in cls.keys:
            return
        cls.keys.add(key)
        self._kept += 1
        if a.kind != "==v":
            cls.mask = _narrow(cls.mask, a)
        if a.kind == "!=c":
            cls.neq[a.other] = cls.neq.get(a.other, 0) + 1

    @property
    def status(self) -> str:
        """solve(pc).status for the path condition pc this state holds."""
        if self._unsat:
            return UNSAT
        if not self._edges:
            return SAT
        return self.solve().status

    @property
    def simplified(self) -> int:
        """len(simplify(pc)) for the path condition pc this state holds."""
        edges = len(self._edges)
        if self._clash:  # simplify() drops nothing by pins then
            return self._kept + edges
        for a, b in self._edges.values():
            pa, pb = self._vars[a].pin, self._vars[b].pin
            if pa is not None and pb is not None and pa != pb:
                edges -= 1
        return self._kept - self._dropped + edges

    def pin(self, name):
        """entailed_pins(pc).get(name), for a satisfiable pc."""
        return self._vars[name].pin if name in self._vars else None

    def solve(self, variables=()) -> SolveResult:
        """solve(pc, variables) for the path condition pc this state holds."""
        if self._unsat:
            return SolveResult(UNSAT)
        found = {}  # class name -> the value search() gives it
        if self._edges:  # a class's name is a member, so _vars maps it to the class
            pairs = [(self._vars[a].name, self._vars[b].name) for a, b in self._edges.values()]
            res = search({c: self._vars[c].mask for pair in pairs for c in pair}, pairs)
            if res.status != SAT:
                return res
            found = res.model
        model = {name: found.get(c.name, _lowest(c.mask)) for name, c in self._vars.items()}
        for v in variables:
            if v.name not in model:
                if not v.size:
                    return SolveResult(UNSAT)
                model[v.name] = 0
        return SolveResult(SAT, model)
