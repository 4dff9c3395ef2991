import itertools
import random
import time

from indexify.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    FiniteVar,
    PathState,
    entailed_pins,
    pc_vars,
    satisfies,
    simplify,
    solve,
    var_eq_const,
    var_eq_var,
    var_neq_const,
    var_neq_var,
)


def random_pc(rng, max_vars=4, max_domain=8, max_atoms=8):
    nvars = rng.randint(1, max_vars)
    vs = [FiniteVar(f"v{i}", rng.randint(1, max_domain)) for i in range(nvars)]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        v = rng.choice(vs)
        kind = rng.randrange(4)
        if kind < 2:
            c = rng.randrange(-1, max_domain + 1)
            atoms.append(var_eq_const(v, c) if kind == 0 else var_neq_const(v, c))
        else:
            w = rng.choice(vs)
            atoms.append(var_eq_var(v, w) if kind == 2 else var_neq_var(v, w))
    return tuple(atoms), vs


def brute_force(pc, vs):
    for combo in itertools.product(*[range(v.size) for v in vs]):
        asg = {v.name: c for v, c in zip(vs, combo)}
        if satisfies(pc, asg):
            return SAT
    return UNSAT


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


def test_two_pins_sat():
    vendor = FiniteVar("vendor", 4)
    nv11 = FiniteVar("nv11vendor", 4)
    res = solve((var_eq_const(vendor, 0), var_eq_const(nv11, 1)))
    assert res.status == SAT
    assert res.model == {"vendor": 0, "nv11vendor": 1}


def test_constant_clash_unsat():
    x = FiniteVar("x", 8)
    assert solve((var_eq_const(x, 1), var_eq_const(x, 2))).status == UNSAT


def test_eq_neq_same_pair_unsat():
    x, y = FiniteVar("x", 4), FiniteVar("y", 4)
    assert solve((var_eq_var(x, y), var_neq_var(y, x))).status == UNSAT


def test_domain_exhaustion_unsat():
    x = FiniteVar("x", 4)
    atoms = tuple(var_neq_const(x, i) for i in range(4))
    assert solve(atoms).status == UNSAT
    # a variable over an empty domain has no value, constrained or not
    empty = FiniteVar("e", 0)
    assert solve((), variables=[empty]).status == UNSAT
    assert PathState().solve(variables=[empty]).status == UNSAT


def test_smallest_model_selected():
    x, y = FiniteVar("x", 8), FiniteVar("y", 8)
    res = solve((var_neq_const(x, 0), var_neq_var(x, y)))
    assert res.model["x"] == 1
    assert res.model["y"] == 0


def test_a_class_is_named_by_its_smallest_member():
    # {a, c} and {b} tie on values left, and the search breaks the tie on the
    # class's name: "a" goes first and takes 0.  Named "c", it would go after
    # "b" and take 1.
    a, b, c = (FiniteVar(n, 2) for n in "abc")
    for pc in ((var_eq_var(c, a), var_neq_var(b, c)),
               (var_eq_var(a, c), var_neq_var(c, b))):
        assert solve(pc).model == {"a": 0, "c": 0, "b": 1}, pc
        assert PathState().extend(pc).solve().model == {"a": 0, "c": 0, "b": 1}, pc


def test_unconstrained_variables_get_values():
    x, z = FiniteVar("x", 4), FiniteVar("z", 4)
    res = solve((var_eq_const(x, 2),), variables=[z])
    assert res.model == {"x": 2, "z": 0}


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


def test_simplify_dedups():
    x = FiniteVar("x", 8)
    pc = (var_eq_const(x, 2), var_eq_const(x, 2))
    assert simplify(pc) == (var_eq_const(x, 2),)


def test_simplify_drops_out_of_domain_disequality():
    x, y = FiniteVar("x", 4), FiniteVar("y", 4)
    pc = (var_eq_const(x, 2), var_neq_const(y, 3), var_neq_const(x, 5))
    assert simplify(pc) == (var_eq_const(x, 2), var_neq_const(y, 3))


def test_simplify_drops_pin_entailed():
    x = FiniteVar("x", 8)
    pc = (var_eq_const(x, 2), var_neq_const(x, 5))
    assert simplify(pc) == (var_eq_const(x, 2),)
    # but a contradicting disequality must survive
    pc = (var_eq_const(x, 2), var_neq_const(x, 2))
    assert var_neq_const(x, 2) in simplify(pc)


def test_simplify_preserves_verdict_and_models():
    rng = random.Random(21)
    for _ in range(400):
        pc, vs = random_pc(rng)
        simp = simplify(pc)
        assert solve(pc, variables=vs).status == solve(simp, variables=vs).status
        res = solve(simp, variables=vs)
        if res.status == SAT:
            assert satisfies(pc, res.model)  # models of the output satisfy the input


# ---------------------------------------------------------------------------
# the oracle property
# ---------------------------------------------------------------------------


def test_verdicts_match_brute_force():
    rng = random.Random(1234)
    for _ in range(1500):
        pc, vs = random_pc(rng)
        res = solve(pc, variables=vs)
        assert res.status == brute_force(pc, vs)
        if res.status == SAT:
            assert satisfies(pc, res.model)


def test_entailed_pins_transitive():
    x, y, z = (FiniteVar(n, 8) for n in "xyz")
    pins = entailed_pins((var_eq_var(x, y), var_eq_var(y, z), var_eq_const(z, 5)))
    assert pins == {"x": 5, "y": 5, "z": 5}


def test_budget_smoke_10k_atoms():
    rng = random.Random(7)
    vs = [FiniteVar(f"v{i}", 64) for i in range(200)]
    atoms = []
    for _ in range(10_000):
        v = rng.choice(vs)
        k = rng.randrange(4)
        if k == 0:
            atoms.append(var_eq_const(v, rng.randrange(64)))
        elif k == 1:
            atoms.append(var_neq_const(v, rng.randrange(64)))
        elif k == 2:
            atoms.append(var_eq_var(v, rng.choice(vs)))
        else:
            atoms.append(var_neq_var(v, rng.choice(vs)))
    t0 = time.monotonic()
    res = solve(tuple(atoms))
    assert time.monotonic() - t0 < 30.0
    assert res.status in (SAT, UNSAT)
    # a satisfiable variant at the same scale: disequalities between
    # distinct variables only
    big = []
    for _ in range(10_000):
        a, b = rng.sample(vs, 2)
        big.append(var_neq_var(a, b) if rng.random() < 0.5
                   else var_neq_const(a, rng.randrange(64)))
    t0 = time.monotonic()
    res = solve(tuple(big))
    assert time.monotonic() - t0 < 30.0
    assert res.status == SAT


def test_exhausted_budget_reports_unknown():
    x, y = FiniteVar("x", 8), FiniteVar("y", 8)
    res = solve((var_neq_var(x, y),), budget_s=-1.0)
    assert res.status == UNKNOWN


def test_path_state_agrees_with_the_solver_at_every_prefix():
    """PathState, extended a few atoms at a time, against solve(), simplify()
    and entailed_pins() recomputed from the whole path condition."""
    rng = random.Random(4321)
    with_edges, searched = 0, 0  # prefixes with a var-var atom, and sat ones
    for trial in range(3000):
        vs = [FiniteVar(f"v{i}", rng.randint(1, 4)) for i in range(rng.randint(2, 4))]
        # half the sequences have no var-var disequality, so that the model
        # of each class on its own is compared as well as the search's
        kinds = 4 if trial % 2 else 3
        state, pc = PathState(), ()
        for _ in range(rng.randint(1, 5)):
            atoms = []
            for _ in range(rng.randint(1, 4)):
                v, kind = rng.choice(vs), rng.randrange(kinds)
                if kind < 2:
                    c = rng.randrange(-1, 5)
                    atoms.append(var_eq_const(v, c) if kind == 0 else var_neq_const(v, c))
                else:
                    w = rng.choice(vs)
                    atoms.append(var_eq_var(v, w) if kind == 2 else var_neq_var(v, w))
            before = state.simplified
            state, pc = state.extend(atoms), pc + tuple(atoms)
            extra = [rng.choice(vs)]
            assert state.simplified == len(simplify(pc)), pc
            ref = solve(pc, variables=extra)
            assert state.status == ref.status, pc
            assert state.solve(extra) == ref, pc
            edges = any(a.kind == "!=v" for a in pc)
            with_edges += edges
            if ref.status == SAT:  # entailed_pins() is defined for a sat pc only
                pins = {n: state.pin(n) for n in pc_vars(pc) if state.pin(n) is not None}
                assert pins == entailed_pins(pc), pc
                searched += edges
        assert before == len(simplify(pc[:-len(atoms)]))  # extend left it alone
    assert with_edges > 3000 and searched > 300
