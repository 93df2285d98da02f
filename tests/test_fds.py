import random

import support
from generators import random_query
from cqa.fds import (
    FunctionalDependency,
    FunctionalDependencySet,
    fdset,
    sequential_proof,
)
from cqa.queries import parse_query


def test_fdset_of_reduced_four_atom_query():
    q = support.without(support.four_atom_fd_query(), ["T"])
    fds = fdset(q)
    # written with reflexive right-hand parts stripped: {} -> z1, u -> x, x z1 -> y, y -> u
    stripped = {(dep.lhs, dep.rhs - dep.lhs) for dep in fds.deps}
    assert stripped == {
        (frozenset(), frozenset({"z1"})),
        (frozenset({"u"}), frozenset({"x"})),
        (frozenset({"x", "z1"}), frozenset({"y"})),
        (frozenset({"y"}), frozenset({"u"})),
    }
    assert fds.closure({"y"}) == {"u", "x", "y", "z1"}


def test_fdset_contains_empty_to_free():
    q = parse_query("q(z1, z2) :- R(x | z1, z2).")
    fds = fdset(q)
    assert FunctionalDependency(frozenset(), frozenset({"z1", "z2"})) in fds.deps
    assert fds.closure(()) >= {"z1", "z2"}


def test_fdset_with_no_atoms_is_just_the_free_rule():
    fds = FunctionalDependencySet(
        [FunctionalDependency(frozenset(), frozenset({"z"}))], {"z"}, {"z"}
    )
    assert fds.closure(()) == {"z"}


def test_full_query_makes_every_dependency_trivial():
    q = parse_query("q(x, y, z) :- R(x | y), S(y | z).")
    fds = fdset(q)
    for v in q.variables:
        assert v in fds.closure(())


def test_closure_of_universe_is_universe():
    fds = fdset(support.four_atom_fd_query())
    assert fds.closure(fds.universe) == fds.universe


def test_closure_idempotent_and_monotone():
    rng = random.Random(3)
    for _ in range(50):
        q = random_query(rng)
        fds = fdset(q)
        names = sorted(q.variables)
        small = {v for v in names if rng.random() < 0.3}
        big = small | {v for v in names if rng.random() < 0.3}
        cs = fds.closure(small)
        assert fds.closure(cs) == cs
        assert cs <= fds.closure(big)
        assert cs >= small | fds.free


def test_implies_free_variables_from_nothing():
    q = parse_query("q(z) :- R(x | y, z).")
    assert "z" in fdset(q).closure(())


def test_implies_mutual_key_example():
    # fdset is equivalent to {x -> y, y -> x, {} -> z}
    q = support.twin_lookup_query()
    fds = fdset(q)
    assert "y" not in fds.closure(())
    assert "y" in fds.closure(("x",))
    assert "x" in fds.closure(("y",))
    assert "z" in fds.closure(())


def test_sequential_proof_single_atom():
    q = parse_query("q(z) :- R(z | x), S(z | x).")
    proof = sequential_proof(q, (), "x")
    assert proof is not None
    assert [a.name for a in proof.atoms] == ["R"]


def test_sequential_proof_of_member_of_base_is_empty():
    q = parse_query("q(z) :- R(x | y, z).")
    proof = sequential_proof(q, ("y",), "y")
    assert proof is not None and proof.atoms == ()


def test_sequential_proof_absent_when_not_implied():
    q = support.twin_lookup_query()
    assert sequential_proof(q, (), "y") is None


def _proof_is_valid(proof, q):
    have = set(q.free_vars) | set(proof.base)
    for atom in proof.atoms:
        if not atom.key_vars <= have:
            return False
        have |= atom.variables
    return proof.target in have


def test_sequential_proof_matches_closure_on_random_queries():
    rng = random.Random(11)
    for _ in range(200):
        q = random_query(rng, max_atoms=6)
        fds = fdset(q)
        names = sorted(q.variables)
        base = tuple(v for v in names if rng.random() < 0.25)
        target = rng.choice(names)
        proof = sequential_proof(q, base, target)
        assert (proof is not None) == (target in fds.closure(base))
        if proof is not None:
            assert _proof_is_valid(proof, q)
            if proof.atoms:
                # tail-minimal: dropping the last atom breaks the proof
                clipped = type(proof)(proof.atoms[:-1], proof.target, proof.base)
                assert not _proof_is_valid(clipped, q)


def test_transitivity_is_operational():
    rng = random.Random(23)
    for _ in range(100):
        q = random_query(rng)
        fds = fdset(q)
        names = sorted(q.variables)
        xs = {v for v in names if rng.random() < 0.3}
        ys = {v for v in names if rng.random() < 0.3}
        w = rng.choice(names)
        if support.determines(fds, xs, ys) and w in fds.closure(ys):
            assert w in fds.closure(xs)


def test_closure_agrees_with_two_row_tableau():
    rng = random.Random(37)
    for _ in range(400):
        q = random_query(rng, max_vars=5)
        fds = fdset(q)
        names = sorted(q.variables)
        if not names:  # every argument drawn as a constant
            continue
        for _ in range(6):
            lhs = {v for v in names if rng.random() < 0.3}
            target = rng.choice(names)
            assert (target in fds.closure(lhs)) == support.brute_force_implies(fds, lhs, target)


def test_dependencies_print_with_sorted_sides():
    fds = fdset(parse_query("q(z) :- R(y, x | z)."))
    assert [str(dep) for dep in fds.deps] == ["{} -> {z}", "{x y} -> {x y z}"]
    assert repr(fds) == "FunctionalDependencySet({} -> {z}, {x y} -> {x y z})"
