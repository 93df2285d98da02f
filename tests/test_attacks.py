import random

import pytest

import support
from generators import random_query
from cqa.attacks import (
    attack_graph,
    attack_graph_dot,
    attacks_variable,
    frozen_vars,
    keycl,
)
from cqa.fds import fdset
from cqa.queries import QueryError, parse_query


def test_keycl_four_atom_example():
    q = support.four_atom_fd_query()
    assert keycl(q.atom("T"), q) == {"u", "x", "y", "z1", "z2"}


def test_keycl_single_atom_is_free_plus_key():
    q = parse_query("q(z) :- R(x, z | y).")
    assert keycl(q.atom("R"), q) == {"x", "z"}


def test_keycl_contains_key_and_free():
    rng = random.Random(2)
    for _ in range(80):
        q = random_query(rng)
        for atom in q.atoms:
            assert keycl(atom, q) >= atom.key_vars | set(q.free_vars)


def test_keycl_equals_closure_over_query_without_atom():
    # keycl reads q's own dependencies minus the atom's; the definition it
    # replaced rebuilt the query without the atom and closed under that.
    rng = random.Random(404)
    for _ in range(1000):
        q = random_query(rng, max_atoms=12, max_vars=rng.choice((4, 7, 10)), const_prob=0.08)
        for atom in q.atoms:
            old = frozenset(q.free_vars) | fdset(q.without([atom])).closure(atom.key_vars)
            assert keycl(atom, q) == old


def test_keycl_requires_member_atom():
    q = parse_query("q(z) :- R(x | z).")
    other = parse_query("q(z) :- S(x | z).").atom("S")
    with pytest.raises(QueryError):
        keycl(other, q)


def test_attacks_variable_simple_lookup():
    q = parse_query("q(z) :- E(x | y), D(y | z).")
    w = attacks_variable(q.atom("E"), "y", q)
    assert w is not None and w.path == ("y",)
    assert attacks_variable(q.atom("D"), "y", q) is None


def test_free_variables_are_never_attacked():
    q = parse_query("q(z) :- E(x | y), D(y | z).")
    for atom in q.atoms:
        assert attacks_variable(atom, "z", q) is None


def test_attack_on_guarded_cycle_query():
    q = support.guarded_cycle_query()
    g = attack_graph(q)
    assert set(g.edges) == {("S", "T")}
    assert "v" in g.attacked_variables("S")


def test_attack_graph_two_component_example():
    g = attack_graph(support.two_component_query())
    assert set(g.edges) == {("R", "T"), ("S", "T")}
    assert not g.strong_edges()
    comps = g.components()
    assert tuple(tuple(a.name for a in comp) for comp in comps) == (("P",), ("R", "S", "T"))
    assert [a.name for a in g.unattacked_atoms()] == ["P", "R", "S"]
    assert g.is_acyclic()


def test_attack_graph_square_share_has_no_edges():
    g = attack_graph(support.square_share_query())
    assert not g.edges
    assert len(g.components()) == 4
    assert len(g.unattacked_atoms()) == 4


def test_attack_graph_twin_lookup_edges():
    g = attack_graph(support.twin_lookup_query())
    assert set(g.edges) == {("R", "S"), ("R", "T")}
    assert not g.strong_edges()


def test_attack_graph_mutual_attack_is_cyclic():
    g = attack_graph(support.mutual_attack_query())
    assert set(g.edges) == {("R", "S"), ("S", "R")}
    assert not g.is_acyclic()


def test_strong_attack_on_lookup_pair():
    g = attack_graph(support.lookup_pair_query())
    assert [(e.source.name, e.target.name) for e in g.strong_edges()] == [("R", "S")]


def test_strong_label_matches_fd_definition():
    rng = random.Random(17)
    for _ in range(120):
        q = random_query(rng)
        fds = fdset(q)
        for edge in attack_graph(q).edges.values():
            weak = fds.determines(edge.source.key_vars, edge.target.key_vars)
            assert edge.strong == (not weak)


def test_every_edge_attacks_a_key_variable():
    rng = random.Random(19)
    for _ in range(120):
        q = random_query(rng)
        g = attack_graph(q)
        for (src, dst) in g.edges:
            attacked = g.attacked_variables(src)
            target_atom = q.atom(dst)
            assert attacked & target_atom.variables
            assert attacked & target_atom.key_vars


def test_witnesses_revalidate():
    rng = random.Random(29)
    for _ in range(120):
        q = random_query(rng)
        for edge in attack_graph(q).edges.values():
            assert support.witness_is_valid(edge.witness, q)


def test_frozen_simple_pair():
    q = parse_query("q(z) :- R(z | x), S(z | x).")
    fr = frozen_vars(q)
    assert fr.vars == {"x"}
    assert [a.name for a in fr.certificates["x"].atoms] == ["R"]


def test_frozen_guarded_cycle():
    q = support.guarded_cycle_query()
    fr = frozen_vars(q)
    assert fr.vars == {"y"}
    cert = fr.certificates["y"]
    g = attack_graph(q)
    assert all("y" not in g.attacked_variables(a.name) for a in cert.atoms)


def test_frozen_never_intersects_attacked():
    rng = random.Random(31)
    for _ in range(120):
        q = random_query(rng)
        g = attack_graph(q)
        attacked = set()
        for atom in q.atoms:
            attacked |= g.attacked_variables(atom.name)
        assert not frozen_vars(q, g).vars & attacked


def test_frozen_matches_independent_closure():
    # same decision, but with the two-row tableau doing the implication work
    rng = random.Random(41)
    for _ in range(60):
        q = random_query(rng, max_vars=5)
        g = attack_graph(q)
        fr = frozen_vars(q, g).vars
        for x in q.bound_vars:
            attackers = g.attackers_of_variable(x)
            sub = q.without(attackers)
            expect = support.brute_force_implies(fdset(sub), (), x)
            assert (x in fr) == expect


def test_attack_graph_dot_two_component():
    dot = attack_graph_dot(attack_graph(support.two_component_query()))
    assert '  "R" -> "T";' in dot
    assert '  "S" -> "T";' in dot
    assert "style=bold" not in dot


def test_attack_graph_dot_marks_strong_edges():
    dot = attack_graph_dot(attack_graph(support.lookup_pair_query()))
    assert '  "R" -> "S" [style=bold];' in dot
