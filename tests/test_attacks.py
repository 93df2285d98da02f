import random
import tracemalloc

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
from cqa.classify import fuxman_graph, in_cparsimony, is_id_set
from cqa.fds import FunctionalDependencySet, fdset, sequential_proof
from cqa.graphs import joined
from cqa.queries import (
    Atom,
    ConjunctiveQuery,
    QueryError,
    RelationSignature,
    Term,
    parse_query,
    serialize_query,
)


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
            old = frozenset(q.free_vars) | fdset(support.without(q, [atom])).closure(atom.key_vars)
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
    assert g.components() == (("P",), ("R", "S", "T"))
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
    assert g.strong_edges() == (("R", "S"),)


def test_strong_label_matches_fd_definition():
    rng = random.Random(17)
    for _ in range(120):
        q = random_query(rng)
        fds = fdset(q)
        g = attack_graph(q)
        strong = set(g.strong_edges())
        for (src, dst) in g.edges:
            weak = support.determines(fds, q.atom(src).key_vars, q.atom(dst).key_vars)
            assert ((src, dst) in strong) == (not weak)


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
        g = attack_graph(q)
        for k in g.edges:
            assert support.witness_is_valid(g.witness(*k), q)


def test_witness_of_a_non_attack_is_a_key_error():
    g = attack_graph(support.lookup_pair_query())
    for source, target in [("S", "R"), ("R", "R")]:
        with pytest.raises(KeyError):
            g.witness(source, target)


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
            sub = support.without(q, attackers)
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


def test_attack_graph_makes_two_closures_per_atom(monkeypatch):
    # one keycl and one key closure per atom; the per-pair analysis made
    # about 20,000 on this 200-atom chain
    calls = []
    closure = FunctionalDependencySet.closure
    monkeypatch.setattr(FunctionalDependencySet, "closure",
                        lambda self, *args: calls.append(1) or closure(self, *args))
    q = parse_query("q(x0) :- " + ", ".join(f"R{i}(x{i} | x{i + 1})" for i in range(200)) + ".")
    g = attack_graph(q)
    assert len(g.edges) == 200 * 199 // 2
    assert 0 < len(calls) <= 2 * 200


def test_attack_graph_memory_per_attack_on_a_chain():
    # the successor tuples are the only store of the attacks, beside one set
    # of the strong ones (empty here): about 58 B per attack at peak under
    # tracemalloc on Python 3.11, against about 175 B when a (source, target)
    # -> strength dict kept every attack a second time
    q = parse_query("q(x0) :- " + ", ".join(f"R{i}(x{i} | x{i + 1})" for i in range(300)) + ".")
    tracemalloc.start()
    try:
        g = attack_graph(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.edges) == 300 * 299 // 2
    assert peak / len(g.edges) <= 100


def test_attack_graph_dot_memory_per_byte_of_text_on_a_chain():
    # the lines go into one buffer as they are made, a peak of about 2.8
    # times the text on Python 3.11; four times the text rules out keeping
    # one string per edge line until a final join, which reads about 5.9
    q = parse_query("q(x0) :- " + ", ".join(f"R{i}(x{i} | x{i + 1})" for i in range(600)) + ".")
    g = attack_graph(q)
    tracemalloc.start()
    try:
        text = attack_graph_dot(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count(" -> ") == 600 * 599 // 2
    assert peak <= 4 * len(text)


def _long_query(rng: random.Random, n: int) -> ConjunctiveQuery:
    """A chain R0(x0 | x1), ..., or a star S0(y | x0), ... of n atoms, with
    some atoms turned round, some shared variables, shuffled atom order and
    a random head, so that depth, name and query order all decide something."""
    def atom(name: str, key: str, rest: str) -> Atom:
        if rng.random() < 0.1:
            key, rest = rest, key
        args = [Term.var(key), Term.var(rest)]
        if rng.random() < 0.1:
            args.append(Term.var(f"x{rng.randrange(n)}"))
        return Atom(RelationSignature(name, len(args), 1), tuple(args))

    if rng.random() < 0.5:
        atoms = [atom(f"R{i}", f"x{i}", f"x{i + 1}") for i in range(n)]
    else:
        atoms = [atom(f"S{i}", "y", f"x{i}") for i in range(n)]
    if rng.random() < 0.5:
        rng.shuffle(atoms)
    used = sorted({t.symbol for a in atoms for t in a.args})
    free = tuple(v for v in used if rng.random() < 2 / len(used))
    return ConjunctiveQuery(tuple(atoms), free)


def _shared_target_query(rng: random.Random) -> ConjunctiveQuery:
    """R(x | v), S(y | w) and T(v, w | u) under shuffled relation names and
    atom order, sometimes with P(p | x) above R, and a head that leaves v and
    w bound: a Fuxman graph that is acyclic but gives T two parents.  (No
    such graph meets the Cforest edge condition: the variable that R passes
    to T lies in key(T), and so in notkey(S), or in notkey(T); either way
    an edge leads back to R.)"""
    r, s, t, p = rng.sample("PRSTUV", 4)
    body = [f"{r}(x | v)", f"{s}(y | w)", f"{t}(v, w | u)"]
    if rng.random() < 0.5:
        body.append(f"{p}(p | x)")
    rng.shuffle(body)
    free = [v for v in "puxy" if rng.random() < 0.4 and (v != "p" or len(body) == 4)]
    return parse_query(f"q({', '.join(free)}) :- {', '.join(body)}.")


def test_analysis_equals_reference_on_random_and_long_queries():
    # the one-closure-one-BFS analysis against the per-pair one it replaced
    rng = random.Random(2032)
    shared_targets = 0  # acyclic Fuxman graphs whose largest in-degree is 2
    for i in range(2100):
        if i < 2000:
            q = random_query(rng, max_atoms=8, max_vars=8, const_prob=0.1)
        elif i < 2060:  # 20-60 atoms, mostly near 20: the reference costs n^3 on a chain
            q = _long_query(rng, 20 + int(40 * rng.random() ** 2))
        else:
            q = _shared_target_query(rng)
        g, want = attack_graph(q), support.reference_attack_graph(q)
        where = serialize_query(q)
        assert attack_graph_dot(g) == support.reference_attack_graph_dot(want), where
        fuxman, fuxman_want = fuxman_graph(q), support.reference_fuxman_graph(q)
        assert joined(fuxman.dot("fuxman_graph")) == fuxman_want.dot("fuxman_graph"), where
        shared_targets += fuxman_want.topological_order() is not None and max(
            map(fuxman_want.in_degree, fuxman_want.vertices), default=0) == 2
        report = support.reference_report(q, want, support.reference_in_cforest(q))
        assert in_cparsimony(q).to_json_dict() == report.to_json_dict(), where  # with cforest
        pick = random.Random(i)  # any bound tuple, not only the candidate; own rng, same corpus
        xs = pick.sample(q.bound_vars, pick.randint(0, min(3, len(q.bound_vars))))
        assert is_id_set(q, xs, g) == support.reference_is_id_set(q, xs, want), where
        strong = set(g.strong_edges())
        assert {k: (k in strong, g.witness(*k)) for k in g.edges} == {
            k: (e.strong, e.witness) for k, e in want.edges.items()}, where
        assert frozen_vars(q, g) == support.reference_frozen_vars(q, want), where
        fds = fdset(q)
        for atom in q.atoms:
            assert g.attacked_variables(atom.name) == want.attacked_variables(atom.name), where
            assert keycl(atom, q) == support.reference_keycl(atom, q, fds), where
        for x in q.variables:
            assert g.attackers_of_variable(x) == want.attackers_of_variable(x), where
        if i % 4 == 0:
            base = rng.sample(sorted(q.variables), min(len(q.variables), rng.randint(0, 2)))
            for x in q.variables:
                assert sequential_proof(q, base, x) == support.reference_sequential_proof(
                    q.atoms, q.free_vars, base, x), where
        if i % 4 == 1 or i % 50 == 2:
            atom = rng.choice(q.atoms)
            paths = want._variable_paths[atom.name]
            for x in q.variables:
                witness = attacks_variable(atom, x, q)
                assert (witness and witness.path) == paths.get(x), where
    assert shared_targets >= 20, shared_targets
