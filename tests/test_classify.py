import collections
import importlib
import random

import pytest

import support
from generators import random_query
from cqa.attacks import attack_graph, frozen_vars
from cqa.classify import (
    CyclicAttackGraphError,
    candidate_id_set,
    fuxman_graph,
    in_cforest,
    in_cparsimony,
    is_id_set,
)
from cqa.evaluate import cqacount_parsimonious
from cqa.graphs import Digraph, joined
from cqa.queries import QueryError, parse_query, serialize_query


def test_candidate_id_set_star_share():
    assert candidate_id_set(support.star_share_query()) == {"x"}


def test_candidate_id_set_bridge():
    assert candidate_id_set(support.bridge_query()) == {"x"}


def test_candidate_id_set_two_component():
    assert candidate_id_set(support.two_component_query()) == {"x", "v"}


def test_candidate_id_set_rejects_cyclic():
    with pytest.raises(CyclicAttackGraphError):
        candidate_id_set(support.mutual_attack_query())


def test_is_id_set_two_component():
    ok, violation = is_id_set(support.two_component_query(), ("x", "v"))
    assert ok and violation is None


def test_is_id_set_square_share_empty_path():
    # x itself sits at a non-key position of S1, so the one-vertex path wins
    q = support.square_share_query()
    ok, violation = is_id_set(q, ("x",))
    assert not ok
    assert violation.path is not None
    assert violation.path[-1] == "x"


def test_is_id_set_empty_candidate_fails_component_condition():
    q = support.twin_lookup_query()
    ok, violation = is_id_set(q, ())
    assert not ok
    assert violation.path is None
    assert violation.atom == "R"


def test_is_id_set_validates_input():
    q = support.two_component_query()
    with pytest.raises(QueryError):
        is_id_set(q, ("z",))  # free, not bound
    with pytest.raises(QueryError):
        is_id_set(q, ("x", "x"))


def test_report_two_component():
    report = in_cparsimony(support.two_component_query())
    assert report.acyclic and not report.strong_attacks
    assert report.in_cparsimony
    assert report.id_set == ("v", "x")


def test_report_guarded_cycle():
    report = in_cparsimony(support.guarded_cycle_query())
    assert report.in_cparsimony and report.id_set == ("x",)
    assert frozen_vars(support.guarded_cycle_query()).vars == {"y"}


def test_report_matching_pairs_negative():
    report = in_cparsimony(support.matching_pairs_query())
    assert report.acyclic and not report.strong_attacks
    assert not report.in_cparsimony
    assert report.violation is not None and report.violation.path is not None


def test_report_twin_lookup_negative():
    report = in_cparsimony(support.twin_lookup_query())
    assert report.acyclic and not report.strong_attacks
    assert not report.in_cparsimony
    assert report.violation is not None and report.violation.path is None


def test_report_lookup_pair_strong_attack():
    report = in_cparsimony(support.lookup_pair_query())
    assert report.acyclic
    assert report.strong_attacks == (("R", "S"),)
    assert not report.in_cparsimony
    assert report.id_set is None


def test_report_cyclic_query():
    report = in_cparsimony(support.mutual_attack_query())
    assert not report.acyclic and not report.in_cparsimony


def test_report_json_shape():
    data = in_cparsimony(support.two_component_query()).to_json_dict()
    assert set(data) == {"acyclic", "strong_attacks", "id_set", "cparsimony", "cforest", "violation"}
    assert data["id_set"] == ["v", "x"]
    assert data["violation"] is None


def test_widen_pair_in_cparsimony_not_cforest():
    q = support.widen_pair_query()
    report = in_cparsimony(q)
    assert report.in_cparsimony
    assert not report.in_cforest
    fg = fuxman_graph(q)
    assert fg.edges == {("R", "S"), ("S", "R")}
    assert fg.topological_order() is None


def test_employee_query_in_cforest():
    q = support.employee_query()
    fg = fuxman_graph(q)
    assert fg.edges == {("E", "D")}
    assert in_cforest(q)
    assert in_cparsimony(q).in_cparsimony


def test_single_atom_query_in_cforest():
    q = parse_query("q(z) :- R(x | y, z).")
    assert in_cforest(q)
    assert in_cparsimony(q).in_cparsimony


def test_fuxman_edge_ignores_free_carriers():
    # the only shared variable is free, so no Fuxman edge exists
    q = parse_query("q(z) :- R(x | z), S(y | z).")
    assert fuxman_graph(q).edges == frozenset()
    assert in_cforest(q)


def test_fuxman_forest_rejects_shared_target():
    # two parents feed T: in-degree 2 is not a forest
    q = parse_query("q() :- R(x | v), S(y | w), T(v, w | u).")
    fg = fuxman_graph(q)
    assert fg.in_degree("T") == 2
    assert fg.topological_order() is not None
    assert not in_cforest(q)
    # T has parents R and S and feeds R back: the edges S -> T and T -> R
    # alone would form a forest that meets the key condition
    assert not in_cforest(parse_query("q() :- R(| v), T(w | v), S(y | w)."))


def test_fuxman_graph_dot():
    dot = joined(fuxman_graph(support.employee_query()).dot("fuxman_graph"))
    assert '  "E" -> "D";' in dot


def test_candidate_matches_exhaustive_search():
    rng = random.Random(53)
    seen_yes = 0
    for _ in range(150):
        q = random_query(rng, max_atoms=4, max_vars=5)
        graph = attack_graph(q)
        if not graph.is_acyclic() or graph.strong_edges():
            continue
        report = in_cparsimony(q)
        best = support.exhaustive_id_set(q)
        assert report.in_cparsimony == (best is not None)
        if best is not None:
            seen_yes += 1
            # the minimal id-set is unique, so the search must land on it
            assert frozenset(report.id_set) == candidate_id_set(q, graph)
            assert frozenset(best) == frozenset(report.id_set)
    assert seen_yes >= 20


def test_report_flags_are_coherent():
    rng = random.Random(57)
    for _ in range(200):
        report = in_cparsimony(random_query(rng))
        assert report.in_cparsimony == (
            report.acyclic and not report.strong_attacks and report.id_set is not None
        )


def test_minimal_id_set_cannot_be_shrunk():
    for q in (support.two_component_query(), support.guarded_cycle_query()):
        report = in_cparsimony(q)
        xs = report.id_set
        for drop in xs:
            smaller = tuple(v for v in xs if v != drop)
            ok, _ = is_id_set(q, smaller)
            assert not ok


def test_id_set_variables_look_right_on_random_positives():
    # id-set variables sit at key positions only, are unattacked, and appear
    # in the key of some unattacked atom
    rng = random.Random(59)
    hits = 0
    for _ in range(200):
        q = random_query(rng)
        report = in_cparsimony(q)
        if not report.in_cparsimony or not report.id_set:
            continue
        hits += 1
        g = attack_graph(q)
        unattacked = g.unattacked_atoms()
        attacked_vars = set()
        for atom in q.atoms:
            attacked_vars |= g.attacked_variables(atom.name)
        for x in report.id_set:
            assert x not in attacked_vars
            for atom in q.atoms:
                if x in atom.variables:
                    assert x in atom.key_vars
            assert any(x in atom.key_vars for atom in unattacked)
    assert hits >= 30


def test_unattacked_connected_sources_share_id_set_keys():
    rng = random.Random(61)
    for _ in range(200):
        q = random_query(rng)
        report = in_cparsimony(q)
        if not report.in_cparsimony or report.id_set is None:
            continue
        g = attack_graph(q)
        xs = set(report.id_set)
        unattacked = {a.name for a in g.unattacked_atoms()}
        for comp in g.components():
            sources = [q.atom(n) for n in comp if n in unattacked]
            picks = {frozenset(a.key_vars & xs) for a in sources}
            assert len(picks) <= 1


def test_classification_sorts_once_and_builds_no_fuxman_graph(monkeypatch):
    # one attack graph (with its query graph) and one Kahn sort per call: the
    # acyclicity test, the candidate id-set and the certainty plan read the
    # stored order, frozen variables come from one closure and the Cforest
    # test reads the edges; a parsimonious count sorts once too
    built, sorts, proofs = collections.Counter(), [], []
    init, order = Digraph.__init__, Digraph.topological_order

    def counted_init(self, *args, **kwargs):
        built[type(self).__name__] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Digraph, "__init__", counted_init)
    monkeypatch.setattr(Digraph, "topological_order", lambda g: sorts.append(1) or order(g))
    for name in ("cqa.attacks", "cqa.fds"):
        module = importlib.import_module(name)
        proof = module.sequential_proof
        monkeypatch.setattr(module, "sequential_proof",
                            lambda *args, proof=proof: proofs.append(1) or proof(*args))
    queries = [support.employee_query(), support.two_component_query(),
               support.guarded_cycle_query(), support.square_share_query(),
               support.lookup_pair_query(), support.mutual_attack_query(),
               parse_query("q() :- R(x | y), S(y | x)."), parse_query("q(z) :- R(| x), S(x | z).")]
    for q in queries:
        built.clear()
        del sorts[:], proofs[:]
        in_cparsimony(q)
        assert built == {"AttackGraph": 1, "Digraph": 1}, serialize_query(q)
        assert (len(sorts), len(proofs)) == (1, 0), serialize_query(q)
    assert not in_cparsimony(queries[-2]).in_cforest  # a Fuxman cycle, read without a graph
    built.clear()
    del sorts[:]
    cqacount_parsimonious(support.employee_query(), support.employee_db())
    assert built == {"AttackGraph": 1, "Digraph": 1}
    assert len(sorts) == 1
