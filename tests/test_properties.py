"""Randomized invariants from the analysis design, beyond the goldens."""

import itertools
import random

import support
from generators import acyclic_corpus, cparsimony_corpus, random_instance, random_query
from cqa.attacks import attack_graph
from cqa.classify import in_cforest, in_cparsimony
from cqa.evaluate import certain_answers, cqacount_oracle, evaluate
from cqa.instances import enumerate_repairs, repair_count
from cqa.queries import make_bound, make_free, parse_query, serialize_query, substitute


def test_acyclic_attack_graphs_are_transitive():
    rng = random.Random(83)
    checked = 0
    for _ in range(300):
        q = random_query(rng)
        g = attack_graph(q)
        if not g.is_acyclic():
            continue
        checked += 1
        for (a, b) in g.edges:
            for c in g.successors(b):
                if c != a:
                    assert g.attacks(a, c), serialize_query(q)
    assert checked >= 250


def test_serialize_parse_roundtrip_random():
    rng = random.Random(89)
    for _ in range(300):
        q = random_query(rng)
        assert parse_query(serialize_query(q)) == q


def test_make_free_make_bound_roundtrip_random():
    rng = random.Random(97)
    for _ in range(200):
        q = random_query(rng)
        if not q.bound_vars:
            continue
        xs = tuple(v for v in q.bound_vars if rng.random() < 0.5)
        assert make_bound(make_free(q, xs), xs) == q


def test_certain_answers_match_repair_intersection_smoke():
    rng = random.Random(101)
    for q in acyclic_corpus(103, 40):
        db = random_instance(rng, q, max_repairs=64)
        assert certain_answers(q, db).tuples == support.intersection_certain(q, db)


def test_grounding_an_unattacked_atom_adds_no_attack():
    # the lemma behind computing one elimination order per query
    checked = 0
    for q in acyclic_corpus(127, 300, max_atoms=6):
        graph = attack_graph(q)
        for atom in graph.unattacked_atoms():
            rest = support.without(q, [atom])
            rest = make_free(rest, [v for v in rest.bound_vars if v in atom.variables])
            grounded = [v for v in rest.free_vars if v in atom.variables]
            rest = substitute(rest, grounded, [f"fresh_{v}" for v in grounded])
            assert set(attack_graph(rest).edges) <= set(graph.edges), serialize_query(q)
            checked += 1
    assert checked >= 300


def test_widening_to_the_id_set_adds_no_attack():
    # why the parsimonious route reuses the original query's elimination order
    widened_some = 0
    for q, report in cparsimony_corpus(131, 2000):
        widened = make_free(q, report.id_set)
        assert set(attack_graph(widened).edges) <= set(attack_graph(q).edges), serialize_query(q)
        widened_some += bool(report.id_set)
    assert widened_some >= 1000


def test_repair_streams_are_independent():
    db = support.employee_db()
    first = enumerate_repairs(db)
    second = enumerate_repairs(db)
    a1, b1 = next(first), next(second)
    b_rest = [b1] + list(second)
    a_rest = [a1] + list(first)
    assert [r.facts for r in a_rest] == [r.facts for r in b_rest]
    assert len(a_rest) == repair_count(db)


def test_projection_counts_cannot_replace_oracle_on_lookup_pair():
    # no choice of counted variables reproduces the tight upper bounds
    q = support.lookup_pair_query()
    db = support.lookup_pair_db()
    full = make_free(q, q.bound_vars)
    oracle_upper = {a.group: a.upper for a in cqacount_oracle(full, ("z",), db)}
    for size in range(3):
        for xs in itertools.combinations(("x", "y"), size):
            widened = make_free(q, xs)
            per_group: dict[tuple, set] = {}
            for t in evaluate(widened, db).tuples:
                per_group.setdefault(t[:1], set()).add(t[1:])
            projected = {g: len(s) for g, s in per_group.items()}
            assert projected != oracle_upper, xs


def test_cforest_implies_cparsimony_smoke():
    rng = random.Random(107)
    for _ in range(200):
        q = random_query(rng)
        if in_cforest(q):
            assert in_cparsimony(q).in_cparsimony


def test_oracle_bounds_are_attained_smoke():
    rng = random.Random(109)
    for q in acyclic_corpus(113, 25):
        full = make_free(q, q.bound_vars)
        db = random_instance(rng, q, max_repairs=64)
        answers = cqacount_oracle(full, q.free_vars, db)
        if not answers:
            continue
        counts_per_repair = []
        for repair in enumerate_repairs(db):
            from cqa.evaluate import count_by

            counts_per_repair.append(
                {c.group: c.count for c in count_by(full, q.free_vars, repair)}
            )
        for answer in answers:
            values = [c[answer.group] for c in counts_per_repair]
            assert len(values) == len(counts_per_repair)
            assert min(values) == answer.lower
            assert max(values) == answer.upper
