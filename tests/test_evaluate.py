import collections
import importlib
import itertools
import random

import pytest

import support
from generators import DOMAIN, cparsimony_corpus, random_instance, random_query
from cqa.attacks import attack_graph
from cqa.classify import CyclicAttackGraphError, in_cparsimony
from cqa.evaluate import (
    CountAnswer,
    EvaluationError,
    NotInCparsimonyError,
    RangeAnswer,
    certain_answers,
    count_by,
    cqacount_oracle,
    cqacount_parsimonious,
    evaluate,
    is_optimistic_repair,
    is_pessimistic_repair,
    range_answers_json,
    range_answers_tsv,
)
from cqa.errors import InputError, InternalError
from cqa.instances import (
    DEFAULT_REPAIR_CAP,
    DatabaseInstance,
    Fact,
    RepairSpaceOverflow,
    build_3dm_instance,
    enumerate_repairs,
    repair_count,
)
from cqa.queries import (
    Atom,
    ConjunctiveQuery,
    QueryError,
    RelationSignature,
    Term,
    make_free,
    parse_query,
    serialize_query,
    substitute,
)


def chain_full_query():
    return parse_query("q(z, x, y, v) :- R(x | y), S(y, v | z), T(y | v).")


def chain_repairs():
    db = support.chain_db()
    one, two = enumerate_repairs(db)
    if Fact("S", ("b2", "c2", "g1")) not in set(one.facts):
        one, two = two, one
    return db, one, two


def test_evaluate_chain_repair_one():
    _, r1, _ = chain_repairs()
    assert evaluate(chain_full_query(), r1).tuples == {
        ("g1", "a1", "b1", "c1"),
        ("g1", "a2", "b2", "c2"),
        ("g1", "a3", "b2", "c2"),
        ("g2", "a4", "b3", "c3"),
    }


def test_evaluate_widened_chain_on_full_db():
    db = support.chain_db()
    widened = make_free(support.chain_query(), ("x",))
    assert evaluate(widened, db).tuples == {
        ("g1", "a1"),
        ("g1", "a2"),
        ("g1", "a3"),
        ("g2", "a2"),
        ("g2", "a3"),
        ("g2", "a4"),
    }


def test_evaluate_empty_db():
    empty = DatabaseInstance(support.employee_db().schema.values())
    assert evaluate(support.employee_query(), empty).tuples == frozenset()


def test_evaluate_is_monotone_over_repairs():
    db = support.employee_db()
    q = support.employee_projection_query()
    everything = evaluate(q, db).tuples
    for repair in enumerate_repairs(db):
        assert evaluate(q, repair).tuples <= everything


def test_evaluate_handles_repeated_variables():
    q = parse_query("q(x) :- R(x | x).")
    db = DatabaseInstance(
        [parse_query("q(x) :- R(x | x).").atom("R").relation],
        [Fact("R", ("a", "a")), Fact("R", ("b", "c"))],
    )
    assert evaluate(q, db).tuples == {("a",)}


def test_evaluate_schema_mismatch():
    db = support.employee_db()
    with pytest.raises(EvaluationError):
        evaluate(parse_query("q(z) :- X(z | w)."), db)
    with pytest.raises(EvaluationError):
        evaluate(parse_query("q(z) :- E(x, y | z)."), db)  # wrong key width


def test_count_by_employee_naive():
    full = make_free(support.employee_query(), ("x", "y"))
    assert count_by(full, ("z",), support.employee_db()) == {
        CountAnswer(("A",), 4),
        CountAnswer(("B",), 3),
    }


def test_count_by_chain_repair_one():
    _, r1, _ = chain_repairs()
    assert count_by(chain_full_query(), ("z",), r1) == {
        CountAnswer(("g1",), 3),
        CountAnswer(("g2",), 1),
    }


def test_count_by_counts_are_positive():
    full = make_free(support.employee_query(), ("x", "y"))
    for answer in count_by(full, ("z",), support.employee_db()):
        assert answer.count >= 1


def test_group_counts_by_width():
    # distinct tuples per group of their first `width` values, counted by hand
    tuples = {("a", "x", "1"), ("a", "x", "2"), ("a", "y", "1"), ("b", "x", "1")}
    group_counts = evaluate_module._group_counts
    assert group_counts(tuples, 0) == {(): 4}
    assert group_counts(tuples, 1) == {("a",): 3, ("b",): 1}
    assert group_counts(tuples, 2) == {("a", "x"): 2, ("a", "y"): 1, ("b", "x"): 1}
    assert group_counts(set(), 1) == {}
    # the parsimonious route's group values, a single group value bare, one
    # per answer: every tuple certain under a whole-row key, and none under
    # the empty key, as the one block's facts disagree
    for text, all_certain in (("q(a, b, c) :- R(a, b, c).", True),
                              ("q(a, b, c) :- R( | a, b, c).", False)):
        q = parse_query(text)
        for width in (0, 1, 2, 3):
            for given in (tuples, set()):
                db = DatabaseInstance([q.atoms[0].relation], (Fact("R", t) for t in given))
                certain, other = evaluate_module._plain_and_certain(attack_graph(q), db, q.free_vars, width)
                counted, empty = (certain, other) if all_certain else (other, certain)
                counts = collections.Counter(counted)
                assert not [*empty], (text, width)
                assert dict(zip(zip(counts) if width == 1 else counts, counts.values())) == (
                    group_counts(given, width)
                ), (text, width)


def test_count_by_requires_full_query():
    with pytest.raises(EvaluationError):
        count_by(support.employee_query(), ("z",), support.employee_db())


def _employee_full():
    return make_free(support.employee_query(), ("x", "y"))


@pytest.mark.parametrize("call, error, message", [
    (lambda: count_by(_employee_full(), ("z", "z"), support.employee_db()), EvaluationError,
     "grouping variables ('z', 'z') must be distinct head variables"),
    (lambda: cqacount_oracle(_employee_full(), ("w",), support.employee_db()), EvaluationError,
     "grouping variables ('w',) must be distinct head variables"),
    (lambda: is_pessimistic_repair(support.mkdb({"E": (3, 1), "D": (2, 1)}, {}),
                                   support.employee_db(), support.employee_query(), ("A",)),
     EvaluationError, "candidate is not a repair of the instance"),
    (lambda: RelationSignature("R", 2, 3), QueryError, "relation R: key width 3 outside 0..2"),
    (lambda: Atom(RelationSignature("R", 2, 1), (Term.var("x"),)), QueryError,
     "atom R: 1 arguments for arity 2"),
    (lambda: support.employee_query().atom("F"), QueryError, "no atom for relation F"),
    (lambda: substitute(_employee_full(), ("z", "z"), ("A", "B")), QueryError,
     "duplicate variable in ('z', 'z')"),
    (lambda: build_3dm_instance([("a1", "b1")]), InputError,
     "triple ('a1', 'b1') does not have three coordinates"),
])
def test_input_errors_name_their_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_certain_answers_employee():
    got = certain_answers(support.employee_projection_query(), support.employee_db())
    assert got.tuples == {("Suzy", "A"), ("Lucy", "B")}


def test_certain_answers_chain():
    widened = make_free(support.chain_query(), ("x",))
    got = certain_answers(widened, support.chain_db())
    assert got.tuples == {("g1", "a1"), ("g2", "a4")}


def test_certain_answers_on_consistent_db_is_plain_eval():
    db = support.twin_lookup_dbs()[2]
    q = make_free(support.twin_lookup_query(), ("x",))
    assert certain_answers(q, db).tuples == evaluate(q, db).tuples


def test_certain_answers_block_fails_on_constant_mismatch():
    # Suzy's block mixes genders; the repair keeping M loses her, so the row
    # shows up in the plain answers but not in the certain ones
    db = support.mkdb(
        {"E": (3, 1), "D": (2, 1)},
        {
            "E": [("Suzy", "F", "HR"), ("Suzy", "M", "HR"), ("Lucy", "F", "MIS")],
            "D": [("HR", "A"), ("MIS", "B")],
        },
    )
    q = support.employee_projection_query()
    assert ("Suzy", "A") in evaluate(q, db).tuples
    assert certain_answers(q, db).tuples == {("Lucy", "B")}
    assert certain_answers(q, db).tuples == support.intersection_certain(q, db)


def test_certain_answers_with_repeated_key_variable():
    q = parse_query("q(y) :- R(x, x | y).")
    db = support.mkdb(
        {"R": (3, 2)},
        {"R": [("a", "a", "hit"), ("a", "b", "miss"), ("c", "c", "one"), ("c", "c", "two")]},
    )
    assert evaluate(q, db).tuples == {("hit",), ("one",), ("two",)}
    assert certain_answers(q, db).tuples == {("hit",)}
    assert certain_answers(q, db).tuples == support.intersection_certain(q, db)


def test_certain_answers_with_partly_bound_composite_key():
    # after z is bound, S(z, w | v) still has w unbound: some block under z
    # must have every fact certain at P, which S attacks
    q = parse_query("q(z) :- S(z, w | v), P(v | 'ok').")
    db = support.mkdb(
        {"S": (3, 2), "P": (2, 1)},
        {
            "S": [("a", "1", "r"), ("a", "2", "p"), ("a", "2", "q"),
                  ("b", "1", "p"), ("b", "1", "r"), ("c", "1", "p")],
            "P": [("p", "ok"), ("q", "ok"), ("r", "ok"), ("r", "no")],
        },
    )
    assert evaluate(q, db).tuples == {("a",), ("b",), ("c",)}
    assert certain_answers(q, db).tuples == {("a",), ("c",)}
    assert certain_answers(q, db).tuples == support.intersection_certain(q, db)


def test_certain_answers_with_probe_at_non_key_position():
    # the lookup shape: blocks of E that mix z values certify no group
    q = parse_query("q(z) :- E(x | z).")
    db = support.mkdb(
        {"E": (2, 1)},
        {"E": [("k1", "A"), ("k1", "B"), ("k2", "A"), ("k3", "B"), ("k3", "C"), ("k4", "D")]},
    )
    assert evaluate(q, db).tuples == {("A",), ("B",), ("C",), ("D",)}
    assert certain_answers(q, db).tuples == {("A",), ("D",)}
    assert certain_answers(q, db).tuples == support.intersection_certain(q, db)


def test_certain_answers_requires_acyclic_graph():
    q = support.mutual_attack_query()
    db = DatabaseInstance([a.relation for a in q.atoms])
    with pytest.raises(CyclicAttackGraphError):
        certain_answers(q, db)


def test_oracle_employee():
    full = make_free(support.employee_query(), ("x", "y"))
    assert cqacount_oracle(full, ("z",), support.employee_db()) == {
        RangeAnswer(("A",), 1, 3),
        RangeAnswer(("B",), 1, 3),
    }


def test_oracle_lookup_pair():
    q = support.lookup_pair_query()
    full = make_free(q, q.bound_vars)
    assert cqacount_oracle(full, ("z",), support.lookup_pair_db()) == {
        RangeAnswer(("c1",), 2, 2),
        RangeAnswer(("c2",), 1, 2),
    }


def test_oracle_twin_lookup_instances():
    q = support.twin_lookup_query()
    full = make_free(q, q.bound_vars)
    first, second, third = support.twin_lookup_dbs()
    assert cqacount_oracle(full, ("z",), first) == {RangeAnswer(("d",), 1, 2)}
    assert cqacount_oracle(full, ("z",), second) == {RangeAnswer(("d",), 2, 2)}
    assert cqacount_oracle(full, ("z",), third) == {RangeAnswer(("d",), 2, 2)}


def test_widened_projections_disagree_with_oracle_on_twin_lookup():
    # distinct-projection counts land on 3, 3, 1 while the tight uppers are 2
    q = support.twin_lookup_query()
    first, second, third = support.twin_lookup_dbs()
    assert len(evaluate(make_free(q, ("x",)), first).tuples) == 3
    assert len(evaluate(make_free(q, ("x", "y")), first).tuples) == 3
    assert len(evaluate(make_free(q, ("y",)), second).tuples) == 3
    assert len(evaluate(q, third).tuples) == 1


def test_oracle_matching_gadget():
    from cqa.instances import build_3dm_instance, threedm_query

    db = build_3dm_instance(support.MATCHING_TRIPLES)
    q = threedm_query()
    full = make_free(q, q.bound_vars)
    assert cqacount_oracle(full, ("z",), db) == {RangeAnswer(("c",), 1, 3)}


def test_oracle_ignores_conflicts_outside_the_query():
    # 21 two-fact blocks of an unused relation make 2**23 repairs in all,
    # over the default cap, but only the 4 repairs of E and D matter
    q = support.employee_query()
    base = support.employee_db()
    noise = RelationSignature("N", 2, 1)
    db = DatabaseInstance(
        [*base.schema.values(), noise],
        [*base.facts, *(Fact("N", (f"k{i}", v)) for i in range(21) for v in ("u", "v"))],
    )
    assert repair_count(db) > DEFAULT_REPAIR_CAP
    answer = cqacount_oracle(make_free(q, q.bound_vars), q.free_vars, db)
    assert answer == cqacount_parsimonious(q, db) == {
        RangeAnswer(("A",), 1, 3),
        RangeAnswer(("B",), 1, 3),
    }


def test_oracle_respects_cap():
    full = make_free(support.employee_query(), ("x", "y"))
    from cqa.instances import RepairSpaceOverflow

    with pytest.raises(RepairSpaceOverflow):
        cqacount_oracle(full, ("z",), support.employee_db(), cap=2)


def _oracle_instance(rng, q, max_space, dense=False):
    """One to three blocks per query relation (none for one relation in ten)
    of one to four members each, over a domain of one to four values, with
    at most `max_space` repairs of the query's relations; `dense` asks for
    the whole domain, three keys per relation and four members per block
    where they fit.  About a third also carry a relation N the query does
    not use, whose conflicting blocks alone make up to 2**13 repairs."""
    domain = DOMAIN if dense else DOMAIN[: rng.randint(1, 4)]
    sigs = [atom.relation for atom in q.atoms]
    facts, space = [], 1
    for sig in sigs:
        width = sig.arity - sig.key_width
        tries = 3 if dense else rng.randint(1, 3) if rng.random() < 0.9 else 0
        keys = {tuple(rng.choice(domain) for _ in range(sig.key_width)) for _ in range(tries)}
        for key in sorted(keys):
            most = min(4, len(domain) ** width, max_space // space)
            rest = rng.sample(list(itertools.product(domain, repeat=width)),
                              most if dense else rng.randint(1, most))
            space *= len(rest)
            facts += [Fact(sig.name, key + r) for r in rest]
    if rng.random() < 1 / 3:
        sigs.append(RelationSignature("N", 2, 1))
        facts += [Fact("N", (f"k{i}", v)) for i in range(rng.randint(1, 13)) for v in "uv"]
    return DatabaseInstance(sigs, facts), space


def test_oracle_equals_reference_on_random_pairs():
    # the oracle against the one it replaced, which builds an instance per
    # repair of the query's relations: answers, and the refusal at one
    # repair over the cap
    rng = random.Random(2029)
    seen = dict.fromkeys(
        ("empty body", "key width 0", "constant", "all-constant atom matches",
         "empty relation", "unused conflicts", "unused conflicts over the cap",
         "space over 1,000", "answered"), 0)
    for i in range(3000):
        big = i % 300 == 150  # redrawn until its space passes 1,000
        while True:
            if i % 100 == 0:
                q = ConjunctiveQuery(())
            else:
                q = random_query(rng, max_atoms=4, max_vars=5, const_prob=0.15)
            db, space = _oracle_instance(
                rng, q, 4096 if big else rng.choice((4, 16, 64, 256)), dense=big)
            if space > 1000 or not big:
                break
        full = make_free(q, q.bound_vars)
        want = support.reference_oracle(full, q.free_vars, db)
        assert cqacount_oracle(full, q.free_vars, db) == want, (serialize_query(q), db.facts)
        refusals = []
        for oracle in (cqacount_oracle, support.reference_oracle):
            with pytest.raises(RepairSpaceOverflow) as err:
                oracle(full, q.free_vars, db, cap=space - 1)
            refusals.append(str(err.value))
        assert refusals == [f"{space} repairs exceed the cap of {space - 1}"] * 2
        seen["empty body"] += not q.atoms
        seen["key width 0"] += any(a.relation.key_width == 0 for a in q.atoms)
        seen["constant"] += any(not t.is_var for a in q.atoms for t in a.args)
        seen["all-constant atom matches"] += any(
            not a.variables and Fact(a.name, tuple(t.symbol for t in a.args)) in db.facts
            for a in q.atoms)
        seen["empty relation"] += any(not db.relation_facts(a.name) for a in q.atoms)
        seen["unused conflicts"] += "N" in db.schema
        seen["unused conflicts over the cap"] += repair_count(db) > 4096
        seen["space over 1,000"] += space > 1000
        seen["answered"] += bool(want)
    assert min(seen.values()) >= 10, seen


def test_parsimonious_employee():
    assert cqacount_parsimonious(support.employee_query(), support.employee_db()) == {
        RangeAnswer(("A",), 1, 3),
        RangeAnswer(("B",), 1, 3),
    }


def test_parsimonious_chain():
    assert cqacount_parsimonious(support.chain_query(), support.chain_db()) == {
        RangeAnswer(("g1",), 1, 3),
        RangeAnswer(("g2",), 1, 3),
    }


def test_parsimonious_on_consistent_db_degenerates_to_plain_counts():
    _, r1, _ = chain_repairs()  # a repair is a consistent instance
    q = support.chain_query()
    counts = dict(
        (c.group, c.count) for c in count_by(make_free(q, q.bound_vars), ("z",), r1)
    )
    got = cqacount_parsimonious(q, r1)
    assert got == {RangeAnswer(g, n, n) for g, n in counts.items()}


def test_parsimonious_groups_are_the_certain_answers():
    rng = random.Random(131)
    for q, _ in cparsimony_corpus(137, 80):
        db = random_instance(rng, q, max_repairs=64)
        groups = {a.group for a in cqacount_parsimonious(q, db)}
        assert groups == certain_answers(q, db).tuples


@pytest.mark.parametrize("fault, bounds", [
    # each breaks one half of `1 <= m <= n` alone
    # every `Counter` built one short, the lower bounds and the copy of them
    # the upper bounds start from, on the instance: [c - 1, c - 2 + o] for
    # a group's c certain and o other plain answers
    ("tally", "[0, 1]"),
    # upper bounds from the other plain answers alone (the copy of the
    # lower bounds built empty), on a repair, where every plain answer is
    # certain
    ("alone", "[3, 0]"),
])
def test_parsimonious_inconsistent_bounds_are_internal_errors(monkeypatch, fault, bounds):
    counter, db = evaluate_module.Counter, support.employee_db()
    if fault == "tally":
        monkeypatch.setattr(evaluate_module, "Counter",
                            lambda groups: counter({g: n - 1 for g, n in counter(groups).items()}))
    else:
        monkeypatch.setattr(evaluate_module, "Counter",
                            lambda groups: counter(() if isinstance(groups, counter) else groups))
        db = next(enumerate_repairs(db))
    with pytest.raises(InternalError) as err:
        cqacount_parsimonious(support.employee_query(), db)
    assert str(err.value) == f"inconsistent parsimonious bounds {bounds} for group ('A',)"


def test_parsimonious_refuses_lookup_pair_with_certificate():
    with pytest.raises(NotInCparsimonyError) as err:
        cqacount_parsimonious(support.lookup_pair_query(), support.lookup_pair_db())
    assert "strong attack" in str(err.value)
    assert err.value.report.strong_attacks == (("R", "S"),)


def test_parsimonious_refuses_twin_lookup():
    with pytest.raises(NotInCparsimonyError):
        cqacount_parsimonious(support.twin_lookup_query(), support.twin_lookup_dbs()[0])


def test_parsimonious_route_skips_cforest_and_refuses_with_full_report(monkeypatch):
    # a refusal carries the full classification report, Cforest included,
    # and builds one attack graph, as an accepted call does
    # (`cqa.evaluate` as a dotted name is the re-exported function)
    evaluate_module = importlib.import_module("cqa.evaluate")
    built = []
    for module in (evaluate_module, importlib.import_module("cqa.classify")):
        monkeypatch.setattr(module, "attack_graph", lambda q: built.append(q) or attack_graph(q))
    for q in (support.lookup_pair_query(), support.twin_lookup_query(),
              support.mutual_attack_query()):
        db = DatabaseInstance((a.relation for a in q.atoms), [])
        built.clear()
        with pytest.raises(NotInCparsimonyError) as err:
            cqacount_parsimonious(q, db)
        assert len(built) == 1, serialize_query(q)
        assert err.value.report == in_cparsimony(q), serialize_query(q)

    # an accepted query never runs the Cforest test
    def no_cforest(q):
        raise AssertionError("in_cforest called")

    monkeypatch.setattr("cqa.classify.in_cforest", no_cforest)
    monkeypatch.setattr(evaluate_module, "in_cforest", no_cforest)
    got = cqacount_parsimonious(support.employee_query(), support.employee_db())
    assert got == {RangeAnswer(("A",), 1, 3), RangeAnswer(("B",), 1, 3)}


def test_certainty_plan_runs_no_join_and_tests_each_row_once(monkeypatch):
    # the certainty check reads the plain answers off its own walk, one pass
    # per relation: no join, and E's test runs once per E row on the widened
    # employee plan E (key-joined) -> D; the plans of q(a, b) :- R(a | x),
    # S(b | x) and of the same with a constant in R, whose first step fans
    # out, run no join either, and the second tests each R row once
    evaluate_module = importlib.import_module("cqa.evaluate")
    joins, tested = [], collections.Counter()
    join, scan = evaluate_module._join, evaluate_module._scan

    def counted_scan(atom):
        first, predicate = scan(atom)

        def counted(row):
            tested[atom.name] += 1
            return predicate(row)

        return first, predicate and counted

    monkeypatch.setattr(evaluate_module, "_join", lambda *args: joins.append(1) or join(*args))
    monkeypatch.setattr(evaluate_module, "_scan", counted_scan)
    rng = random.Random(2039)
    q = support.employee_query()
    employee = {"E": [(f"e{i}", "F" if rng.random() < 0.6 else "M", f"d{rng.randrange(25)}")
                      for i in range(250)],
                "D": [(f"d{i}", f"g{rng.randrange(8)}") for i in range(25)]}
    db = _scaled_instance(rng, q, employee)
    assert cqacount_parsimonious(q, db)
    assert (len(joins), tested["E"]) == (0, len(db.relation_facts("E")))
    forward = {"R": [(f"a{i}", f"x{i % 7}") for i in range(40)],
               "S": [(f"b{i}", f"x{i % 5}") for i in range(40)]}
    q = parse_query("q(a, b) :- R(a | x), S(b | x).")
    assert cqacount_parsimonious(q, _scaled_instance(rng, q, forward))
    assert len(joins) == 0
    forward["R"] = [(f"a{i}", f"x{i % 7}", "c" if i % 4 else "d") for i in range(40)]
    q = parse_query("q(a, b) :- R(a | x, 'c'), S(b | x).")
    db = _scaled_instance(rng, q, forward)
    assert evaluate_module._elimination_plan(support.attack_graph(q), q.free_vars)[0].fans
    assert cqacount_parsimonious(q, db)
    assert (len(joins), tested["R"]) == (0, len(db.relation_facts("R")))


def test_boolean_grouping_yields_single_answer():
    q = parse_query("q() :- E(x | 'F', y), D(y | z).")
    db = support.employee_db()
    full = make_free(q, q.bound_vars)
    oracle = cqacount_oracle(full, (), db)
    parsim = cqacount_parsimonious(q, db)
    assert oracle == parsim
    assert len(oracle) == 1 and next(iter(oracle)).group == ()


def test_optimistic_pessimistic_chain_matrix():
    db, r1, r2 = chain_repairs()
    widened = make_free(support.chain_query(), ("x",))
    assert is_optimistic_repair(r1, db, widened, ("g1",))
    assert is_pessimistic_repair(r1, db, widened, ("g2",))
    assert not is_optimistic_repair(r1, db, widened, ("g2",))
    assert not is_pessimistic_repair(r1, db, widened, ("g1",))
    assert is_optimistic_repair(r2, db, widened, ("g2",))
    assert is_pessimistic_repair(r2, db, widened, ("g1",))
    assert not is_optimistic_repair(r2, db, widened, ("g1",))
    assert not is_pessimistic_repair(r2, db, widened, ("g2",))


def test_repair_checks_on_consistent_db():
    db = support.twin_lookup_dbs()[2]
    q = make_free(support.twin_lookup_query(), ("x",))
    (only,) = enumerate_repairs(db)
    assert is_optimistic_repair(only, db, q, ("d",))
    assert is_pessimistic_repair(only, db, q, ("d",))


def test_repair_checks_reject_non_repairs():
    db, r1, _ = chain_repairs()
    widened = make_free(support.chain_query(), ("x",))
    broken = DatabaseInstance(db.schema.values(), r1.facts[1:])
    with pytest.raises(EvaluationError):
        is_optimistic_repair(broken, db, widened, ("g1",))


def test_pessimistic_repair_equals_answer_inclusion_on_random_pairs():
    # the check's answer against its definition: the pinned query evaluated
    # on the repair, inside the certain answers on the instance; the pinned
    # queries' elimination plans cover both a forward prefix and wholly
    # bottom-up plans
    rng = random.Random(2033)
    seen = dict.fromkeys(("pessimistic", "not pessimistic", "no answer on the repair",
                          "whole head pinned", "nothing pinned", "forward prefix",
                          "wholly bottom-up"), 0)
    for _ in range(1500):
        while True:
            q = random_query(rng, max_atoms=4, max_vars=5, const_prob=0.15)
            if q.free_vars and support.attack_graph(q).is_acyclic():
                break
        db = _certainty_instance(rng, q)
        plain = sorted(evaluate(q, db).tuples)
        width = rng.randint(0, len(q.free_vars))
        group = rng.choice(plain)[:width] if plain and rng.random() < 0.9 else tuple(
            rng.choice(DOMAIN) for _ in range(width))
        repair = DatabaseInstance(db.schema.values(),
                                  [rng.choice(block.members) for block in db.blocks()])
        fixed = substitute(q, q.free_vars[:width], group)
        on_repair = evaluate(fixed, repair).tuples
        want = on_repair <= certain_answers(fixed, db).tuples
        assert is_pessimistic_repair(repair, db, q, group) == want, (
            serialize_query(q), group, db.facts, repair.facts)
        seen["pessimistic" if want else "not pessimistic"] += 1
        seen["no answer on the repair"] += not on_repair
        seen["whole head pinned"] += width == len(q.free_vars)
        seen["nothing pinned"] += width == 0
        forward = "forward" in _plan_shape(fixed, support.attack_graph(fixed))
        seen["forward prefix" if forward else "wholly bottom-up"] += 1
    assert min(seen.values()) >= 50, seen


def test_range_answer_emission():
    answers = [RangeAnswer(("B",), 1, 3), RangeAnswer(("A",), 1, 3)]
    assert range_answers_tsv(answers) == "A\t1\t3\nB\t1\t3"
    assert range_answers_tsv([RangeAnswer(("a\\b", "c\rd"), 1, 2)]) == "a\\\\b\tc\\rd\t1\t2"
    assert range_answers_json(answers) == [
        {"group": ["A"], "m": 1, "n": 3},
        {"group": ["B"], "m": 1, "n": 3},
    ]


def test_projection_extension_unique_on_consistent_instances():
    # with an id-set in the head, consistent data never produces two answers
    # sharing the same (group, id-set) projection
    rng = random.Random(67)
    corpus = cparsimony_corpus(101, 40)
    for q, report in corpus:
        full = make_free(q, q.bound_vars)
        nz = len(q.free_vars)
        nx = len(report.id_set or ())
        for _ in range(2):
            db = random_instance(rng, q, max_repairs=1)
            assert db.is_consistent()
            seen = {}
            order = q.free_vars + tuple(report.id_set or ()) + tuple(
                v for v in full.free_vars if v not in q.free_vars + (report.id_set or ())
            )
            for t in evaluate(full, db).tuples:
                byvar = dict(zip(full.free_vars, t))
                key = tuple(byvar[v] for v in order[: nz + nx])
                rest = tuple(byvar[v] for v in order[nz + nx :])
                assert seen.setdefault(key, rest) == rest


evaluate_module = importlib.import_module("cqa.evaluate")


def _join_instance(rng, q):
    """Up to eight facts per relation (sometimes none) over a domain of one to
    four values, so joins both succeed and die part-way."""
    domain = DOMAIN[: rng.randint(1, 4)]
    facts = [
        Fact(atom.name, tuple(rng.choice(domain) for _ in range(atom.relation.arity)))
        for atom in q.atoms
        for _ in range(rng.choice((0, 1, 2, 4, 8)))
    ]
    return DatabaseInstance((a.relation for a in q.atoms), facts)


def test_evaluate_equals_naive_join_on_random_pairs():
    # the compiled join over fact rows (`evaluate`, `count_by`), against the
    # query-order join; a step's index key is a bare value when it binds one
    # earlier variable, a tuple for several, and absent for none
    rng = random.Random(2027)
    seen = dict.fromkeys(
        ("key constant", "non-key constant", "repeated variable", "key width 0",
         "empty relation", "disjoint atoms", "join dies", "later step binds no earlier variable",
         "step binds one earlier variable", "step binds several earlier variables",
         "atom with two or more constants and no repeated variable"), 0)
    for _ in range(2400):
        q = random_query(rng, max_atoms=5, max_vars=5, const_prob=0.15)
        db = _join_instance(rng, q)
        shared, bound = [], set()  # per step of the join order, its variables bound earlier
        for step in evaluate_module._compile_join(q.atoms, q.free_vars).steps:
            shared.append(min(len(step.atom.variables & bound), 2))
            bound |= step.atom.variables
        seen["later step binds no earlier variable"] += 0 in shared[1:]
        seen["step binds one earlier variable"] += 1 in shared
        seen["step binds several earlier variables"] += 2 in shared
        want = support.naive_evaluate(q, db)
        assert evaluate(q, db) == want, (serialize_query(q), db.facts)
        full = make_free(q, q.bound_vars)
        naive = collections.Counter(
            t[: len(q.free_vars)] for t in support.naive_evaluate(full, db).tuples)
        counts = count_by(full, q.free_vars, db)
        assert counts == {CountAnswer(g, n) for g, n in naive.items()}, (
            serialize_query(q), db.facts)
        seen["key constant"] += any(not t.is_var for a in q.atoms for t in a.key_args)
        seen["non-key constant"] += any(not t.is_var for a in q.atoms for t in a.nonkey_args)
        seen["repeated variable"] += any(
            sum(t.is_var for t in a.args) > len(a.variables) for a in q.atoms)
        seen["atom with two or more constants and no repeated variable"] += any(
            sum(not t.is_var for t in a.args) >= 2 and sum(t.is_var for t in a.args) == len(a.variables)
            for a in q.atoms)
        seen["key width 0"] += any(a.relation.key_width == 0 for a in q.atoms)
        empty = any(not db.relation_facts(a.name) for a in q.atoms)
        seen["empty relation"] += empty
        seen["disjoint atoms"] += any(
            not a.variables & b.variables for a, b in itertools.combinations(q.atoms, 2))
        seen["join dies"] += not want.tuples and not empty
    assert min(seen.values()) >= 50, seen


def _certainty_cases(q, db, graph, candidates):
    """The edge cases the certainty check meets on this pair, found by walking
    every binding it can reach with binding dicts, apart from the code under
    test: per elimination step, the shape of its key when some binding
    reaches it, and at steps whose key is bound, what the block under the
    binding's key holds."""
    cases = set()
    order = [q.atom(name) for name in graph.topological_order()]
    if not order:
        cases.add("empty plan")
    todo = [(0, dict(zip(q.free_vars, c))) for c in candidates]
    done = set()
    while todo:
        i, binding = todo.pop()
        if i == len(order) or (i, tuple(sorted(binding.items()))) in done:
            continue
        done.add((i, tuple(sorted(binding.items()))))
        atom = order[i]
        if not all(not t.is_var or t.symbol in binding for t in atom.key_args):
            cases.add("unbound key")
            blocks = [b.members for b in db.blocks() if b.relation == atom.name]
        else:
            key_vars = [t.symbol for t in atom.key_args if t.is_var]
            cases.add("key width 0" if not atom.key_args else "bound key")
            if len(key_vars) < len(atom.key_args):
                cases.add("constant in a bound key")
            if len(set(key_vars)) < len(key_vars):
                cases.add("repeated key variable")
            key = tuple(binding[t.symbol] if t.is_var else t.symbol for t in atom.key_args)
            blocks = [db.block(atom.name, key)]
            if not blocks[0]:
                cases.add("no block under the key")
            elif any(support._unify(atom, f, {}) is None for f in blocks[0]):
                cases.add("fact fails the atom")
            elif any(support._unify(atom, f, binding) is None for f in blocks[0]):
                cases.add("bound non-key variable disagrees")
        for members in blocks:
            bindings = [support._unify(atom, f, binding) for f in members]
            if members and None not in bindings:
                todo += [(i + 1, b) for b in bindings]
    return cases


def _certainty_instance(rng, q):
    """The facts of one to three random valuations of the query, so that it
    has plain answers, plus a random fact or two per relation and, in about
    half the blocks with a non-key position, one more member; both draw
    over a domain of two to four values and a value that no valuation
    gives, so that later steps meet keys with no block."""
    domain = DOMAIN[: rng.randint(2, 4)]
    facts = set()
    for _ in range(rng.randint(1, 3)):
        value = {v: rng.choice(domain) for v in sorted(q.variables)}
        facts |= {Fact(a.name, tuple(value.get(t.symbol, t.symbol) for t in a.args))
                  for a in q.atoms}
    noise = domain + ("e",)
    for atom in q.atoms:
        facts |= {Fact(atom.name, tuple(rng.choice(noise) for _ in range(atom.relation.arity)))
                  for _ in range(rng.randint(0, 2))}
    db = DatabaseInstance((a.relation for a in q.atoms), facts)
    for block in db.blocks():
        sig = db.schema[block.relation]
        if sig.arity > sig.key_width and rng.random() < 0.5:
            rest = tuple(rng.choice(noise) for _ in range(sig.arity - sig.key_width))
            facts.add(Fact(block.relation, block.key_values + rest))
    return DatabaseInstance(db.schema.values(), facts)


def _plan_shape(q, graph):
    """Per elimination level, from the atoms' variables and keys alone:
    "free" when every variable bound before it that it or a later level
    reads is one of its own, "joined" when some is not and the next atom's
    key variables all occur in it, and "forward" otherwise; the levels
    before the last "forward" one are "forward" too."""
    order = [q.atom(name) for name in graph.topological_order()]
    bound, shape = set(q.free_vars), []
    for i, atom in enumerate(order):
        reads = bound & set().union(*(a.variables for a in order[i:]))
        if reads <= atom.variables:
            shape.append("free")
        elif i + 1 < len(order) and order[i + 1].key_vars <= atom.variables:
            shape.append("joined")
        else:
            shape.append("forward")
        bound |= atom.variables
    if "forward" in shape:
        last = len(shape) - shape[::-1].index("forward")
        shape[:last] = ["forward"] * last
    return shape


def _bottom_up_cases(q, db, graph, plain):
    """The edge cases of a wholly bottom-up plan on this pair, from every
    embedding of the body in `db` (per elimination level, its fact and the
    whole valuation), checked against the plain answers `plain`: a fact of
    some embedding whose block also holds a fact that fails the atom or
    gives another value to a variable of the level's read, and a fact of a
    key-joined level that meets two or more facts of the next atom's block
    in embeddings."""
    shape = _plan_shape(q, graph)
    if not shape or "forward" in shape:
        return set()
    order = [q.atom(name) for name in graph.topological_order()]
    embeddings = [((), {})]
    for atom in order:
        embeddings = [(facts + (f,), b) for facts, binding in embeddings
                      for f in db.relation_facts(atom.name)
                      if (b := support._unify(atom, f, binding)) is not None]
    assert {tuple(b[v] for v in q.free_vars) for _, b in embeddings} == plain
    cases, bound = set(), set(q.free_vars)
    for i, (atom, level) in enumerate(zip(order, shape)):
        read = bound & set().union(*(a.variables for a in order[i:])) & atom.variables
        bound |= atom.variables
        meets = collections.defaultdict(set)  # fact at this level -> facts at the next
        for facts, binding in embeddings:
            own = {v: binding[v] for v in read}
            key = facts[i].values[:atom.relation.key_width]
            if any(support._unify(atom, g, own) is None for g in db.block(atom.name, key)):
                cases.add("plain through an unusable block")
            if level == "joined":
                meets[facts[i]].add(facts[i + 1])
        if any(len(nexts) > 1 for nexts in meets.values()):
            cases.add("key-joined fan-out")
    return cases


def _partition_cases(q, db, graph):
    """The cases of the walk's two parts on this pair, from the blocks alone,
    at each level after the last "forward" one: its relation holds both
    single-fact and conflicting blocks, and a conflicting block's facts all
    fit the atom but give the atom's variables of the level's read two or
    more values."""
    order = [q.atom(name) for name in graph.topological_order()]
    cases, bound = set(), set(q.free_vars)
    for i, (atom, level) in enumerate(zip(order, _plan_shape(q, graph))):
        read = sorted(bound & set().union(*(a.variables for a in order[i:])) & atom.variables)
        bound |= atom.variables
        if level == "forward":
            continue
        sizes = set()
        for block in (b for b in db.blocks() if b.relation == atom.name):
            sizes.add(len(block.members) > 1)
            fits = [support._unify(atom, f, {}) for f in block.members]
            if len(fits) > 1 and None not in fits and len(
                    {tuple(b[v] for v in read) for b in fits}) > 1:
                cases.add("conflicting block fits but disagrees on the read")
        if sizes == {False, True}:
            cases.add("walked relation with single and conflicting blocks")
    return cases


def _fan_out_cases(q, db, graph):
    """The case the intersection decides on this pair, from the atoms and the
    reference alone: at a "forward" level, a block of two or more facts that
    all fit the atom, where the facts' sets of the level's reads differ.  A
    fact's reads are its values with each certain answer of the later atoms
    that agrees with it, the variables those atoms read from earlier levels
    and this one made free."""
    order = [q.atom(name) for name in graph.topological_order()]
    bound = set(q.free_vars)
    for i, (atom, level) in enumerate(zip(order, _plan_shape(q, graph))):
        if level != "forward":
            break
        read = sorted(bound & set().union(*(a.variables for a in order[i:])))
        bound |= atom.variables
        blocks = [b.members for b in db.blocks() if b.relation == atom.name and len(b.members) > 1
                  and all(support._unify(atom, f, {}) is not None for f in b.members)]
        if not blocks:
            continue
        rest = order[i + 1:]
        after = tuple(sorted(bound & set().union(*(a.variables for a in rest))))
        later = ConjunctiveQuery(tuple(rest), after)
        certain = support.reference_plain_and_certain(later, db, support.attack_graph(later))[1]
        for facts in blocks:
            sets = {frozenset(tuple(b[v] for v in read) for r in certain
                              if (b := support._unify(atom, f, dict(zip(after, r)))) is not None)
                    for f in facts}
            if len(sets) > 1:
                return {"fan-out block decided by the intersection"}
    return set()


def _repeat_cases(q, db, graph):
    """The case where the walk's first step can give one read twice on this
    pair, from the atoms and blocks alone: in a plan with no "forward"
    level, the first atom of the elimination order has a key variable
    outside the head, and facts of two of its blocks lie in embeddings of
    the body with one answer."""
    order = [q.atom(name) for name in graph.topological_order()]
    if not order or order[0].key_vars <= set(q.free_vars) or "forward" in _plan_shape(q, graph):
        return set()
    width = order[0].relation.key_width
    partial = {(f.values[:width], tuple(b.items())) for f in db.relation_facts(order[0].name)
               if (b := support._unify(order[0], f, {})) is not None}
    for atom in order[1:]:
        partial = {(key, tuple(c.items())) for key, b in partial
                   for f in db.relation_facts(atom.name)
                   if (c := support._unify(atom, f, dict(b))) is not None}
    keys = collections.defaultdict(set)  # answer -> the first atom's blocks giving it
    for key, b in partial:
        b = dict(b)
        keys[tuple(b[v] for v in q.free_vars)].add(key)
    if any(len(blocks) > 1 for blocks in keys.values()):
        return {"first read lacks part of its atom's key and two blocks give one answer"}
    return set()


def _last_step_cases(q, db, graph):
    """The cases of the walk's last step on this pair, from the atoms and
    blocks alone: the last atom of the elimination order has each of its
    variables in the head or an earlier atom, and a block of two or more
    facts that fit it; or it has some variable in neither, and a block of
    two or more facts that all fit it and agree on the others."""
    order = [q.atom(name) for name in graph.topological_order()]
    if not order:
        return set()
    last = order[-1]
    read = sorted(last.variables & set(q.free_vars).union(*(a.variables for a in order[:-1])))
    width = last.relation.key_width
    blocks = collections.defaultdict(list)  # key -> per fact, its read, None when it does not fit
    for f in db.relation_facts(last.name):
        b = support._unify(last, f, {})
        blocks[f.values[:width]].append(None if b is None else tuple(b[v] for v in read))
    if len(read) == len(last.variables):
        if any(len(reads) - reads.count(None) >= 2 for reads in blocks.values()):
            return {"last step reads every variable of its atom, with a conflicting block"}
    elif any(len(reads) >= 2 and None not in reads and len({*reads}) == 1
             for reads in blocks.values()):
        return {"last step leaves a variable unread, and a conflicting block agrees on its read"}
    return set()


def _split_equals_reference(q, db, graph, context):
    """`_plain_and_certain` on this pair: its certain answers, and their
    union with its other plain answers, equal the reference's, and neither
    collection repeats an answer or holds one of the other.  Returns the
    reference's plain and certain answers, whose plan takes its order from
    the reference attack graph of the query `graph` was built for."""
    order = support.reference_attack_graph(graph.query)
    plain, certain = want = support.reference_plain_and_certain(q, db, order)
    got, other = evaluate_module._plain_and_certain(graph, db, q.free_vars)
    sure, rest = {*got}, {*other}
    assert (len(sure), len(rest)) == (len(got), len(other)), context  # no answer twice
    assert sure.isdisjoint(rest), context
    assert (sure | rest, sure) == (plain, certain), context
    return want


def _key_joined_query(rng):
    """A chain R1(x1 | x2), R2(x2 | x3), ... of two or three atoms ending in
    w, with s at a non-key position of two or more atoms and both free (x1
    too, at times): each level passes w through from the next level's entry
    and shares s with it beside the next key."""
    n = rng.randint(2, 3)
    chain = [f"x{i}" for i in range(1, n + 1)] + ["w"]
    with_s = rng.sample(range(n), rng.randint(2, n))
    atoms = []
    for i in range(n):
        rest = [chain[i + 1], "s"] if i in with_s else [chain[i + 1]]
        rng.shuffle(rest)
        args = tuple(map(Term.var, [chain[i], *rest]))
        atoms.append(Atom(RelationSignature(f"R{i + 1}", len(args), 1), args))
    return ConjunctiveQuery(tuple(atoms), ("w", "s", "x1") if rng.random() < 0.3 else ("w", "s"))


def _covering_instance(rng, q):
    """One or two members in every block of every key over {a, b}, also over {a, b}."""
    facts = []
    for sig in (atom.relation for atom in q.atoms):
        rests = list(itertools.product("ab", repeat=sig.arity - sig.key_width))
        for key in itertools.product("ab", repeat=sig.key_width):
            picked = rng.sample(rests, rng.randint(1, min(2, len(rests))))
            facts += [Fact(sig.name, key + rest) for rest in picked]
    return DatabaseInstance((a.relation for a in q.atoms), facts)


def _random_pairs():
    """The seeded pairs of the certainty gates: 3,500 queries with acyclic
    attack graphs as they are, widened by their id-set when in Cparsimony
    (`how` is "widened"), and with random bound variables made free ("made
    free"); the last 500 are key-joined chains over every key, where a step
    shares more than the key.  Yields `(q, db, graph, how)`, `graph` being
    the attack graph of the query before widening."""
    rng = random.Random(2031)
    for i in range(3500):
        while True:
            if i % 50 == 0:
                q = ConjunctiveQuery(())
            elif i >= 3000:
                q = _key_joined_query(rng)
            else:
                q = random_query(rng, max_atoms=5, max_vars=5, const_prob=0.15)
            if q.atoms and rng.random() < 0.1:  # one more atom with key width 0
                k = rng.randrange(len(q.atoms))
                atom = q.atoms[k]
                keyless = Atom(RelationSignature(atom.name, atom.relation.arity, 0), atom.args)
                q = ConjunctiveQuery(q.atoms[:k] + (keyless,) + q.atoms[k + 1:], q.free_vars)
            graph = support.attack_graph(q)
            if graph.is_acyclic():
                break
        how = None
        if i % 3 == 1 and (report := in_cparsimony(q)).in_cparsimony:
            q, how = make_free(q, report.id_set or ()), "widened"
        elif i % 3 == 2 and q.bound_vars:
            q = make_free(q, rng.sample(q.bound_vars, rng.randint(1, len(q.bound_vars))))
            how = "made free"
        if i >= 3000:
            db = _covering_instance(rng, q)
        else:
            db = _oracle_instance(rng, q, 64)[0] if i % 4 == 3 else _certainty_instance(rng, q)
        yield q, db, graph, how


def test_plain_and_certain_equals_reference_on_random_pairs():
    # the certainty check against the shared-scan one it replaced, on the
    # seeded pairs of `_random_pairs`; the certain answers and the other
    # plain answers come as two collections that repeat no answer and share
    # none
    seen = dict.fromkeys(
        ("bound key", "constant in a bound key", "repeated key variable", "key width 0",
         "unbound key", "no block under the key", "fact fails the atom",
         "bound non-key variable disagrees", "empty plan", "widened", "made free", "certain",
         "not certain", "wholly bottom-up", "forward prefix", "key-joined level",
         "forward step with a fixed key", "plain through an unusable block",
         "key-joined fan-out", "walked relation with single and conflicting blocks",
         "conflicting block fits but disagrees on the read", "key-joined on one shared variable",
         "key-joined on two or more shared variables",
         "fan-out block decided by the intersection",
         "first read lacks part of its atom's key and two blocks give one answer",
         "fact holds a whole next read of two or more values",
         "step that does not fan before a step that does",
         "last step reads every variable of its atom, with a conflicting block",
         "last step leaves a variable unread, and a conflicting block agrees on its read"), 0)
    for q, db, graph, how in _random_pairs():
        if how:
            seen[how] += 1
        want = _split_equals_reference(q, db, graph, (serialize_query(q), db.facts))
        for case in _certainty_cases(q, db, graph, want[0]):
            seen[case] += 1
        seen["certain"] += bool(want[1])
        seen["not certain"] += bool(want[0] - want[1])
        shape = _plan_shape(q, graph)
        seen["wholly bottom-up"] += bool(shape) and "forward" not in shape
        seen["forward prefix"] += "forward" in shape
        seen["key-joined level"] += "joined" in shape
        bound, fixed = set(q.free_vars), False  # by the head, then by earlier levels
        order, joined = [q.atom(name) for name in graph.topological_order()], set()
        fans, whole = [], False  # per level: does it fan; some fact holds a whole next read
        for k, (atom, level) in enumerate(zip(order, shape)):
            fixed |= level == "forward" and atom.key_vars <= bound
            later = set().union(*(a.variables for a in order[k + 1:]))
            # its read has a variable it lacks and it does not fix the next
            # key: "forward" as `_plan_shape` decides it, before carrying it back
            fans.append(k + 1 < len(order) and not (bound & (atom.variables | later)) <= atom.variables
                        and not order[k + 1].key_vars <= atom.variables)
            bound |= atom.variables
            after = bound & later  # the next read
            whole |= len(after) >= 2 and after <= atom.variables
            if level == "joined":  # walked: no "joined" level comes before a "forward" one
                # what the atom shares with the next read: its variables that later atoms read
                shared = atom.variables & later
                joined.add(min(len(shared), 2))
        seen["forward step with a fixed key"] += fixed
        seen["fact holds a whole next read of two or more values"] += whole
        seen["step that does not fan before a step that does"] += any(
            fanning and False in fans[:k] for k, fanning in enumerate(fans))
        seen["key-joined on one shared variable"] += 1 in joined
        seen["key-joined on two or more shared variables"] += 2 in joined
        for case in (_bottom_up_cases(q, db, graph, want[0]) | _partition_cases(q, db, graph)
                     | _fan_out_cases(q, db, graph) | _repeat_cases(q, db, graph)
                     | _last_step_cases(q, db, graph)):
            seen[case] += 1
    assert min(seen.values()) >= 50, seen


def _scaled_instance(rng, q, rows):
    """The facts in `rows` (relation -> list of rows, one per key) plus, in
    10-25% of the blocks of each relation, one more member that moves one
    non-key value to "G" or another value the relation holds there."""
    share = rng.uniform(0.1, 0.25)
    facts = set()
    for name, members in rows.items():
        width = q.atom(name).relation.key_width
        values = [sorted({row[i] for row in members} | {"G"}) for i in range(len(members[0]))]
        facts |= {Fact(name, row) for row in members}
        for row in members:
            if rng.random() < share:
                i = rng.randrange(width, len(row))
                value = rng.choice([v for v in values[i] if v != row[i]])
                facts.add(Fact(name, row[:i] + (value,) + row[i + 1:]))
    return DatabaseInstance((a.relation for a in q.atoms), facts)


def _scale_pairs():
    """Pairs whose blocks number in the hundreds, each query widened to its
    id-set as the parsimonious route does: the employee and lookup shapes;
    a chain whose plan joins two levels on the next key in a row; the
    forward query, whose first level fans out, its facts meeting several
    certain reads of the next level under one shared value; and a query
    that joins on a two-variable key, then on a bare one.  Yields `(text,
    wide, db, graph, shape)`: the query's text, the widened query, the
    instance, the attack graph of the query and the expected plan shape."""
    rng = random.Random(2037)
    employees, depts = 800, 90
    employee = {
        "E": [(f"e{i}", "F" if rng.random() < 0.9 else "P", f"d{rng.randrange(depts + 5)}")
              for i in range(employees)],
        "D": [(f"d{i}", f"m{rng.randrange(depts // 3)}") for i in range(depts)],
    }
    lookup = {"E": [(f"k{i}", f"v{rng.randrange(100)}") for i in range(500)]}
    chain = {
        "A": [(f"x{i}", f"y{rng.randrange(220)}") for i in range(300)],
        "B": [(f"y{i}", f"z{rng.randrange(160)}") for i in range(200)],
        "C": [(f"z{i}", f"w{rng.randrange(60)}") for i in range(150)],
    }
    # 800 keys a side over 131 values of x, about six per value; drawn without
    # `rng`, so the cases before keep their instances
    forward = {"R": [(f"a{i}", f"x{i * 7 % 131}") for i in range(800)],
               "S": [(f"b{i}", f"x{i * 11 % 131}") for i in range(800)]}
    # A meets B on the pair (y, v), 205 of them over 41 x 5 values, and B
    # meets C on z alone; also drawn without `rng`
    pairs = {"A": [(f"x{i}", f"y{i * 7 % 41}", f"v{i % 5}") for i in range(300)],
             "B": [(f"y{i % 41}", f"v{i % 5}", f"z{i * 3 % 160}") for i in range(200)],
             "C": [(f"z{i}", f"w{i * 13 % 60}") for i in range(150)]}
    cases = [("q(z) :- E(x | 'F', y), D(y | z).", employee, ["joined", "free"]),
             ("q(z) :- E(x | z).", lookup, ["free"]),
             ("q(w) :- A(x | y), B(y | z), C(z | w).", chain, ["joined", "joined", "free"]),
             ("q(a, b) :- R(a | x), S(b | x).", forward, ["forward", "free"]),
             ("q(w) :- A(x | y, v), B(y, v | z), C(z | w).", pairs, ["joined", "joined", "free"])]
    for text, rows, shape in cases:
        q = parse_query(text)
        graph = support.attack_graph(q)
        yield text, make_free(q, in_cparsimony(q).id_set), _scaled_instance(rng, q, rows), graph, shape


def test_plain_and_certain_equals_reference_at_benchmark_scale():
    # the gate draws a few facts per relation; here blocks number in the
    # hundreds (see `_scale_pairs`)
    for text, wide, db, graph, shape in _scale_pairs():
        assert _plan_shape(wide, graph) == shape, text
        plain, certain = _split_equals_reference(wide, db, graph, text)
        assert len(certain) > 50 and len(plain - certain) > 50, (text, len(plain), len(certain))


def _walk_groups(q, db, graph, width):
    """The group values, the first `width` values of each answer (bare at
    width 1), of the certain answers and of the other plain answers that
    the certainty check gives for `q`."""
    return evaluate_module._plain_and_certain(graph, db, q.free_vars, width)


def test_group_counts_equal_reference_at_every_width():
    # the per-group counts of the certain answers and of the plain answers,
    # taken off the certainty check's group values at every width from 0 to
    # the head's, against the shared-scan check's answers counted by the
    # frozen `_tally`, on the random pairs and at benchmark scale
    seen = dict.fromkeys(("first step holds", "first step does not hold", "fan-out",
                          "no fan-out", "width 0", "width 1", "width 2 or more"), 0)
    pairs = [(q, db, graph) for q, db, graph, _ in _random_pairs()]
    pairs += [(wide, db, graph) for _, wide, db, graph, _ in _scale_pairs()]
    for q, db, graph in pairs:
        order = support.reference_attack_graph(graph.query)
        plain, certain = support.reference_plain_and_certain(q, db, order)
        plan = evaluate_module._elimination_plan(graph, q.free_vars)
        cases = ["fan-out" if any(step.fans for step in plan) else "no fan-out"]
        if plan:
            cases.append("first step holds" if plan[0].holds else "first step does not hold")
        for width in range(len(q.free_vars) + 1):
            lower = support._tally(certain, width)
            upper = support._tally(plain - certain, width, lower)
            sure, other = map(collections.Counter, _walk_groups(q, db, graph, width))
            assert (sure, sure + other) == (lower, upper), (serialize_query(q), width, db.facts)
            for case in (*cases, f"width {width}" if width < 2 else "width 2 or more"):
                seen[case] += 1
    assert min(seen.values()) >= 50, seen
