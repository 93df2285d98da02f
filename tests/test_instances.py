import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import pytest

import support
from generators import random_instance, random_query
from cqa.classify import in_cparsimony
from cqa.errors import InputError
from cqa.evaluate import RangeAnswer, cqacount_oracle, cqacount_parsimonious
from cqa.instances import (
    Block,
    DatabaseInstance,
    Fact,
    RepairSpaceOverflow,
    SchemaError,
    build_3dm_instance,
    enumerate_repairs,
    is_repair_of,
    load_bundle,
    repair_count,
    save_bundle,
    threedm_query,
)
from cqa.queries import RelationSignature, make_free, parse_query


def test_blocks_of_employee_db():
    db = support.employee_db()
    per_relation = {}
    for block in db.blocks():
        per_relation.setdefault(block.relation, []).append(block)
    assert len(per_relation["E"]) == 4
    assert len(per_relation["D"]) == 3
    sizes = {(b.relation, b.key_values): len(b.members) for b in db.blocks()}
    assert sizes[("E", ("Anny",))] == 2
    assert sizes[("D", ("IT",))] == 2
    assert all(n == 1 for key, n in sizes.items() if key not in {("E", ("Anny",)), ("D", ("IT",))})


def test_blocks_of_chain_db():
    db = support.chain_db()
    s_blocks = [b for b in db.blocks() if b.relation == "S"]
    assert len(s_blocks) == 3
    assert {b.key_values: len(b.members) for b in s_blocks}[("b2", "c2")] == 2


def test_consistency():
    assert not support.employee_db().is_consistent()
    assert DatabaseInstance([RelationSignature("R", 2, 1)]).is_consistent()
    for repair in enumerate_repairs(support.employee_db()):
        assert repair.is_consistent()


def test_parts_put_each_row_in_one_part_in_key_order():
    # single-fact blocks give their rows, blocks of two or more facts stay
    # whole; both in key order, and repair_count and is_consistent read off
    # the conflicting part alone
    sigs = [RelationSignature("Whole", 2, 0), RelationSignature("Full", 2, 2),
            RelationSignature("Empty", 2, 1), RelationSignature("Clash", 2, 1),
            RelationSignature("Mixed", 3, 1)]
    facts = [Fact("Whole", row) for row in (("b", "a"), ("a", "b"), ("a", "a"))]
    facts += [Fact("Full", row) for row in (("b", "a"), ("a", "b"), ("a", "a"))]
    facts += [Fact("Clash", row) for row in (("b", "x"), ("a", "y"), ("a", "x"), ("b", "y"))]
    facts += [Fact("Mixed", row) for row in (("c", "x", "1"), ("a", "x", "1"), ("b", "y", "2"),
                                             ("a", "x", "2"), ("d", "z", "3"))]
    db = DatabaseInstance(sigs, facts)
    assert db._parts == {
        "Clash": ((), ((("a", "x"), ("a", "y")), (("b", "x"), ("b", "y")))),
        "Empty": ((), ()),
        "Full": ((("a", "a"), ("a", "b"), ("b", "a")), ()),
        "Mixed": ((("b", "y", "2"), ("c", "x", "1"), ("d", "z", "3")),
                  ((("a", "x", "1"), ("a", "x", "2")),)),
        "Whole": ((), ((("a", "a"), ("a", "b"), ("b", "a")),)),
    }
    assert repair_count(db) == 2 * 2 * 2 * 3 and not db.is_consistent()
    rng = random.Random(73)
    for _ in range(200):
        db = random_instance(rng, random_query(rng), max_repairs=1 << 8)
        assert db._parts.keys() == db.schema.keys()
        for name, (singles, conflicts) in db._parts.items():
            key = itemgetter(slice(db.schema[name].key_width))
            size = Counter(map(key, db._rows[name]))
            assert sorted([*singles, *(row for rows in conflicts for row in rows)]) == [
                *db._rows[name]]
            assert all(size[key(row)] == 1 for row in singles)
            for rows in conflicts:
                assert len({*map(key, rows)}) == 1 and len(rows) == size[key(rows[0])] > 1
            firsts = [*map(key, singles)], [key(rows[0]) for rows in conflicts]
            assert all(keys == sorted(keys) for keys in firsts)
        for repair in enumerate_repairs(db):
            assert repair.is_consistent() and repair_count(repair) == 1


def test_count_keeps_little_memory_above_the_rows_on_a_lookup_bundle(tmp_path):
    # the instance keeps one derived form, the partition: a reference per
    # single-fact row and a tuple per conflicting block, about 10% of the
    # rows' own size here (49,500 rows, one key in ten in conflict); a
    # key -> rows map on top of it kept 89%
    rng = random.Random(5)
    text = "".join(f"k{i},z{rng.randrange(2000)}\n" for i in range(45_000))
    text += "".join(f"k{i},z{2000 + rng.randrange(2000)}\n" for i in range(0, 45_000, 10))
    (tmp_path / "schema.txt").write_text("R arity=2 key=1\n")
    (tmp_path / "R.csv").write_text(text)
    q = parse_query("q(z) :- R(x | z).")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        db = load_bundle(tmp_path)
        rows = tracemalloc.get_traced_memory()[0] - start
        cqacount_parsimonious(q, db)
        kept = tracemalloc.get_traced_memory()[0] - start - rows
    finally:
        tracemalloc.stop()
    assert [*map(len, db._parts["R"])] == [40_500, 4_500]
    assert kept <= rows / 4


def test_count_never_groups_a_relation_the_query_does_not_read(tmp_path, monkeypatch):
    # each relation is grouped into its partition when first read, so a
    # relation of 10^5 rows beside the employee bundle costs the count
    # nothing and leaves its answers as they are
    save_bundle(support.employee_db(), tmp_path)
    with (tmp_path / "schema.txt").open("a") as fh:
        fh.write("U arity=2 key=1\n")
    (tmp_path / "U.csv").write_text("".join(f"u{i // 2},{i}\n" for i in range(100_000)))
    db, want = load_bundle(tmp_path), cqacount_parsimonious(support.employee_query(), support.employee_db())
    grouped, groupby = [], itertools.groupby
    monkeypatch.setattr(itertools, "groupby", lambda rows, key: grouped.append(rows) or groupby(rows, key))
    assert cqacount_parsimonious(support.employee_query(), db) == want
    assert [rows is db._rows["U"] for rows in grouped] == [False, False]  # D and E
    assert len(db._parts["U"][1]) == 50_000  # read, so grouped
    assert [rows is db._rows["U"] for rows in grouped] == [False, False, True]


def test_repair_count_and_enumeration_employee():
    db = support.employee_db()
    assert repair_count(db) == 4
    repairs = list(enumerate_repairs(db))
    assert len(repairs) == 4
    assert len({r.facts for r in repairs}) == 4
    for r in repairs:
        assert is_repair_of(r, db)


def test_chain_db_has_two_repairs():
    assert repair_count(support.chain_db()) == 2


def test_consistent_db_is_its_own_single_repair():
    db = support.twin_lookup_dbs()[2]
    assert db.is_consistent()
    repairs = list(enumerate_repairs(db))
    assert repairs == [db]


def test_enumeration_is_lexicographic():
    db = support.employee_db()
    first = next(iter(enumerate_repairs(db)))
    # the odometer starts with the first member of every block
    for block in db.blocks():
        assert block.members[0] in set(first.facts)


def test_enumeration_exhaustive_on_random_instances():
    rng = random.Random(71)
    for _ in range(25):
        q = random_query(rng)
        db = random_instance(rng, q, max_repairs=1 << 12)
        count = repair_count(db)
        assert count == math.prod(len(b.members) for b in db.blocks())
        seen = {r.facts for r in enumerate_repairs(db, 1 << 12)}
        assert len(seen) == count


def test_cap_overflow_names_the_count():
    db = support.employee_db()
    with pytest.raises(RepairSpaceOverflow) as err:
        list(enumerate_repairs(db, cap=3))
    assert "4" in str(err.value)
    assert err.value.count == 4


def test_is_repair_of_rejects_non_maximal_subsets():
    db = support.employee_db()
    repair = next(iter(enumerate_repairs(db)))
    smaller = DatabaseInstance(db.schema.values(), repair.facts[1:])
    assert not is_repair_of(smaller, db)
    stranger = DatabaseInstance(
        db.schema.values(),
        list(repair.facts[1:]) + [Fact("E", ("Zoe", "F", "HR"))],
    )
    assert not is_repair_of(stranger, db)


def test_schema_validation():
    sig = RelationSignature("R", 2, 1)
    with pytest.raises(SchemaError):
        DatabaseInstance([sig], [Fact("S", ("a", "b"))])
    with pytest.raises(SchemaError):
        DatabaseInstance([sig], [Fact("R", ("a",))])
    with pytest.raises(SchemaError):
        DatabaseInstance([sig, sig])


def test_bundle_roundtrip(tmp_path):
    db = support.employee_db()
    save_bundle(db, tmp_path / "fig")
    again = load_bundle(tmp_path / "fig")
    assert again == db
    assert again.facts == db.facts  # canonical ordering preserved


def test_bundle_rows_out_of_order_and_repeated_load_as_facts(tmp_path):
    root = tmp_path / "shuffled"
    root.mkdir()
    (root / "schema.txt").write_text("R arity=2 key=1\n")
    (root / "R.csv").write_text("k2,b\nk1,z\nk10,a\nk2,b\nk1,a\n")
    db = DatabaseInstance(
        [RelationSignature("R", 2, 1)],
        [Fact("R", row) for row in [("k1", "a"), ("k1", "z"), ("k10", "a"), ("k2", "b")]],
    )
    loaded = load_bundle(root)
    assert loaded == db
    assert loaded.facts == db.facts


def test_bundle_roundtrip_with_awkward_values(tmp_path):
    db = DatabaseInstance(
        [RelationSignature("R", 2, 1)],
        [Fact("R", ("a,b", 'say "hi"')), Fact("R", ("plain", " spaced "))],
    )
    save_bundle(db, tmp_path / "awkward")
    assert load_bundle(tmp_path / "awkward") == db


def test_readme_library_example_runs_on_the_shipped_bundle(monkeypatch):
    # the README's python block, verbatim, from the repository root
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    monkeypatch.chdir(root)
    exec(readme.split("```python\n", 1)[1].split("```", 1)[0], {})
    assert load_bundle("examples/employee") == support.employee_db()
    query = (root / "examples" / "employee" / "query.cq").read_text(encoding="utf-8")
    assert parse_query(query) == support.employee_query()


def test_bundle_errors(tmp_path):
    with pytest.raises(InputError):
        load_bundle(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "schema.txt").write_text("R arity=two key=1\n")
    with pytest.raises(InputError):
        load_bundle(bad)
    short = tmp_path / "short"
    short.mkdir()
    (short / "schema.txt").write_text("R arity=2 key=1\n")
    (short / "R.csv").write_text("lonely\n")
    with pytest.raises(InputError):
        load_bundle(short)


def test_bundle_missing_csv_is_empty_relation(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    (root / "schema.txt").write_text("R arity=2 key=1\n")
    db = load_bundle(root)
    assert db.schema["R"].arity == 2
    assert db.facts == ()


def test_build_3dm_matches_hand_table():
    db = build_3dm_instance(support.MATCHING_TRIPLES)
    assert set(db.relation_facts("Z")) == {Fact("Z", ("c",))}
    for side in ("R", "S"):
        assert set(db.relation_facts(f"{side}1")) == {
            Fact(f"{side}1", ("a", "adf")),
            Fact(f"{side}1", ("a", "aeg")),
            Fact(f"{side}1", ("b", "beg")),
            Fact(f"{side}1", ("bot1", "top")),
        }
        assert set(db.relation_facts(f"{side}2")) == {
            Fact(f"{side}2", ("d", "adf")),
            Fact(f"{side}2", ("e", "aeg")),
            Fact(f"{side}2", ("e", "beg")),
            Fact(f"{side}2", ("bot2", "top")),
        }
        assert set(db.relation_facts(f"{side}3")) == {
            Fact(f"{side}3", ("f", "adf")),
            Fact(f"{side}3", ("g", "aeg")),
            Fact(f"{side}3", ("g", "beg")),
            Fact(f"{side}3", ("bot3", "top")),
        }
    assert len(db.block("R1", ("a",))) == 2


def test_build_3dm_repair_count():
    db = build_3dm_instance(support.MATCHING_TRIPLES)
    # independent product over the six two-fact blocks, then exact enumeration
    expected = math.prod(len(b.members) for b in db.blocks())
    assert expected == 64
    assert repair_count(db) == expected
    assert sum(1 for _ in enumerate_repairs(db)) == expected


def test_build_3dm_empty_matching():
    db = build_3dm_instance([])
    names = {f.relation for f in db.facts}
    assert names == {"Z", "R1", "S1", "R2", "S2", "R3", "S3"}
    assert len(db.facts) == 7  # Z(c) plus one padding fact per relation


def test_build_3dm_rejects_overlapping_coordinates():
    with pytest.raises(InputError):
        build_3dm_instance([("a", "a", "f")])
    with pytest.raises(InputError):
        build_3dm_instance([("a", "d", "f"), ("d", "e", "g")])


@pytest.mark.parametrize("triples, upper", [
    ([("c", "top", "bot3"), ("a", "x", "y"), ("c", "x", "y")], 3),  # c-top-bot3, a-x-y
    ([("c", "top", "bot3"), ("a", "top", "y"), ("c", "x", "y")], 2),  # any two share one
])
def test_build_3dm_renames_constants_its_triples_use(triples, upper):
    # the group, `top` and a bottom constant, each taken by a coordinate, get
    # a trailing `_`; the upper bound is n + 1 = 3 exactly when a perfect
    # matching exists, and the group stays certain either way
    db = build_3dm_instance(triples)
    assert set(db.relation_facts("Z")) == {Fact("Z", ("c_",))}
    padding = {f.values for i in (1, 2, 3) for f in db.relation_facts(f"R{i}")
               if f.values[1] == "top_"}
    assert padding == {("bot1", "top_"), ("bot2", "top_"), ("bot3_", "top_")}
    q = threedm_query()
    assert cqacount_oracle(make_free(q, q.bound_vars), ("z",), db) == {
        RangeAnswer(("c_",), 1, upper)}


def test_threedm_query_shape():
    q = threedm_query()
    assert [a.name for a in q.atoms] == ["Z", "R1", "S1", "R2", "S2", "R3", "S3"]
    assert q.free_vars == ("z",)


def _random_bundle(rng: random.Random):
    """A random query and facts for its relations from `random_instance`,
    varied: one relation emptied, an unused relation (often of key width
    0), some facts repeated, facts and signatures shuffled."""
    q = random_query(rng, max_atoms=4)
    sigs = [atom.relation for atom in q.atoms]
    facts = list(random_instance(rng, q).facts)
    if rng.random() < 0.3:
        gone = rng.choice(sigs).name
        facts = [f for f in facts if f.relation != gone]
    if rng.random() < 0.5:
        arity = rng.randint(1, 3)
        sigs.append(RelationSignature("U", arity, rng.choice((0, rng.randint(0, arity)))))
        facts += [
            Fact("U", tuple(rng.choice("ab") for _ in range(arity)))
            for _ in range(rng.randint(0, 4))
        ]
    facts += rng.sample(facts, min(len(facts), rng.randint(0, 3)))
    rng.shuffle(facts)
    rng.shuffle(sigs)
    return q, sigs, facts


def test_row_store_equals_fact_store_on_random_bundles():
    """The row store against the Fact-sorting store it replaced: every
    Fact-level view, equality and hashing, the error naming the first bad
    fact, the repair sequence and both counting routes."""
    rng = random.Random(6061)
    seen = {"width0": 0, "empty": 0, "dups": 0, "unused": 0, "cparsimony": 0}
    prev = None
    for _ in range(1000):
        q, sigs, facts = _random_bundle(rng)
        new = DatabaseInstance(sigs, facts)
        old = support.FactDatabaseInstance(sigs, facts)
        seen["width0"] += any(s.key_width == 0 and new.relation_facts(s.name) for s in sigs)
        seen["empty"] += any(not new.relation_facts(s.name) for s in sigs)
        seen["dups"] += len(facts) > len(set(facts))
        seen["unused"] += len(sigs) > len(q.atoms)

        assert list(new.schema.items()) == list(old.schema.items())
        assert new.facts == old.facts
        for name in [*new.schema, "Nope"]:
            assert new.relation_facts(name) == old.relation_facts(name)
        assert new.blocks() == old.blocks()
        for b in old.blocks():
            assert new.block(b.relation, b.key_values) == old.block(b.relation, b.key_values)
            missing = ("zz",) * len(b.key_values)
            assert new.block(b.relation, missing) == old.block(b.relation, missing)
            # one value short, and one member's values one past the key: no block
            longer = (*b.members[0].values, "a")[: len(b.key_values) + 1]
            for key in (b.key_values[:-1], longer):
                assert new.block(b.relation, key) == old.block(b.relation, key)
            assert new.block("Nope", b.key_values) == old.block("Nope", b.key_values)
        assert new.is_consistent() == old.is_consistent()
        assert repair_count(new) == math.prod(len(b.members) for b in old.blocks())

        again = DatabaseInstance(reversed(sigs), reversed(facts))
        assert again == new and hash(again) == hash(new)
        if prev is not None:
            assert (new == prev[0]) == (old == prev[1])
        first = sigs[0]
        rekeyed = [replace(first, key_width=(first.key_width + 1) % (first.arity + 1)), *sigs[1:]]
        assert DatabaseInstance(rekeyed, facts) != new
        assert support.FactDatabaseInstance(rekeyed, facts) != old
        prev = new, old

        broken = facts + rng.sample([
            Fact("Zed", ("a",)), Fact("A0", ("a",)), Fact(first.name, ("a",) * (first.arity + 1)),
            Fact(first.name, ("b",) * (first.arity + 1)), Fact(sigs[-1].name, ()),
        ], rng.randint(1, 3))
        errors = []
        for store in (DatabaseInstance, support.FactDatabaseInstance):
            with pytest.raises(SchemaError) as err:
                store(sigs, broken)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

        repairs = list(enumerate_repairs(new))
        old_repairs = list(support.fact_enumerate_repairs(old))
        assert [(list(r.schema.items()), r.facts) for r in repairs] == [
            (list(r.schema.items()), r.facts) for r in old_repairs
        ]
        for r in repairs:
            rebuilt = DatabaseInstance(sigs, r.facts)
            assert r == rebuilt and hash(r) == hash(rebuilt)
            assert r.blocks() == rebuilt.blocks() and r.is_consistent()
            assert is_repair_of(r, new)

        full = make_free(q, q.bound_vars)
        want = support.fact_oracle(full, q.free_vars, old)
        assert cqacount_oracle(full, q.free_vars, new) == want
        if in_cparsimony(q).in_cparsimony:
            seen["cparsimony"] += 1
            assert cqacount_parsimonious(q, new) == want
    assert min(seen.values()) >= 50, seen


def test_instance_repr_counts_relations_and_distinct_facts():
    sigs = [RelationSignature("R", 2, 1), RelationSignature("S", 1, 1)]
    facts = [Fact("R", ("a", "b")), Fact("R", ("a", "c")), Fact("R", ("a", "b"))]
    assert repr(DatabaseInstance(sigs, facts)) == "DatabaseInstance(2 relations, 2 facts)"
