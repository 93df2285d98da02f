"""Golden queries/instances from worked examples, plus independent oracles
(naive join, two-row FD tableau, repair-intersection certainty, exhaustive
id-set search, the Fact-sorting instance store, the matcher-pass join, the
repair-instance oracle, the shared-scan certainty check, the per-pair query
analysis, the two-pass query parser) that the fast implementations are checked against."""

from __future__ import annotations

import heapq
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate, combinations
from operator import itemgetter
from typing import (
    AbstractSet,
    Callable,
    Collection,
    Container,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

from cqa.attacks import (
    AttackGraph,
    AttackWitness,
    FrozenVariables,
    attack_graph,
    keycl,
)
from cqa.classify import (
    ClassificationReport,
    CyclicAttackGraphError,
    IdSetViolation,
)
from cqa.evaluate import AnswerSet, EvaluationError, RangeAnswer, _check_schema, evaluate
from cqa.fds import FunctionalDependencySet, SequentialProof, fdset
from cqa.graphs import path_to
from cqa.instances import (
    DEFAULT_REPAIR_CAP,
    Block,
    DatabaseInstance,
    Fact,
    RepairSpaceOverflow,
    SchemaError,
    enumerate_repairs,
)
from cqa.queries import (
    Atom,
    ConjunctiveQuery,
    QueryError,
    QuerySyntaxError,
    RelationSignature,
    Term,
    _check_bound,
    parse_query,
    serialize_query,
)


def mkdb(schema: dict[str, tuple[int, int]], rows: dict[str, list[tuple]]) -> DatabaseInstance:
    """schema maps relation name -> (arity, key_width); rows maps name -> value tuples."""
    from cqa.queries import RelationSignature

    sigs = [RelationSignature(name, arity, key) for name, (arity, key) in schema.items()]
    facts = [Fact(name, tuple(values)) for name, tuples in rows.items() for values in tuples]
    return DatabaseInstance(sigs, facts)


# --- worked-example goldens -------------------------------------------------

def employee_query() -> ConjunctiveQuery:
    return parse_query("q(z) :- E(x | 'F', y), D(y | z).")


def employee_projection_query() -> ConjunctiveQuery:
    return parse_query("q(x, z) :- E(x | 'F', y), D(y | z).")


def employee_db() -> DatabaseInstance:
    return mkdb(
        {"E": (3, 1), "D": (2, 1)},
        {
            "E": [
                ("Suzy", "F", "HR"),
                ("Anny", "F", "HR"),
                ("Anny", "F", "IT"),
                ("Dolores", "F", "IT"),
                ("Lucy", "F", "MIS"),
            ],
            "D": [("HR", "A"), ("IT", "A"), ("IT", "B"), ("MIS", "B")],
        },
    )


def chain_query() -> ConjunctiveQuery:
    return parse_query("q(z) :- R(x | y), S(y, v | z), T(y | v).")


def chain_db() -> DatabaseInstance:
    return mkdb(
        {"R": (2, 1), "S": (3, 2), "T": (2, 1)},
        {
            "R": [("a1", "b1"), ("a2", "b2"), ("a3", "b2"), ("a4", "b3")],
            "S": [("b1", "c1", "g1"), ("b2", "c2", "g1"), ("b2", "c2", "g2"), ("b3", "c3", "g2")],
            "T": [("b1", "c1"), ("b2", "c2"), ("b3", "c3")],
        },
    )


def lookup_pair_query() -> ConjunctiveQuery:
    """Counts per z cannot be read off any fixed projection of the plain
    answers here; only the exhaustive oracle serves it."""
    return parse_query("q(z) :- R(z | x), S(x, y).")


def lookup_pair_db() -> DatabaseInstance:
    return mkdb(
        {"R": (2, 1), "S": (2, 2)},
        {
            "R": [("c1", "a"), ("c2", "a"), ("c2", "b")],
            "S": [("a", "d"), ("a", "e"), ("b", "f")],
        },
    )


def twin_lookup_query() -> ConjunctiveQuery:
    return parse_query("q(z) :- R(x | z, y), S(y | x), T(y | x).")


def twin_lookup_dbs() -> list[DatabaseInstance]:
    shape = {"R": (3, 1), "S": (2, 1), "T": (2, 1)}
    first = mkdb(
        shape,
        {
            "R": [("a", "d", "e"), ("b", "d", "e"), ("c", "d", "f")],
            "S": [("e", "a"), ("e", "b"), ("f", "c")],
            "T": [("e", "a"), ("e", "b"), ("f", "c")],
        },
    )
    second = mkdb(
        shape,
        {
            "R": [("a", "d", "e"), ("a", "d", "f"), ("b", "d", "g")],
            "S": [("e", "a"), ("f", "a"), ("g", "b")],
            "T": [("e", "a"), ("f", "a"), ("g", "b")],
        },
    )
    third = mkdb(
        shape,
        {
            "R": [("a", "d", "e"), ("b", "d", "f")],
            "S": [("e", "a"), ("f", "b")],
            "T": [("e", "a"), ("f", "b")],
        },
    )
    return [first, second, third]


def two_component_query() -> ConjunctiveQuery:
    return parse_query("q(z) :- R(x | y1), S(x | y2), T(y1, y2 | y3, z), P(v | w).")


def guarded_cycle_query() -> ConjunctiveQuery:
    return parse_query("q(z) :- R(x | y), S(y | v), T(v | y), P1(z | y), P2(z | y).")


def star_share_query() -> ConjunctiveQuery:
    return parse_query("q(z1, z2) :- R(x | y, z1), S(x | y), T(y | z2).")


def bridge_query() -> ConjunctiveQuery:
    return parse_query("q(z3) :- R(x | y, z1), S(x, y | z2), T(z1, z2, z3), P(x | y).")


def widen_pair_query() -> ConjunctiveQuery:
    return parse_query("q(z) :- R(x | y), S(x | y, z).")


def matching_pairs_query() -> ConjunctiveQuery:
    return parse_query("q(z) :- Z(z), R1(x1 | y), S1(x1 | y), R2(x2 | y), S2(x2 | y).")


def mutual_attack_query() -> ConjunctiveQuery:
    return parse_query("q() :- R(x | y), S(y | x).")


def four_atom_fd_query() -> ConjunctiveQuery:
    return parse_query("q(z1, z2) :- R(u | x), S(x, z1 | y), T(y | v, z2), U(y | u).")


def square_share_query() -> ConjunctiveQuery:
    return parse_query("q(z) :- R1(x | y, z), R2(x | y), S1(y | x), S2(y | x).")


def without(q: ConjunctiveQuery, atoms: Iterable[Atom | str]) -> ConjunctiveQuery:
    """`q` less the given atoms; free variables no longer occurring are dropped too."""
    gone = {a if isinstance(a, str) else a.name for a in atoms}
    kept = tuple(a for a in q.atoms if a.name not in gone)
    occurring = frozenset().union(*(a.variables for a in kept))
    return replace(q, atoms=kept, free_vars=tuple(v for v in q.free_vars if v in occurring))


MATCHING_TRIPLES = [("a", "d", "f"), ("a", "e", "g"), ("b", "e", "g")]


# --- independent oracles -----------------------------------------------------

def determines(fds: FunctionalDependencySet, lhs: Iterable[str], rhs: Iterable[str]) -> bool:
    """Does `fds` give lhs -> rhs?  Only the references and the FD tests ask."""
    return set(rhs) <= fds.closure(lhs)


def brute_force_implies(fds: FunctionalDependencySet, lhs, target: str) -> bool:
    """Two-row tableau check: no model of the FD set may agree on lhs yet
    differ on the target."""
    names = sorted(fds.universe | set(lhs) | {target})
    index = {v: i for i, v in enumerate(names)}
    deps = [(frozenset(d.lhs), frozenset(d.rhs)) for d in fds.deps]
    lhs = set(lhs)
    for mask in range(1 << len(names)):
        differ = {v for v in names if mask >> index[v] & 1}
        if any(not (l & differ) and (r & differ) for l, r in deps):
            continue
        if not (lhs & differ) and target in differ:
            return False
    return True


def _unify(atom: Atom, fact: Fact, binding: dict[str, str]) -> dict[str, str] | None:
    out = dict(binding)
    for term, value in zip(atom.args, fact.values):
        if term.is_var:
            seen = out.get(term.symbol)
            if seen is None:
                out[term.symbol] = value
            elif seen != value:
                return None
        elif term.symbol != value:
            return None
    return out


def _candidates(atom: Atom, binding: dict[str, str], db: DatabaseInstance) -> tuple[Fact, ...]:
    key: list[str] = []
    for term in atom.key_args:
        value = binding.get(term.symbol) if term.is_var else term.symbol
        if value is None:
            return db.relation_facts(atom.name)
        key.append(value)
    return db.block(atom.name, tuple(key))


def naive_evaluate(q: ConjunctiveQuery, db: DatabaseInstance) -> AnswerSet:
    """All head tuples with a satisfying valuation: a join in query order over
    binding dicts, with a key lookup whenever an atom's key is bound."""
    _check_schema(q, db)
    rows: list[dict[str, str]] = [{}]
    for atom in q.atoms:
        rows = [
            bound
            for partial in rows
            for fact in _candidates(atom, partial, db)
            if (bound := _unify(atom, fact, partial)) is not None
        ]
        if not rows:
            break
    return AnswerSet(
        q.free_vars,
        frozenset(tuple(row[v] for v in q.free_vars) for row in rows),
    )


def intersection_certain(q: ConjunctiveQuery, db: DatabaseInstance, cap: int = 1 << 14):
    """Certain answers the slow way: intersect the answers over all repairs."""
    sets = [evaluate(q, repair).tuples for repair in enumerate_repairs(db, cap)]
    return frozenset.intersection(*sets)


def exhaustive_id_set(q: ConjunctiveQuery):
    """Smallest id-set found by trying every subset of bound variables."""
    graph = reference_attack_graph(q)
    for size in range(len(q.bound_vars) + 1):
        for subset in combinations(q.bound_vars, size):
            ok, _ = reference_is_id_set(q, subset, graph)
            if ok:
                return subset
    return None


def witness_is_valid(w: AttackWitness, q: ConjunctiveQuery) -> bool:
    """Re-check the three witness conditions from scratch."""
    if not w.path or w.path[-1] != w.target:
        return False
    bound = set(q.bound_vars)
    if not set(w.path) <= bound:
        return False
    if w.path[0] not in w.source.nonkey_vars:
        return False
    kc = keycl(w.source, q)
    if set(w.path) & kc:
        return False
    return all(
        any({a, b} <= atom.variables for atom in q.atoms)
        for a, b in zip(w.path, w.path[1:])
    )


# --- the Fact-sorting instance store the row store replaced -------------------
# Kept verbatim (renamed) as the slow path the row store is checked against.

class FactDatabaseInstance:
    """Immutable set of facts over a fixed schema, indexed by key."""

    def __init__(self, schema: Iterable[RelationSignature], facts: Iterable[Fact] = ()):
        sigs: dict[str, RelationSignature] = {}
        for sig in schema:
            if sig.name in sigs:
                raise SchemaError(f"relation {sig.name} declared twice")
            sigs[sig.name] = sig
        self.schema: dict[str, RelationSignature] = dict(sorted(sigs.items()))
        canonical = sorted(set(facts))
        for fact in canonical:
            sig = self.schema.get(fact.relation)
            if sig is None:
                raise SchemaError(f"fact over undeclared relation {fact.relation}")
            if len(fact.values) != sig.arity:
                raise SchemaError(
                    f"fact {fact} has {len(fact.values)} columns, expected {sig.arity}"
                )
        self.facts: tuple[Fact, ...] = tuple(canonical)
        self._by_relation: dict[str, list[Fact]] = {name: [] for name in self.schema}
        self._blocks: dict[tuple[str, tuple[str, ...]], list[Fact]] = {}
        for fact in self.facts:
            key = fact.values[: self.schema[fact.relation].key_width]
            self._by_relation[fact.relation].append(fact)
            self._blocks.setdefault((fact.relation, key), []).append(fact)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FactDatabaseInstance)
            and self.schema == other.schema
            and self.facts == other.facts
        )

    def __hash__(self) -> int:
        return hash((tuple(self.schema.items()), self.facts))

    def __repr__(self) -> str:
        return f"FactDatabaseInstance({len(self.schema)} relations, {len(self.facts)} facts)"

    def relation_facts(self, name: str) -> tuple[Fact, ...]:
        return tuple(self._by_relation.get(name, ()))

    def block(self, name: str, key: tuple[str, ...]) -> tuple[Fact, ...]:
        return tuple(self._blocks.get((name, key), ()))

    def blocks(self) -> tuple[Block, ...]:
        return tuple(
            Block(rel, key, tuple(members))
            for (rel, key), members in sorted(self._blocks.items())
        )

    def is_consistent(self) -> bool:
        return all(len(members) == 1 for members in self._blocks.values())


def fact_enumerate_repairs(
    db: FactDatabaseInstance, cap: int = DEFAULT_REPAIR_CAP
) -> Iterator[FactDatabaseInstance]:
    """All repairs, lexicographically by block order and member index.

    Refuses spaces larger than `cap` outright: sampling would break the
    tight-bound guarantee the enumeration exists to provide.
    """
    all_blocks = db.blocks()
    count = math.prod(len(b.members) for b in all_blocks)
    if count > cap:
        raise RepairSpaceOverflow(count, cap)
    sigs = db.schema.values()
    for choice in itertools.product(*(range(len(b.members)) for b in all_blocks)):
        yield FactDatabaseInstance(
            sigs, (b.members[i] for b, i in zip(all_blocks, choice))
        )


def fact_oracle(q_full: ConjunctiveQuery, group_vars, db: FactDatabaseInstance):
    """Range answers over every repair of a Fact-sorting instance, each repair
    joined by `naive_evaluate`."""
    width = len(group_vars)
    head = tuple(group_vars) + tuple(v for v in q_full.free_vars if v not in group_vars)
    q_head = ConjunctiveQuery(q_full.atoms, head)
    stats: dict = {}
    repairs = 0
    for repair in fact_enumerate_repairs(db):
        repairs += 1
        seen: dict = {}
        for t in naive_evaluate(q_head, repair).tuples:
            seen.setdefault(t[:width], set()).add(t[width:])
        for group, rest in seen.items():
            stats.setdefault(group, []).append(len(rest))
    return frozenset(
        RangeAnswer(group, min(counts), max(counts))
        for group, counts in stats.items()
        if len(counts) == repairs
    )


# --- the matcher-pass join and its step builder -------------------------------
# Kept verbatim (renamed) so that the reference oracle and the reference
# certainty check below share no join code with `cqa.evaluate`: per atom a
# matcher from fact values to its variables, then `own` and `new` getters
# over the matcher's output.

def _ref_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The items of a tuple at `positions`, always as a tuple."""
    if len(positions) == 1:
        (i,) = positions
        return lambda t: (t[i],)
    return itemgetter(*positions) if positions else lambda t: ()


def _ref_atom_vars(atom: Atom) -> tuple[str, ...]:
    """The atom's distinct variables in first-occurrence order: the layout of
    the values its matcher returns."""
    return tuple(dict.fromkeys(t.symbol for t in atom.args if t.is_var))


def _ref_matcher(atom: Atom) -> Callable[[tuple[str, ...]], tuple[str, ...] | None]:
    """Fact values -> the values of `_ref_atom_vars(atom)`, or None when the fact
    breaks a constant or gives a repeated variable two values."""
    first: dict[str, int] = {}
    tests: list[tuple[int, int | None, str | None]] = []
    for i, term in enumerate(atom.args):
        if not term.is_var:
            tests.append((i, None, term.symbol))
        elif term.symbol in first:
            tests.append((i, first[term.symbol], None))
        else:
            first[term.symbol] = i
    pick = _ref_getter(tuple(first.values()))
    if not tests:
        return pick

    def match(values: tuple[str, ...]) -> tuple[str, ...] | None:
        for i, j, const in tests:
            if values[i] != (const if j is None else values[j]):
                return None
        return pick(values)

    return match


class _RefStep(NamedTuple):
    """One atom of a compiled plan.  Rows are tuples of slots: the variables
    bound up front, then the variables each step binds first, in step order."""

    atom: Atom
    probe: Callable[[tuple], tuple]  # row -> the atom's variables bound earlier
    own: Callable[[tuple], tuple]  # match -> the same variables
    new: Callable[[tuple], tuple]  # match -> the variables first bound here
    # certainty steps only: row -> what this step and later ones read
    reads: Callable[[tuple], tuple] | None = None
    # certainty steps whose key is fixed by constants and earlier bindings: row -> key
    key: Callable[[tuple], tuple] | None = None


def _ref_key_getter(atom: Atom, slots: Mapping[str, int]) -> Callable[[tuple], tuple] | None:
    """Row -> the atom's key values, when every key position holds a constant
    or a variable in `slots` (always, for key width 0); otherwise None."""
    args = atom.key_args
    if any(t.is_var and t.symbol not in slots for t in args):
        return None
    if all(t.is_var for t in args):
        return _ref_getter([slots[t.symbol] for t in args])
    parts = [(slots[t.symbol], None) if t.is_var else (None, t.symbol) for t in args]
    return lambda row: tuple(const if i is None else row[i] for i, const in parts)


def _ref_compile_steps(
    order: Sequence[Atom], slots: dict[str, int], certainty: bool = False
) -> tuple[_RefStep, ...]:
    """One step per atom of `order`; `slots` maps the variables bound up front
    to their slots, and each step appends the variables it binds first.
    Steps of the certainty check also get `reads` and `key`."""
    later = list(accumulate((a.variables for a in reversed(order)), frozenset.union))
    steps = []
    for atom, read in zip(order, reversed(later)):
        names = _ref_atom_vars(atom)
        bound = [i for i, v in enumerate(names) if v in slots]
        fresh = [i for i, v in enumerate(names) if v not in slots]
        probe = _ref_getter([slots[names[i]] for i in bound])
        checks = ()
        if certainty:
            reads = _ref_getter(sorted(slots[v] for v in read if v in slots))
            checks = (reads, _ref_key_getter(atom, slots))
        for i in fresh:
            slots[names[i]] = len(slots)
        steps.append(_RefStep(atom, probe, _ref_getter(bound), _ref_getter(fresh), *checks))
    return tuple(steps)


class _RefJoin(NamedTuple):
    steps: tuple[_RefStep, ...]
    head: Callable[[tuple], tuple]  # row -> answer tuple


def _ref_compile_join(atoms: Sequence[Atom], head: Sequence[str]) -> _RefJoin:
    """A join order chosen once per query: atoms whose key is bound first,
    then the atom with the most bound variables, ties in query order."""
    bound: set[str] = set()
    order, todo = [], list(atoms)
    while todo:
        atom = min(todo, key=lambda a: (not a.key_vars <= bound, -len(a.variables & bound)))
        todo.remove(atom)
        order.append(atom)
        bound |= atom.variables
    slots: dict[str, int] = {}
    return _RefJoin(_ref_compile_steps(order, slots), _ref_getter([slots[v] for v in head]))


def _ref_matches(plan: _RefJoin, db: DatabaseInstance) -> list[Iterator[tuple[str, ...]]]:
    """Per step, a lazy matcher pass over its relation: a join that dies
    early never matches the relations of its later steps."""
    return [
        (m for m in map(_ref_matcher(step.atom), db._rows[step.atom.name]) if m is not None)
        for step in plan.steps
    ]


def _ref_join(plan: _RefJoin, matches: Sequence[Iterable[tuple]]) -> set[tuple[str, ...]]:
    """The distinct answer tuples of a compiled join.  Every step reads a
    hash index on its bound variables, built from its entry in `matches`
    (the matcher outputs over its relation)."""
    rows: list[tuple] = [()]
    for step, got in zip(plan.steps, matches):
        index: dict[tuple, list[tuple]] = {}
        for m in got:
            index.setdefault(step.own(m), []).append(step.new(m))
        rows = [row + new for row in rows for new in index.get(step.probe(row), ())]
        if not rows:
            break
    return {plan.head(row) for row in rows}


def _ref_group_counts(
    tuples: AbstractSet[tuple[str, ...]], width: int
) -> dict[tuple[str, ...], int]:
    """Distinct tuples per group of their first `width` values; the tuples
    come as a set, so counting them counts distinct remainders."""
    counts: dict[tuple[str, ...], int] = {}
    for t in tuples:
        group = t[:width]
        counts[group] = counts.get(group, 0) + 1
    return counts


def _ref_counting_join(q_full: ConjunctiveQuery, group_vars: tuple[str, ...]) -> _RefJoin:
    """The join of a full query with the grouping variables leading its answers."""
    if q_full.bound_vars:
        raise EvaluationError(f"counting requires a full query; {q_full.bound_vars} are bound")
    if len(set(group_vars)) != len(group_vars) or not set(group_vars) <= set(q_full.free_vars):
        raise EvaluationError(f"grouping variables {group_vars} must be distinct head variables")
    rest = tuple(v for v in q_full.free_vars if v not in group_vars)
    return _ref_compile_join(q_full.atoms, group_vars + rest)


def _ref_elimination_plan(q: ConjunctiveQuery, graph: AttackGraph) -> tuple[_RefStep, ...]:
    """A topological order of `graph`, the attack graph of `q` or of the query
    `q` widens, computed once per query.

    Grounding the variables of an unattacked atom or making variables free
    only removes attacks, so the order stays valid for the widened query and
    after any candidate tuple and any earlier step have been bound.
    """
    names = graph.topological_order()
    if names is None:
        raise CyclicAttackGraphError(
            "attack graph is cyclic: no first-order certainty check; use the repair oracle"
        )
    slots = {v: i for i, v in enumerate(q.free_vars)}
    return _ref_compile_steps([q.atom(n) for n in names], slots, certainty=True)


# --- the repair-instance oracle the block-pick oracle replaced ----------------
# Kept verbatim (renamed) as the slow path `cqacount_oracle` is checked against:
# one instance per repair of the query's relations, each joined from scratch.

def _visible(q: ConjunctiveQuery, db: DatabaseInstance) -> DatabaseInstance:
    """`db` cut down to the relations of `q`, whose schema has been checked
    against it; the blocks of any other relation cannot change its answers."""
    names = sorted(atom.name for atom in q.atoms)
    if len(names) == len(db.schema):
        return db
    return DatabaseInstance._from_rows(
        {name: db.schema[name] for name in names},
        {name: db._rows[name] for name in names},
    )


def reference_oracle(
    q_full: ConjunctiveQuery,
    group_vars: Iterable[str],
    db: DatabaseInstance,
    cap: int = DEFAULT_REPAIR_CAP,
) -> frozenset[RangeAnswer]:
    """Tight [min, max] counts per group over every repair.

    Only the relations of the query are enumerated, so `cap` bounds the
    repairs of those relations.  A group qualifies only when every repair
    produces it; the bounds are attained by actual repairs by construction.
    """
    group_vars = tuple(group_vars)
    plan = _ref_counting_join(q_full, group_vars)
    _check_schema(q_full, db)
    stats: dict[tuple[str, ...], list[int]] = {}
    repairs = 0
    for repair in enumerate_repairs(_visible(q_full, db), cap):
        repairs += 1
        counts = _ref_group_counts(_ref_join(plan, _ref_matches(plan, repair)), len(group_vars))
        for group, count in counts.items():
            rec = stats.get(group)
            if rec is None:
                stats[group] = [1, count, count]
            else:
                rec[0] += 1
                rec[1] = min(rec[1], count)
                rec[2] = max(rec[2], count)
    return frozenset(
        RangeAnswer(group, low, high)
        for group, (hits, low, high) in stats.items()
        if hits == repairs
    )


# --- the shared-scan certainty check the key-block lookup replaced ------------
# Kept verbatim (renamed) as the slow path `_plain_and_certain` is checked
# against: one matcher pass per relation feeds the join and, for every step,
# an index of every usable block by its probe values.

class _Scan(NamedTuple):
    """One pass of a step's matcher over its relation."""

    matches: list[tuple[str, ...]]  # the variable values of every matching fact
    blocks: list[tuple[tuple[str, ...], ...]]  # the same, per block whose facts all match


def _scan(step: _RefStep, db: DatabaseInstance) -> _Scan:
    matches: list[tuple[str, ...]] = []
    blocks: list[tuple[tuple[str, ...], ...]] = []
    match = _ref_matcher(step.atom)
    key = itemgetter(slice(0, db.schema[step.atom.name].key_width))
    for rows in (tuple(group) for _, group in itertools.groupby(db._rows[step.atom.name], key)):
        got = [m for row in rows if (m := match(row)) is not None]
        matches += got
        if len(got) == len(rows):
            blocks.append(tuple(got))
    return _Scan(matches, blocks)


def _scans(plan: _RefJoin, db: DatabaseInstance) -> dict[str, _Scan]:
    return {step.atom.name: _scan(step, db) for step in plan.steps}


def _block_index(step: _RefStep, scan: _Scan) -> dict[tuple, list[tuple[tuple, ...]]]:
    """Probe values -> one entry per usable block: the new-variable values of its facts.

    A block is usable when every fact matches the atom and all facts agree
    on the probe variables; any other block fails for every binding.
    """
    index: dict[tuple, list[tuple[tuple, ...]]] = {}
    for block in scan.blocks:
        probes = {step.own(m) for m in block}
        if len(probes) == 1:
            index.setdefault(probes.pop(), []).append(tuple(step.new(m) for m in block))
    return index


def _certain_among(
    plan: tuple[_RefStep, ...],
    candidates: Iterable[tuple[str, ...]],
    scans: Mapping[str, _Scan],
) -> frozenset[tuple[str, ...]]:
    """The candidate head tuples that hold in every repair.

    A binding is certain at step i when some block under its probe values
    has every fact certain at step i + 1; at the last step that is a block
    under the probe values at all.  Bindings that agree on what step i and
    later ones read agree on that, so a forward pass keeps one binding per
    distinct read at each step (a candidate at the first), and certainty is
    decided from the last step back, without recursion.
    """
    if not plan:
        return frozenset(candidates)
    indexes = [_block_index(step, scans[step.atom.name]) for step in plan]
    reads = [step.reads for step in plan[1:]]  # what the next step reads
    levels: list[dict[tuple, tuple]] = [{c: c for c in candidates}]
    for step, index, read in zip(plan[:-1], indexes, reads):
        reach: dict[tuple, tuple] = {}
        for slots in levels[-1].values():
            for entry in index.get(step.probe(slots), ()):
                for values in entry:
                    row = slots + values
                    reach.setdefault(read(row), row)
        levels.append(reach)
    step, index = plan[-1], indexes[-1]
    certain = {key: step.probe(slots) in index for key, slots in levels[-1].items()}
    for step, index, read, level in reversed(list(zip(plan[:-1], indexes, reads, levels))):
        known, certain = certain, {}
        for key, slots in level.items():
            ok = False  # plain loops: any/all generators here cost about 10% on employee
            for entry in index.get(step.probe(slots), ()):
                for values in entry:
                    if not known[read(slots + values)]:
                        break
                else:
                    ok = True
                    break
            certain[key] = ok
    return frozenset(c for c, ok in certain.items() if ok)


def reference_plain_and_certain(
    q: ConjunctiveQuery, db: DatabaseInstance, graph: AttackGraph
) -> tuple[set[tuple[str, ...]], frozenset[tuple[str, ...]]]:
    """The plain answers of `q` and the certain ones among them, from one scan
    of each relation shared by the join and the certainty check."""
    plan = _ref_elimination_plan(q, graph)
    _check_schema(q, db)
    join = _ref_compile_join(q.atoms, q.free_vars)
    scans = _scans(join, db)
    plain = _ref_join(join, [scans[step.atom.name].matches for step in join.steps])
    return plain, _certain_among(plan, plain, scans)


# --- the per-group counting that the walk's group values replaced ------------
# Kept verbatim as the counts `cqacount_parsimonious` takes off the group
# values of its first step are checked against: the group prefix of every
# whole answer, taken in a second pass.

def _tally(
    tuples: Iterable[tuple[str, ...]], width: int, start: Mapping[object, int] | None = None
) -> Counter:
    """`_group_counts` of duplicate-free `tuples`, added to a copy of the
    counts `start`, in one C-level `Counter` pass, leaving one group value
    bare: wrap the keys with `zip` at width 1."""
    counts = Counter(start)
    counts.update(map(itemgetter(0) if width == 1 else itemgetter(slice(width)), tuples))
    return counts


# --- the query analysis that one closure and one BFS per atom replaced --------
# Kept verbatim (renamed) as the slow path `attack_graph`, `frozen_vars`,
# `keycl`, `sequential_proof` and `fuxman_graph` are checked against: one
# closure per pair of atoms, one walk per reached variable, and sequential
# proofs that rescan from the first atom after every atom they add.
# `reference_report` and `reference_attack_graph_dot` are the report and DOT
# helpers as they read these per-attack edge objects.  Every reference graph,
# the query graph included, stands on `ReferenceDigraph`, a frozen copy of the
# digraph layer with sorted successor and predecessor tuples, so that a fault
# in `cqa.graphs` shows in the gate.

class ReferenceDigraph:
    """Vertices plus a collection of (source, target) edges, kept as given;
    an undirected graph keeps each edge once and walks it both ways."""

    def __init__(self, vertices: Iterable[str], edges: Collection, directed: bool = True):
        self.vertices = frozenset(vertices)
        self.edges = edges
        self.directed = directed
        succ: dict[str, set[str]] = {v: set() for v in self.vertices}
        pred: dict[str, set[str]] = {v: set() for v in self.vertices}
        for s, t in edges if directed else [*edges, *((t, s) for s, t in edges)]:
            succ[s].add(t)
            pred[t].add(s)
        self._succ = {v: tuple(sorted(ns)) for v, ns in succ.items()}
        self._pred = {v: tuple(sorted(ns)) for v, ns in pred.items()}

    def successors(self, v: str) -> tuple[str, ...]:
        return self._succ.get(v, ())

    def predecessors(self, v: str) -> tuple[str, ...]:
        return self._pred.get(v, ())

    def in_degree(self, v: str) -> int:
        return len(self.predecessors(v))

    def topological_order(self) -> tuple[str, ...] | None:
        """Kahn's algorithm, smallest ready name first; None on a cycle."""
        waiting = {v: len(ps) for v, ps in self._pred.items()}
        ready = sorted(v for v, n in waiting.items() if n == 0)  # a sorted list is a heap
        order: list[str] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for u in self._succ[v]:
                waiting[u] -= 1
                if waiting[u] == 0:
                    heapq.heappush(ready, u)
        return tuple(order) if len(order) == len(waiting) else None

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Weakly connected components, each sorted, ordered by least vertex."""
        seen: set[str] = set()
        out: list[tuple[str, ...]] = []
        for v in sorted(self.vertices):
            if v in seen:
                continue
            comp, todo = {v}, [v]
            while todo:
                w = todo.pop()
                for u in self._succ[w] + self._pred[w]:
                    if u not in comp:
                        comp.add(u)
                        todo.append(u)
            seen |= comp
            out.append(tuple(sorted(comp)))
        return tuple(out)

    def reach(self, start: Iterable[str], allowed: Container[str]) -> dict[str, str | None]:
        """Layered BFS from the allowed start vertices through allowed ones:
        parent links in discovery order, None for a start vertex."""
        parent: dict[str, str | None] = {v: None for v in sorted(start) if v in allowed}
        queue = list(parent)
        for v in queue:
            for u in self._succ[v]:
                if u in allowed and u not in parent:
                    parent[u] = v
                    queue.append(u)
        return parent

    def dot(self, name: str, bold: Container[tuple[str, str]] = ()) -> str:
        """DOT text: vertices, then edges, both sorted; edges in `bold` drawn bold."""
        kind, arrow = ("digraph", "->") if self.directed else ("graph", "--")
        lines = [f"{kind} {name} {{", *(f'  "{v}";' for v in sorted(self.vertices))]
        for s, t in sorted(self.edges):
            style = " [style=bold]" if (s, t) in bold else ""
            lines.append(f'  "{s}" {arrow} "{t}"{style};')
        return "\n".join(lines) + "\n}\n"


def reference_query_graph(q: ConjunctiveQuery) -> ReferenceDigraph:
    """Undirected co-occurrence graph over the bound variables."""
    bound = frozenset(q.bound_vars)
    edges: set[tuple[str, str]] = set()
    for atom in q.atoms:
        here = sorted(atom.variables & bound)
        for i, a in enumerate(here):
            for b in here[i + 1 :]:
                edges.add((a, b))
    return ReferenceDigraph(bound, frozenset(edges), directed=False)


class ReferenceAttackGraph(ReferenceDigraph):
    """Digraph over the atom names of one query; `edges` maps each edge to
    its AttackEdge, which carries the witness.  It keeps the query's FD set
    and query graph it was built from, for later analysis of the same query."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        edges: Mapping[tuple[str, str], ReferenceAttackEdge],
        variable_paths: Mapping[str, Mapping[str, tuple[str, ...]]],
        fds: FunctionalDependencySet,
        qg: ReferenceDigraph,
    ):
        super().__init__((a.name for a in query.atoms), dict(edges))
        self.query = query
        self.fds = fds
        self.query_graph = qg
        self._variable_paths = {k: dict(v) for k, v in variable_paths.items()}

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.query.atoms

    def attacks(self, source: str, target: str) -> bool:
        return (source, target) in self.edges

    def attacked_variables(self, source: str) -> frozenset[str]:
        return frozenset(self._variable_paths[source])

    def attackers_of_variable(self, x: str) -> tuple[str, ...]:
        return tuple(
            sorted(name for name, paths in self._variable_paths.items() if x in paths)
        )

    def strong_edges(self) -> tuple[ReferenceAttackEdge, ...]:
        return tuple(
            e for _, e in sorted(self.edges.items()) if e.strong
        )

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def unattacked_atoms(self) -> tuple[Atom, ...]:
        return tuple(self.query.atom(n) for n in sorted(self.vertices) if not self.in_degree(n))

    def components(self) -> tuple[tuple[Atom, ...], ...]:
        """Maximal weakly connected components, each sorted by relation name."""
        return tuple(tuple(self.query.atom(n) for n in comp) for comp in super().components())


@dataclass(frozen=True)
class ReferenceAttackEdge:
    source: Atom
    target: Atom
    strong: bool
    witness: AttackWitness


def reference_attack_graph(q: ConjunctiveQuery) -> ReferenceAttackGraph:
    qg = reference_query_graph(q)
    fds = fdset(q)
    edges: dict[tuple[str, str], ReferenceAttackEdge] = {}
    variable_paths: dict[str, dict[str, tuple[str, ...]]] = {}
    for atom in q.atoms:
        parent = qg.reach(atom.nonkey_vars, qg.vertices - reference_keycl(atom, q, fds))
        paths = {v: path_to(parent, v) for v in parent}
        variable_paths[atom.name] = paths
        for other in q.atoms:
            if other.name == atom.name:
                continue
            hit = sorted(other.variables & paths.keys(), key=lambda v: (len(paths[v]), v))
            if not hit:
                continue
            witness = AttackWitness(atom, hit[0], paths[hit[0]])
            strong = not determines(fds, atom.key_vars, other.key_vars)
            edges[(atom.name, other.name)] = ReferenceAttackEdge(atom, other, strong, witness)
    return ReferenceAttackGraph(q, edges, variable_paths, fds, qg)


def reference_frozen_vars(
    q: ConjunctiveQuery, graph: ReferenceAttackGraph | None = None
) -> FrozenVariables:
    """A bound x is frozen when fdset over the atoms not attacking x yields {} -> x.

    The proof runs over those atoms and every head variable of q: a head
    variable that occurs in none of them is in no key and is not x, so it
    cannot change the proof.
    """
    g = graph if graph is not None else reference_attack_graph(q)
    certs: dict[str, SequentialProof] = {}
    for x in q.bound_vars:
        attackers = g.attackers_of_variable(x)
        rest = [a for a in q.atoms if a.name not in attackers]
        proof = reference_sequential_proof(rest, q.free_vars, (), x)
        if proof is not None:
            certs[x] = proof
    return FrozenVariables(frozenset(certs), certs)


def reference_keycl(
    atom: Atom, q: ConjunctiveQuery, fds: FunctionalDependencySet
) -> frozenset[str]:
    """keycl(atom, q) read off fds = fdset(q), where atom i owns dependency i + 1."""
    i = next((i for i, a in enumerate(q.atoms) if a.name == atom.name), None)
    if i is None:
        raise QueryError(f"atom {atom.name} is not part of {q.name}")
    rest = fds.deps[: i + 1] + fds.deps[i + 2 :]
    return FunctionalDependencySet(rest, fds.universe, fds.free).closure(atom.key_vars)


def reference_sequential_proof(
    atoms: Sequence[Atom], free: Iterable[str], base: Iterable[str], target: str
) -> SequentialProof | None:
    """`sequential_proof` over the given atoms with the head variables `free`."""
    base = frozenset(base)
    given = set(free) | base
    known = set(given)
    proof: list[Atom] = []
    used: set[str] = set()
    while target not in known:
        for atom in atoms:
            if atom.name not in used and atom.key_vars <= known:
                proof.append(atom)
                used.add(atom.name)
                known |= atom.variables
                break
        else:
            return None

    def covers(prefix: list[Atom]) -> bool:
        have = set(given)
        for a in prefix:
            have |= a.variables
        return target in have

    while proof and covers(proof[:-1]):
        proof.pop()
    return SequentialProof(tuple(proof), target, base)


class ReferenceFuxmanGraph(ReferenceDigraph):
    """Digraph over the atom names of one query."""

    def __init__(self, atoms: tuple[Atom, ...], edges: frozenset[tuple[str, str]]):
        super().__init__((a.name for a in atoms), edges)
        self.atoms = atoms

    def is_forest(self) -> bool:
        return self.topological_order() is not None and all(
            self.in_degree(a.name) <= 1 for a in self.atoms
        )


def reference_fuxman_graph(q: ConjunctiveQuery) -> ReferenceFuxmanGraph:
    """Edge R -> S whenever a bound non-key variable of R occurs in S."""
    bound = set(q.bound_vars)
    edges: set[tuple[str, str]] = set()
    for r in q.atoms:
        carried = r.nonkey_vars & bound
        for s in q.atoms:
            if s.name != r.name and carried & s.variables:
                edges.add((r.name, s.name))
    return ReferenceFuxmanGraph(q.atoms, frozenset(edges))


def reference_in_cforest(q: ConjunctiveQuery) -> bool:
    fg = reference_fuxman_graph(q)
    if not fg.is_forest():
        return False
    free = set(q.free_vars)
    byname = {a.name: a for a in q.atoms}
    return all(
        (byname[t].key_vars - free) <= byname[s].nonkey_vars for (s, t) in fg.edges
    )


# --- the id-set tests of the per-step analysis ---------------------------------
# Kept (renamed) as the one-pass classification is checked against: a Kahn
# sort per acyclicity test, frozen variables from one sequential proof per
# bound variable over the atoms that do not attack it, and atom tuples per
# component.  `reference_is_id_set` reads the reference attack graph and
# `reference_frozen_vars`, so no fault in `attack_graph` or the frozen set
# of `cqa.attacks` reaches it.

def reference_candidate_id_set(q: ConjunctiveQuery, graph: AttackGraph | None = None) -> frozenset[str]:
    """Bound key variables of unattacked atoms that occur at no non-key position.

    When the query has any id-set at all, this set is the unique minimal one.
    """
    g = graph if graph is not None else attack_graph(q)
    if not g.is_acyclic():
        raise CyclicAttackGraphError("attack graph is cyclic; no id-set exists")
    nonkey = set().union(*(a.nonkey_vars for a in q.atoms)) if q.atoms else set()
    bound = set(q.bound_vars)
    out: set[str] = set()
    for atom in g.unattacked_atoms():
        out |= (atom.key_vars & bound) - nonkey
    return frozenset(out)


def reference_is_id_set(
    q: ConjunctiveQuery,
    xs: Iterable[str],
    graph: ReferenceAttackGraph | None = None,
) -> tuple[bool, IdSetViolation | None]:
    """Check the two id-set conditions for the tuple xs; on failure the
    violation names the offending atom (and separating path, if any)."""
    xs = _check_bound(q, xs)
    g = graph if graph is not None else reference_attack_graph(q)

    # (1) every component owns an unattacked atom whose key xs determines
    unattacked = {a.name for a in g.unattacked_atoms()}
    closure = g.fds.closure(xs)
    for comp in g.components():
        sources = [a for a in comp if a.name in unattacked]
        if not any(a.key_vars <= closure for a in sources):
            return False, IdSetViolation(atom=sources[0].name if sources else comp[0].name, path=None)

    # (2) no query-graph path from a non-key variable to xs may dodge both
    # the atom's key and the frozen variables
    frozen = reference_frozen_vars(q, g).vars
    qg = g.query_graph
    targets = set(xs)
    for atom in q.atoms:
        parent = qg.reach(atom.nonkey_vars, qg.vertices - atom.key_vars - frozen)
        hit = next((v for v in parent if v in targets), None)
        if hit is not None:
            return False, IdSetViolation(atom=atom.name, path=path_to(parent, hit))
    return True, None


def reference_report(
    q: ConjunctiveQuery, g: ReferenceAttackGraph, cforest: bool = False
) -> ClassificationReport:
    """`in_cparsimony` for a caller that keeps the attack graph `g` of `q` and
    needs only the Cparsimony fields; `in_cforest` is `cforest` as given."""
    acyclic = g.is_acyclic()
    strong = tuple((e.source.name, e.target.name) for e in g.strong_edges())
    if not acyclic or strong:
        return ClassificationReport(acyclic, strong, None, None, False, cforest)
    candidate = tuple(sorted(reference_candidate_id_set(q, g)))
    ok, violation = reference_is_id_set(q, candidate, g)
    return ClassificationReport(
        acyclic=acyclic,
        strong_attacks=strong,
        id_set=candidate if ok else None,
        violation=violation,
        in_cparsimony=ok,
        in_cforest=cforest,
    )


def reference_attack_graph_dot(g: ReferenceAttackGraph) -> str:
    """DOT rendering: solid edges are weak attacks, bold edges strong."""
    return g.dot("attack_graph", {k for k, e in g.edges.items() if e.strong})


# --- the text front end that the one-pass parser replaced --------------------
# Kept verbatim (renamed) as the reference `parse_query` is checked against:
# a tokenizer that runs to the end of the text before parsing starts, one
# match per whitespace run, and a recursive-descent parser with peek/take.

_REFERENCE_TOKEN_RE = re.compile(
    r"""\s+
      | \#[^\n]*
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | '(?P<const>[^'\n]*)'
      | (?P<arrow>:-)
      | (?P<punct>[(),|.])
    """,
    re.VERBOSE,
)


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        if m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), pos))
        elif m.lastgroup == "const":
            tokens.append(("const", m.group("const"), pos))
        elif m.lastgroup == "arrow":
            tokens.append((":-", ":-", pos))
        elif m.lastgroup == "punct":
            tokens.append((m.group("punct"), m.group("punct"), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self, kind: str) -> str:
        tk, value, pos = self.tokens[self.i]
        if tk != kind:
            raise QuerySyntaxError(f"expected {kind!r} but found {value!r} at offset {pos}")
        self.i += 1
        return value

    def parse(self) -> ConjunctiveQuery:
        name = self.take("ident")
        self.take("(")
        head: list[str] = []
        if self.peek() != ")":
            head.append(self.take("ident"))
            while self.peek() == ",":
                self.take(",")
                head.append(self.take("ident"))
        self.take(")")
        self.take(":-")
        atoms: list[Atom] = []
        if self.peek() == "ident":
            atoms.append(self.atom())
            while self.peek() == ",":
                self.take(",")
                atoms.append(self.atom())
        self.take(".")
        self.take("eof")
        return ConjunctiveQuery(tuple(atoms), tuple(head), name=name)

    def term(self) -> Term:
        if self.peek() == "ident":
            return Term.var(self.take("ident"))
        if self.peek() == "const":
            return Term.const(self.take("const"))
        tk, value, pos = self.tokens[self.i]
        raise QuerySyntaxError(f"expected a term but found {value!r} at offset {pos}")

    def termlist(self) -> list[Term]:
        out: list[Term] = []
        if self.peek() in ("ident", "const"):
            out.append(self.term())
            while self.peek() == ",":
                self.take(",")
                out.append(self.term())
        return out

    def atom(self) -> Atom:
        rel = self.take("ident")
        self.take("(")
        keys = self.termlist()
        saw_pipe = self.peek() == "|"
        rest: list[Term] = []
        if saw_pipe:
            self.take("|")
            rest = self.termlist()
        self.take(")")
        args = keys + rest
        width = len(keys) if saw_pipe else len(args)
        return Atom(RelationSignature(rel, len(args), width), tuple(args))


def reference_parse_query(text: str) -> ConjunctiveQuery:
    return _ReferenceParser(_reference_tokenize(text)).parse()


def parse_outcome(parse, text: str):
    """What `parse(text)` yields, as plain data: the serialized query, its
    name and head, and every atom's signature and terms; or the class and
    message of the QueryError it raises."""
    try:
        q = parse(text)
    except QueryError as exc:
        return type(exc), str(exc)
    atoms = tuple((a.relation, a.args) for a in q.atoms)
    return serialize_query(q), q.name, q.free_vars, atoms
