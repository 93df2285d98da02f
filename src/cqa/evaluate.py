"""Query evaluation and range-consistent counting.

Two routes compute the same answers on purpose: `cqacount_parsimonious`
counts distinct id-set tuples over the answers of the widened query and
the certain ones among them (one join and one certainty filter, no
repairs), while `cqacount_oracle` joins every repair of the query's
relations, one matched fact per key block, and aggregates min/max counts
per group.  The oracle is the ground truth the fast route is checked against.

Both first-order passes run steps compiled once per query by one builder
from an atom order and the variables bound up front: per atom getters
over rows, the tuples of variable values in binding order, fed by a
matcher from fact values to the atom's variables.  The join binds
key-bound atoms first, then those with the most bound variables, and
reads a hash index per step over its relation's matches.  The certainty
check binds the head, then follows the attack graph's topological order
over key blocks and decides from the last step back: a step whose key
positions hold constants and variables bound before it reads the one
block under that key, and any other step indexes its relation's blocks
on each call.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .attacks import AttackGraph, attack_graph
from .classify import ClassificationReport, CyclicAttackGraphError, _report, in_cparsimony
from .errors import AnalysisRefusal, InputError, InternalError
from .instances import DEFAULT_REPAIR_CAP, DatabaseInstance, _picks, is_repair_of
from .queries import Atom, ConjunctiveQuery, make_free, substitute


class EvaluationError(InputError, ValueError):
    """Query and instance disagree on the schema."""


class NotInCparsimonyError(AnalysisRefusal):
    """Parsimonious counting refused; carries the classifier's certificate."""

    def __init__(self, report: ClassificationReport):
        self.report = report
        super().__init__(f"query not in Cparsimony: {self._detail()}")

    def _detail(self) -> str:
        if not self.report.acyclic:
            return "attack graph is cyclic"
        if self.report.strong_attacks:
            src, dst = self.report.strong_attacks[0]
            return f"strong attack {src} -> {dst}"
        return self.report.violation.describe()


class AnswerSet(NamedTuple):
    head: tuple[str, ...]
    tuples: frozenset[tuple[str, ...]]


class CountAnswer(NamedTuple):
    group: tuple[str, ...]
    count: int


class RangeAnswer(NamedTuple):
    group: tuple[str, ...]
    lower: int
    upper: int


def _check_schema(q: ConjunctiveQuery, db: DatabaseInstance) -> None:
    for atom in q.atoms:
        sig = db.schema.get(atom.name)
        if sig is None:
            raise EvaluationError(f"unknown relation {atom.name}")
        if sig != atom.relation:
            raise EvaluationError(
                f"relation {atom.name}: query expects arity {atom.relation.arity} "
                f"key {atom.relation.key_width}, instance declares arity {sig.arity} "
                f"key {sig.key_width}"
            )


def _getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The items of a tuple at `positions`, always as a tuple."""
    if len(positions) == 1:
        (i,) = positions
        return lambda t: (t[i],)
    return itemgetter(*positions) if positions else lambda t: ()


def _atom_vars(atom: Atom) -> tuple[str, ...]:
    """The atom's distinct variables in first-occurrence order: the layout of
    the values its matcher returns."""
    return tuple(dict.fromkeys(t.symbol for t in atom.args if t.is_var))


def _matcher(atom: Atom) -> Callable[[tuple[str, ...]], tuple[str, ...] | None]:
    """Fact values -> the values of `_atom_vars(atom)`, or None when the fact
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
    pick = _getter(tuple(first.values()))
    if not tests:
        return pick

    def match(values: tuple[str, ...]) -> tuple[str, ...] | None:
        for i, j, const in tests:
            if values[i] != (const if j is None else values[j]):
                return None
        return pick(values)

    return match


class _Step(NamedTuple):
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


def _key_getter(atom: Atom, slots: Mapping[str, int]) -> Callable[[tuple], tuple] | None:
    """Row -> the atom's key values, when every key position holds a constant
    or a variable in `slots` (always, for key width 0); otherwise None."""
    args = atom.key_args
    if any(t.is_var and t.symbol not in slots for t in args):
        return None
    if all(t.is_var for t in args):
        return _getter([slots[t.symbol] for t in args])
    parts = [(slots[t.symbol], None) if t.is_var else (None, t.symbol) for t in args]
    return lambda row: tuple(const if i is None else row[i] for i, const in parts)


def _compile_steps(
    order: Sequence[Atom], slots: dict[str, int], certainty: bool = False
) -> tuple[_Step, ...]:
    """One step per atom of `order`; `slots` maps the variables bound up front
    to their slots, and each step appends the variables it binds first.
    Steps of the certainty check also get `reads` and `key`."""
    later = list(accumulate((a.variables for a in reversed(order)), frozenset.union))
    steps = []
    for atom, read in zip(order, reversed(later)):
        names = _atom_vars(atom)
        bound = [i for i, v in enumerate(names) if v in slots]
        fresh = [i for i, v in enumerate(names) if v not in slots]
        probe = _getter([slots[names[i]] for i in bound])
        checks = ()
        if certainty:
            reads = _getter(sorted(slots[v] for v in read if v in slots))
            checks = (reads, _key_getter(atom, slots))
        for i in fresh:
            slots[names[i]] = len(slots)
        steps.append(_Step(atom, probe, _getter(bound), _getter(fresh), *checks))
    return tuple(steps)


class _Join(NamedTuple):
    steps: tuple[_Step, ...]
    head: Callable[[tuple], tuple]  # row -> answer tuple


def _compile_join(atoms: Sequence[Atom], head: Sequence[str]) -> _Join:
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
    return _Join(_compile_steps(order, slots), _getter([slots[v] for v in head]))


def _matches(plan: _Join, db: DatabaseInstance) -> list[Iterator[tuple[str, ...]]]:
    """Per step, a lazy matcher pass over its relation: a join that dies
    early never matches the relations of its later steps."""
    return [
        (m for m in map(_matcher(step.atom), db._rows[step.atom.name]) if m is not None)
        for step in plan.steps
    ]


def _join(plan: _Join, matches: Sequence[Iterable[tuple]]) -> set[tuple[str, ...]]:
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


def evaluate(q: ConjunctiveQuery, db: DatabaseInstance) -> AnswerSet:
    """All head tuples with a satisfying valuation, by a join compiled for
    the query (every atom through a hash index on its bound variables)."""
    _check_schema(q, db)
    plan = _compile_join(q.atoms, q.free_vars)
    return AnswerSet(q.free_vars, frozenset(_join(plan, _matches(plan, db))))


def _group_counts(tuples: AbstractSet[tuple[str, ...]], width: int) -> dict[tuple[str, ...], int]:
    """Distinct tuples per group of their first `width` values; the tuples
    come as a set, so counting them counts distinct remainders."""
    counts: dict[tuple[str, ...], int] = {}
    for t in tuples:
        group = t[:width]
        counts[group] = counts.get(group, 0) + 1
    return counts


def _counting_join(q_full: ConjunctiveQuery, group_vars: tuple[str, ...]) -> _Join:
    """The join of a full query with the grouping variables leading its answers."""
    if q_full.bound_vars:
        raise EvaluationError(f"counting requires a full query; {q_full.bound_vars} are bound")
    if len(set(group_vars)) != len(group_vars) or not set(group_vars) <= set(q_full.free_vars):
        raise EvaluationError(f"grouping variables {group_vars} must be distinct head variables")
    rest = tuple(v for v in q_full.free_vars if v not in group_vars)
    return _compile_join(q_full.atoms, group_vars + rest)


def count_by(
    q_full: ConjunctiveQuery, group_vars: Iterable[str], db: DatabaseInstance
) -> frozenset[CountAnswer]:
    """Distinct remaining-variable tuples per group, on the instance as-is."""
    group_vars = tuple(group_vars)
    plan = _counting_join(q_full, group_vars)
    _check_schema(q_full, db)
    counts = _group_counts(_join(plan, _matches(plan, db)), len(group_vars))
    return frozenset(CountAnswer(group, n) for group, n in counts.items())


# --- certain answers --------------------------------------------------------

def _elimination_plan(q: ConjunctiveQuery, graph: AttackGraph) -> tuple[_Step, ...]:
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
    return _compile_steps([q.atom(n) for n in names], slots, certainty=True)


def _entries(step: _Step, db: DatabaseInstance) -> Callable[[tuple], Sequence[list[tuple]]]:
    """Binding -> one entry per usable block under it: the new-variable values
    of the block's facts.  A block is usable when every fact matches the
    atom and agrees with the binding on the atom's bound variables; any
    other block fails the binding.

    A step whose key is fixed reads the one block under its key.  Any other
    step probes an index of its relation's usable blocks by their bound
    values, built from one matcher pass over the relation on each call.
    """
    blocks, match = db._blocks[step.atom.name], _matcher(step.atom)
    key, probe, own, new = step.key, step.probe, step.own, step.new
    if key is None:
        index: dict[tuple, list[list[tuple]]] = {}
        for rows in blocks.values():
            got = [m for row in rows if (m := match(row)) is not None]
            if len(got) == len(rows):
                probes = {own(m) for m in got}
                if len(probes) == 1:
                    index.setdefault(probes.pop(), []).append([new(m) for m in got])
        return lambda slots: index.get(probe(slots), ())

    def entries(slots: tuple) -> Sequence[list[tuple]]:
        rows = blocks.get(key(slots))
        if rows is None:
            return ()
        want = probe(slots)
        got = []
        for row in rows:
            m = match(row)
            if m is None or own(m) != want:
                return ()
            got.append(new(m))
        return (got,)

    return entries


def _certain_among(
    plan: tuple[_Step, ...],
    candidates: Iterable[tuple[str, ...]],
    db: DatabaseInstance,
) -> frozenset[tuple[str, ...]]:
    """The candidate head tuples that hold in every repair.

    A binding is certain at step i when some usable block under it (see
    `_entries`) has every fact certain at step i + 1; at the last step that
    is a usable block at all.  Bindings that agree on what step i and later
    ones read agree on that, so a forward pass keeps one binding per
    distinct read at each step (a candidate at the first) and, per binding,
    the reads its blocks' facts lead to; certainty is then decided from the
    last step back over those, without recursion or a second lookup.
    """
    if not plan:
        return frozenset(candidates)
    lookups = [_entries(step, db) for step in plan]
    level: dict[tuple, tuple] = {c: c for c in candidates}
    # per step but the last, per binding: (its read, the reads of each usable block's facts)
    passes: list[list[tuple[tuple, list[list[tuple]]]]] = []
    for lookup, after in zip(lookups, plan[1:]):
        read = after.reads  # what the next step reads
        reach: dict[tuple, tuple] = {}
        found = []
        for at, slots in level.items():
            blocks = []
            for entry in lookup(slots):
                reads = []
                for values in entry:
                    row = slots + values
                    r = read(row)
                    reach.setdefault(r, row)
                    reads.append(r)
                blocks.append(reads)
            found.append((at, blocks))
        passes.append(found)
        level = reach
    last = lookups[-1]
    certain = {at: bool(last(slots)) for at, slots in level.items()}
    for found in reversed(passes):
        known, certain = certain, {}
        for at, blocks in found:
            ok = False  # plain loops: any/all generators here cost about 10% on employee
            for reads in blocks:
                for r in reads:
                    if not known[r]:
                        break
                else:
                    ok = True
                    break
            certain[at] = ok
    return frozenset(c for c, ok in certain.items() if ok)


def _plain_and_certain(
    q: ConjunctiveQuery, db: DatabaseInstance, graph: AttackGraph
) -> tuple[set[tuple[str, ...]], frozenset[tuple[str, ...]]]:
    """The plain answers of `q` and the certain ones among them."""
    plan = _elimination_plan(q, graph)
    _check_schema(q, db)
    join = _compile_join(q.atoms, q.free_vars)
    plain = _join(join, _matches(join, db))
    return plain, _certain_among(plan, plain, db)


def certain_answers(q: ConjunctiveQuery, db: DatabaseInstance) -> AnswerSet:
    """Tuples true in every repair, by the compiled first-order rewriting.

    Requires an acyclic attack graph; candidates come from the plain
    answers (a sound superset) and are filtered by one elimination plan.
    """
    return AnswerSet(q.free_vars, _plain_and_certain(q, db, attack_graph(q))[1])


# --- range-consistent counting ----------------------------------------------

def cqacount_oracle(
    q_full: ConjunctiveQuery,
    group_vars: Iterable[str],
    db: DatabaseInstance,
    cap: int = DEFAULT_REPAIR_CAP,
) -> frozenset[RangeAnswer]:
    """Tight [min, max] counts per group over every repair.

    Each atom's matcher runs once over the blocks of its relation; every
    pick of one member per block of the query's relations (a repair of
    those relations, so `cap` bounds their repairs) is joined from those
    matches.  A group qualifies only when every repair produces it; the
    bounds are attained by actual repairs by construction.
    """
    group_vars = tuple(group_vars)
    plan = _counting_join(q_full, group_vars)
    _check_schema(q_full, db)
    relations = [(_matcher(step.atom), db._blocks[step.atom.name].values()) for step in plan.steps]
    blocks = [[tuple(map(match, rows)) for rows in by_key] for match, by_key in relations]
    stats: dict[tuple[str, ...], tuple[int, int, int]] = {}
    repairs = 0
    for picks in _picks(blocks, cap):
        repairs += 1
        matches = [[m for m in got if m is not None] for got in picks]
        counts = _group_counts(_join(plan, matches), len(group_vars))
        for group, count in counts.items():
            hits, low, high = stats.get(group, (0, count, count))
            stats[group] = (hits + 1, min(low, count), max(high, count))
    return frozenset(
        RangeAnswer(group, low, high)
        for group, (hits, low, high) in stats.items()
        if hits == repairs
    )


def cqacount_parsimonious(
    q: ConjunctiveQuery, db: DatabaseInstance
) -> frozenset[RangeAnswer]:
    """Range-consistent counts without touching any repair.

    Upper bounds count distinct id-set tuples among the plain answers of
    the widened query; lower bounds count them among the certain ones,
    which are filtered from the same plain answers.  The answer groups
    are the groups with a lower bound.  Raises NotInCparsimonyError (with
    the classifier's certificate) when the query is outside the class.
    """
    graph = attack_graph(q)
    report = _report(q, graph)
    if not report.in_cparsimony:
        raise NotInCparsimonyError(in_cparsimony(q))
    width = len(q.free_vars)
    plain, certain = _plain_and_certain(make_free(q, report.id_set or ()), db, graph)
    upper = _group_counts(plain, width)
    lower = _group_counts(certain, width)
    out = set()
    for group, m in sorted(lower.items()):
        n = upper.get(group, 0)
        if not 1 <= m <= n:
            raise InternalError(f"inconsistent parsimonious bounds [{m}, {n}] for group {group}")
        out.add(RangeAnswer(group, m, n))
    return frozenset(out)


# --- repair quality checks ----------------------------------------------------

def _fix_group(query: ConjunctiveQuery, group: tuple[str, ...]) -> ConjunctiveQuery:
    """Pin the leading head variables to the group's constants."""
    return substitute(query, query.free_vars[: len(group)], group)


def is_optimistic_repair(
    repair: DatabaseInstance,
    db: DatabaseInstance,
    query: ConjunctiveQuery,
    group: tuple[str, ...],
) -> bool:
    """Does the repair preserve every answer the full instance has for this group?"""
    if not is_repair_of(repair, db):
        raise EvaluationError("candidate is not a repair of the instance")
    fixed = _fix_group(query, group)
    _check_schema(fixed, db)  # and so on `repair`, whose schema is that of `db`
    plan = _compile_join(fixed.atoms, fixed.free_vars)
    return _join(plan, _matches(plan, db)) <= _join(plan, _matches(plan, repair))


def is_pessimistic_repair(
    repair: DatabaseInstance,
    db: DatabaseInstance,
    query: ConjunctiveQuery,
    group: tuple[str, ...],
) -> bool:
    """Does every answer on the repair hold in all repairs (for this group)?"""
    if not is_repair_of(repair, db):
        raise EvaluationError("candidate is not a repair of the instance")
    fixed = _fix_group(query, group)
    return evaluate(fixed, repair).tuples <= certain_answers(fixed, db).tuples


# --- result emission -----------------------------------------------------------

_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def range_answers_tsv(answers: Iterable[RangeAnswer]) -> str:
    r"""One line per group; a backslash, tab, LF or CR inside a value is
    written as `\\`, `\t`, `\n` or `\r`."""
    lines = [
        "\t".join([*(v.translate(_TSV_ESCAPES) for v in a.group), str(a.lower), str(a.upper)])
        for a in sorted(answers)
    ]
    return "\n".join(lines)


def range_answers_json(answers: Iterable[RangeAnswer]) -> list[dict]:
    return [
        {"group": list(a.group), "m": a.lower, "n": a.upper} for a in sorted(answers)
    ]
