"""Query evaluation and range-consistent counting.

Two routes compute the same answers on purpose: `cqacount_parsimonious`
counts distinct id-set tuples over the answers of the widened query and
the certain ones among them (first-order passes only, no repairs), while
`cqacount_oracle` joins every repair of the query's relations, one fact
per key block, and aggregates min/max counts per group.  The oracle is the
ground truth the fast route is checked against.

Each first-order pass runs steps compiled once per query from one scan of
each atom (`_scan`): the join's by `_compile_join`, and the certainty
check's by `_elimination_plan`, which `_plain_and_certain` decides in one
loop without a join.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, le
from typing import AbstractSet, Callable, Collection, Iterable, NamedTuple, Sequence

from .attacks import AttackGraph, attack_graph
from .classify import ClassificationReport, CyclicAttackGraphError, _report, in_cforest
from .errors import AnalysisRefusal, InputError, InternalError
from .instances import DEFAULT_REPAIR_CAP, DatabaseInstance, _picks, is_repair_of
from .queries import Atom, ConjunctiveQuery, substitute


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


# `RangeAnswer._make` without its length check
_range_answer = partial(tuple.__new__, RangeAnswer)


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


def _values(positions: list[int]) -> Callable[[tuple], tuple]:
    """The items of a row at `positions` as a tuple, by one C-level getter (a
    slice for a contiguous run, so one or no position gives a tuple too)."""
    if not positions or positions == list(range(positions[0], positions[-1] + 1)):
        return itemgetter(slice(positions[0], positions[-1] + 1) if positions else slice(0))
    return itemgetter(*positions)


def _grouper(positions: list[int]) -> Callable[[tuple], object]:
    """A row's group or hash key at `positions`: one value bare, as its hash
    is cached, several as a tuple and none as `()` (see `_values`)."""
    return itemgetter(positions[0]) if len(positions) == 1 else _values(positions)


def _scan(atom: Atom) -> tuple[dict[str, int], Callable[[tuple], bool] | None]:
    """Each variable of the atom -> its first position, and the atom's row
    test: does a row hold the atom's constants and give each repeated
    variable one value (None when the atom has neither)."""
    first: dict[str, int] = {}
    consts, repeats = [], []
    for i, t in enumerate(atom.args):
        if not t.is_var:
            consts.append(i)
        elif t.symbol in first:
            repeats.append(i)
        else:
            first[t.symbol] = i
    if not consts and not repeats:
        return first, None
    if len(consts) == 1 and not repeats:  # one bare compare, no 1-tuple per row
        i, c = consts[0], atom.args[consts[0]].symbol
        return first, lambda row: row[i] == c
    at, want = _values(consts + repeats), tuple(atom.args[i].symbol for i in consts)
    same = _values([first[atom.args[i].symbol] for i in repeats])
    return first, lambda row: at(row) == want + same(row)


class _JoinStep(NamedTuple):
    """One atom of a compiled join.  Bindings are tuples of slots, the
    variables each step binds first in step order; fact rows are read at
    each variable's first position."""

    atom: Atom
    test: Callable[[tuple], bool] | None  # fact row -> fits constants and repeats
    probe: Callable[[tuple], object] | None  # binding -> the atom's variables bound earlier
    own: Callable[[tuple], object] | None  # fact row -> the same variables
    new: Callable[[tuple], tuple]  # fact row -> the variables first bound here


class _Join(NamedTuple):
    steps: tuple[_JoinStep, ...]
    head: Callable[[tuple], tuple]  # binding -> answer tuple


def _compile_join(atoms: Sequence[Atom], head: Sequence[str]) -> _Join:
    """A join order chosen once per query: atoms whose key is bound first,
    then the atom with the most bound variables, ties in query order."""
    slots: dict[str, int] = {}  # each variable bound so far -> its slot
    bound, steps, todo = slots.keys(), [], list(atoms)
    while todo:
        atom = min(todo, key=lambda a: (not a.key_vars <= bound, -len(a.variables & bound)))
        todo.remove(atom)
        first, test = _scan(atom)
        earlier = [v for v in first if v in slots]
        fresh = [v for v in first if v not in slots]
        # hash keys: one value bare, several as a tuple, no index for none
        probe = itemgetter(*[slots[v] for v in earlier]) if earlier else None
        own = itemgetter(*[first[v] for v in earlier]) if earlier else None
        steps.append(_JoinStep(atom, test, probe, own, _values([first[v] for v in fresh])))
        for v in fresh:
            slots[v] = len(slots)
    return _Join(tuple(steps), _values([slots[v] for v in head]))


def _relations(plan: _Join, db: DatabaseInstance) -> list[tuple[tuple[str, ...], ...]]:
    return [db._rows[step.atom.name] for step in plan.steps]


def _join(plan: _Join, relations: Sequence[Iterable[tuple]]) -> set[tuple[str, ...]]:
    """The distinct answer tuples of a compiled join over one collection of
    fact rows per step.  A step with bound variables reads a hash index on
    them over the rows that pass its test; a step without crosses them."""
    bindings: list[tuple] = [()]
    for step, rows in zip(plan.steps, relations):
        new, probe = step.new, step.probe
        if step.test:
            rows = filter(step.test, rows)
        if probe is None:
            news = list(map(new, rows))
            bindings = [b + n for b in bindings for n in news]
        else:
            index: dict[object, list[tuple]] = {}
            own = step.own
            for row in rows:
                index.setdefault(own(row), []).append(new(row))
            bindings = [b + n for b in bindings for n in index.get(probe(b), ())]
        if not bindings:
            break
    return set(map(plan.head, bindings))


def evaluate(q: ConjunctiveQuery, db: DatabaseInstance) -> AnswerSet:
    """All head tuples with a satisfying valuation, by a join compiled for
    the query (every atom through a hash index on its bound variables)."""
    _check_schema(q, db)
    plan = _compile_join(q.atoms, q.free_vars)
    return AnswerSet(q.free_vars, frozenset(_join(plan, _relations(plan, db))))


def _group_counts(tuples: AbstractSet[tuple[str, ...]], width: int) -> dict[tuple[str, ...], int]:
    """Distinct tuples per group of their first `width` values; the tuples
    come as a set, so counting them counts distinct remainders.  One group
    value is counted bare, as its hash is cached, and wrapped at the end.
    A `Counter` costs the oracle more than it saves on a repair's few tuples."""
    counts: dict = {}
    for group in map(itemgetter(0) if width == 1 else itemgetter(slice(width)), tuples):
        counts[group] = counts.get(group, 0) + 1
    return {(g,): n for g, n in counts.items()} if width == 1 else counts


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
    counts = _group_counts(_join(plan, _relations(plan, db)), len(group_vars))
    return frozenset(CountAnswer(group, n) for group, n in counts.items())


# --- certain answers --------------------------------------------------------

class _Step(NamedTuple):
    """One atom of a compiled certainty check.  The slots are the head's
    variables, then those each step binds first; a read is some of them."""

    atom: Atom
    test: Callable[[tuple], bool] | None  # fact row -> fits constants and repeats
    mine: Callable[[tuple], tuple]  # fact row + a next read -> what it and later steps read
    # fact row -> what the fact shares with the next step's read, and that
    # read -> the same, both one value bare (see `_grouper`); `ahead` is None
    # at the last step, and `keyof` gives the whole read when the fact holds it
    ahead: Callable[[tuple], object] | None
    keyof: Callable[[tuple], object]
    fans: bool  # see `_plain_and_certain`
    holds: bool  # the read holds every key variable, so two blocks never give one read
    # at a count's first step: `mine`'s argument -> the read's first `width` values
    group: Callable[[tuple], object] | None


def _elimination_plan(
    graph: AttackGraph, head: tuple[str, ...], width: int | None = None
) -> tuple[_Step, ...]:
    """One step per atom of `graph.query`, in a topological order of `graph`,
    compiled once per query and `head` (its own or one widened by bound
    variables); with a `width`, the first step takes the group value of each read.

    Grounding the variables of an unattacked atom or making variables free
    only removes attacks, so the order stays valid for a widened head and
    after any candidate tuple and any earlier step have been bound.
    """
    names = graph.topological_order()
    if names is None:
        raise CyclicAttackGraphError(
            "attack graph is cyclic: no first-order certainty check; use the repair oracle"
        )
    order = [graph.query.atom(n) for n in names]
    later = [*accumulate((a.variables for a in reversed(order)), frozenset.union)][::-1]
    slots = {v: i for i, v in enumerate(head)}
    steps = []
    for k, atom in enumerate(order):
        first, test = _scan(atom)
        read = [v for v in slots if v in later[k]]  # in slot order
        for v in first:
            slots.setdefault(v, len(slots))
        nxt = order[k + 1] if k + 1 < len(order) else None
        after = [v for v in slots if v in later[k + 1]] if nxt else []  # the next read
        shared = [v for v in after if v in first]
        positions = [first[v] if v in first else len(atom.args) + after.index(v) for v in read]
        # the first read is the head, so a group is its first `width` values
        group = _grouper(positions[:width]) if k == 0 and width is not None else None
        ahead = _grouper([first[v] for v in shared]) if nxt else None
        keyof = _grouper([after.index(v) for v in shared])
        # it fans out when some variable of `read` is not the atom's own
        # (never at the last step) and the atom does not fix the next key
        fans = not {*read} <= first.keys() and not nxt.key_vars <= first.keys()
        holds = atom.key_vars <= {*read}
        steps.append(_Step(atom, test, _values(positions), ahead, keyof, fans, holds, group))
    return tuple(steps)


def _by_key(reads: Iterable[tuple], keyof: Callable[[tuple], object]) -> dict[object, list[tuple]]:
    """The reads grouped by what `keyof` gives each."""
    by: dict[object, list[tuple]] = {}
    for read in reads:
        by.setdefault(keyof(read), []).append(read)
    return by


def _plain_and_certain(
    graph: AttackGraph, db: DatabaseInstance, head: tuple[str, ...], width: int | None = None
) -> tuple[Iterable, Iterable]:
    """The certain answers of `graph.query` with the head `head` and its
    other plain answers, two collections that repeat no answer and share
    none; with a `width`, the group value of each answer instead (its first
    `width` values, one bare, see `_grouper`), once per answer.

    A binding is certain at step i when some usable block under it has
    every fact certain at step i + 1 (at the last step, when there is such
    a block).  A block is usable when every fact passes the atom's test and
    agrees with the binding on the atom's bound variables.  Certainty at a
    step depends only on what it and later steps read.

    One loop decides every step of the plan, the last first, from one walk
    over its relation into its certain reads and its other plain reads
    (with no step, the empty read is certain); every head variable is in
    some atom, so the first step's reads are the answers.  Each fact finds
    the next step's reads by what it shares with them, its `ahead` against
    their `keyof`, and is read together with them.

    Until `fanned` is set, at the last step that `fans` out, a key holds
    at most one certain read and a key with one holds no other: by
    induction from the last step, where each fact has one read, a block
    with a certain read has it as its only plain read (a key-joined step's
    key holds the next atom's key, so one key is one block; any other key
    is the whole read).  A pass-through-free step's fact holds the whole
    next read, and a key-joined step's fact fixes the next key, the certain
    read bringing the earlier variables the fact lacks; a fact that finds
    no certain read is read with each other plain read under its key.  A
    block's reads are certain when it is `whole`, every fact passing the
    test and (but at the last step) finding a certain read, and they are
    one read, as a fact of a whole block adds exactly its one read;
    otherwise they are other plain reads.  The rows of single-fact blocks,
    which always agree, go through one flat loop (one `map` at the last
    step).  A step's read holds each variable of the next read that its
    atom lacks, so one fact's reads are distinct, and a block of two or
    more facts dedups its reads in one set.  When the read also holds the
    atom's key variables (`holds`), two blocks never give one read, and
    both collections are lists; otherwise they become sets, and the
    certain reads leave the other ones.  A first step that holds gives a
    single-fact row's group value straight, by its `group`, and the others
    through `pick`; every other first step's reads go through `pick` once
    deduped.

    Once `fanned` is set, a key can hold several certain reads.  A fact's
    certain reads are its reads with each certain read under its key, and
    its plain reads likewise; a block's certain reads are those all its
    facts have, none once one fails the test.  So the first-order rewriting
    runs set at a time, with one fan-out level per step.
    """
    plan = _elimination_plan(graph, head, width)
    _check_schema(graph.query, db)
    pick = None if width is None else _grouper([*range(width)])
    certain: Collection = [()]
    other: Collection = []
    fanned = grouped = False
    for step in reversed(plan):
        test, mine, ahead, keyof = step.test, step.mine, step.ahead, step.keyof
        singles, conflicts = db._parts[step.atom.name]
        fanned |= step.fans
        if fanned:  # the intersection; a step that fans is never the last, so `ahead` is set
            sure, every = _by_key(certain, keyof), _by_key(chain(certain, other), keyof)
            certain, plain = set(), set()
            for rows in chain(zip(singles), conflicts):  # a single-fact row as a one-row block
                agreed: set[tuple] | None = None  # the reads every fact so far is certain of
                for row in rows:
                    if test and not test(row):
                        agreed = set()
                        continue
                    at = ahead(row)
                    plain.update([mine(row + rest) for rest in every.get(at, ())])
                    if agreed is None:
                        agreed = {mine(row + rest) for rest in sure.get(at, ())}
                    else:
                        agreed &= {mine(row + rest) for rest in sure.get(at, ())}
                certain |= agreed
            other = plain - certain
            continue
        grouped = step.group is not None and step.holds  # each read given once
        emit = step.group if grouped else mine
        if test:
            singles = filter(test, singles)
        if not ahead:  # the last step: each passing single-fact row's read is certain
            certain, other = [*map(emit, singles)], []
        else:
            nexts = dict(zip(map(keyof, certain), certain))
            below = _by_key(other, keyof)  # the next step's other plain reads by key
            certain, other = [], []
            keep = certain.append
            for row in singles:
                at = ahead(row)
                if (rest := nexts.get(at)) is not None:  # the key's one plain read
                    keep(emit(row + rest))
                else:
                    other += [emit(row + plain) for plain in below.get(at, ())]
        for rows in conflicts:
            whole = True  # every fact passes and, but at the last step, finds a certain read
            reads: set[tuple] = set()  # the block's plain reads
            for row in rows:
                if test and not test(row):
                    whole = False
                elif ahead:
                    at = ahead(row)
                    if (rest := nexts.get(at)) is not None:
                        reads.add(mine(row + rest))
                    else:
                        whole = False
                        reads.update([mine(row + plain) for plain in below.get(at, ())])
                else:
                    reads.add(mine(row))
            if whole and len(reads) == 1:  # the facts agree on the block's one read
                certain += map(pick, reads) if grouped else reads
            else:
                other += map(pick, reads) if grouped else reads
        if not step.holds:  # two blocks can give one read
            certain = {*certain}
            other = {*other} - certain
    if pick and not grouped:  # the first step's reads, deduped above
        return map(pick, certain), map(pick, other)
    return certain, other


def certain_answers(q: ConjunctiveQuery, db: DatabaseInstance) -> AnswerSet:
    """Tuples true in every repair, by the compiled first-order rewriting.

    Requires an acyclic attack graph, whose elimination order one loop
    decides (see `_plain_and_certain`).
    """
    certain = _plain_and_certain(attack_graph(q), db, q.free_vars)[0]
    return AnswerSet(q.free_vars, frozenset(certain))


# --- range-consistent counting ----------------------------------------------

def cqacount_oracle(
    q_full: ConjunctiveQuery,
    group_vars: Iterable[str],
    db: DatabaseInstance,
    cap: int = DEFAULT_REPAIR_CAP,
) -> frozenset[RangeAnswer]:
    """Tight [min, max] counts per group over every repair.

    Every pick of one member per block of the query's relations (a repair
    of those relations, so `cap` bounds their repairs) is joined as it is;
    the join's per-row test drops picked members that do not fit the atom.
    A group qualifies only when every repair produces it; the bounds are
    attained by actual repairs by construction.
    """
    group_vars = tuple(group_vars)
    plan = _counting_join(q_full, group_vars)
    _check_schema(q_full, db)
    parts = [db._parts[step.atom.name] for step in plan.steps]
    stats: dict[tuple[str, ...], tuple[int, int, int]] = {}
    repairs = 0
    for picks in _picks([(*zip(singles), *conflicts) for singles, conflicts in parts], cap):
        repairs += 1
        counts = _group_counts(_join(plan, picks), len(group_vars))
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
    the widened query; lower bounds count them among the certain ones, a
    subset of the plain answers.  `_plain_and_certain` gives the group value
    of each answer once, so a group's lower bound is the count of its value
    among the certain answers, and its upper bound that count plus the
    count among the other plain answers.  The answer groups are the groups
    with a lower bound.  Raises NotInCparsimonyError (with the classifier's
    certificate) when the query is outside the class.
    """
    graph = attack_graph(q)
    report = _report(graph)
    if not report.in_cparsimony:
        raise NotInCparsimonyError(replace(report, in_cforest=in_cforest(q)))
    width = len(q.free_vars)
    certain, other = _plain_and_certain(graph, db, q.free_vars + report.id_set, width)
    lower, more = Counter(certain), Counter(other)
    counts = lower.values()
    uppers = [*map(add, counts, map(more.get, lower, repeat(0)))]
    out = frozenset(map(_range_answer, zip(zip(lower) if width == 1 else lower, counts, uppers)))
    if min(counts, default=1) < 1 or not all(map(le, counts, uppers)):
        group, m, n = min(a for a in out if not 1 <= a.lower <= a.upper)
        raise InternalError(f"inconsistent parsimonious bounds [{m}, {n}] for group {group}")
    return out


# --- repair quality checks ----------------------------------------------------

def _pinned(
    repair: DatabaseInstance,
    db: DatabaseInstance,
    query: ConjunctiveQuery,
    group: tuple[str, ...],
) -> tuple[ConjunctiveQuery, _Join]:
    """The query with its leading head variables pinned to the group's
    constants, and its compiled join, once `repair` is checked to be a
    repair of `db` on the query's schema."""
    if not is_repair_of(repair, db):
        raise EvaluationError("candidate is not a repair of the instance")
    fixed = substitute(query, query.free_vars[: len(group)], group)
    _check_schema(fixed, db)  # and so on `repair`, whose schema is that of `db`
    return fixed, _compile_join(fixed.atoms, fixed.free_vars)


def is_optimistic_repair(
    repair: DatabaseInstance,
    db: DatabaseInstance,
    query: ConjunctiveQuery,
    group: tuple[str, ...],
) -> bool:
    """Does the repair preserve every answer the full instance has for this group?"""
    _, join = _pinned(repair, db, query, group)
    return _join(join, _relations(join, db)) <= _join(join, _relations(join, repair))


def is_pessimistic_repair(
    repair: DatabaseInstance,
    db: DatabaseInstance,
    query: ConjunctiveQuery,
    group: tuple[str, ...],
) -> bool:
    """Does every answer on the repair hold in all repairs (for this group)?"""
    fixed, join = _pinned(repair, db, query, group)
    certain = _plain_and_certain(attack_graph(fixed), db, fixed.free_vars)[0]
    return _join(join, _relations(join, repair)) <= {*certain}


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
