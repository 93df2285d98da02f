"""Query evaluation and range-consistent counting.

Two routes compute the same answers on purpose: `cqacount_parsimonious`
counts distinct id-set tuples over the answers of the widened query and
the certain ones among them (one join and one certainty filter, no
repairs), while `cqacount_oracle` enumerates
every repair and aggregates min/max counts per group.  The oracle is the
ground truth the fast route is checked against.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Mapping, NamedTuple

from .attacks import attack_graph
from .classify import ClassificationReport, CyclicAttackGraphError, in_cparsimony
from .errors import AnalysisRefusal, InputError, InternalError
from .instances import (
    DEFAULT_REPAIR_CAP,
    DatabaseInstance,
    Fact,
    enumerate_repairs,
    is_repair_of,
)
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
        if self.report.violation is not None:
            return self.report.violation.describe()
        return "no id-set"


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


def _unify(atom: Atom, fact: Fact, binding: Mapping[str, str]) -> dict[str, str] | None:
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


def _candidates(atom: Atom, binding: Mapping[str, str], db: DatabaseInstance) -> tuple[Fact, ...]:
    key: list[str] = []
    for term in atom.key_args:
        value = binding.get(term.symbol) if term.is_var else term.symbol
        if value is None:
            return db.relation_facts(atom.name)
        key.append(value)
    return db.block(atom.name, tuple(key))


def evaluate(q: ConjunctiveQuery, db: DatabaseInstance) -> AnswerSet:
    """All head tuples with a satisfying valuation (naive join, key-hash lookups)."""
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


def _group_counts(tuples: Iterable[tuple[str, ...]], width: int) -> dict[tuple[str, ...], int]:
    seen: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
    for t in tuples:
        seen.setdefault(t[:width], set()).add(t[width:])
    return {group: len(rest) for group, rest in seen.items()}


def count_by(
    q_full: ConjunctiveQuery, group_vars: Iterable[str], db: DatabaseInstance
) -> frozenset[CountAnswer]:
    """Distinct remaining-variable tuples per group, on the instance as-is."""
    group_vars = tuple(group_vars)
    if q_full.bound_vars:
        raise EvaluationError(f"counting requires a full query; {q_full.bound_vars} are bound")
    if len(set(group_vars)) != len(group_vars) or not set(group_vars) <= set(q_full.free_vars):
        raise EvaluationError(f"grouping variables {group_vars} must be distinct head variables")
    answers = evaluate(q_full, db)
    rest = [v for v in answers.head if v not in group_vars]
    order = [answers.head.index(v) for v in group_vars + tuple(rest)]
    counts = _group_counts((tuple(t[i] for i in order) for t in answers.tuples), len(group_vars))
    return frozenset(CountAnswer(group, n) for group, n in counts.items())


# --- certain answers --------------------------------------------------------

class _Step(NamedTuple):
    """One atom of the elimination order, with its variables split by when they bind."""

    atom: Atom
    probe: tuple[str, ...]  # bound by the head or an earlier step
    new: tuple[str, ...]  # first bound here
    reads: tuple[str, ...]  # bound variables this step and later ones read


def _elimination_plan(q: ConjunctiveQuery) -> tuple[_Step, ...]:
    """A topological order of the attack graph, computed once per query.

    Grounding the variables of an unattacked atom only removes attacks, so
    the order stays valid after any candidate tuple and any earlier step
    have been bound.
    """
    names = attack_graph(q).topological_order()
    if names is None:
        raise CyclicAttackGraphError(
            "attack graph is cyclic: no first-order certainty check; use the repair oracle"
        )
    order = [q.atom(name) for name in names]
    bound = set(q.free_vars)
    steps = []
    for i, atom in enumerate(order):
        later = frozenset().union(*(a.variables for a in order[i:]))
        steps.append(_Step(
            atom,
            tuple(sorted(atom.variables & bound)),
            tuple(sorted(atom.variables - bound)),
            tuple(sorted(bound & later)),
        ))
        bound |= atom.variables
    return tuple(steps)


def _block_index(
    step: _Step, db: DatabaseInstance
) -> dict[tuple[str, ...], list[tuple[tuple[str, ...], ...]]]:
    """Probe values -> one entry per usable block: the new-variable values of its facts.

    A block is usable when every fact unifies with the atom and all facts
    agree on the probe variables; any other block fails for every binding.
    """
    width = step.atom.relation.key_width
    index: dict[tuple[str, ...], list[tuple[tuple[str, ...], ...]]] = {}
    for _, block in groupby(db.relation_facts(step.atom.name), key=lambda f: f.values[:width]):
        probes: set[tuple[str, ...]] = set()
        news: list[tuple[str, ...]] = []
        for fact in block:
            binding = _unify(step.atom, fact, {})
            if binding is None:
                break
            probes.add(tuple(binding[v] for v in step.probe))
            news.append(tuple(binding[v] for v in step.new))
        else:
            if len(probes) == 1:
                index.setdefault(probes.pop(), []).append(tuple(news))
    return index


def _certain_among(
    q: ConjunctiveQuery,
    plan: tuple[_Step, ...],
    candidates: Iterable[tuple[str, ...]],
    db: DatabaseInstance,
) -> frozenset[tuple[str, ...]]:
    """The candidate head tuples of `q` that hold in every repair.

    A binding is certain at step i when some block under its probe values
    has every fact certain at step i + 1.
    """
    indexes = [_block_index(step, db) for step in plan]
    memo: list[dict[tuple[str, ...], bool]] = [{} for _ in plan]

    def certain(i: int, binding: dict[str, str]) -> bool:
        if i == len(plan):
            return True
        step = plan[i]
        key = tuple(binding[v] for v in step.reads)
        hit = memo[i].get(key)
        if hit is None:
            hit = any(
                all(certain(i + 1, binding | dict(zip(step.new, values))) for values in entry)
                for entry in indexes[i].get(tuple(binding[v] for v in step.probe), ())
            )
            memo[i][key] = hit
        return hit

    return frozenset(c for c in candidates if certain(0, dict(zip(q.free_vars, c))))


def certain_answers(q: ConjunctiveQuery, db: DatabaseInstance) -> AnswerSet:
    """Tuples true in every repair, by the compiled first-order rewriting.

    Requires an acyclic attack graph; candidates come from the plain
    answers (a sound superset) and are filtered by one elimination plan.
    """
    plan = _elimination_plan(q)
    return AnswerSet(q.free_vars, _certain_among(q, plan, evaluate(q, db).tuples, db))


# --- range-consistent counting ----------------------------------------------

def cqacount_oracle(
    q_full: ConjunctiveQuery,
    group_vars: Iterable[str],
    db: DatabaseInstance,
    cap: int = DEFAULT_REPAIR_CAP,
) -> frozenset[RangeAnswer]:
    """Tight [min, max] counts per group over every repair.

    A group qualifies only when every repair produces it; the bounds are
    attained by actual repairs by construction.
    """
    group_vars = tuple(group_vars)
    stats: dict[tuple[str, ...], list[int]] = {}
    repairs = 0
    for repair in enumerate_repairs(db, cap):
        repairs += 1
        for answer in count_by(q_full, group_vars, repair):
            rec = stats.get(answer.group)
            if rec is None:
                stats[answer.group] = [1, answer.count, answer.count]
            else:
                rec[0] += 1
                rec[1] = min(rec[1], answer.count)
                rec[2] = max(rec[2], answer.count)
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
    report = in_cparsimony(q)
    if not report.in_cparsimony:
        raise NotInCparsimonyError(report)
    widened = make_free(q, report.id_set or ())
    width = len(q.free_vars)
    plain = evaluate(widened, db).tuples
    upper = _group_counts(plain, width)
    lower = _group_counts(_certain_among(widened, _elimination_plan(widened), plain, db), width)
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
    return evaluate(fixed, db).tuples <= evaluate(fixed, repair).tuples


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

def range_answers_tsv(answers: Iterable[RangeAnswer]) -> str:
    lines = [
        "\t".join([*a.group, str(a.lower), str(a.upper)]) for a in sorted(answers)
    ]
    return "\n".join(lines)


def range_answers_json(answers: Iterable[RangeAnswer]) -> list[dict]:
    return [
        {"group": list(a.group), "m": a.lower, "n": a.upper} for a in sorted(answers)
    ]
