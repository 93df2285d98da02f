"""Membership tests for the two tractable counting classes.

The main entry point is `in_cparsimony`, which follows the quadratic
decision procedure: check the attack graph (acyclic, weak attacks only),
build the canonical candidate id-set V from the unattacked atoms, and
verify V by reachability in the query graph.  `in_cforest` implements the
older forest-shaped criterion for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .attacks import AttackGraph, _frozen, attack_graph
from .errors import AnalysisRefusal
from .graphs import Digraph, path_to
from .queries import ConjunctiveQuery, _check_bound


class CyclicAttackGraphError(AnalysisRefusal):
    pass


@dataclass(frozen=True)
class IdSetViolation:
    """Why a candidate tuple fails to be an id-set.

    `path` is a query-graph walk from notkey(atom) to a candidate variable
    that dodges key(atom) and all frozen variables; it is None when the
    failure is a component with no candidate-determined unattacked atom.
    """

    atom: str | None
    path: tuple[str, ...] | None

    def describe(self) -> str:
        if self.path is not None:
            return (
                f"path {' - '.join(self.path)} reaches an id-set variable from "
                f"notkey({self.atom}) avoiding key({self.atom}) and frozen variables"
            )
        return f"no unattacked atom in the component of {self.atom} has its key determined"


@dataclass(frozen=True)
class ClassificationReport:
    acyclic: bool
    strong_attacks: tuple[tuple[str, str], ...]
    id_set: tuple[str, ...] | None
    violation: IdSetViolation | None
    in_cparsimony: bool
    in_cforest: bool

    def to_json_dict(self) -> dict:
        return {
            "acyclic": self.acyclic,
            "strong_attacks": [list(e) for e in self.strong_attacks],
            "id_set": list(self.id_set) if self.id_set is not None else None,
            "cparsimony": self.in_cparsimony,
            "cforest": self.in_cforest,
            "violation": None
            if self.violation is None
            else {
                "atom": self.violation.atom,
                "path": list(self.violation.path) if self.violation.path else None,
            },
        }


def candidate_id_set(q: ConjunctiveQuery, graph: AttackGraph | None = None) -> frozenset[str]:
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


def is_id_set(
    q: ConjunctiveQuery,
    xs: Iterable[str],
    graph: AttackGraph | None = None,
) -> tuple[bool, IdSetViolation | None]:
    """Check the two id-set conditions for the tuple xs; on failure the
    violation names the offending atom (and separating path, if any)."""
    xs = _check_bound(q, xs)
    g = graph if graph is not None else attack_graph(q)

    # (1) every component owns an unattacked atom whose key xs determines
    closure = g.fds.closure(xs)
    for comp in g.components():
        sources = [n for n in comp if not g.in_degree(n)]
        if not any(q.atom(n).key_vars <= closure for n in sources):
            return False, IdSetViolation(atom=(sources or comp)[0], path=None)

    # (2) no query-graph path from a non-key variable to xs may dodge both
    # the atom's key and the frozen variables
    frozen = _frozen(g)
    qg = g.query_graph
    targets = set(xs)
    for atom in q.atoms:
        parent = qg.reach(atom.nonkey_vars, qg.vertices - atom.key_vars - frozen)
        hit = next((v for v in parent if v in targets), None)
        if hit is not None:
            return False, IdSetViolation(atom=atom.name, path=path_to(parent, hit))
    return True, None


def in_cparsimony(q: ConjunctiveQuery) -> ClassificationReport:
    """Full classification report; `id_set` is the minimal one when membership holds."""
    return _report(attack_graph(q), in_cforest(q))


def _report(g: AttackGraph, cforest: bool = False) -> ClassificationReport:
    """`in_cparsimony` of `g.query` for a caller that keeps its attack graph
    `g` and needs only the Cparsimony fields; `in_cforest` is `cforest` as given."""
    acyclic = g.is_acyclic()
    strong = g.strong_edges()
    if not acyclic or strong:
        return ClassificationReport(acyclic, strong, None, None, False, cforest)
    candidate = tuple(sorted(candidate_id_set(g.query, g)))
    ok, violation = is_id_set(g.query, candidate, g)
    return ClassificationReport(
        acyclic=acyclic,
        strong_attacks=strong,
        id_set=candidate if ok else None,
        violation=violation,
        in_cparsimony=ok,
        in_cforest=cforest,
    )


def _fuxman_edges(q: ConjunctiveQuery) -> Iterator[tuple[str, str]]:
    """Edge R -> S whenever a bound non-key variable of R occurs in S, once
    per such variable."""
    bound = set(q.bound_vars)
    holders: dict[str, list[str]] = {}  # variable -> the atoms it occurs in
    for a in q.atoms:
        for v in a.variables:
            holders.setdefault(v, []).append(a.name)
    return ((a.name, s) for a in q.atoms for v in a.nonkey_vars & bound
            for s in holders[v] if s != a.name)


def fuxman_graph(q: ConjunctiveQuery) -> Digraph:
    """Digraph over the atom names of q: edge R -> S whenever a bound
    non-key variable of R occurs in S."""
    return Digraph((a.name for a in q.atoms), set(_fuxman_edges(q)))


def in_cforest(q: ConjunctiveQuery) -> bool:
    """Is the Fuxman graph a forest whose every edge R -> S has the bound
    key variables of S among the non-key variables of R?  Read off the edges
    without building the graph: at most one parent per atom, then a walk up
    the parents from each atom finds any cycle."""
    parent: dict[str, str] = {}
    for s, t in _fuxman_edges(q):
        if parent.setdefault(t, s) != s:
            return False
    done: set[str] = set()  # atoms whose walk reached a root or a done atom
    for start in parent:
        v, path = start, set()
        while v in parent and v not in done:
            if v in path:
                return False
            path.add(v)
            v = parent[v]
        done |= path
    free = set(q.free_vars)
    return all(
        (q.atom(t).key_vars - free) <= q.atom(s).nonkey_vars for t, s in parent.items()
    )

