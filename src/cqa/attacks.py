"""Attack graphs over query atoms: witnesses, weak/strong labels,
components, and frozen variables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .fds import FunctionalDependencySet, SequentialProof, fdset, keycl, sequential_proof
from .graphs import Digraph, joined, path_to
from .queries import Atom, ConjunctiveQuery, query_graph


@dataclass(frozen=True)
class AttackWitness:
    """Bound-variable path from notkey(source) to the target, avoiding
    keycl(source, q) throughout."""

    source: Atom
    target: str
    path: tuple[str, ...]


def attacks_variable(atom: Atom, x: str, q: ConjunctiveQuery) -> AttackWitness | None:
    """Shortest witness that `atom` attacks variable `x`, or None."""
    qg = query_graph(q)
    parent = qg.reach(atom.nonkey_vars, qg.vertices - keycl(atom, q))
    return AttackWitness(atom, x, path_to(parent, x)) if x in parent else None


class AttackGraph(Digraph):
    """Digraph over the atom names of one query, with the set of its strong
    attacks: those (source, target) where key(source) does not determine
    key(target).  It keeps the query's FD set and query graph it was built
    from, for later analysis of the same query, and its topological order
    (None on a cycle), sorted once.
    `reached` maps each atom name, in name order, to the BFS parent links of
    `attack_graph` over the variables it attacks."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        edges: Iterable[tuple[str, str]],
        strong: set[tuple[str, str]],
        reached: Mapping[str, Mapping[str, str | None]],
        fds: FunctionalDependencySet,
        qg: Digraph,
    ):
        super().__init__((a.name for a in query.atoms), edges)
        self.query = query
        self._strong = strong
        self.fds = fds
        self.query_graph = qg
        self._reached = reached
        self._order = super().topological_order()

    def attacks(self, source: str, target: str) -> bool:
        return target in self.successors(source)

    def witness(self, source: str, target: str) -> AttackWitness:
        """The witness of the attack source -> target, walked along the BFS
        parent links of `source`: its target variable is the nearest one,
        ties broken by name."""
        if not self.attacks(source, target):
            raise KeyError(f"{source} does not attack {target}")
        parent = self._reached[source]
        paths = {v: path_to(parent, v) for v in self.query.atom(target).variables if v in parent}
        hit = min(paths, key=lambda v: (len(paths[v]), v))
        return AttackWitness(self.query.atom(source), hit, paths[hit])

    def attacked_variables(self, source: str) -> frozenset[str]:
        return frozenset(self._reached[source])

    def attackers_of_variable(self, x: str) -> tuple[str, ...]:
        return tuple(name for name, parent in self._reached.items() if x in parent)

    def strong_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._strong))

    def topological_order(self) -> tuple[str, ...] | None:
        return self._order

    def is_acyclic(self) -> bool:
        return self._order is not None

    def unattacked_atoms(self) -> tuple[Atom, ...]:
        return tuple(self.query.atom(n) for n in sorted(self.vertices) if not self.in_degree(n))


def attack_graph(q: ConjunctiveQuery) -> AttackGraph:
    """One keycl closure and one BFS per atom, and one key closure per
    attacking atom; an atom attacks every other atom holding a variable
    its BFS reaches."""
    qg = query_graph(q)
    fds = fdset(q)
    holders: dict[str, list[int]] = {}  # variable -> positions of its atoms
    for j, other in enumerate(q.atoms):
        for v in other.variables:
            holders.setdefault(v, []).append(j)
    succ: dict[str, list[str]] = {}  # atom name -> the names of the atoms it attacks
    strong: set[tuple[str, str]] = set()
    reached: dict[str, dict[str, str | None]] = {}
    for i, atom in sorted(enumerate(q.atoms), key=lambda p: p[1].name):
        avoid = fds.closure(atom.key_vars, fds.deps[i + 1])  # keycl: atom i owns dep i + 1
        parent = reached[atom.name] = qg.reach(atom.nonkey_vars, qg.vertices - avoid)
        hits = {j for v in parent for j in holders[v] if j != i}
        if not hits:
            continue
        determined = fds.closure(atom.key_vars)
        others = [q.atoms[j] for j in hits]
        succ[atom.name] = [b.name for b in others]
        strong.update((atom.name, b.name) for b in others if not b.key_vars <= determined)
    return AttackGraph(q, ((s, t) for s, ts in succ.items() for t in ts), strong, reached, fds, qg)


@dataclass(frozen=True)
class FrozenVariables:
    """Bound variables derivable as constants using only non-attacking atoms."""

    vars: frozenset[str]
    certificates: Mapping[str, SequentialProof]


def _frozen(g: AttackGraph) -> frozenset[str]:
    """The bound variables that the head determines and no atom attacks.

    A bound x is frozen when fdset over the atoms not attacking x yields
    {} -> x.  An attacked x never is: a proof over atoms other than an
    attacker a would put x in keycl(a), which the attack of a avoids.  So
    the closure runs over every atom of q, and the attacked variables go."""
    return g.fds.closure(()) - g.fds.free - set().union(*g._reached.values())


def frozen_vars(q: ConjunctiveQuery, graph: AttackGraph | None = None) -> FrozenVariables:
    """The frozen variables, each with its sequential proof from no base,
    which exists since the variable is in the closure of the head."""
    g = graph if graph is not None else attack_graph(q)
    frozen = _frozen(g)
    certs = {x: sequential_proof(q, (), x) for x in q.bound_vars if x in frozen}
    return FrozenVariables(frozen, certs)


def attack_graph_dot(g: AttackGraph) -> str:
    """DOT rendering: solid edges are weak attacks, bold edges strong."""
    return joined(g.dot("attack_graph", g._strong))
