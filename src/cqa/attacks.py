"""Attack graphs over query atoms: witnesses, weak/strong labels,
components, and frozen variables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping

from .fds import FunctionalDependencySet, SequentialProof, _sequential_proof, fdset, keycl
from .graphs import Digraph, path_to
from .queries import Atom, ConjunctiveQuery, QueryGraph, query_graph


@dataclass(frozen=True)
class AttackWitness:
    """Bound-variable path from notkey(source) to the target, avoiding
    keycl(source, q) throughout."""

    source: Atom
    target: str
    path: tuple[str, ...]


@dataclass(frozen=True, eq=False, slots=True)
class AttackEdge:
    """`source` attacks `target`, strongly when key(source) does not
    determine key(target).  The witness, to the target variable `_hit`, is
    walked along the source's BFS parent links when read, so a query with
    n^2 attacks never builds n^3 walk steps."""

    source: Atom
    target: Atom
    strong: bool
    _hit: str = field(repr=False)
    _parent: Mapping[str, str | None] = field(repr=False)

    @property
    def witness(self) -> AttackWitness:
        return AttackWitness(self.source, self._hit, path_to(self._parent, self._hit))

    def _fields(self) -> tuple:
        return self.source, self.target, self.strong, self.witness

    def __eq__(self, other):
        return isinstance(other, AttackEdge) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


def attacks_variable(atom: Atom, x: str, q: ConjunctiveQuery) -> AttackWitness | None:
    """Shortest witness that `atom` attacks variable `x`, or None."""
    qg = query_graph(q)
    parent = qg.reach(atom.nonkey_vars, qg.vertices - keycl(atom, q))
    return AttackWitness(atom, x, path_to(parent, x)) if x in parent else None


class AttackGraph(Digraph):
    """Digraph over the atom names of one query; `edges` maps each edge to
    its AttackEdge, which carries the witness.  It keeps the query's FD set
    and query graph it was built from, for later analysis of the same query.
    `reached` maps each atom name to the variables it attacks (the BFS
    parent links of `attack_graph`)."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        edges: Mapping[tuple[str, str], AttackEdge],
        reached: Mapping[str, Collection[str]],
        fds: FunctionalDependencySet,
        qg: QueryGraph,
    ):
        super().__init__((a.name for a in query.atoms), dict(edges))
        self.query = query
        self.fds = fds
        self.query_graph = qg
        self._reached = reached
        attackers: dict[str, list[str]] = {}
        for name in sorted(reached):
            for v in reached[name]:
                attackers.setdefault(v, []).append(name)
        self._attackers = {v: tuple(names) for v, names in attackers.items()}

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.query.atoms

    def attacks(self, source: str, target: str) -> bool:
        return (source, target) in self.edges

    def attacked_variables(self, source: str) -> frozenset[str]:
        return frozenset(self._reached[source])

    def attackers_of_variable(self, x: str) -> tuple[str, ...]:
        return self._attackers.get(x, ())

    def strong_edges(self) -> tuple[AttackEdge, ...]:
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


def attack_graph(q: ConjunctiveQuery) -> AttackGraph:
    """One keycl closure, one BFS and one key closure per atom.  An edge's
    hit is the nearest variable of the target, ties broken by name."""
    qg = query_graph(q)
    fds = fdset(q)
    holders: dict[str, list[int]] = {}  # variable -> positions of its atoms
    for j, other in enumerate(q.atoms):
        for v in other.variables:
            holders.setdefault(v, []).append(j)
    edges: dict[tuple[str, str], AttackEdge] = {}
    reached: dict[str, dict[str, str | None]] = {}
    for i, atom in enumerate(q.atoms):
        avoid = fds.closure(atom.key_vars, fds.deps[i + 1])  # keycl: atom i owns dep i + 1
        parent = qg.reach(atom.nonkey_vars, qg.vertices - avoid)
        reached[atom.name] = parent
        depth: dict[str | None, int] = {None: -1}
        hits: dict[int, tuple[int, str]] = {}
        for v, p in parent.items():  # discovery order: a parent comes first
            d = depth[v] = depth[p] + 1
            for j in holders[v]:
                if j != i and (j not in hits or (d, v) < hits[j]):
                    hits[j] = (d, v)
        if not hits:
            continue
        determined = fds.closure(atom.key_vars)
        for j in sorted(hits):
            other = q.atoms[j]
            strong = not other.key_vars <= determined
            edges[(atom.name, other.name)] = AttackEdge(atom, other, strong, hits[j][1], parent)
    return AttackGraph(q, edges, reached, fds, qg)


@dataclass(frozen=True)
class FrozenVariables:
    """Bound variables derivable as constants using only non-attacking atoms."""

    vars: frozenset[str]
    certificates: Mapping[str, SequentialProof]


def frozen_vars(q: ConjunctiveQuery, graph: AttackGraph | None = None) -> FrozenVariables:
    """A bound x is frozen when fdset over the atoms not attacking x yields {} -> x.

    The proof runs over those atoms and every head variable of q: a head
    variable that occurs in none of them is in no key and is not x, so it
    cannot change the proof.
    """
    g = graph if graph is not None else attack_graph(q)
    certs: dict[str, SequentialProof] = {}
    for x in q.bound_vars:
        attackers = set(g.attackers_of_variable(x))
        rest = [a for a in q.atoms if a.name not in attackers]
        proof = _sequential_proof(rest, q.free_vars, (), x)
        if proof is not None:
            certs[x] = proof
    return FrozenVariables(frozenset(certs), certs)


def attack_graph_dot(g: AttackGraph) -> str:
    """DOT rendering: solid edges are weak attacks, bold edges strong."""
    return g.dot("attack_graph", {k for k, e in g.edges.items() if e.strong})
