"""Attack graphs over query atoms: witnesses, weak/strong labels,
components, and frozen variables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .fds import FunctionalDependencySet, SequentialProof, _keycl, _sequential_proof, fdset, keycl
from .graphs import Digraph, path_to
from .queries import Atom, ConjunctiveQuery, QueryGraph, query_graph


@dataclass(frozen=True)
class AttackWitness:
    """Bound-variable path from notkey(source) to the target, avoiding
    keycl(source, q) throughout."""

    source: Atom
    target: str
    path: tuple[str, ...]


@dataclass(frozen=True)
class AttackEdge:
    source: Atom
    target: Atom
    strong: bool
    witness: AttackWitness


def attacks_variable(atom: Atom, x: str, q: ConjunctiveQuery) -> AttackWitness | None:
    """Shortest witness that `atom` attacks variable `x`, or None."""
    qg = query_graph(q)
    parent = qg.reach(atom.nonkey_vars, qg.vertices - keycl(atom, q))
    return AttackWitness(atom, x, path_to(parent, x)) if x in parent else None


class AttackGraph(Digraph):
    """Digraph over the atom names of one query; `edges` maps each edge to
    its AttackEdge, which carries the witness.  It keeps the query's FD set
    and query graph it was built from, for later analysis of the same query."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        edges: Mapping[tuple[str, str], AttackEdge],
        variable_paths: Mapping[str, Mapping[str, tuple[str, ...]]],
        fds: FunctionalDependencySet,
        qg: QueryGraph,
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
    qg = query_graph(q)
    fds = fdset(q)
    edges: dict[tuple[str, str], AttackEdge] = {}
    variable_paths: dict[str, dict[str, tuple[str, ...]]] = {}
    for atom in q.atoms:
        parent = qg.reach(atom.nonkey_vars, qg.vertices - _keycl(atom, q, fds))
        paths = {v: path_to(parent, v) for v in parent}
        variable_paths[atom.name] = paths
        for other in q.atoms:
            if other.name == atom.name:
                continue
            hit = sorted(other.variables & paths.keys(), key=lambda v: (len(paths[v]), v))
            if not hit:
                continue
            witness = AttackWitness(atom, hit[0], paths[hit[0]])
            strong = not fds.determines(atom.key_vars, other.key_vars)
            edges[(atom.name, other.name)] = AttackEdge(atom, other, strong, witness)
    return AttackGraph(q, edges, variable_paths, fds, qg)


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
        attackers = g.attackers_of_variable(x)
        rest = [a for a in q.atoms if a.name not in attackers]
        proof = _sequential_proof(rest, q.free_vars, (), x)
        if proof is not None:
            certs[x] = proof
    return FrozenVariables(frozenset(certs), certs)


def attack_graph_dot(g: AttackGraph) -> str:
    """DOT rendering: solid edges are weak attacks, bold edges strong."""
    return g.dot("attack_graph", {k for k, e in g.edges.items() if e.strong})
