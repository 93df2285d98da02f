"""Functional-dependency reasoning attached to a query.

Every atom contributes key(F) -> vars(F); on top of that the head
contributes {} -> free(q), which makes free variables behave like
constants in all downstream closure tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .queries import Atom, ConjunctiveQuery, QueryError


@dataclass(frozen=True)
class FunctionalDependency:
    lhs: frozenset[str]
    rhs: frozenset[str]

    def __str__(self) -> str:
        return "{%s} -> {%s}" % (" ".join(sorted(self.lhs)), " ".join(sorted(self.rhs)))


class FunctionalDependencySet:
    """The dependencies of one specific query; not reusable across queries."""

    def __init__(
        self,
        deps: Iterable[FunctionalDependency],
        universe: Iterable[str],
        free: Iterable[str],
    ):
        self.deps = tuple(deps)
        self.universe = frozenset(universe)
        self.free = frozenset(free)

    def __repr__(self) -> str:
        return f"FunctionalDependencySet({', '.join(map(str, self.deps))})"

    def closure(self, seed: Iterable[str]) -> frozenset[str]:
        """Every variable determined by `seed`; always contains seed and free."""
        closed = set(seed)
        grew = True
        while grew:
            grew = False
            for dep in self.deps:
                if dep.lhs <= closed and not dep.rhs <= closed:
                    closed |= dep.rhs
                    grew = True
        return frozenset(closed)

    def implies(self, lhs: Iterable[str], var: str) -> bool:
        return var in self.closure(lhs)

    def determines(self, lhs: Iterable[str], rhs: Iterable[str]) -> bool:
        return set(rhs) <= self.closure(lhs)


def fdset(q: ConjunctiveQuery) -> FunctionalDependencySet:
    deps = [FunctionalDependency(frozenset(), frozenset(q.free_vars))]
    for atom in q.atoms:
        deps.append(FunctionalDependency(atom.key_vars, atom.variables))
    return FunctionalDependencySet(deps, q.variables, q.free_vars)


def keycl(atom: Atom, q: ConjunctiveQuery) -> frozenset[str]:
    """free(q) plus everything key(atom) determines under the dependencies
    of q other than the atom's own; free variables of q always stay in."""
    return _keycl(atom, q, fdset(q))


def _keycl(atom: Atom, q: ConjunctiveQuery, fds: FunctionalDependencySet) -> frozenset[str]:
    """keycl(atom, q) read off fds = fdset(q), where atom i owns dependency i + 1."""
    i = next((i for i, a in enumerate(q.atoms) if a.name == atom.name), None)
    if i is None:
        raise QueryError(f"atom {atom.name} is not part of {q.name}")
    rest = fds.deps[: i + 1] + fds.deps[i + 2 :]
    return FunctionalDependencySet(rest, fds.universe, fds.free).closure(atom.key_vars)


@dataclass(frozen=True)
class SequentialProof:
    """Atom chain certifying fdset(q) |= base -> target.

    Invariant: key(atoms[i]) is covered by free(q), the base, and the
    variables of the earlier atoms; the target is covered at the end.
    """

    atoms: tuple[Atom, ...]
    target: str
    base: frozenset[str]


def sequential_proof(
    q: ConjunctiveQuery, base: Iterable[str], target: str
) -> SequentialProof | None:
    """A tail-minimal sequential proof of base -> target, or None.

    Tail-minimal: dropping the last atom breaks the proof; earlier atoms
    may still be redundant.  Atoms are tried in query order, so the result
    is deterministic.
    """
    return _sequential_proof(q.atoms, q.free_vars, base, target)


def _sequential_proof(
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
