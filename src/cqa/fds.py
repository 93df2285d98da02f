"""Functional-dependency reasoning attached to a query.

Every atom contributes key(F) -> vars(F); on top of that the head
contributes {} -> free(q), which makes free variables behave like
constants in all downstream closure tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

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

    def closure(
        self, seed: Iterable[str], _skip: FunctionalDependency | None = None
    ) -> frozenset[str]:
        """Every variable determined by `seed`; always contains seed and free.
        `_skip`, one of `deps`, is left out (`keycl` leaves out the atom's own)."""
        closed = set(seed)
        grew = True
        while grew:
            grew = False
            for dep in self.deps:
                if dep is not _skip and dep.lhs <= closed and not dep.rhs <= closed:
                    closed |= dep.rhs
                    grew = True
        return frozenset(closed)


def fdset(q: ConjunctiveQuery) -> FunctionalDependencySet:
    deps = [FunctionalDependency(frozenset(), frozenset(q.free_vars))]
    for atom in q.atoms:
        deps.append(FunctionalDependency(atom.key_vars, atom.variables))
    return FunctionalDependencySet(deps, q.variables, q.free_vars)


def keycl(atom: Atom, q: ConjunctiveQuery) -> frozenset[str]:
    """free(q) plus everything key(atom) determines under the dependencies
    of q other than the atom's own; free variables of q always stay in."""
    i = next((i for i, a in enumerate(q.atoms) if a.name == atom.name), None)
    if i is None:
        raise QueryError(f"atom {atom.name} is not part of {q.name}")
    fds = fdset(q)
    return fds.closure(atom.key_vars, fds.deps[i + 1])


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
    is deterministic.  Each atom counts its key variables not yet known,
    and the atoms whose count is zero wait on a heap by position, so the
    proof takes the first usable atom each time without rescanning.  It
    stops at the first atom that yields the target, so no shorter prefix
    proves it.
    """
    base = frozenset(base)
    known = set(q.free_vars) | base
    missing: list[int] = []
    waiting: dict[str, list[int]] = {}
    ready: list[int] = []  # ascending, so a heap
    for i, atom in enumerate(q.atoms):
        need = atom.key_vars - known
        missing.append(len(need))
        for v in need:
            waiting.setdefault(v, []).append(i)
        if not need:
            ready.append(i)
    proof: list[Atom] = []
    while target not in known:
        if not ready:
            return None
        atom = q.atoms[heapq.heappop(ready)]
        proof.append(atom)
        for v in atom.variables - known:
            known.add(v)
            for i in waiting.pop(v, ()):
                missing[i] -= 1
                if not missing[i]:
                    heapq.heappush(ready, i)
    return SequentialProof(tuple(proof), target, base)
