"""One small digraph over string vertices: the traversal layer under the
attack graph, the Fuxman graph and the query graph.  Adjacency is built
once as sorted tuples, so every walk and every output is deterministic."""

from __future__ import annotations

import heapq
from typing import Collection, Container, Iterable, Mapping


class Digraph:
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


def path_to(parent: Mapping[str, str | None], v: str) -> tuple[str, ...]:
    """The walk from a start vertex to `v` along the parent links of `reach`."""
    out = [v]
    while (p := parent[out[-1]]) is not None:
        out.append(p)
    return tuple(reversed(out))
