"""One small digraph over string vertices: the traversal layer under the
attack graph, the Fuxman graph and the query graph.  Sorted successor tuples
and in-degree counts are built once, so every walk and output is deterministic."""

from __future__ import annotations

import heapq
import io
from typing import Container, Iterable, Iterator, Mapping


class Digraph:
    """Vertices plus distinct (source, target) edges, stored only as successor tuples;
    an undirected graph gets each edge once, walks it both ways and counts both ends."""

    def __init__(self, vertices: Iterable[str], edges: Iterable, directed: bool = True):
        self.vertices = frozenset(vertices)
        self.directed = directed
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        self._in = dict.fromkeys(self.vertices, 0)
        for s, t in edges if directed else [p for s, t in edges for p in ((s, t), (t, s))]:
            succ[s].append(t)
            self._in[t] += 1
        self._succ = {v: tuple(sorted(ns)) for v, ns in succ.items()}

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The edges read off the successor tuples; an undirected one as (smaller, larger)."""
        return frozenset((s, t) for s, ts in self._succ.items() for t in ts
                         if self.directed or s < t)

    def successors(self, v: str) -> tuple[str, ...]:
        return self._succ.get(v, ())

    def in_degree(self, v: str) -> int:
        return self._in.get(v, 0)

    def topological_order(self) -> tuple[str, ...] | None:
        """Kahn's algorithm, smallest ready name first; None on a cycle."""
        waiting = dict(self._in)
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
        """Weakly connected components, each sorted, ordered by least vertex:
        union-find over the edges, then the vertices grouped in sorted order."""
        root = {v: v for v in self.vertices}

        def find(v: str) -> str:
            while root[v] != v:
                root[v] = v = root[root[v]]  # path halving: link v to its grandparent, step there
            return v

        for s, ts in self._succ.items():
            for t in ts:
                if root[s] != root[t]:  # one parent means one set: skip both calls
                    root[find(s)] = find(t)
        groups: dict[str, list[str]] = {}
        for v in sorted(self.vertices):
            groups.setdefault(find(v), []).append(v)
        return tuple(map(tuple, groups.values()))

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

    def dot(self, name: str, bold: Container[tuple[str, str]] = ()) -> Iterator[str]:
        """The lines of the DOT text, each yielded as it is made: vertices,
        then edges, both sorted; edges in `bold` drawn bold."""
        kind, arrow = ("digraph", "->") if self.directed else ("graph", "--")
        yield f"{kind} {name} {{\n"
        yield from (f'  "{v}";\n' for v in sorted(self.vertices))
        for s, ts in sorted(self._succ.items()):
            for t in ts if self.directed else [t for t in ts if s < t]:
                style = " [style=bold]" if (s, t) in bold else ""
                yield f'  "{s}" {arrow} "{t}"{style};\n'
        yield "}\n"


def joined(lines: Iterable[str]) -> str:
    """The lines as one text, each written into one buffer as it comes; a
    final `"".join` would hold a string per line on top, about twice the
    peak memory."""
    out = io.StringIO()
    out.writelines(lines)
    return out.getvalue()


def path_to(parent: Mapping[str, str | None], v: str) -> tuple[str, ...]:
    """The walk from a start vertex to `v` along the parent links of `reach`."""
    out = [v]
    while (p := parent[out[-1]]) is not None:
        out.append(p)
    return tuple(reversed(out))
