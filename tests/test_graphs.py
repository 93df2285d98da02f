"""Randomized checks of the digraph layer against brute force on small graphs."""

import itertools
import random

from cqa.graphs import Digraph, path_to


def random_digraphs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        vertices = [f"v{i}" for i in range(rng.randint(0, 6))]
        density = rng.random()
        edges = frozenset(
            (s, t) for s in vertices for t in vertices if s != t and rng.random() < density / 2
        )
        yield Digraph(vertices, edges), rng


def test_topological_order_matches_brute_force():
    cyclic = 0
    for g, _ in random_digraphs(101, 400):
        def respects(order):
            pos = {v: i for i, v in enumerate(order)}
            return all(pos[s] < pos[t] for s, t in g.edges)

        order = g.topological_order()
        exists = any(respects(p) for p in itertools.permutations(sorted(g.vertices)))
        assert (order is None) == (not exists)
        if order is not None:
            assert sorted(order) == sorted(g.vertices) and respects(order)
        cyclic += order is None
    assert 50 <= cyclic <= 350


def test_reach_and_paths_are_shortest_walks():
    for g, rng in random_digraphs(103, 400):
        allowed = {v for v in sorted(g.vertices) if rng.random() < 0.7}
        start = {v for v in sorted(g.vertices) if rng.random() < 0.3}
        # brute-force BFS distances inside `allowed`
        dist = {v: 0 for v in start & allowed}
        frontier, level = set(dist), 0
        while frontier:
            level += 1
            frontier = {
                t for s, t in g.edges if s in frontier and t in allowed and t not in dist
            }
            dist.update((v, level) for v in frontier)
        parent = g.reach(start, allowed)
        assert set(parent) == set(dist)
        for v in parent:
            path = path_to(parent, v)
            assert path[0] in start and path[-1] == v and set(path) <= allowed
            assert len(path) == dist[v] + 1
            assert all((s, t) in g.edges for s, t in zip(path, path[1:]))


def test_components_partition_the_vertices():
    for g, _ in random_digraphs(107, 400):
        comps = g.components()
        flat = [v for comp in comps for v in comp]
        assert sorted(flat) == sorted(g.vertices) and len(flat) == len(set(flat))
        where = {v: i for i, comp in enumerate(comps) for v in comp}
        assert all(where[s] == where[t] for s, t in g.edges)
        for comp in comps:
            # each component is connected when edges are read both ways
            undirected = Digraph(comp, [e for e in g.edges if e[0] in comp], directed=False)
            assert set(undirected.reach(comp[:1], set(comp))) == set(comp)
