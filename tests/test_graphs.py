"""Randomized checks of the digraph layer against brute force on small graphs."""

import itertools
import random

from cqa.graphs import Digraph, path_to


def random_digraphs(seed: int, count: int, directed: bool = True):
    """Random graphs of up to 6 vertices, each with the edge set it was built
    from; an undirected one gets each edge once, in a random direction."""
    rng = random.Random(seed)
    for _ in range(count):
        vertices = [f"v{i}" for i in range(rng.randint(0, 6))]
        density = rng.random()
        if directed:
            edges = frozenset(
                (s, t) for s in vertices for t in vertices if s != t and rng.random() < density / 2
            )
        else:
            edges = frozenset(
                (s, t) if rng.random() < 0.5 else (t, s)
                for s, t in itertools.combinations(vertices, 2)
                if rng.random() < density
            )
        yield Digraph(vertices, edges, directed), edges, rng


def walked(g: Digraph, edges) -> set[tuple[str, str]]:
    """The built edges as the graph walks them: both ways round when undirected."""
    return set(edges) if g.directed else {*edges, *((t, s) for s, t in edges)}


def bfs_distances(arcs, start, allowed) -> dict[str, int]:
    """Brute-force BFS distances over `arcs` inside `allowed`."""
    dist = {v: 0 for v in start & allowed}
    frontier, level = set(dist), 0
    while frontier:
        level += 1
        frontier = {t for s, t in arcs if s in frontier and t in allowed and t not in dist}
        dist.update((v, level) for v in frontier)
    return dist


def test_successors_and_in_degree_match_the_edges():
    for directed, seed in ((True, 109), (False, 113)):
        for g, edges, _ in random_digraphs(seed, 400, directed):
            arcs = walked(g, edges)
            # `edges` is read off the successor tuples: an undirected edge once,
            # as (smaller, larger)
            assert g.edges == (edges if directed else {tuple(sorted(e)) for e in edges})
            for v in sorted(g.vertices):
                assert g.successors(v) == tuple(sorted(t for s, t in arcs if s == v))
                assert g.in_degree(v) == sum(t == v for _, t in arcs)
                if not directed:  # both ends of an undirected edge count
                    assert g.in_degree(v) == sum(v in e for e in edges)
            assert g.successors("absent") == () and g.in_degree("absent") == 0


def test_topological_order_matches_brute_force():
    cyclic = 0
    for g, edges, _ in random_digraphs(101, 400):
        def respects(order):
            pos = {v: i for i, v in enumerate(order)}
            return all(pos[s] < pos[t] for s, t in edges)

        order = g.topological_order()
        exists = any(respects(p) for p in itertools.permutations(sorted(g.vertices)))
        assert (order is None) == (not exists)
        if order is not None:
            assert sorted(order) == sorted(g.vertices) and respects(order)
        cyclic += order is None
    assert 50 <= cyclic <= 350


def test_reach_and_paths_are_shortest_walks():
    for g, edges, rng in random_digraphs(103, 400):
        allowed = {v for v in sorted(g.vertices) if rng.random() < 0.7}
        start = {v for v in sorted(g.vertices) if rng.random() < 0.3}
        # brute-force BFS distances inside `allowed`
        dist = {v: 0 for v in start & allowed}
        frontier, level = set(dist), 0
        while frontier:
            level += 1
            frontier = {
                t for s, t in edges if s in frontier and t in allowed and t not in dist
            }
            dist.update((v, level) for v in frontier)
        parent = g.reach(start, allowed)
        assert set(parent) == set(dist)
        for v in parent:
            path = path_to(parent, v)
            assert path[0] in start and path[-1] == v and set(path) <= allowed
            assert len(path) == dist[v] + 1
            assert all((s, t) in edges for s, t in zip(path, path[1:]))


def test_components_partition_the_vertices():
    for g, edges, _ in random_digraphs(107, 400):
        comps = g.components()
        flat = [v for comp in comps for v in comp]
        assert sorted(flat) == sorted(g.vertices) and len(flat) == len(set(flat))
        where = {v: i for i, comp in enumerate(comps) for v in comp}
        assert all(where[s] == where[t] for s, t in edges)
        for comp in comps:
            # each component is connected when edges are read both ways
            undirected = Digraph(comp, [e for e in edges if e[0] in comp], directed=False)
            assert set(undirected.reach(comp[:1], set(comp))) == set(comp)


def test_undirected_reach_and_components_walk_edges_both_ways():
    for g, edges, rng in random_digraphs(127, 400, directed=False):
        arcs = walked(g, edges)
        allowed = {v for v in sorted(g.vertices) if rng.random() < 0.7}
        start = {v for v in sorted(g.vertices) if rng.random() < 0.3}
        dist = bfs_distances(arcs, start, allowed)
        parent = g.reach(start, allowed)
        assert set(parent) == set(dist)
        for v in parent:
            path = path_to(parent, v)
            assert path[0] in start and path[-1] == v and set(path) <= allowed
            assert len(path) == dist[v] + 1
            assert all((s, t) in arcs for s, t in zip(path, path[1:]))
        comps = g.components()
        flat = [v for comp in comps for v in comp]
        assert sorted(flat) == sorted(g.vertices) and len(flat) == len(set(flat))
        assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
        for comp in comps:
            assert list(comp) == sorted(comp)
            assert set(bfs_distances(arcs, {comp[0]}, g.vertices)) == set(comp)


def test_dot_lists_each_edge_once_in_sorted_order():
    # the DOT text walks the successor tuples; an undirected edge is drawn
    # once, as (smaller, larger), whichever way round it was given
    for directed, seed in ((True, 131), (False, 137)):
        for g, edges, rng in random_digraphs(seed, 200, directed):
            drawn = sorted(e if directed else tuple(sorted(e)) for e in edges)
            bold = {e for e in drawn if rng.random() < 0.3}
            kind, arrow = ("digraph", "->") if directed else ("graph", "--")
            want = [f"{kind} g {{", *(f'  "{v}";' for v in sorted(g.vertices)), *(
                f'  "{s}" {arrow} "{t}"{" [style=bold]" if (s, t) in bold else ""};'
                for s, t in drawn), "}"]
            assert "".join(g.dot("g", bold)) == "\n".join(want) + "\n"


def test_edges_given_as_a_generator_build_the_same_graph():
    # the attack graph hands over its attacks as pairs made on the fly, so the
    # edges are read in one pass, undirected ones included
    for directed, seed in ((True, 139), (False, 149)):
        for g, edges, _ in random_digraphs(seed, 200, directed):
            once = Digraph(g.vertices, (e for e in sorted(edges)), directed)
            assert once.edges == g.edges
            for v in sorted(g.vertices):
                assert once.successors(v) == g.successors(v)
                assert once.in_degree(v) == g.in_degree(v)
