"""Shared helpers for the test suite: seeded generators and slow oracles.

Everything here is deliberately independent of the library internals so it
can serve as ground truth: the token-graph oracle works on tuples and
symmetric differences, the isomorphism oracle tries every permutation.
"""

import random
from itertools import combinations, permutations

from tokengraphs import Graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Random spanning tree plus independent extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def relabeled(g: Graph, perm) -> Graph:
    """Copy of g with vertex v renamed to perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shuffled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabeled(g, perm)


def brute_token_edges(g: Graph, k: int):
    """Token-graph edge list computed from first principles.

    Vertices are the k-subsets in colexicographic order; two subsets are
    adjacent when their symmetric difference is an edge of the base graph.
    """
    subs = sorted(combinations(range(g.n), k), key=lambda t: t[::-1])
    index = {s: i for i, s in enumerate(subs)}
    edges = []
    for i, a in enumerate(subs):
        for b in subs[i + 1 :]:
            diff = set(a) ^ set(b)
            if len(diff) == 2 and g.has_edge(*diff):
                edges.append((i, index[b]))
    return subs, edges


def tree_code(t: Graph) -> str:
    """Centre-rooted AHU code of a tree: equal for two trees iff they are isomorphic.

    Peeling leaves layer by layer leaves the one or two centres, which every
    isomorphism maps onto each other. The code of a rooted tree is its
    children's codes, sorted and bracketed (Aho, Hopcroft & Ullman), and a
    tree with two centres takes the smaller of its two rooted codes.
    """
    nbrs = [t.neighbors(v) for v in range(t.n)]
    degree = [len(ws) for ws in nbrs]
    layer = [v for v in range(t.n) if degree[v] <= 1]
    left = t.n
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in nbrs[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled

    def rooted(v, parent):
        return "(" + "".join(sorted(rooted(w, v) for w in nbrs[v] if w != parent)) + ")"

    return min(rooted(c, None) for c in layer)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    eg = {tuple(sorted(e)) for e in g.edges()}
    for perm in permutations(range(g.n)):
        if eg == {tuple(sorted((perm[u], perm[v]))) for u, v in h.edges()}:
            return True
    return False
