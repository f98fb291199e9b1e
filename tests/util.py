"""Shared helpers for the test suite: seeded generators and slow oracles.

Everything here is deliberately independent of the library internals so it
can serve as ground truth: the token-graph oracles work on tuples, by
symmetric differences or by swapping one member; the isomorphism oracle
tries every permutation; and the script oracle edits an edge set one step
at a time.
"""

import random
from itertools import combinations, permutations

from tokengraphs import Graph, NoSuchVertex, NotAnEdge


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


def reference_graph6(g: Graph) -> str:
    """graph6 written pair by pair from the format's definition, for n <= 258047.

    The order field is n + 63 for n <= 62, else '~' and n in three 6-bit
    bytes. The edge bits x(0,1), x(0,2), x(1,2), x(0,3), ... follow, padded
    with zeros to a multiple of six and written six at a time, first bit most
    significant, each group as 63 plus its value.
    """
    n = g.n
    head = [n] if n <= 62 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    bits = [int(g.has_edge(i, j)) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = [int("".join(map(str, bits[t : t + 6])), 2) for t in range(0, len(bits), 6)]
    return "".join(chr(63 + x) for x in head + groups)


def reference_decode(text: str) -> Graph:
    """A graph6 line decoded pair by pair from the format's definition.

    The order field is one byte n + 63, or '~' and n in three 6-bit bytes, or
    '~~' and n in six, each byte 63 plus its value. Each later byte, less 63,
    holds six edge bits, most significant first, for the pairs (0,1), (0,2),
    (1,2), (0,3), ... in turn; the bits past the last pair are padding.
    """
    values = [ord(c) - 63 for c in text]
    if values[0] < 63:
        field, groups = values[:1], values[1:]
    elif values[1] < 63:
        field, groups = values[1:4], values[4:]
    else:
        field, groups = values[2:8], values[8:]
    n = 0
    for x in field:
        n = 64 * n + x
    bits = [x >> (5 - t) & 1 for x in groups for t in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


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


def swap_token_edges(g: Graph, k: int):
    """The same edge list as `brute_token_edges`, found by swapping tokens.

    For each subset tuple and each member x of it, every neighbour y of x
    outside the tuple gives the tuple with x replaced by y. This costs about
    C(n, k) * k * n steps instead of C(n, k)^2 comparisons, so it reaches the
    orders where the all-pairs oracle is too slow.
    """
    nbrs = {x: set() for x in range(g.n)}
    for x, y in g.edges():
        nbrs[x].add(y)
        nbrs[y].add(x)
    subs = sorted(combinations(range(g.n), k), key=lambda t: t[::-1])
    index = {s: i for i, s in enumerate(subs)}
    edges = set()
    for i, a in enumerate(subs):
        for x in a:
            for y in nbrs[x].difference(a):
                j = index[tuple(sorted(set(a) - {x} | {y}))]
                edges.add((min(i, j), max(i, j)))
    return subs, sorted(edges)


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


def reference_script(g: Graph, steps) -> Graph:
    """Apply ("dv", v), ("de", u, v) and ("ce", u, v) steps one at a time.

    The graph is an edge set of frozensets, and every step that removes a
    vertex renames the rest explicitly: a contraction first moves the higher
    end's edges onto the lower end, then every label above the removed one
    drops by one. Raises NotAnEdge for a loop or a missing edge and
    NoSuchVertex for a label outside 0..n-1, as the library does.
    """
    n = g.n
    edges = {frozenset(e) for e in g.edges()}
    for code, *ends in steps:
        if len(set(ends)) < len(ends):
            raise NotAnEdge(f"self-loop in {code} {ends}")
        if any(not 0 <= v < n for v in ends):
            raise NoSuchVertex(f"{code} {ends} outside 0..{n - 1}")
        if code == "dv":
            (gone,) = ends
            into = None
            edges = {e for e in edges if gone not in e}
        else:
            into, gone = sorted(ends)
            if frozenset(ends) not in edges:
                raise NotAnEdge(f"{code} {ends}: no such edge")
            edges.remove(frozenset(ends))
            if code == "de":
                continue

        def rename(x):
            x = into if x == gone else x
            return x - 1 if x > gone else x

        edges = {frozenset(map(rename, e)) for e in edges}
        n -= 1
    return Graph(n, [tuple(e) for e in edges])
