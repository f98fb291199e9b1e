"""Simple undirected graphs on vertices 0..n-1 with bitmask adjacency.

Every vertex stores its neighbourhood as one Python int bitmask, so degree,
cut and common-neighbour queries are popcounts. Python ints grow as needed,
which lets the same representation serve both the small base graphs and the
much larger token graphs built on top of them. Graphs are immutable: every
editing operation returns a new value, so instances can be shared freely.
Each edit carries its edge count over in closed form (one more or one fewer
edge, m - deg v for a vertex deletion, C(n, 2) - m for the complement), so
no edit recounts the rows: on a token graph each row is thousands of bits.

Relabeling rules (used by all shrinking operations): surviving vertices keep
their relative order and are compacted downward; contracting an edge merges
the endpoints into min(u, v).
"""

from __future__ import annotations

from .errors import NoSuchVertex, NotAnEdge, UnsupportedPattern


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Return the endpoint pair ordered as (min, max); loops are rejected."""
    if u == v:
        raise NotAnEdge(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _bits(mask: int):
    """Yield the set bit positions of `mask` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _mask(vertices) -> int:
    """The bitmask with one set bit per vertex in `vertices`; inverse of `_bits`."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _drop_bit(mask: int, v: int) -> int:
    """Remove bit position v from mask, shifting higher bits down by one."""
    low = mask & ((1 << v) - 1)
    return low | ((mask >> (v + 1)) << v)


class Graph:
    """Immutable simple undirected graph."""

    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        for u, v in edges:
            u, v = normalize_edge(u, v)
            if u < 0 or v >= n:
                raise NoSuchVertex(f"edge ({u},{v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self.m = sum(a.bit_count() for a in adj) // 2

    @classmethod
    def _from_adj(cls, adj: list[int], m: int | None = None) -> "Graph":
        # Trusted fast path for internal ops: masks must already be symmetric,
        # and m, when given, must be their edge count.
        g = object.__new__(cls)
        g.n = len(adj)
        g._adj = tuple(adj)
        g.m = sum(a.bit_count() for a in adj) // 2 if m is None else m
        return g

    # -- basic queries -------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise NoSuchVertex(f"vertex {v} outside 0..{self.n - 1}")

    def adjacency_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v]

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return list(_bits(self._adj[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self._adj]

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees()))

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = normalize_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            higher = self._adj[u] >> (u + 1)
            for off in _bits(higher):
                out.append((u, u + 1 + off))
        return out

    def is_regular(self) -> bool:
        degs = self.degrees()
        return not degs or min(degs) == max(degs)

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def is_empty_graph(self) -> bool:
        return self.m == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- editing operations (all return new graphs) --------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        """Add the edge (u, v); it must not be present yet."""
        u, v = normalize_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if self._adj[u] >> v & 1:
            raise NotAnEdge(f"edge ({u},{v}) already present")
        adj = list(self._adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._from_adj(adj, self.m + 1)

    def delete_edge(self, u: int, v: int) -> "Graph":
        u, v = normalize_edge(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if not self._adj[u] >> v & 1:
            raise NotAnEdge(f"edge ({u},{v}) not present")
        adj = list(self._adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph._from_adj(adj, self.m - 1)

    def delete_vertex(self, v: int) -> "Graph":
        self._check_vertex(v)
        adj = [
            _drop_bit(self._adj[x] & ~(1 << v), v)
            for x in range(self.n)
            if x != v
        ]
        return Graph._from_adj(adj, self.m - self._adj[v].bit_count())

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Contract the edge (u, v), merging both ends into min(u, v)."""
        u, v = normalize_edge(u, v)
        if not self.has_edge(u, v):
            raise NotAnEdge(f"cannot contract absent edge ({u},{v})")
        merged = (self._adj[u] | self._adj[v]) & ~((1 << u) | (1 << v))
        adj = []
        for x in range(self.n):
            if x == v:
                continue
            row = merged if x == u else self._adj[x]
            if row >> v & 1:
                row = (row & ~(1 << v)) | (1 << u)
            row &= ~(1 << x)
            adj.append(_drop_bit(row, v))
        # uv vanishes, and each common neighbour's two edges become one
        common = (self._adj[u] & self._adj[v]).bit_count()
        return Graph._from_adj(adj, self.m - 1 - common)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        adj = [(~self._adj[v] & full) & ~(1 << v) for v in range(self.n)]
        return Graph._from_adj(adj, self.n * (self.n - 1) // 2 - self.m)

    def induced_subgraph(self, vertices) -> "Graph":
        """Subgraph induced on `vertices`, relabeled in ascending order."""
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        pos = {v: i for i, v in enumerate(keep)}
        adj = [0] * len(keep)
        for v in keep:
            for w in _bits(self._adj[v]):
                if w in pos:
                    adj[pos[v]] |= 1 << pos[w]
        return Graph._from_adj(adj)

    # -- connectivity ---------------------------------------------------

    def component_mask(self, v: int) -> int:
        """Bitmask of the connected component containing v."""
        self._check_vertex(v)
        seen = 1 << v
        frontier = seen
        while frontier:
            nxt = 0
            for w in _bits(frontier):
                nxt |= self._adj[w]
            frontier = nxt & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return self.component_mask(0) == (1 << self.n) - 1

    def connected_components(self) -> list[int]:
        """Component bitmasks, ordered by smallest member."""
        out = []
        left = (1 << self.n) - 1
        while left:
            v = (left & -left).bit_length() - 1
            comp = self.component_mask(v)
            out.append(comp)
            left &= ~comp
        return out

    def is_bipartite(self) -> bool:
        """True iff no component has an odd cycle.

        Breadth-first search by layers, one component at a time: a layer is
        one colour class, and an edge inside a layer closes an odd cycle.
        """
        left = (1 << self.n) - 1
        while left:
            frontier = seen = left & -left
            while frontier:
                reach = 0
                for v in _bits(frontier):
                    reach |= self._adj[v]
                if reach & frontier:
                    return False
                frontier = reach & ~seen
                seen |= frontier
            left &= ~seen
        return True

    def is_forest(self) -> bool:
        # n - (#components) edges is the tree bound; equality means no cycle.
        return self.m == self.n - len(self.connected_components())

    def is_tree(self) -> bool:
        return self.n >= 1 and self.m == self.n - 1 and self.is_connected()

    def is_path_graph(self) -> bool:
        if self.n == 1:
            return self.m == 0
        return (
            self.is_tree()
            and self.max_degree() <= 2
        )

    def is_cycle_graph(self) -> bool:
        return (
            self.n >= 3
            and self.m == self.n
            and self.is_connected()
            and self.degree_multiset() == (2,) * self.n
        )

    def is_star_graph(self) -> bool:
        """True for K_{1,n-1} with n >= 2 (one hub, n-1 leaves)."""
        if self.n < 2 or self.m != self.n - 1:
            return False
        return self.degree_multiset() == (1,) * (self.n - 1) + (self.n - 1,)


def _relabeled(g: Graph, perm) -> Graph:
    """Copy of g with vertex v renamed to perm[v], a permutation of 0..n-1."""
    adj = [0] * g.n
    for v in range(g.n):
        image = 0
        for w in _bits(g._adj[v]):
            image |= 1 << perm[w]
        adj[perm[v]] = image
    return Graph._from_adj(adj, g.m)  # relabelling moves no edge


# ---------------------------------------------------------------------------
# named constructors


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: hub 0 joined to all of 1..n-1."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + w) for u in range(a) for w in range(b)])


def octahedron_graph() -> Graph:
    # K_{2,2,2}: all pairs except the three antipodal ones.
    g = complete_graph(6)
    for u, v in ((0, 3), (1, 4), (2, 5)):
        g = g.delete_edge(u, v)
    return g


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


# ---------------------------------------------------------------------------
# cycles


def _two_core(g: Graph) -> int:
    """Bitmask of the 2-core (every cycle lives inside it)."""
    alive = (1 << g.n) - 1
    changed = True
    while changed:
        changed = False
        for v in _bits(alive):
            if (g._adj[v] & alive).bit_count() < 2:
                alive &= ~(1 << v)
                changed = True
    return alive


def _has_cycle_from(g: Graph, start: int, allowed: int, target: int) -> bool:
    """True iff a cycle of >= `target` vertices runs through `start` inside `allowed`.

    Vertices below `start` are excluded by the caller, so each cycle is
    counted once, rooted at its minimum vertex.
    """
    adj = g._adj
    start_bit = 1 << start
    # stack entries: (vertex, visited mask, path length in edges)
    stack = [(start, start_bit, 0)]
    while stack:
        v, visited, length = stack.pop()
        nbrs = adj[v] & allowed
        if length >= 2 and length + 1 >= target and nbrs & start_bit:
            return True
        for w in _bits(nbrs & ~visited):
            stack.append((w, visited | (1 << w), length + 1))
    return False


def has_cycle_of_length_at_least(g: Graph, length: int) -> bool:
    """Early-exit test for a cycle with >= `length` vertices (no size cap)."""
    core = _two_core(g)
    if core.bit_count() < length:
        return False
    for s in _bits(core):
        allowed = core & ~((1 << s) - 1)
        if allowed.bit_count() < length:
            continue
        if _has_cycle_from(g, s, allowed, length):
            return True
    return False


# ---------------------------------------------------------------------------
# connected-pattern subgraph containment


def _check_pattern(pattern: Graph) -> None:
    """Reject a pattern that `_iter_embeddings` cannot place: empty or disconnected."""
    if pattern.n == 0 or not pattern.is_connected():
        raise UnsupportedPattern("pattern containment needs a non-empty connected pattern")


def _pattern_order(pattern: Graph) -> tuple[list[list[int]], list[int]]:
    """The placement plan of a connected pattern for `_iter_embeddings`.

    For each pattern vertex in BFS order: the positions of its neighbours
    placed before it, and its degree.
    """
    order = [0]
    seen = {0}
    i = 0
    while i < len(order):
        for w in pattern.neighbors(order[i]):
            if w not in seen:
                seen.add(w)
                order.append(w)
        i += 1
    pos = {v: i for i, v in enumerate(order)}
    earlier = [
        [pos[w] for w in pattern.neighbors(v) if pos[w] < i]
        for i, v in enumerate(order)
    ]
    return earlier, [pattern.degree(v) for v in order]


def _iter_embeddings(g: Graph, plan: tuple[list[list[int]], list[int]], banned: int = 0):
    """Yield vertex bitmasks of subgraph embeddings of a pattern in `g`.

    `plan` is `_pattern_order(pattern)`, so a caller that places one pattern
    many times plans it once. Non-induced: pattern edges must map to edges,
    extra edges are fine. Distinct assignments mapping onto the same vertex
    set are deduplicated.
    """
    earlier, pdeg = plan
    p = len(pdeg)
    avail0 = ((1 << g.n) - 1) & ~banned
    seen_masks = set()
    assigned = [0] * p  # bit of the g-vertex assigned to order position i

    def extend(i: int, used: int):
        if i == p:
            if used not in seen_masks:
                seen_masks.add(used)
                yield used
            return
        if earlier[i]:
            cands = avail0
            for j in earlier[i]:
                cands &= g._adj[assigned[j].bit_length() - 1]
            cands &= ~used
        else:
            cands = avail0 & ~used
        for v in _bits(cands):
            if g._adj[v].bit_count() < pdeg[i]:
                continue
            assigned[i] = 1 << v
            yield from extend(i + 1, used | (1 << v))

    yield from extend(0, 0)


def has_subgraph(g: Graph, pattern: Graph, banned: int = 0) -> bool:
    """True iff `g` contains `pattern` as a (not necessarily induced) subgraph."""
    _check_pattern(pattern)
    return _has_planned(g, _pattern_order(pattern), banned)


def _has_planned(g: Graph, plan, banned: int = 0) -> bool:
    """`has_subgraph` for a pattern already planned by `_pattern_order`."""
    return next(_iter_embeddings(g, plan, banned), None) is not None


def contains_disjoint(g: Graph, pattern_a: Graph, pattern_b: Graph) -> bool:
    """True iff `g` holds vertex-disjoint copies of both patterns."""
    _check_pattern(pattern_a)
    _check_pattern(pattern_b)
    # Place the larger pattern first: fewer embeddings to sweep.
    big, small = sorted((pattern_a, pattern_b), key=lambda p: -p.n)
    return _contains_disjoint_planned(g, _pattern_order(big), _pattern_order(small))


def _contains_disjoint_planned(g: Graph, plan_a, plan_b) -> bool:
    """`contains_disjoint` for planned patterns, placing `plan_a`'s first."""
    return any(_has_planned(g, plan_b, used) for used in _iter_embeddings(g, plan_a))
