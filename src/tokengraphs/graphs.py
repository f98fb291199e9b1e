"""Simple undirected graphs on vertices 0..n-1 with bitmask adjacency.

Every vertex stores its neighbourhood as one Python int bitmask, so degree,
cut and common-neighbour queries are popcounts. Python ints grow as needed,
which lets the same representation serve both the small base graphs and the
much larger token graphs built on top of them. Graphs are immutable: every
editing operation returns a new value, so instances can be shared freely.

Every deletion and contraction goes through one editor, `_edit`, which runs
a whole script of them at once. Relabeling rule: surviving vertices keep
their relative order and are compacted downward; contracting an edge merges
the endpoints into min(u, v). The editor walks the script on a list of
labels, clears or moves only the bits each step touches, keeps the edge
count in closed form, and renames the surviving rows once at the end, so a
script of thousands of steps on a token graph rewrites its rows once.
"""

from __future__ import annotations

from operator import index

from .errors import InvalidScript, NoSuchVertex, NotAnEdge, UnsupportedPattern


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
        return [(u, w) for u in range(self.n) for w in _bits(self._adj[u] >> u + 1 << u + 1)]

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
        return _edit(self, (("de", u, v),))

    def delete_vertex(self, v: int) -> "Graph":
        return _edit(self, (("dv", v),))

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Contract the edge (u, v), merging both ends into min(u, v)."""
        return _edit(self, (("ce", u, v),))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        adj = [(~self._adj[v] & full) & ~(1 << v) for v in range(self.n)]
        return Graph._from_adj(adj, self.n * (self.n - 1) // 2 - self.m)

    def induced_subgraph(self, vertices) -> "Graph":
        """Subgraph induced on `vertices`, relabeled in ascending order."""
        keep = set(vertices)
        for v in sorted(keep):
            self._check_vertex(v)
        return _edit(self, [("dv", v) for v in reversed(range(self.n)) if v not in keep])

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
        return self.is_tree() and self.max_degree() <= 2

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


def _edit(g: Graph, ops) -> Graph:
    """Apply a script of deletions and contractions to g, rewriting the rows once.

    `ops` holds ("dv", v), ("de", u, v) and ("ce", u, v) steps (or anything
    that unpacks so), each naming vertices by the labels current when it
    runs, as if every step returned a new `Graph`. Every vertex keeps its
    index in g while the script runs: `label` lists the live indices in
    label order, a deletion pops one of them and a contraction merges the
    higher label's row into the lower one, so `label` stays increasing.
    Raises InvalidScript for the first step that is none of these forms (it
    does not unpack, its code or arity is another, or a label is not an
    integer), and NoSuchVertex or NotAnEdge for the first step that does
    not apply.
    """
    adj = list(g._adj)
    label = list(range(g.n))
    gone = []  # the indices that left `label`
    m = g.m
    for step in ops:
        try:
            code, *ends = step
            ends = list(map(index, ends))
        except (TypeError, ValueError):
            code = None
        if code not in ("dv", "de", "ce") or len(ends) != (1 if code == "dv" else 2):
            raise InvalidScript(f"step {step!r} is none of dv v, de u v, ce u v")
        if code != "dv":
            ends = normalize_edge(*ends)
        n = len(label)
        for v in ends:
            if not 0 <= v < n:
                raise NoSuchVertex(f"vertex {v} outside 0..{n - 1}")
        if code == "dv":
            y = label.pop(ends[0])
            m -= adj[y].bit_count()
            row, into = adj[y], 0  # y's neighbours drop their bit y
        else:
            u, v = ends
            x, y = label[u], label[v]
            if not adj[x] >> y & 1:
                raise NotAnEdge(
                    f"edge ({u},{v}) not present" if code == "de"
                    else f"cannot contract absent edge ({u},{v})"
                )
            if code == "de":
                adj[x] ^= 1 << y
                adj[y] ^= 1 << x
                m -= 1
                continue
            # xy vanishes, and each common neighbour's two edges become one
            m -= 1 + (adj[x] & adj[y]).bit_count()
            adj[x] = (adj[x] | adj[y]) & ~(1 << x | 1 << y)
            row, into = adj[y] ^ 1 << x, 1 << x  # y's other neighbours move to x
            del label[v]
        gone.append(y)
        by = 1 << y
        while row:  # inline: on a small graph a generator costs more than the edit
            low = row & -row
            z = low.bit_length() - 1
            adj[z] = adj[z] ^ by | into
            row ^= low
    # Rename the survivors bit by bit, or, when that is dearer (few vertices
    # gone, as on a small graph), drop each gone index from every row.
    if len(gone) * len(label) > 2 * m:
        adj = _renamed(adj, label, {x: i for i, x in enumerate(label)})
    elif gone:
        for x in sorted(gone, reverse=True):
            del adj[x]
            low, high = (1 << x) - 1, -1 << x
            adj = [a & low | a >> 1 & high for a in adj]
    return Graph._from_adj(adj, m)


def _renamed(rows, live, pos) -> list[int]:
    """Row v of `live` moved to pos[v], each of its bits w moved to pos[w]."""
    out = [0] * len(live)
    for v in live:
        image = 0
        for w in _bits(rows[v]):
            image |= 1 << pos[w]
        out[pos[v]] = image
    return out


def _relabeled(g: Graph, perm) -> Graph:
    """Copy of g with vertex v renamed to perm[v], a permutation of 0..n-1."""
    return Graph._from_adj(_renamed(g._adj, range(g.n), perm), g.m)  # moves no edge


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


def has_cycle_of_length_at_least(g: Graph, length: int) -> bool:
    """Early-exit test for a cycle with >= `length` vertices (no size cap).

    Every cycle lies in the 2-core, which one worklist peel finds in linear
    time (Batagelj & Zaversnik, 2003): a vertex of degree < 2 leaves, and
    each neighbour it leaves behind with one live neighbour follows. Then a
    walk of simple paths from each core vertex s, inside the core vertices
    >= s, finds each cycle once, from its minimum vertex.
    """
    adj = g._adj
    deg = [a.bit_count() for a in adj]
    todo = [v for v, d in enumerate(deg) if d < 2]
    core = (1 << g.n) - 1
    while todo:
        v = todo.pop()
        core ^= 1 << v
        for w in _bits(adj[v] & core):  # at most one live neighbour
            deg[w] -= 1
            if deg[w] == 1:
                todo.append(w)
    for s in _bits(core):
        allowed = core & (-1 << s)
        if allowed.bit_count() < length:  # fewer still for every later s
            return False
        start_bit = 1 << s
        # stack entries: (vertex, visited mask, path length in edges)
        stack = [(s, start_bit, 0)]
        while stack:
            v, visited, edges = stack.pop()
            nbrs = adj[v] & allowed
            if edges >= 2 and edges + 1 >= length and nbrs & start_bit:
                return True
            for w in _bits(nbrs & ~visited):
                stack.append((w, visited | (1 << w), edges + 1))
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
