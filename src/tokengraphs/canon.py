"""Canonical labeling by individualization-refinement.

The search tree refines an ordered partition to equitability, individualizes
one vertex of the first smallest non-singleton cell, and recurses. Leaves are
discrete partitions, i.e. labelings. Each tree node carries an invariant (the
cell-size profile), and a leaf's key is the invariant sequence along its path
followed by its certificate, the relabeled edge set packed as graph6 packs an
upper triangle (`graph6._upper_bits`); the canonical labeling is the minimum
key. The winning certificate is the canonical form, so the canonical graph6
string is read off it (`graph6._graph6`), with no relabeled graph built.

Two reference leaves steer pruning: the first leaf reached (kept fixed, for
automorphism discovery) and the best leaf so far. Each is kept as one record,
(invariant path, certificate, vertex of each label); the labels of the
vertices are inverted from the best record once, when a caller asks for
them. Subtrees comparing worse than the best and diverging from the first
path are cut. Leaves matching a reference certificate yield automorphisms,
which prune sibling branches whose individualized vertices are equivalent
under generators fixing the path. Each new generator is checked on the
adjacency rows, row by row, before it is kept; the search builds no graph.
Before the search starts, the swaps of twin vertices (same open or same
closed neighbourhood) are seeded as generators, since they are known
automorphisms (McKay & Piperno 2014): on the edgeless E_n the search then
walks one path of n nodes to a single leaf.

The search also fixes |Aut| (McKay 1981; McKay & Piperno 2014): by
orbit-stabiliser along the first path, it is the product over the path's
individualized vertices of each one's orbit under the generators fixing the
vertices before it, and those orbits are the ones pruning already uses.
"""

from __future__ import annotations

from collections import deque

from ._record import Record
from .errors import SizeLimitExceeded
from .graph6 import _graph6, _upper_bits
from .graphs import Graph, _bits, _relabeled, _renamed

CANON_MAX_N = 1024

_BETTER, _EQ, _WORSE = 0, 1, 2


class CanonicalForm(Record):
    """Canonical graph6 string, the relabeling that produces it, and |Aut|."""

    graph6: str
    permutation: tuple[int, ...]  # permutation[v] = canonical label of v
    automorphism_order: int


def _refine(adj, cells: list[int], queue: deque) -> None:
    """Split cells by neighbour counts toward queued splitter cells, in place.

    New cells keep creation order as their id; every fragment is re-queued,
    so the result is equitable. Counts are label-free, which keeps the
    refinement invariant under relabeling. A cell with no neighbour in the
    splitter has count 0 throughout and is skipped; against a one-vertex
    splitter {s} the counts are 0 and 1, so a cell splits into
    `cell & ~adj[s]`, kept in place, and `cell & adj[s]`, appended, in one
    mask step.
    """
    while queue:
        smask = cells[queue.popleft()]
        ncells = len(cells)
        if smask & (smask - 1) == 0 and smask:
            near = adj[smask.bit_length() - 1]
            for c in range(ncells):
                cmask = cells[c]
                hit = cmask & near
                if hit and hit != cmask:
                    cells[c] = cmask ^ hit
                    queue.append(c)
                    queue.append(len(cells))
                    cells.append(hit)
            continue
        near = 0
        for s in _bits(smask):
            near |= adj[s]
        for c in range(ncells):
            cmask = cells[c]
            if cmask & (cmask - 1) == 0 or not cmask & near:
                continue
            buckets: dict[int, int] = {}
            mm = cmask
            while mm:
                lsb = mm & -mm
                v = lsb.bit_length() - 1
                cnt = (adj[v] & smask).bit_count()
                buckets[cnt] = buckets.get(cnt, 0) | lsb
                mm ^= lsb
            if len(buckets) == 1:
                continue
            counts = sorted(buckets)
            cells[c] = buckets[counts[0]]
            queue.append(c)
            for cnt in counts[1:]:
                queue.append(len(cells))
                cells.append(buckets[cnt])


def _target_cell(cells: list[int]) -> int:
    """Id of the first smallest cell with at least two members, or -1."""
    best = -1
    best_size = 1 << 62
    for cid, mask in enumerate(cells):
        size = mask.bit_count()
        if 2 <= size < best_size:
            best = cid
            best_size = size
            if size == 2:
                break
    return best


def _labels(vert) -> list[int]:
    """The label of each vertex, from the vertex of each label."""
    labels = [0] * len(vert)
    for label, v in enumerate(vert):
        labels[v] = label
    return labels


class _Search:
    def __init__(self, adj):
        self.n = len(adj)
        self.adj = adj
        # leaf records: (invariant path, certificate, label -> vertex)
        self.first: tuple | None = None
        self.first_path: tuple[int, ...] = ()  # individualized vertices, in order
        self.best: tuple | None = None
        self.gens: list[tuple[int, ...]] = []
        self._gen_keys: set = set()
        self._identity = tuple(range(self.n))
        self._invs: list = []

    def run(self):
        """Seed the twin swaps as generators, then search from the refined unit partition.

        Vertices with the same open neighbourhood, or the same closed one,
        are twins, and swapping two twins is an automorphism. Each class of
        twins v0 < v1 < ... gives the chain (v0 v1), (v1 v2), ...: the first
        path individualizes the lowest vertex first, and the chain's later
        swaps fix it, so they keep pruning below it (a star (v0 vi) would fix
        no prefix).
        """
        adj = self.adj
        for closed in (0, 1):
            last: dict[int, int] = {}  # neighbourhood -> the latest vertex with it
            for v, row in enumerate(adj):
                key = row | closed << v
                u = last.get(key)
                if u is not None:
                    swap = list(self._identity)
                    swap[u], swap[v] = v, u
                    self._add_automorphism(tuple(swap))
                last[key] = v
        cells = [(1 << self.n) - 1]
        _refine(adj, cells, deque([0]))
        self._node(cells, (), True)

    def _add_automorphism(self, perm):
        """Keep `perm` as a generator after checking it maps each row onto its image's row."""
        if perm == self._identity or perm in self._gen_keys:
            return
        adj = self.adj
        for v, row in enumerate(adj):
            image = 0
            for w in _bits(row):
                image |= 1 << perm[w]
            if image != adj[perm[v]]:
                raise RuntimeError("internal error: a generator is not an automorphism")
        self._gen_keys.add(perm)
        self.gens.append(perm)

    def _compare_best(self, inv) -> int:
        """This node's invariant path against the current best leaf's path.

        Computed afresh at every node: a state inherited from the parent
        goes stale once a leaf in the same subtree replaces the best leaf.
        """
        if self.best is None:
            return _BETTER
        path = self._invs + [inv]
        ref = self.best[0][: len(path)]
        if path == ref:
            return _EQ
        return _BETTER if path < ref else _WORSE

    def _node(self, cells, prefix, first_eq):
        inv = tuple(mask.bit_count() for mask in cells)
        depth = len(self._invs)
        if self.first is not None:
            first_invs = self.first[0]
            first_eq = first_eq and depth < len(first_invs) and first_invs[depth] == inv
        best_state = self._compare_best(inv)
        if best_state == _WORSE and not first_eq:
            return
        self._invs.append(inv)
        try:
            target = _target_cell(cells)
            if target < 0:
                self._leaf(cells, prefix, first_eq, best_state)
                return
            done: list[int] = []
            finder = None
            built_with = -1
            for v in _bits(cells[target]):
                if done:
                    if built_with != len(self.gens):
                        finder = self._prefix_orbits(prefix)
                        built_with = len(self.gens)
                    if finder is not None:
                        rv = finder[v]
                        if any(finder[w] == rv for w in done):
                            done.append(v)
                            continue
                done.append(v)
                child_cells = cells.copy()
                # individualize v: it keeps the parent cell id, the rest is new
                child_cells[target] = 1 << v
                child_cells.append(cells[target] ^ (1 << v))
                _refine(self.adj, child_cells, deque([target, len(cells)]))
                self._node(child_cells, prefix + (v,), first_eq)
        finally:
            self._invs.pop()

    def _prefix_orbits(self, prefix):
        """Union-find roots under generators fixing the prefix pointwise."""
        use = [g for g in self.gens if all(g[p] == p for p in prefix)]
        if not use:
            return None
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in use:
            for a in range(self.n):
                ra, rb = find(a), find(g[a])
                if ra != rb:
                    parent[rb] = ra
        return [find(x) for x in range(self.n)]

    def automorphism_order(self) -> int:
        """|Aut| by orbit-stabiliser along the first path.

        Each vertex in the true orbit of the path's (d+1)-th vertex under the
        stabiliser of the first d heads a subtree with a leaf equivalent to
        the first leaf: the search reaches it, finding a generator, or prunes
        the vertex as equivalent to one it searched. Only the identity fixes
        the whole path.
        """
        path = self.first_path
        order = 1
        for d, v in enumerate(path):
            orbits = self._prefix_orbits(path[:d])
            if orbits is not None:
                order *= orbits.count(orbits[v])
        return order

    def _leaf(self, cells, prefix, first_eq, best_state):
        # every cell is a singleton whose id is its vertex's label (n = 0 has one empty cell)
        vert = [mask.bit_length() - 1 for mask in cells[: self.n]]  # label -> vertex
        labels = _labels(vert)
        cert = _upper_bits(_renamed(self.adj, range(self.n), labels))
        if self.first is None:  # the first leaf is also the first best leaf
            self.first_path = prefix
            self.first = self.best = (list(self._invs), cert, vert)
            return
        if first_eq and cert == self.first[1]:
            self._add_automorphism(tuple(self.first[2][label] for label in labels))
        if best_state == _BETTER or (best_state == _EQ and cert < self.best[1]):
            self.best = (list(self._invs), cert, vert)
        elif best_state == _EQ and cert == self.best[1]:
            self._add_automorphism(tuple(self.best[2][label] for label in labels))


def _search(g: Graph) -> _Search:
    """The finished search tree of `g`."""
    if g.n > CANON_MAX_N:
        raise SizeLimitExceeded(f"canonical labeling capped at n <= {CANON_MAX_N}")
    search = _Search(g._adj)
    try:
        search.run()
    except RecursionError:  # the search recurses once per individualised vertex
        raise SizeLimitExceeded(f"canonical labeling recursed too deep at n={g.n}") from None
    return search


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form with the achieving permutation and |Aut| (informational).

    |Aut| is the product of orbit sizes along the search's first path, under
    the automorphisms the search found (see `_Search.automorphism_order`).
    """
    search = _search(g)
    return CanonicalForm(
        graph6=_graph6(g.n, search.best[1]),
        permutation=tuple(_labels(search.best[2])),
        automorphism_order=search.automorphism_order(),
    )


def canonical_graph6(g: Graph) -> str:
    """Canonical graph6 string only (computes no orbits)."""
    return _graph6(g.n, _search(g).best[1])


def canonical_data(g: Graph):
    """(canonical graph6, permutation, automorphism generators) in one search.

    The generators are the seeded twin swaps, then the automorphisms the
    search found; together they generate Aut(g), which is how
    `_Search.automorphism_order` counts it.
    """
    search = _search(g)
    return _graph6(g.n, search.best[1]), tuple(_labels(search.best[2])), search.gens


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled graph itself."""
    return _relabeled(g, _labels(_search(g).best[2]))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Isomorphism via canonical forms, behind the order, size and degree prefilters."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if g1.degree_multiset() != g2.degree_multiset():
        return False
    return canonical_graph6(g1) == canonical_graph6(g2)
