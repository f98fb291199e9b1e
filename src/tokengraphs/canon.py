"""Canonical labeling by individualization-refinement.

The search tree refines an ordered partition to equitability, individualizes
one vertex of the first smallest non-singleton cell, and recurses. Leaves are
discrete partitions, i.e. labelings. Each tree node carries an invariant (the
cell-size profile), and a leaf's key is the invariant sequence along its path
followed by the relabeled edge set; the canonical labeling is the minimum key.

Two reference leaves steer pruning: the first leaf reached (kept fixed, for
automorphism discovery) and the best leaf so far. Subtrees comparing worse
than the best and diverging from the first path are cut. Leaves matching a
reference certificate yield automorphisms, which prune sibling branches whose
individualized vertices are equivalent under generators fixing the path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import SizeLimitExceeded
from .graph6 import encode_graph6
from .graphs import Graph, _bits

CANON_MAX_N = 1024

_BETTER, _EQ, _WORSE = 0, 1, 2


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical graph6 string, the relabeling that produces it, and |Aut|."""

    graph6: str
    permutation: tuple[int, ...]  # permutation[v] = canonical label of v
    automorphism_order: int


def _refine(adj, cells: list[int], colors: list[int], queue: deque) -> None:
    """Split cells by neighbour counts toward queued splitter cells, in place.

    New cells keep creation order as their id; every fragment is re-queued,
    so the result is equitable. Counts are label-free, which keeps the
    refinement invariant under relabeling.
    """
    while queue:
        smask = cells[queue.popleft()]
        ncells = len(cells)
        for c in range(ncells):
            cmask = cells[c]
            if cmask.bit_count() <= 1:
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
                nid = len(cells)
                cells.append(buckets[cnt])
                for v in _bits(buckets[cnt]):
                    colors[v] = nid
                queue.append(nid)


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


def _leaf_cert(adj, n: int, labels: list[int]) -> int:
    """Relabeled edge set as one big int (bit j*(j-1)/2 + i per pair i<j)."""
    cert = 0
    for u in range(n):
        lu = labels[u]
        for w in _bits(adj[u] >> (u + 1)):
            lw = labels[u + 1 + w]
            i, j = (lu, lw) if lu < lw else (lw, lu)
            cert |= 1 << (j * (j - 1) // 2 + i)
    return cert


def _is_automorphism(adj, n: int, perm) -> bool:
    for v in range(n):
        image = 0
        for w in _bits(adj[v]):
            image |= 1 << perm[w]
        if image != adj[perm[v]]:
            return False
    return True


class _Search:
    def __init__(self, g: Graph):
        self.n = g.n
        self.adj = g._adj
        self.first_invs: list | None = None
        self.first_cert: int | None = None
        self.first_vert: list[int] | None = None  # label -> vertex
        self.best_invs: list | None = None
        self.best_cert: int | None = None
        self.best_labels: list[int] | None = None
        self.best_vert: list[int] | None = None
        self.gens: list[tuple[int, ...]] = []
        self._gen_keys: set = set()
        self._identity = tuple(range(g.n))
        self._invs: list = []

    def run(self):
        n = self.n
        cells = [(1 << n) - 1]
        colors = [0] * n
        _refine(self.adj, cells, colors, deque([0]))
        self._node(cells, colors, (), True)
        return self.best_cert, tuple(self.best_labels), self.gens

    def _add_automorphism(self, labels, ref_vert):
        perm = tuple(ref_vert[labels[v]] for v in range(self.n))
        if perm == self._identity or perm in self._gen_keys:
            return
        if not _is_automorphism(self.adj, self.n, perm):
            raise RuntimeError("internal error: refinement produced a non-automorphism")
        self._gen_keys.add(perm)
        self.gens.append(perm)

    def _compare_best(self, inv) -> int:
        """This node's invariant path against the current best leaf's path.

        Computed afresh at every node: a state inherited from the parent
        goes stale once a leaf in the same subtree replaces the best leaf.
        """
        bi = self.best_invs
        if bi is None:
            return _BETTER
        path = self._invs + [inv]
        ref = bi[: len(path)]
        if path == ref:
            return _EQ
        return _BETTER if path < ref else _WORSE

    def _node(self, cells, colors, prefix, first_eq):
        inv = tuple(mask.bit_count() for mask in cells)
        depth = len(self._invs)
        if self.first_invs is not None:
            first_eq = (
                first_eq
                and depth < len(self.first_invs)
                and self.first_invs[depth] == inv
            )
        best_state = self._compare_best(inv)
        if best_state == _WORSE and not first_eq:
            return
        self._invs.append(inv)
        try:
            target = _target_cell(cells)
            if target < 0:
                self._leaf(colors, first_eq, best_state)
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
                child_colors = colors.copy()
                # individualize v: it keeps the parent cell id, the rest is new
                rest = child_cells[target] ^ (1 << v)
                child_cells[target] = 1 << v
                nid = len(child_cells)
                child_cells.append(rest)
                for w in _bits(rest):
                    child_colors[w] = nid
                _refine(self.adj, child_cells, child_colors, deque([target, nid]))
                self._node(child_cells, child_colors, prefix + (v,), first_eq)
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

    def _leaf(self, colors, first_eq, best_state):
        labels = colors  # all cells singleton: color ids are 0..n-1
        cert = _leaf_cert(self.adj, self.n, labels)
        if self.first_cert is None:
            vert = [0] * self.n
            for v in range(self.n):
                vert[labels[v]] = v
            self.first_invs = list(self._invs)
            self.first_cert = cert
            self.first_vert = vert
            self.best_invs = list(self._invs)
            self.best_cert = cert
            self.best_labels = labels.copy()
            self.best_vert = vert
            return
        if first_eq and cert == self.first_cert:
            self._add_automorphism(labels, self.first_vert)
        if best_state == _BETTER or (best_state == _EQ and cert < self.best_cert):
            vert = [0] * self.n
            for v in range(self.n):
                vert[labels[v]] = v
            self.best_invs = list(self._invs)
            self.best_cert = cert
            self.best_labels = labels.copy()
            self.best_vert = vert
        elif best_state == _EQ and cert == self.best_cert:
            self._add_automorphism(labels, self.best_vert)


def _search(g: Graph):
    if g.n > CANON_MAX_N:
        raise SizeLimitExceeded(f"canonical labeling capped at n <= {CANON_MAX_N}")
    if g.n == 0:
        return 0, (), []
    try:
        return _Search(g).run()
    except RecursionError:  # the search recurses once per individualised vertex
        raise SizeLimitExceeded(f"canonical labeling recursed too deep at n={g.n}") from None


def _relabeled(g: Graph, perm) -> Graph:
    adj = [0] * g.n
    for v in range(g.n):
        image = 0
        for w in _bits(g._adj[v]):
            image |= 1 << perm[w]
        adj[perm[v]] = image
    return Graph._from_adj(adj)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form with the achieving permutation and |Aut| (informational)."""
    _, labels, gens = _search(g)
    canon = _relabeled(g, labels) if g.n else g
    return CanonicalForm(
        graph6=encode_graph6(canon),
        permutation=labels,
        automorphism_order=_group_order(gens, g.n),
    )


def canonical_graph6(g: Graph) -> str:
    """Canonical graph6 string only (skips the group-order computation)."""
    _, labels, _ = _search(g)
    return encode_graph6(_relabeled(g, labels) if g.n else g)


def canonical_data(g: Graph):
    """(canonical graph6, permutation, automorphism generators) in one search."""
    _, labels, gens = _search(g)
    return encode_graph6(_relabeled(g, labels) if g.n else g), labels, gens


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled graph itself."""
    _, labels, _ = _search(g)
    return _relabeled(g, labels) if g.n else g


def _triangle_profile(g: Graph) -> tuple[int, ...]:
    adj = g._adj
    return tuple(
        sorted(
            sum((adj[v] & adj[w]).bit_count() for w in _bits(adj[v])) // 2
            for v in range(g.n)
        )
    )


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Isomorphism via canonical forms, behind cheap invariant prefilters."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if g1.degree_multiset() != g2.degree_multiset():
        return False
    if _triangle_profile(g1) != _triangle_profile(g2):
        return False
    return canonical_graph6(g1) == canonical_graph6(g2)


# ---------------------------------------------------------------------------
# permutation group order (Schreier-Sims)


def _perm_mul(a, b):
    # (a * b)(x) = a[b[x]]
    return tuple(a[x] for x in b)


def _perm_inv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _group_order(gens, n: int) -> int:
    """Order of the permutation group generated by `gens` on n points.

    Incremental Schreier-Sims. Level i of the chain keeps every known
    strong generator that fixes the first i base points (a generator that
    sticks at level d therefore joins all levels 0..d) plus the orbit
    transversal of its own base point; the order is the product of the
    orbit sizes once sifting all Schreier generators adds nothing new.
    """
    identity = tuple(range(n))
    todo = sorted({tuple(g) for g in gens} - {identity}, reverse=True)
    if not todo:
        return 1
    base: list[int] = []
    lv_gens: list[set] = []
    lv_trans: list[dict] = []

    def rebuild(e: int) -> None:
        pt = base[e]
        trans = {pt: identity}
        frontier = [pt]
        while frontier:
            x = frontier.pop()
            tx = trans[x]
            for gp in lv_gens[e]:
                y = gp[x]
                if y not in trans:
                    trans[y] = _perm_mul(gp, tx)
                    frontier.append(y)
        lv_trans[e] = trans

    while todo:
        h = todo.pop()
        d = 0
        while h != identity:
            if d == len(base):
                base.append(min(x for x in range(n) if h[x] != x))
                lv_gens.append(set())
                lv_trans.append({base[d]: identity})
            x = h[base[d]]
            if x in lv_trans[d]:
                # divide out the transversal element taking base[d] to x;
                # the residue fixes base[d] and sifts one level deeper
                h = _perm_mul(_perm_inv(lv_trans[d][x]), h)
                d += 1
                continue
            # new strong generator: it fixes base[:d], so every level up
            # to d must see it when computing orbits
            for e in range(d + 1):
                lv_gens[e].add(h)
                rebuild(e)
            for e in range(d + 1):
                for y, ty in lv_trans[e].items():
                    for gp in lv_gens[e]:
                        rep = lv_trans[e][gp[y]]
                        sg = _perm_mul(_perm_inv(rep), _perm_mul(gp, ty))
                        if sg != identity:
                            todo.append(sg)
            break
    order = 1
    for trans in lv_trans:
        order *= len(trans)
    return order
