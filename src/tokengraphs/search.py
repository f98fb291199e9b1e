"""Connected-graph enumeration and the edge-maximal planar-token search.

Every level is generated in one way: take the single-edge children of the
previous level's graphs that pass the canonical-deletion test, and keep one
graph per canonical form (`canonical_data`, which also returns generators of
the graph's automorphism group). The test (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998, with the cheap invariant pre-test of
`geng`) accepts a child H = G + e only if no deletable edge of H has a larger
invariant (larger end degree, smaller end degree, common neighbours) than e.
A parent is grown only from the least non-edge of each orbit of its
automorphism group, since the other members of an orbit give copies of that
child, which pass or fail the test with it. When e is the only deletable edge
of maximum invariant, H is the only accepted copy of its class
(`_accepted_children` says why), so it is kept unlabelled. Of the children
whose new edge ties there, only those whose `_invariant` (the sorted
(degree, sum of neighbour degrees) pairs) another tied child shares are
labelled to drop copies, since isomorphic graphs share it; a kept child is
labelled later only if it is grown or reported maximal. In
`graph_classes(n, m)`, which grows from the empty graph on n vertices, every
edge is deletable. The search starts from the trees on n vertices, which
`_trees` generates directly, one per class, as the canonical level sequences
of the trees rooted at a centre (Wright, Richmond, Odlyzko & McKay, 1986),
with no smaller order and no labelling until a tree is grown, or which it
extends from the previous order (below); it grows every later level from the
one before, and there an edge is deletable iff it is not a bridge, so that
deleting it leaves a connected graph of the previous level. No class is
lost: delete from H a deletable edge of maximum invariant; the previous
level holds the class of the result, and its representative plus the image
of that edge is a copy of H that passes the test.

The search walks m upward from n-1 per order n, keeps the graphs whose
k-token graphs are planar (`token_planarity`, which rejects by the token
graph's edge count, then by the paper's lemmas, before it runs the
left-right test on the token graph's neighbour lists), and
stops at the first m with no survivor. Planarity of token graphs only ever
degrades when edges are added to the base, so every survivor at level m is
a child of a survivor at level m - 1 (its canonical deletion among them),
and a survivor is edge-maximal iff no survivor of level m + 1 loses an edge
to it. A survivor that grew a survivor of level m + 1, or a copy of one that
`_dedup` dropped, is not, with no label needed; for the others, only the
deletions of level m + 1's survivors that share their invariant are
labelled. The two modes differ only in which level they grow from: "pruned"
mode (the default) grows from the previous level's survivors, "verbatim"
mode from the whole previous level, which cross-checks the pruning.

Planarity is also hereditary in the base's vertices: for k <= n - 1,
F_k(G - v) is the subgraph of F_k(G) induced on the k-subsets that avoid v
(Fabila-Monroy et al., Graphs Combin. 28, 2012), so a tree T with a planar
F_k(T) loses a leaf to a tree of order n - 1 whose F_k is planar too. The
search needs n >= 2k, so the condition holds at every order it searches. So
in pruned mode, an order whose predecessor was searched in the same run
takes as its tree level the leaf extensions of that order's tree survivors
(`_leaf_extensions`), and its `generated` counts those classes, not every
tree; the first order of a range, and every order in verbatim mode, walks
`_trees(n)`.

`GENERATOR_MAX_N` caps `graph_classes`, verbatim mode and the orders that
walk `_trees`; the budget is checked only between levels, so the cap bounds
the tree level (3,159 trees at n = 14), which no budget can cut short. A
pruned range that starts at or below the cap reaches any n: past n = 10,
k = 2 keeps only the path, which the next order extends by a leaf, and
stops at m = n, while k >= 3 stops at the trees.
"""

from __future__ import annotations

import math
import time
from itertools import count

from ._record import Record
from .canon import canonical_data, canonical_graph6
from .errors import BadK, SizeLimitExceeded, TokenGraphError
from .graphs import Graph, _bits, _check_k, _check_order, empty_graph
from .planarity import token_planarity

GENERATOR_MAX_N = 14


# ---------------------------------------------------------------------------
# canonical-form growth


class _Rep:
    """A class representative with its canonical graph6 string and automorphism generators.

    Both stay None until `labelled` runs one labelling search. `_dedup`
    labels only the graphs whose invariant another graph of their batch
    shares; every other kept graph, and a tree from `_trees`, is labelled
    only when grown or reported maximal. `parents` holds the reps of the
    level below that grew this graph or a dropped copy of it; the search
    reads it once, to spare the maximality check, and then clears it.
    """

    __slots__ = ("g", "label", "gens", "parents")

    def __init__(self, g: Graph):
        self.g = g
        self.label = None  # canonical graph6 string
        self.gens = None  # a tuple; the shared empty tuple when none was found
        self.parents = ()

    def labelled(self) -> "_Rep":
        if self.gens is None:
            self.label, _, gens = canonical_data(self.g)
            self.gens = tuple(gens)
        return self


def _invariant(g: Graph) -> tuple[int, ...]:
    """The sorted (degree d, sum s of neighbour degrees) pairs of g, each as the int s * n + d.

    Isomorphic graphs have equal invariants. The bits are walked inline, as
    this runs once per tied child.
    """
    n, adj = g.n, g._adj
    deg = [row.bit_count() for row in adj]
    pairs = []
    for d, row in zip(deg, adj):
        s = 0
        while row:
            low = row & -row
            s += deg[low.bit_length() - 1]
            row ^= low
        pairs.append(s * n + d)
    pairs.sort()
    return tuple(pairs)


def _dedup(children) -> list[_Rep]:
    """The first graph of each isomorphism class, in order of appearance.

    `children` yields (graph, unique, parent) triples. A graph flagged
    unique is known to be the only one of its class among them. So is any
    other graph whose `_invariant` no other unflagged graph shares: the
    first graph with an invariant is kept unlabelled, and labelled only
    when a second one with that invariant arrives, which is labelled too
    and kept iff its label is new. Each kept rep's `parents` lists the
    parent of every copy of it, kept or dropped.
    """
    by_invariant: dict[tuple, _Rep] = {}  # the first unflagged graph with each invariant
    by_label: dict[str, _Rep] = {}
    out = []
    for g, unique, parent in children:
        rep = _Rep(g)
        if not unique:
            first = by_invariant.setdefault(_invariant(g), rep)
            if first is not rep:
                by_label.setdefault(first.labelled().label, first)
                kept = by_label.setdefault(rep.labelled().label, rep)
                if kept is not rep:
                    kept.parents.append(parent)
                    continue
        rep.parents = [parent]
        out.append(rep)
    return out


def _on_cycle(adj, a: int, b: int) -> bool:
    """True iff the edge (a, b) of the rows `adj` lies on a cycle.

    That is, b is reachable from a without the edge: a walk from a's other
    neighbours that stops as soon as it reaches b.
    """
    if adj[a] & adj[b]:
        return True
    seen = 1 << a | 1 << b
    frontier = adj[a] & ~seen
    while frontier:
        seen |= frontier
        nxt = 0
        for x in _bits(frontier):
            nxt |= adj[x]
        if nxt >> b & 1:
            return True
        frontier = nxt & ~seen
    return False


def _is_canonical_deletion(adj, deg, u: int, v: int, connected: bool) -> int:
    """How the new edge (u, v) of a child ranks among its deletable edges.

    `adj` and `deg` are the adjacency masks and degrees of the child. The
    invariant of an edge is (larger end degree, smaller end degree, common
    neighbours). With `connected`, only edges on a cycle are deletable. The
    answer is 0 when a deletable edge has a larger invariant than (u, v), 1
    when (u, v) is the only deletable edge of maximum invariant, and 2 when
    it ties there with another deletable edge. A child is accepted iff the
    answer is not 0.
    """
    hi, lo = (deg[u], deg[v]) if deg[u] >= deg[v] else (deg[v], deg[u])
    common = (adj[u] & adj[v]).bit_count()
    new = 1 << u | 1 << v
    tied = []
    for a, da in enumerate(deg):
        if da < hi:
            continue
        for b in _bits(adj[a]):
            db = deg[b]
            if db > da or (da == hi and db < lo):
                continue  # counted from b's end, or beaten on the degrees
            if da == hi and db == lo:
                shared = (adj[a] & adj[b]).bit_count()
                if shared < common:
                    continue
                if shared == common:
                    if (db < da or a < b) and (1 << a | 1 << b) != new:
                        tied.append((a, b))  # each tied edge once, the new one not at all
                    continue
            if not connected or _on_cycle(adj, a, b):
                return 0
    return 2 if any(not connected or _on_cycle(adj, a, b) for a, b in tied) else 1


def _orbit_leaders(g: Graph, gens) -> list[tuple[int, int]]:
    """The least non-edge (u, v), u < v, of each orbit of `gens` on the non-edges, in order.

    Automorphisms map non-edges to non-edges, so an orbit is closed by
    applying every generator to its members until nothing new appears.
    """
    adj = g._adj
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not adj[u] >> v & 1]
    if not gens:
        return pairs
    seen: set[tuple[int, int]] = set()
    leaders = []
    for pair in pairs:
        if pair in seen:
            continue
        leaders.append(pair)
        seen.add(pair)
        orbit = [pair]
        for u, v in orbit:  # grows while it is walked
            for perm in gens:
                a, b = perm[u], perm[v]
                image = (a, b) if a < b else (b, a)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return leaders


def _accepted_children(level: list[_Rep], connected: bool):
    """The children of `level` that pass the test, by parent and then new edge (u, v).

    Yields (child, unique, parent) triples: `unique` when the new edge is
    the child's only deletable edge of maximum invariant. A parent's
    children come one per orbit of its automorphism group on its non-edges,
    from the orbit's least pair. The test is an isomorphism invariant
    (degrees, common neighbours, bridges), so an orbit's children pass or
    fail together, and every child skipped is a copy of an earlier one that
    `_dedup` would drop.
    A unique child is the only accepted copy of its class: an isomorphism
    between two such copies carries one new edge onto the other, so it
    restricts to an automorphism of their one parent (the level holds one
    graph per class) that maps one orbit leader onto the other, and the two
    are the same child. That needs the generators of the whole of Aut, which
    `canonical_data` returns; a mere subgroup would leave two leaders in one
    orbit of Aut and so two copies of a unique child.
    """
    for rep in level:
        g = rep.labelled().g
        deg = g.degrees()
        for u, v in _orbit_leaders(g, rep.gens):
            adj = list(g._adj)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
            rank = _is_canonical_deletion(adj, deg, u, v, connected)
            if rank:
                yield Graph._from_adj(adj, g.m + 1), rank == 1, rep
            deg[u] -= 1
            deg[v] -= 1


def _grow(level: list[_Rep], connected: bool) -> list[_Rep]:
    """The single-edge children of `level` that pass the canonical-deletion test, one per class.

    A child G + e is accepted iff no deletable edge has a larger invariant
    than e; with `connected`, bridges are not deletable. Every class of the
    next level still appears: a deletable edge of maximum invariant is the
    new edge of a child of the representative of its deletion's class. A
    child whose new edge is the only deletable edge of maximum invariant is
    kept unlabelled; of the children that tie there, only those whose
    `_invariant` another tied child shares are labelled to keep the first
    of each class.
    """
    return _dedup(_accepted_children(level, connected))


def _leaf_extensions(trees: list[_Rep]) -> list[_Rep]:
    """The trees that hang one new leaf w on a tree of `trees`, one per class.

    Each tree is padded with an isolated w, which its automorphisms fix, so
    the non-edges (u, w) that lead their orbits give one new leaf per orbit of
    Aut on the vertices. Two trees can still have extensions of one class (a
    tree with two kinds of leaf loses either), so no extension is known to be
    unique: those whose `_invariant` another extension shares are labelled.
    """

    def extensions():
        for rep in trees:
            g = rep.labelled().g
            w = g.n
            padded = Graph._from_adj([*g._adj, 0], g.m)
            for u, v in _orbit_leaders(padded, [perm + (w,) for perm in rep.gens]):
                if v == w:
                    yield padded.with_edge(u, w), False, rep

    return _dedup(extensions())


def _trees(n: int) -> list[Graph]:
    """One tree per isomorphism class on n >= 1 vertices, generated directly.

    A tree rooted at a centre is written as its canonical level sequence: the
    depths of its vertices in preorder, with every vertex's subtrees in
    decreasing order (Beyer & Hedetniemi, "Constant time generation of rooted
    trees", SIAM J. Comput. 9, 1980). The sequences are walked downward in
    lexicographic order from the path rooted at its centre to the star, and
    a sequence is kept iff its root is a centre: the first subtree of the
    root (the "left" one) is no taller than the rest of the tree, and when a
    tree has two centres, the left part is not the larger of the two halves
    (by size, then by sequence). Where a sequence fails, the walk jumps past
    every sequence with the same left subtree (Wright, Richmond, Odlyzko &
    McKay, "Constant time generation of free trees", SIAM J. Comput. 15,
    1986), so each class comes out once, with no key and no smaller order.
    """
    if n <= 2:
        return [Graph(n, [(0, 1)] if n == 2 else [])]
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    trees = []
    while True:
        split = _second_root_child(levels)
        left = [d - 1 for d in levels[1:split]]
        rest = [0] + levels[split:]
        taller = max(left) - max(rest)
        if taller < 0 or (taller == 0 and (len(left), left) <= (len(rest), rest)):
            trees.append(_level_tree(levels))
            p = max((i for i in range(n) if levels[i] > 1), default=0)
            if p == 0:
                return trees  # the star is the last sequence
            _next_rooted(levels, p)
        else:
            p = split - 1  # the left subtree's last vertex
            deep = levels[p] > 2
            _next_rooted(levels, p)
            if deep:
                # the copied tail stayed inside the left subtree, leaving the
                # rest empty: end the sequence with a path from the root as
                # deep as the left subtree reaches, so the rest is tall enough
                height = max(levels[1:_second_root_child(levels)])
                levels[n - height:] = range(1, height + 1)


def _second_root_child(levels: list[int]) -> int:
    """Where the root's second subtree starts in a level sequence, or its length if nowhere."""
    return next((i for i in range(2, len(levels)) if levels[i] == 1), len(levels))


def _next_rooted(levels: list[int], p: int) -> None:
    """The Beyer-Hedetniemi successor, in place.

    Vertex p moves up beside its parent q, and copies of q's subtree (now
    without p) fill every later position.
    """
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - p + q]


def _level_tree(levels: list[int]) -> Graph:
    """The tree of a level sequence: each vertex hangs from the last earlier vertex one level up."""
    adj = [0] * len(levels)
    last = [0] * len(levels)  # last[d]: the latest vertex seen at depth d
    for v in range(1, len(levels)):
        d = levels[v]
        u = last[d - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        last[d] = v
    return Graph._from_adj(adj, len(levels) - 1)


_LEVELS: dict[tuple[int, int], tuple[_Rep, ...]] = {}
"""Every level `_sparse_classes` has grown, by (n, m), for the life of the process.

Nothing is evicted, so for each order asked for, this holds one graph per
class of every sparse level (m <= C(n, 2) / 2) up to the highest one asked
for, and no more: 154,354 graphs for all of n = 9. A level keeps its graphs
only, apart from the highest level of each order grown so far, whose
labelled children (those that tied on the growth invariant and shared their
`_invariant` with another tied child) also keep a canonical string and
generators: 8,934 of the 34,040 classes of n = 9, m = 18. `GENERATOR_MAX_N`
caps n.
"""


_LEVEL_ARGS = "a level of graph classes has an integer order and size"


def graph_classes(n: int, m: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of (n, m)-graphs.

    Dense levels are answered by complementing the sparse ones. Every level
    of n = 9 (274,668 classes in all) takes about 9.4 s of CPU and peaks at
    77 MB RSS together (2-vCPU Xeon, Python 3.11.7), while n = 10 has
    12,005,168 classes; the cap is `GENERATOR_MAX_N`, and the package only
    ever needs small m (or small co-m) there. A negative n or m has no class.
    """
    n, m = (_check_order(x, _LEVEL_ARGS, -math.inf) for x in (n, m))
    if n < 0 or m < 0:
        return ()
    if n > GENERATOR_MAX_N:
        raise SizeLimitExceeded(
            f"graph classes are generated only for n <= {GENERATOR_MAX_N}"
        )
    total = n * (n - 1) // 2
    if m > total:
        return ()
    if m > total - m:
        return tuple(rep.g.complement() for rep in _sparse_classes(n, total - m))
    return tuple(rep.g for rep in _sparse_classes(n, m))


def _sparse_classes(n: int, m: int) -> tuple[_Rep, ...]:
    """The classes of (n, m) for m <= C(n, 2) / 2, grown from m - 1 and kept with their generators."""
    key = (n, m)
    hit = _LEVELS.get(key)
    if hit is not None:
        return hit
    if m == 0:
        level: tuple[_Rep, ...] = (_Rep(empty_graph(n)),)
    else:
        below = _sparse_classes(n, m - 1)
        level = tuple(_grow(below, connected=False))
        for rep in below:  # level m - 1 is never grown again: keep its graphs only
            rep.label = rep.gens = None
        for rep in level:  # and level m needs no parents
            rep.parents = ()
    _LEVELS[key] = level
    return level


def connected_graphs(n: int, m: int):
    """An iterator over one representative per isomorphism class of connected (n, m)-graphs."""
    n, m = (_check_order(x, _LEVEL_ARGS, -math.inf) for x in (n, m))
    if m == n - 1 and 0 < n <= GENERATOR_MAX_N:
        return iter(_trees(n))
    return (g for g in graph_classes(n, m) if g.is_connected())


# ---------------------------------------------------------------------------
# edge-maximal search


class SearchEntry(Record):
    n: int
    m: int
    generated: int  # connected candidates examined at this level
    survivors: int  # of those, how many have planar token graphs


class SearchReport(Record):
    k: int
    entries: tuple[SearchEntry, ...]
    maximal: tuple[str, ...]  # canonical graph6, sorted
    stopped_at: dict[int, int]  # n -> first m with no connected survivor
    elapsed_secs: float
    mode: str  # "pruned" (grown from survivors) | "verbatim" (every connected class)
    partial: bool  # true when the wall-clock budget cut the run short

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "entries": [e.to_dict() for e in self.entries],
            "maximal": list(self.maximal),
            "stopped_at": {str(n): m for n, m in sorted(self.stopped_at.items())},
            "elapsed_secs": round(self.elapsed_secs, 3),
            "mode": self.mode,
            "partial": self.partial,
        }


def verify_maximality(g: Graph, k: int) -> bool:
    """True iff F_k(g) is planar and every single-edge addition breaks that."""
    n = g.n
    k = _check_k(k, 2, n - 2, "maximality check")
    if not token_planarity(g, k).planar:
        return False
    for u in range(n):
        for v in range(u + 1, n):
            if g.has_edge(u, v):
                continue
            if token_planarity(g.with_edge(u, v), k).planar:
                return False
    return True


def edge_maximal_search(
    k: int,
    n_range,
    *,
    budget_secs: float | None = None,
    prune: bool = True,
) -> SearchReport:
    """Find all connected graphs with planar k-token graphs that are edge-maximal.

    Follows the ascending (n, m) protocol; see the module docstring for the
    pruned/verbatim distinction. The search runs in the calling process. A
    wall-clock `budget_secs` (a real number) turns the report partial
    rather than raising; a non-number, or a negative, NaN or infinite one,
    raises `TokenGraphError`. k and the orders must be integers with
    n >= 2k >= 4, else `BadK`. An order past `GENERATOR_MAX_N` raises
    `SizeLimitExceeded` unless the search is pruned and the range holds the
    order below it, whose tree survivors it then extends.
    """
    k = _check_k(k, 2, what="the search")
    ns = sorted({_check_order(n, "search orders must be integers", -math.inf, BadK) for n in n_range})
    if not ns:
        raise BadK("the order range is empty; there is no order to search")
    if ns[0] < 2 * k:
        raise BadK(
            f"n={ns[0]} is below 2k={2 * k}; orders under 2k are answered by "
            "the complement symmetry, not searched"
        )
    for n in ns:
        if n > GENERATOR_MAX_N and not (prune and n - 1 in ns):
            raise SizeLimitExceeded(
                f"the trees are generated only for n <= {GENERATOR_MAX_N}; a larger "
                "order is searched in pruned mode, in one range with the order below it"
            )
    try:
        ok = budget_secs is None or (math.isfinite(budget_secs) and budget_secs >= 0)
    except TypeError:  # not a number at all, such as "1"
        ok = False
    if not ok:
        raise TokenGraphError(
            f"the search budget must be a finite number of seconds >= 0, got {budget_secs!r}"
        )
    start = time.monotonic()
    deadline = math.inf if budget_secs is None else start + float(budget_secs)
    entries: list[SearchEntry] = []
    maximal: list[str] = []
    stopped_at: dict[int, int] = {}
    partial = False
    trees = None  # the tree survivors of the order searched last
    for n in ns:
        seeds = trees if prune and n - 1 in ns else None
        trees = _search_order(n, k, prune, seeds, deadline, entries, maximal, stopped_at)
        if trees is None:
            partial = True
            break
    return SearchReport(
        k=k,
        entries=tuple(entries),
        maximal=tuple(sorted(maximal)),
        stopped_at=stopped_at,
        elapsed_secs=time.monotonic() - start,
        mode="pruned" if prune else "verbatim",
        partial=partial,
    )


def _search_order(n, k, prune, seeds, deadline, entries, maximal, stopped_at):
    """One order, level by level from m = n-1: its tree survivors, or None if the budget ran out.

    The tree level is `_trees(n)`, or the leaf extensions of `seeds`, the
    tree survivors of order n - 1. Survivors are reported maximal once the
    next level is tested; a budget cut leaves the pending ones unreported.
    """
    level: list[_Rep] = []
    pending: list[_Rep] = []  # survivors of level m - 1, labelled when level m is grown
    for m in count(n - 1):
        if time.monotonic() > deadline:
            return None
        if m > n - 1:
            level = _grow(level, connected=True)
        elif seeds is None:
            level = [_Rep(t) for t in _trees(n)]
        else:
            level = _leaf_extensions(seeds)
        survivors = [rep for rep in level if token_planarity(rep.g, k).planar]
        entries.append(SearchEntry(n, m, len(level), len(survivors)))
        if pending:
            # a survivor's parent loses an edge to it; a pending survivor that
            # grew none may still be some survivor's deletion on another edge.
            # It is connected, so only connected deletions can equal it, and
            # only those that share its invariant are labelled
            grew = {p for rep in survivors for p in rep.parents}
            rest = [rep for rep in pending if rep not in grew]
            if rest:
                keys = {_invariant(rep.g) for rep in rest}
                deletions = (h for t in survivors for h in _cycle_edge_deletions(t.g))
                parents = {canonical_graph6(h) for h in deletions if _invariant(h) in keys}
                labels = (rep.labelled().label for rep in rest)
                maximal.extend(s for s in labels if s not in parents)
        for rep in level:  # parent references live for one level
            rep.parents = ()
        if m == n - 1:
            seeds = survivors
        if not survivors:
            stopped_at[n] = m
            return seeds
        pending = survivors
        if prune:
            level = survivors


def _cycle_edge_deletions(g: Graph):
    """g minus each edge that lies on a cycle: for a connected g, its connected deletions."""
    rows = g._adj
    for a, b in g.edges():
        if _on_cycle(rows, a, b):
            cut = list(rows)
            cut[a] ^= 1 << b
            cut[b] ^= 1 << a
            yield Graph._from_adj(cut, g.m - 1)
