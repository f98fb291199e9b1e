"""Connected-graph enumeration and the edge-maximal planar-token search.

Every level is generated in one way: take the single-edge children of the
previous level's graphs that pass the canonical-deletion test, and keep one
graph per canonical form (`canonical_graph6`). The test (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998, with the cheap invariant
pre-test of `geng`) accepts a child H = G + e only if no deletable edge of H
has a larger invariant (larger end degree, smaller end degree, common
neighbours) than e; only accepted children are labelled. In
`graph_classes(n, m)`, which grows from the empty graph on n vertices, every
edge is deletable. The search starts from the trees on n vertices, which
`_trees` generates directly, one per class, as the canonical level sequences
of the trees rooted at a centre (Wright, Richmond, Odlyzko & McKay, 1986),
with no labelling and no smaller order; it grows every later level from the
one before, and there an edge is deletable iff it is not a bridge, so that
deleting it leaves a connected graph of the previous level. No class is
lost: delete from H a deletable edge of maximum invariant; the previous
level holds the class of the result, and its representative plus the image
of that edge is a copy of H that passes the test.

The search walks m upward from n-1 per order n, keeps the graphs whose
k-token graphs are planar (`token_planarity`, which rejects by the token
graph's edge count, then by the paper's lemmas, before building it), and
stops at the first m with no survivor. Planarity of token graphs only ever
degrades when edges are added to the base, so every survivor at level m is
a child of a survivor at level m - 1 (its canonical deletion among them),
and a survivor is edge-maximal iff no survivor of level m + 1 loses an edge
to it. The two modes differ only in which level they grow from: "pruned"
mode (the default) grows from the previous level's survivors, "verbatim"
mode from the whole previous level, which cross-checks the pruning. "file"
mode reads each level from a graph6 stream instead of growing it; each
level there must be complete, as `geng -c` writes it. One search generates
the trees of each order once, and reads and checks its graph6 stream once:
each line stays packed by (n, m) until the search reaches its level, and
the levels above a stop are never unpacked.

`GENERATOR_MAX_N` caps the trees, `graph_classes` and verbatim mode; the
budget is checked only between levels, so the cap bounds the tree level
(3,159 trees at n = 14), which no budget can cut short. For 11 <= n <= 14 a
pruned search stays near the trees: k = 2 keeps only the path and stops at
m = n, and k >= 3 stops at the trees.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import count

from .canon import canonical_graph6
from .errors import BadK, SizeLimitExceeded, TokenGraphError
from .graph6 import _lines, _parse, _unpack
from .graphs import Graph, _bits, empty_graph
from .planarity import token_planarity
from .tokens import _check_interior_k

GENERATOR_MAX_N = 14


# ---------------------------------------------------------------------------
# canonical-form growth


def _dedup(graphs) -> list[Graph]:
    """The first graph of each isomorphism class, in order of appearance."""
    seen: set[str] = set()
    out = []
    for g in graphs:
        label = canonical_graph6(g)
        if label not in seen:
            seen.add(label)
            out.append(g)
    return out


def _is_canonical_deletion(adj, deg, u: int, v: int, connected: bool) -> bool:
    """True iff no deletable edge beats the new edge (u, v) on the invariant.

    `adj` and `deg` are the adjacency masks and degrees of the child. The
    invariant of an edge is (larger end degree, smaller end degree, common
    neighbours). With `connected`, only edges on a cycle are deletable.
    """
    hi, lo = (deg[u], deg[v]) if deg[u] >= deg[v] else (deg[v], deg[u])
    common = (adj[u] & adj[v]).bit_count()
    for a, da in enumerate(deg):
        if da < hi:
            continue
        for b in _bits(adj[a]):
            db = deg[b]
            if db > da or (da == hi and db < lo):
                continue  # counted from b's end, or beaten on the degrees
            if da == hi and db == lo and (adj[a] & adj[b]).bit_count() <= common:
                continue
            if not connected or adj[a] & adj[b]:
                return False
            cut = list(adj)
            cut[a] ^= 1 << b
            cut[b] ^= 1 << a
            if Graph._from_adj(cut).component_mask(a) >> b & 1:
                return False  # (a, b) lies on a cycle
    return True


def _accepted_children(level, connected: bool):
    """The children of `level` that pass the test, by parent and then new edge (u, v)."""
    for g in level:
        deg = g.degrees()
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g._adj[u] >> v & 1:
                    continue
                adj = list(g._adj)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                deg[u] += 1
                deg[v] += 1
                if _is_canonical_deletion(adj, deg, u, v, connected):
                    yield Graph._from_adj(adj)
                deg[u] -= 1
                deg[v] -= 1


def _grow(level, connected: bool) -> list[Graph]:
    """The single-edge children of `level` that pass the canonical-deletion test, one per class.

    A child G + e is accepted iff no deletable edge has a larger invariant
    than e; with `connected`, bridges are not deletable. Every class of the
    next level still appears: a deletable edge of maximum invariant is the
    new edge of a child of the representative of its deletion's class.
    """
    return _dedup(_accepted_children(level, connected))


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


_LEVELS: dict[tuple[int, int], tuple[Graph, ...]] = {}


def graph_classes(n: int, m: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of (n, m)-graphs.

    Dense levels are answered by complementing the sparse ones. The middle
    levels are out of practical reach for n >= 9, up to the cap
    `GENERATOR_MAX_N`; the package only ever needs small m (or small co-m)
    there.
    """
    if n < 0 or m < 0:
        return ()
    if n > GENERATOR_MAX_N:
        raise SizeLimitExceeded(
            f"built-in generation is capped at n <= {GENERATOR_MAX_N}; "
            "stream larger orders from a graph6 file instead"
        )
    total = n * (n - 1) // 2
    if m > total:
        return ()
    if m > total - m:
        return tuple(g.complement() for g in graph_classes(n, total - m))
    key = (n, m)
    hit = _LEVELS.get(key)
    if hit is not None:
        return hit
    if m == 0:
        level: tuple[Graph, ...] = (empty_graph(n),)
    else:
        level = tuple(_grow(graph_classes(n, m - 1), connected=False))
    _LEVELS[key] = level
    return level


def _read_levels(path: str, orders) -> dict[tuple[int, int], list[bytes]]:
    """The lines of a graph6 file with an order in `orders`, checked and kept packed, by (n, m).

    Every line is checked here, so a malformed one fails before any search;
    each bucket keeps the file's order and duplicates, and `_file_level`
    unpacks it when the search reaches it.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    levels: dict[tuple[int, int], list[bytes]] = {}
    for line in _lines(text):
        n, m, stream = _parse(line)
        if n in orders:
            levels.setdefault((n, m), []).append(stream)
    return levels


def _file_level(levels, n: int, m: int) -> list[Graph]:
    """One graph per class of the connected (n, m)-graphs of a file read by `_read_levels`."""
    graphs = (Graph._from_adj(_unpack(n, stream), m) for stream in levels.get((n, m), ()))
    return _dedup(g for g in graphs if g.is_connected())


def connected_graphs(n: int, m: int, *, from_file: str | None = None):
    """Stream one representative per isomorphism class of connected (n, m)-graphs."""
    if from_file is not None:
        yield from _file_level(_read_levels(from_file, {n}), n, m)
        return
    if m == n - 1 and 0 < n <= GENERATOR_MAX_N:
        yield from _trees(n)
        return
    for g in graph_classes(n, m):
        if g.is_connected():
            yield g


# ---------------------------------------------------------------------------
# edge-maximal search


@dataclass(frozen=True)
class SearchEntry:
    n: int
    m: int
    generated: int  # connected candidates examined at this level
    survivors: int  # of those, how many have planar token graphs


@dataclass(frozen=True)
class SearchReport:
    k: int
    entries: tuple[SearchEntry, ...]
    maximal: tuple[str, ...]  # canonical graph6, sorted
    stopped_at: dict[int, int]  # n -> first m with no connected survivor
    elapsed_secs: float
    mode: str  # "pruned" | "verbatim" | "file"
    partial: bool  # true when the wall-clock budget cut the run short

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "entries": [
                {
                    "n": e.n,
                    "m": e.m,
                    "generated": e.generated,
                    "survivors": e.survivors,
                }
                for e in self.entries
            ],
            "maximal": list(self.maximal),
            "stopped_at": {str(n): m for n, m in sorted(self.stopped_at.items())},
            "elapsed_secs": round(self.elapsed_secs, 3),
            "mode": self.mode,
            "partial": self.partial,
        }


def verify_maximality(g: Graph, k: int) -> bool:
    """True iff F_k(g) is planar and every single-edge addition breaks that."""
    n = g.n
    _check_interior_k(n, k, "maximality check")
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
    from_file: str | None = None,
) -> SearchReport:
    """Find all connected graphs with planar k-token graphs that are edge-maximal.

    Follows the ascending (n, m) protocol; see the module docstring for the
    pruned/verbatim distinction. The search runs in the calling process. A
    wall-clock `budget_secs` turns the report partial rather than raising; a
    negative, NaN or infinite one raises `TokenGraphError`, and an empty
    `n_range` raises `BadK`.
    """
    if k < 2:
        raise BadK(f"the search is defined for k >= 2, got k={k}")
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise BadK("the order range is empty; there is no order to search")
    for n in ns:
        if n < 2 * k:
            raise BadK(
                f"n={n} is below 2k={2 * k}; orders under 2k are answered by "
                "the complement symmetry, not searched"
            )
        if n > GENERATOR_MAX_N and from_file is None:
            raise SizeLimitExceeded(
                f"built-in generation is capped at n <= {GENERATOR_MAX_N}; "
                "pass from_file=... to search larger orders"
            )
    if budget_secs is not None and not (math.isfinite(budget_secs) and budget_secs >= 0):
        raise TokenGraphError(
            f"the search budget must be a finite number of seconds >= 0, got {budget_secs}"
        )
    mode = "file" if from_file is not None else ("pruned" if prune else "verbatim")
    start = time.monotonic()
    deadline = math.inf if budget_secs is None else start + budget_secs
    entries: list[SearchEntry] = []
    maximal: list[str] = []
    stopped_at: dict[int, int] = {}
    partial = False
    levels = None if from_file is None else _read_levels(from_file, set(ns))
    for n in ns:
        partial = _search_order(n, k, mode, levels, deadline, entries, maximal, stopped_at)
        if partial:
            break
    return SearchReport(
        k=k,
        entries=tuple(entries),
        maximal=tuple(sorted(maximal)),
        stopped_at=stopped_at,
        elapsed_secs=time.monotonic() - start,
        mode=mode,
        partial=partial,
    )


def _search_order(n, k, mode, levels, deadline, entries, maximal, stopped_at) -> bool:
    """One order, level by level from m = n-1. Returns True when the budget ran out.

    Survivors are reported maximal once the next level is tested; a budget
    cut leaves the pending ones unreported.
    """
    level: list[Graph] = []
    pending: list[Graph] = []  # survivors of level m - 1
    for m in count(n - 1):
        if time.monotonic() > deadline:
            return True
        if mode == "file":
            level = _file_level(levels, n, m)
        elif m == n - 1:
            level = _trees(n)
        else:
            level = _grow(level, connected=True)
        survivors = [g for g in level if token_planarity(g, k).planar]
        entries.append(SearchEntry(n, m, len(level), len(survivors)))
        if pending:
            # a pending survivor is connected, so only connected deletions can equal one
            deletions = (t.delete_edge(u, v) for t in survivors for u, v in t.edges())
            parents = {canonical_graph6(h) for h in deletions if h.is_connected()}
            maximal.extend(s for s in map(canonical_graph6, pending) if s not in parents)
        if not survivors:
            stopped_at[n] = m
            return False
        pending = survivors
        if mode == "pruned":
            level = survivors
