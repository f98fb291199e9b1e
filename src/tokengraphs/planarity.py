"""Planarity testing.

`is_planar` is the production path: reject the graph outright when it exceeds
the 3n - 6 edge bound, or when it is bipartite and exceeds 2n - 4, otherwise
run the left-right test (Brandes, *The left-right planarity test*, 2009) on
the whole graph, which walks one DFS tree per component. Both DFS passes are
iterative because token graphs routinely reach several hundred vertices. The
bipartite bound matters for token graphs: F_k(g) is bipartite iff g is
(Fabila-Monroy et al., Graphs Combin. 28, 2012).

The left-right test takes one list of neighbours per vertex and the edge
count; it needs no bitmask rows. `is_planar` lists each row's bits;
`token_planarity` hands it F_k(g)'s lists as `tokens._neighbour_lists` makes
them from the base. It keeps only the state of Brandes' algorithm, in flat
lists indexed by vertex or by edge id, with no object per edge or per
interval. The orientation DFS numbers the edges as it orients them and
records each vertex's height, parent edge and outgoing edges, and each
edge's ends and two lowpoints; a visited neighbour is a back edge iff it
sits more than one level up. The outgoing edges are then sorted in place
by nesting depth. The testing DFS keeps the conflict stack, whose pairs are
4-item lists of edge ids, and each edge's lowpoint edge and `ref` link; the
stack height at which an edge began rides in its DFS frame. Each DFS does
its per-edge steps inline.

`token_planarity` is the one path from "is F_k(g) planar?" to a verdict: the
token graph's closed-form edge count, then the paper's lemmas
(`nonplanarity_by_minor`), and only then the left-right test on F_k(g)'s
neighbour lists, with no bitmask rows built.

`planarity_oracle` is a deliberately independent cross-check for small graphs:
planarity is decided by exhaustively searching for a K5 or K3,3 minor through
contraction sequences, with degree-<=2 simplification and a memo of the
simplified graphs met during one call. The two implementations share no
logic, so agreement between them is meaningful. The module keeps no state
between calls.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from ._record import Record
from .errors import SizeLimitExceeded
from .graphs import Graph, _bits, _check_k, _edit, _mask
from .minors import nonplanarity_by_minor
from .tokens import _neighbour_lists

ORACLE_MAX_N = 10


class PlanarityVerdict(Record):
    """Outcome plus which stage decided it.

    method is "euler-bound" when the edge count rejected the graph
    (m > 3n - 6, or m > 2n - 4 for a bipartite graph, connected or not) and
    "left-right" when the LR test decided it. `token_planarity` adds the
    stages that reject F_k(g) unbuilt: "token-edge-bound" (its closed-form
    edge count) and a lemma's name.
    """

    planar: bool
    method: str

    def __bool__(self) -> bool:
        return self.planar


class _LeftRight:
    """Left-right planarity test on one graph (any number of components).

    `nbrs[v]` lists the neighbours of v, each once, and m is the number of
    edges. Edges get ids 0..m-1 in the order the orientation DFS orients them,
    each edge once, and every per-edge datum is a flat list indexed by id:
    `src`, `dst`, `lowpt` and `lowpt2`, appended as the edges are oriented,
    then `ref` and `lowpt_edge` for the testing DFS. A conflict pair is a
    list [left low, left high, right low, right high] of edge ids, with None
    where an interval has no end.
    """

    def __init__(self, nbrs: list[list[int]], m: int):
        n = len(nbrs)
        self.n = n
        self.nbrs = nbrs
        self.height: list = [None] * n
        self.parent_edge: list = [None] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.src: list[int] = []
        self.dst: list[int] = []
        self.lowpt: list[int] = []
        self.lowpt2: list[int] = []
        self.ref: list = [None] * m
        self.lowpt_edge: list = [None] * m

    def run(self) -> bool:
        roots = []
        for v in range(self.n):
            if self.height[v] is None:
                self.height[v] = 0
                roots.append(v)
                self._orient(v)
        # nesting depth: 2 * lowpt, plus one if the edge is chordal
        height = self.height
        depth = [
            2 * low + (low2 < height[v])
            for low, low2, v in zip(self.lowpt, self.lowpt2, self.src)
        ]
        for es in self.out:
            es.sort(key=depth.__getitem__)
        return all(self._test(root) for root in roots)

    # -- pass 1: orientation and lowpoints -------------------------------

    def _orient(self, root: int) -> None:
        height, parent_edge, nbrs, out = self.height, self.parent_edge, self.nbrs, self.out
        src, dst, lowpt, lowpt2 = self.src, self.dst, self.lowpt, self.lowpt2
        stack = [(root, iter(nbrs[root]))]
        while stack:
            v, it = stack[-1]
            hv = height[v]
            for w in it:
                # no cross edges in an undirected DFS: a visited w at height
                # h(v) - 1 or above is v's parent or a descendant whose edge
                # to v is oriented already
                hw = height[w]
                if hw is not None and hw >= hv - 1:
                    continue
                ei = len(dst)
                src.append(v)
                dst.append(w)
                out[v].append(ei)
                lowpt2.append(hv)
                if hw is None:  # tree edge
                    lowpt.append(hv)
                    parent_edge[w] = ei
                    height[w] = hv + 1
                    stack.append((w, iter(nbrs[w])))
                    break
                lowpt.append(hw)  # back edge, with lowpoints (h(w), h(v))
                # fold it into v's parent edge e, whose lowpoints start at
                # h(v) - 1 and only fall, so h(v) never lowers them
                e = parent_edge[v]
                low_e = lowpt[e]
                if hw < low_e:
                    lowpt2[e] = low_e
                    lowpt[e] = hw
                elif hw > low_e and hw < lowpt2[e]:
                    lowpt2[e] = hw
            else:
                stack.pop()
                ei = parent_edge[v]
                if ei is None:
                    continue
                e = parent_edge[src[ei]]
                if e is None:
                    continue
                # fold the finished tree edge ei into its parent edge e
                low, low_e = lowpt[ei], lowpt[e]
                if low < low_e:
                    lowpt2[e] = min(low_e, lowpt2[ei])
                    lowpt[e] = low
                elif low > low_e:
                    lowpt2[e] = min(lowpt2[e], low)
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[ei])

    # -- pass 2: constraint testing --------------------------------------

    def _test(self, root: int) -> bool:
        height, parent_edge, out = self.height, self.parent_edge, self.out
        src, dst, lowpt, ref, lowpt_edge = self.src, self.dst, self.lowpt, self.ref, self.lowpt_edge
        S: list[list] = []  # the conflict stack
        # a frame is (vertex, index of its next outgoing edge, stack height
        # when the edge before that began)
        stack = [(root, 0, 0)]
        while stack:
            v, i, _ = stack[-1]
            adjs = out[v]
            if i < len(adjs):
                bottom = len(S)
                stack[-1] = (v, i + 1, bottom)
                ei = adjs[i]
                if ei == parent_edge[dst[ei]]:  # tree edge: descend first
                    stack.append((dst[ei], 0, 0))
                    continue
                lowpt_edge[ei] = ei  # back edge
                S.append([None, None, ei, ei])
            else:
                stack.pop()
                ei = parent_edge[v]
                if ei is None:
                    continue
                u = src[ei]
                hu = height[u]
                # drop entire conflict pairs that return to u
                while S:
                    ll, lh, rl, rh = S[-1]
                    if ll is None and lh is None:
                        lowest = lowpt[rl]
                    elif rl is None and rh is None:
                        lowest = lowpt[ll]
                    else:
                        lowest = min(lowpt[ll], lowpt[rl])
                    if lowest != hu:
                        break
                    S.pop()
                if S:  # trim one more pair's intervals
                    ll, lh, rl, rh = P = S[-1]
                    while lh is not None and dst[lh] == u:
                        lh = ref[lh]
                    if lh is None and ll is not None:
                        ref[ll] = rl
                        ll = None
                    while rh is not None and dst[rh] == u:
                        rh = ref[rh]
                    if rh is None and rl is not None:
                        ref[rl] = ll
                        rl = None
                    P[:] = ll, lh, rl, rh
                if lowpt[ei] < hu:
                    # the side of ei is the side of a highest return edge
                    _, lh, _, rh = S[-1]
                    ref[ei] = lh if lh is not None and (rh is None or lowpt[lh] > lowpt[rh]) else rh
                v, i, bottom = stack[-1]
                i -= 1
            # integrate the return edges of ei, the i-th outgoing edge of v
            low = lowpt[ei]
            if low >= height[v]:
                continue  # no return edge
            e = parent_edge[v]
            if i == 0:
                lowpt_edge[e] = lowpt_edge[ei]
                continue
            # merge the return edges of ei into the right side of a new pair
            pll = plh = prl = prh = None
            low_e = lowpt[e]
            while True:
                ql, qlh, qrl, qrh = S.pop()
                if ql is not None or qlh is not None:
                    ql, qlh, qrl, qrh = qrl, qrh, ql, qlh
                    if ql is not None or qlh is not None:
                        return False
                if lowpt[qrl] > low_e:
                    if prl is None and prh is None:
                        prh = qrh
                    else:
                        ref[prl] = qrh
                    prl = qrl
                else:
                    ref[qrl] = lowpt_edge[e]
                if len(S) <= bottom:
                    break
            # merge conflicting return edges of earlier siblings into its left side
            while S:
                ql, qlh, qrl, qrh = S[-1]
                if qrh is not None and lowpt[qrh] > low:
                    ql, qlh, qrl, qrh = qrl, qrh, ql, qlh
                    if qrh is not None and lowpt[qrh] > low:
                        return False
                elif qlh is None or lowpt[qlh] <= low:
                    break
                S.pop()
                if prl is not None:  # the right side may have no return edge of ei
                    ref[prl] = qrh
                if qrl is not None:
                    prl = qrl
                if pll is None and plh is None:
                    plh = qlh
                else:
                    ref[pll] = qlh
                pll = ql
            if not (pll is None and plh is None and prl is None and prh is None):
                S.append([pll, plh, prl, prh])
        return True


def _past_euler(v: int, e: int, g: Graph) -> bool:
    """True iff v vertices and e edges break Euler's bound: e > 3v - 6 for
    v >= 3, or e > 2v - 4 when g is bipartite (tested only past 2v - 4)."""
    return v >= 3 and (e > 3 * v - 6 or (e > 2 * v - 4 and g.is_bipartite()))


def is_planar(g: Graph) -> PlanarityVerdict:
    """Planarity of g, connected or not.

    A simple planar graph on n >= 3 vertices has m <= 3n - 6, and a bipartite
    one m <= 2n - 4 (Euler's formula with every face of length >= 4). Joining
    the components by single edges keeps a graph planar and bipartite, so
    both bounds hold for disconnected graphs too. Past either bound the
    verdict is "euler-bound"; bipartiteness is tested only past 2n - 4.
    Otherwise the left-right test decides.
    """
    if _past_euler(g.n, g.m, g):
        return PlanarityVerdict(False, "euler-bound")
    nbrs = [list(_bits(row)) for row in g._adj]
    return PlanarityVerdict(_LeftRight(nbrs, g.m).run(), "left-right")


def token_planarity(g: Graph, k: int) -> PlanarityVerdict:
    """Planarity of F_k(g): edge bound, then the paper's lemmas, then LR.

    F_k(g) has V = C(n, k) vertices and E = m * C(n-2, k-1) edges (each edge
    of g moves a token while k - 1 others sit on the remaining n - 2
    vertices). A planar graph with V >= 3 has E <= 3V - 6, and a bipartite
    one E <= 2V - 4. F_k(g) is bipartite when g is: a move changes the
    number of tokens on one side of g by exactly one. Past either bound the
    verdict is "token-edge-bound"; next, a lemma of `nonplanarity_by_minor`
    rejects under its own name; only then does the left-right test run, on
    F_k(g)'s neighbour lists made from the base (`tokens._neighbour_lists`),
    with no bitmask rows. `is_planar` would add nothing there: its 3n - 6
    bound is the one above, and its bipartite bound is too, as F_k(g) is
    bipartite only when g is. Raises BadK unless 1 <= k < n, and
    BudgetExceeded when the test would list more than
    `tokens.DEFAULT_VERTEX_BUDGET` token vertices.
    """
    k = _check_k(k, 1, g.n - 1)
    m = g.m * comb(g.n - 2, k - 1)
    if _past_euler(comb(g.n, k), m, g):
        return PlanarityVerdict(False, "token-edge-bound")
    lemma = nonplanarity_by_minor(g, k)
    if lemma is not None:
        return PlanarityVerdict(False, lemma)
    return PlanarityVerdict(_LeftRight(_neighbour_lists(g, k), m).run(), "left-right")


# ---------------------------------------------------------------------------
# independent oracle for small graphs


def _simplify(g: Graph) -> Graph:
    """Strip degree-<=1 vertices and suppress degree-2 vertices.

    Both reductions preserve the presence of minors with minimum degree >= 3,
    which covers K5 and K3,3.
    """
    while True:
        degs = g.degrees()
        if min(degs, default=2) <= 1:  # highest first: no deletion shifts a later label
            g = _edit(g, [("dv", v) for v in reversed(range(g.n)) if degs[v] <= 1])
        elif 2 in degs:
            two = degs.index(2)
            g = g.contract_edge(two, next(_bits(g._adj[two])))
        else:
            return g


def _has_clique5(g: Graph) -> bool:
    adj = g._adj
    cand = [v for v in range(g.n) if adj[v].bit_count() >= 4]
    for quint in combinations(cand, 5):
        mask = _mask(quint)
        if all((adj[v] & mask).bit_count() == 4 for v in quint):
            return True
    return False


def _has_k33_subgraph(g: Graph) -> bool:
    adj = g._adj
    for a, b, c in combinations(range(g.n), 3):
        trip = (1 << a) | (1 << b) | (1 << c)
        common = adj[a] & adj[b] & adj[c] & ~trip
        if common.bit_count() >= 3:
            return True
    return False


def _has_kuratowski_minor(g: Graph, memo: dict[Graph, bool]) -> bool:
    """True iff g has a K5 or K3,3 minor; `memo` maps simplified graphs seen so far."""
    g = _simplify(g)
    if g.n < 5 or g.m < 9:
        return False
    if g not in memo:
        memo[g] = _has_clique5(g) or _has_k33_subgraph(g) or any(
            _has_kuratowski_minor(g.contract_edge(u, v), memo) for u, v in g.edges()
        )
    return memo[g]


def planarity_oracle(g: Graph) -> bool:
    """Exhaustive minor search: planar iff no K5 and no K3,3 minor.

    Exponential by design; capped at n <= ORACLE_MAX_N.
    """
    if g.n > ORACLE_MAX_N:
        raise SizeLimitExceeded(
            f"planarity oracle is capped at n <= {ORACLE_MAX_N}, got n={g.n}"
        )
    return not _has_kuratowski_minor(g, {})
