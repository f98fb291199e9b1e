"""Planarity testing.

`is_planar` is the production path: reject the graph outright when it exceeds
the 3n - 6 edge bound, or when it is bipartite and exceeds 2n - 4, otherwise
run the left-right test (Brandes, *The left-right planarity test*, 2009) on
the whole graph, which walks one DFS tree per component. Both DFS passes are
iterative because token graphs routinely reach several hundred vertices. The
bipartite bound matters for token graphs: F_k(g) is bipartite iff g is
(Fabila-Monroy et al., Graphs Combin. 28, 2012).

The left-right test keeps only the state of Brandes' algorithm. The
orientation DFS records each vertex's height, parent edge and outgoing edges,
and each oriented edge's two lowpoints; it reads the adjacency rows directly,
and a visited neighbour is a back edge iff it sits more than one level up.
The outgoing edges are then sorted in place by nesting depth. The testing DFS
keeps the conflict stack of interval pairs, each edge's lowpoint edge and
`ref` link; the stack height at which an edge began rides in its DFS frame.

`token_planarity` is the one path from "is F_k(g) planar?" to a verdict: the
token graph's closed-form edge count, then the paper's lemmas
(`nonplanarity_by_minor`), and only then a build of F_k(g) handed straight to
the left-right test.

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
from .tokens import build_token_graph

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


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left


class _LeftRight:
    """Left-right planarity test on one graph (any number of components)."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.rows = g._adj
        self.height: list = [None] * g.n
        self.parent_edge: list = [None] * g.n
        self.lowpt: dict = {}
        self.lowpt2: dict = {}
        self.out: list[list[int]] = [[] for _ in range(g.n)]
        # testing state
        self.S: list[_Pair] = []
        self.lowpt_edge: dict = {}
        self.ref: dict = {}

    def run(self) -> bool:
        roots = []
        for v in range(self.n):
            if self.height[v] is None:
                self.height[v] = 0
                roots.append(v)
                self._orient(v)
        # nesting depth: 2 * lowpt, plus one if the edge is chordal
        lowpt, lowpt2 = self.lowpt, self.lowpt2
        for v, ws in enumerate(self.out):
            h = self.height[v]
            ws.sort(key=lambda w: 2 * lowpt[v, w] + (lowpt2[v, w] < h))
        return all(self._test(root) for root in roots)

    # -- pass 1: orientation and lowpoints -------------------------------

    def _orient(self, root: int) -> None:
        height, parent_edge = self.height, self.parent_edge
        # a frame keeps its neighbours as a list: a `_bits` generator would keep
        # two ints as wide as the row, so a DFS as deep as V would hold O(V^2) bits
        stack = [(root, iter(list(_bits(self.rows[root]))))]
        while stack:
            v, it = stack[-1]
            for w in it:
                # no cross edges in an undirected DFS: a visited w at height
                # h(v) - 1 or above is v's parent or a descendant whose edge
                # to v is oriented already
                if height[w] is not None and height[w] >= height[v] - 1:
                    continue
                ei = (v, w)
                self.out[v].append(w)
                self.lowpt[ei] = self.lowpt2[ei] = height[v]
                if height[w] is None:  # tree edge
                    parent_edge[w] = ei
                    height[w] = height[v] + 1
                    stack.append((w, iter(list(_bits(self.rows[w])))))
                    break
                self.lowpt[ei] = height[w]  # back edge
                self._finish_edge(ei)
            else:
                stack.pop()
                if parent_edge[v] is not None:
                    self._finish_edge(parent_edge[v])

    def _finish_edge(self, ei) -> None:
        e = self.parent_edge[ei[0]]
        if e is None:
            return
        if self.lowpt[ei] < self.lowpt[e]:
            self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[ei])
            self.lowpt[e] = self.lowpt[ei]
        elif self.lowpt[ei] > self.lowpt[e]:
            self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[ei])
        else:
            self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[ei])

    # -- pass 2: constraint testing --------------------------------------

    def _test(self, root: int) -> bool:
        stack = [(root, 0, 0)]
        while stack:
            v, i, _ = stack[-1]
            adjs = self.out[v]
            if i < len(adjs):
                bottom = len(self.S)
                stack[-1] = (v, i + 1, bottom)
                w = adjs[i]
                ei = (v, w)
                if ei == self.parent_edge[w]:  # tree edge: descend first
                    stack.append((w, 0, 0))
                    continue
                self.lowpt_edge[ei] = ei  # back edge
                self.S.append(_Pair(right=_Interval(ei, ei)))
                if not self._after_edge(v, w, i, bottom):
                    return False
                continue
            stack.pop()
            e = self.parent_edge[v]
            if e is None:
                continue
            u = e[0]
            self._trim_back_edges(u)
            if self.lowpt[e] < self.height[u]:
                # the side of e is the side of a highest return edge
                top = self.S[-1]
                hl, hr = top.left.high, top.right.high
                if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                    self.ref[e] = hl
                else:
                    self.ref[e] = hr
            _, i, bottom = stack[-1]
            if not self._after_edge(u, v, i - 1, bottom):
                return False
        return True

    def _after_edge(self, v: int, w: int, idx: int, bottom: int) -> bool:
        ei = (v, w)
        if self.lowpt[ei] >= self.height[v]:
            return True  # no return edge
        if idx == 0:
            self.lowpt_edge[self.parent_edge[v]] = self.lowpt_edge[ei]
            return True
        return self._add_constraints(ei, self.parent_edge[v], bottom)

    def _conflicting(self, interval: _Interval, b) -> bool:
        return interval.high is not None and self.lowpt[interval.high] > self.lowpt[b]

    def _lowest(self, pair: _Pair) -> int:
        if pair.left.empty():
            return self.lowpt[pair.right.low]
        if pair.right.empty():
            return self.lowpt[pair.left.low]
        return min(self.lowpt[pair.left.low], self.lowpt[pair.right.low])

    def _add_constraints(self, ei, e, bottom: int) -> bool:
        P = _Pair()
        # merge return edges of ei into P.right
        while True:
            Q = self.S.pop()
            if not Q.left.empty():
                Q.swap()
            if not Q.left.empty():
                return False
            if self.lowpt[Q.right.low] > self.lowpt[e]:
                if P.right.empty():
                    P.right.high = Q.right.high
                else:
                    self.ref[P.right.low] = Q.right.high
                P.right.low = Q.right.low
            else:
                self.ref[Q.right.low] = self.lowpt_edge[e]
            if len(self.S) <= bottom:
                break
        # merge conflicting return edges of earlier siblings into P.left
        while self.S and (
            self._conflicting(self.S[-1].left, ei)
            or self._conflicting(self.S[-1].right, ei)
        ):
            Q = self.S.pop()
            if self._conflicting(Q.right, ei):
                Q.swap()
            if self._conflicting(Q.right, ei):
                return False
            self.ref[P.right.low] = Q.right.high
            if Q.right.low is not None:
                P.right.low = Q.right.low
            if P.left.empty():
                P.left.high = Q.left.high
            else:
                self.ref[P.left.low] = Q.left.high
            P.left.low = Q.left.low
        if not (P.left.empty() and P.right.empty()):
            self.S.append(P)
        return True

    def _trim_back_edges(self, u: int) -> None:
        # drop entire conflict pairs that return to u
        while self.S and self._lowest(self.S[-1]) == self.height[u]:
            self.S.pop()
        if not self.S:
            return
        # trim one more pair's intervals
        P = self.S.pop()
        while P.left.high is not None and P.left.high[1] == u:
            P.left.high = self.ref.get(P.left.high)
        if P.left.high is None and P.left.low is not None:
            self.ref[P.left.low] = P.right.low
            P.left.low = None
        while P.right.high is not None and P.right.high[1] == u:
            P.right.high = self.ref.get(P.right.high)
        if P.right.high is None and P.right.low is not None:
            self.ref[P.right.low] = P.left.low
            P.right.low = None
        self.S.append(P)


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
    return PlanarityVerdict(_LeftRight(g).run(), "left-right")


def token_planarity(g: Graph, k: int) -> PlanarityVerdict:
    """Planarity of F_k(g): edge bound, then the paper's lemmas, then a build.

    F_k(g) has V = C(n, k) vertices and E = m * C(n-2, k-1) edges (each edge
    of g moves a token while k - 1 others sit on the remaining n - 2
    vertices). A planar graph with V >= 3 has E <= 3V - 6, and a bipartite
    one E <= 2V - 4. F_k(g) is bipartite when g is: a move changes the
    number of tokens on one side of g by exactly one. Past either bound the
    verdict is "token-edge-bound"; next, a lemma of `nonplanarity_by_minor`
    rejects under its own name; only then is F_k(g) built and handed to the
    left-right test. `is_planar` would add nothing there: its 3n - 6 bound is
    the one above, and its bipartite bound is too, as F_k(g) is bipartite
    only when g is. Raises BadK unless 1 <= k < n.
    """
    k = _check_k(k, 1, g.n - 1)
    if _past_euler(comb(g.n, k), g.m * comb(g.n - 2, k - 1), g):
        return PlanarityVerdict(False, "token-edge-bound")
    lemma = nonplanarity_by_minor(g, k)
    if lemma is not None:
        return PlanarityVerdict(False, lemma)
    built = build_token_graph(g, k).graph
    return PlanarityVerdict(_LeftRight(built).run(), "left-right")


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
