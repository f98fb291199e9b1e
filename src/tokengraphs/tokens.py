"""Token graph construction.

The k-token graph of g has one vertex per k-subset of V(g); two subsets are
adjacent when their symmetric difference is an edge of g (slide one token
along that edge). Vertex ids are colex ranks from SubsetCodec, so the
layout is deterministic and cheap to invert. F_k(g) is connected iff g is
(Fabila-Monroy et al., Graphs Combin. 28, 2012), so the build does not
check it again.

The build never unranks. It adds the base vertices one at a time and splits
on the newest, i, as in Fabila-Monroy et al. The colex rank of a subset
{s_1 < ... < s_j} is sum(C(s_t, t)), so adding i leaves the ranks of the
j-subsets of [i] = {0..i-1} as they are, and B + i gets rank C(i, j) plus
the rank of B. So F_j(G[:i+1]) is F_j(G[:i]) followed by a copy of
F_{j-1}(G[:i]) with every row and every bit shifted by C(i, j). The only
other token edges move a token between i and a lower neighbour u of it:
B + u ~ B + i for each (j-1)-subset B of [i] without u. Each costs one dict
lookup, the rank of B + u, and sets a bit in both rows.

Only the levels that can still reach k are kept: at vertex i, those with
max(1, i + 1 - (n - k)) <= j <= min(k, i + 1), plus the one-row level 0. A
base edge (u, i) with u < i then costs sum_j C(i-1, j-1) lookups over that
window. Finding each token edge directly costs C(n-2, k-1), which by
Vandermonde is sum_j C(i-1, j-1) * C(n-1-i, k-j): the shifts place the
tokens above i for free. On the benchmark's `verdicts` bases (n = 9..12),
that is 0.81 M lookups instead of 1.43 M.

The subsets B are walked from the highest rank down, so each old row gets
its highest new bit first: its int is sized once, and later bits do not
grow it. A level that leaves the window is shifted in place, each row
freed as its copy is made, so the last column holds F_k(G[:n-1]) and the
shifted F_{k-1}(G[:n-1]), never the unshifted one beside them. The edge
count is not summed from the rows: E = m * C(n-2, k-1), since each edge of
g moves a token while k - 1 others sit on the remaining n - 2 vertices.

Rows are bitmask ints of up to V bits, so a build can hold up to about V²/8
bytes of rows (F_9(C_18), V = 48,620, holds 217 MiB). The vertex budget of
10^5 bounds that by 10^10/8 bytes, about 1.2 GiB.

A planarity test needs no rows. `_neighbour_lists` gives F_k(g) as one list
of neighbours per vertex, walking the colex masks with one rank dict and
finding each token edge once, from the end whose token moves up. The
left-right test runs on those lists, so a planarity test holds O(V + E):
it runs only on a graph with E <= 3V - 6 (the Euler bound rejects the rest
first), and `token_planarity` on F_2(P_300) (44,850 vertices, 89,102 edges)
peaks at 44 MB of RSS in a fresh interpreter, where rows and LR together
peaked at 180 MB (Python 3.11.7). At the budget that is about 0.1 GiB.
Both forms check the same budget, through `_budgeted_codec`.
"""

from __future__ import annotations

from math import comb

from ._record import Record
from .errors import BudgetExceeded
from .graphs import Graph, _bits, _check_k, _relabeled, complete_graph
from .subsets import KSubset, SubsetCodec, _read_subset

DEFAULT_VERTEX_BUDGET = 10**5


class TokenGraph(Record):
    """A built token graph together with its base graph and subset codec."""

    base: Graph
    k: int
    graph: Graph
    codec: SubsetCodec

    def subset_of(self, r: int) -> KSubset:
        """The k-subset behind token vertex r."""
        return self.codec.unrank(r)

    def vertex_of(self, s) -> int:
        """The token vertex id of a k-subset."""
        return self.codec.rank(s)

    def vertex_labels(self) -> list[str]:
        """Human-readable subset labels, e.g. '{1,3}', indexed by vertex id."""
        return [_subset_label(mask) for mask in self.codec.masks()]


def _budgeted_codec(n: int, k) -> SubsetCodec:
    """The codec of F_k on n base vertices. Raises BadK unless k is an
    integer with 1 <= k < n, BudgetExceeded when C(n, k) passes
    DEFAULT_VERTEX_BUDGET; either before anything is allocated."""
    k = _check_k(k, 1, n - 1)
    codec = SubsetCodec(n, k)
    size = codec.size
    if size > DEFAULT_VERTEX_BUDGET:
        raise BudgetExceeded(
            f"C({n},{k}) = {size} token vertices exceed the budget {DEFAULT_VERTEX_BUDGET}"
            f" (bitmask rows would need up to about {size * size / 8 / 2**20:,.0f} MiB)"
        )
    return codec


def build_token_graph(g: Graph, k: int) -> TokenGraph:
    """Build the k-token graph of g.

    Walks the base vertices in order and keeps the rows of F_j(G[:i]) for
    each level j still in the window (see the module docstring): level j of
    G[:i+1] is the old level j followed by level j - 1 shifted by C(i, j),
    and one dict lookup per cross edge B + u ~ B + i sets both rows in
    place, with B walked from the highest rank down. The edge count is the
    closed form m * C(n-2, k-1). Raises BadK unless k is an integer with
    1 <= k < n, BudgetExceeded when C(n, k) would pass DEFAULT_VERTEX_BUDGET
    (checked before anything is allocated).
    """
    n = g.n
    codec = _budgeted_codec(n, k)
    k = codec.k
    base_adj = g._adj
    # rows[j] and ranks[j]: the rows of F_j(G[:i]) and a dict from each
    # j-subset of [i], as a mask, to its colex rank, kept in rank order
    rows = [[0]] + [[] for _ in range(k)]
    ranks = [{0: 0}] + [{} for _ in range(k)]
    for i in range(n):
        bit_i = 1 << i
        lower = base_adj[i] & (bit_i - 1)
        lo = max(1, i + 1 - (n - k))
        # Top level first, so level j - 1 is still F_{j-1}(G[:i]) when level j
        # shifts it.
        for j in range(min(k, i + 1), lo - 1, -1):
            c = comb(i, j)
            level, prev = rows[j], rows[j - 1]
            rank, prev_rank = ranks[j], ranks[j - 1]
            if j == lo > 1:
                # level j - 1 leaves the window: shift its rows in place, so
                # each old row is freed as soon as its copy is made
                rows[j - 1] = ranks[j - 1] = None
                for q in range(len(prev)):
                    prev[q] <<= c
                level += prev
                del prev  # else it keeps alive each row the cross edges replace
            else:
                level += [r << c for r in prev]
            # B + u ~ B + i, with B walked from the top: each old row gets its
            # highest new bit first, so its int is sized once
            for b, q in reversed(prev_rank.items()):
                free = lower & ~b
                if free:
                    r = c + q
                    bit = 1 << r
                    row = level[r]
                    while free:
                        bu = free & -free
                        free ^= bu
                        p = rank[b | bu]
                        level[p] |= bit
                        row |= 1 << p
                    level[r] = row
            if i < n - 1:
                for b, q in prev_rank.items():
                    rank[b | bit_i] = c + q
    m = g.m * comb(n - 2, k - 1)
    return TokenGraph(base=g, k=k, graph=Graph._from_adj(rows[k], m), codec=codec)


def _neighbour_lists(g: Graph, k) -> list[list[int]]:
    """F_k(g) as one list of neighbours per token vertex, with no rows.

    Vertex ids are colex ranks, as in `build_token_graph`, whose rows hold
    the same neighbours. The walk goes over the k-subsets in rank order with
    one dict from mask to rank. A token edge moves one token from u up to a
    free neighbour w > u; the subset it leaves, S, has the lower rank, as
    increasing masks are colex order. So each edge is found once, from S,
    and appended to both ends' lists: a list holds its lower neighbours in
    ascending order, then its higher ones in the order found. Raises what
    `_budgeted_codec` raises.
    """
    rank = {s: r for r, s in enumerate(_budgeted_codec(g.n, k).masks())}
    # the bits of each base vertex's higher neighbours
    ups = [[1 << w for w in _bits(row >> u + 1 << u + 1)] for u, row in enumerate(g._adj)]
    nbrs: list[list[int]] = [[] for _ in rank]
    for s, r in rank.items():
        row = nbrs[r]
        tokens = s
        while tokens:
            bu = tokens & -tokens
            tokens ^= bu
            for bw in ups[bu.bit_length() - 1]:
                if not s & bw:
                    q = rank[s - bu + bw]
                    row.append(q)
                    nbrs[q].append(r)
    return nbrs


def _subset_label(mask: int) -> str:
    """A subset as its members, e.g. '{1,3}'."""
    return "{" + ",".join(map(str, _bits(mask))) + "}"


def token_degree(g: Graph, subset) -> int:
    """Degree of the token vertex `subset` in F_k(g), without building it.

    This is the size of the edge cut between the subset and its complement.
    `subset` is a KSubset over the ground set 0..n-1 or an iterable of
    distinct members of it; anything else raises ValueError, as
    `SubsetCodec.rank` does.
    """
    amask = _read_subset(g.n, subset).mask
    return sum((g._adj[u] & ~amask).bit_count() for u in _bits(amask))


def johnson(n: int, k: int) -> TokenGraph:
    """The Johnson graph J(n, k) = k-token graph of the complete graph."""
    return build_token_graph(complete_graph(n), k)


def johnson_complement(tg: TokenGraph) -> TokenGraph:
    """Token graph of the complemented base, via edge complement inside J(n,k).

    The token graphs of g and of its complement partition the Johnson graph's
    edges: the result holds exactly the J(n,k) edges missing from tg.
    """
    jg = johnson(tg.base.n, tg.k)
    tadj = tg.graph._adj
    adj = [jg.graph._adj[r] & ~tadj[r] for r in range(tg.codec.size)]
    return TokenGraph(
        base=tg.base.complement(), k=tg.k, graph=Graph._from_adj(adj), codec=tg.codec
    )


def complement_isomorphism_check(g: Graph, k: int) -> bool:
    """Verify F_k(g) equals F_{n-k}(g) under the subset-complement relabeling."""
    fk = build_token_graph(g, k)  # raises BadK unless 1 <= k < n, and then so is n - k
    fnk = build_token_graph(g, g.n - k)
    # Complementing reverses colex order: the k-subset of rank r goes to the
    # (n-k)-subset of rank C(n, k) - 1 - r.
    size = fk.codec.size
    return _relabeled(fk.graph, range(size - 1, -1, -1)) == fnk.graph
