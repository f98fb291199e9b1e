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
10^5 bounds that by 10^10/8 bytes, about 1.2 GiB. The left-right test
holds O(V + E) on top: it runs only on a graph with E <= 3V - 6 (the Euler
bound rejects the rest first), and keeps about 600 bytes of RSS per edge
(F_2(P_300): 89,102 edges, 50 MB), so at the budget a planarity test of a
build may hold about 1.2 GiB of rows plus about 0.2 GiB of its own.
"""

from __future__ import annotations

from math import comb

from ._record import Record
from .errors import BadK, BudgetExceeded
from .graphs import Graph, _bits, _relabeled, complete_graph
from .subsets import KSubset, SubsetCodec

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
        return ["{" + ",".join(map(str, _bits(mask))) + "}" for mask in self.codec.masks()]


def _check_k(n: int, k: int) -> None:
    if not 1 <= k < n:
        raise BadK(f"need 1 <= k < n, got k={k} for n={n}")


def _check_interior_k(n: int, k: int, what: str) -> None:
    if not 2 <= k <= n - 2:
        raise BadK(f"{what} needs 2 <= k <= n-2, got k={k}, n={n}")


def build_token_graph(g: Graph, k: int) -> TokenGraph:
    """Build the k-token graph of g.

    Walks the base vertices in order and keeps the rows of F_j(G[:i]) for
    each level j still in the window (see the module docstring): level j of
    G[:i+1] is the old level j followed by level j - 1 shifted by C(i, j),
    and one dict lookup per cross edge B + u ~ B + i sets both rows in
    place, with B walked from the highest rank down. The edge count is the
    closed form m * C(n-2, k-1). Raises BadK unless 1 <= k < n,
    BudgetExceeded when C(n, k) would pass DEFAULT_VERTEX_BUDGET (checked
    before anything is allocated).
    """
    n = g.n
    _check_k(n, k)
    codec = SubsetCodec(n, k)
    size = codec.size
    if size > DEFAULT_VERTEX_BUDGET:
        raise BudgetExceeded(
            f"C({n},{k}) = {size} token vertices exceed the budget {DEFAULT_VERTEX_BUDGET}"
            f" (bitmask rows would need up to about {size * size / 8 / 2**20:,.0f} MiB)"
        )
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


def token_degree(g: Graph, subset) -> int:
    """Degree of the token vertex `subset` in F_k(g), without building it.

    This is the size of the edge cut between the subset and its complement.
    `subset` is a KSubset over the ground set 0..n-1 or an iterable of
    distinct members of it; anything else raises ValueError, as
    `SubsetCodec.rank` does.
    """
    if not isinstance(subset, KSubset):
        subset = KSubset(tuple(sorted(subset)), g.n)
    elif subset.n != g.n:
        raise ValueError(f"subset over 0..{subset.n - 1} for a graph on {g.n} vertices")
    amask = subset.mask
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
    n = g.n
    _check_k(n, k)
    _check_k(n, n - k)
    fk = build_token_graph(g, k)
    fnk = build_token_graph(g, n - k)
    # Complementing reverses colex order: the k-subset of rank r goes to the
    # (n-k)-subset of rank C(n, k) - 1 - r.
    size = fk.codec.size
    return _relabeled(fk.graph, range(size - 1, -1, -1)) == fnk.graph
