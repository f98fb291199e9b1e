"""Token graph construction.

The k-token graph of g has one vertex per k-subset of V(g); two subsets are
adjacent when their symmetric difference is an edge of g (slide one token
along that edge). Vertex ids are colex ranks from SubsetCodec, so the
layout is deterministic and cheap to invert. F_k(g) is connected iff g is
(Fabila-Monroy et al., Graphs Combin. 28, 2012), so the build does not
check it again.

The build never unranks. `SubsetCodec.masks` walks the subsets in colex
order by Gosper's next-combination step, and one dict, kept in that order,
maps each mask back to its rank. Token edges are read off cut edges: for a
token on u and a free neighbour w of u, A - u + w is a neighbour of A. Only
w < u is taken, which makes A - u + w the lower end in colex order, so each
token edge costs one dict lookup and sets a bit in both rows. The ranks are
walked from the top down: a row first receives its highest bits (from the
higher ends), so its int is sized once. The edge count is not summed from
the rows: E = m * C(n-2, k-1), since each edge of g moves a token while
k - 1 others sit on the remaining n - 2 vertices.

Rows are bitmask ints of up to V bits, so a build can hold up to about V²/8
bytes of rows (F_9(C_18), V = 48,620, holds 217 MiB). The default vertex
budget of 10^5 keeps that near 1.2 GiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import BadK, BudgetExceeded
from .graphs import Graph, _bits, _relabeled, complete_graph
from .subsets import KSubset, SubsetCodec

DEFAULT_VERTEX_BUDGET = 10**5


@dataclass(frozen=True)
class TokenGraph:
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


def build_token_graph(
    g: Graph, k: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> TokenGraph:
    """Build the k-token graph of g.

    One dict lookup per token edge, found from its higher end in colex order
    with the ranks walked top down; the edge count is the closed form
    m * C(n-2, k-1). Raises BadK unless 1 <= k < n, BudgetExceeded when
    C(n, k) would pass `vertex_budget` (checked before anything is
    allocated).
    """
    n = g.n
    _check_k(n, k)
    codec = SubsetCodec(n, k)
    size = codec.size
    if size > vertex_budget:
        raise BudgetExceeded(
            f"C({n},{k}) = {size} token vertices exceed the budget {vertex_budget}"
            f" (bitmask rows would need up to about {size * size / 8 / 2**20:,.0f} MiB)"
        )
    rank_of = {mask: r for r, mask in enumerate(codec.masks())}
    base_adj = g._adj
    adj = [0] * size
    # Top-down, so every bit a row gets from a higher rank comes before its
    # own lower bits: the row's int is sized by the first bit it receives.
    for ra, a in zip(range(size - 1, -1, -1), reversed(rank_of)):
        bit_a = 1 << ra
        row = adj[ra]
        tokens = a
        while tokens:
            bu = tokens & -tokens
            tokens ^= bu
            others = a ^ bu
            # w < u makes A - u + w lower in colex order: each edge once
            free = base_adj[bu.bit_length() - 1] & ~a & (bu - 1)
            while free:
                bw = free & -free
                free ^= bw
                rb = rank_of[others | bw]
                row |= 1 << rb
                adj[rb] |= bit_a
        adj[ra] = row
    m = g.m * comb(n - 2, k - 1)
    return TokenGraph(base=g, k=k, graph=Graph._from_adj(adj, m), codec=codec)


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
    total = 0
    mask = amask
    while mask:
        lsb = mask & -mask
        total += (g._adj[lsb.bit_length() - 1] & ~amask).bit_count()
        mask ^= lsb
    return total


def johnson(n: int, k: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> TokenGraph:
    """The Johnson graph J(n, k) = k-token graph of the complete graph."""
    return build_token_graph(complete_graph(n), k, vertex_budget=vertex_budget)


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
    co = fnk.codec
    # map: rank r of a k-subset -> rank of its complement as an (n-k)-subset
    full = (1 << n) - 1
    to_co = [co.rank_mask(full ^ mask) for mask in fk.codec.masks()]
    return _relabeled(fk.graph, to_co) == fnk.graph
