"""Structural classification of token graphs without building them.

`classify_regularity` decides whether F_k(g) is regular straight from the
shape of g: exactly the complete graph, the edgeless graph, and (for k = n/2)
the star and its complement produce regular token graphs. Everything else is
irregular, and the verdict carries a concrete witness pair of token vertices
with different degrees. The witness comes from an exact swap search: any two
k-subsets are joined by a chain of single swaps S + u -> S + v, so an
irregular F_k(g) has such a pair with different degrees, and the swap
identity in `RegularityWitness` tells from g alone which pairs (u, v) admit
one.

`classify_planarity` decides planarity of F_k(g) for connected g by the
paper's characterization, with no build. With j = min(k, n - k), F_k(g) is
planar iff g is a subgraph of an edge-maximal graph of order n for j: for
n <= 10, one of the census graphs held below as graph6 data; for n >= 11,
P_n when j = 2 and none when j >= 3. The search computes the census with
its own planarity test and never reads this data; the tests check that the
search regenerates it.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations

from ._record import Record
from .errors import (
    Disconnected,
    NoP3Found,
    NotAnEdge,
    NotRegularInput,
    TokenGraphError,
)
from .graph6 import decode_graph6
from .graphs import (
    Graph,
    _bits,
    _check_k,
    _has_planned,
    _iter_embeddings,
    _pattern_order,
    has_subgraph,
    path_graph,
)
from .tokens import token_degree


class RegularityCase(str, Enum):
    COMPLETE = "complete"
    EMPTY = "empty"
    STAR_HALF = "star-half"
    COSTAR_HALF = "costar-half"
    NOT_REGULAR = "not-regular"


class RegularityWitness(Record):
    """Two token vertices A = S + u and B = S + v with different degrees.

    S is a (k-1)-subset avoiding u and v. With X, Y, W, Z the cells of
    `partition_uv(g, u, v)`, only u's and v's edges into S change across the
    swap, so

        d(S + u) - d(S + v) = (deg u - deg v) - 2(|S ∩ X| - |S ∩ Y|).

    Any two k-subsets are joined by a chain of such swaps, so F_k(g) is
    irregular iff some pair (u, v) and counts s_x <= |X|, s_y <= |Y| with
    0 <= k - 1 - s_x - s_y <= |W| + |Z| give deg u - deg v != 2(s_x - s_y).
    """

    subset_a: tuple[int, ...]
    subset_b: tuple[int, ...]
    degree_a: int
    degree_b: int


class RegularityVerdict(Record):
    regular: bool
    case: RegularityCase
    k: int
    witness: RegularityWitness | None


class NeighborhoodPartition(Record):
    """Split of V minus {u, v} by adjacency toward u and v.

    x = neighbours of u only, y = neighbours of v only, w = common
    neighbours, z = adjacent to neither. The four sets are disjoint and
    together cover every vertex other than u and v.
    """

    u: int
    v: int
    x: frozenset[int]
    y: frozenset[int]
    w: frozenset[int]
    z: frozenset[int]


def partition_uv(g: Graph, u: int, v: int) -> NeighborhoodPartition:
    nu, nv = g.adjacency_mask(u), g.adjacency_mask(v)  # each reads its vertex
    if u == v:
        raise NotAnEdge(f"need two distinct vertices, got {u} twice")
    rest = ((1 << g.n) - 1) & ~((1 << u) | (1 << v))
    return NeighborhoodPartition(
        u=u,
        v=v,
        x=frozenset(_bits(nu & ~nv & rest)),
        y=frozenset(_bits(nv & ~nu & rest)),
        w=frozenset(_bits(nu & nv & rest)),
        z=frozenset(_bits(rest & ~nu & ~nv)),
    )


def _swap_witness(g: Graph, k: int) -> RegularityWitness | None:
    """Two k-subsets S + u and S + v of different token degree, if any exist.

    For each pair u < v, the counts s_x = |S ∩ X| and s_y = |S ∩ Y| fix the
    degree gap (RegularityWitness has the identity); the rest of S comes
    from W ∪ Z. The search is exact and costs O(n²k²): it enumerates counts,
    never subsets.
    """
    degs = g.degrees()
    for u, v in combinations(range(g.n), 2):
        part = partition_uv(g, u, v)
        gap = degs[u] - degs[v]
        spare = len(part.w) + len(part.z)
        for sx in range(min(len(part.x), k - 1) + 1):
            for sy in range(max(0, k - 1 - sx - spare), min(len(part.y), k - 1 - sx) + 1):
                if gap == 2 * (sx - sy):
                    continue
                s = sorted(part.x)[:sx] + sorted(part.y)[:sy]
                s += sorted(part.w | part.z)[: k - 1 - sx - sy]
                a = tuple(sorted(s + [u]))
                b = tuple(sorted(s + [v]))
                return RegularityWitness(a, b, token_degree(g, a), token_degree(g, b))
    return None


def classify_regularity(g: Graph, k: int) -> RegularityVerdict:
    """Regularity of F_k(g) by structure of g alone (witnessed when false)."""
    k = _check_k(k, 2, g.n - 2, "regularity classification")
    if g.is_complete():
        return RegularityVerdict(True, RegularityCase.COMPLETE, k, None)
    if g.is_empty_graph():
        return RegularityVerdict(True, RegularityCase.EMPTY, k, None)
    if 2 * k == g.n:
        if g.is_star_graph():
            return RegularityVerdict(True, RegularityCase.STAR_HALF, k, None)
        if g.complement().is_star_graph():
            return RegularityVerdict(True, RegularityCase.COSTAR_HALF, k, None)
    witness = _swap_witness(g, k)
    if witness is None:
        raise TokenGraphError(
            "internal error: no witness found although the token graph "
            "should be irregular"
        )
    if witness.degree_a == witness.degree_b:
        raise TokenGraphError("internal error: witness degrees agree")
    return RegularityVerdict(False, RegularityCase.NOT_REGULAR, k, witness)


def uniform_substitution_degree(g: Graph, k: int):
    """The constant c with |N(b) ∩ A| = c for all token vertices A and b ∉ A.

    Defined when both g (degree r1) and F_k(g) (degree r2) are regular, where
    c = (r2 - k*r1) / (1 - k). By `classify_regularity`, F_k(g) is regular
    only for the complete graph, the edgeless graph, and (k = n/2) the star
    and its complement; neither of the last two is regular for n >= 4. So
    g alone decides: it is K_n, where every b outside A sees all k tokens
    (c = k), or the edgeless graph (c = 0), and c has that closed form.
    Returns c as a `fractions.Fraction`.
    """
    k = _check_k(k, 2, g.n - 2, "substitution degree")
    if not g.is_regular():
        raise NotRegularInput("base graph is not regular")
    if not (g.is_complete() or g.is_empty_graph()):
        raise NotRegularInput("token graph is not regular")
    from fractions import Fraction  # imported here: its import, with `decimal`, would cost every run

    return Fraction(k if g.is_complete() else 0)


class TokenPlanarity(Record):
    """Planarity verdict for F_k(g) plus how it was obtained.

    method is always "characterization": the paper's theorem decided it,
    with no build. reason is "subgraph-of-maximal" when g lies in an
    edge-maximal graph of its order for j = min(k, n - k), so F_k(g) is
    planar, and "no-maximal-supergraph" when it lies in none, so F_k(g) is
    not (see `classify_planarity` for those graphs).
    """

    planar: bool
    method: str
    reason: str
    k: int


# The census: every edge-maximal connected graph on n <= 10 vertices with a
# planar F_j, by j, as `edge_maximal_search` finds it (j = 2 over n = 4..10,
# j = 3 over n = 6..8); the j = 4 search over n = 8..10 finds none.
_CENSUS = {
    2: [decode_graph6(s) for s in r"C~ DZ[ DmW EDXg EE\? FGEb_ FHOT_ FMGHG G?J@a_ GD?ja? H?Ce@PO H?g_i@c I??e@POE? IGB@?SOK?".split()],
    3: [decode_graph6(s) for s in "EHwg EMGg".split()],
}

# the residual check's P_3, planned once for `_iter_embeddings`
_P3_PLAN = _pattern_order(path_graph(3))


def classify_planarity(g: Graph, k: int) -> TokenPlanarity:
    """Planarity of F_k(g) for connected g and 2 <= k <= n-2, never built.

    With j = min(k, n - k) (F_k(g) ≅ F_{n-k}(g)), F_k(g) is planar iff g is
    a subgraph of an edge-maximal graph of order n for j. For n <= 10 those
    are the census graphs; for j >= 4 there are none (the k = 4 search finds
    none on n = 8..10, and n >= 9 is covered below). For n >= 11 the only one
    is P_n when j = 2, and there is none when j >= 3. Containment runs
    `has_subgraph` only on a census graph with at least g's edges.

    Proof of the rule for n >= 11. Write V = C(n, k) and E for the order and
    size of a token graph. A spanning subgraph H of g gives a spanning
    subgraph F_k(H) of F_k(g), and F_k(g - v) is the subgraph of F_k(g)
    induced on the tokens that avoid v, so a non-planar F_k of either makes
    F_k(g) non-planar.
    - 3 <= k <= n-3 (this needs only n >= 9). A spanning tree T of g is
      bipartite, so F_k(T) is too (a move changes the number of tokens on
      one side by one), and E = (n-1) C(n-2, k-1) = V k(n-k)/n, which is at
      least 3(n-3)V/n >= 2V > 2V - 4, past the bipartite planar bound.
    - k = 2, and k = n-2 as F_k(g) ≅ F_{n-k}(g). F_2(P_n) is the subgraph of
      the grid Z^2 induced on {(i, j) : i < j}, so it is planar. A connected
      g that is not a path is C_n, which the cycle lemma rejects, or has a
      vertex of degree >= 3, and a BFS tree from that vertex is a spanning
      tree that is no path. A tree on n >= 12 vertices that is no path has
      a leaf whose deletion leaves a tree that is no path: any leaf if it
      has four leaves or more, and the end of a leg of length >= 2 if it is
      a spider with three. By induction from n = 11, it is enough that F_2
      is non-planar for each of the 234 trees on 11 vertices other than
      P_11: the lemmas certify every one (158 by a path disjoint from a
      claw, 76 by a vertex of degree five), which the tests check.
    """
    n = g.n
    k = _check_k(k, 2, n - 2, "planarity classification")
    if not g.is_connected():
        raise Disconnected("planarity classification is defined for connected graphs")
    j = min(k, n - k)
    if n > 10:
        planar = j == 2 and g.is_path_graph()
    else:
        planar = any(h.n == n and h.m >= g.m and has_subgraph(h, g) for h in _CENSUS.get(j, ()))
    reason = "subgraph-of-maximal" if planar else "no-maximal-supergraph"
    return TokenPlanarity(planar, "characterization", reason, k)


def residual_degree_obstruction(g: Graph, k: int) -> bool:
    """Non-planarity certificate from deleting a 3-vertex path.

    True iff removing the vertex set of some P_3 of g leaves a graph h whose
    j-token graph, j = k-1 or k-2, has maximum degree above two. True means
    F_k(g) is non-planar; False decides nothing.

    Proof. Let T have neighbours T1, T2, T3 in F_j(h), and put the other
    k - j tokens on the removed P_3. Their placements P form F_1(P_3) = P_3
    for one token and F_2(P_3) ≅ P_3 for two. The ground sets are disjoint,
    so the sets P ∪ T' for T' in {T, T1, T2, T3} span a copy of
    P_3 □ K_{1,3} in F_k(g): a move inside the path keeps T', and a move
    inside h keeps P. Contracting each path P_3 × {Ti} to one vertex leaves
    three vertices joined to all of P_3 × {T}: a K_{3,3} minor. So F_k(g) is non-planar.
    """
    k = _check_k(k, 2, g.n - 2, "the residual check")
    if not _has_planned(g, _P3_PLAN):
        raise NoP3Found("the graph has no path on three vertices")
    for mask in _iter_embeddings(g, _P3_PLAN):
        keep = [x for x in range(g.n) if not (mask >> x) & 1]
        h = g.induced_subgraph(keep)
        for j in (k - 1, k - 2):  # 0 <= j <= n - 3 = h.n, as 2 <= k <= n - 2
            if any(
                token_degree(h, members) > 2
                for members in combinations(range(h.n), j)
            ):
                return True
    return False
