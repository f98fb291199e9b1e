"""Structural classification of token graphs without building them.

`classify_regularity` decides whether F_k(g) is regular straight from the
shape of g: exactly the complete graph, the edgeless graph, and (for k = n/2)
the star and its complement produce regular token graphs. Everything else is
irregular, and the verdict carries a concrete witness pair of token vertices
with different degrees.

`classify_planarity` decides planarity of F_k(g) for connected g: the path
characterization for n > 10, and at small orders, where no characterization
exists, `token_planarity`, the search's own path: the token graph's
edge-count bound, then the paper's lemmas, then a build and test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .errors import (
    BadK,
    Disconnected,
    NoP3Found,
    NotAnEdge,
    NotRegularInput,
    TokenGraphError,
)
from .graphs import Graph, _bits, _iter_embeddings, path_graph
from .planarity import token_planarity
from .subsets import SubsetCodec
from .tokens import build_token_graph, token_degree

SUBSTITUTION_VERIFY_LIMIT = 20000


class RegularityCase(str, Enum):
    COMPLETE = "complete"
    EMPTY = "empty"
    STAR_HALF = "star-half"
    COSTAR_HALF = "costar-half"
    NOT_REGULAR = "not-regular"


@dataclass(frozen=True)
class RegularityWitness:
    """Two token vertices with different degrees, and how they were found."""

    subset_a: tuple[int, ...]
    subset_b: tuple[int, ...]
    degree_a: int
    degree_b: int
    branch: str  # "s-in-z" | "s-in-x" | "s-in-w" | "scan"


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    case: RegularityCase
    k: int
    witness: RegularityWitness | None


@dataclass(frozen=True)
class NeighborhoodPartition:
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
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise NotAnEdge(f"need two distinct vertices, got {u} twice")
    rest = ((1 << g.n) - 1) & ~((1 << u) | (1 << v))
    nu = g.adjacency_mask(u)
    nv = g.adjacency_mask(v)
    return NeighborhoodPartition(
        u=u,
        v=v,
        x=frozenset(_bits(nu & ~nv & rest)),
        y=frozenset(_bits(nv & ~nu & rest)),
        w=frozenset(_bits(nu & nv & rest)),
        z=frozenset(_bits(rest & ~nu & ~nv)),
    )


def _substitution_witness(g: Graph, kk: int) -> RegularityWitness | None:
    """Witness via A = S+u, B = S+v for a max/min degree pair, if one fits.

    With S drawn from a single cell of the (u,v) partition the degree gap is
    predictable: z and w leave it at deg(u) - deg(v), while x shifts it by
    -2(k-1). Each candidate is verified with token_degree before use.
    """
    degs = g.degrees()
    u = max(range(g.n), key=lambda i: degs[i])
    v = min(range(g.n), key=lambda i: degs[i])
    delta = degs[u] - degs[v]
    if delta == 0:
        return None
    part = partition_uv(g, u, v)
    for branch, cell in (("s-in-z", part.z), ("s-in-x", part.x), ("s-in-w", part.w)):
        if len(cell) < kk - 1:
            continue
        if branch == "s-in-x" and delta == 2 * (kk - 1):
            continue  # the shift would cancel the degree gap exactly
        s = sorted(cell)[: kk - 1]
        a = tuple(sorted(s + [u]))
        b = tuple(sorted(s + [v]))
        da = token_degree(g, a)
        db = token_degree(g, b)
        if da != db:
            return RegularityWitness(a, b, da, db, branch)
    return None


def _scan_witness(g: Graph, kk: int) -> RegularityWitness | None:
    masks = SubsetCodec(g.n, kk).masks()
    first = tuple(_bits(next(masks)))
    d0 = token_degree(g, first)
    for mask in masks:
        s = tuple(_bits(mask))
        d = token_degree(g, s)
        if d != d0:
            return RegularityWitness(first, s, d0, d, "scan")
    return None


def _complemented_witness(g: Graph, w: RegularityWitness) -> RegularityWitness:
    sa = set(w.subset_a)
    sb = set(w.subset_b)
    a = tuple(x for x in range(g.n) if x not in sa)
    b = tuple(x for x in range(g.n) if x not in sb)
    return RegularityWitness(a, b, token_degree(g, a), token_degree(g, b), w.branch)


def classify_regularity(g: Graph, k: int) -> RegularityVerdict:
    """Regularity of F_k(g) by structure of g alone (witnessed when false)."""
    n = g.n
    if not 2 <= k <= n - 2:
        raise BadK(f"regularity classification needs 2 <= k <= n-2, got k={k}, n={n}")
    if g.is_complete():
        return RegularityVerdict(True, RegularityCase.COMPLETE, k, None)
    if g.is_empty_graph():
        return RegularityVerdict(True, RegularityCase.EMPTY, k, None)
    if 2 * k == n:
        if g.is_star_graph():
            return RegularityVerdict(True, RegularityCase.STAR_HALF, k, None)
        if g.complement().is_star_graph():
            return RegularityVerdict(True, RegularityCase.COSTAR_HALF, k, None)
    kk = min(k, n - k)  # F_k and F_{n-k} are isomorphic via complementation
    witness = _substitution_witness(g, kk) or _scan_witness(g, kk)
    if witness is None:
        raise TokenGraphError(
            "internal error: no witness found although the token graph "
            "should be irregular"
        )
    if kk != k:
        witness = _complemented_witness(g, witness)
    if witness.degree_a == witness.degree_b:
        raise TokenGraphError("internal error: witness degrees agree")
    return RegularityVerdict(False, RegularityCase.NOT_REGULAR, k, witness)


@dataclass(frozen=True)
class Inconsistent:
    """Counterexample to the uniform substitution degree."""

    subset: tuple[int, ...]
    vertex: int
    observed: int
    expected: Fraction


def uniform_substitution_degree(
    g: Graph, k: int, *, verify_limit: int = SUBSTITUTION_VERIFY_LIMIT
):
    """The constant c with |N(b) ∩ A| = c for all token vertices A and b ∉ A.

    Defined when both g (degree r1) and F_k(g) (degree r2) are regular:
    c = (r2 - k*r1) / (1 - k). The identity is re-verified pair by pair
    whenever the token graph is small enough; a violation is returned as an
    Inconsistent counterexample instead of the constant.
    """
    n = g.n
    if not 2 <= k <= n - 2:
        raise BadK(f"substitution degree needs 2 <= k <= n-2, got k={k}, n={n}")
    if not g.is_regular():
        raise NotRegularInput("base graph is not regular")
    r1 = g.degree(0)
    tg = build_token_graph(g, k)
    tdegs = tg.graph.degrees()
    if min(tdegs) != max(tdegs):
        raise NotRegularInput("token graph is not regular")
    r2 = tdegs[0]
    c = Fraction(r2 - k * r1, 1 - k)
    if tg.codec.size * (n - k) <= verify_limit:
        for mask in tg.codec.masks():
            for b in _bits(((1 << n) - 1) & ~mask):
                observed = (g.adjacency_mask(b) & mask).bit_count()
                if observed != c:
                    return Inconsistent(tuple(_bits(mask)), b, observed, c)
    return c


@dataclass(frozen=True)
class TokenPlanarity:
    """Planarity verdict for F_k(g) plus how it was obtained.

    method is "characterization" (the large-order path criterion),
    "structural" (g alone decided it, unbuilt: reason is "token-edge-bound"
    or the name of one of the paper's lemmas), or "computed" (the LR test
    on the built token graph: reason "left-right").
    """

    planar: bool
    method: str
    reason: str
    k: int


def classify_planarity(g: Graph, k: int) -> TokenPlanarity:
    """Planarity of F_k(g) for connected g and 2 <= k <= n-2.

    For n > 10, F_k(g) is planar iff g is a path and k is 2 or n-2; below
    that, the verdict is `token_planarity`'s, with its stage as reason.
    """
    n = g.n
    if not 2 <= k <= n - 2:
        raise BadK(f"planarity classification needs 2 <= k <= n-2, got k={k}, n={n}")
    if not g.is_connected():
        raise Disconnected("planarity classification is defined for connected graphs")
    if n > 10:
        if g.is_path_graph() and k in (2, n - 2):
            return TokenPlanarity(True, "characterization", "path-outer-k", k)
        return TokenPlanarity(
            False,
            "characterization",
            "not-a-path" if not g.is_path_graph() else "inner-k",
            k,
        )
    verdict = token_planarity(g, k)
    method = "computed" if verdict.method == "left-right" else "structural"
    return TokenPlanarity(verdict.planar, method, verdict.method, k)


def residual_degree_obstruction(g: Graph, k: int) -> bool:
    """Non-planarity certificate from deleting a 3-vertex path.

    True iff removing the vertex set of some P_3 of g leaves a graph whose
    (k-1)- or (k-2)-token graph has maximum degree above two. True means
    F_k(g) is non-planar; False decides nothing.
    """
    n = g.n
    if not 2 <= k <= n - 2:
        raise BadK(f"the residual check needs 2 <= k <= n-2, got k={k}, n={n}")
    pattern = path_graph(3)
    saw_p3 = False
    for mask in _iter_embeddings(g, pattern):
        saw_p3 = True
        keep = [x for x in range(n) if not (mask >> x) & 1]
        h = g.induced_subgraph(keep)
        for j in (k - 1, k - 2):
            if j < 0 or j > h.n:
                continue
            if any(
                token_degree(h, members) > 2
                for members in combinations(range(h.n), j)
            ):
                return True
    if not saw_p3:
        raise NoP3Found("the graph has no path on three vertices")
    return False
