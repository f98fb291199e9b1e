import random
import sys
from collections import Counter
from math import comb

import pytest

import tokengraphs.minors
import tokengraphs.planarity
import tokengraphs.tokens
from tokengraphs import (
    BadK,
    BudgetExceeded,
    Graph,
    PlanarityVerdict,
    SizeLimitExceeded,
    build_token_graph,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    empty_graph,
    encode_graph6,
    graph_classes,
    is_planar,
    nonplanarity_by_minor,
    octahedron_graph,
    path_graph,
    petersen_graph,
    planarity_oracle,
    star_graph,
    token_planarity,
)
from tokengraphs.search import _trees
from tokengraphs.tokens import DEFAULT_VERTEX_BUDGET

from util import random_graph, random_tree, shuffled


def test_known_planar_graphs():
    for g in (
        empty_graph(0),
        empty_graph(1),
        path_graph(9),
        cycle_graph(12),
        star_graph(9),
        complete_graph(4),
        octahedron_graph(),
        complete_graph(5).delete_edge(0, 1),
        complete_bipartite_graph(3, 3).delete_edge(0, 3),
        complete_bipartite_graph(2, 7),
    ):
        assert is_planar(g)


def test_known_non_planar_graphs():
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite_graph(3, 3))
    assert not is_planar(petersen_graph())
    assert not is_planar(complete_graph(6))
    # a subdivision of K_5 dodges the edge-count bound
    k5 = complete_graph(5)
    edges = []
    extra = 5
    for u, v in k5.edges():
        edges += [(u, extra), (extra, v)]
        extra += 1
    sub = Graph(15, edges)
    verdict = is_planar(sub)
    assert not verdict.planar
    assert verdict.method == "left-right"


def test_verdict_methods():
    assert is_planar(complete_graph(5)).method == "euler-bound"
    # bipartite with m = 9 > 2n - 4 = 8: Euler's bound with faces of length >= 4
    assert is_planar(complete_bipartite_graph(3, 3)).method == "euler-bound"
    assert is_planar(cycle_graph(5)).method == "left-right"
    two_parts = Graph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    v = is_planar(two_parts)
    assert v.planar and v.method == "left-right"


def test_dense_disconnected_graph_is_rejected_by_the_euler_bound(monkeypatch):
    """m > 3n - 6 rejects the whole graph before any component split."""
    g = Graph(8, complete_graph(7).edges())  # K7 and an isolated vertex: 21 > 3*8 - 6
    sparse = Graph(11, complete_graph(5).edges() + [(6, 7)])  # 11 <= 27
    assert len(g.connected_components()) == 2
    # below the global bound, a dense component is still found by the LR test
    assert is_planar(sparse) == PlanarityVerdict(False, "left-right")

    def no_split(self):
        raise AssertionError("the Euler bound must not need a component split")

    monkeypatch.setattr(Graph, "connected_components", no_split)
    assert is_planar(g) == PlanarityVerdict(False, "euler-bound")


def test_bipartite_bound_rejects_before_the_lr_test(monkeypatch):
    def no_lr(self):
        raise AssertionError("the bipartite bound must reject before the LR test")

    monkeypatch.setattr(tokengraphs.planarity._LeftRight, "run", no_lr)
    rejected = PlanarityVerdict(False, "euler-bound")
    # the 4-cube: 32 edges > 2 * 16 - 4, but <= 3 * 16 - 6
    q4 = Graph(16, [(v, v | 1 << i) for v in range(16) for i in range(4) if not v >> i & 1])
    assert (q4.n, q4.m) == (16, 32)
    assert is_planar(q4) == rejected
    assert is_planar(complete_bipartite_graph(3, 4)) == rejected  # 12 > 10
    # F_3 of any tree on 9 vertices: V = 84, E = 8 * C(7, 2) = 168 > 164
    for t in (path_graph(9), star_graph(9)):
        assert is_planar(build_token_graph(t, 3).graph) == rejected


def test_bipartiteness_is_tested_only_inside_the_window(monkeypatch):
    """Only 2n - 4 < m <= 3n - 6 (n >= 3) asks whether the graph is bipartite."""
    graphs = [
        g for n in range(1, 8) for m in range(n * (n - 1) // 2 + 1)
        for g in graph_classes(n, m)
    ]
    outside = [g for g in graphs if g.n < 3 or not 2 * g.n - 4 < g.m <= 3 * g.n - 6]
    expected = [is_planar(g) for g in outside]

    def no_colouring(self):
        raise AssertionError("is_bipartite outside 2n - 4 < m <= 3n - 6")

    monkeypatch.setattr(Graph, "is_bipartite", no_colouring)
    assert [is_planar(g) for g in outside] == expected
    assert {v.method for v in expected} == {"euler-bound", "left-right"}
    assert len(outside) < len(graphs)


def test_random_bipartite_graphs_match_the_oracle():
    rng = random.Random(44)
    methods = Counter()
    for _ in range(300):
        a = rng.randint(1, 6)
        b = rng.randint(1, 10 - a)
        p = rng.uniform(0.3, 1.0)
        edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < p]
        g = shuffled(rng, Graph(a + b, edges))
        verdict = is_planar(g)
        assert verdict.planar == planarity_oracle(g), encode_graph6(g)
        methods[verdict.planar, verdict.method] += 1
    assert methods[False, "euler-bound"] and methods[False, "left-right"]
    assert methods[True, "left-right"]


def _networkx_planar(nx, g: Graph) -> bool:
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    return nx.check_planarity(ref)[0]


def _spider(legs) -> Graph:
    """The tree with centre 0 and one hanging path of each length in `legs`."""
    edges, n = [], 1
    for length in legs:
        edges += [(0, n)] + [(v, v + 1) for v in range(n, n + length - 1)]
        n += length
    return Graph(n, edges)


def test_tree_token_graphs_match_networkx():
    nx = pytest.importorskip("networkx")
    methods = Counter()
    for t in _trees(10):
        for k in (2, 3, 4):
            h = build_token_graph(t, k).graph
            verdict = is_planar(h)
            assert verdict.planar == _networkx_planar(nx, h), (encode_graph6(t), k)
            methods[k, verdict.method] += 1
    # k = 2 stays under 2V - 4 (72 <= 86); k = 3, 4 are past it
    assert set(methods) == {(2, "left-right"), (3, "euler-bound"), (4, "euler-bound")}


def test_token_graphs_up_to_a_thousand_vertices_match_networkx():
    """Past the minor oracle's n <= 10, networkx checks LR where it decides.

    F_2 of a sparse base on n vertices has C(n, 2) vertices and stays under
    2V - 4 unless the base is bipartite with two edges past a tree, so LR
    decides it up to n = 45 (990 vertices). F_3 of a tree passes 2V - 4 from
    n = 9 on; those verdicts check the bipartite bound instead.
    """
    nx = pytest.importorskip("networkx")
    rng = random.Random(1000)
    cases = [(path_graph(n), 2) for n in (12, 20, 30, 45)]
    for _ in range(24):
        n = rng.randint(12, 45)
        edges = set(random_tree(rng, n).edges())
        free = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
        base = Graph(n, sorted(edges) + rng.sample(free, rng.randint(0, 2)))
        cases.append((shuffled(rng, base), 2))
    cases += [(path_graph(n), 3) for n in (6, 7, 8, 12, 19)]
    cases += [
        (_spider(legs), 3)
        for legs in ((1, 1, 3), (1, 2, 2), (2, 2, 3), (1, 1, 1, 1, 3), (4, 6, 8))
    ]
    methods = Counter()
    for base, k in cases:
        h = build_token_graph(base, k).graph
        assert h.n <= 1000
        verdict = is_planar(h)
        assert verdict.planar == _networkx_planar(nx, h), (encode_graph6(base), k)
        methods[verdict.planar, verdict.method] += 1
    assert methods[True, "left-right"] and methods[False, "left-right"]


def _stacked_triangulation(rng: random.Random, n: int) -> set:
    """The edges of a random triangulation on n >= 3 vertices (3n - 6 edges):
    each new vertex goes inside a random face and is joined to its corners."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return edges


def _lr_cross_check_case(rng: random.Random, family: str) -> Graph:
    n = rng.randint(1, 40) if family in ("forest", "sparse") else rng.randint(5, 40)
    pairs = [(u, v) for v in range(n) for u in range(v)]
    if family == "forest":  # a few trees and isolated vertices
        edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85}
    elif family == "sparse":  # disconnected as often as not
        edges = set(rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n))))
    else:
        edges = _stacked_triangulation(rng, n)
        for e in rng.sample(sorted(edges), rng.randint(1, 3)):
            edges.discard(e)
        if family == "near-3n-6":  # one edge put back anywhere: planar or not
            edges.add(rng.choice([e for e in pairs if e not in edges]))
        elif family == "union":  # beside K_5 or K_3,3, and two isolated vertices
            extra = complete_graph(5) if rng.random() < 0.5 else complete_bipartite_graph(3, 3)
            edges |= {(n + u, n + v) for u, v in extra.edges()}
            n += extra.n + 2
    return shuffled(rng, Graph(n, sorted(edges)))


def _left_right(g: Graph):
    """The left-right test of g, on the neighbour lists `is_planar` hands it."""
    return tokengraphs.planarity._LeftRight([g.neighbors(v) for v in range(g.n)], g.m)


def test_left_right_matches_networkx_on_random_graphs():
    """The left-right test itself, Euler bound aside, on 3,000 graphs of up to
    40 vertices (49 with a union's extra parts): forests, sparse and mostly
    disconnected graphs, triangulations less a few edges (just under
    3n - 6), the same with one edge put back at random, and triangulations
    less a few edges beside a K_5 or K_3,3 and isolated vertices."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(2009)
    seen = Counter()
    for i in range(3000):
        family = ("forest", "sparse", "under-3n-6", "near-3n-6", "union")[i % 5]
        g = _lr_cross_check_case(rng, family)
        planar = _networkx_planar(nx, g)
        assert _left_right(g).run() == planar, (family, encode_graph6(g))
        assert is_planar(g).planar == planar, (family, encode_graph6(g))
        seen[family, planar] += 1
    assert seen["forest", True] == seen["under-3n-6", True] == 600
    assert seen["sparse", True] and seen["sparse", False]
    assert seen["near-3n-6", True] and seen["near-3n-6", False]
    assert seen["union", False] == 600


def test_verdict_is_truthy():
    assert bool(is_planar(path_graph(3)))
    assert not bool(is_planar(petersen_graph()))


def test_disconnected_graphs():
    # one bad component poisons the union
    g = Graph(11, complete_graph(5).edges() + [(5 + u, 5 + v) for u, v in cycle_graph(6).edges()])
    assert not is_planar(g)
    assert is_planar(Graph(9, [(0, 1), (3, 4), (4, 5)]))


def test_disjoint_unions_match_the_oracle_without_a_component_split(monkeypatch):
    """The LR test walks every component itself; nothing splits the graph first."""
    parts = [
        g for n in range(1, 7) for m in range(n - 1, n * (n - 1) // 2 + 1)
        for g in connected_graphs(n, m)
    ]
    rng = random.Random(2009)
    unions = []
    while len(unions) < 400:
        chosen = rng.sample(parts, rng.randint(2, 3))
        if sum(g.n for g in chosen) > 10:
            continue
        edges, offset = [], 0
        for g in chosen:
            edges += [(u + offset, v + offset) for u, v in g.edges()]
            offset += g.n
        unions.append(shuffled(rng, Graph(offset, edges)))

    def no_split(self):
        raise AssertionError("is_planar must not split components")

    monkeypatch.setattr(Graph, "connected_components", no_split)
    verdicts = Counter()
    for g in unions:
        verdict = is_planar(g)
        assert verdict.planar == planarity_oracle(g), encode_graph6(g)
        verdicts[verdict.planar, verdict.method] += 1
    assert verdicts[True, "left-right"] and verdicts[False, "left-right"]


def test_matches_minor_oracle_exhaustively():
    """Left-right verdicts equal Kuratowski-minor verdicts on all small graphs."""
    for n in range(2, 8):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for g in connected_graphs(n, m):
                assert is_planar(g).planar == planarity_oracle(g), g


def test_matches_minor_oracle_on_random_graphs():
    rng = random.Random(424242)
    for _ in range(600):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.9))
        assert is_planar(g).planar == planarity_oracle(g)


def test_oracle_size_cap():
    with pytest.raises(SizeLimitExceeded):
        planarity_oracle(empty_graph(11))


def test_large_planar_and_dense_inputs():
    # left-right handles sizes far past the oracle cap
    ladder = Graph(
        60,
        [(i, i + 1) for i in range(29)]
        + [(30 + i, 31 + i) for i in range(29)]
        + [(i, 30 + i) for i in range(30)],
    )
    assert is_planar(ladder)
    assert not is_planar(complete_graph(40))
    assert is_planar(complete_graph(40)).method == "euler-bound"


def test_left_right_walks_a_dfs_deeper_than_the_recursion_limit():
    """A 3 x 2,000 grid is planar; beside a K_{3,3} it stays under 2V - 4,
    so LR, not the Euler bound, must find the K_{3,3}."""
    cols = 2000
    grid_edges = [(r * cols + c, r * cols + c + 1) for r in range(3) for c in range(cols - 1)]
    grid_edges += [(r * cols + c, (r + 1) * cols + c) for r in range(2) for c in range(cols)]
    grid = Graph(3 * cols, grid_edges)
    lr = _left_right(grid)
    assert lr.run()
    assert max(lr.height) > sys.getrecursionlimit()
    assert is_planar(grid) == PlanarityVerdict(True, "left-right")
    k33 = [(3 * cols + u, 3 * cols + v) for u, v in complete_bipartite_graph(3, 3).edges()]
    union = Graph(3 * cols + 6, grid_edges + k33)
    assert union.m <= 2 * union.n - 4
    assert is_planar(union) == PlanarityVerdict(False, "left-right")


def test_token_planarity_is_sound_and_otherwise_equals_the_build():
    """A reject without a build is non-planar when built; any other verdict is the build's."""
    cases = [
        (g, k)
        for n in range(4, 8)
        for m in range(n - 1, n * (n - 1) // 2 + 1)
        for g in connected_graphs(n, m)
        for k in range(2, n - 1)
    ]
    cases += [
        (t, k) for n in range(3, 11) for t in _trees(n) for k in range(2, min(n, 5))
    ]
    stages = Counter()
    for g, k in cases:
        verdict = token_planarity(g, k)
        built = is_planar(build_token_graph(g, k).graph)
        stages[verdict.method] += 1
        if verdict.method in ("euler-bound", "left-right"):
            assert verdict == built, (encode_graph6(g), k)
        else:
            assert not built.planar, (encode_graph6(g), k)
    assert stages["token-edge-bound"] and stages["left-right"]
    assert {"max-degree-5", "cycle-5", "disjoint-p3-k13", "p7-inner-k"} <= set(stages)
    # only the bipartite bound can reject a tree at k = 4 (E <= 3V - 6 there)
    for n in range(8, 11):
        for t in _trees(n):
            assert token_planarity(t, 4) == PlanarityVerdict(False, "token-edge-bound")


def test_token_planarity_tests_bipartiteness_only_when_needed(monkeypatch):
    def no_colouring(self):
        raise AssertionError("the bipartite bound would not fire here")

    monkeypatch.setattr(Graph, "is_bipartite", no_colouring)
    # P5 at k = 2: E = 12 <= 2V - 4 = 16
    assert token_planarity(path_graph(5), 2) == PlanarityVerdict(True, "left-right")
    # K5 at k = 2: E = 30 > 3V - 6 = 24
    rejected = PlanarityVerdict(False, "token-edge-bound")
    assert token_planarity(complete_graph(5), 2) == rejected


def test_token_planarity_input_contract():
    for k in (0, 5, 6):
        with pytest.raises(BadK):
            token_planarity(path_graph(5), k)
    # V < 3 leaves nothing to bound: F_1(K_2) is K_2
    assert token_planarity(complete_graph(2), 1) == PlanarityVerdict(True, "left-right")


def test_planarity_keeps_no_state_and_needs_no_canonical_labelling():
    names = vars(tokengraphs.planarity)
    assert "canonical_graph6" not in names and "_MINOR_MEMO" not in names
    before = {name: repr(value) for name, value in names.items()}
    assert not planarity_oracle(petersen_graph())
    assert planarity_oracle(octahedron_graph())
    assert {name: repr(value) for name, value in names.items()} == before


def test_token_planarity_runs_left_right_on_neighbour_lists_without_rows(monkeypatch):
    """No build and no `is_planar`: the lists go straight to the left-right
    test, after `token_planarity` has applied both edge bounds itself."""
    def refuse(*args):
        raise AssertionError("token_planarity builds no rows and bounds the edges once")

    assert not hasattr(tokengraphs.planarity, "build_token_graph")
    monkeypatch.setattr(tokengraphs.tokens, "build_token_graph", refuse)
    monkeypatch.setattr(tokengraphs.minors, "build_token_graph", refuse)
    monkeypatch.setattr(tokengraphs.planarity, "is_planar", refuse)
    assert token_planarity(path_graph(5), 2) == PlanarityVerdict(True, "left-right")


def test_token_planarity_keeps_the_vertex_budget():
    """F_2(P_448) has C(448, 2) = 100,128 vertices and 199,362 edges, under
    2V - 4, and no lemma rejects a path at k = 2: only the budget stops it."""
    g = path_graph(448)
    assert comb(448, 2) > DEFAULT_VERTEX_BUDGET
    assert g.m * comb(446, 1) <= 2 * comb(448, 2) - 4
    assert nonplanarity_by_minor(g, 2) is None
    with pytest.raises(BudgetExceeded, match=r"C\(448,2\) = 100128"):
        token_planarity(g, 2)
