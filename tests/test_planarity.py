import random
from collections import Counter

import pytest

import tokengraphs.planarity
from tokengraphs import (
    BadK,
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
    octahedron_graph,
    path_graph,
    petersen_graph,
    planarity_oracle,
    star_graph,
    token_planarity,
)
from tokengraphs.search import _trees

from util import random_graph, shuffled


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


def test_tree_token_graphs_match_networkx():
    nx = pytest.importorskip("networkx")
    methods = Counter()
    for t in _trees(10):
        for k in (2, 3, 4):
            h = build_token_graph(t, k).graph
            verdict = is_planar(h)
            ref = nx.Graph()
            ref.add_nodes_from(range(h.n))
            ref.add_edges_from(h.edges())
            assert verdict.planar == nx.check_planarity(ref)[0], (encode_graph6(t), k)
            methods[k, verdict.method] += 1
    # k = 2 stays under 2V - 4 (72 <= 86); k = 3, 4 are past it
    assert set(methods) == {(2, "left-right"), (3, "euler-bound"), (4, "euler-bound")}


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
