import math
import random
from itertools import combinations, permutations

import pytest

from tokengraphs import (
    Graph,
    SizeLimitExceeded,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    canonical_graph6,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    decode_graph6,
    empty_graph,
    encode_graph6,
    graph_classes,
    johnson,
    octahedron_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
import tokengraphs.canon
from tokengraphs.canon import canonical_data

from util import brute_isomorphic, random_graph, relabeled, shuffled


def test_canonical_string_is_relabeling_invariant():
    rng = random.Random(40001)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9))
        want = canonical_graph6(g)
        for _ in range(4):
            assert canonical_graph6(shuffled(rng, g)) == want


def test_every_relabeling_of_a_disjoint_union_has_one_form():
    # C3 + C4: a best leaf replaced inside a subtree must not leave its
    # sibling subtrees comparing against the old best
    g = decode_graph6("FwCOW")
    forms = {canonical_graph6(relabeled(g, perm)) for perm in permutations(range(7))}
    assert len(forms) == 1


def test_every_small_class_has_one_form_under_relabeling():
    rng = random.Random(40007)
    for n in range(1, 8):
        for m in range(n * (n - 1) // 2 + 1):
            for g in graph_classes(n, m):
                want = canonical_graph6(g)
                for _ in range(20):
                    assert canonical_graph6(shuffled(rng, g)) == want


def test_canonical_graph_is_a_fixed_point():
    rng = random.Random(40002)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 9), 0.5)
        c = canonical_graph(g)
        assert canonical_graph(c) == c
        assert encode_graph6(c) == canonical_graph6(g)


def test_permutation_maps_input_onto_canonical_graph():
    rng = random.Random(40003)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        form = canonical_form(g)
        assert sorted(form.permutation) == list(range(g.n))
        assert relabeled(g, form.permutation) == decode_graph6(form.graph6)


def test_are_isomorphic_against_permutation_oracle():
    rng = random.Random(40004)
    checked_true = checked_false = 0
    while checked_true < 40 or checked_false < 40:
        n = rng.randint(1, 6)
        g = random_graph(rng, n, 0.5)
        h = shuffled(rng, g) if rng.random() < 0.5 else random_graph(rng, n, 0.5)
        want = brute_isomorphic(g, h)
        assert are_isomorphic(g, h) == want
        if want:
            checked_true += 1
        else:
            checked_false += 1


def test_all_five_vertex_classes_have_distinct_canonical_forms():
    """All 2^10 labeled five-vertex graphs collapse to exactly 34 classes."""
    seen = set()
    edges_all = list(combinations(range(5), 2))
    for bits in range(1 << 10):
        g = Graph(5, [e for i, e in enumerate(edges_all) if bits >> i & 1])
        seen.add(canonical_graph6(g))
    assert len(seen) == 34


@pytest.mark.parametrize(
    "g, order",
    [
        (complete_graph(5), 120),
        (empty_graph(6), 720),
        (cycle_graph(5), 10),
        (cycle_graph(6), 12),
        (path_graph(6), 2),
        (path_graph(1), 1),
        (star_graph(5), 24),
        (complete_bipartite_graph(3, 3), 72),
        (octahedron_graph(), 48),
        (petersen_graph(), 120),
        (complete_graph(4).delete_edge(0, 1), 4),
        (johnson(7, 3).graph, math.factorial(7)),
        (johnson(8, 4).graph, 2 * math.factorial(8)),  # with complementation
        (complete_bipartite_graph(4, 5), 2880),
        (empty_graph(9), math.factorial(9)),
        (star_graph(9), math.factorial(8)),
        (cycle_graph(12), 24),
        (empty_graph(20), math.factorial(20)),
    ],
)
def test_automorphism_group_orders(g, order):
    assert canonical_form(g).automorphism_order == order


def test_automorphism_order_against_permutation_count():
    """|Aut(g)| equals the number of edge-preserving permutations.

    Random graphs, then every class with n <= 6 under one random relabelling.
    """
    rng = random.Random(40006)
    graphs = [random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.8)) for _ in range(120)]
    graphs += [
        shuffled(rng, g)
        for n in range(1, 7)
        for m in range(n * (n - 1) // 2 + 1)
        for g in graph_classes(n, m)
    ]
    for g in graphs:
        edge_set = {tuple(sorted(e)) for e in g.edges()}
        brute = sum(
            1
            for p in permutations(range(g.n))
            if edge_set == {tuple(sorted((p[u], p[v]))) for u, v in g.edges()}
        )
        assert canonical_form(g).automorphism_order == brute


def test_automorphism_order_is_a_relabelling_invariant():
    rng = random.Random(40008)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
        want = canonical_form(g).automorphism_order
        for _ in range(3):
            assert canonical_form(shuffled(rng, g)).automorphism_order == want


def test_generators_are_automorphisms():
    rng = random.Random(40005)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        g6, labels, gens = canonical_data(g)
        assert g6 == canonical_graph6(g)
        assert sorted(labels) == list(range(g.n))
        for perm in gens:
            assert relabeled(g, perm) == g


@pytest.mark.parametrize("n", [30, 60])
def test_edgeless_graph_walks_one_path(monkeypatch, n):
    """The seeded twin swaps prune every sibling: n nodes, one leaf, |Aut| = n!."""
    calls = {"_node": 0, "_leaf": 0}
    for name in calls:
        method = getattr(tokengraphs.canon._Search, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(tokengraphs.canon._Search, name, counted)
    form = canonical_form(empty_graph(n))
    assert calls == {"_node": n, "_leaf": 1}
    assert form.graph6 == encode_graph6(empty_graph(n))
    assert form.automorphism_order == math.factorial(n)


def complete_multipartite(*sizes):
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    return Graph(
        starts[-1],
        [
            (u, v)
            for i, j in combinations(range(len(sizes)), 2)
            for u in range(starts[i], starts[i + 1])
            for v in range(starts[j], starts[j + 1])
        ],
    )


def test_twin_rich_graphs_have_one_form_and_closed_form_aut():
    f = math.factorial
    cases = [
        (empty_graph(0), 1),
        (empty_graph(1), 1),
        (star_graph(7), f(6)),
        (complete_bipartite_graph(3, 5), f(3) * f(5)),
        (complete_bipartite_graph(4, 4), 2 * f(4) ** 2),
        (complete_multipartite(2, 2, 3), 2 * f(2) ** 2 * f(3)),
        (complete_multipartite(1, 3, 3, 3), f(3) * f(3) ** 3),
        # E_5 plus K_4: the isolated vertices and the clique permute apart
        (Graph(9, [(u, v) for u, v in combinations(range(5, 9), 2)]), f(5) * f(4)),
    ]
    rng = random.Random(40011)
    for g, aut in cases:
        form = canonical_form(g)
        assert form.automorphism_order == aut, encode_graph6(g)
        for _ in range(20):
            h = shuffled(rng, g)
            assert canonical_graph6(h) == form.graph6
            assert canonical_form(h).automorphism_order == aut
        for perm in canonical_data(g)[2]:
            assert relabeled(g, perm) == g


def test_canonical_strings_build_no_graph(monkeypatch):
    """The string is read off the search's best certificate, not re-encoded.

    The symmetric graphs also show that each automorphism the search finds
    or seeds is checked on the adjacency rows, with no relabelled graph.
    """
    cases = [
        (Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)]), 1),
        (petersen_graph(), 120),
        (cycle_graph(6), 12),
        (empty_graph(5), 120),
        (complete_bipartite_graph(3, 4), 144),
    ]
    wants = [encode_graph6(canonical_graph(g)) for g, _ in cases]
    built = []
    from_adj = Graph._from_adj

    def counted(adj, m=None):
        built.append(len(adj))
        return from_adj(adj, m)

    monkeypatch.setattr(Graph, "_from_adj", staticmethod(counted))
    for (g, aut), want in zip(cases, wants):
        form = canonical_form(g)
        g6, labels, gens = canonical_data(g)
        assert form.automorphism_order == aut
        assert canonical_graph6(g) == form.graph6 == g6 == want
        assert labels == form.permutation
        assert (gens == []) == (aut == 1)
        assert built == [], encode_graph6(g)


def test_iso_between_different_representations():
    # the octahedron is the 2-token graph of K_4 and also K_{2,2,2}
    assert are_isomorphic(octahedron_graph(), decode_graph6("E}lw"))
    assert not are_isomorphic(octahedron_graph(), complete_bipartite_graph(3, 3))
    assert not are_isomorphic(path_graph(4), star_graph(4))
    assert are_isomorphic(empty_graph(0), empty_graph(0))


def test_canonicalization_size_cap():
    with pytest.raises(SizeLimitExceeded):
        canonical_graph6(empty_graph(1025))
