import random
import tracemalloc
from math import comb

import pytest

from tokengraphs import (
    BadK,
    BudgetExceeded,
    Graph,
    KSubset,
    SubsetCodec,
    build_token_graph,
    classify_planarity,
    classify_regularity,
    complement_isomorphism_check,
    complete_graph,
    cycle_graph,
    edge_maximal_search,
    empty_graph,
    graph_classes,
    johnson,
    johnson_complement,
    lift_script,
    nonplanarity_by_minor,
    path_graph,
    residual_degree_obstruction,
    star_graph,
    token_degree,
    token_planarity,
    uniform_substitution_degree,
    verify_maximality,
)

from tokengraphs.graphs import _bits
from tokengraphs.tokens import _neighbour_lists

from util import brute_token_edges, random_graph, swap_token_edges


def test_token_graph_matches_brute_force():
    """Labeled equality against the from-scratch symmetric-difference oracle
    for n <= 10, with disconnected and edgeless bases, and k = 1, n - 1; past
    n = 10, against the token-swap oracle (checked here against the first on
    every smaller base), at every k."""
    rng = random.Random(1003)
    bases = [empty_graph(n) for n in range(2, 11)]
    bases += [random_graph(rng, rng.randint(2, 10), rng.uniform(0.0, 0.4)) for _ in range(40)]
    bases += [random_graph(rng, rng.randint(2, 10), rng.uniform(0.3, 1.0)) for _ in range(40)]
    assert any(not g.is_connected() and g.m for g in bases)
    big = random.Random(1103)
    bases += [complete_graph(11), complete_graph(12), cycle_graph(12)]
    bases += [random_graph(big, n, p) for n in (11, 12) for p in (0.2, 0.5)]
    # top vertex with no lower neighbour: the build's last column adds no
    # edge between its two blocks
    bases += [Graph(11, path_graph(10).edges()), Graph(12, random_graph(big, 11, 0.5).edges())]
    for g in bases:
        n = g.n
        ks = range(1, n) if n > 10 else sorted({1, n - 1, rng.randint(1, n - 1)})
        for k in ks:
            subs, edges = swap_token_edges(g, k)
            if n <= 10:
                assert (subs, edges) == brute_token_edges(g, k)
            tg = build_token_graph(g, k)
            assert tg.graph == Graph(len(subs), edges), (g.edges(), k)
            # the closed-form edge count the build reports is the rows' count
            rows = sum(r.bit_count() for r in tg.graph._adj)
            assert tg.graph.m * 2 == rows and tg.graph.m == g.m * comb(n - 2, k - 1)
            # F_k(g) is connected iff g is; the build leaves this unchecked
            assert tg.graph.is_connected() == g.is_connected()
            # codec layout agrees with the oracle's colex enumeration
            for i, s in enumerate(subs):
                assert tg.subset_of(i).members == s
                assert tg.vertex_of(s) == i


def test_build_never_unranks(monkeypatch):
    def refuse(self, r):
        raise AssertionError("unrank_mask on the build path")

    monkeypatch.setattr(SubsetCodec, "unrank_mask", refuse)
    tg = build_token_graph(cycle_graph(9), 4)
    assert (tg.graph.n, tg.graph.m) == (126, 9 * comb(7, 3))


def test_build_does_not_recheck_connectivity(monkeypatch):
    def refuse(self):
        raise AssertionError("is_connected on the build path")

    monkeypatch.setattr(Graph, "is_connected", refuse)
    tg = build_token_graph(cycle_graph(9), 4)
    assert (tg.graph.n, tg.graph.m) == (126, 9 * comb(7, 3))


def test_one_token_graph_is_the_base_graph():
    rng = random.Random(77)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        assert build_token_graph(g, 1).graph == g


def test_edge_count_identity():
    """m(F_k(g)) = C(n-2, k-1) * m(g): every base edge slides C(n-2,k-1) ways."""
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 9)
        k = rng.randint(1, n - 1)
        g = random_graph(rng, n, 0.5)
        tg = build_token_graph(g, k)
        assert tg.graph.m == comb(n - 2, k - 1) * g.m


def test_k_bounds():
    g = complete_graph(5)
    with pytest.raises(BadK):
        build_token_graph(g, 0)
    with pytest.raises(BadK):
        build_token_graph(g, 5)
    with pytest.raises(BadK):
        johnson(4, 0)
    assert build_token_graph(g, True).graph == build_token_graph(g, 1).graph  # a bool is an int


@pytest.mark.parametrize(
    "entry",
    [
        build_token_graph,
        complement_isomorphism_check,
        token_planarity,
        classify_regularity,
        classify_planarity,
        residual_degree_obstruction,
        uniform_substitution_degree,
        verify_maximality,
        pytest.param(lambda g, k: lift_script(g, k, []), id="lift_script"),
        nonplanarity_by_minor,
        pytest.param(lambda g, k: edge_maximal_search(k, [g.n]), id="edge_maximal_search"),
    ],
)
def test_a_non_integer_k_raises_bad_k(entry):
    """Every entry point that takes k reads it with `operator.index`: 2.0
    used to get through (an empty lift, a substitution degree) or fail with
    a bare TypeError from `comb` or a slice."""
    for k in (2.0, 2.5, "2", None):
        with pytest.raises(BadK):
            entry(complete_graph(5), k)


def test_neighbour_lists_hold_the_rows_of_the_build():
    """Per vertex, the list form holds the build's row, each neighbour once:
    every graph class with n <= 7 at every k, F_2(P_45) and F_3(C_9)."""
    cases = [
        (g, k)
        for n in range(2, 8)
        for m in range(n * (n - 1) // 2 + 1)
        for g in graph_classes(n, m)
        for k in range(1, n)
    ]
    assert len(cases) == 7223
    cases += [(path_graph(45), 2), (cycle_graph(9), 3)]
    for g, k in cases:
        lists = _neighbour_lists(g, k)
        rows = build_token_graph(g, k).graph._adj
        assert len(lists) == len(rows), (g.edges(), k)
        for r, (nbrs, row) in enumerate(zip(lists, rows)):
            assert len(nbrs) == row.bit_count() and set(nbrs) == set(_bits(row)), (g.edges(), k, r)


def test_neighbour_lists_keep_the_builds_contract():
    with pytest.raises(BadK):
        _neighbour_lists(path_graph(5), 5)
    with pytest.raises(BudgetExceeded, match=r"C\(20,8\) = 125970"):
        _neighbour_lists(complete_graph(20), 8)


def test_vertex_budget():
    with pytest.raises(BudgetExceeded):
        build_token_graph(complete_graph(40), 20)
    with pytest.raises(BudgetExceeded):
        johnson(40, 20)


def test_default_budget_rejects_before_allocating():
    """C(20, 8) = 125,970 > 10^5: its rows would need gigabytes, so the build
    must stop before it lists a single subset."""
    g = complete_graph(20)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=r"C\(20,8\) = 125970 .* MiB"):
            build_token_graph(g, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_johnson_is_the_complete_base_case():
    for n in range(2, 8):
        for k in range(1, n):
            j = johnson(n, k)
            t = build_token_graph(complete_graph(n), k)
            assert j.graph == t.graph
            degs = j.graph.degree_multiset()
            assert degs == (k * (n - k),) * comb(n, k)


def test_johnson_complement_identity():
    """F_k of the complement graph equals the Johnson complement of F_k."""
    rng = random.Random(7321)
    for _ in range(120):
        n = rng.randint(2, 9)
        k = rng.randint(1, n - 1)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        want = build_token_graph(g.complement(), k).graph
        got = johnson_complement(build_token_graph(g, k)).graph
        assert want == got


def test_complement_isomorphism():
    # F_{n-k}(g) is isomorphic to F_k(g): swap tokens and holes.
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        g = random_graph(rng, n, 0.5)
        assert complement_isomorphism_check(g, k)


def test_token_degree_is_the_cut_size():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        g = random_graph(rng, n, 0.5)
        tg = build_token_graph(g, k)
        for r in range(tg.graph.n):
            s = tg.subset_of(r)
            assert token_degree(g, s) == tg.graph.degree(r)
            assert token_degree(g, s.members) == tg.graph.degree(r)


@pytest.mark.parametrize(
    "members",
    [[0, 0], [7], [-1], [1, 5], KSubset((7,), 10), KSubset((2,), 4), [0.0, 1.0], [0.5, 1]],
)
def test_token_degree_rejects_invalid_subsets(members):
    """Repeated, out-of-range or non-integer members, or a KSubset over
    another ground set, are not a subset of 0..n-1."""
    with pytest.raises(ValueError):
        token_degree(cycle_graph(5), members)


def test_vertex_labels():
    tg = build_token_graph(path_graph(4), 2)
    assert tg.vertex_labels() == [
        "{0,1}", "{0,2}", "{1,2}", "{0,3}", "{1,3}", "{2,3}",
    ]


def test_two_builds_of_one_pair_are_equal():
    """A token graph compares by value: base, k, rows and codec."""
    a, b = build_token_graph(cycle_graph(6), 2), build_token_graph(cycle_graph(6), 2)
    assert a == b and hash(a) == hash(b)
    assert a != build_token_graph(cycle_graph(6), 3)
    assert a != build_token_graph(path_graph(6), 2)
    assert len({a, b}) == 1


def test_famous_small_cases():
    octa = build_token_graph(complete_graph(4), 2).graph
    assert (octa.n, octa.m) == (6, 12)
    assert octa.degree_multiset() == (4,) * 6

    c5 = build_token_graph(cycle_graph(5), 2).graph
    assert (c5.n, c5.m) == (10, 15)
    assert c5.degree_multiset() == (2,) * 5 + (4,) * 5

    half_star = build_token_graph(star_graph(6), 3).graph
    assert half_star.degree_multiset() == (3,) * 20
