import random
from collections import Counter
from fractions import Fraction

import pytest

from tokengraphs import (
    BadK,
    Disconnected,
    Graph,
    NoP3Found,
    NotAnEdge,
    NotRegularInput,
    RegularityCase,
    RegularityWitness,
    SubsetCodec,
    build_token_graph,
    classify_planarity,
    classify_regularity,
    complete_graph,
    cycle_graph,
    decode_graph6,
    empty_graph,
    graph_classes,
    is_planar,
    partition_uv,
    path_graph,
    residual_degree_obstruction,
    star_graph,
    token_degree,
    token_planarity,
    uniform_substitution_degree,
)
from tokengraphs.search import _trees

from util import random_graph


def test_partition_splits_the_remaining_vertices():
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, 0.5)
        u, v = rng.sample(range(n), 2)
        p = partition_uv(g, u, v)
        parts = (p.x, p.y, p.w, p.z)
        union = set().union(*parts)
        assert union == set(range(n)) - {u, v}
        assert sum(len(s) for s in parts) == n - 2
        nu, nv = set(g.neighbors(u)), set(g.neighbors(v))
        assert p.x == nu - nv - {v}
        assert p.y == nv - nu - {u}
        assert p.w == (nu & nv)
        assert p.z == union - nu - nv


def test_partition_needs_two_vertices():
    with pytest.raises(NotAnEdge):
        partition_uv(complete_graph(3), 1, 1)


def test_classify_rejects_out_of_range_k():
    g = complete_graph(5)
    for k in (0, 1, 4, 5):
        with pytest.raises(BadK):
            classify_regularity(g, k)


@pytest.mark.parametrize(
    "g, k, case",
    [
        (complete_graph(6), 2, RegularityCase.COMPLETE),
        (complete_graph(6), 4, RegularityCase.COMPLETE),
        (empty_graph(7), 3, RegularityCase.EMPTY),
        (star_graph(6), 3, RegularityCase.STAR_HALF),
        (star_graph(6).complement(), 3, RegularityCase.COSTAR_HALF),
        (star_graph(8), 4, RegularityCase.STAR_HALF),
    ],
)
def test_regular_special_cases(g, k, case):
    verdict = classify_regularity(g, k)
    assert verdict.regular and verdict.case is case and verdict.witness is None
    degs = build_token_graph(g, k).graph.degree_multiset()
    assert len(set(degs)) == 1


def test_half_star_needs_exactly_half_the_tokens():
    # K_{1,5} with k != n/2 is irregular
    for k in (2, 4):
        verdict = classify_regularity(star_graph(6), k)
        assert not verdict.regular and verdict.case is RegularityCase.NOT_REGULAR


def test_exhaustive_verdicts_match_built_token_graphs():
    """Every class on 4..6 vertices, every valid k: verdict equals ground truth
    and every negative verdict carries a checkable witness."""
    for n in range(4, 7):
        for m in range(n * (n - 1) // 2 + 1):
            for g in graph_classes(n, m):
                for k in range(2, n - 1):
                    verdict = classify_regularity(g, k)
                    truth = build_token_graph(g, k).graph.is_regular()
                    assert verdict.regular == truth
                    assert verdict.k == k
                    if not truth:
                        w = verdict.witness
                        assert token_degree(g, w.subset_a) == w.degree_a
                        assert token_degree(g, w.subset_b) == w.degree_b
                        assert w.degree_a != w.degree_b
                        assert len(w.subset_a) == len(w.subset_b) == k


def _assert_verified(g, k, w):
    assert token_degree(g, w.subset_a) == w.degree_a
    assert token_degree(g, w.subset_b) == w.degree_b
    assert w.degree_a != w.degree_b
    assert len(w.subset_a) == len(w.subset_b) == k
    assert len(set(w.subset_a) ^ set(w.subset_b)) == 2  # one swap apart


def test_witness_branches_are_all_reachable():
    # the swap search takes the first pair u < v and the first counts
    # (s_x, s_y) whose degree gap is nonzero, at k itself
    assert classify_regularity(decode_graph6("DtO"), 2).witness == RegularityWitness(
        (0, 4), (1, 4), 4, 1
    )
    assert classify_regularity(decode_graph6("DtO"), 3).witness == RegularityWitness(
        (0, 2, 4), (1, 2, 4), 4, 3
    )
    # a regular base that is not complete/empty/half-star still has a swap
    assert classify_regularity(cycle_graph(6), 2).witness == RegularityWitness(
        (0, 2), (1, 2), 4, 2
    )
    rng = random.Random(62)
    for _ in range(400):
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.2, 0.8))
        k = rng.randint(2, g.n - 2)
        w = classify_regularity(g, k).witness
        if w:
            _assert_verified(g, k, w)


def _matching(n):
    return Graph(n, [(i, i + n // 2) for i in range(n // 2)])


def test_large_matching_gets_a_witness():
    # the 70-vertex matching once hit the subset codec's order cap
    g = _matching(70)
    v = classify_regularity(g, 2)
    assert not v.regular
    _assert_verified(g, 2, v.witness)


def test_regularity_never_enumerates_subsets(monkeypatch):
    def refuse(self):
        raise AssertionError("the witness search must not walk subsets")

    monkeypatch.setattr(SubsetCodec, "masks", refuse)
    g = _matching(64)
    v = classify_regularity(g, 16)
    assert not v.regular
    _assert_verified(g, 16, v.witness)


def test_large_k_is_classified_through_the_complement():
    # k above n/2 is searched at k itself; the witness must still verify
    g = decode_graph6("DtO")
    v = classify_regularity(g, 3)
    assert not v.regular
    assert token_degree(g, v.witness.subset_a) == v.witness.degree_a
    assert token_degree(g, v.witness.subset_b) == v.witness.degree_b
    assert len(v.witness.subset_a) == 3


def test_substitution_degree_known_values():
    # complete base: any outside vertex sees all k tokens
    assert uniform_substitution_degree(complete_graph(6), 3) == 3
    assert uniform_substitution_degree(complete_graph(7), 2) == 2
    # empty base: no edges at all
    assert uniform_substitution_degree(empty_graph(6), 2) == 0
    got = uniform_substitution_degree(complete_graph(8), 4)
    assert isinstance(got, Fraction) and got == 4


def test_substitution_degree_requires_regularity_on_both_sides():
    with pytest.raises(NotRegularInput):
        uniform_substitution_degree(star_graph(6), 3)  # base irregular
    with pytest.raises(NotRegularInput):
        uniform_substitution_degree(cycle_graph(6), 2)  # token side irregular
    with pytest.raises(BadK):
        uniform_substitution_degree(complete_graph(6), 1)


def _substitution_walk(g, k):
    """Every |N(b) ∩ A| over the k-subsets A and the vertices b outside A."""
    seen = set()
    for mask in SubsetCodec(g.n, k).masks():
        for b in range(g.n):
            if not mask >> b & 1:
                seen.add((g.adjacency_mask(b) & mask).bit_count())
    return seen


def test_substitution_degree_matches_the_pair_walk():
    """The closed form equals the constant read pair by pair on K_n and E_n,
    and every other regular base is refused (its token graph is irregular)."""
    for n in range(4, 9):
        for g in (complete_graph(n), empty_graph(n)):
            for k in range(2, n - 1):
                assert _substitution_walk(g, k) == {uniform_substitution_degree(g, k)}
    for n in range(4, 8):
        for m in range(1, n * (n - 1) // 2):
            for g in graph_classes(n, m):
                if not g.is_regular():
                    continue
                for k in range(2, n - 1):
                    with pytest.raises(NotRegularInput):
                        uniform_substitution_degree(g, k)


def test_scan_and_substitution_check_walk_the_masks(monkeypatch):
    def refuse(self, r):
        raise AssertionError("neither unranks a subset")

    monkeypatch.setattr(SubsetCodec, "unrank", refuse)
    monkeypatch.setattr(SubsetCodec, "unrank_mask", refuse)
    w = classify_regularity(cycle_graph(8), 4).witness
    assert (w.subset_a, w.subset_b, w.degree_a, w.degree_b) == (
        (0, 2, 3, 4), (1, 2, 3, 4), 4, 2
    )
    assert uniform_substitution_degree(complete_graph(6), 3) == 3


def test_classify_planarity_structural_and_characterization():
    assert classify_planarity(star_graph(7), 2) == classify_planarity(star_graph(7), 2)
    v = classify_planarity(star_graph(7), 2)
    assert (v.planar, v.method, v.reason) == (False, "structural", "max-degree-5")
    v = classify_planarity(cycle_graph(5), 2)
    assert (v.planar, v.method, v.reason) == (False, "structural", "cycle-5")
    v = classify_planarity(path_graph(12), 2)
    assert (v.planar, v.method, v.reason) == (True, "characterization", "path-outer-k")
    v = classify_planarity(path_graph(12), 10)
    assert v.planar and v.method == "characterization"
    v = classify_planarity(path_graph(12), 5)
    assert not v.planar


def test_classify_planarity_computes_small_cases():
    v = classify_planarity(complete_graph(4), 2)
    assert v.planar and v.method == "computed"
    v = classify_planarity(cycle_graph(4), 2)
    assert v.planar and v.method == "computed"
    assert not classify_planarity(complete_graph(6), 3).planar


def test_classify_planarity_agrees_with_direct_builds():
    rng = random.Random(63)
    for _ in range(150):
        n = rng.randint(4, 8)
        k = rng.randint(2, n - 2)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    edges.add((u, v))
        g = Graph(n, sorted(edges))
        want = bool(is_planar(build_token_graph(g, k).graph))
        v = classify_planarity(g, k)
        assert v.planar == want
        # "computed" names exactly the verdicts read off the built graph
        assert (v.method == "computed") == (v.reason == "left-right")
        assert v.method in ("computed", "structural")


def test_classify_planarity_input_contract():
    with pytest.raises(Disconnected):
        classify_planarity(Graph(6, [(0, 1), (2, 3)]), 2)
    with pytest.raises(BadK):
        classify_planarity(path_graph(6), 1)
    with pytest.raises(BadK):
        classify_planarity(path_graph(6), 5)


def test_residual_degree_obstruction():
    with pytest.raises(NoP3Found):
        residual_degree_obstruction(Graph(4, [(0, 1), (2, 3)]), 2)
    with pytest.raises(BadK):
        residual_degree_obstruction(path_graph(5), 4)


def test_residual_degree_obstruction_is_sound():
    """On every connected class with n <= 7, a True verdict means F_k(G) is non-planar."""
    fired = 0
    for n in range(4, 8):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for g in graph_classes(n, m):
                if not g.is_connected():
                    continue
                for k in range(2, n - 1):
                    if residual_degree_obstruction(g, k):
                        fired += 1
                        assert not is_planar(build_token_graph(g, k).graph), (g.edges(), k)
    assert fired == 3286


def test_residual_certificate_graph_is_non_planar():
    """P_3 □ K_{1,3}, the subgraph the residual certificate finds in F_k(G)."""
    cells = [(p, t) for p in range(3) for t in range(4)]  # t = 0 is the centre
    index = {cell: i for i, cell in enumerate(cells)}
    edges = [(index[p, t], index[p + 1, t]) for p in range(2) for t in range(4)]
    edges += [(index[p, 0], index[p, t]) for p in range(3) for t in range(1, 4)]
    h = Graph(12, edges)
    assert h.m == 17
    assert not is_planar(h).planar
    nx = pytest.importorskip("networkx")
    planar, _ = nx.check_planarity(nx.Graph(edges))
    assert not planar


def test_path_rule_base_case_holds_for_every_tree_on_11_vertices():
    """The base case of `classify_planarity`'s n >= 11 proof: of the 235
    trees on 11 vertices only P_11 has a planar F_2, and the paper's lemmas
    reject each of the other 234 without a build."""
    reasons = Counter()
    for tree in _trees(11):
        verdict = token_planarity(tree, 2)
        assert verdict.planar == tree.is_path_graph()
        reasons[verdict.method] += 1
    assert reasons == {"left-right": 1, "disjoint-p3-k13": 158, "max-degree-5": 76}
