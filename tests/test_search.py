import ast
import inspect
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import tokengraphs.planarity
import tokengraphs.search
from tokengraphs import (
    BadK,
    Graph,
    SearchReport,
    SizeLimitExceeded,
    TokenGraphError,
    canonical_graph6,
    complete_graph,
    connected_graphs,
    cycle_graph,
    decode_graph6,
    edge_maximal_search,
    encode_graph6,
    graph_classes,
    path_graph,
    star_graph,
    verify_maximality,
)
from tokengraphs.search import (
    _Rep,
    _accepted_children,
    _grow,
    _is_canonical_deletion,
    _orbit_leaders,
    _sparse_classes,
    _trees,
)

from counting import class_counts, connected_counts, tree_counts
from util import shuffled, tree_code

# published counts of isomorphism classes of simple graphs (OEIS A000088, A001349)
TOTAL_CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# OEIS A000055: unlabelled trees on n vertices
TREES = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551,
    13: 1301, 14: 3159,
}
GOLDEN = Path(__file__).parent / "golden"


def test_generator_counts_match_published_values():
    """Every (n, m) level holds as many classes as Burnside's lemma counts, and
    the counts add up to the published totals."""
    for n in sorted(TOTAL_CLASSES):
        assert sum(class_counts(n)) == TOTAL_CLASSES[n]
        assert sum(connected_counts(n)) == CONNECTED_CLASSES[n]
        for m in range(n * (n - 1) // 2 + 1):
            assert len(graph_classes(n, m)) == class_counts(n)[m], (n, m)
            assert sum(1 for _ in connected_graphs(n, m)) == connected_counts(n)[m], (n, m)


def test_generated_classes_are_distinct_and_correctly_sized():
    for n, m in ((5, 4), (6, 7), (7, 10)):
        batch = graph_classes(n, m)
        assert all(g.n == n and g.m == m for g in batch)
        canon = {canonical_graph6(g) for g in batch}
        assert len(canon) == len(batch)


def test_tree_counts():
    assert sum(1 for _ in connected_graphs(5, 4)) == 3
    assert sum(1 for _ in connected_graphs(7, 6)) == 11
    # the classic count of unlabeled trees on ten vertices
    assert sum(1 for _ in connected_graphs(10, 9)) == 106


def test_trees_match_published_counts():
    otter = tree_counts(16)
    for n, count in TREES.items():
        assert otter[n] == count
        trees = _trees(n)
        assert len(trees) == count
        assert all(t.n == n and t.is_tree() for t in trees)
        assert len({tree_code(t) for t in trees}) == count
    for n in (15, 16):  # past the typed values: Otter's count alone
        assert len(_trees(n)) == otter[n]


def test_tree_code_is_an_isomorphism_invariant():
    rng = random.Random(55)
    for n in range(1, 12):
        trees = _trees(n)
        assert all(tree_code(shuffled(rng, t)) == tree_code(t) for t in trees)
        # as fine as canonical labelling: distinct classes get distinct codes
        codes = {tree_code(t) for t in trees}
        assert len(codes) == len({canonical_graph6(t) for t in trees})


def test_trees_agree_with_canonical_form_growth():
    """The generated trees are the classes that leaf-by-leaf growth deduplicated
    by canonical_graph6 reaches."""
    level = {canonical_graph6(Graph(1)): Graph(1)}
    for n in range(1, 11):
        if n > 1:
            children = {}
            for t in level.values():
                for v in range(n - 1):
                    child = Graph(n, t.edges() + [(v, n - 1)])
                    children.setdefault(canonical_graph6(child), child)
            level = children
        assert {canonical_graph6(t) for t in _trees(n)} == set(level)


def canonical_growth(level):
    """Every single-edge child of `level`, one per canonical_graph6, with no filter."""
    children = {}
    for g in level:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    child = g.with_edge(u, v)
                    children.setdefault(canonical_graph6(child), child)
    return children


def test_graph_classes_agree_with_unfiltered_growth():
    """The canonical-deletion filter loses no class of any (n, m) level."""
    for n in range(1, 8):
        level = {canonical_graph6(Graph(n)): Graph(n)}
        for m in range(n * (n - 1) // 2 + 1):
            assert {canonical_graph6(g) for g in graph_classes(n, m)} == set(level), (n, m)
            level = canonical_growth(level.values())
        assert level == {}


def test_connected_levels_agree_with_unfiltered_growth():
    """Growth from the trees with bridges kept keeps every connected class."""
    for n in range(2, 8):
        grown = [_Rep(t) for t in _trees(n)]
        level = {canonical_graph6(t.g): t.g for t in grown}
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            assert len(grown) == len(level)
            assert {canonical_graph6(r.g) for r in grown} == set(level), (n, m)
            assert set(level) == {canonical_graph6(g) for g in connected_graphs(n, m)}
            grown = _grow(grown, connected=True)
            level = canonical_growth(level.values())
        assert grown == [] and level == {}


def every_pair_growth(level, connected):
    """The children of `level` that pass the canonical-deletion test, trying every
    non-edge of every parent, one per canonical_graph6 in order of appearance."""
    seen, out = set(), []
    for g in level:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    continue
                child = g.with_edge(u, v)
                adj, deg = list(child._adj), child.degrees()
                if _is_canonical_deletion(adj, deg, u, v, connected):
                    label = canonical_graph6(child)
                    if label not in seen:
                        seen.add(label)
                        out.append(child)
    return out


def test_orbit_growth_keeps_every_pair_growth_in_order():
    """One child per automorphism orbit of the parent's non-edges gives the same
    graphs, in the same order, as trying every non-edge."""
    for n in range(1, 8):
        level = [Graph(n)]
        for m in range(1, n * (n - 1) // 4 + 1):
            level = every_pair_growth(level, connected=False)
            assert [g._adj for g in graph_classes(n, m)] == [g._adj for g in level], (n, m)
    for n in range(2, 9):
        reps = [_Rep(t) for t in _trees(n)]
        level = _trees(n)
        for m in range(n, n * (n - 1) // 2 + 1):
            reps = _grow(reps, connected=True)
            level = every_pair_growth(level, connected=True)
            assert [r.g._adj for r in reps] == [g._adj for g in level], (n, m)


def deletion_rank(child, u, v, connected):
    return _is_canonical_deletion(list(child._adj), child.degrees(), u, v, connected)


def test_canonical_deletion_answers_three_ways():
    # K_{1,3} plus the leaf edge (1, 2): the edge (0, 1), on a triangle, has the larger degrees
    assert deletion_rank(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), 1, 2, True) == 0
    # a lone edge is the only one there is
    assert deletion_rank(Graph(3, [(0, 1)]), 0, 1, False) == 1
    # every edge of C_4 has the invariant (2, 2, 0) and lies on the cycle
    c4 = cycle_graph(4)
    assert deletion_rank(c4, 0, 3, True) == deletion_rank(c4, 0, 3, False) == 2
    # the square 0-1-2-3 with the new edge (0, 1) at (3, 3, 0); the only other
    # edge there is the bridge (0, 4) to a vertex with two leaves, so it is
    # deletable only when bridges are
    tied_with_bridge = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (4, 6), (1, 7)])
    assert deletion_rank(tied_with_bridge, 0, 1, True) == 1
    assert deletion_rank(tied_with_bridge, 0, 1, False) == 2


def has_one_top_deletion(g, connected):
    """True iff g has exactly one deletable edge of maximum (larger degree,
    smaller degree, common neighbours), bridges not deletable when `connected`."""
    deg = g.degrees()
    ranks = Counter(
        (max(deg[a], deg[b]), min(deg[a], deg[b]), len(set(g.neighbors(a)) & set(g.neighbors(b))))
        for a, b in g.edges()
        if not connected or g.delete_edge(a, b).is_connected()
    )
    return ranks[max(ranks)] == 1


def degree_pairs(g):
    """The sorted (degree, sum of neighbour degrees) pairs of g."""
    deg = g.degrees()
    return tuple(sorted((deg[v], sum(deg[u] for u in g.neighbors(v))) for v in range(g.n)))


def unlabelled_by_rule(below, connected):
    """Whether growing `below` should leave a kept child g unlabelled: iff its
    new edge is its one deletable edge of maximum invariant, or no other
    child of the batch that ties there has g's degree pairs."""
    batch = list(_accepted_children(below, connected))
    assert [unique for _, unique, _ in batch] == [
        has_one_top_deletion(child, connected) for child, _, _ in batch
    ]
    tied = Counter(degree_pairs(child) for child, unique, _ in batch if not unique)
    return lambda g: has_one_top_deletion(g, connected) or tied[degree_pairs(g)] == 1


def test_grown_levels_hold_each_class_once_and_label_only_ties(monkeypatch):
    """Every grown level holds pairwise distinct classes, and a child stays
    unlabelled iff its new edge is the only deletable edge of maximum
    invariant or its degree pairs are unique among the tied children of its
    batch."""
    monkeypatch.setattr(tokengraphs.search, "_LEVELS", {})
    tied_kept = Counter()  # labelled or not, over the tied children kept
    for n in range(1, 9):
        total = n * (n - 1) // 2
        for m in range(total + 1):
            if 0 < m <= total - m:
                level = _sparse_classes(n, m)  # fresh: nothing has grown it yet
                rule = unlabelled_by_rule(_sparse_classes(n, m - 1), False)
                assert [r.gens is None for r in level] == [rule(r.g) for r in level], (n, m)
                tied_kept.update(r.gens is None for r in level if not has_one_top_deletion(r.g, False))
            batch = graph_classes(n, m)
            assert len({canonical_graph6(g) for g in batch}) == len(batch), (n, m)
    stops = edge_maximal_search(2, range(5, 10), prune=False).stopped_at
    for n in range(2, 10):
        reps = [_Rep(t) for t in _trees(n)]
        for m in range(n, stops.get(n, n * (n - 1) // 2) + 1):
            rule = unlabelled_by_rule(reps, True)
            reps = _grow(reps, connected=True)
            assert [r.gens is None for r in reps] == [rule(r.g) for r in reps], (n, m)
            assert len({canonical_graph6(r.g) for r in reps}) == len(reps), (n, m)
            tied_kept.update(r.gens is None for r in reps if not has_one_top_deletion(r.g, True))
    assert tied_kept[True] and tied_kept[False]  # the pairs spare some ties, not all


def test_orbit_leaders_skip_only_copies():
    # the star K_{1,4}: every non-edge joins two leaves, one orbit under Aut = S_4
    star = star_graph(5)
    assert _orbit_leaders(star, _Rep(star).labelled().gens) == [(1, 2)]
    # with no generators, every non-edge leads its own orbit
    path = path_graph(4)
    assert _orbit_leaders(path, []) == [(0, 2), (0, 3), (1, 3)]
    assert _orbit_leaders(path, [(3, 2, 1, 0)]) == [(0, 2), (0, 3)]


LABELLERS = ("canonical_graph6", "canonical_data")


def patch_labellers(monkeypatch, wrap):
    """Route every labelling the search makes through `wrap(g)` first."""
    for name in LABELLERS:
        label = getattr(tokengraphs.search, name)

        def wrapped(g, label=label):
            wrap(g)
            return label(g)

        monkeypatch.setattr(tokengraphs.search, name, wrapped)


def test_search_labels_through_the_patched_names():
    names = {
        node.id
        for node in ast.walk(ast.parse(inspect.getsource(tokengraphs.search)))
        if isinstance(node, ast.Name) and node.id.startswith("canonical")
    }
    assert names == set(LABELLERS)


def test_growth_labels_only_accepted_children(monkeypatch):
    calls = []
    patch_labellers(monkeypatch, lambda g: calls.append(g.n))
    report = edge_maximal_search(2, range(5, 10), prune=False)
    labelled = len(calls)
    monkeypatch.undo()
    # labelling every child of every parent would make 11,236 labellings; every
    # accepted child, 2,594; one per orbit, 2,026; only the children that tie
    # on the invariant, 1,404; only the tied children whose degree pairs
    # another tied child shares, 1,147
    assert labelled <= 1150
    for e in report.entries:  # verbatim mode examines every connected class of each level
        assert e.generated == connected_counts(e.n)[e.m]


@pytest.mark.parametrize("k, lo, hi, most", [(2, 5, 10, 90), (3, 6, 8, 25)])
def test_pruned_census_labels_only_on_collisions(monkeypatch, k, lo, hi, most):
    """The pruned censuses label 86 and 24 times: each parent grown, the
    children and leaf extensions whose degree pairs collide, and the cycle-edge
    deletions that share a pending survivor's pairs. Labelling every tied
    child and every deletion made 229 and 45."""
    calls = []
    patch_labellers(monkeypatch, lambda g: calls.append(g.n))
    report = edge_maximal_search(k, range(lo, hi + 1))
    monkeypatch.undo()
    assert len(calls) <= most
    assert list(report.maximal) == sorted((GOLDEN / f"maximal_k{k}.g6").read_text().split())


def test_search_labels_only_connected_graphs(monkeypatch):
    """Growth, leaf extension and maximality never label a disconnected graph."""

    def connected_only(g):
        assert g.is_connected(), encode_graph6(g)

    patch_labellers(monkeypatch, connected_only)
    for k, lo, hi in ((2, 5, 10), (3, 6, 8), (4, 8, 10)):
        edge_maximal_search(k, range(lo, hi + 1))
    edge_maximal_search(2, range(5, 9), prune=False)


def test_dense_levels_use_complements():
    lo = graph_classes(6, 2)
    hi = graph_classes(6, 13)
    assert len(lo) == len(hi) == 2
    assert {canonical_graph6(g.complement()) for g in hi} == {
        canonical_graph6(g) for g in lo
    }
    assert graph_classes(5, 11) == ()
    assert len(graph_classes(4, 6)) == 1


def test_graph_classes_of_a_negative_order_or_size_are_empty():
    assert graph_classes(-1, 0) == ()
    assert graph_classes(4, -1) == ()
    assert graph_classes(-2, -3) == ()


def test_generator_size_caps():
    with pytest.raises(SizeLimitExceeded):
        graph_classes(15, 3)
    with pytest.raises(SizeLimitExceeded):
        list(connected_graphs(15, 14))  # the trees keep the generator's cap


def test_verify_maximality_examples():
    assert verify_maximality(complete_graph(4), 2)  # nothing to add
    assert not verify_maximality(cycle_graph(10), 2)  # already non-planar
    assert not verify_maximality(path_graph(5), 2)  # extendable
    assert verify_maximality(decode_graph6("DZ["), 2)
    assert verify_maximality(decode_graph6("EHwg"), 3)
    with pytest.raises(BadK):
        verify_maximality(complete_graph(4), 3)


def test_k4_census_builds_no_token_graph(monkeypatch):
    """Every tree on 8..10 vertices breaks the bipartite edge bound at k = 4.

    The edge bound runs before the lemmas, so neither is reached.
    """
    expected = edge_maximal_search(4, range(8, 11))

    def no_build(*args, **kwargs):
        raise AssertionError("the edge count should decide every k = 4 candidate")

    monkeypatch.setattr(tokengraphs.planarity, "_neighbour_lists", no_build)
    monkeypatch.setattr(tokengraphs.planarity, "nonplanarity_by_minor", no_build)
    report = edge_maximal_search(4, range(8, 11))
    assert report.maximal == ()
    assert report.entries == expected.entries
    assert report.stopped_at == {8: 7, 9: 8, 10: 9}


@pytest.mark.parametrize("prune, orders, most", [(True, range(5, 11), 66), (False, range(5, 10), 83)])
def test_k2_census_builds_only_what_no_lemma_rejects(monkeypatch, prune, orders, most):
    """The paper's lemmas reject most candidates before a token graph is built."""
    build = tokengraphs.planarity._neighbour_lists
    builds = []

    def counted(g, k):
        builds.append(g)
        return build(g, k)

    monkeypatch.setattr(tokengraphs.planarity, "_neighbour_lists", counted)
    edge_maximal_search(2, orders, prune=prune)
    assert 0 < len(builds) <= most


def test_k2_census_past_ten_keeps_only_the_paths():
    """For 11 <= n <= 14 only P_n has a planar F_2, and its one-edge extensions do not."""
    report = edge_maximal_search(2, range(11, 15))
    assert report.maximal == (
        "J??PE?gS?W?", "K??@E?gS?WA_", "L???HB?IA_@OD?", "M???@B?IA_@OD?@_?"
    )
    assert report.maximal == tuple(canonical_graph6(path_graph(n)) for n in range(11, 15))
    assert report.stopped_at == {n: n for n in range(11, 15)}
    assert not report.partial


def test_k3_census_past_ten_stops_at_the_trees():
    """For 11 <= n <= 14 no tree has a planar F_3, so no graph is maximal."""
    report = edge_maximal_search(3, range(11, 15))
    assert report.maximal == ()
    assert report.stopped_at == {n: n - 1 for n in range(11, 15)}
    # n = 11 walks every tree; the later orders extend its survivors, of which there are none
    assert [e.generated for e in report.entries] == [TREES[11], 0, 0, 0]
    assert not report.partial


def test_search_rejects_bad_ranges():
    with pytest.raises(BadK):
        edge_maximal_search(1, range(4, 5))
    with pytest.raises(BadK):
        edge_maximal_search(3, range(5, 6))  # n < 2k has no 2 <= k <= n-2 story
    with pytest.raises(SizeLimitExceeded):
        edge_maximal_search(2, range(15, 17))  # the first order walks the trees
    with pytest.raises(SizeLimitExceeded):
        edge_maximal_search(2, [13, 15])  # nothing to extend at n = 15
    with pytest.raises(SizeLimitExceeded):
        edge_maximal_search(2, range(14, 16), prune=False)  # verbatim walks every order's trees
    assert edge_maximal_search(2, range(14, 16)).stopped_at == {14: 14, 15: 15}
    with pytest.raises(BadK):
        edge_maximal_search(2, range(4, 4))  # no order to search
    with pytest.raises(BadK, match="must be integers"):
        edge_maximal_search(2, [5.7])  # not read as n = 5
    with pytest.raises(BadK, match="is below 2k"):
        edge_maximal_search(2, [-1])  # an integer, so the order check answers


def test_search_report_round_trips_as_json():
    report = edge_maximal_search(3, range(6, 8))
    blob = json.loads(json.dumps(report.to_json()))
    assert blob["k"] == 3
    assert blob["maximal"] == ["EHwg", "EMGg"]
    assert blob["stopped_at"]["6"] == 8
    assert all(set(e) == {"n", "m", "generated", "survivors"} for e in blob["entries"])
    assert isinstance(blob["elapsed_secs"], float)


def test_search_is_deterministic():
    a = edge_maximal_search(2, range(5, 7))
    b = edge_maximal_search(2, range(5, 7))
    ja, jb = a.to_json(), b.to_json()
    ja.pop("elapsed_secs"), jb.pop("elapsed_secs")
    assert ja == jb


def test_pruned_and_verbatim_modes_agree():
    """Frontier pruning must not change survivors, maximal set, or stops."""
    for k, lo, hi in ((2, 5, 8), (3, 6, 9)):
        pruned = edge_maximal_search(k, range(lo, hi))
        full = edge_maximal_search(k, range(lo, hi), prune=False)
        assert pruned.maximal == full.maximal
        assert pruned.stopped_at == full.stopped_at
        surv_p = {(e.n, e.m): e.survivors for e in pruned.entries}
        surv_f = {(e.n, e.m): e.survivors for e in full.entries}
        for key in surv_p.keys() & surv_f.keys():
            assert surv_p[key] == surv_f[key]
        assert pruned.mode == "pruned" and full.mode == "verbatim"
        # verbatim mode examines every connected class of each level
        for e in full.entries:
            assert e.generated == connected_counts(e.n)[e.m]


def test_search_stops_once_a_level_has_no_survivors():
    report = edge_maximal_search(2, range(6, 7))
    stop = report.stopped_at[6]
    levels = sorted(e.m for e in report.entries)
    assert levels[-1] == stop
    assert [e.survivors for e in report.entries if e.m == stop] == [0]
    # the level after the stop is never generated
    assert stop < 6 * 5 // 2


def test_every_reported_graph_passes_maximality_from_its_string():
    """The maximality read off the next level agrees with the direct check."""
    reports = [
        edge_maximal_search(k, range(lo, hi + 1), prune=prune)
        for k, lo, hi in ((2, 5, 8), (3, 6, 8))
        for prune in (True, False)
    ]
    for report in reports:
        assert report.maximal
        for text in report.maximal:
            g = decode_graph6(text)
            assert canonical_graph6(g) == text
            assert verify_maximality(g, report.k)


def test_census_does_not_call_verify_maximality(monkeypatch):
    def refuse(g, k):
        raise AssertionError("maximality is read off the next level")

    monkeypatch.setattr(tokengraphs.search, "verify_maximality", refuse)
    report = edge_maximal_search(2, range(5, 11))
    golden = (GOLDEN / "maximal_k2.g6").read_text().split()
    assert list(report.maximal) == sorted(golden)


def test_budget_flag_yields_partial_reports():
    report = edge_maximal_search(2, range(5, 11), budget_secs=0.0)
    assert report.partial
    full = edge_maximal_search(2, range(5, 7), budget_secs=3600)
    assert not full.partial


def test_non_finite_budget_is_rejected():
    for budget in (float("nan"), float("inf"), float("-inf"), -1.0):
        with pytest.raises(TokenGraphError):
            edge_maximal_search(2, range(5, 6), budget_secs=budget)


def test_importing_the_package_starts_no_process_machinery():
    code = (
        "import sys, tokengraphs; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    src = str(Path(tokengraphs.search.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_search_grows_the_trees_once(monkeypatch):
    calls = []
    trees = tokengraphs.search._trees

    def counting(n):
        calls.append(n)
        return trees(n)

    monkeypatch.setattr(tokengraphs.search, "_trees", counting)
    report = edge_maximal_search(2, range(5, 11))
    assert calls == [5]  # n = 6..10 extend the previous order's tree survivors
    assert report.entries[0].generated == TREES[5]
    calls.clear()
    edge_maximal_search(2, range(5, 10), prune=False)
    assert calls == list(range(5, 10))


@pytest.mark.parametrize("k, lo, hi", [(2, 6, 16), (3, 7, 14), (4, 9, 14)])
def test_leaf_extensions_keep_every_surviving_tree(monkeypatch, k, lo, hi):
    """The tree survivors grown from the order below equal those of all of `_trees(n)`."""
    monkeypatch.setattr(tokengraphs.search, "GENERATOR_MAX_N", hi)
    report = edge_maximal_search(k, range(lo, hi + 1))
    trees = {e.n: e.survivors for e in report.entries if e.m == e.n - 1}
    for n in range(lo, hi + 1):
        alone = edge_maximal_search(k, range(n, n + 1)).entries[0]
        assert alone.generated == tree_counts(hi)[n]
        assert trees[n] == alone.survivors, (k, n)
