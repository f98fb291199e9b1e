import random
import re

import pytest

from tokengraphs import (
    DeleteVertex,
    Graph,
    InvalidScript,
    NoSuchVertex,
    NotAnEdge,
    UnsupportedPattern,
    apply_script,
    complete_bipartite_graph,
    complete_graph,
    contains_disjoint,
    cycle_graph,
    empty_graph,
    has_cycle_of_length_at_least,
    has_subgraph,
    lift_script,
    octahedron_graph,
    parse_script,
    path_graph,
    petersen_graph,
    star_graph,
)
from tokengraphs.graphs import _relabeled, normalize_edge

from util import random_connected_graph, random_graph, random_tree, relabeled


def assert_counted(g):
    """An edit's edge count matches its rows (`Graph.__eq__` ignores m)."""
    assert g.m == sum(g.degrees()) // 2


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    assert g.n == 4 and g.m == 5
    assert g.neighbors(1) == [0, 2, 3]
    assert g.degree(1) == 3
    assert g.degrees() == [2, 3, 2, 3]
    assert g.degree_multiset() == (2, 2, 3, 3)
    assert g.max_degree() == 3 and g.min_degree() == 2
    assert g.has_edge(3, 0) and not g.has_edge(0, 2)
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_normalize_edge_rejects_loops():
    assert normalize_edge(5, 2) == (2, 5)
    with pytest.raises(NotAnEdge):
        normalize_edge(3, 3)


def test_vertex_bounds_checked():
    g = complete_graph(3)
    with pytest.raises(NoSuchVertex):
        g.degree(3)
    with pytest.raises(NoSuchVertex):
        g.has_edge(0, -1)
    with pytest.raises(NoSuchVertex):
        Graph(2, [(0, 2)])


def test_constructors_reject_impossible_orders():
    with pytest.raises(ValueError, match="vertex count must be non-negative, got -1"):
        Graph(-1)
    with pytest.raises(ValueError, match="cycle needs at least 3 vertices, got 2"):
        cycle_graph(2)
    with pytest.raises(ValueError, match="star needs at least 1 vertex"):
        star_graph(0)


def test_with_edge_and_delete_edge():
    g = path_graph(3)
    g2 = g.with_edge(0, 2)
    assert g2.is_cycle_graph()
    assert_counted(g2)
    assert g.m == 2  # original untouched
    with pytest.raises(NotAnEdge):
        g2.with_edge(2, 0)
    assert g2.delete_edge(0, 2) == g
    assert_counted(g2.delete_edge(0, 2))
    with pytest.raises(NotAnEdge):
        g.delete_edge(0, 2)


def test_delete_vertex_relabels_downward():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    h = g.delete_vertex(2)
    # survivors 0,1,3,4 become 0,1,2,3
    assert h.n == 4
    assert h.edges() == [(0, 1), (1, 3), (2, 3)]
    for v in range(g.n):
        assert_counted(g.delete_vertex(v))


def test_contract_edge_against_set_model():
    """contract_edge merges v into u=min and must match a naive set model."""
    rng = random.Random(420)
    for _ in range(120):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, 0.5)
        if g.m == 0:
            continue
        u, v = g.edges()[rng.randrange(g.m)]
        keep = [x for x in range(n) if x != v]
        name = {x: i for i, x in enumerate(keep)}
        image = lambda x: name[u] if x == v else name[x]
        want = {
            tuple(sorted((image(a), image(b))))
            for a, b in g.edges()
            if image(a) != image(b)
        }
        got = g.contract_edge(u, v)
        assert got.n == n - 1
        assert set(got.edges()) == want
        assert_counted(got)


def test_contract_requires_edge():
    with pytest.raises(NotAnEdge):
        path_graph(4).contract_edge(0, 3)


def test_edit_errors_name_the_step():
    g = path_graph(5)
    with pytest.raises(NoSuchVertex, match=r"^vertex 7 outside 0\.\.4$"):
        g.delete_vertex(7)
    with pytest.raises(NoSuchVertex, match=r"^vertex -1 outside 0\.\.4$"):
        g.induced_subgraph([-1, 2, 9])
    with pytest.raises(NotAnEdge, match=r"^edge \(0,2\) not present$"):
        g.delete_edge(2, 0)
    with pytest.raises(NotAnEdge, match=r"^cannot contract absent edge \(0,3\)$"):
        g.contract_edge(3, 0)
    # a loop is rejected before any range check
    with pytest.raises(NotAnEdge, match=r"^self-loop at vertex 9$"):
        g.contract_edge(9, 9)
    # within a script, the labels and the range are those the failing step sees
    with pytest.raises(NoSuchVertex, match=r"^vertex 4 outside 0\.\.3$"):
        apply_script(g, parse_script("dv 0\nde 0 1\nde 0 4"))
    # a step of another code or arity is named, not run as its nearest form
    p4 = path_graph(4)
    for step in [("zz", 0, 1), ("dv", 0, 1), ("de", 0), ("ce", 0, 1, 2), ("dv",)]:
        with pytest.raises(InvalidScript, match=r"^step \(" + re.escape(repr(step)[1:])):
            apply_script(p4, [("de", 0, 1), step])
    # so is a step that does not unpack or whose labels are not integers
    for step in [(), ("dv", 1.0), ("de", 0, 1.5), ("dv", "1"), 7, None]:
        with pytest.raises(InvalidScript, match="^step " + re.escape(repr(step)) + " is none of"):
            apply_script(p4, [("de", 0, 1), step])
    with pytest.raises(InvalidScript, match=r"^step DeleteVertex\(v=1\.0\) is none of"):
        lift_script(p4, 2, [DeleteVertex(1.0)])


def test_complement_involution_and_size():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 9), 0.4)
        gc = g.complement()
        assert gc.complement() == g
        assert g.m + gc.m == g.n * (g.n - 1) // 2
        assert_counted(gc)


def test_relabeled_keeps_the_edge_count():
    rng = random.Random(8)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 9), 0.4)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = _relabeled(g, perm)
        assert h == relabeled(g, perm)
        assert_counted(h)


def test_induced_subgraph():
    g = cycle_graph(6)
    h = g.induced_subgraph([0, 1, 2, 4])
    assert h.n == 4
    assert h.edges() == [(0, 1), (1, 2)]
    assert_counted(h)
    assert g.induced_subgraph([]) == empty_graph(0)
    assert g.induced_subgraph(range(6)) == g


def test_components_and_connectivity():
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    comps = g.connected_components()
    assert comps == [0b0000111, 0b0011000, 0b1100000]
    assert not g.is_connected()
    assert g.component_mask(4) == 0b0011000
    assert empty_graph(0).is_connected()
    assert empty_graph(1).is_connected()
    assert complete_graph(5).is_connected()


def test_tree_and_shape_predicates():
    rng = random.Random(99)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 10))
        assert t.is_tree() and t.is_forest()
    assert path_graph(1).is_path_graph()
    assert path_graph(6).is_path_graph()
    assert not cycle_graph(6).is_path_graph()
    assert cycle_graph(3).is_cycle_graph()
    assert not path_graph(3).is_cycle_graph()
    assert star_graph(5).is_star_graph()
    assert not path_graph(4).is_star_graph()
    assert star_graph(2).is_path_graph()  # K_{1,1} is also P_2
    assert not Graph(4, [(0, 1), (2, 3)]).is_tree()
    assert Graph(4, [(0, 1), (2, 3)]).is_forest()


def test_circumference_known_values():
    # (graph, circumference): a cycle of >= c vertices exists and one of >= c + 1 does not
    for g, c in [
        (cycle_graph(7), 7),
        (complete_graph(4), 4),
        (octahedron_graph(), 6),
        (petersen_graph(), 9),  # hypohamiltonian: no cycle through all 10 vertices
    ]:
        assert has_cycle_of_length_at_least(g, c)
        assert not has_cycle_of_length_at_least(g, c + 1)
    assert not has_cycle_of_length_at_least(path_graph(6), 3)  # acyclic


def test_has_cycle_of_length_at_least():
    assert has_cycle_of_length_at_least(cycle_graph(5), 5)
    assert not has_cycle_of_length_at_least(cycle_graph(5), 6)
    assert not has_cycle_of_length_at_least(random_tree(random.Random(1), 30), 3)
    # no size cap: a long cycle with a pendant path
    big = Graph(40, [(i, (i + 1) % 30) for i in range(30)] + [(0, 30)] +
                [(i, i + 1) for i in range(30, 39)])
    assert has_cycle_of_length_at_least(big, 30)
    assert not has_cycle_of_length_at_least(big, 31)


def test_has_cycle_of_length_at_least_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(27)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        h = nx.Graph(g.edges())
        longest = max(map(len, nx.simple_cycles(h)), default=0)
        for length in range(11):
            # any cycle has at least 3 vertices
            want = longest >= max(length, 3)
            assert has_cycle_of_length_at_least(g, length) == want, (g.edges(), length)


def test_has_cycle_of_length_at_least_on_lollipops():
    """P_n with one chord closing a 4- or 5-cycle at either end.

    The 2-core peel is linear, so the long tail costs one pass.
    """
    for n in (5, 6, 40, 4000):
        for size in (4, 5):
            for low in (True, False):
                chord = (0, size - 1) if low else (n - size, n - 1)
                g = Graph(n, [(i, i + 1) for i in range(n - 1)] + [chord])
                assert has_cycle_of_length_at_least(g, size)
                assert not has_cycle_of_length_at_least(g, size + 1)


def test_subgraph_patterns():
    p3, k13, p7 = path_graph(3), star_graph(4), path_graph(7)
    assert has_subgraph(cycle_graph(4), p3)
    assert not has_subgraph(Graph(4, [(0, 1), (2, 3)]), p3)
    assert has_subgraph(star_graph(6), k13)
    assert not has_subgraph(cycle_graph(8), k13)
    assert has_subgraph(path_graph(7), p7)
    assert has_subgraph(cycle_graph(7), p7)
    assert not has_subgraph(path_graph(6), p7)
    assert has_subgraph(complete_graph(5), cycle_graph(3))


def test_empty_or_disconnected_patterns_are_rejected():
    for pattern in (empty_graph(0), empty_graph(2), Graph(4, [(0, 1), (2, 3)])):
        with pytest.raises(UnsupportedPattern):
            has_subgraph(complete_graph(6), pattern)
        with pytest.raises(UnsupportedPattern):
            contains_disjoint(complete_graph(6), path_graph(3), pattern)


def test_containment_against_networkx_monomorphism():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g, keep):
        h = nx.Graph()
        h.add_nodes_from(v for v in range(g.n) if keep >> v & 1)
        h.add_edges_from((u, v) for u, v in g.edges() if keep >> u & keep >> v & 1)
        return h

    def monomorphic(g, pattern, banned=0):
        host = to_nx(g, ((1 << g.n) - 1) & ~banned)
        return GraphMatcher(host, to_nx(pattern, (1 << pattern.n) - 1)).subgraph_is_monomorphic()

    rng = random.Random(7)
    contained = 0
    for trial in range(3000):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8))
        pattern = random_connected_graph(rng, rng.randint(1, 5), rng.uniform(0.0, 0.6))
        banned = rng.getrandbits(g.n) if rng.random() < 0.5 else 0
        want = monomorphic(g, pattern, banned)
        assert has_subgraph(g, pattern, banned) == want, trial
        contained += want
        if trial % 6 == 0:
            other = random_connected_graph(rng, rng.randint(1, 4), 0.3)
            union = Graph(
                pattern.n + other.n,
                pattern.edges() + [(u + pattern.n, v + pattern.n) for u, v in other.edges()],
            )
            assert contains_disjoint(g, pattern, other) == monomorphic(g, union), trial
    assert 0 < contained < 3000


def test_has_subgraph_respects_banned_mask():
    g = path_graph(6)
    assert has_subgraph(g, path_graph(3), banned=0)
    # banning the middle vertices leaves no path on three vertices
    assert not has_subgraph(g, path_graph(3), banned=0b011110)


def test_contains_disjoint():
    p3, k13 = path_graph(3), star_graph(4)
    # P_3 next to a separate claw
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6)])
    assert contains_disjoint(g, p3, k13)
    assert contains_disjoint(g, k13, p3)
    # spider with three legs of length two: claw and P_3 always share the hub
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert has_subgraph(spider, p3) and has_subgraph(spider, k13)
    assert not contains_disjoint(spider, p3, k13)


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(4, [(0, 1)])
    assert len({a, b}) == 1


def test_complete_bipartite():
    g = complete_bipartite_graph(2, 3)
    assert g.n == 5 and g.m == 6
    assert g.degree_multiset() == (2, 2, 2, 3, 3)



def _disjoint_union(*graphs) -> Graph:
    edges, offset = [], 0
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.n
    return Graph(offset, edges)


def test_is_bipartite():
    for n in range(3, 10):
        assert cycle_graph(n).is_bipartite() == (n % 2 == 0)
    for a, b in ((1, 1), (1, 4), (2, 3), (3, 3), (4, 5)):
        assert complete_bipartite_graph(a, b).is_bipartite()
    assert empty_graph(5).is_bipartite()
    assert Graph(0).is_bipartite()
    assert Graph(1).is_bipartite()
    assert not complete_graph(3).is_bipartite()
    assert not octahedron_graph().is_bipartite()
    assert not petersen_graph().is_bipartite()
    # one odd component beside bipartite ones, in every position
    parts = [cycle_graph(4), path_graph(3), empty_graph(2)]
    assert _disjoint_union(*parts).is_bipartite()
    for i in range(len(parts) + 1):
        mixed = parts[:i] + [cycle_graph(5)] + parts[i:]
        assert not _disjoint_union(*mixed).is_bipartite()


def test_is_bipartite_matches_two_colouring_on_random_graphs():
    rng = random.Random(17)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.1, 0.2, 0.4)))
        colour = {}
        ok = True
        for s in range(g.n):
            if s in colour:
                continue
            colour[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for w in g.neighbors(v):
                    if w not in colour:
                        colour[w] = 1 - colour[v]
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        ok = False
        assert g.is_bipartite() == ok
