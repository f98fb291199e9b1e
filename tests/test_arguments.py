"""The bad-argument contract of `tokengraphs.errors`, one row per integer slot.

Every public callable that takes an integer reads it with its kind's reader
in `graphs`, by `operator.index`, so a float, a string and None fail there,
with the error its kind documents, as does a negative integer where one is
invalid. `test_every_callable_with_a_parameter_is_a_row_or_exempt` keeps the
table honest: a public callable or method with a parameter is either a row
here or named in `EXEMPT` with the reason it takes no integer.
"""

import inspect
import math
from decimal import Decimal
from fractions import Fraction

import pytest

import tokengraphs as tg
from tokengraphs import (
    BadK,
    DeleteVertex,
    IndexOutOfRange,
    InvalidScript,
    LiftedScript,
    NoSuchVertex,
    TokenGraphError,
)

G = tg.path_graph(5)
C6 = tg.cycle_graph(6)
CODEC = tg.SubsetCodec(5, 2)
F2 = tg.build_token_graph(G, 2)
NON_INTEGERS = (2.5, "2", None)

# (public name, slot, call with x in that slot, error for a value that is no
# integer, error for -1 or None where -1 is a valid value)
ROWS = [
    ("Graph", "n", lambda x: tg.Graph(x), ValueError, ValueError),
    ("Graph", "edges", lambda x: tg.Graph(3, [(0, x)]), NoSuchVertex, NoSuchVertex),
    ("Graph.adjacency_mask", "v", lambda x: G.adjacency_mask(x), NoSuchVertex, NoSuchVertex),
    ("Graph.neighbors", "v", lambda x: G.neighbors(x), NoSuchVertex, NoSuchVertex),
    ("Graph.degree", "v", lambda x: G.degree(x), NoSuchVertex, NoSuchVertex),
    ("Graph.component_mask", "v", lambda x: G.component_mask(x), NoSuchVertex, NoSuchVertex),
    ("Graph.has_edge", "u", lambda x: G.has_edge(x, 1), NoSuchVertex, NoSuchVertex),
    ("Graph.has_edge", "v", lambda x: G.has_edge(0, x), NoSuchVertex, NoSuchVertex),
    ("Graph.with_edge", "u", lambda x: G.with_edge(x, 2), NoSuchVertex, NoSuchVertex),
    ("Graph.with_edge", "v", lambda x: G.with_edge(0, x), NoSuchVertex, NoSuchVertex),
    ("Graph.induced_subgraph", "vertices", lambda x: G.induced_subgraph([0, x]), NoSuchVertex, NoSuchVertex),
    # the editing methods run one-step scripts, whose labels are script labels
    ("Graph.delete_vertex", "v", lambda x: G.delete_vertex(x), InvalidScript, NoSuchVertex),
    ("Graph.delete_edge", "u", lambda x: G.delete_edge(x, 1), InvalidScript, NoSuchVertex),
    ("Graph.delete_edge", "v", lambda x: G.delete_edge(0, x), InvalidScript, NoSuchVertex),
    ("Graph.contract_edge", "u", lambda x: G.contract_edge(x, 1), InvalidScript, NoSuchVertex),
    ("Graph.contract_edge", "v", lambda x: G.contract_edge(0, x), InvalidScript, NoSuchVertex),
    ("empty_graph", "n", lambda x: tg.empty_graph(x), ValueError, ValueError),
    ("complete_graph", "n", lambda x: tg.complete_graph(x), ValueError, ValueError),
    ("path_graph", "n", lambda x: tg.path_graph(x), ValueError, ValueError),
    ("cycle_graph", "n", lambda x: tg.cycle_graph(x), ValueError, ValueError),
    ("star_graph", "n", lambda x: tg.star_graph(x), ValueError, ValueError),
    ("complete_bipartite_graph", "a", lambda x: tg.complete_bipartite_graph(x, 2), ValueError, ValueError),
    ("complete_bipartite_graph", "b", lambda x: tg.complete_bipartite_graph(2, x), ValueError, ValueError),
    ("has_cycle_of_length_at_least", "length", lambda x: tg.has_cycle_of_length_at_least(G, x), ValueError, None),
    ("has_subgraph", "banned", lambda x: tg.has_subgraph(G, tg.path_graph(3), x), ValueError, ValueError),
    ("KSubset", "members", lambda x: tg.KSubset((0, x), 5), NoSuchVertex, NoSuchVertex),
    ("KSubset", "n", lambda x: tg.KSubset((0, 1), x), ValueError, ValueError),
    ("SubsetCodec", "n", lambda x: tg.SubsetCodec(x, 2), ValueError, ValueError),
    ("SubsetCodec", "k", lambda x: tg.SubsetCodec(5, x), BadK, BadK),
    ("SubsetCodec.rank", "s", lambda x: CODEC.rank([0, x]), NoSuchVertex, NoSuchVertex),
    ("SubsetCodec.rank_mask", "mask", lambda x: CODEC.rank_mask(x), ValueError, ValueError),
    ("SubsetCodec.unrank", "r", lambda x: CODEC.unrank(x), TypeError, IndexOutOfRange),
    ("SubsetCodec.unrank_mask", "r", lambda x: CODEC.unrank_mask(x), TypeError, IndexOutOfRange),
    ("TokenGraph.subset_of", "r", lambda x: F2.subset_of(x), TypeError, IndexOutOfRange),
    ("TokenGraph.vertex_of", "s", lambda x: F2.vertex_of([0, x]), NoSuchVertex, NoSuchVertex),
    ("build_token_graph", "k", lambda x: tg.build_token_graph(G, x), BadK, BadK),
    ("token_degree", "subset", lambda x: tg.token_degree(G, [0, x]), NoSuchVertex, NoSuchVertex),
    ("johnson", "n", lambda x: tg.johnson(x, 2), ValueError, ValueError),
    ("johnson", "k", lambda x: tg.johnson(5, x), BadK, BadK),
    ("complement_isomorphism_check", "k", lambda x: tg.complement_isomorphism_check(G, x), BadK, BadK),
    ("token_planarity", "k", lambda x: tg.token_planarity(G, x), BadK, BadK),
    ("classify_regularity", "k", lambda x: tg.classify_regularity(G, x), BadK, BadK),
    ("classify_planarity", "k", lambda x: tg.classify_planarity(G, x), BadK, BadK),
    ("residual_degree_obstruction", "k", lambda x: tg.residual_degree_obstruction(G, x), BadK, BadK),
    ("uniform_substitution_degree", "k", lambda x: tg.uniform_substitution_degree(G, x), BadK, BadK),
    ("partition_uv", "u", lambda x: tg.partition_uv(G, x, 1), NoSuchVertex, NoSuchVertex),
    ("partition_uv", "v", lambda x: tg.partition_uv(G, 0, x), NoSuchVertex, NoSuchVertex),
    ("nonplanarity_by_minor", "k", lambda x: tg.nonplanarity_by_minor(C6, x), BadK, None),
    ("lift_script", "k", lambda x: tg.lift_script(G, x, []), BadK, BadK),
    ("lift_script", "ops", lambda x: tg.lift_script(G, 2, [DeleteVertex(x)]), InvalidScript, NoSuchVertex),
    ("apply_script", "ops", lambda x: tg.apply_script(G, [DeleteVertex(x)]), InvalidScript, NoSuchVertex),
    ("apply_and_verify", "lifted", lambda x: tg.apply_and_verify(G, LiftedScript(x, ())), BadK, BadK),
    ("verify_maximality", "k", lambda x: tg.verify_maximality(G, x), BadK, BadK),
    ("graph_classes", "n", lambda x: tg.graph_classes(x, 2), ValueError, None),
    ("graph_classes", "m", lambda x: tg.graph_classes(4, x), ValueError, None),
    ("connected_graphs", "n", lambda x: tg.connected_graphs(x, 3), ValueError, None),
    ("connected_graphs", "m", lambda x: tg.connected_graphs(4, x), ValueError, None),
    ("edge_maximal_search", "k", lambda x: tg.edge_maximal_search(x, [5]), BadK, BadK),
    ("edge_maximal_search", "n_range", lambda x: tg.edge_maximal_search(2, [x]), BadK, BadK),
]

# Public callables with a parameter that is no integer slot: their arguments
# are a Graph, text, records, or the fields of a record the library returns
# (a record holds what it is given; an operation's labels are read where the
# script runs, as the `ops` rows above show).
EXEMPT = {
    "are_isomorphic": "two graphs",
    "canonical_form": "a graph",
    "canonical_graph": "a graph",
    "canonical_graph6": "a graph",
    "contains_disjoint": "graphs",
    "decode_graph6": "text",
    "encode_graph6": "a graph",
    "format_script": "operation records",
    "is_planar": "a graph",
    "iter_graph6": "text",
    "johnson_complement": "a token graph",
    "parse_script": "text",
    "planarity_oracle": "a graph",
    "ContractEdge": "an operation record",
    "ContractEdge.apply": "a graph",
    "DeleteEdge": "an operation record",
    "DeleteEdge.apply": "a graph",
    "DeleteVertex": "an operation record",
    "DeleteVertex.apply": "a graph",
    "CanonicalForm": "a result record",
    "LiftedScript": "a result record",
    "LiftedStep": "a result record",
    "NeighborhoodPartition": "a result record",
    "PlanarityVerdict": "a result record",
    "RegularityCase": "text: an enum value",
    "RegularityVerdict": "a result record",
    "RegularityWitness": "a result record",
    "SearchEntry": "a result record",
    "SearchReport": "a result record",
    "TokenGraph": "a result record",
    "TokenPlanarity": "a result record",
}


def _takes_arguments(obj, method: bool) -> bool:
    params = list(inspect.signature(obj).parameters)
    return len(params) > int(method)


def _public_callables_with_parameters():
    names = set()
    for name in tg.__all__:
        obj = getattr(tg, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        if _takes_arguments(obj, False):
            names.add(name)
        if isinstance(obj, type):
            for attr, member in inspect.getmembers(obj, inspect.isfunction):
                if not attr.startswith("_") and member.__module__.startswith("tokengraphs"):
                    if _takes_arguments(member, True):
                        names.add(f"{name}.{attr}")
    return names


def test_every_callable_with_a_parameter_is_a_row_or_exempt():
    rows = {name for name, *_ in ROWS}
    assert not rows & EXEMPT.keys()
    assert _public_callables_with_parameters() == rows | EXEMPT.keys()


@pytest.mark.parametrize(
    "call, non_integer, negative",
    [pytest.param(*row[2:], id=f"{row[0]}[{row[1]}]") for row in ROWS],
)
def test_a_bad_integer_argument_raises_its_kinds_error(call, non_integer, negative):
    """The error is exactly the documented class, not merely a subclass of it."""
    for x in NON_INTEGERS:
        with pytest.raises(non_integer) as info:
            call(x)
        assert type(info.value) is non_integer, x
    if negative is not None:
        with pytest.raises(negative) as info:
            call(-1)
        assert type(info.value) is negative


def test_a_negative_integer_is_valid_where_the_table_says_so():
    """graph_classes and connected_graphs have no class for it, any cycle is
    long enough for it, and the minor lemmas decide nothing for it."""
    assert tg.graph_classes(-1, 2) == tg.graph_classes(4, -1) == ()
    assert list(tg.connected_graphs(-1, 3)) == list(tg.connected_graphs(4, -1)) == []
    assert tg.has_cycle_of_length_at_least(C6, -1)
    assert tg.nonplanarity_by_minor(C6, -1) is None


@pytest.mark.parametrize("budget", ["1", [1], -1, -0.5, math.nan, math.inf])
def test_a_bad_search_budget_raises_a_token_graph_error(budget):
    """The budget is a real number of seconds: 2.5 is valid and None means no
    budget, so its row has bad values of its own."""
    with pytest.raises(TokenGraphError) as info:
        tg.edge_maximal_search(2, [5], budget_secs=budget)
    assert type(info.value) is TokenGraphError
    assert not tg.edge_maximal_search(2, [5], budget_secs=2.5).partial


@pytest.mark.parametrize("budget", [0, 2.5, Fraction(5, 2), Decimal("2.5")])
def test_any_finite_real_budget_is_read(budget):
    """Not only int and float: any real that `math.isfinite` reads is seconds."""
    report = tg.edge_maximal_search(2, [5], budget_secs=budget)
    assert report.partial == (budget == 0)


def test_a_bool_is_an_integer():
    """As `operator.index` reads it: True is 1 in every slot."""
    assert G.degree(True) == G.degree(1)
    assert tg.KSubset((False, True), 5).members == (False, True)
    assert tg.build_token_graph(G, True).graph == tg.build_token_graph(G, 1).graph
