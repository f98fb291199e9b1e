import random
from collections import Counter
from math import comb

import pytest

import tokengraphs.graphs
from tokengraphs import (
    BadK,
    ContractEdge,
    DeleteEdge,
    DeleteVertex,
    Graph,
    InvalidScript,
    LiftedScript,
    LiftedStep,
    NoSuchVertex,
    NotAnEdge,
    TokenGraphError,
    apply_and_verify,
    apply_script,
    are_isomorphic,
    build_token_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    format_script,
    lift_script,
    nonplanarity_by_minor,
    parse_script,
    path_graph,
    residual_degree_obstruction,
    star_graph,
)
from tokengraphs.search import _trees

from util import random_graph, reference_script


def test_operations_apply():
    g = cycle_graph(4)
    assert DeleteVertex(3).apply(g) == path_graph(3)
    assert DeleteEdge(0, 3).apply(g) == path_graph(4)
    assert ContractEdge(0, 3).apply(g) == cycle_graph(3)


def test_operation_errors():
    g = path_graph(4)
    with pytest.raises(NoSuchVertex):
        DeleteVertex(4).apply(g)
    with pytest.raises(NotAnEdge):
        DeleteEdge(0, 2).apply(g)
    with pytest.raises(NotAnEdge):
        ContractEdge(0, 2).apply(g)


def test_parse_and_format_round_trip():
    text = """
    # reduce to a triangle
    dv 5

    de 0 2
    ce 3 4
    """
    ops = parse_script(text)
    assert ops == (DeleteVertex(5), DeleteEdge(0, 2), ContractEdge(3, 4))
    assert format_script(ops) == "dv 5\nde 0 2\nce 3 4"
    assert parse_script(format_script(ops)) == ops


@pytest.mark.parametrize(
    "text",
    [
        "dx 1",          # unknown opcode
        "dv",            # missing argument
        "dv 1 2",        # too many arguments
        "de 3",          # wrong arity
        "ce 1 two",      # non-integer
        "delete 4",      # long names are not accepted
    ],
)
def test_parse_rejects_malformed_lines(text):
    with pytest.raises(InvalidScript):
        parse_script(text)


def test_parse_error_names_the_line():
    try:
        parse_script("dv 1\n\nbogus 3\n")
    except InvalidScript as exc:
        assert "3" in str(exc)
    else:
        raise AssertionError("parse accepted a bogus line")


def test_apply_script_chains_operations():
    g = complete_graph(5)
    h = apply_script(g, parse_script("dv 4\nce 0 1\nde 0 2"))
    assert (h.n, h.m) == (3, 2)


def as_ops(steps):
    """Operation objects for ("dv", v), ("de", u, v) and ("ce", u, v) steps."""
    ops = {"dv": DeleteVertex, "de": DeleteEdge, "ce": ContractEdge}
    return [ops[code](*ends) for code, *ends in steps]


def test_apply_script_matches_the_per_step_reference():
    """One pass over a script equals its steps applied one at a time.

    Most labels are drawn below the order a step is likely to see, one in
    ten from -1..n, so many scripts fail part way (a missing vertex, a
    missing edge or a loop); those must fail with the reference's exception
    class.
    """
    rng = random.Random(523)
    outcomes = Counter()
    for _ in range(1500):
        n = rng.randint(0, 8)
        g = random_graph(rng, n, rng.uniform(0.3, 1))
        steps = []
        for _ in range(rng.randint(1, 3)):
            code = rng.choice(("dv", "de", "ce"))
            likely = max(n - len(steps), 1)
            ends = [
                rng.randint(-1, n) if rng.random() < 0.1 else rng.randrange(likely)
                for _ in range(1 if code == "dv" else 2)
            ]
            steps.append((code, *ends))
        script = as_ops(steps)
        try:
            expected = reference_script(g, steps)
        except (NoSuchVertex, NotAnEdge) as exc:
            outcomes[type(exc)] += 1
            with pytest.raises(type(exc)):
                apply_script(g, script)
            continue
        outcomes["applied"] += 1
        got = apply_script(g, script)
        assert got == expected and got.m == expected.m
    assert min(outcomes.values()) > 150 and len(outcomes) == 3


def test_apply_script_matches_the_reference_on_valid_scripts():
    """Long valid scripts, each step drawn from the graph the last one left."""
    rng = random.Random(529)
    for _ in range(300):
        g = h = random_graph(rng, rng.randint(3, 9), rng.uniform(0.3, 0.9))
        steps = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.3 and h.n:
                step = ("dv", rng.randrange(h.n))
            elif h.m:
                u, v = rng.sample(h.edges()[rng.randrange(h.m)], 2)
                step = (rng.choice(("de", "ce")), u, v)
            else:
                break
            steps.append(step)
            h = reference_script(h, [step])
        got = apply_script(g, as_ops(steps))
        assert got == h and got.m == h.m


def test_apply_script_builds_one_graph(monkeypatch):
    """A 50-step lifted script rewrites the token graph's rows once."""
    g = cycle_graph(10)
    lifted = lift_script(g, 3, parse_script("ce 0 1\ndv 0"))
    ops = lifted.ops[:50]
    assert {type(op) for op in ops} == {ContractEdge, DeleteVertex}
    tokens = build_token_graph(g, 3).graph
    built = []
    from_adj = Graph._from_adj.__func__

    def counted(cls, adj, m=None):
        built.append(len(adj))
        return from_adj(cls, adj, m)

    monkeypatch.setattr(Graph, "_from_adj", classmethod(counted))
    h = apply_script(tokens, ops)
    assert built == [h.n] == [tokens.n - 50]  # each step removes one vertex


@pytest.mark.parametrize("script", ["dv 0", "ce 0 1"])
def test_apply_and_verify_on_a_long_cycle(script):
    """C_14 with k = 7: 1,716 lifted deletions, or 924 contractions and 792
    deletions, replayed on 3,432 token vertices in one pass."""
    g = cycle_graph(14)
    assert apply_and_verify(g, lift_script(g, 7, parse_script(script)))


def test_lift_on_a_worked_example():
    """Deleting base vertex 3 from K_4 deletes the three pairs holding it."""
    lifted = lift_script(complete_graph(4), 2, (DeleteVertex(3),))
    (step,) = lifted.steps
    assert step.base_op == DeleteVertex(3)
    # pairs {0,3},{1,3},{2,3} are token vertices 3,4,5; dropped top-down
    assert step.ops == (DeleteVertex(5), DeleteVertex(4), DeleteVertex(3))
    assert lifted.ops == step.ops


def test_lift_contract_produces_contractions_then_deletions():
    """Contracting 01 in K_4 matches {0,2}~{1,2} and {0,3}~{1,3}, then drops {0,1}."""
    lifted = lift_script(complete_graph(4), 2, (ContractEdge(0, 1),))
    (step,) = lifted.steps
    # pairs in colex order: {0,1} {0,2} {1,2} {0,3} {1,3} {2,3} are 0..5;
    # merging 1,2 shifts {0,3},{1,3} down to 2,3
    assert step.ops == (ContractEdge(1, 2), ContractEdge(2, 3), DeleteVertex(0))


def test_lift_delete_edge_pins_labels():
    """Deleting edge 12 of C_5 deletes the token edges {x,1}~{x,2} for x = 0, 3, 4."""
    (step,) = lift_script(cycle_graph(5), 2, (DeleteEdge(2, 1),)).steps
    assert step.ops == (DeleteEdge(0, 1), DeleteEdge(4, 5), DeleteEdge(7, 8))


def test_lift_three_step_script_pins_labels():
    """Each step is written against the labels the previous steps left."""
    lifted = lift_script(complete_graph(6), 2, parse_script("dv 5\nce 0 1\nde 0 2"))
    assert [step.ops for step in lifted.steps] == [
        tuple(DeleteVertex(v) for v in (14, 13, 12, 11, 10)),
        (ContractEdge(1, 2), ContractEdge(2, 3), ContractEdge(4, 5), DeleteVertex(0)),
        (DeleteEdge(0, 2), DeleteEdge(3, 5)),
    ]


def test_lifted_script_replays_on_the_token_graph():
    """Applying the lifted ops to F_k(g) lands on F_k of the reduced graph."""
    rng = random.Random(515)
    cases = 0
    while cases < 50:
        n = rng.randint(4, 8)
        k = rng.randint(2, n - 2)
        g = random_graph(rng, n, 0.6)
        if g.m < 3:
            continue
        u, v = g.edges()[rng.randrange(g.m)]
        op = rng.choice(
            (DeleteVertex(rng.randrange(n)), DeleteEdge(u, v), ContractEdge(u, v))
        )
        h = op.apply(g)
        if h.n <= k:
            continue
        cases += 1
        lifted = lift_script(g, k, (op,))
        replayed = apply_script(build_token_graph(g, k).graph, lifted.ops)
        rebuilt = build_token_graph(h, k).graph
        assert replayed == rebuilt


def test_apply_and_verify_random_scripts():
    rng = random.Random(517)
    done = with_contraction = 0
    while done < 40:
        n = rng.randint(4, 8)
        k = rng.randint(2, n - 2)
        g = random_graph(rng, n, 0.6)
        ops = []
        h = g
        for _ in range(3):
            kind = rng.choice("vec")
            if kind == "v" and h.n - 1 > k:
                op = DeleteVertex(rng.randrange(h.n))
            elif h.m > 0:
                u, v = h.edges()[rng.randrange(h.m)]
                op = DeleteEdge(u, v) if kind == "e" or h.n - 1 <= k else ContractEdge(u, v)
            else:
                break
            ops.append(op)
            h = op.apply(h)
        if len(ops) < 3:
            continue
        done += 1
        with_contraction += any(isinstance(o, ContractEdge) for o in ops)
        assert apply_and_verify(g, lift_script(g, k, ops))
        # the contraction identity: each surviving base edge spreads evenly
        assert build_token_graph(h, k).graph.m == comb(h.n - 2, k - 1) * h.m
    assert with_contraction >= 10


def test_apply_and_verify_needs_no_canonical_labelling(monkeypatch):
    """F_4(E_9) is E_126: equal rows decide at once, with no labelling search."""

    def refuse(g):
        raise AssertionError("canonical labelling was reached")

    monkeypatch.setattr("tokengraphs.canon._search", refuse)
    g = empty_graph(9)
    assert apply_and_verify(g, lift_script(g, 4, (DeleteVertex(0),)))


def test_apply_and_verify_rejects_a_mislabelled_lift():
    """A lift that lands on an isomorphic but relabelled graph is wrong.

    In F_2(K_4), {0,2} {1,2} {0,3} {1,3} are 1..4, so `de 0 1` lifts to
    `de 1 2, de 3 4`; `de 1 3, de 2 4` deletes the swaps across edge 23
    instead, which is F_2(K_4 - e) under other labels.
    """
    g, op = complete_graph(4), DeleteEdge(0, 1)
    assert lift_script(g, 2, (op,)).ops == (DeleteEdge(1, 2), DeleteEdge(3, 4))
    wrong = (DeleteEdge(1, 3), DeleteEdge(2, 4))
    replayed = apply_script(build_token_graph(g, 2).graph, wrong)
    rebuilt = build_token_graph(op.apply(g), 2).graph
    assert are_isomorphic(replayed, rebuilt) and replayed != rebuilt
    assert not apply_and_verify(g, LiftedScript(2, (LiftedStep(op, wrong),)))


def test_lift_rejects_bad_k_and_overshrinking():
    g = complete_graph(4)
    with pytest.raises(BadK):
        lift_script(g, 4, (DeleteVertex(0),))
    with pytest.raises(BadK):
        lift_script(g, 0, (DeleteVertex(0),))
    # two deletions leave n = 2 = k: F_k of the result is a point
    with pytest.raises(BadK, match="script shrinks the base to n=2"):
        lift_script(g, 2, (DeleteVertex(0), DeleteVertex(0)))


def _outcome(call):
    """The error `call()` raises, as (class, message), or None if it returns."""
    try:
        call()
    except TokenGraphError as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize(
    "op, fault",
    [
        (DeleteVertex(7), "vertex 7 is out of range for n=4"),
        (DeleteEdge(0, 9), r"edge \(0,9\) is out of range for n=4"),
        (ContractEdge(-1, 2), r"edge \(-1,2\) is out of range for n=4"),
        (ContractEdge(2, 2), r"edge \(2,2\) is a loop"),
        (DeleteEdge(1, 1), r"edge \(1,1\) is a loop"),
        (DeleteEdge(2, 0), r"edge \(0,2\) is not present"),
        (ContractEdge(0, 3), r"edge \(0,3\) cannot be contracted"),
        (("dv", 0), "unknown operation"),
    ],
)
def test_lift_rejects_every_bad_step_as_an_invalid_script(op, fault):
    """On P_4 with k = 2, every kind of step that names no usable vertex, edge or operation.

    `fault` says what is wrong with the step. An operation record fails
    with the editor's error, class and message, exactly as `apply_script`
    fails on it; a step that is no operation record is an InvalidScript
    "unknown operation" of the lift's own, though the editor would apply it.
    """
    g = path_graph(4)
    lifted = _outcome(lambda: lift_script(g, 2, (op,)))
    if isinstance(op, tuple):  # no operation record: no line for `LiftedStep.base_op`
        assert _outcome(lambda: apply_script(g, [op])) is None
        assert lifted == (InvalidScript, f"unknown operation {op!r}")
    else:
        assert lifted is not None and lifted[0] in (NoSuchVertex, NotAnEdge)
        assert lifted == _outcome(lambda: apply_script(g, [op]))


def test_lift_fails_exactly_as_apply_script_does():
    """The lift takes every step check from the editor.

    On seeded random scripts of operation records, with labels that may be
    out of range, equal, absent as an edge or not integers, `lift_script`
    raises if and only if `apply_script` does, with the same class and
    message, apart from the lift's own BadK once a step leaves n <= k.
    """
    rng = random.Random(2028)
    kinds = Counter()
    for _ in range(1500):
        n = rng.randint(3, 7)
        g = random_graph(rng, n, 0.5)
        k = rng.randint(1, n - 1)
        odd = [-1, n, n + 1, 1.0, 0.5, "1"]
        ops = []
        for op in rng.choices((DeleteVertex, DeleteEdge, ContractEdge), k=rng.randint(1, 4)):
            pick = [rng.choice(odd) if rng.random() < 0.1 else rng.randrange(n) for _ in "uv"]
            ops.append(op(*pick[: len(op.__match_args__)]))
        lifted = _outcome(lambda: lift_script(g, k, ops))
        if lifted is not None and lifted[0] is BadK:
            assert lifted[1].startswith("script shrinks the base to n=")
            kinds["BadK"] += 1
            continue
        assert lifted == _outcome(lambda: apply_script(g, ops)), (g.edges(), n, k, ops)
        kinds[lifted and lifted[0].__name__] += 1
    assert min(kinds[name] for name in ("InvalidScript", "NoSuchVertex", "NotAnEdge", None)) >= 50


def test_nonplanarity_certificates_are_sound():
    """Whenever a certificate fires, the built token graph is non-planar."""
    from tokengraphs import is_planar

    rng = random.Random(519)
    fired = 0
    for _ in range(300):
        n = rng.randint(4, 8)
        k = rng.randint(2, n - 2)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        reason = nonplanarity_by_minor(g, k)
        if reason is None:
            continue
        fired += 1
        assert not is_planar(build_token_graph(g, k).graph)
    assert fired >= 100


@pytest.mark.parametrize(
    "g, k, reason",
    [
        (star_graph(7), 2, "max-degree-5"),
        (cycle_graph(5), 2, "cycle-5"),
        (cycle_graph(6), 2, "cycle-5"),
        (Graph(7, [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6)]), 2, "disjoint-p3-k13"),
        (path_graph(7), 3, "p7-inner-k"),
        (path_graph(8), 4, "p7-inner-k"),
        (star_graph(12), 2, "max-degree-5"),
        (path_graph(7), 2, None),
        (cycle_graph(4), 2, None),
        (complete_graph(4), 2, None),
        (path_graph(12), 1, None),  # k outside 2..n-2 never certifies
    ],
)
def test_certificate_selection(g, k, reason):
    assert nonplanarity_by_minor(g, k) == reason


def test_every_large_non_path_tree_is_certified():
    """Every non-path tree on 11..13 vertices carries a lemma of the paper.

    A tree has no cycle, and k = 2 is not interior, so a vertex of degree
    five or a path disjoint from a claw must fire.
    """
    tree_reasons = {"max-degree-5", "disjoint-p3-k13"}
    walked = 0
    for n in range(11, 14):
        for t in _trees(n):
            if t.is_path_graph():
                continue
            walked += 1
            assert nonplanarity_by_minor(t, 2) in tree_reasons, encode_graph6(t)
    assert walked == 234 + 550 + 1300
    # paths never certify
    assert nonplanarity_by_minor(path_graph(14), 2) is None


def test_lemma_patterns_are_planned_once_at_import(monkeypatch):
    def plan_again(pattern):
        raise AssertionError("a lemma pattern was planned again")

    monkeypatch.setattr(tokengraphs.graphs, "_pattern_order", plan_again)
    witnesses = [
        (star_graph(6), 2, "max-degree-5"),
        (cycle_graph(5), 2, "cycle-5"),
        (Graph(7, [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6)]), 2, "disjoint-p3-k13"),
        (path_graph(7), 3, "p7-inner-k"),
    ]
    for g, k, reason in witnesses:
        assert nonplanarity_by_minor(g, k) == reason
    # the residual certificate places the same P_3 plan
    assert residual_degree_obstruction(path_graph(7), 3)
