"""End-to-end acceptance checks.

Every test here covers one release criterion, prints a single
``[acceptance] criterion N: PASS|FAIL`` line (bypassing pytest capture so the
lines show up in plain runs), and enforces the criterion's wall-clock budget.
"""

import random
import time
from functools import lru_cache
from math import comb

from tokengraphs import (
    ContractEdge,
    DeleteEdge,
    DeleteVertex,
    apply_and_verify,
    build_token_graph,
    canonical_graph6,
    classify_planarity,
    classify_regularity,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    decode_graph6,
    edge_maximal_search,
    empty_graph,
    encode_graph6,
    graph_classes,
    is_planar,
    johnson_complement,
    lift_script,
    octahedron_graph,
    path_graph,
    planarity_oracle,
    star_graph,
    verify_maximality,
)
from tokengraphs.canon import are_isomorphic
from util import random_connected_graph, random_graph


def _report(capsys, num, label, problems, elapsed, budget):
    ok = not problems and elapsed < budget
    line = f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    line += f"  ({label}, {elapsed:.2f}s / {budget:.0f}s)"
    with capsys.disabled():
        print(line)
    assert not problems, f"criterion {num}: " + "; ".join(problems[:5])
    assert elapsed < budget, f"criterion {num}: {elapsed:.1f}s over budget"


@lru_cache(maxsize=1)
def _small_classes():
    """Every isomorphism class on 4..7 vertices, with its vertex count."""
    out = []
    for n in range(4, 8):
        for m in range(0, n * (n - 1) // 2 + 1):
            out.extend((n, g) for g in graph_classes(n, m))
    return tuple(out)


def test_criterion_1_octahedron(capsys):
    t0 = time.perf_counter()
    problems = []
    g = build_token_graph(complete_graph(4), 2).graph
    if (g.n, g.m) != (6, 12):
        problems.append(f"got {g.n} vertices / {g.m} edges")
    if g.degree_multiset() != (4,) * 6:
        problems.append("not 4-regular")
    if not is_planar(g).planar:
        problems.append("not planar")
    if not are_isomorphic(g, octahedron_graph()):
        problems.append("not the octahedron")
    _report(capsys, 1, "two tokens on K_4", problems, time.perf_counter() - t0, 1.0)


def test_criterion_2_five_cycle(capsys):
    t0 = time.perf_counter()
    problems = []
    base = cycle_graph(5)
    g = build_token_graph(base, 2).graph
    if (g.n, g.m) != (10, 15):
        problems.append(f"got {g.n} vertices / {g.m} edges")
    if g.m != comb(base.n - 2, 1) * base.m:
        problems.append("edge-count identity broken")
    if sorted(g.degree_multiset()) != [2] * 5 + [4] * 5:
        problems.append(f"degree multiset {g.degree_multiset()}")
    if is_planar(g).planar:
        problems.append("claimed planar")
    _report(capsys, 2, "two tokens on C_5", problems, time.perf_counter() - t0, 1.0)


def test_criterion_3_star_obstructions(capsys):
    t0 = time.perf_counter()
    problems = []
    star = star_graph(6)  # hub plus five leaves
    for k in (2, 3):
        if is_planar(build_token_graph(star, k).graph).planar:
            problems.append(f"k={k} claimed planar")
    _report(capsys, 3, "tokens on K_{1,5}", problems, time.perf_counter() - t0, 1.0)


def test_criterion_4_paths(capsys):
    t0 = time.perf_counter()
    problems = []
    for n in range(4, 13):
        if not is_planar(build_token_graph(path_graph(n), 2).graph).planar:
            problems.append(f"2 tokens on P_{n} claimed non-planar")
    if is_planar(build_token_graph(path_graph(7), 3).graph).planar:
        problems.append("3 tokens on P_7 claimed planar")
    _report(capsys, 4, "paths", problems, time.perf_counter() - t0, 5.0)


def test_criterion_5_regularity_classification(capsys):
    t0 = time.perf_counter()
    problems = []
    found = set()
    for n, g in _small_classes():
        for k in range(2, n - 1):
            verdict = classify_regularity(g, k)
            brute = len(set(build_token_graph(g, k).graph.degree_multiset())) == 1
            if verdict.regular != brute:
                problems.append(f"n={n} k={k} {encode_graph6(g)}")
            if verdict.regular:
                found.add((n, k, canonical_graph6(g)))
    expected = set()
    for n in range(4, 8):
        for k in range(2, n - 1):
            expected.add((n, k, canonical_graph6(complete_graph(n))))
            expected.add((n, k, canonical_graph6(empty_graph(n))))
            if n % 2 == 0 and k == n // 2:
                expected.add((n, k, canonical_graph6(star_graph(n))))
                expected.add((n, k, canonical_graph6(star_graph(n).complement())))
    if found != expected:
        problems.append(f"regular set mismatch: {found ^ expected}")
    _report(capsys, 5, "regularity, exhaustive n<=7", problems,
            time.perf_counter() - t0, 120.0)


def test_criterion_6_complement_identity(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.random())
        for k in range(1, n):
            lhs = build_token_graph(g.complement(), k).graph
            rhs = johnson_complement(build_token_graph(g, k)).graph
            if lhs != rhs:
                problems.append(f"{encode_graph6(g)} k={k}")
    for n, g in _small_classes():
        gc = g.complement()
        for k in range(2, n - 1):
            if classify_regularity(g, k).regular != classify_regularity(gc, k).regular:
                problems.append(f"regularity flips: {encode_graph6(g)} k={k}")
    _report(capsys, 6, "complement identity", problems,
            time.perf_counter() - t0, 60.0)


def test_criterion_7_script_lifting(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(707)
    done = with_contraction = 0
    while done < 300:
        n = rng.randint(4, 8)
        k = rng.randint(2, n - 2)
        g = random_graph(rng, n, 0.6)
        ops, h = [], g
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
        lifted = lift_script(g, k, ops)
        if not apply_and_verify(g, lifted):
            problems.append(f"{encode_graph6(g)} k={k} {ops}")
        cur = g
        for step in lifted.steps:
            if isinstance(step.base_op, ContractEdge):
                fanout = sum(isinstance(o, ContractEdge) for o in step.ops)
                if fanout != comb(cur.n - 2, k - 1):
                    problems.append(f"fanout {fanout} at n'={cur.n} k={k}")
            cur = step.base_op.apply(cur)
    if with_contraction < 100:
        problems.append(f"only {with_contraction} scripts with a contraction")
    _report(capsys, 7, "300 lifted scripts", problems,
            time.perf_counter() - t0, 120.0)


def test_criterion_8_search_two_tokens(capsys):
    t0 = time.perf_counter()
    problems = []
    report = edge_maximal_search(2, range(5, 11))
    if report.partial:
        problems.append("run flagged partial")
    if len(report.maximal) != 13:
        problems.append(f"found {len(report.maximal)} maximal graphs")
    for text in report.maximal:
        if not verify_maximality(decode_graph6(text), 2):
            problems.append(f"{text} fails independent maximality check")
    _report(capsys, 8, "k=2 search, n=5..10", problems,
            time.perf_counter() - t0, 1800.0)


def test_criterion_9_search_three_tokens(capsys):
    t0 = time.perf_counter()
    problems = []
    report = edge_maximal_search(3, range(6, 9))
    orders = sorted(decode_graph6(s).n for s in report.maximal)
    if len(report.maximal) != 2 or orders != [6, 6]:
        problems.append(f"maximal={report.maximal}")
    for n in (7, 8):
        levels = [e for e in report.entries if e.n == n]
        if not levels or levels[-1].survivors != 0:
            problems.append(f"n={n} frontier did not die")
    _report(capsys, 9, "k=3 search, n=6..8", problems,
            time.perf_counter() - t0, 300.0)


def test_criterion_10_search_four_tokens(capsys):
    t0 = time.perf_counter()
    problems = []
    report = edge_maximal_search(4, range(8, 11))
    if report.maximal:
        problems.append(f"unexpected maximal graphs {report.maximal}")
    for n in (8, 9, 10):
        levels = [e for e in report.entries if e.n == n]
        if not levels or levels[-1].survivors != 0:
            problems.append(f"n={n} frontier did not die")
    _report(capsys, 10, "k=4 search, n=8..10", problems,
            time.perf_counter() - t0, 600.0)


def test_criterion_11_planarity_engine(capsys):
    t0 = time.perf_counter()
    problems = []
    for n in range(1, 9):
        for m in range(max(0, n - 1), n * (n - 1) // 2 + 1):
            for g in connected_graphs(n, m):
                if is_planar(g).planar != planarity_oracle(g):
                    problems.append(f"connected {encode_graph6(g)}")
    rng = random.Random(1111)
    for _ in range(10_000):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        if is_planar(g).planar != planarity_oracle(g):
            problems.append(f"random {encode_graph6(g)}")
    if is_planar(complete_graph(5)).planar:
        problems.append("K_5 accepted")
    if is_planar(complete_bipartite_graph(3, 3)).planar:
        problems.append("K_{3,3} accepted")
    _report(capsys, 11, "planarity vs minor oracle", problems,
            time.perf_counter() - t0, 600.0)


def test_criterion_12_structural_verdicts(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(1212)
    checked = 0
    for n in (11, 12):
        for _ in range(500):
            g = random_connected_graph(rng, n, rng.random())
            for k in range(2, n - 1):
                if comb(n, k) > 10_000:
                    continue
                checked += 1
                structural = classify_planarity(g, k).planar
                direct = is_planar(build_token_graph(g, k).graph).planar
                if structural != direct:
                    problems.append(f"{encode_graph6(g)} k={k}")
    if not checked:
        problems.append("no cases checked")
    _report(capsys, 12, "structural verdicts, n=11..12", problems,
            time.perf_counter() - t0, 600.0)
