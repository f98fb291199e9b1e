"""One benchmark job, run by run.py in a fresh interpreter.

    python3 perfbench/job.py '{"job": "census-k2", "seed": 1, "t0": <monotonic>, "trace": false}'

A fresh interpreter per job keeps every search cold: the package's
module-level caches (the graph-class levels of `search`, the minor memo of
`planarity`) never carry over from one job to the next. `t0` is the
CLOCK_MONOTONIC reading taken by run.py just before it started this
interpreter, so `setup_s` covers interpreter start, the package import and
input generation.

The job times every operation (one search or one verdict case)
together with the check of its answer, and prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"


def _import_package():
    sys.path.insert(0, str(SRC))
    import tokengraphs

    where = Path(tokengraphs.__file__).resolve().parent
    if where != SRC / "tokengraphs":
        raise SystemExit(f"imported tokengraphs from {where}, not from {SRC}")
    return tokengraphs


def _golden(name: str, n_max: int) -> list[str]:
    lines = (GOLDEN / name).read_text(encoding="ascii").split()
    return sorted(s for s in lines if ord(s[0]) - 63 <= n_max)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# searches (census and verbatim)

SEARCHES = {
    # job: (k, n_min, n_max, prune, golden file or None for "no maximal graph")
    "census-k2": (2, 5, 10, True, "maximal_k2.g6"),
    "census-k3": (3, 6, 8, True, "maximal_k3.g6"),
    "census-k4": (4, 8, 10, True, None),
    "verbatim-k2": (2, 5, 9, False, "maximal_k2.g6"),
    "verbatim-k3": (3, 6, 8, False, "maximal_k3.g6"),
}


def search_answer(report_json: dict) -> dict:
    """The part of a search report that must not change: all but the timing."""
    return {key: value for key, value in report_json.items() if key != "elapsed_secs"}


def search_problems(answer: dict, k, n_min, n_max, prune, expected) -> list[str]:
    problems = []
    if answer["partial"]:
        problems.append("report is partial")
    if answer["mode"] != ("pruned" if prune else "verbatim"):
        problems.append(f"mode {answer['mode']}")
    if answer["maximal"] != expected:
        problems.append(f"maximal {answer['maximal']} != {expected}")
    for n in range(n_min, n_max + 1):
        levels = [e for e in answer["entries"] if e["n"] == n]
        if not levels or levels[-1]["survivors"] != 0:
            problems.append(f"n={n}: last level has survivors")
        elif answer["stopped_at"].get(str(n)) != levels[-1]["m"]:
            problems.append(f"n={n}: stopped_at disagrees with the last level")
    return problems


def run_search(tg, job):
    k, n_min, n_max, prune, golden = SEARCHES[job]
    expected = _golden(golden, n_max) if golden else []

    def run():
        start = time.perf_counter()
        try:
            report = tg.edge_maximal_search(k, range(n_min, n_max + 1), prune=prune)
            answer = search_answer(report.to_json())
            problems = search_problems(answer, k, n_min, n_max, prune, expected)
        except tg.TokenGraphError as exc:
            answer, problems = None, [f"{type(exc).__name__}: {exc}"]
        op_s = time.perf_counter() - start
        counts = {}
        if answer is not None:
            counts = {
                "search.candidates": sum(e["generated"] for e in answer["entries"]),
                "search.survivors": sum(e["survivors"] for e in answer["entries"]),
            }
        return {
            "op_s": [op_s],
            "failed": int(bool(problems)),
            "problems": problems,
            "answer": answer,
            "digest": _digest(answer),
            "counts": counts,
        }

    return run


# ---------------------------------------------------------------------------
# verdicts: random connected bases, every k with C(n, k) <= 10^4

VERDICT_ORDERS = range(9, 13)
# Edge counts are fixed per order as fractions of the way from a tree to the
# complete graph, so the sizes of the token graphs (and most of the cost) do
# not depend on the seed; the seed picks which graphs have those sizes.
VERDICT_FILL = (0.0, 0.03, 0.06, 0.1, 0.15, 0.22, 0.3, 0.45, 0.6)
VERDICT_REPEATS = 4
VERDICT_MAX_TOKEN_VERTICES = 10**4


def random_connected(tg, rng: random.Random, n: int, m: int):
    """A random tree on n vertices plus random extra edges up to m, relabelled."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    free = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    edges.update(rng.sample(free, m - (n - 1)))
    perm = list(range(n))
    rng.shuffle(perm)
    return tg.Graph(n, [(perm[u], perm[v]) for u, v in edges])


def verdict_cases(tg, seed: int):
    rng = random.Random(seed)
    cases = []
    for n in VERDICT_ORDERS:
        tree, full = n - 1, n * (n - 1) // 2
        # a relabelled path too: random bases almost always carry a structural
        # certificate, and only paths reach the characterization (n > 10) or
        # the build inside classify_planarity (n <= 10)
        perm = list(range(n))
        rng.shuffle(perm)
        bases = [tg.Graph(n, [(perm[v - 1], perm[v]) for v in range(1, n)])]
        for fill in VERDICT_FILL:
            m = tree + round(fill * (full - tree))
            bases.extend(random_connected(tg, rng, n, m) for _ in range(VERDICT_REPEATS))
        for g in bases:
            cases.extend(
                (g, k)
                for k in range(2, n - 1)
                if comb(n, k) <= VERDICT_MAX_TOKEN_VERTICES
            )
    rng.shuffle(cases)
    return cases


def run_verdicts(tg, seed):
    cases = verdict_cases(tg, seed)

    def run():
        op_s, problems, answers = [], [], []
        failed = 0
        clock = time.perf_counter
        for g, k in cases:
            start = clock()
            try:
                structural = tg.classify_planarity(g, k)
                regularity = tg.classify_regularity(g, k)
                built = tg.build_token_graph(g, k).graph
                computed = tg.is_planar(built)
                one_degree = len(set(built.degrees())) == 1
                wrong = []
                if structural.planar != computed.planar:
                    wrong.append(f"planar {structural.planar} ({structural.method}) != computed {computed.planar}")
                if regularity.regular != one_degree:
                    wrong.append(f"regular {regularity.regular} != one degree {one_degree}")
                answer = [structural.planar, structural.method, structural.reason,
                          computed.planar, computed.method, regularity.regular]
            except tg.TokenGraphError as exc:
                wrong, answer = [f"{type(exc).__name__}: {exc}"], None
            op_s.append(clock() - start)
            answers.append(answer)
            if wrong:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{tg.encode_graph6(g)} k={k}: " + "; ".join(wrong))
        return {
            "op_s": op_s,
            "failed": failed,
            "problems": problems,
            "digest": _digest(answers),
            "counts": {},
        }

    return run


# ---------------------------------------------------------------------------


def prepare(tg, job: str, seed: int):
    if job in SEARCHES:
        return run_search(tg, job)
    if job == "verdicts":
        return run_verdicts(tg, seed)
    raise SystemExit(f"unknown job {job!r}")


def main() -> None:
    spec = json.loads(sys.argv[1])
    tg = _import_package()
    run = prepare(tg, spec["job"], spec["seed"])
    setup_s = time.monotonic() - spec["t0"]
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    result = run()
    result["wall_s"] = time.perf_counter() - start
    result["setup_s"] = setup_s
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = tracer.layer_counts()
        result["call_edges"] = tracer.call_edges()
        tracer.uninstall()
        result["layers"]["tokens.peak_bytes"] = tracer.peak_build_bytes()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
