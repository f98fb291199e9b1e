"""The tokengraphs benchmark: seeded workloads, answer checks, and a traced run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it needs `src/tokengraphs` and
`tests/golden`, and builds nothing (the package is pure Python).

A run repeats passes over the workload while the next one would still end
within `--seconds` (at least two passes, or one traced pair). A pass
starts every job of the workload in its own fresh interpreter (job.py), one
at a time, so every search starts cold; `census` also runs `tokens search`
as a subprocess. With `--trace 0` the run reports the end-to-end metrics,
medians over its passes. With `--trace 1` it alternates untraced and traced
passes, checks that both give identical answers, and reports the per-layer
metrics of the traced passes and the tracing overhead.

The last line of standard output is the result JSON; the line before it
holds the full report (machine, passes, call graph).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from job import search_answer
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_ROUNDS = {False: 2, True: 1}  # untraced passes / (untraced, traced) pairs

WORKLOADS = {
    "census": ("census-k2", "census-k3", "census-k4", "cli"),
    "verbatim": ("verbatim-k2", "verbatim-k3"),
    "verdicts": ("verdicts",),
}
CLI_ARGS = ("search", "-k", "3", "--n-min", "6", "--n-max", "8", "--jobs", "2")
CLI_SAME_AS = "census-k3"  # the in-process search the CLI report must equal

class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# machine record


def _first_line_value(path: str, key: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _first_line_value("/proc/cpuinfo", "model name"),
        "mem_total": _first_line_value("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# passes


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TOKENS_BUDGET_SECS", None)  # every search runs to completion
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _timeout(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run passed its {RUN_LIMIT_S} s limit")
    return left


def run_job(job: str, seed: int, trace: bool, deadline: float) -> dict:
    t0 = time.monotonic()
    spec = json.dumps({"job": job, "seed": seed, "t0": t0, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(JOB), spec],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=_timeout(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"job {job} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"job {job} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(deadline: float) -> dict:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tokengraphs.cli", *CLI_ARGS],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=_timeout(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the CLI search ran out of time") from exc
    wall = time.perf_counter() - start
    answer, problems = None, []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    else:
        try:
            report = json.loads(proc.stdout)
            answer = search_answer(report)
        except ValueError:
            problems.append("the CLI printed no JSON report")
    return {"op_s": [wall], "wall_s": wall, "answer": answer, "problems": problems}


def run_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    results = {}
    for job in WORKLOADS[workload]:
        results[job] = run_cli(deadline) if job == "cli" else run_job(job, seed, trace, deadline)
    if "cli" in results:
        cli = results["cli"]
        if not cli["problems"] and cli["answer"] != results[CLI_SAME_AS]["answer"]:
            cli["problems"].append(f"the CLI report differs from the in-process {CLI_SAME_AS} report")
        cli["failed"] = int(bool(cli["problems"]))
    in_process = [r for job, r in results.items() if job != "cli"]
    return {
        "trace": trace,
        "jobs": results,
        "wall_s": sum(r["wall_s"] for r in results.values()),
        "op_s": [t for r in results.values() for t in r["op_s"]],
        "failed": sum(r["failed"] for r in results.values()),
        "setup_s": [r["setup_s"] for r in in_process],
        "rss_kb": max(r["rss_kb"] for r in in_process),
        "problems": [f"{job}: {p}" for job, r in results.items() for p in r["problems"]],
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list) -> dict:
    """Medians over passes. Operation percentiles are taken within each pass:
    pooled over passes, the median of a few unlike searches would depend on
    how many passes fit in the run."""
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)

    def median(per_pass):
        return statistics.median(per_pass(p) for p in passes)

    return {
        "wall_s": (median(lambda p: p["wall_s"]), "s"),
        "setup_s": (statistics.median(t for p in passes for t in p["setup_s"]), "s"),
        "peak_rss_mb": (median(lambda p: p["rss_kb"]) / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "cases_per_s": (median(lambda p: len(p["op_s"]) / p["wall_s"]), "1/s"),
        "case_p50_ms": (median(lambda p: statistics.median(p["op_s"])) * 1e3, "ms"),
        "case_p99_ms": (
            median(lambda p: statistics.quantiles(p["op_s"], n=100, method="inclusive")[98]) * 1e3,
            "ms",
        ),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    sums: dict = {}
    peak = 0
    for job, r in traced["jobs"].items():
        for key, value in {**r.get("layers", {}), **r.get("counts", {})}.items():
            if key == "tokens.peak_bytes":
                peak = max(peak, value)
            else:
                sums[key] = sums.get(key, 0) + value

    def get(key):
        return sums.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (get(f"{layer}.calls"), "count")
        out[f"{layer}.self_s"] = (get(f"{layer}.self_s"), "s")
    out.update({
        "canon.data_calls": (get("fn.canon.canonical_data"), "count"),
        "canon.distinct_ratio": (ratio(get("canon.distinct"), get("canon.calls")), "ratio"),
        "search.candidates": (get("search.candidates"), "count"),
        "search.survivors": (get("search.survivors"), "count"),
        "tokens.builds": (get("fn.tokens.build_token_graph"), "count"),
        "tokens.vertices": (get("tokens.vertices"), "count"),
        "tokens.edges": (get("tokens.edges"), "count"),
        "tokens.peak_bytes": (peak, "bytes"),
        "subsets.unrank_calls": (get("fn.subsets.unrank") + get("fn.subsets.unrank_mask"), "count"),
        "planarity.euler_rejects": (get("planarity.euler-bound"), "count"),
        "planarity.lr_runs": (get("planarity.left-right"), "count"),
        "planarity.component_splits": (get("planarity.component-split"), "count"),
        "classify.decided_without_build": (
            ratio(get("classify.structural") + get("classify.characterization"),
                  get("fn.classify.classify_planarity")),
            "ratio",
        ),
        "minors.hit_ratio": (ratio(get("minors.hit"), get("fn.minors.nonplanarity_by_minor")), "ratio"),
    })
    cli = traced["jobs"].get("cli")
    out["cli.calls"] = (1 if cli else 0, "count")
    out["cli.search_s"] = (cli["wall_s"] if cli else 0.0, "s")
    out["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    return out


def _medians(samples: list) -> dict:
    return {
        name: (statistics.median(s[name][0] for s in samples), samples[0][name][1])
        for name in samples[0]
    }


# ---------------------------------------------------------------------------


def check_checkout() -> None:
    needed = [ROOT / "src" / "tokengraphs" / "__init__.py"]
    needed += [ROOT / "tests" / "golden" / f"maximal_k{k}.g6" for k in (2, 3)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError("not a tokengraphs checkout; missing " + ", ".join(missing))


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    check_checkout()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes, layer_samples, mismatches = [], [], []
    rounds = 0
    while True:
        plain = run_pass(workload, seed, False, deadline)
        passes.append(plain)
        if trace:
            traced = run_pass(workload, seed, True, deadline)
            passes.append(traced)
            for job, r in traced["jobs"].items():
                if r.get("digest") != plain["jobs"][job].get("digest"):
                    mismatches.append(f"{job}: traced and untraced answers differ")
            layer_samples.append(per_layer(plain, traced))
        rounds += 1
        elapsed = time.monotonic() - start
        # stop before a round that would end past --seconds
        if rounds >= MIN_ROUNDS[trace] and elapsed + elapsed / rounds > seconds:
            break
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes) + len(mismatches)
    metrics = _medians(layer_samples) if trace else end_to_end(passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "problems": [p for ps in passes for p in ps["problems"]][:20] + mismatches,
        "passes": [
            {
                "trace": p["trace"],
                "wall_s": p["wall_s"],
                "ops": len(p["op_s"]),
                "failed": p["failed"],
                "setup_s": p["setup_s"],
                "rss_kb": p["rss_kb"],
                "jobs": {job: round(r["wall_s"], 4) for job, r in p["jobs"].items()},
            }
            for p in passes
        ],
    }
    if trace:
        report["call_edges"] = {
            job: r["call_edges"][:40]
            for job, r in passes[-1]["jobs"].items()
            if "call_edges" in r
        }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
