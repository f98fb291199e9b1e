"""Per-layer tracing for the benchmark, applied from outside the package.

`Tracer.install()` replaces every binding of each public function or method
named in `LAYERS` with a timing wrapper. The modules import each other by
name, so a function can be bound in several `tokengraphs.*` namespaces; all
of them are rebound, and a name that no longer exists raises `TraceError`
instead of reporting a silent zero.

Each call is a span (name, start, end, parent). Spans are folded into
per-function totals as they close rather than kept: a census makes close to
a million calls into `subsets`. A span's self time is its duration minus the
durations of the spans it directly encloses; a layer's self time is the sum
over its functions. Hooks read the results of a few calls (verdict methods,
token-graph sizes, canonical strings) to count outcomes where they happen.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

# layer -> public functions ("name") and methods ("Class.name") it owns.
# `graphs` is left out on purpose: its methods run millions of times per
# workload, so a wrapper there would mostly time itself. `cli` runs in its
# own process and is timed from outside by run.py.
LAYERS = {
    "search": ("edge_maximal_search", "graph_classes", "verify_maximality"),
    "canon": (
        "canonical_graph6",
        "canonical_data",
        "canonical_form",
        "canonical_graph",
        "are_isomorphic",
    ),
    "tokens": (
        "build_token_graph",
        "token_degree",
        "johnson",
        "johnson_complement",
        "complement_isomorphism_check",
    ),
    "subsets": (
        "SubsetCodec.rank",
        "SubsetCodec.rank_mask",
        "SubsetCodec.unrank",
        "SubsetCodec.unrank_mask",
    ),
    "planarity": ("is_planar", "planarity_oracle"),
    "classify": (
        "classify_planarity",
        "classify_regularity",
        "residual_degree_obstruction",
        "uniform_substitution_degree",
        "partition_uv",
    ),
    "minors": (
        "nonplanarity_by_minor",
        "lift_script",
        "apply_script",
        "apply_and_verify",
        "parse_script",
        "format_script",
    ),
    "graph6": ("encode_graph6", "decode_graph6"),
}

PACKAGE = "tokengraphs"


class TraceError(RuntimeError):
    """A wrapped name is missing or could not be rebound everywhere."""


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # "layer.name" -> [calls, self_s]
        self.edges: Counter = Counter()  # (parent span name, span name) -> calls
        self.originals: dict[str, object] = {}
        self.outcomes: Counter = Counter()
        self.canon_strings: set[str] = set()
        self.largest_builds: dict[str, tuple] = {}  # "V"/"E" -> (size, g, k)
        self._stack: list[list] = []
        self._bindings: list[tuple] = []  # (namespace or class, name, original)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        count = self.outcomes.update
        hooks = {
            "canon.canonical_graph6": self.canon_strings.add,
            "canon.canonical_data": lambda r: self.canon_strings.add(r[0]),
            "canon.canonical_form": lambda r: self.canon_strings.add(r.graph6),
            "tokens.build_token_graph": self._on_build,
            "planarity.is_planar": lambda r: count(["planarity." + r.method]),
            "classify.classify_planarity": lambda r: count(["classify." + r.method]),
            "minors.nonplanarity_by_minor": lambda r: count(
                ["minors.hit" if r is not None else "minors.miss"]
            ),
        }
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError as exc:
                raise TraceError(f"layer module {PACKAGE}.{layer} is gone: {exc}") from exc
            for qualname in names:
                key = f"{layer}.{qualname.rpartition('.')[2]}"
                self._install_one(module, layer, qualname, key, hooks.get(key))
        self._check_rebound()

    def _install_one(self, module, layer, qualname, key, hook) -> None:
        owner_name, _, attr = qualname.rpartition(".")
        owner = module
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not inspect.isclass(owner):
                raise TraceError(f"{PACKAGE}.{layer}.{owner_name} no longer exists")
            fn = owner.__dict__.get(attr)
        else:
            fn = module.__dict__.get(attr)
        if not inspect.isfunction(fn):
            raise TraceError(f"{PACKAGE}.{layer}.{qualname} no longer exists as a function")
        if inspect.isgeneratorfunction(fn):
            raise TraceError(f"{PACKAGE}.{layer}.{qualname} became a generator; a span would miss its work")
        wrapper = self._wrap(key, fn, hook)
        self.originals[key] = fn
        if owner_name:
            self._rebind(owner, attr, fn, wrapper)
            return
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._rebind(mod, name, fn, wrapper)

    def _rebind(self, target, name, fn, wrapper) -> None:
        setattr(target, name, wrapper)
        self._bindings.append((target, name, fn))

    def uninstall(self) -> None:
        for target, name, fn in reversed(self._bindings):
            setattr(target, name, fn)
        self._bindings.clear()

    def _check_rebound(self) -> None:
        originals = {id(fn): key for key, fn in self.originals.items()}
        for mod in _package_modules():
            for name, value in vars(mod).items():
                if id(value) in originals:
                    raise TraceError(f"{mod.__name__}.{name} still binds the unwrapped {originals[id(value)]}")

    def _wrap(self, key, fn, hook):
        stat = self.stats[key] = [0, 0.0]
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, key]
            edges[(stack[-1][1] if stack else None, key)] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += span - frame[0]
                if stack:
                    stack[-1][0] += span
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _on_build(self, tg) -> None:
        v, e = tg.graph.n, tg.graph.m
        self.outcomes["tokens.vertices"] += v
        self.outcomes["tokens.edges"] += e
        for label, size in (("V", v), ("E", e)):
            if size > self.largest_builds.get(label, (-1,))[0]:
                self.largest_builds[label] = (size, tg.base, tg.k)

    # -- results ----------------------------------------------------------

    def peak_build_bytes(self) -> int:
        """Peak bytes allocated by the largest builds seen, rebuilt under tracemalloc.

        tracemalloc slows a build several times over, so it runs only here,
        after the traced pass and after `uninstall()`.
        """
        import tracemalloc

        build = self.originals["tokens.build_token_graph"]
        peak = 0
        builds = {(id(g), k): (g, k) for _, g, k in self.largest_builds.values()}
        for g, k in builds.values():
            tracemalloc.start()
            try:
                tg = build(g, k)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                del tg
            finally:
                tracemalloc.stop()
        return peak

    def layer_counts(self) -> dict:
        """Raw per-layer sums; run.py adds them over jobs and forms the ratios."""
        out: Counter = Counter()
        for key, (calls, self_s) in self.stats.items():
            layer = key.partition(".")[0]
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += self_s
            out[f"fn.{key}"] += calls
        out.update(self.outcomes)
        out["canon.distinct"] = len(self.canon_strings)
        return dict(out)

    def call_edges(self) -> list:
        return [
            [parent, child, calls]
            for (parent, child), calls in sorted(self.edges.items(), key=lambda kv: -kv[1])
        ]
