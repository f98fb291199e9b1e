"""Minor operations on base graphs and their lifts to token graphs.

A script is a sequence of vertex deletions, edge deletions, and edge
contractions, each written against the labels that are current when it runs
(deletions and contractions compact labels). `lift_script` translates a base
script into a token-graph script: deleting base vertex a deletes every token
vertex whose subset contains a, deleting base edge ab deletes the matching
token edges, and contracting ab contracts the perfect matching between the
a-side and b-side tokens and then deletes the tokens containing both ends,
which would have no counterpart afterwards. `apply_and_verify` checks the
round trip: lifting then applying lands on a graph isomorphic to the token
graph of the edited base.

`nonplanarity_by_minor` collects the paper's lemmas that force a non-planar
token graph without building it (a vertex of degree five, a long cycle, a
path plus a disjoint claw, or a long path when k is interior).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canon import are_isomorphic
from .errors import BadK, InvalidScript
from .graphs import (
    Graph,
    _drop_bit,
    _mask,
    has_cycle_of_length_at_least,
    has_subgraph,
    contains_disjoint,
    normalize_edge,
    path_graph,
    star_graph,
)
from .subsets import SubsetCodec
from .tokens import build_token_graph


@dataclass(frozen=True)
class DeleteVertex:
    v: int

    def apply(self, g: Graph) -> Graph:
        return g.delete_vertex(self.v)

    def format(self) -> str:
        return f"dv {self.v}"


@dataclass(frozen=True)
class DeleteEdge:
    u: int
    v: int

    def apply(self, g: Graph) -> Graph:
        return g.delete_edge(self.u, self.v)

    def format(self) -> str:
        return f"de {self.u} {self.v}"


@dataclass(frozen=True)
class ContractEdge:
    u: int
    v: int

    def apply(self, g: Graph) -> Graph:
        return g.contract_edge(self.u, self.v)

    def format(self) -> str:
        return f"ce {self.u} {self.v}"


Operation = DeleteVertex | DeleteEdge | ContractEdge


def parse_script(text: str) -> tuple:
    """Parse one operation per line: "dv V", "de U V", or "ce U V".

    Blank lines and lines starting with '#' are skipped.
    """
    ops = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0].lower()
        args = []
        for p in parts[1:]:
            try:
                args.append(int(p))
            except ValueError:
                raise InvalidScript(
                    f"line {lineno}: {p!r} is not a vertex label"
                ) from None
        if kind == "dv" and len(args) == 1:
            ops.append(DeleteVertex(args[0]))
        elif kind == "de" and len(args) == 2:
            ops.append(DeleteEdge(args[0], args[1]))
        elif kind == "ce" and len(args) == 2:
            ops.append(ContractEdge(args[0], args[1]))
        else:
            raise InvalidScript(f"line {lineno}: unrecognized operation {line!r}")
    return tuple(ops)


def format_script(ops) -> str:
    return "\n".join(op.format() for op in ops)


def apply_script(g: Graph, ops) -> Graph:
    for op in ops:
        g = op.apply(g)
    return g


@dataclass(frozen=True)
class LiftedStep:
    """The token-graph operations produced by one base-graph operation."""

    base_op: Operation
    ops: tuple


@dataclass(frozen=True)
class LiftedScript:
    k: int
    steps: tuple[LiftedStep, ...]

    @property
    def ops(self) -> tuple:
        out = []
        for step in self.steps:
            out.extend(step.ops)
        return tuple(out)


class _LabelTracker:
    """Current token-graph label of every live subset (keyed by base mask)."""

    def __init__(self, n: int, k: int):
        self.labels: dict[int, int] = {
            mask: r for r, mask in enumerate(SubsetCodec(n, k).masks())
        }

    def delete(self, mask: int, out: list) -> None:
        lbl = self.labels.pop(mask)
        out.append(DeleteVertex(lbl))
        for key, other in self.labels.items():
            if other > lbl:
                self.labels[key] = other - 1

    def contract(self, keep_mask: int, drop_mask: int, out: list) -> None:
        c1 = self.labels[keep_mask]
        c2 = self.labels.pop(drop_mask)
        out.append(ContractEdge(c1, c2))
        hi = max(c1, c2)
        self.labels[keep_mask] = min(c1, c2)
        for key, other in self.labels.items():
            if other > hi:
                self.labels[key] = other - 1

    def doomed(self, bit_filter: int) -> list[int]:
        """Masks containing all bits of `bit_filter`, highest label first."""
        hits = [m for m in self.labels if m & bit_filter == bit_filter]
        hits.sort(key=lambda m: self.labels[m], reverse=True)
        return hits

    def rekey_without(self, v: int) -> None:
        self.labels = {_drop_bit(m, v): lbl for m, lbl in self.labels.items()}


def lift_script(g: Graph, k: int, ops) -> LiftedScript:
    """Translate a base-graph script into an equivalent token-graph script."""
    if not 1 <= k < g.n:
        raise BadK(f"k={k} is outside 1..n-1 for n={g.n}")
    tracker = _LabelTracker(g.n, k)
    bg = g
    steps = []
    for op in ops:
        emitted: list = []
        if isinstance(op, DeleteVertex):
            a = op.v
            if not 0 <= a < bg.n:
                raise InvalidScript(f"vertex {a} is out of range for n={bg.n}")
            for mask in tracker.doomed(1 << a):
                tracker.delete(mask, emitted)
            tracker.rekey_without(a)
            bg = bg.delete_vertex(a)
        elif isinstance(op, DeleteEdge):
            a, b = normalize_edge(op.u, op.v)
            if not bg.has_edge(a, b):
                raise InvalidScript(f"edge ({a},{b}) is not present")
            others = [v for v in range(bg.n) if v not in (a, b)]
            pairs = []
            for rest in combinations(others, k - 1):
                base = _mask(rest)
                la = tracker.labels[base | (1 << a)]
                lb = tracker.labels[base | (1 << b)]
                pairs.append((min(la, lb), max(la, lb)))
            for lo, hi in sorted(pairs):
                emitted.append(DeleteEdge(lo, hi))
            bg = bg.delete_edge(a, b)
        elif isinstance(op, ContractEdge):
            a, b = normalize_edge(op.u, op.v)
            if not bg.has_edge(a, b):
                raise InvalidScript(f"edge ({a},{b}) cannot be contracted")
            others = [v for v in range(bg.n) if v not in (a, b)]
            matching = []
            for rest in combinations(others, k - 1):
                base = _mask(rest)
                keep = base | (1 << a)
                matching.append((tracker.labels[keep], keep, base | (1 << b)))
            for _, keep, drop in sorted(matching):
                tracker.contract(keep, drop, emitted)
            for mask in tracker.doomed((1 << a) | (1 << b)):
                tracker.delete(mask, emitted)
            tracker.rekey_without(b)
            bg = bg.contract_edge(a, b)
        else:
            raise InvalidScript(f"unknown operation {op!r}")
        steps.append(LiftedStep(base_op=op, ops=tuple(emitted)))
    return LiftedScript(k=k, steps=tuple(steps))


def apply_and_verify(g: Graph, k: int, ops) -> bool:
    """Apply a script both ways and compare.

    Runs the base script on g, runs the lifted script on the token graph of
    g, and reports whether the edited token graph is isomorphic to the token
    graph of the edited base.
    """
    lifted = lift_script(g, k, ops)
    edited_base = apply_script(g, ops)
    if not 1 <= k < edited_base.n:
        raise BadK(
            f"script shrinks the base to n={edited_base.n}, "
            f"outside the buildable range for k={k}"
        )
    edited_tokens = apply_script(build_token_graph(g, k).graph, lifted.ops)
    expected = build_token_graph(edited_base, k).graph
    return are_isomorphic(edited_tokens, expected)


def nonplanarity_by_minor(g: Graph, k: int) -> str | None:
    """Name a lemma of the paper that forces F_k(g) to be non-planar, if any.

    Every certificate is sound for 2 <= k <= n-2: it pins a small subgraph
    whose token graph is non-planar and survives as a subgraph of the whole
    token graph when the remaining tokens are frozen on outside vertices.
    Returns None when no certificate applies (which decides nothing).
    """
    n = g.n
    if not 2 <= k <= n - 2:
        return None
    if g.max_degree() >= 5:
        return "max-degree-5"
    if has_cycle_of_length_at_least(g, 5):
        return "cycle-5"
    if contains_disjoint(g, path_graph(3), star_graph(4)):
        return "disjoint-p3-k13"
    if 3 <= k <= n - 3 and has_subgraph(g, path_graph(7)):
        return "p7-inner-k"
    return None
