"""Minor operations on base graphs and their lifts to token graphs.

A script is a sequence of vertex deletions, edge deletions, and edge
contractions, each written against the labels that are current when it runs
(deletions and contractions compact labels). `lift_script` translates a base
script into a token-graph script: deleting base vertex a deletes every token
vertex whose subset contains a, deleting base edge ab deletes the matching
token edges, and contracting ab contracts the perfect matching between the
a-side and b-side tokens and then deletes the tokens containing both ends,
which would have no counterpart afterwards. `apply_and_verify(g, lifted)`
checks a lift it is given: replaying it lands on the token graph of the
edited base, equal label for label, as each label stays its subset's colex
rank.

`nonplanarity_by_minor` collects the paper's lemmas that force a non-planar
token graph without building it (a vertex of degree five, a long cycle, a
path plus a disjoint claw, or a long path when k is interior). Their
constant patterns are planned once, at import.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .errors import BadK, InvalidScript
from .graphs import (
    Graph,
    _contains_disjoint_planned,
    _drop_bit,
    _edit,
    _has_planned,
    _mask,
    _pattern_order,
    has_cycle_of_length_at_least,
    path_graph,
    star_graph,
)
from .subsets import SubsetCodec
from .tokens import _check_k, build_token_graph


class _Op:
    """A script step: its `code` and its fields, in order, make up its line.

    Iterating an operation yields ("dv", v), ("de", u, v) or ("ce", u, v),
    the step form `graphs._edit` takes.
    """

    code = ""

    def __iter__(self):
        yield self.code
        for name in self.__match_args__:
            yield getattr(self, name)

    def apply(self, g: Graph) -> Graph:
        return _edit(g, (self,))

    def format(self) -> str:
        return " ".join(map(str, self))


@dataclass(frozen=True)
class DeleteVertex(_Op):
    v: int
    code = "dv"


@dataclass(frozen=True)
class DeleteEdge(_Op):
    u: int
    v: int
    code = "de"


@dataclass(frozen=True)
class ContractEdge(_Op):
    u: int
    v: int
    code = "ce"


Operation = DeleteVertex | DeleteEdge | ContractEdge
_OPS = {op.code: op for op in (DeleteVertex, DeleteEdge, ContractEdge)}


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
        args = []
        for p in parts[1:]:
            try:
                args.append(int(p))
            except ValueError:
                raise InvalidScript(
                    f"line {lineno}: {p!r} is not a vertex label"
                ) from None
        op = _OPS.get(parts[0].lower())
        if op is None or len(args) != len(op.__match_args__):
            raise InvalidScript(f"line {lineno}: unrecognized operation {line!r}")
        ops.append(op(*args))
    return tuple(ops)


def format_script(ops) -> str:
    return "\n".join(op.format() for op in ops)


def apply_script(g: Graph, ops) -> Graph:
    """Apply a script to g in one pass of `graphs._edit`."""
    return _edit(g, ops)


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
        return tuple(op for step in self.steps for op in step.ops)


def lift_script(g: Graph, k: int, ops) -> LiftedScript:
    """Translate a base-graph script into an equivalent token-graph script.

    `live[label]` is the base mask of the token vertex with that label, so
    editing the list relabels as `Graph` does: a deletion compacts the labels
    above it, and a contraction merges into the smaller label. The list stays
    in increasing mask order, since a contraction keeps the smaller mask of
    each matched pair and dropping a bit that no live mask holds keeps order;
    so sorting masks sorts their labels, and the a-side of a matched pair has
    the smaller label. Raises BadK unless 1 <= k < n holds both for g and
    for the edited base, and InvalidScript for a step that names a vertex
    out of range, a loop or an absent edge, or is not an operation.
    """
    _check_k(g.n, k)
    live = list(SubsetCodec(g.n, k).masks())
    bg = g
    steps = []
    for op in ops:
        emitted: list = []
        doomed = 0  # tokens holding all these bits die with the step
        if isinstance(op, DeleteVertex):
            if not 0 <= op.v < bg.n:
                raise InvalidScript(f"vertex {op.v} is out of range for n={bg.n}")
            doomed, gone = 1 << op.v, op.v
        elif isinstance(op, (DeleteEdge, ContractEdge)):
            a, b = sorted((op.u, op.v))
            if a < 0 or b >= bg.n:
                raise InvalidScript(f"edge ({a},{b}) is out of range for n={bg.n}")
            if a == b:
                raise InvalidScript(f"edge ({a},{b}) is a loop")
            if not bg.has_edge(a, b):
                if isinstance(op, DeleteEdge):
                    raise InvalidScript(f"edge ({a},{b}) is not present")
                raise InvalidScript(f"edge ({a},{b}) cannot be contracted")
            others = [v for v in range(bg.n) if v not in (a, b)]
            pairs = sorted(
                (base | 1 << a, base | 1 << b)
                for base in map(_mask, combinations(others, k - 1))
            )
            if isinstance(op, DeleteEdge):
                emitted = [
                    DeleteEdge(bisect_left(live, x), bisect_left(live, y)) for x, y in pairs
                ]
            else:
                for keep, drop in pairs:
                    i, j = bisect_left(live, keep), bisect_left(live, drop)
                    emitted.append(ContractEdge(i, j))
                    live[min(i, j)] = keep
                    del live[max(i, j)]
                doomed, gone = 1 << a | 1 << b, b
        else:
            raise InvalidScript(f"unknown operation {op!r}")
        if doomed:
            for i in reversed(range(len(live))):
                if live[i] & doomed == doomed:
                    emitted.append(DeleteVertex(i))
                    del live[i]
            live = [_drop_bit(m, gone) for m in live]
        bg = op.apply(bg)
        steps.append(LiftedStep(base_op=op, ops=tuple(emitted)))
    if bg.n <= k:
        raise BadK(
            f"script shrinks the base to n={bg.n}, "
            f"outside the buildable range for k={k}"
        )
    return LiftedScript(k=k, steps=tuple(steps))


def apply_and_verify(g: Graph, lifted: LiftedScript) -> bool:
    """Check a lift of a script on g, as `lift_script` returns it.

    Re-applies the base script (the steps' `base_op`s) to g, replays the
    lifted operations on F_k(g), k = `lifted.k`, and reports whether the
    edited token graph is equal, label for label, to the token graph of the
    edited base (an isomorphism test would also pass a lift that
    mislabels). It does not lift again, so the base side is checked
    independently of the lift it is given.
    """
    k = lifted.k
    edited_base = apply_script(g, [step.base_op for step in lifted.steps])
    edited_tokens = apply_script(build_token_graph(g, k).graph, lifted.ops)
    expected = build_token_graph(edited_base, k).graph
    return edited_tokens == expected


# the lemma patterns, planned once for `_iter_embeddings`
_P3_PLAN = _pattern_order(path_graph(3))
_K13_PLAN = _pattern_order(star_graph(4))
_P7_PLAN = _pattern_order(path_graph(7))


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
    if _contains_disjoint_planned(g, _K13_PLAN, _P3_PLAN):
        return "disjoint-p3-k13"
    if 3 <= k <= n - 3 and _has_planned(g, _P7_PLAN):
        return "p7-inner-k"
    return None
