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
path plus a disjoint claw, or a long path when k is interior). Each is a
direct bitmask test on g: the claw and path lemma tries each centre with
three of its neighbours and looks for a vertex with two neighbours left
over, and the long path is a walk of simple paths to seven vertices.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from ._record import Record
from .errors import BadK, InvalidScript
from .graphs import Graph, _bits, _check_k, _edit, _mask, has_cycle_of_length_at_least
from .subsets import SubsetCodec
from .tokens import build_token_graph


class _Op(Record):
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


class DeleteVertex(_Op):
    v: int
    code = "dv"


class DeleteEdge(_Op):
    u: int
    v: int
    code = "de"


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


class LiftedStep(Record):
    """The token-graph operations produced by one base-graph operation."""

    base_op: Operation
    ops: tuple


class LiftedScript(Record):
    k: int
    steps: tuple[LiftedStep, ...]

    @property
    def ops(self) -> tuple:
        return tuple(op for step in self.steps for op in step.ops)


def lift_script(g: Graph, k: int, ops) -> LiftedScript:
    """Translate a base-graph script into an equivalent token-graph script.

    Each step is applied to the base first, so `graphs._edit` alone decides
    whether it is valid. Then `live[label]` is the base mask of the token
    vertex with that label: the k-subsets of the current base in colex
    order, read from `SubsetCodec`. Sorting masks therefore sorts labels,
    and the a-side of a matched pair has the smaller label. A contraction
    edits the list as the editor relabels: a merge keeps the smaller label,
    and a deletion compacts the labels above it.

    Raises what `apply_script(g, ops)` raises, InvalidScript for a step
    that is not an operation record, and BadK unless 1 <= k < n holds for g
    and again after each step.
    """
    k = _check_k(k, 1, g.n - 1)
    bg = g
    steps = []
    for op in ops:
        if not isinstance(op, _Op):
            raise InvalidScript(f"unknown operation {op!r}")
        edited = op.apply(bg)
        if edited.n <= k:
            raise BadK(
                f"script shrinks the base to n={edited.n}, outside the buildable range for k={k}"
            )
        code, *ends = op
        live = list(SubsetCodec(bg.n, k).masks())
        emitted = []
        if code != "dv":
            a, b = sorted(ends)
            others = [v for v in range(bg.n) if v not in (a, b)]
            pairs = sorted(
                (x | 1 << a, x | 1 << b) for x in map(_mask, combinations(others, k - 1))
            )
            for keep, drop in pairs:
                i, j = bisect_left(live, keep), bisect_left(live, drop)
                emitted.append(_OPS[code](i, j))
                if code == "ce":
                    live[min(i, j)] = keep
                    del live[max(i, j)]
        if code != "de":  # the tokens holding every end die with the step
            doomed = _mask(ends)
            emitted += [
                DeleteVertex(i) for i in reversed(range(len(live))) if live[i] & doomed == doomed
            ]
        bg = edited
        steps.append(LiftedStep(base_op=op, ops=tuple(emitted)))
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


def _has_claw_and_disjoint_p3(g: Graph) -> bool:
    """True iff g holds a K_{1,3} and a P_3 on disjoint vertices.

    A claw is a centre with three of its neighbours, and a P_3 avoids it
    iff some other vertex has two neighbours outside it.
    """
    adj = g._adj
    everyone = (1 << g.n) - 1
    middles = sum(1 << v for v, row in enumerate(adj) if row.bit_count() >= 2)
    for c, row in enumerate(adj):
        if row.bit_count() < 3:
            continue
        for a, b, d in combinations([1 << w for w in _bits(row)], 3):
            rest = everyone ^ (1 << c | a | b | d)
            if any((adj[v] & rest).bit_count() >= 2 for v in _bits(rest & middles)):
                return True
    return False


def _has_path(g: Graph, p: int) -> bool:
    """True iff g holds a path on p >= 1 vertices: a walk of simple paths
    from each vertex, stopped at p vertices."""
    adj = g._adj
    for s in range(g.n):
        stack = [(s, 1 << s, 1)]
        while stack:
            v, seen, size = stack.pop()
            if size == p:
                return True
            for w in _bits(adj[v] & ~seen):
                stack.append((w, seen | 1 << w, size + 1))
    return False


def nonplanarity_by_minor(g: Graph, k: int) -> str | None:
    """Name a lemma of the paper that forces F_k(g) to be non-planar, if any.

    Every certificate is sound for 2 <= k <= n-2: it pins a small subgraph
    whose token graph is non-planar and survives as a subgraph of the whole
    token graph when the remaining tokens are frozen on outside vertices.
    Returns None when no certificate applies (which decides nothing), and
    so for every integer k outside 2..n-2.
    """
    n = g.n
    k = _check_k(k, what="nonplanarity_by_minor")
    if not 2 <= k <= n - 2:
        return None
    if g.max_degree() >= 5:
        return "max-degree-5"
    if has_cycle_of_length_at_least(g, 5):
        return "cycle-5"
    if _has_claw_and_disjoint_p3(g):
        return "disjoint-p3-k13"
    if 3 <= k <= n - 3 and _has_path(g, 7):
        return "p7-inner-k"
    return None
