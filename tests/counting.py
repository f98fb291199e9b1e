"""Counts of graph classes computed by formula, sharing no code with the generator.

`class_counts(n)[m]` is the number of isomorphism classes of graphs with n
vertices and m edges, by Burnside's lemma: the average, over S_n, of the
number of edge sets that a permutation fixes. A permutation of the vertices
with cycle type λ permutes the pairs in cycles that depend on λ alone, and it
fixes an edge set iff the set is a union of pair cycles, so the fixed edge
sets of each size are the coefficients of the product of (1 + y^c) over its
pair cycles c (Harary & Palmer, *Graphical Enumeration*, 1973, ch. 4).
`connected_counts` inverts the Euler transform that builds every graph as a
multiset of connected ones, in both the order and the size. `tree_counts` is
Otter's formula ("The number of trees", Ann. Math. 49, 1948): free trees are
rooted trees less the pairs of rooted trees that could be joined at an edge.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial, gcd, prod


def _partitions(n: int, largest: int):
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part, *rest]


def _pair_cycles(parts: list[int]) -> list[int]:
    """The cycle lengths on pairs of a vertex permutation with cycle lengths `parts`."""
    cycles = []
    for i, a in enumerate(parts):
        cycles += [a] * ((a - 1) // 2)  # pairs inside one cycle
        if a % 2 == 0:
            cycles.append(a // 2)  # its diagonals, each swapped end for end
        for b in parts[i + 1:]:
            cycles += [a * b // gcd(a, b)] * gcd(a, b)  # pairs across two cycles
    return cycles


@cache
def class_counts(n: int) -> tuple[int, ...]:
    """Classes of n-vertex graphs, indexed by the number of edges."""
    total = [0] * (n * (n - 1) // 2 + 1)
    for parts in _partitions(n, n):
        fixed = [1] + [0] * (len(total) - 1)
        for c in _pair_cycles(parts):
            for m in range(len(fixed) - 1, c - 1, -1):
                fixed[m] += fixed[m - c]
        # n! / z_λ permutations have cycle type λ
        size = factorial(n) // prod(a**c * factorial(c) for a, c in Counter(parts).items())
        for m, f in enumerate(fixed):
            total[m] += size * f
    return tuple(t // factorial(n) for t in total)


def _add(p: list[int], q, scale: int) -> None:
    """p += scale * q, in place; q is no longer than p."""
    for i, x in enumerate(q):
        p[i] += scale * x


def _times(p, q) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def _stretch(p, d: int) -> list[int]:
    """p(y^d)."""
    out = [0] * ((len(p) - 1) * d + 1)
    for i, x in enumerate(p):
        out[i * d] = x
    return out


@cache
def connected_counts(n: int) -> tuple[int, ...]:
    """Classes of connected n-vertex graphs, indexed by the number of edges.

    With b_N(y) the graphs and a_N(y) the connected graphs of order N by
    size, the Euler transform gives N b_N = sum_{k=1..N} c_k b_{N-k}, where
    c_k(y) = sum_{d | k} d a_d(y^(k/d)); solve for c_N, then for a_N.
    """
    if n == 0:
        return ()
    c = _euler_terms(n)
    a = list(c)
    for d in range(1, n):
        if n % d == 0:
            _add(a, _stretch(connected_counts(d), n // d), -d)
    assert all(x % n == 0 for x in a)
    return tuple(x // n for x in a)


@cache
def _euler_terms(n: int) -> tuple[int, ...]:
    """c_n(y) of `connected_counts`, from the counts of all graphs."""
    c = [n * x for x in class_counts(n)]
    for k in range(1, n):
        _add(c, _times(_euler_terms(k), class_counts(n - k)), -1)
    return tuple(c)


def tree_counts(n_max: int) -> list[int]:
    """Free trees on n vertices for n = 0..n_max (none on 0 vertices), by Otter's formula."""
    rooted = [0, 1]  # rooted[n]: rooted trees on n vertices
    for n in range(1, n_max):
        # a root's subtrees are a multiset of rooted trees on n vertices in all:
        # n r_{n+1} = sum_k (sum_{d | k} d r_d) r_{n-k+1}
        s = 0
        for k in range(1, n + 1):
            s += sum(d * rooted[d] for d in range(1, k + 1) if k % d == 0) * rooted[n - k + 1]
        rooted.append(s // n)
    trees = [0]
    for n in range(1, n_max + 1):
        pairs = sum(rooted[i] * rooted[n - i] for i in range(1, n))
        if n % 2 == 0:
            pairs -= rooted[n // 2]
        trees.append(rooted[n] - pairs // 2)
    return trees
