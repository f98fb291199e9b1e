"""Colex ranking between k-subsets of {0..n-1} and dense integer ids.

The rank of a subset with members s_0 < s_1 < ... < s_{k-1} is
sum(C(s_i, i+1)), the standard combinatorial number system in
colexicographic order. Ranks are the vertex ids of token graphs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

from .errors import IndexOutOfRange
from .graphs import _bits, _mask


@dataclass(frozen=True)
class KSubset:
    """A k-subset of {0..n-1}, stored as a strictly increasing tuple."""

    members: tuple[int, ...]
    n: int

    def __post_init__(self):
        ms = self.members
        if any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
            raise ValueError(f"members must be strictly increasing, got {ms}")
        if ms and (ms[0] < 0 or ms[-1] >= self.n):
            raise ValueError(f"members {ms} outside 0..{self.n - 1}")

    @property
    def k(self) -> int:
        return len(self.members)

    @property
    def mask(self) -> int:
        return _mask(self.members)

    def complement(self) -> "KSubset":
        inside = set(self.members)
        return KSubset(tuple(v for v in range(self.n) if v not in inside), self.n)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __iter__(self):
        return iter(self.members)


class SubsetCodec:
    """Bijective rank/unrank for the k-subsets of {0..n-1} in colex order."""

    __slots__ = ("n", "k", "size")

    def __init__(self, n: int, k: int):
        if n < 0 or not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
        self.n = n
        self.k = k
        self.size = comb(n, k)

    def masks(self) -> Iterator[int]:
        """Yield every k-subset as a bitmask, in rank order.

        Increasing integers with k set bits are exactly colex order, so
        Gosper's next-combination step (Knuth, TAOCP 4A, 7.2.1.3) walks the
        ranks 0, 1, 2, ... with no unranking. The walk is lazy: a scan that
        stops at rank r costs r steps, however large C(n, k) is.
        """
        x = (1 << self.k) - 1
        yield x
        for _ in range(self.size - 1):
            low = x & -x
            y = x + low
            x = ((x ^ y) >> 2) // low | y
            yield x

    def rank(self, s) -> int:
        """Colex rank of a KSubset or iterable of k distinct members of 0..n-1."""
        members = s.members if isinstance(s, KSubset) else tuple(sorted(s))
        if len(members) != self.k:
            raise ValueError(f"expected a {self.k}-subset, got {members}")
        KSubset(members, self.n)  # raises on repeated or out-of-range members
        return self.rank_mask(_mask(members))

    def rank_mask(self, mask: int) -> int:
        """Colex rank of a subset given as a bitmask."""
        return sum(comb(v, i) for i, v in enumerate(_bits(mask), 1))

    def unrank(self, r: int) -> KSubset:
        """The subset of colex rank r, as a KSubset (see `unrank_mask`)."""
        return KSubset(tuple(_bits(self.unrank_mask(r))), self.n)

    def unrank_mask(self, r: int) -> int:
        if not 0 <= r < self.size:
            raise IndexOutOfRange(f"rank {r} outside 0..{self.size - 1}")
        mask = 0
        c = self.n
        for i in range(self.k, 0, -1):
            c -= 1
            while comb(c, i) > r:
                c -= 1
            mask |= 1 << c
            r -= comb(c, i)
        return mask
