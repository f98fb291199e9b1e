import random
from itertools import combinations
from math import comb

import pytest

from tokengraphs import IndexOutOfRange, KSubset, SubsetCodec, build_token_graph, path_graph


def colex_sorted(n, k):
    """Ground truth: k-subsets ordered by their reversed tuples."""
    return sorted(combinations(range(n), k), key=lambda t: t[::-1])


def test_codec_matches_colex_enumeration():
    for n in range(0, 9):
        for k in range(0, n + 1):
            codec = SubsetCodec(n, k)
            assert codec.size == comb(n, k)
            subsets = [codec.unrank(r).members for r in range(codec.size)]
            assert subsets == colex_sorted(n, k)


def test_masks_list_every_subset_in_rank_order():
    for n in range(0, 13):
        for k in range(0, n + 1):
            codec = SubsetCodec(n, k)
            assert list(codec.masks()) == [codec.unrank_mask(r) for r in range(codec.size)]


def test_rank_is_the_inverse_of_unrank():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 20)
        k = rng.randint(0, n)
        codec = SubsetCodec(n, k)
        r = rng.randrange(codec.size)
        s = codec.unrank(r)
        assert codec.rank(s) == r
        assert codec.rank(s.members) == r
        assert codec.rank_mask(s.mask) == r
        assert codec.unrank_mask(r) == s.mask


def test_rank_accepts_unsorted_iterables():
    codec = SubsetCodec(6, 3)
    assert codec.rank([4, 0, 2]) == codec.rank((0, 2, 4))


def test_rank_rejects_repeated_and_out_of_range_members():
    codec = SubsetCodec(5, 2)
    for bad in ([1, 1], [-1, 2], [0, 7]):
        with pytest.raises(ValueError):
            codec.rank(bad)


def test_rank_rejects_a_subset_of_the_wrong_size():
    codec = SubsetCodec(5, 2)
    for bad in ([0, 1, 2], [3], KSubset((0, 1, 4), 5)):
        with pytest.raises(ValueError, match="expected a 2-subset"):
            codec.rank(bad)


def test_unrank_bounds():
    codec = SubsetCodec(5, 2)
    with pytest.raises(IndexOutOfRange):
        codec.unrank(10)
    with pytest.raises(IndexOutOfRange):
        codec.unrank(-1)
    with pytest.raises(IndexOutOfRange):
        codec.unrank_mask(10)


def test_codec_argument_validation():
    with pytest.raises(ValueError):
        SubsetCodec(4, 5)
    with pytest.raises(ValueError):
        SubsetCodec(-1, 0)


def test_codec_has_no_order_cap():
    """F_1(P_70) is P_70 itself, token vertex i being the subset {i}."""
    tg = build_token_graph(path_graph(70), 1)
    assert tg.graph == path_graph(70)
    assert [tg.subset_of(i).members for i in (0, 64, 69)] == [(0,), (64,), (69,)]
    assert tg.vertex_of([69]) == 69


def test_ksubset_validation():
    s = KSubset((1, 3, 4), 6)
    assert s.k == 3
    assert s.mask == 0b011010
    assert 3 in s and 2 not in s
    assert list(s) == [1, 3, 4]
    with pytest.raises(ValueError):
        KSubset((3, 1), 6)
    with pytest.raises(ValueError):
        KSubset((1, 1), 6)
    with pytest.raises(ValueError):
        KSubset((0, 6), 6)


def test_complement_subset_reverses_colex_order():
    """Complementation maps rank r in (n,k) to rank C(n,k)-1-r in (n,n-k)."""
    for n in range(1, 9):
        for k in range(0, n + 1):
            codec = SubsetCodec(n, k)
            cocodec = SubsetCodec(n, n - k)
            for r in range(codec.size):
                s = codec.unrank(r)
                t = s.complement()
                assert set(t.members) == set(range(n)) - set(s.members)
                assert cocodec.rank(t) == codec.size - 1 - r
