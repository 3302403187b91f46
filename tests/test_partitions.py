"""Unit and property tests for partition enumeration and the index formula."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdex.partitions import (
    as_partition,
    canonical_set_partition,
    class_spectrum,
    enumerate_partitions,
    index_of,
    partition_count,
    shape_of,
)

# Known values of the partition function (OEIS A000041).
KNOWN_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 10: 42, 20: 627, 40: 37338}


def brute_partitions(n, max_part=None):
    """Independent oracle: recursive descent with a max-part bound."""
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part if max_part is not None else n), 0, -1):
        for rest in brute_partitions(n - first, first):
            out.append((first,) + rest)
    return out


class TestEnumeration:
    def test_single(self):
        assert enumerate_partitions(1) == [(1,)]

    def test_n4_reverse_lex(self):
        assert enumerate_partitions(4) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_n5_count(self):
        assert len(enumerate_partitions(5)) == 7

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_brute_oracle(self, n):
        assert enumerate_partitions(n) == brute_partitions(n)

    def test_endpoints(self):
        rows = enumerate_partitions(9)
        assert rows[0] == (9,)
        assert rows[-1] == (1,) * 9

    def test_errors(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)
        with pytest.raises(ValueError):
            enumerate_partitions(41)


class TestCounting:
    @pytest.mark.parametrize("n,expected", sorted(KNOWN_COUNTS.items()))
    def test_known_values(self, n, expected):
        assert partition_count(n) == expected

    @pytest.mark.parametrize("n", range(1, 31))
    def test_recurrence_matches_enumeration(self, n):
        assert partition_count(n) == len(enumerate_partitions(n))

    def test_errors(self):
        with pytest.raises(ValueError):
            partition_count(0)
        with pytest.raises(ValueError):
            partition_count(99)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=24))
def test_enumeration_soundness(n):
    rows = enumerate_partitions(n)
    assert len(set(rows)) == len(rows) == partition_count(n)
    for parts in rows:
        assert all(p >= 1 for p in parts)
        assert all(a >= b for a, b in zip(parts, parts[1:]))
        assert sum(parts) == n
        # the two index formulas agree exactly
        assert sum(p - 1 for p in parts) == n - len(parts) == index_of(parts)


class TestIndex:
    def test_all_singletons(self):
        assert index_of((1,) * 6) == 0

    def test_single_block(self):
        for n in (1, 2, 5, 12):
            assert index_of((n,)) == n - 1

    def test_mixed(self):
        assert index_of((2, 1, 1)) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            index_of(())
        with pytest.raises(ValueError):
            index_of((0, 1))
        with pytest.raises(ValueError):
            index_of((1, 2))


class TestSpectrum:
    def test_examples(self):
        assert class_spectrum(1) == {0}
        assert class_spectrum(2) == {0, 1}
        assert class_spectrum(5) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("n", range(1, 21))
    def test_full_range(self, n):
        spectrum = class_spectrum(n)
        assert spectrum == set(range(n))
        assert len(spectrum) == n


class TestShapeOf:
    def test_examples(self):
        assert shape_of([(0, 1, 2), (3, 4)]) == (3, 2)
        assert shape_of([(0,), (1,), (2,)]) == (1, 1, 1)
        assert shape_of([(1, 3), (0, 2)]) == (2, 2)

    @settings(max_examples=30)
    @given(st.permutations(list(range(6))))
    def test_relabel_invariance(self, relabel):
        blocks = [(0, 1), (2, 3, 4), (5,)]
        relabeled = [tuple(relabel[q] for q in b) for b in blocks]
        assert shape_of(relabeled) == shape_of(blocks) == (3, 2, 1)

    def test_block_order_irrelevant(self):
        assert shape_of([(3, 4), (0, 1, 2)]) == (3, 2)


class TestCanonicalSetPartition:
    def test_orders_blocks_by_smallest(self):
        out = canonical_set_partition([[4, 2], [1, 0], [3]])
        assert out == ((0, 1), (2, 4), (3,))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            canonical_set_partition([(0, 1), (1, 2)])

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            canonical_set_partition([(0,), (2,)])

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            canonical_set_partition([(0, 1)], n_qubits=3)

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            canonical_set_partition([(0, 1), ()])


class TestAsPartition:
    def test_roundtrip(self):
        assert as_partition([3, 2, 2, 1]) == (3, 2, 2, 1)

    def test_rejects(self):
        for bad in ([], [0], [-1], [1, 2]):
            with pytest.raises(ValueError):
                as_partition(bad)
