"""Partition enumeration and class data against independent oracles."""

from itertools import permutations
from math import factorial

import pytest

from symquot.combinatorics import CycleType, class_size, element_order, partitions


def euler_partition_count(n, _cache={0: 1}):
    """Partition numbers by the pentagonal-number recurrence.

    Completely independent of the package's enumerator.
    """
    if n < 0:
        return 0
    if n in _cache:
        return _cache[n]
    total, k = 0, 1
    while k * (3 * k - 1) // 2 <= n:
        sign = -1 if k % 2 == 0 else 1
        total += sign * euler_partition_count(n - k * (3 * k - 1) // 2)
        total += sign * euler_partition_count(n - k * (3 * k + 1) // 2)
        k += 1
    _cache[n] = total
    return total


def exhaustive_partitions(d):
    """All partitions of d by plain recursion, sorted reverse-lexicographically."""
    found = set()

    def rec(remaining, cap, prefix):
        if remaining == 0:
            found.add(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(d, d, [])
    return sorted(found, reverse=True)


def brute_cycle_type(perm):
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def test_partitions_of_one():
    assert [t.parts for t in partitions(1)] == [(1,)]


def test_partitions_of_four_reverse_lex():
    expected = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [t.parts for t in partitions(4)] == expected


@pytest.mark.parametrize("d", range(1, 11))
def test_partition_counts_match_pentagonal_oracle(d):
    assert len(list(partitions(d))) == euler_partition_count(d)


def test_partition_count_ten_is_forty_two():
    assert len(list(partitions(10))) == 42


@pytest.mark.parametrize("d", range(1, 9))
def test_partitions_match_exhaustive_enumeration(d):
    assert [t.parts for t in partitions(d)] == exhaustive_partitions(d)


@pytest.mark.parametrize("d", [0, -1, -7])
def test_partitions_rejects_nonpositive_degree(d):
    with pytest.raises(ValueError):
        list(partitions(d))


@pytest.mark.parametrize("d", range(1, 11))
def test_partition_stream_has_no_duplicates_and_valid_types(d):
    seen = set()
    for t in partitions(d):
        assert t.parts not in seen
        seen.add(t.parts)
        assert sum(t.parts) == t.d == d
        assert all(p >= 1 for p in t.parts)
        assert all(a >= b for a, b in zip(t.parts, t.parts[1:]))


@pytest.mark.parametrize("d", [3, 5])
def test_class_sizes_against_brute_enumeration(d):
    counts = {}
    for perm in permutations(range(d)):
        counts[brute_cycle_type(perm)] = counts.get(brute_cycle_type(perm), 0) + 1
    for t in partitions(d):
        assert class_size(t) == counts[t.parts]


def test_class_size_frozen_values():
    assert class_size(CycleType((1, 1, 1))) == 1
    assert class_size(CycleType((2, 1))) == 3
    assert class_size(CycleType((3, 2))) == 20


@pytest.mark.parametrize("d", range(1, 11))
def test_class_sizes_sum_to_group_order(d):
    assert sum(class_size(t) for t in partitions(d)) == factorial(d)


def test_element_order_frozen_values():
    assert element_order(CycleType((1, 1, 1, 1))) == 1
    assert element_order(CycleType((3, 2))) == 6
    assert element_order(CycleType((6, 4))) == 12


@pytest.mark.parametrize("d", range(1, 11))
def test_element_order_divisibility(d):
    for t in partitions(d):
        order = element_order(t)
        assert factorial(d) % order == 0
        assert all(order % p == 0 for p in t.parts)
        assert (order == 1) == t.is_identity()


def test_cycle_type_rejects_bad_parts():
    with pytest.raises(ValueError):
        CycleType(())
    with pytest.raises(ValueError):
        CycleType((2, 0))
    with pytest.raises(ValueError):
        CycleType((1, 2))
