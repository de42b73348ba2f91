"""The class walk of S_d and its cycle types against independent oracles."""

from collections import Counter
from itertools import permutations
from math import factorial, lcm, prod

import pytest

from symquot.combinatorics import CycleType, conjugacy_classes


def cycle_types(d):
    """The cycle types of ``conjugacy_classes(d)``, in its order."""
    return [t for t, _, _ in conjugacy_classes(d)]


def class_size(t):
    """Closed form d! / z_t, with z_t = prod(i^{m_i} * m_i!) over part multiplicities."""
    return factorial(sum(t.parts)) // prod(i**m * factorial(m) for i, m in Counter(t.parts).items())


def element_order(t):
    """Closed form of the order of a permutation of cycle type ``t``: lcm of the parts."""
    return lcm(*t.parts)


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


def permutation_order(perm):
    """Least k >= 1 with perm^k the identity, by composing powers."""
    identity = tuple(range(len(perm)))
    power, k = perm, 1
    while power != identity:
        power = tuple(perm[i] for i in power)
        k += 1
    return k


@pytest.mark.parametrize("d", range(1, 8))
def test_walk_against_brute_enumeration(d):
    counts, orders = Counter(), {}
    for perm in permutations(range(d)):
        parts = brute_cycle_type(perm)
        counts[parts] += 1
        assert orders.setdefault(parts, permutation_order(perm)) == permutation_order(perm)
    walked = [(t.parts, size, order) for t, size, order in conjugacy_classes(d)]
    assert sorted(walked) == sorted((parts, counts[parts], orders[parts]) for parts in counts)


@pytest.mark.parametrize("d", range(1, 21))
def test_walk_order_matches_exhaustive_enumeration(d):
    assert [t.parts for t, _, _ in conjugacy_classes(d)] == exhaustive_partitions(d)


@pytest.mark.parametrize("d", range(1, 31))
def test_walk_sizes_and_orders_match_closed_forms(d):
    for t, size, order in conjugacy_classes(d):
        assert type(t) is CycleType and CycleType(t.parts) == t
        assert (size, order) == (class_size(t), element_order(t))


@pytest.mark.parametrize("d", range(1, 36))
def test_walk_counts_classes_and_sums_sizes_to_group_order(d):
    sizes = [size for _, size, _ in conjugacy_classes(d)]
    assert len(sizes) == euler_partition_count(d)
    assert sum(sizes) == factorial(d)


@pytest.mark.parametrize("d", [0, -1, -7])
def test_walk_rejects_nonpositive_degree(d):
    with pytest.raises(ValueError):
        conjugacy_classes(d)


def test_partitions_of_one():
    assert [t.parts for t in cycle_types(1)] == [(1,)]


def test_partitions_of_four_reverse_lex():
    expected = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [t.parts for t in cycle_types(4)] == expected


@pytest.mark.parametrize("d", range(1, 11))
def test_partition_counts_match_pentagonal_oracle(d):
    assert len(cycle_types(d)) == euler_partition_count(d)


def test_partition_count_ten_is_forty_two():
    assert len(cycle_types(10)) == 42


@pytest.mark.parametrize("d", range(1, 9))
def test_partitions_match_exhaustive_enumeration(d):
    assert [t.parts for t in cycle_types(d)] == exhaustive_partitions(d)


@pytest.mark.parametrize("d", [0, -1, -7])
def test_partitions_rejects_nonpositive_degree(d):
    with pytest.raises(ValueError):
        cycle_types(d)


@pytest.mark.parametrize("d", range(1, 11))
def test_partition_stream_has_no_duplicates_and_valid_types(d):
    seen = set()
    for t in cycle_types(d):
        assert t.parts not in seen
        seen.add(t.parts)
        assert sum(t.parts) == d
        assert all(p >= 1 for p in t.parts)
        assert all(a >= b for a, b in zip(t.parts, t.parts[1:]))


@pytest.mark.parametrize("d", [3, 5])
def test_class_sizes_against_brute_enumeration(d):
    counts = {}
    for perm in permutations(range(d)):
        counts[brute_cycle_type(perm)] = counts.get(brute_cycle_type(perm), 0) + 1
    for t in cycle_types(d):
        assert class_size(t) == counts[t.parts]


def test_class_size_frozen_values():
    assert class_size(CycleType((1, 1, 1))) == 1
    assert class_size(CycleType((2, 1))) == 3
    assert class_size(CycleType((3, 2))) == 20


@pytest.mark.parametrize("d", range(1, 11))
def test_class_sizes_sum_to_group_order(d):
    assert sum(class_size(t) for t in cycle_types(d)) == factorial(d)


def test_element_order_frozen_values():
    assert element_order(CycleType((1, 1, 1, 1))) == 1
    assert element_order(CycleType((3, 2))) == 6
    assert element_order(CycleType((6, 4))) == 12


@pytest.mark.parametrize("d", range(1, 11))
def test_element_order_divisibility(d):
    for t in cycle_types(d):
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
