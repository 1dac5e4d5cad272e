import random

import pytest

from arithex.partitions import (
    EulerSeries,
    all_partitions,
    count_weighings,
    from_prefix,
    multiset_coeff,
    partition_text,
    weighing_terms,
)


def test_partitions_of_five():
    parts = all_partitions(5)
    assert len(parts) == 7
    assert set(parts) == {
        ((1, 5),),
        ((1, 3), (2, 1)),
        ((1, 1), (2, 2)),
        ((1, 2), (3, 1)),
        ((1, 1), (4, 1)),
        ((2, 1), (3, 1)),
        ((5, 1),),
    }


def test_partitions_of_six():
    parts = all_partitions(6)
    assert len(parts) == 11
    assert parts[-1] == ((6, 1),)


def test_partitions_edge_cases():
    assert all_partitions(0) == ((),)
    assert all_partitions(1) == (((1, 1),),)


def test_partitions_lex_order_of_ascending_lists():
    for n in range(1, 12):
        expanded = [
            [size for size, mult in p for _ in range(mult)] for p in all_partitions(n)
        ]
        assert expanded == sorted(expanded)
        for lst in expanded:
            assert sum(lst) == n


def _euler_partition_counts(limit):
    # independent oracle: p(n) via the pentagonal-number recurrence
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_partition_counts_match_euler_recurrence():
    euler = _euler_partition_counts(40)
    for n in range(41):
        assert len(all_partitions(n)) == euler[n]


def test_partition_text():
    assert partition_text(((1, 3), (2, 1))) == "(1^3,2^1)"


def test_multiset_coeff():
    assert multiset_coeff(3, 3) == 10
    assert multiset_coeff(5, 0) == 1
    assert multiset_coeff(0, 0) == 1
    assert multiset_coeff(0, 2) == 0
    assert multiset_coeff(2, 3) == 4


def series_of(values) -> EulerSeries:
    series = EulerSeries()
    for value in values:
        series.extend(value)
    return series


def test_count_weighings_worked_example():
    counts = from_prefix([2, 3, 0, 1])
    assert count_weighings(counts, 4) == 21
    assert series_of([2, 3, 0]).nontrivial(4) == 20
    assert series_of([2, 3, 0, 1]).nontrivial(4) == 20


def test_count_weighings_zero_total():
    assert count_weighings(from_prefix([]), 0) == 1
    assert count_weighings(from_prefix([5, 5]), 0) == 1


def test_count_weighings_negative_total():
    with pytest.raises(ValueError):
        count_weighings(from_prefix([1]), -1)


def test_count_weighings_empty_counts():
    empty = from_prefix([])
    for n in range(1, 8):
        assert count_weighings(empty, n) == 0


def test_count_weighings_single_unit_weight():
    counts = from_prefix([1])
    for n in range(1, 10):
        assert count_weighings(counts, n) == 1


def test_nontrivial_at_one():
    assert series_of([]).nontrivial(1) == 0
    assert series_of([9]).nontrivial(1) == 0
    with pytest.raises(ValueError):
        series_of([1]).nontrivial(0)


def test_nontrivial_identity():
    values = [3, 1, 4, 1, 5]
    counts = from_prefix(values)
    series = series_of(values + [0] * 3)
    for n in range(1, 9):
        assert series.nontrivial(n) + counts(n) == count_weighings(counts, n)


def test_monotone_in_counts():
    lo = from_prefix([1, 2, 0, 1])
    hi = from_prefix([2, 2, 1, 1])
    for n in range(1, 9):
        assert count_weighings(lo, n) <= count_weighings(hi, n)


def test_weighing_terms_reconstruct_totals():
    counts = from_prefix([2, 3, 0, 1])
    assert sum(v for _, _, v in weighing_terms(counts, 4)) == 21
    assert sum(v for _, _, v in weighing_terms(counts, 4, nontrivial=True)) == 20


def test_weighing_terms_class_counts_cross_check():
    # first-kind x/÷ class counts as weights: the nontrivial total at 6
    counts = from_prefix([1, 2, 6, 20, 77])
    assert count_weighings(counts, 6) - counts(6) == 186
    assert series_of([1, 2, 6, 20, 77]).nontrivial(6) == 186


def test_euler_series_matches_partition_sums():
    # vectors with zero runs, including an all-zero prefix and leading zeros
    rng = random.Random(20260218)
    vectors = [[0] * 20, [0, 0, 1], [1] * 20]
    for _ in range(40):
        size = rng.randint(1, 20)
        vectors.append([rng.choice((0, 0, 1, 2, 3, rng.randint(0, 500))) for _ in range(size)])
    for values in vectors:
        counts = from_prefix(values)
        series = EulerSeries()
        for t in range(1, 21):
            nontrivial = sum(v for _, _, v in weighing_terms(counts, t, nontrivial=True))
            assert series.nontrivial(t) == nontrivial, (values, t)
            series.extend(counts(t))
            total = sum(v for _, _, v in weighing_terms(counts, t))
            assert count_weighings(counts, t) == total == series.weighings[t], (values, t)
            assert series.nontrivial(t) == nontrivial


def test_euler_series_sizes():
    series = EulerSeries()
    series.extend(3)
    with pytest.raises(ValueError):
        series.nontrivial(3)
    with pytest.raises(ValueError):
        series.nontrivial(0)
