import hashlib
import json
from fractions import Fraction

import pytest

from arithex import counting, reference
from arithex.counting import (
    COUNT_MAX_N,
    OPS,
    class_counts,
    total_nonisomorphic,
    worked_breakdown,
)
from arithex.errors import InputError


@pytest.fixture(scope="module")
def table17():
    return class_counts(17)


def test_size_bound_rejected_before_allocation(monkeypatch):
    def unreachable(n_max):
        raise AssertionError(f"table of {n_max} levels allocated")

    monkeypatch.setattr(counting, "CategoryTable", unreachable)
    for n_max in (0, COUNT_MAX_N + 1, 10**8):
        with pytest.raises(InputError):
            class_counts(n_max)


def test_level_one(table17):
    assert table17.cell(1, "*", 1) == 1
    assert table17.total(1) == 1
    for op in OPS:
        for t in (1, 2, 3):
            if (op, t) != ("*", 1):
                assert table17.cell(1, op, t) == 0


def test_category_tables_match_reference(table17):
    for n, ref_level in reference.CATEGORY_TABLES.items():
        for op, by_type in ref_level.items():
            for t, expected in by_type.items():
                assert table17.cell(n, op, t) == expected, (n, op, t)


def test_totals_match_reference(table17):
    for n, expected in reference.ORBIT_TOTALS.items():
        assert table17.total(n) == expected


def test_total_nonisomorphic_values():
    assert total_nonisomorphic(2) == 4
    assert total_nonisomorphic(7) == 16621
    assert total_nonisomorphic(10) == 3770744


def test_level_independence(table17):
    small = class_counts(6)
    for n in range(1, 7):
        for op in OPS:
            for t in (1, 2, 3):
                assert small.cell(n, op, t) == table17.cell(n, op, t)


def test_second_type_counts_even_on_negation_closed_pools(table17):
    # negation swaps +-ending with --ending classes and preserves * and /,
    # so evenness holds per level and per negation-closed operator pool
    # (not per single + or - cell: the reference table has 3 at n=4, op +)
    pools = [("+", "-"), ("*",), ("/",), ("*", "/"), ("+", "-", "*"), OPS]
    for n in range(1, 18):
        for pool in pools:
            assert table17.cls((2,), pool, n) % 2 == 0, (n, pool)


def test_monic_second_requires_closed_pool(table17):
    from arithex.counting import OddSecondTypeCount

    with pytest.raises(OddSecondTypeCount):
        table17.monic_second(("+",), 4)


def test_breakdown_first_type_plus_at_six(table17):
    bd = worked_breakdown(table17, 6, "+", 1)
    assert bd.total == 186
    by_partition = {t.key: t.value for t in bd.terms}
    assert by_partition[((1, 6),)] == 1
    assert by_partition[((1, 4), (2, 1))] == 2
    assert by_partition[((1, 2), (2, 2))] == 3
    assert by_partition[((2, 3),)] == 4
    assert by_partition[((1, 3), (3, 1))] == 6
    assert by_partition[((1, 1), (2, 1), (3, 1))] == 12
    assert by_partition[((1, 2), (4, 1))] == 20
    assert by_partition[((3, 2),)] == 21
    assert by_partition[((2, 1), (4, 1))] == 40
    assert by_partition[((1, 1), (5, 1))] == 77


def test_breakdown_third_type_minus_at_six(table17):
    bd = worked_breakdown(table17, 6, "-", 3)
    assert bd.total == 19
    assert [(t.key, t.factors) for t in bd.terms] == [
        (1, (10, 1)),
        (2, (0, 3)),
        (3, (1, 9)),
    ]


def test_breakdown_second_type_times_at_six(table17):
    bd = worked_breakdown(table17, 6, "*", 2)
    assert bd.total == 294
    nonzero = [t.factors for t in bd.terms if t.value]
    assert nonzero == [(2, 6), (6, 5), (30, 2), (192, 1)]


def test_partition_breakdowns_match_euler_fill():
    # worked_breakdown sums each cell over partitions; the fill used the series
    table = class_counts(25)
    for n in range(1, 26):
        for op in OPS:
            for t in (1, 2, 3):
                assert worked_breakdown(table, n, op, t).total == table.cell(n, op, t)


def test_series_blocks_sum_to_cells_past_the_references():
    # the reference values stop at n = 17 and the partition cross-check at
    # n = 25; every summand the fill's blocks hold adds up to its cell
    table = class_counts(60)
    for n in range(1, 61):
        for op in OPS:
            for t in (1, 2, 3):
                total = 0
                for _, keys, factors, values in counting._cell_terms(table, n, op, t):
                    for _, _, value in zip(keys, factors, values, strict=True):
                        total += value
                assert total == table.cell(n, op, t), (n, op, t)
    # the totals to n = 200, pinned by the digest of their line
    digest = hashlib.sha256(class_counts(200).totals_line().encode()).hexdigest()
    assert digest == "0bf8514ab322da083b42ec679c40d7a5776d99e5b3cd3c67fbdc8e6251c7ff6a"


def test_breakdown_first_type_plus_at_two(table17):
    bd = worked_breakdown(table17, 2, "+", 1)
    assert [(t.key, t.value) for t in bd.terms] == [(((1, 2),), 1)]


def test_ratio_growth_fixture(table17):
    ratios = {
        n: Fraction(reference.IDENTITY_COUNTS[n], table17.total(n))
        for n in (15, 16, 17)
    }
    m16 = ratios[16] / ratios[15]
    m17 = ratios[17] / ratios[16]
    assert Fraction("13.77") <= m16 <= Fraction("13.79")
    assert Fraction("14.64") <= m17 <= Fraction("14.66")


def test_json_level_shape(table17):
    level = table17.level_dict(6)
    assert level["n"] == 6
    assert level["plus"] == {"first": 186, "second": 295, "third": 6}
    assert level["total"] == 2844
    json.dumps(level)  # serializable


def test_csv_and_text_render(table17):
    csv_text = table17.to_csv()
    assert csv_text.splitlines()[0] == "n,op,type,count"
    assert "6,plus,first,186" in csv_text
    text = table17.to_text()
    assert "n=6" in text and "2844" in text


def test_totals_line():
    assert class_counts(9).totals_line() == "1 4 18 93 500 2844 16621 99674 608448"


def test_runtime_budget():
    import time

    start = time.monotonic()
    class_counts(17)
    assert time.monotonic() - start < 5.0
