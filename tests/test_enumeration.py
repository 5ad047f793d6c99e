import pytest

from midconv.enumeration import (
    EnumerationError,
    _make_report,
    _multisets,
    _nontrivial_partitions,
    _reduces_to_one,
    _weight,
    count_table,
    enumerate_basic,
    enumerate_rigid,
)
from midconv.katz import classify, partial_ell, special_family, WellDefinednessViolation
from midconv.rootlattice import RootClass, classify_root, inner, root_of, simple_root
from midconv.spectype import InvariantError, canonicalize, gcd_of, idx, parse


def test_rigid_order_two():
    rep = enumerate_rigid(2)
    assert [str(m) for m in rep.items] == ["11,11,11"]
    assert rep.total == 1 and rep.count(3) == 1


def test_rigid_order_four():
    rep = enumerate_rigid(4)
    got = set(rep.items)
    assert canonicalize(parse("1111,211,22")) in got
    assert canonicalize(parse("31,31,31,31,31")) in got
    assert rep.total == 6 and rep.count(3) == 3


def test_rigid_counts_small():
    expected = {2: (1, 1), 3: (1, 2), 4: (3, 6), 5: (5, 11), 6: (13, 28), 7: (20, 44)}
    for n, (triples, total) in expected.items():
        rep = enumerate_rigid(n)
        assert (rep.count(3), rep.total) == (triples, total)


def test_rigid_items_are_rigid_and_canonical():
    rep = enumerate_rigid(6)
    for m in rep.items:
        assert idx(m) == 2
        assert canonicalize(m) == m
        assert classify(m).rigid
        assert classify_root(root_of(m)) is RootClass.REAL_POSITIVE


def test_rigid_closure_under_reduction():
    by_order = {n: set(enumerate_rigid(n).items) for n in range(2, 8)}
    for n in range(3, 8):
        for m in by_order[n]:
            for ells in _unit_marks(m):
                try:
                    out = partial_ell(m, ells)
                except WellDefinednessViolation:
                    continue
                if out.order == 1:
                    continue
                if out.order <= 7:
                    assert out in by_order[out.order]
                else:
                    # marks with negative defect expand; rigidity persists
                    assert classify(out).rigid


def _unit_marks(m):
    # all marks hitting stored columns only, kept small by sampling corners
    widths = [len(row) for row in m.partitions]
    yield tuple(1 for _ in widths)
    yield tuple(w for w in widths)
    yield tuple(1 if j % 2 else w for j, w in enumerate(widths))


def _reference_rigid_grids(n):
    """Every multiset of nontrivial partitions of n with self-index 2 whose
    maximal reduction chain reaches order one: the filter that the
    inverse-step generator replaced."""
    parts = _nontrivial_partitions(n, n * n)
    weights = tuple(_weight(n, row) for row in parts)
    grids = (tuple(parts[j] for j in combo) for combo in _multisets(weights, 2 * n * n - 2))
    return [rows for rows in grids if _reduces_to_one(rows, n)]


def test_rigid_generator_matches_multiset_reference():
    for n in range(2, 16):
        expected = _make_report("rigid", n, _reference_rigid_grids(n))
        assert enumerate_rigid(n, max_order=15).items == expected.items, n


def test_rigid_counts_past_the_reference_range():
    # (triples, total) from the multiset reference above, which takes about
    # 20 s for these five orders on a 2-core machine
    expected = {
        16: (2388, 4644),
        17: (3276, 6128),
        18: (5186, 9790),
        19: (6954, 12595),
        20: (10517, 19269),
    }
    for n, counts in expected.items():
        rep = enumerate_rigid(n, max_order=20)
        assert (rep.count(3), rep.total) == counts, n


def test_report_rejects_a_repeated_class():
    grid = ((1, 1),) * 3
    with pytest.raises(InvariantError):
        _make_report("rigid", 2, [grid, grid])


def test_rigid_bounds():
    with pytest.raises(EnumerationError):
        enumerate_rigid(1)
    with pytest.raises(EnumerationError):
        enumerate_rigid(15)


def test_basic_index_zero_exact():
    rep = enumerate_basic(0)
    assert [str(m) for m in rep.items] == [
        "11,11,11,11",
        "111,111,111",
        "22,1111,1111",
        "33,222,111111",
    ]
    assert (rep.total, rep.count(3), rep.count(4)) == (4, 3, 1)


def test_basic_minus_two_list():
    rep = enumerate_basic(-2)
    expected = {
        canonicalize(parse(t))
        for t in (
            "11,11,11,11,11",
            "21,21,111,111",
            "31,22,22,1111",
            "22,22,22,211",
            "211,1111,1111",
            "221,221,11111",
            "32,11111,11111",
            "222,222,2211",
            "33,2211,111111",
            "44,2222,22211",
            "44,332,11111111",
            "55,3331,22222",
            "66,444,2222211",
        )
    }
    assert set(rep.items) == expected
    assert (rep.total, rep.count(3), rep.count(4)) == (13, 9, 3)


def test_basic_items_properties():
    for p in (0, -2):
        for m in enumerate_basic(p).items:
            assert gcd_of(m) == 1
            assert idx(m) == p
            assert classify(m).basic
            a = root_of(m)
            for node in a.support():
                assert inner(a, simple_root(node)) <= 0
            assert classify_root(a) is RootClass.IMAGINARY_POSITIVE


def test_special_families_enumerated():
    for kind in ("D4", "E6", "E7", "E8"):
        for scale in (1, 2, 3):
            fam = canonicalize(special_family(kind, scale))
            rep = enumerate_basic(2 - 2 * scale)
            assert fam in set(rep.items)


def test_null_direction_for_index_zero():
    # every index-zero basic class admits a unit tuple inside its support
    # with vanishing pairing (the reduction that keeps the type)
    from midconv.spectype import unit_at

    for m in enumerate_basic(0).items:
        a = root_of(m)
        found = False
        widths = [len(row) for row in m.partitions]
        from itertools import product

        for marks in product(*(range(1, w + 1) for w in widths)):
            u = root_of(unit_at(marks))
            if inner(a, u) == 0 and all(
                a.coeff(j, v) for j, vmax in enumerate(
                    [mk - 1 for mk in marks]) for v in range(1, vmax + 1)
            ):
                found = True
                break
        assert found, str(m)


def _reference_partitions(n):
    """Every partition of n with at least two parts, largest part first,
    sorted into descending lex order after it is built."""

    def grow(left, low):  # non-decreasing sequences, smallest part first
        if left == 0:
            yield ()
        for q in range(low, left + 1):
            for rest in grow(left - q, q):
                yield (q,) + rest

    return sorted((tuple(reversed(s)) for s in grow(n, 1) if len(s) > 1), reverse=True)


def test_partition_generator_matches_reference():
    # the excess-pruned generator against filtering every partition
    for n in range(1, 31):
        every = _reference_partitions(n)
        for budget in (*range(0, 13, 2), n * n):
            kept = [r for r in every if sum((r[0] - q) * q for q in r[1:]) <= budget]
            assert _nontrivial_partitions(n, budget) == kept, (n, budget)


def test_basic_deep_index_counts():
    # computed by filtering every partition up to order 60 (about 40 s and
    # 1.1 GB on a 2-core machine); the pruned generator needs 0.03 s
    rep = enumerate_basic(-18)
    assert rep.total == 871
    assert dict(rep.by_npart) == {
        3: 513, 4: 240, 5: 82, 6: 24, 7: 8, 8: 2, 9: 1, 13: 1
    }


def test_basic_validation():
    with pytest.raises(EnumerationError):
        enumerate_basic(1)
    with pytest.raises(EnumerationError):
        enumerate_basic(-3)


def test_count_table():
    table = count_table(4, -2)
    assert table["rigid"] == [(2, 1, 1), (3, 1, 2), (4, 3, 6)]
    assert table["basic"] == [(0, 4, 3, 1), (-2, 13, 9, 3)]


def test_report_lines_roundtrip():
    rep = enumerate_rigid(4)
    for line in rep.to_lines():
        order_text, tuple_text = line.split(":")
        m = parse(tuple_text)
        assert m.order == int(order_text)
        assert canonicalize(m) in set(rep.items)
