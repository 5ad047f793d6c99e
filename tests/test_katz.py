import itertools
import math
import random
from fractions import Fraction

import pytest

from midconv.katz import (
    Scheme,
    SchemeError,
    Verdict,
    WellDefinednessViolation,
    _sub_grids,
    classify,
    d_ell,
    dmax_value,
    ds_existence,
    nilpotent_realizable,
    partial_ell,
    partial_ell_raw,
    partial_max,
    reduce,
    reflect_by_rigid,
    special_family,
)
from midconv.spectype import (
    SpectralType,
    SpectralTypeError,
    canonicalize,
    idx,
    parse,
    pidx,
    unit_at,
)

from test_spectype import random_partition, random_tuple


def test_d_ell_examples():
    assert d_ell(parse("411,411,42,33"), (1, 1, 1, 1)) == 3
    assert d_ell(parse("111,111,111"), (1, 1, 1)) == 0
    assert d_ell(parse("21,21,111"), (1, 1, 1)) == 2


def test_d_ell_matches_idx_with_unit():
    rng = random.Random(2)
    for _ in range(200):
        m = random_tuple(rng)
        ells = tuple(
            rng.randint(1, len(row) + 1) for row in m.partitions
        )
        assert d_ell(m, ells) == idx(m, unit_at(ells))


def test_partial_ell_examples():
    assert partial_ell(parse("411,411,42,33"), (1, 1, 1, 1)) == parse(
        "21,111,111"
    )
    assert partial_ell(parse("211,211,211,31"), (1, 1, 1, 1)) == canonicalize(
        parse("111,111,111,21")
    )
    with pytest.raises(WellDefinednessViolation) as err:
        partial_ell(parse("21,21,111"), (1, 1, 1))
    assert err.value.position == 2
    assert err.value.defect == 2


def test_partial_ell_raw_keeps_positions():
    raw = partial_ell_raw(parse("411,411,42,33"), (1, 1, 1, 1))
    assert raw.partitions == ((1, 1, 1), (1, 1, 1), (1, 2), (3,))


def test_partial_ell_involution_when_no_column_vanishes():
    rng = random.Random(4)
    count = 0
    while count < 200:
        m = random_tuple(rng, max_order=9)
        ells = tuple(rng.randint(1, len(row)) for row in m.partitions)
        d = d_ell(m, ells)
        if not all(m.part(j, l) > max(d, 0) for j, l in enumerate(ells)):
            continue
        once = partial_ell_raw(m, ells)
        assert idx(once) == idx(m)
        assert once.order == m.order - d
        again = partial_ell_raw(once, ells)
        assert again == m
        count += 1


def test_partial_max_examples():
    ells, out = partial_max(parse("211,211,1111"))
    assert ells == (1, 1, 1)
    assert out == parse("111,111,111")

    m = canonicalize(parse("111,111,111,21"))
    ells, out = partial_max(m)
    assert d_ell(m, ells) == -1
    assert out == m

    one = parse("1")
    assert partial_max(one) == ((1,), one)


def test_reduce_chain_rigid():
    trace = reduce(parse("411,411,42,33"))
    assert trace.verdict is Verdict.RIGID
    assert trace.d_values() == (3, 1, 1)
    assert [canonicalize(s.m) for s in trace.steps] == [
        canonicalize(parse(t))
        for t in ("411,411,42,33", "111,111,21", "11,11,11")
    ]
    assert trace.terminal == parse("1")


def test_reduce_chain_fixed_point():
    trace = reduce(parse("211,211,1111"))
    assert trace.verdict is Verdict.REALIZABLE_NOT_RIGID
    assert trace.d_values() == (1, 0)
    assert trace.terminal == parse("111,111,111")


def test_reduce_chain_negative_defect():
    trace = reduce(parse("211,211,211,31"))
    assert trace.verdict is Verdict.REALIZABLE_NOT_RIGID
    assert trace.d_values() == (1, -1)
    assert trace.terminal == canonicalize(parse("111,111,111,21"))


def test_reduce_chain_not_realizable():
    trace = reduce(parse("22,22,1111"))
    assert trace.verdict is Verdict.NOT_REALIZABLE
    assert trace.d_values() == (1, 2)
    assert trace.terminal == parse("21,21,111")


def test_reduce_divisible():
    assert reduce(parse("22,22,22")).verdict is Verdict.NOT_REALIZABLE
    assert reduce(parse("22,22,22,22")).verdict is Verdict.NOT_REALIZABLE
    big = parse("22,22,22,22,22")  # twice a basic tuple of index -2
    assert reduce(big).verdict is Verdict.REALIZABLE_NOT_RIGID


def test_classify_examples():
    c = classify(parse("22,22,22"))
    assert not c.indivisible and not c.irreducibly_realizable

    c = classify(parse("211,211,1111"))
    assert c.irreducibly_realizable and not c.rigid and not c.basic
    assert not c.fundamental

    c = classify(parse("222,222,2211"))
    assert c.basic and c.fundamental and c.irreducibly_realizable

    assert classify(parse("11,11,11")).rigid
    assert classify(parse("1")).rigid
    assert not classify(parse("11,11,11")).basic

    doubled = parse("22,22,22,22,22")
    c = classify(doubled)
    assert c.fundamental and not c.basic and c.irreducibly_realizable


def test_classify_reads_the_canonical_form_from_the_trace():
    # unsorted rows, zero parts and trivial rows, given as stored tuples
    rng = random.Random(25)
    cases = [
        SpectralType([(1, 2), (0, 2, 1), (3,), (1, 1, 1)], trim=False),
        SpectralType([(1, 0, 1), (2, 0), (1, 1)], trim=False),
        SpectralType([(4,), (1, 3), (2, 2), (3, 1), (1, 1, 2)], trim=False),
    ]
    for _ in range(300):
        m = random_tuple(rng)
        rows = [list(row) + [0] * rng.randrange(2) for row in m.partitions]
        rows.append([m.order])
        for row in rows:
            rng.shuffle(row)
        rng.shuffle(rows)
        cases.append(SpectralType(rows, trim=False))
    for m in cases:
        assert m != canonicalize(m)
        trace = reduce(m)
        assert trace.start == canonicalize(m)
        assert classify(m, trace) == classify(m)


def test_trace_json():
    data = reduce(parse("22,22,1111")).to_json()
    assert data["verdict"] == "not-realizable"
    assert [s["d"] for s in data["steps"]] == [1, 2]
    assert all({"m", "ell", "d"} <= set(s) for s in data["steps"])


def test_reflect_by_rigid():
    m = parse("211,211,1111")
    assert reflect_by_rigid(m, parse("11,11,11")) == m

    out = reflect_by_rigid(parse("11,11,11"), parse("1,1,1", trim=False))
    assert canonicalize(out) == parse("1")

    out = reflect_by_rigid(
        parse("211,211,211,31"), parse("1,1,1,1", trim=False)
    )
    assert out == parse("111,111,111,21")

    with pytest.raises(SpectralTypeError):
        reflect_by_rigid(parse("11,11,11"), parse("111,111,111"))


def test_special_family():
    assert special_family("D4", 1) == parse("11,11,11,11")
    assert special_family("D4", 2) == parse("211,22,22,22")
    assert special_family("E8", 1) == parse("111111,222,33")
    assert canonicalize(special_family("E8", 3)) == canonicalize(
        parse("3333321,666,99")
    )
    for kind, unit in (("D4", 2), ("E6", 3), ("E7", 4), ("E8", 6)):
        for scale in (1, 2, 3):
            fam = special_family(kind, scale)
            assert fam.order == unit * scale
            assert idx(fam) == 2 - 2 * scale
            assert classify(fam).basic


def test_nilpotent_realizable():
    assert nilpotent_realizable(parse("11,11,11,11"))
    assert not nilpotent_realizable(parse("211,22,22,22"))
    assert not nilpotent_realizable(parse("11,11,11"))
    assert nilpotent_realizable(parse("1"))
    assert nilpotent_realizable(parse("111,111,111"))


def _weighted(grid, weights):
    return sum(c * w for row, wrow in zip(grid, weights) for c, w in zip(row, wrow))


def _all_sub_rows(row):
    return list(itertools.product(*(range(p + 1) for p in row)))


def _brute_sub_grids(rows, weights, target, fixed):
    """Every sub-grid whose rows share a sum s with 0 < s < order, by plain
    products over each row's entries, filtered by pins and total."""
    subs = [_all_sub_rows(row) for row in rows]
    out = []
    for s in range(1, sum(rows[0])):
        for grid in itertools.product(*([r for r in rs if sum(r) == s] for rs in subs)):
            if all(grid[j][c] == v for j, c, v in fixed) and (
                _weighted(grid, weights) == target
            ):
                out.append(grid)
    return sorted(out)


def test_sub_grids_match_brute_force():
    # signed weights exercise the lo/hi pruning both ways; a row of one
    # constant weight puts all its sub-rows of a sum into one value group;
    # half the targets and pins come from a drawn sub-grid of any size,
    # empty and full too
    rng = random.Random(22)
    cases = matched = 0
    while cases < 400:
        n = rng.randint(2, 7)
        rows = [random_partition(rng, n) for _ in range(rng.randint(2, 5))]
        if math.prod(p + 1 for row in rows for p in row) > 20000:
            continue
        weights = [
            [rng.randint(-9, 9)] * len(row)
            if rng.random() < 0.3
            else [rng.randint(-9, 9) for _ in row]
            for row in rows
        ]
        if rng.random() < 0.5:
            s = rng.randint(0, n)
            drawn = [
                rng.choice([r for r in _all_sub_rows(row) if sum(r) == s])
                for row in rows
            ]
            target = _weighted(drawn, weights)
        else:
            drawn = [tuple(rng.randint(0, p) for p in row) for row in rows]
            target = rng.randint(-40, 40)
        fixed = []
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(len(rows))
            c = rng.randrange(len(rows[j]))
            fixed.append((j, c, drawn[j][c]))
        got = _sub_grids(rows, weights, target, fixed)
        sizes = [sum(g[0]) for g in got]
        assert sizes == sorted(sizes)
        want = _brute_sub_grids(rows, weights, target, fixed)
        assert sorted(got) == want, (rows, weights, target, fixed)
        matched += bool(want)
        cases += 1
    assert matched > 100


def h2_scheme(lam1, lam2, mu0, mu1, mu2):
    lam1, lam2, mu0, mu1, mu2 = map(Fraction, (lam1, lam2, mu0, mu1, mu2))
    table = (
        (-lam1 - lam2 - mu0 + mu1 + mu2, -mu0),
        (lam1 + mu0 - mu1 + mu2, -mu1),
        (lam2 + mu0 + mu1 - mu2, -mu2),
    )
    return Scheme(parse("11,11,11"), table)


def test_ds_existence_generic_hypergeometric():
    rng = random.Random(17)
    hits = 0
    while hits < 10:
        vals = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(5)]
        lam1, lam2, mu0, mu1, mu2 = vals
        if (
            lam1 == mu1
            or lam2 == mu2
            or lam1 + lam2 + mu0 == 0
            or mu0 + mu1 + mu2 == 0
        ):
            continue
        assert ds_existence(h2_scheme(*vals))
        hits += 1


def test_ds_existence_degenerate_hypergeometric():
    # forcing lam1 == mu1 kills irreducible realizability
    assert not ds_existence(h2_scheme(3, 5, 7, 3, 2))
    # and so does a vanishing parameter total
    assert not ds_existence(h2_scheme(3, 5, 7, 4, -11))


def test_ds_existence_order_one():
    s = Scheme(
        parse("1,1,1", trim=False),
        ((Fraction(2),), (Fraction(3),), (Fraction(-5),)),
    )
    assert ds_existence(s)


def test_ds_existence_errors():
    s = Scheme(parse("11,11,11"), ((1, 2), (3, 4), (5, 6)))
    with pytest.raises(SchemeError):
        ds_existence(s)  # trace is not zero
    with pytest.raises(SchemeError):
        ds_existence(h2_scheme(1, 2, 3, 4, 5), bound=1)


def test_scheme_validation():
    with pytest.raises(SchemeError):
        Scheme(parse("11,11,11"), ((1,), (2,), (3,)))
    generic = Scheme.generic(parse("11,11,11"))
    assert not generic.is_constant()
    with pytest.raises(SchemeError):
        generic.constant_table()
