import random

import pytest

from midconv.spectype import (
    SpectralType,
    SpectralTypeError,
    canonicalize,
    divide,
    dominance_leq,
    gcd_of,
    idx,
    is_canonical,
    parse,
    pidx,
    scale_add,
    to_text,
    unit_at,
)


def test_parse_simple():
    m = parse("11,11,11")
    assert m.partitions == ((1, 1), (1, 1), (1, 1))
    assert m.order == 2


def test_parse_four_partitions():
    m = parse("411,411,42,33")
    assert m.npart == 4
    assert m.order == 6


def test_parse_extended_form():
    m = parse("10 1,10 1,2 2 2 2 2 1")
    assert m.order == 11
    assert m.partitions[0] == (10, 1)
    assert to_text(m) == "10 1,10 1,2 2 2 2 2 1"


@pytest.mark.parametrize(
    "bad", ["", "11,111", "11,1x", "0,0", "101,2", "11,,11", "  "]
)
def test_parse_errors(bad):
    with pytest.raises(SpectralTypeError):
        parse(bad)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "a spectral type needs at least one partition"),
        ([()], "empty partition"),
        ([(3, -1)], "negative part in (3, -1)"),
        ([(2,), (1, 1, 1)], "partitions have different sums: [2, 3]"),
        ([(0,)], "order must be at least 1"),
    ],
)
def test_constructor_errors(rows, message):
    # parse rejects zero parts first, so only direct construction gets here
    with pytest.raises(SpectralTypeError) as info:
        SpectralType(rows)
    assert str(info.value) == message


def test_parse_trims_trivial_partitions():
    assert parse("111,111,21,3") == parse("111,111,21")
    assert parse("111,111,21,3", trim=False).npart == 4


def test_text_roundtrip():
    for text in ["11,11,11", "411,411,42,33", "1"]:
        assert to_text(parse(text)) == text


def test_canonicalize_drops_trivial():
    m = parse("111,111,21,3", trim=False)
    c = canonicalize(m)
    assert c == parse("21,111,111")
    assert is_canonical(c)


def test_canonicalize_sorts():
    assert canonicalize(parse("1111,31,1111")) == parse("31,1111,1111")


def test_canonicalize_zero_removal_to_unit():
    raw = SpectralType(((0, 1), (0, 1), (0, 1)), trim=False)
    assert canonicalize(raw) == parse("1")


def test_canonical_idempotent_random():
    rng = random.Random(7)
    for _ in range(300):
        m = random_tuple(rng)
        c = canonicalize(m)
        assert canonicalize(c) == c


def test_idx_examples():
    m = parse("11,11,11")
    assert idx(m, m) == 2
    five = parse("11,11,11,11,11")
    assert idx(five) == -2
    assert idx(parse("411,411,42,33"), unit_at((1, 1, 1, 1))) == 3


def test_idx_pads_with_trivial_partitions():
    a = parse("11,11,11")
    b = parse("11,11,11,2", trim=False)
    assert idx(a, a) == idx(b, b) == idx(a, b)


def test_pidx():
    assert pidx(parse("11,11,11")) == 0
    assert pidx(parse("111,111,111")) == 1
    assert pidx(parse("11,11,11,11,11")) == 2


def test_scale_add_scaling():
    assert scale_add(2, parse("11,11,11"), 0, parse("1")) == parse("22,22,22")


def test_scale_add_units():
    a = SpectralType(((0, 1), (1, 0), (1, 0)), trim=False)
    b = SpectralType(((1, 0), (0, 1), (0, 1)), trim=False)
    s = scale_add(1, a, 1, b)
    assert s == parse("11,11,11")
    assert idx(a.strip_zeros()) == 2
    assert idx(b.strip_zeros()) == 2


def test_scale_add_identity():
    m = parse("211,211,1111")
    assert scale_add(1, m, 0, parse("1")) == m


def test_scale_add_misaligned():
    with pytest.raises(SpectralTypeError):
        scale_add(1, parse("21,21,21"), 1, parse("111,111,111"))


def test_gcd():
    assert gcd_of(parse("22,22,22")) == 2
    assert gcd_of(parse("211,211,1111")) == 1
    assert gcd_of(parse("1")) == 1
    assert divide(parse("22,22,22"), 2) == parse("11,11,11", trim=False)


def test_dominance():
    assert dominance_leq((2, 1, 1), (3, 1))
    assert not dominance_leq((3, 1), (2, 1, 1))
    assert dominance_leq((2, 2), (2, 2))
    with pytest.raises(SpectralTypeError):
        dominance_leq((2, 1), (3, 1))
    with pytest.raises(SpectralTypeError):
        dominance_leq((1, 2), (2, 1))


def test_unit_at():
    u = unit_at((1, 2, 1))
    assert u.partitions == ((1,), (0, 1), (1,))
    assert u.order == 1


def random_partition(rng, n):
    parts = []
    left = n
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return tuple(parts)


def random_tuple(rng, max_order=8, max_rows=4):
    n = rng.randint(1, max_order)
    rows = rng.randint(1, max_rows)
    return SpectralType(
        (random_partition(rng, n) for _ in range(rows)), trim=False
    )


def test_idx_symmetry_and_bilinearity_random():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 8)
        rows = rng.randint(1, 4)
        a = SpectralType((random_partition(rng, n) for _ in range(rows)), trim=False)
        b = SpectralType((random_partition(rng, n) for _ in range(rows)), trim=False)
        c = SpectralType((random_partition(rng, n) for _ in range(rows)), trim=False)
        assert idx(a, b) == idx(b, a)
        # align columns by zero padding before adding
        padded = []
        for p, q in zip(a.partitions, c.partitions):
            width = max(len(p), len(q))
            padded.append(
                (
                    p + (0,) * (width - len(p)),
                    q + (0,) * (width - len(q)),
                )
            )
        a_pad = SpectralType((r[0] for r in padded), trim=False)
        c_pad = SpectralType((r[1] for r in padded), trim=False)
        s = scale_add(1, a_pad, 1, c_pad)
        assert idx(s, b) == idx(a, b) + idx(c, b)
