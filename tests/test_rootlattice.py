import random
from fractions import Fraction

import pytest

from midconv.rootlattice import (
    RootClass,
    RootLatticeError,
    RootVector,
    classify_root,
    inner,
    reflect,
    reflect_by,
    root_of,
    simple_root,
    star_norm,
    tuple_of,
)
from midconv.spectype import SpectralType, canonicalize, idx, parse, unit_at

from test_spectype import random_tuple


def test_root_of_examples():
    a = root_of(parse("11,11,11"))
    assert a == RootVector(2, {(0, 1): 1, (1, 1): 1, (2, 1): 1}.items())
    assert inner(a, a) == 2

    b = root_of(parse("111,111,111"))
    assert b.a0 == 3
    assert b.as_dict() == {
        (0, 1): 2, (0, 2): 1, (1, 1): 2, (1, 2): 1, (2, 1): 2, (2, 2): 1,
    }
    assert inner(b, b) == 0

    assert root_of(parse("1")) == RootVector(1)


def test_tuple_of_inverse():
    a = RootVector(2, {(0, 1): 1, (1, 1): 1, (2, 1): 1}.items())
    assert tuple_of(a) == parse("11,11,11")
    assert tuple_of(RootVector(1)) == parse("1")
    with pytest.raises(RootLatticeError):
        tuple_of(RootVector(1, {(0, 1): 2}.items()))


def test_root_vector_rejects_non_integers():
    for a0, coeffs, bad in [
        (2.5, {(0, 1): 1}, "2.5"),
        (2, {(0, 1): 1.9}, "1.9"),
        (2, {(0, "1"): 1}, "'1'"),
    ]:
        with pytest.raises(RootLatticeError) as info:
            RootVector(a0, coeffs.items())
        assert str(info.value) == "non-integer entry %s" % bad
    assert RootVector(True, {(0, 1): True}.items()).to_json() == {
        "a0": 1, "coeffs": [[0, 1, 1]]
    }


def test_inner_cartan_values():
    a0 = simple_root(0)
    assert inner(a0, a0) == 2
    assert inner(a0, simple_root((3, 1))) == -1
    assert inner(a0, simple_root((3, 2))) == 0
    assert inner(simple_root((1, 2)), simple_root((1, 3))) == -1
    assert inner(simple_root((1, 2)), simple_root((2, 2))) == 0
    m = parse("211,1111,1111")
    assert inner(root_of(m), root_of(m)) == -2


def test_reflect_center():
    b = root_of(parse("111,111,111"))
    assert reflect(b, 0) == b
    a = root_of(parse("11,11,11"))
    r = reflect(a, 0)
    assert r == RootVector(1, {(0, 1): 1, (1, 1): 1, (2, 1): 1}.items())
    assert r == root_of(SpectralType(((0, 1), (0, 1), (0, 1))))


def test_reflect_involution_random():
    rng = random.Random(3)
    for _ in range(200):
        a = root_of(random_tuple(rng))
        for node in [0, (0, 1), (1, 2), (2, 1)]:
            assert reflect(reflect(a, node), node) == a
        b = root_of(random_tuple(rng))
        assert inner(reflect(a, (0, 1)), reflect(b, (0, 1))) == inner(a, b)


def test_reflect_by():
    m = parse("411,411,42,33")
    ell = unit_at((1, 1, 1, 1))
    out = reflect_by(root_of(m), root_of(ell))
    # raw reduction output with the emptied column kept in place
    raw = SpectralType(((1, 1, 1), (1, 1, 1), (1, 2), (0, 3)))
    assert out == root_of(raw)
    assert canonicalize(tuple_of(out)) == parse("21,111,111")
    # orthogonal vector is fixed
    a = root_of(parse("211,211,1111"))
    b = root_of(parse("11,11,11"))
    assert inner(a, b) == 0
    assert reflect_by(a, b) == a
    # reflecting by the central simple root agrees with reflect(.., 0)
    c = root_of(parse("21,21,111"))
    assert reflect_by(c, RootVector(1)) == reflect(c, 0)
    with pytest.raises(RootLatticeError):
        reflect_by(a, root_of(parse("111,111,111")))


def test_dictionary_random():
    rng = random.Random(5)
    for _ in range(400):
        m = random_tuple(rng)
        m2 = random_tuple(rng)
        assert inner(root_of(m), root_of(m2)) == idx(m, m2)
        clean = m.strip_zeros()
        # the lattice vector cannot see trailing trivial partitions
        rows = list(clean.partitions)
        while len(rows) > 1 and rows[-1] == (clean.order,):
            rows.pop()
        assert tuple_of(root_of(clean)) == SpectralType(rows)


def test_swap_reflection_matches_leg_reflection():
    rng = random.Random(9)
    for _ in range(200):
        m = random_tuple(rng)
        j = rng.randrange(m.npart)
        row = m.partitions[j]
        v = rng.randint(1, len(row))
        padded = row + (0,) * (v + 1 - len(row))
        swapped = list(padded)
        swapped[v - 1], swapped[v] = swapped[v], swapped[v - 1]
        rows = list(m.partitions)
        rows[j] = tuple(swapped)
        m_swapped = SpectralType(rows)
        assert reflect(root_of(m), (j, v)) == root_of(m_swapped)


def test_unit_tuple_root_as_reflection_product():
    ells = (3, 1, 2)
    a = root_of(unit_at(ells))
    expected = RootVector(1, {(0, 1): 1, (0, 2): 1, (2, 1): 1}.items())
    assert a == expected
    cur = RootVector(1)
    for j, l in enumerate(ells):
        for v in range(1, l):
            cur = reflect(cur, (j, v))
    assert cur == a


def test_classify_examples():
    assert classify_root(root_of(parse("11,11,11"))) is RootClass.REAL_POSITIVE
    assert (
        classify_root(root_of(parse("111,111,111")))
        is RootClass.IMAGINARY_POSITIVE
    )
    disconnected = RootVector(0, {(0, 1): 1, (1, 1): 1}.items())
    assert classify_root(disconnected) is RootClass.NOT_A_ROOT


def test_classify_signs_and_simple():
    assert classify_root(RootVector(1)) is RootClass.REAL_POSITIVE
    assert classify_root(-root_of(parse("11,11,11"))) is RootClass.REAL_NEGATIVE
    assert (
        classify_root(-root_of(parse("111,111,111")))
        is RootClass.IMAGINARY_NEGATIVE
    )
    assert classify_root(RootVector(0)) is RootClass.NOT_A_ROOT
    assert classify_root(RootVector(2)) is RootClass.NOT_A_ROOT
    mixed = RootVector(1, {(0, 1): -1}.items())
    assert classify_root(mixed) is RootClass.NOT_A_ROOT


def test_classify_weyl_invariance():
    rng = random.Random(13)
    for text in ["11,11,11", "111,111,111", "211,1111,1111", "21,21,111"]:
        a = root_of(parse(text))
        base = classify_root(a)
        cur = a
        for _ in range(12):
            node = rng.choice([0, (0, 1), (0, 2), (1, 1), (2, 1), (2, 2)])
            cur = reflect(cur, node)
            got = classify_root(cur)
            if base.is_root:
                assert got.is_root
                real = base in (RootClass.REAL_POSITIVE, RootClass.REAL_NEGATIVE)
                got_real = got in (RootClass.REAL_POSITIVE, RootClass.REAL_NEGATIVE)
                assert real == got_real
            else:
                assert got is RootClass.NOT_A_ROOT


def test_star_norm():
    assert star_norm((1, 1, 1, 1)) == 0
    assert star_norm((2, 2, 2)) == 0
    assert star_norm((3, 3, 1)) == 0
    assert star_norm((5, 2, 1)) == 0
    assert star_norm((4, 2, 1)) > 0
    assert star_norm((2, 2, 1)) > 0
    assert star_norm((6, 2, 1)) < 0
    assert star_norm((1, 1)) == Fraction(1)
    with pytest.raises(RootLatticeError):
        star_norm(())


def test_json_rendering():
    a = root_of(parse("11,11,11"))
    assert a.to_json() == {"a0": 2, "coeffs": [[0, 1, 1], [1, 1, 1], [2, 1, 1]]}
