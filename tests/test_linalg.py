"""Differential tests of the exact matrix kernel against plain Fraction
Gauss-Jordan written here, on seeded matrices from 1x1 up to 8x12."""

import random
from fractions import Fraction

import pytest

from midconv.linalg import LinAlgError, RationalMatrix

ZERO, ONE = Fraction(0), Fraction(1)


def ref_rref(rows):
    """Reduced row echelon form and pivot columns, by Fraction Gauss-Jordan."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(r) for r in m], tuple(pivots)


def ref_nullspace(rows):
    red, pivots = ref_rref(rows)
    basis = []
    for f in (c for c in range(len(rows[0])) if c not in pivots):
        vec = [ZERO] * len(rows[0])
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(tuple(vec))
    return basis


def ref_product(a, b):
    return [
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b))
        for row in a
    ]


def ref_det(rows):
    """Determinant by Fraction elimination with row swaps."""
    m = [list(r) for r in rows]
    det = ONE
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def entry(rng, num_bits, max_den, density):
    if rng.random() > density:
        return ZERO
    return Fraction(rng.randint(-(1 << num_bits), 1 << num_bits), rng.randint(1, max_den))


def random_rows(rng, nr, nc, num_bits, max_den, density):
    return [[entry(rng, num_bits, max_den, density) for _ in range(nc)] for _ in range(nr)]


def seeded_matrices(seed, count):
    """Dense, sparse, zero-padded and rank-deficient matrices with small and
    huge numerators and denominators; entries of both signs."""
    rng = random.Random("test_linalg:%d" % seed)
    out = []
    for _ in range(count):
        nr, nc = rng.randint(1, 8), rng.randint(1, 12)
        num_bits, max_den = rng.choice([(3, 1), (4, 7), (20, 10**6), (80, 10**6), (80, 1)])
        density = rng.choice([1.0, 0.6, 0.3])
        kind = rng.randrange(3)
        if kind == 0:
            rows = random_rows(rng, nr, nc, num_bits, max_den, density)
        elif kind == 1:  # zero rows and zero columns
            rows = random_rows(rng, nr, nc, num_bits, max_den, density)
            for i in rng.sample(range(nr), rng.randint(0, nr // 2)):
                rows[i] = [ZERO] * nc
            for j in rng.sample(range(nc), rng.randint(0, nc // 2)):
                for row in rows:
                    row[j] = ZERO
        else:  # rank-deficient product of thin factors
            k = rng.randint(1, max(1, min(nr, nc) - 1))
            rows = ref_product(random_rows(rng, nr, k, num_bits, max_den, density),
                               random_rows(rng, k, nc, num_bits, max_den, density))
        out.append([tuple(r) for r in rows])
    return out


def charpoly_value(coeffs, t):
    value = ZERO
    for c in coeffs:
        value = value * t + c
    return value


@pytest.mark.parametrize("seed", range(4))
def test_kernel_agrees_with_fraction_gauss_jordan(seed):
    rng = random.Random(seed)
    for rows in seeded_matrices(seed, 60):
        a = RationalMatrix(rows)
        red, pivots = ref_rref(rows)
        assert a.rank() == len(pivots)
        assert a.rref() == (RationalMatrix(red), pivots)
        assert a.nullspace() == ref_nullspace(rows)
        other = random_rows(rng, a.ncols, rng.randint(1, 9), 40, 10**6, 0.7)
        assert (a @ RationalMatrix(other)).rows == tuple(ref_product(rows, other))
        if a.is_square():
            n = a.nrows
            coeffs = a.charpoly()
            assert len(coeffs) == n + 1 and coeffs[0] == 1
            for t in range(n + 1):  # n + 1 values fix a degree-n polynomial
                shifted = [[t * (i == j) - x for j, x in enumerate(row)]
                           for i, row in enumerate(rows)]
                assert charpoly_value(coeffs, t) == ref_det(shifted)
            if len(pivots) == n:
                ident = [tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)]
                aug, _ = ref_rref([r + i for r, i in zip(rows, ident)])
                assert a.inverse().rows == tuple(r[n:] for r in aug)
            else:
                with pytest.raises(LinAlgError):
                    a.inverse()


def test_seeded_matrices_cover_the_cases():
    mats = [m for s in range(4) for m in seeded_matrices(s, 60)]
    shapes = {(len(m), len(m[0])) for m in mats}
    assert any(r > c for r, c in shapes) and any(r < c for r, c in shapes)
    assert any(len(m) == len(m[0]) > 4 and len(ref_rref(m)[1]) == len(m) for m in mats)
    assert any(next((x for x in m[0] if x), 0) < 0 for m in mats)  # negative first pivot
    assert any(len(ref_rref(m)[1]) < min(len(m), len(m[0])) for m in mats)
    assert any(abs(x.numerator) > 1 << 79 for m in mats for row in m for x in row)
    assert any(x.denominator > 10**5 for m in mats for row in m for x in row)
    assert any(not any(row) for m in mats for row in m)


def test_sum_and_difference_need_equal_shapes():
    a = RationalMatrix([[1, 2], [3, 4]])
    for b in ([[1]], [[1, 2, 3], [4, 5, 6]], [[1, 2]], [[1, 2], [3, 4], [5, 6]]):
        with pytest.raises(LinAlgError):
            a + RationalMatrix(b)
        with pytest.raises(LinAlgError):
            a - RationalMatrix(b)
    assert a + a == a.scale(2)
    assert (a - a).is_zero()
