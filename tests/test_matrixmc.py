import random
from fractions import Fraction

import pytest

from midconv import matrixmc
from midconv.enumeration import enumerate_rigid
from midconv.katz import Scheme
from midconv.linalg import LinAlgError, RationalMatrix, vstack
from midconv.matrixmc import (
    DegenerateSchemeError,
    IrrationalEigenvalueError,
    MatrixTuple,
    McAssumptionError,
    addition,
    centralizer_dim,
    check_mc_assumptions,
    construct_rigid,
    construct_rigid_random,
    convolution,
    expected_spectral_data,
    joint_centralizer_dim,
    jordan_cell,
    middle_convolution,
    normal_form,
    orbit_dims,
    random_scheme,
    rational_eigenvalues,
    _commutator_matrix,
    _filtration,
    scheme_of,
    spectral_data_of,
    tuple_spectral_data,
)
from midconv.spectype import InvariantError, parse
from test_acceptance import _predicted_output


def frac(a, b=1):
    return Fraction(a, b)


def scalar_tuple(*vals):
    return MatrixTuple([RationalMatrix([[Fraction(v)]]) for v in vals])


def test_matrix_entries_are_exact():
    third = Fraction(1, 3)
    m = RationalMatrix([[third, "1/3"], [2, Fraction(4, 2)]])
    assert m.rows[0][0] is third
    assert m.rows == ((third, third), (Fraction(2), Fraction(2)))
    with pytest.raises(LinAlgError):
        RationalMatrix([[0.5]])
    with pytest.raises(LinAlgError):
        m.scale(0.5)


def test_normal_form_printed_example():
    l1, l2, l3 = frac(5), frac(7), frac(11)
    m = normal_form((2, 1, 1), (l1, l2, l3))
    assert m == RationalMatrix(
        [
            [l1, 0, 1, 0],
            [0, l1, 0, 0],
            [0, 0, l2, 1],
            [0, 0, 0, l3],
        ]
    )


def test_normal_form_small():
    assert normal_form((1, 1), (frac(2), frac(3))) == RationalMatrix(
        [[2, 1], [0, 3]]
    )
    assert normal_form((3,), (frac(4),)) == RationalMatrix.identity(3).scale(4)
    # non-monotone parts are sorted together with their eigenvalues
    assert normal_form((1, 2), (frac(9), frac(4))) == normal_form(
        (2, 1), (frac(4), frac(9))
    )


def test_jordan_cell():
    assert jordan_cell(3, 0) == RationalMatrix(
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    )


def test_rational_eigenvalues():
    a = normal_form((2, 1), (frac(1, 2), frac(-3)))
    assert rational_eigenvalues(a) == {frac(1, 2): 2, frac(-3): 1}
    rotation = RationalMatrix([[0, -1], [1, 0]])
    with pytest.raises(IrrationalEigenvalueError):
        rational_eigenvalues(rotation)


def _companion(roots, quadratics=()):
    """Companion matrix of prod (x - r) times the monic quadratics
    x^2 + b x + c given as (b, c)."""
    coeffs = [Fraction(1)]
    factors = [(-r,) for r in roots] + [tuple(q) for q in quadratics]
    for f in factors:
        f = (Fraction(1),) + tuple(Fraction(x) for x in f)
        prod = [Fraction(0)] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        coeffs = prod
    n = len(coeffs) - 1
    return RationalMatrix(
        [[Fraction(int(i == j + 1)) for j in range(n - 1)] + [-coeffs[n - i]]
         for i in range(n)]
    )


def test_rational_eigenvalues_random_products():
    rng = random.Random(2024)
    for _ in range(150):
        want = {}
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.15:
                root = Fraction(0)
            else:
                root = Fraction(rng.randint(-10 ** 8, 10 ** 8), rng.randint(1, 97))
            want[root] = want.get(root, 0) + rng.randint(1, 3)
        roots = [r for r, m in want.items() for _ in range(m)]
        rng.shuffle(roots)
        assert rational_eigenvalues(_companion(roots)) == want


def test_rational_eigenvalues_irreducible_quadratics():
    rng = random.Random(2025)
    squares = {k * k for k in range(100)}
    done = 0
    while done < 60:
        roots = [Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                 for _ in range(rng.randint(0, 3))]
        b, c = rng.randint(-9, 9), rng.randint(-40, 40)
        if c in squares or b * b - 4 * c in squares:
            continue
        for quadratic in ((0, -c), (b, c)):  # x^2 - c and x^2 + b x + c
            with pytest.raises(IrrationalEigenvalueError):
                rational_eigenvalues(_companion(roots, [quadratic]))
        done += 1


def test_spectral_data_jordan_structure():
    mu = frac(3)
    a = normal_form((2, 1, 1), (mu, mu, mu))
    data = spectral_data_of(a)
    assert data.entries == ((mu, (2, 1, 1)),)

    d = RationalMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    assert spectral_data_of(d).entries == (
        (frac(2), (2,)),
        (frac(5), (1,)),
    )


def test_spectral_data_conjugation_invariant():
    rng = random.Random(23)
    a = normal_form((2, 2, 1), (frac(1), frac(-2), frac(1)))
    base = spectral_data_of(a)
    n = a.nrows
    for _ in range(5):
        while True:
            g = RationalMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            if g.rank() == n:
                break
        conj = g @ a @ g.inverse()
        assert spectral_data_of(conj) == base


def test_spectral_data_roundtrip_normal_form():
    rng = random.Random(31)
    for _ in range(20):
        count = rng.randint(1, 3)
        parts = sorted((rng.randint(1, 3) for _ in range(count)), reverse=True)
        eigs = rng.sample(range(-6, 7), count)
        a = normal_form(parts, [Fraction(e) for e in eigs])
        assert spectral_data_of(a) == expected_spectral_data(parts, eigs)


def test_filtration_proves_jordan_structure():
    e = frac(2, 3)
    # right eigenvalue and multiplicity, one Jordan block instead of e * I
    assert _filtration(jordan_cell(2, e), e, 2) == (1, 1) != (2,)
    assert _filtration(RationalMatrix.identity(2).scale(e), e, 2) == (2,)
    # a value that is not an eigenvalue stops at once instead of looping
    assert _filtration(jordan_cell(2, e), frac(5), 2) == ()
    assert _filtration(normal_form((2, 1), (e, frac(5))), frac(-1), 3) == ()


def test_construct_rigid_rejects_wrong_jordan_structure(monkeypatch):
    # the double eigenvalue of A_0 on 21,111,111 is semisimple; asking for
    # a Jordan block there must fail although the multiplicities agree
    scheme = random_scheme(parse("21,111,111"), random.Random(3), num_range=40)
    construct_rigid(scheme)
    real = matrixmc.expected_spectral_data

    def jordan_first(parts, eigvals):
        data = real(parts, eigvals)
        if tuple(parts) != (2, 1):
            return data
        return matrixmc.SpectralData(tuple(
            (e, (1, 1) if p == (2,) else p) for e, p in data.entries
        ))

    monkeypatch.setattr(matrixmc, "expected_spectral_data", jordan_first)
    with pytest.raises(DegenerateSchemeError, match="spectral data mismatch"):
        construct_rigid(scheme)


def test_constructed_tuple_facts_need_no_recomputation(monkeypatch):
    scheme, at = construct_rigid_random(parse("111,111,21"), random.Random(9))

    def refuse(self, *args):
        raise AssertionError("recomputed a fact of a constructed tuple")

    with monkeypatch.context() as m:
        m.setattr(RationalMatrix, "rank", refuse)
        m.setattr(RationalMatrix, "charpoly", refuse)
        dims = orbit_dims(at)
        data = tuple_spectral_data(at)
    fresh = MatrixTuple(at.matrices)
    assert dims == orbit_dims(fresh)
    assert (dims.dim_centralizer, dims.index, dims.pidx) == (1, 2, 0)
    assert data == tuple_spectral_data(fresh) == tuple(
        map(expected_spectral_data, scheme.shape.partitions,
            scheme.constant_table())
    )


# one round of the benchmark's matrix-mc workload at seed 1
# (perfbench/inputs.py, matrix_mc(1)): shape and construction seed
MATRIX_MC_SEED_1 = (
    ("211,211,211", 245555657), ("222,222,321", 519498264),
    ("111111,321,33", 465778971), ("221,221,221", 730777316),
    ("111111,111111,51", 202551594), ("222,3111,321", 566497782),
    ("3111,3111,321", 981535175), ("21111,222,411", 344827981),
    ("21111,2211,42", 894562953), ("2211,321,321", 235010734),
    ("11111,221,32", 510449535), ("1111,1111,31", 175331513),
    ("2211,2211,411", 410014668), ("21111,3111,33", 363186845),
    ("111111,222,42", 985731569), ("11111,11111,41", 752165515),
    ("21111,222,33", 334750880), ("2111,221,311", 128732046),
    ("2111,2111,32", 851295709), ("1111,211,22", 750220946),
    ("2211,2211,33", 617815812),
)


def test_irreducibility_by_construction_agrees_with_the_checks(monkeypatch):
    """Replays constructions and round trips with the checks an irreducible
    input skips: at every step the kernel/image conditions hold, and a tuple
    marked irreducible has dim Z = 1 when computed from its matrices."""
    real = matrixmc.middle_convolution
    seen = {"steps": 0, "marked": 0}

    def audited(at, mu, **kwargs):
        assert check_mc_assumptions(at, mu).ok
        out = real(at, mu, **kwargs)
        seen["steps"] += 1
        if "irreducible" in out._facts:
            seen["marked"] += 1
            assert joint_centralizer_dim(MatrixTuple(out.matrices)) == 1
        return out

    monkeypatch.setattr(matrixmc, "middle_convolution", audited)

    def round_trip(at, mu):
        forward = matrixmc.middle_convolution(at, mu)
        back = matrixmc.middle_convolution(forward, tuple(-x for x in mu))
        assert tuple_spectral_data(back) == tuple_spectral_data(at)
        assert "irreducible" in back._facts

    # the matrix-mc round: construction, then the parameters at the
    # eigenvalues of the first maximal columns, forward and back
    for text, seed in MATRIX_MC_SEED_1:
        shape = parse(text)
        scheme, at = construct_rigid_random(shape, random.Random(seed))
        assert "irreducible" in at._facts
        mu = tuple(lam[row.index(max(row))] for row, lam in
                   zip(shape.partitions, scheme.constant_table()))
        round_trip(at, mu)

    # drawn as criterion 5 draws: constructed tuples of order <= 6 with a
    # middle convolution of predicted order 1..7 and back
    shapes = [s for n in range(2, 7) for s in enumerate_rigid(n).items]
    rng = random.Random(2024)
    for draw in range(24):
        scheme, at = construct_rigid_random(
            shapes[draw % len(shapes)], random.Random(rng.randrange(1 << 30)),
            num_range=40,
        )
        lam_rows = scheme.constant_table()
        for _ in range(50):
            mu = tuple(
                rng.choice(row) if rng.random() < 0.6
                else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for row in lam_rows
            )
            predicted = _predicted_output(scheme.shape.partitions, lam_rows, mu)
            if predicted is not None and 1 <= predicted[1] <= 7:
                round_trip(at, mu)
                break
    assert seen["marked"] == seen["steps"] > 200


def test_reducible_tuples_are_never_marked(monkeypatch):
    checked = []
    real = matrixmc.check_mc_assumptions

    def spy(at, mu):
        checked.append(at)
        return real(at, mu)

    monkeypatch.setattr(matrixmc, "check_mc_assumptions", spy)
    at = scalar_tuple(-8, 3, 5)
    direct = MatrixTuple([RationalMatrix([[-4, 0], [0, -7]]),
                          RationalMatrix([[1, 0], [0, 2]]),
                          RationalMatrix([[3, 0], [0, 5]])])
    triangular = MatrixTuple([RationalMatrix([[-4, -1], [0, -7]]),
                              RationalMatrix([[1, 1], [0, 2]]),
                              RationalMatrix([[3, 0], [0, 5]])])
    built = [at, addition(at, (1, 2)), convolution(at, 3), direct, triangular]
    mu = (frac(1, 2), frac(1, 3), frac(1, 5))
    for tup in (direct, triangular):
        built.append(middle_convolution(tup, mu))
        assert checked[-1] is tup
    # the direct sum's convolution splits; the triangular tuple is reducible
    # although dim Z = 1, so dim Z alone could not have told it apart
    assert joint_centralizer_dim(built[-2]) == 2
    assert joint_centralizer_dim(triangular) == 1
    _, rigid = construct_rigid_random(parse("111,111,21"), random.Random(9))
    one = construct_rigid(Scheme(parse("1,1,1", trim=False),
                                 ((frac(2),), (frac(3),), (frac(-5),))))
    assert "irreducible" in rigid._facts and "irreducible" in one._facts
    built.append(middle_convolution(rigid, (1, 2, -3)))  # total 0
    built.append(middle_convolution(one, mu, check=False))
    assert "irreducible" in middle_convolution(one, mu)._facts
    assert not any("irreducible" in t._facts for t in built)


def test_joint_centralizer_needs_no_zeroth_block():
    rng = random.Random(17)

    def draw(n, k):
        mats = [RationalMatrix([[rng.randint(-2, 2) for _ in range(n)]
                                for _ in range(n)]) for _ in range(k)]
        total = mats[0]
        for m in mats[1:]:
            total = total + m
        return [-total] + mats

    def direct_sum(x, y):
        nx, ny = x.nrows, y.nrows
        return RationalMatrix(
            [list(r) + [0] * ny for r in x.rows]
            + [[0] * nx + list(r) for r in y.rows]
        )

    split = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        mats = draw(rng.randint(1, 3), k)
        if rng.random() < 0.5:
            mats = list(map(direct_sum, mats, draw(rng.randint(1, 2), k)))
        at = MatrixTuple(mats)
        old = at.size ** 2 - vstack([_commutator_matrix(m) for m in mats]).rank()
        assert joint_centralizer_dim(at) == old
        split += old > 1
    assert split >= 10


def test_centralizer_dims():
    a = normal_form((2, 1, 1), (frac(1), frac(2), frac(3)))
    assert centralizer_dim(a) == 2 * 2 + 1 + 1
    assert centralizer_dim(RationalMatrix.identity(3)) == 9
    assert centralizer_dim(jordan_cell(3, 0)) == 3


def test_centralizer_matches_partition_square_sum_with_collisions():
    rng = random.Random(5)
    for _ in range(15):
        count = rng.randint(1, 4)
        parts = [rng.randint(1, 3) for _ in range(count)]
        if sum(parts) > 6:
            continue
        eigs = [Fraction(rng.choice([-1, 0, 2])) for _ in range(count)]
        a = normal_form(parts, eigs)
        # grouping by eigenvalue, each group contributes its squares
        expected = sum(p * p for p in parts)
        assert centralizer_dim(a) == expected


def test_orbit_dims_scalars():
    at = scalar_tuple(2, 3, -5)
    dims = orbit_dims(at)
    assert dims.index == 2
    assert dims.dim_centralizer == 1
    assert dims.pidx == 0
    assert dims.dim_conj_orbit == dims.dim_classes_orbit == 0


def test_orbit_dims_block_diagonal():
    # direct sum of two generic scalar tuples: joint centralizer is diagonal
    a1 = RationalMatrix([[1, 0], [0, 2]])
    a2 = RationalMatrix([[3, 0], [0, 5]])
    a0 = -(a1 + a2)
    dims = orbit_dims(MatrixTuple([a0, a1, a2]))
    assert dims.dim_centralizer == 2
    assert dims.index == 3 * 2 - 4  # sum of centralizers minus (k-1) n^2
    assert dims.pidx == dims.dim_centralizer - dims.index // 2


def test_addition():
    at = scalar_tuple(-8, 3, 5)
    shifted = addition(at, (frac(1), frac(2)))
    assert shifted == scalar_tuple(-11, 4, 7)
    assert addition(shifted, (-frac(1), -frac(2))) == at
    assert addition(at, (0, 0)) == at


def test_convolution_blocks():
    l1, l2, c = frac(3), frac(5), frac(2)
    at = scalar_tuple(-l1 - l2, l1, l2)
    g = convolution(at, c)
    assert g.matrices[1] == RationalMatrix([[l1 + c, l2], [0, 0]])
    assert g.matrices[2] == RationalMatrix([[0, 0], [l1, l2 + c]])
    assert g.matrices[0] == -(g.matrices[1] + g.matrices[2])
    # block row structure: G_1 vanishes outside block row 1
    assert all(x == 0 for x in g.matrices[1].rows[1])


def _dense_blocks(at, lam):
    """The convolution blocks as the dense kn x kn matrices they are."""
    n, k = at.size, at.k
    blocks = []
    for j in range(k):
        rows = [[Fraction(0)] * (k * n) for _ in range(k * n)]
        for q, a in enumerate(at.matrices[1:]):
            for r in range(n):
                for c in range(n):
                    shift = lam if (q, r) == (j, c) else 0
                    rows[j * n + r][q * n + c] = a.rows[r][c] + shift
        blocks.append(RationalMatrix(rows))
    return [-sum(blocks[1:], blocks[0])] + blocks


def _dense_middle_convolution(at, mu):
    """Reference for the block-row path, unchecked: the blocks, the kernel of
    G_0 and the independence rank at size kn, and the quotient read column
    by column from the dense blocks."""
    mu = [Fraction(x) for x in mu]
    shifts = [-x for x in mu[1:]]
    shifted = addition(at, shifts)
    total = sum(mu)
    mats = _dense_blocks(shifted, total)
    n, k = at.size, at.k
    size = k * n
    space = [
        (0,) * (j * n) + vec + (0,) * ((k - 1 - j) * n)
        for j, a in enumerate(shifted.matrices[1:])
        for vec in a.nullspace()
    ] + mats[0].nullspace()
    if total != 0 and space and RationalMatrix(space).rank() < len(space):
        raise InvariantError(
            "blockwise kernels meet the zeroth kernel at a nonzero total"
        )
    if space:
        red, pivots = RationalMatrix([v[::-1] for v in space]).rref()
        if len(pivots) == size:
            raise LinAlgError("middle convolution collapses to dimension zero")
        basis = [w[::-1] for w in red.rows[: len(pivots)]]
        pivot_at = [size - 1 - c for c in pivots]
        free = [c for c in range(size) if c not in pivot_at]

        def residual(v):
            out = [v[f] for f in free]
            for p, w in zip(pivot_at, basis):
                out = [x - v[p] * w[f] for x, f in zip(out, free)]
            return out

        span = RationalMatrix(zip(*basis))
        for g in mats:
            if any(any(residual(col)) for col in zip(*(g @ span).rows)):
                raise InvariantError("subspace is not invariant")
        mats = [
            RationalMatrix(zip(*(residual(tuple(zip(*g.rows))[f]) for f in free)))
            for g in mats
        ]
    return addition(MatrixTuple(mats), shifts)


def test_block_row_path_matches_the_dense_blocks():
    """Seeded tuples of size 1..4 with k = 1..3, most matrices of low rank
    and about a third at parameter total 0: the block-row quotient gives the
    dense reference's tuple, or its error with the same message."""
    rng = random.Random(19)
    seen = {"collapses": 0, "total 0": 0, "quotient": 0, "k": set()}
    for _ in range(400):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        mats = []
        for _ in range(k):
            # a product n x r times r x n has rank at most r
            r = rng.randint(0, n - 1) if rng.random() < 0.6 else n
            m = RationalMatrix([[0] * n] * n)
            if r:
                m = RationalMatrix(
                    [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
                ) @ RationalMatrix(
                    [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
                )
            mats.append(m)
        at = MatrixTuple([-sum(mats[1:], mats[0])] + mats)
        mu = [Fraction(0) if rng.random() < 0.5
              else Fraction(rng.randint(-3, 3), rng.randint(1, 2))
              for _ in range(k + 1)]
        if rng.random() < 0.3:
            mu[0] = -sum(mu[1:])
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert convolution(at, lam) == MatrixTuple(_dense_blocks(at, lam))
        results = []
        for mc in (lambda: middle_convolution(at, mu, check=False),
                   lambda: _dense_middle_convolution(at, mu)):
            try:
                results.append(mc())
            except (LinAlgError, InvariantError) as exc:
                results.append((type(exc), str(exc)))
        assert results[0] == results[1]
        seen["k"].add(k)
        if isinstance(results[0], tuple):
            seen["collapses"] += "collapses" in results[0][1]
        else:
            seen["quotient"] += results[0].size < n * k
            seen["total 0"] += sum(mu) == 0
    assert seen["k"] == {1, 2, 3}
    assert min(seen["collapses"], seen["total 0"], seen["quotient"]) > 20


def hypergeometric_expected(l1, l2, mu):
    total = sum(mu)
    rows = [
        ((-l1 - l2 + total - 2 * mu[0], -mu[0]), (1, 1)),
        ((l1 + total - 2 * mu[1], -mu[1]), (1, 1)),
        ((l2 + total - 2 * mu[2], -mu[2]), (1, 1)),
    ]
    return [expected_spectral_data(parts, eigs) for eigs, parts in rows]


def test_middle_convolution_hypergeometric():
    rng = random.Random(71)
    draws = 0
    while draws < 8:
        l1, l2 = (Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in "ab")
        mu = tuple(
            Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in "abc"
        )
        if (
            l1 == mu[1]
            or l2 == mu[2]
            or l1 + l2 + mu[0] == 0
            or sum(mu) == 0
        ):
            continue
        at = scalar_tuple(-l1 - l2, l1, l2)
        out = middle_convolution(at, mu)
        assert out.size == 2
        assert tuple_spectral_data(out) == tuple(
            hypergeometric_expected(l1, l2, mu)
        )
        assert orbit_dims(out).index == 2
        back = middle_convolution(out, tuple(-x for x in mu))
        assert tuple_spectral_data(back) == tuple_spectral_data(at)
        draws += 1


def test_middle_convolution_zero_parameters():
    at = scalar_tuple(-8, 3, 5)
    out = middle_convolution(at, (0, 0, 0))
    assert tuple_spectral_data(out) == tuple_spectral_data(at)


def test_check_assumptions_pass_for_irreducible():
    rng = random.Random(11)
    _, at = construct_rigid_random(parse("11,11,11"), rng)
    mu = (frac(1, 3), frac(2), frac(-1, 5))
    assert check_mc_assumptions(at, mu).ok


def test_middle_convolution_with_irrational_zeroth_eigenvalues():
    # A_0 has characteristic polynomial x^2 + 4x + 5; both conditions hold
    # at its non-rational eigenvalues
    a1 = RationalMatrix([[0, -2], [1, 0]])
    a2 = RationalMatrix([[1, 0], [0, 3]])
    at = MatrixTuple([-(a1 + a2), a1, a2])
    assert check_mc_assumptions(at, (1, 2, 5)).violations == ()
    out = middle_convolution(at, (1, 2, 5))
    assert out.size == 4
    assert out == middle_convolution(at, (1, 2, 5), check=False)
    # no spectrum of this tuple splits: centralizers come from commutators
    dims = orbit_dims(at)
    assert (dims.dim_centralizer, dims.index, dims.pidx) == (1, 2, 0)
    # with A_2 = 3 I and mu_2 = 3 the kernel condition at i = 1 fails at each
    # eigenvalue -3 +- i sqrt(2) of A_0, the image condition with it
    a2 = RationalMatrix.identity(2).scale(3)
    at = MatrixTuple([-(a1 + a2), a1, a2])
    violations = (("kernel", 1), ("image", 1))
    assert check_mc_assumptions(at, (1, 2, 3)).violations == violations
    with pytest.raises(McAssumptionError, match="kernel at i=1; image at i=1$"):
        middle_convolution(at, (1, 2, 3))
    # with no other matrix (k = 1) both fail at every tuple
    assert check_mc_assumptions(MatrixTuple([-a1, a1]), (0, 0)).violations == violations


def test_check_assumptions_named_violation():
    a1 = RationalMatrix([[0, 0], [0, 1]])
    a2 = RationalMatrix([[0, 0], [0, 2]])
    at = MatrixTuple([-(a1 + a2), a1, a2])
    report = check_mc_assumptions(at, (0, 0, 0))
    assert report.violations == (
        ("kernel", 1), ("image", 1), ("kernel", 2), ("image", 2)
    )
    with pytest.raises(McAssumptionError):
        middle_convolution(at, (0, 0, 0))


def test_construct_rigid_hypergeometric():
    rng = random.Random(41)
    scheme, at = construct_rigid_random(parse("11,11,11"), rng)
    assert at.size == 2
    assert orbit_dims(at).index == 2
    assert joint_centralizer_dim(at) == 1
    for a, row, lrow in zip(
        at.matrices, scheme.shape.partitions, scheme.constant_table()
    ):
        assert spectral_data_of(a) == expected_spectral_data(row, lrow)


def test_construct_rigid_order_three():
    rng = random.Random(43)
    scheme, at = construct_rigid_random(parse("111,111,21"), rng)
    assert at.size == 3
    assert orbit_dims(at).index == 2
    assert joint_centralizer_dim(at) == 1
    # eigenvalue with multiplicity 2 sits at the first column of the third row
    data = spectral_data_of(at.matrices[2])
    assert sorted(p for _, parts in data.entries for p in parts) == [1, 2]


def test_construct_rigid_order_one():
    scheme = Scheme(
        parse("1,1,1", trim=False),
        ((frac(2),), (frac(3),), (frac(-5),)),
    )
    at = construct_rigid(scheme)
    assert at == scalar_tuple(2, 3, -5)


def test_construct_rigid_rejects_non_rigid():
    rng = random.Random(47)
    with pytest.raises(DegenerateSchemeError):
        construct_rigid_random(parse("211,211,1111"), rng, retries=2)


def test_construct_rigid_random_checks_shape_before_drawing():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(DegenerateSchemeError) as exc:
        construct_rigid_random(parse("2211,2211,111111"), rng)
    assert str(exc.value) == "shape 2211,2211,111111 is not rigid"
    assert "tries" not in str(exc.value)
    assert rng.getstate() == state


def test_scheme_of_roundtrip():
    rng = random.Random(53)
    scheme, at = construct_rigid_random(parse("11,11,11"), rng)
    back = scheme_of(at)
    assert back.shape == scheme.shape
    assert {frozenset(zip(r, e)) for r, e in
            zip(back.shape.partitions, back.constant_table())} == {
        frozenset(zip(r, e))
        for r, e in zip(scheme.shape.partitions, scheme.constant_table())
    }


def test_matrix_tuple_validation():
    with pytest.raises(Exception):
        MatrixTuple([RationalMatrix([[1]]), RationalMatrix([[1]])])


def test_random_scheme_trace():
    rng = random.Random(59)
    for text in ("11,11,11", "111,111,21", "1111,1111,31"):
        shape = parse(text)
        s = random_scheme(shape, rng)
        assert s.trace_form() == 0
        for row in s.constant_table():
            assert len(set(row)) == len(row)


def test_composition_identity_with_shifted_parameters():
    # mc(-t, -mu') after mc(mu0, mu') matches the shift by 2mu' of
    # mc(2mu0 - t - |mu|, mu'), at the level of spectral data
    rng = random.Random(67)
    done = 0
    while done < 5:
        seed_rng = random.Random(rng.randrange(1 << 30))
        _, at = construct_rigid_random(
            parse("11,11,11"), seed_rng, num_range=30
        )
        mu = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in "abc")
        tau = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        try:
            left = middle_convolution(
                middle_convolution(at, mu),
                (-tau, -mu[1], -mu[2]),
            )
            inner_par = (2 * mu[0] - tau - sum(mu), mu[1], mu[2])
            right = addition(
                middle_convolution(at, inner_par), (2 * mu[1], 2 * mu[2])
            )
        except (McAssumptionError, Exception) as exc:
            from midconv.linalg import LinAlgError

            if isinstance(exc, (McAssumptionError, LinAlgError)):
                continue
            raise
        if left.size != right.size:
            continue  # a degenerate draw; resample
        assert tuple_spectral_data(left) == tuple_spectral_data(right)
        done += 1
