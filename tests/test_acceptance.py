"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criteria 3b/3c assert the upstream published counts for indices -4 and -6
verbatim; those two are expected failures (strict xfail): the definitions
force an extra basic class 332,332,2222 at index -4 (see the repository
notes), and the suite keeps the honest assertion rather than a weakened one.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from midconv.connection import (
    RiemannScheme,
    connection_formula,
    evaluate,
    rigid_decompositions,
    series_limit_oracle,
)
from midconv.enumeration import enumerate_basic, enumerate_rigid
from midconv.katz import Verdict, reduce as katz_reduce
from midconv.matrixmc import (
    centralizer_dim,
    construct_rigid_random,
    expected_spectral_data,
    middle_convolution,
    normal_form,
    orbit_dims,
    tuple_spectral_data,
)
from midconv.paramform import ParamForm
from midconv.spectype import SpectralType, canonicalize, idx, parse

from test_connection import gauss_substitution_scheme

RIGID_TABLE_UP_TO_7 = """
2:11,11,11                3:111,111,21               3:21,21,21,21
4:1111,1111,31            4:1111,211,22              4:211,211,211
4:211,22,31,31            4:22,22,22,31              4:31,31,31,31,31
5:11111,11111,41          5:11111,221,32             5:2111,2111,32
5:2111,221,311            5:221,221,221              5:221,221,41,41
5:221,32,32,41            5:311,311,32,41            5:32,32,32,32
5:32,32,41,41,41          5:41,41,41,41,41,41        6:111111,111111,51
6:111111,222,42           6:111111,321,33            6:21111,2211,42
6:21111,222,33            6:21111,222,411            6:21111,3111,33
6:2211,2211,33            6:2211,2211,411            6:2211,222,51,51
6:2211,321,321            6:2211,33,42,51            6:222,222,321
6:222,3111,321            6:222,33,33,51             6:222,33,411,51
6:3111,3111,321           6:3111,33,411,51           6:321,321,42,51
6:321,33,51,51,51         6:321,42,42,42             6:33,33,33,42
6:33,33,411,42            6:33,411,411,42            6:33,42,42,51,51
6:411,411,411,42          6:411,42,42,51,51          6:51,51,51,51,51,51,51
7:1111111,1111111,61      7:1111111,331,43           7:211111,2221,52
7:211111,322,43           7:22111,22111,52           7:22111,2221,511
7:22111,3211,43           7:22111,331,421            7:2221,2221,43
7:2221,2221,61,61         7:2221,31111,43            7:2221,322,421
7:2221,331,331            7:2221,331,4111            7:2221,43,43,61
7:31111,31111,43          7:31111,322,421            7:31111,331,4111
7:3211,3211,421           7:3211,322,331             7:3211,322,4111
7:3211,331,52,61          7:322,322,322              7:322,322,52,61
7:322,331,511,61          7:322,421,43,61            7:322,43,52,52
7:331,331,43,61           7:331,331,61,61,61         7:331,43,511,52
7:4111,4111,43,61         7:4111,43,511,52           7:421,421,421,61
7:421,421,52,52           7:421,43,43,52             7:421,43,511,511
7:421,43,52,61,61         7:43,43,43,43              7:43,43,43,61,61
7:43,43,61,61,61,61       7:43,52,52,52,61           7:511,511,52,52,61
7:52,52,52,61,61,61       7:61,61,61,61,61,61,61,61
"""

RIGID_COUNTS_2_TO_12 = {
    2: (1, 1), 3: (1, 2), 4: (3, 6), 5: (5, 11), 6: (13, 28), 7: (20, 44),
    8: (45, 96), 9: (74, 157), 10: (142, 306), 11: (212, 441), 12: (421, 857),
}

BASIC_INDEX_ZERO = ["11,11,11,11", "111,111,111", "22,1111,1111", "33,222,111111"]

BASIC_INDEX_MINUS_TWO = [
    "11,11,11,11,11", "21,21,111,111", "31,22,22,1111", "22,22,22,211",
    "211,1111,1111", "221,221,11111", "32,11111,11111", "222,222,2211",
    "33,2211,111111", "44,2222,22211", "44,332,11111111", "55,3331,22222",
    "66,444,2222211",
]

BASIC_INDEX_MINUS_FOUR_TABLE = """
 +2:11,11,11,11,11,11      3:111,21,21,21,21         4:22,22,22,31,31
 +3:111,111,111,21        +4:1111,22,22,22           4:1111,1111,31,31
  4:211,211,22,22          4:1111,211,22,31         *6:321,33,33,33
  6:222,222,33,51         +4:1111,1111,1111          5:11111,11111,311
  5:11111,2111,221         6:111111,222,321          6:111111,21111,33
  6:21111,222,222          6:111111,111111,42        6:222,33,33,42
  6:111111,33,33,51        6:2211,2211,222           7:1111111,2221,43
  7:1111111,331,331        7:2221,2221,331           8:11111111,3311,44
  8:221111,2222,44         8:22211,22211,44         *9:3321,333,333
  9:111111111,333,54       9:22221,333,441          10:1111111111,442,55
 10:22222,3322,55         10:222211,3331,55         12:22221111,444,66
*12:33321,3333,66         14:2222222,554,77        *18:3333321,666,99
"""


def _table_classes(text):
    out = set()
    for token in text.split():
        token = token.strip().lstrip("+*")
        if not token or ":" not in token:
            continue
        _, tup = token.split(":")
        out.add(canonicalize(parse(tup)))
    return out


def report(name, ok, detail=""):
    print("ACCEPTANCE %s: %s%s" % (name, "PASS" if ok else "FAIL",
                                   " (%s)" % detail if detail else ""))
    assert ok, "criterion %s failed: %s" % (name, detail)


def test_criterion_1_rigid_table_up_to_7():
    start = time.monotonic()
    expected = _table_classes(RIGID_TABLE_UP_TO_7)
    assert len(expected) == 92  # the printed table; its count rows agree
    got = set()
    for n in range(2, 8):
        got |= set(enumerate_rigid(n).items)
    elapsed = time.monotonic() - start
    spot = {canonicalize(parse("111111,222,42")), canonicalize(parse("43,52,52,52,61"))}
    ok = got == expected and spot <= got and elapsed < 60
    report("1 (rigid list n<=7)", ok,
           "%d classes, %.1fs" % (len(got), elapsed))


def test_criterion_2_rigid_counts_to_12():
    start = time.monotonic()
    ok = True
    detail = []
    for n, (triples, total) in RIGID_COUNTS_2_TO_12.items():
        rep = enumerate_rigid(n)
        if (rep.count(3), rep.total) != (triples, total):
            ok = False
            detail.append("n=%d got (%d,%d)" % (n, rep.count(3), rep.total))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600
    report("2 (rigid counts n<=12)", ok,
           "; ".join(detail) or "ends at (421, 857), %.1fs" % elapsed)


def test_criterion_3_basic_enumeration():
    start = time.monotonic()
    zero = enumerate_basic(0)
    two = enumerate_basic(-2)
    four = enumerate_basic(-4)
    six = enumerate_basic(-6)
    elapsed = time.monotonic() - start
    ok = [str(m) for m in zero.items] == BASIC_INDEX_ZERO
    ok = ok and set(two.items) == {
        canonicalize(parse(t)) for t in BASIC_INDEX_MINUS_TWO
    }
    table4 = _table_classes(BASIC_INDEX_MINUS_FOUR_TABLE)
    assert len(table4) == 36
    ok = ok and table4 <= set(four.items)
    ok = ok and canonicalize(parse("3333321,666,99")) in set(four.items)
    ok = ok and six.total >= 67 and elapsed < 300
    report(
        "3 (basic classes: 4 at 0, 13 at -2, table at -4)", ok,
        "-4 yields %d classes, -6 yields %d, %.1fs"
        % (four.total, six.total, elapsed),
    )


@pytest.mark.xfail(
    strict=True,
    reason="published table omits the basic class 332,332,2222 (dominant "
    "indivisible imaginary root of index -4 by the stated definitions); "
    "see the decisions ledger",
)
def test_criterion_3b_paper_count_minus_four_verbatim():
    four = enumerate_basic(-4)
    table4 = _table_classes(BASIC_INDEX_MINUS_FOUR_TABLE)
    extra = {str(m) for m in set(four.items) - table4}
    report("3b (exact 36 classes at index -4)",
           set(four.items) == table4, "extra: %s" % sorted(extra))


@pytest.mark.xfail(
    strict=True,
    reason="published count 67/44/17 at index -6 undercounts for the same "
    "reason as 3b; the definitions force 69/46/17",
)
def test_criterion_3c_paper_count_minus_six_verbatim():
    six = enumerate_basic(-6)
    got = (six.total, six.count(3), six.count(4))
    report("3c (counts at index -6)", got == (67, 44, 17), "got %s" % (got,))


CHAINS = [
    ("411,411,42,33", Verdict.RIGID, (3, 1, 1),
     ["411,411,42,33", "111,111,21", "11,11,11"], "1"),
    ("211,211,1111", Verdict.REALIZABLE_NOT_RIGID, (1, 0),
     ["211,211,1111", "111,111,111"], "111,111,111"),
    ("211,211,211,31", Verdict.REALIZABLE_NOT_RIGID, (1, -1),
     ["211,211,211,31", "111,111,111,21"], "111,111,111,21"),
    ("22,22,1111", Verdict.NOT_REALIZABLE, (1, 2),
     ["22,22,1111", "21,21,111"], "21,21,111"),
]


def test_criterion_4_reduction_chains():
    ok = True
    details = []
    for text, verdict, ds, steps, terminal in CHAINS:
        trace = katz_reduce(parse(text))
        good = (
            trace.verdict is verdict
            and trace.d_values() == ds
            and [s.m for s in trace.steps]
            == [canonicalize(parse(t)) for t in steps]
            and trace.terminal == canonicalize(parse(terminal))
        )
        ok = ok and good
        details.append("%s:%s" % (text, "ok" if good else "BAD"))
    report("4 (the four reduction chains)", ok, ", ".join(details))


def _predicted_output(shape_rows, lam_rows, mu):
    """Spectral data of a middle convolution via the marked-column rule;
    None when the parameter total vanishes or a multiplicity would drop
    below zero."""
    total = sum(mu)
    if total == 0:
        return None
    k = len(shape_rows) - 1
    n = sum(shape_rows[0])
    ells = []
    for row, lam, m_j in zip(shape_rows, lam_rows, mu):
        hits = [v for v, l in enumerate(lam) if l == m_j]
        if hits:
            best = max(row[v] for v in hits)
            ells.append(min(v for v in hits if row[v] == best))
        else:
            ells.append(None)
    d = sum(row[e] if e is not None else 0
            for row, e in zip(shape_rows, ells)) - (k - 1) * n
    out = []
    for row, lam, e, m_j in zip(shape_rows, lam_rows, ells, mu):
        parts = []
        eigs = []
        for v, (p, l) in enumerate(zip(row, lam)):
            if v == e:
                p = p - d
                l = -m_j
            else:
                l = l + total - 2 * m_j
            if p < 0:
                return None
            if p:
                parts.append(p)
                eigs.append(l)
        if e is None and d < 0:
            parts.append(-d)
            eigs.append(-m_j)
        out.append(expected_spectral_data(parts, eigs))
    return tuple(out), n - d


def test_criterion_5_matrix_middle_convolution():
    start = time.monotonic()
    rng = random.Random(2024)

    # rank-one start: twenty draws must match the order-two prediction
    draws = 0
    while draws < 20:
        l1, l2 = (Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in "ab")
        mu = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in "abc")
        if l1 == mu[1] or l2 == mu[2] or l1 + l2 + mu[0] == 0 or sum(mu) == 0:
            continue
        from midconv.linalg import RationalMatrix
        from midconv.matrixmc import MatrixTuple

        at = MatrixTuple([RationalMatrix([[v]]) for v in (-l1 - l2, l1, l2)])
        shape_rows = ((1,), (1,), (1,))
        lam_rows = ((-l1 - l2,), (l1,), (l2,))
        predicted, out_ord = _predicted_output(shape_rows, lam_rows, mu)
        out = middle_convolution(at, mu)
        assert out.size == out_ord == 2
        assert tuple_spectral_data(out) == predicted
        back = middle_convolution(out, tuple(-x for x in mu))
        assert tuple_spectral_data(back) == tuple_spectral_data(at)
        draws += 1

    # a hundred draws over constructed rigid tuples of order <= 6
    shapes = []
    for n in range(2, 7):
        shapes.extend(enumerate_rigid(n).items)
    applications = 0
    while applications < 100:
        shape = shapes[applications % len(shapes)]
        scheme, at = construct_rigid_random(
            shape, random.Random(rng.randrange(1 << 30)), num_range=40
        )
        assert orbit_dims(at).index == 2
        lam_rows = scheme.constant_table()
        shape_rows = scheme.shape.partitions
        for _ in range(50):
            mu = []
            for row in lam_rows:
                if rng.random() < 0.6:
                    mu.append(rng.choice(row))
                else:
                    mu.append(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            prediction = _predicted_output(shape_rows, lam_rows, tuple(mu))
            if prediction is None or prediction[1] > 7 or prediction[1] < 1:
                continue
            break
        else:
            continue
        predicted, out_ord = prediction
        out = middle_convolution(at, tuple(mu))
        assert out.size == out_ord
        assert tuple_spectral_data(out) == predicted
        assert orbit_dims(out, bound=8).index == 2
        back = middle_convolution(out, tuple(-x for x in mu))
        assert tuple_spectral_data(back) == tuple_spectral_data(at)
        applications += 1
    elapsed = time.monotonic() - start
    report("5 (exact middle convolution)",
           elapsed < 120, "20 rank-one + %d draws, %.1fs" % (applications, elapsed))


def _partitions_of(n):
    out = []

    def rec(left, cap, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        for p in range(min(cap, left), 0, -1):
            acc.append(p)
            rec(left - p, p, acc)
            acc.pop()

    rec(n, n, [])
    return out


def test_criterion_6_centralizer_formula():
    rng = random.Random(63)
    checked = 0
    for n in range(1, 7):
        for parts in _partitions_of(n):
            for _ in range(3):
                pool = [Fraction(v) for v in rng.sample(range(-5, 6), 3)]
                eigs = [rng.choice(pool) for _ in parts]
                a = normal_form(parts, eigs)
                assert centralizer_dim(a) == sum(p * p for p in parts)
                checked += 1
    report("6 (centralizer dimension formula)", True,
           "%d exact cases up to order 6" % checked)


def test_criterion_7_connection_identities():
    start = time.monotonic()
    checked = 0
    for n in range(2, 9):
        for m in enumerate_rigid(n).items:
            if m.npart != 3:
                continue
            for arrangement in set(itertools.permutations(m.partitions)):
                mm = SpectralType(arrangement)
                n0 = len(mm.partitions[0])
                n1 = len(mm.partitions[1])
                if mm.part(0, n0) != 1 or mm.part(1, n1) != 1:
                    continue
                decs = rigid_decompositions(mm, n0, n1)
                assert len(decs) == n0 + n1 - 2, str(mm)
                assert sum(f.order for f, _ in decs) == (n1 - 1) * mm.order
                for first, second in decs:
                    assert idx(first, second) == -1
                for j in range(3):
                    for v in range(1, len(mm.partitions[j]) + 1):
                        total = sum(f.part(j, v) for f, _ in decs)
                        expect = (n1 - 1) * mm.part(j, v)
                        if j == 0:
                            expect -= 1 - n0 * (v == n0)
                        if j == 1:
                            expect += 1 - n1 * (v == n1)
                        assert total == expect, (str(mm), j, v)
                checked += 1
    # symbolic specialization for the hypergeometric family
    for n in (2, 3, 4):
        scheme, a, b = gauss_substitution_scheme(n)
        f = connection_formula(scheme, n, 2)
        from midconv.connection import GammaFormula

        assert f == GammaFormula.of(b, a)
    elapsed = time.monotonic() - start
    report("7 (decomposition count and column sums, order <= 8)", True,
           "%d pinned arrangements, %.1fs" % (checked, elapsed))


def test_criterion_8_formula_vs_series_limit():
    start = time.monotonic()
    rng = random.Random(88)

    def run_instance(n):
        # parameters drawn in (0, 2]; the limit exponent in (1/4, 2]
        while True:
            alphas = [
                Fraction(rng.randint(1, 24), 12) for _ in range(n)
            ]
            betas = [
                Fraction(rng.randint(1, 24), rng.choice([8, 12])) for _ in range(n - 1)
            ]
            tail = sum(alphas) - sum(betas)
            if not Fraction(1, 4) < tail <= 2:
                continue
            betas.append(tail)
            if any(b.denominator == 1 and b <= 0 for b in betas):
                continue
            scheme, _, _ = gauss_substitution_scheme(n)
            f = connection_formula(scheme, n, 2)
            assignment = {}
            for i, a in enumerate(alphas, start=1):
                assignment["a%d" % i] = a
            for i, b in enumerate(betas, start=1):
                assignment["b%d" % i] = b
            try:
                got = evaluate(f, assignment)
            except Exception:
                continue
            want = series_limit_oracle(alphas, betas, tol=1e-8)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (
                alphas, betas, got, want,
            )
            return

    for _ in range(10):
        run_instance(2)
    for _ in range(5):
        run_instance(3)
    elapsed = time.monotonic() - start
    report("8 (gamma formula vs series limit)",
           elapsed < 30, "10 Gauss + 5 order-3 instances, %.1fs" % elapsed)


def test_criterion_9_property_suites():
    import test_properties as props

    start = time.monotonic()
    props.test_idx_symmetry_and_bilinearity_bulk()
    props.test_root_dictionary_bulk()
    props.test_reduction_involution_bulk()
    props.test_dominance_strict_square_sums_bulk()
    props.test_scaled_pidx_identity_bulk()
    props.test_positive_root_coefficient_profile()
    props.test_existence_agrees_with_classification()
    elapsed = time.monotonic() - start
    report("9 (randomized property suites)", True, "%.1fs" % elapsed)
