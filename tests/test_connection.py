import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from midconv.connection import (
    GammaFormula,
    OracleError,
    PoleError,
    RiemannScheme,
    connection_formula,
    evaluate,
    fuchs_value,
    rigid_decompositions,
    series_limit_oracle,
)
from midconv.enumeration import enumerate_rigid
from midconv.katz import SchemeError, Terminal, reduce_rows
from midconv.paramform import ParamForm
from midconv.spectype import SpectralType, idx, parse


def var(name):
    return ParamForm.var(name)


def hypergeometric_shape(n):
    rows = [(1,) * n, (n - 1, 1), (1,) * n]
    if n == 2:
        rows[1] = (1, 1)
    return SpectralType(rows)


def gauss_substitution_scheme(n):
    """Exponent table turning the order-n hypergeometric scheme into the
    classical series normalization."""
    a = [var("a%d" % i) for i in range(1, n + 1)]
    b = [var("b%d" % i) for i in range(1, n + 1)]
    row0 = tuple(1 - b[v] for v in range(n - 1)) + (ParamForm(0),)
    row1 = (ParamForm(0), -b[n - 1])
    row2 = tuple(a)
    return RiemannScheme(hypergeometric_shape(n), (row0, row1, row2)), a, b


def test_fuchs_value_examples():
    scheme = RiemannScheme.generic(parse("11,11,11"))
    assert isinstance(scheme, RiemannScheme)
    ords1 = SpectralType(((0, 1), (1, 0), (1, 0)))
    piece = fuchs_value(scheme, ords1)
    assert piece == var("l0_2") + var("l1_1") + var("l2_1")

    zero = RiemannScheme(
        parse("111,111,111"), tuple((0, 0, 0) for _ in range(3))
    )
    assert fuchs_value(zero) == ParamForm(1 - 3)

    scheme2, a, b = gauss_substitution_scheme(2)
    fuchs = fuchs_value(scheme2)
    # vanishes exactly on the classical relation sum(a) = sum(b)
    assert fuchs == a[0] + a[1] - b[0] - b[1]


def test_rigid_decompositions_hypergeometric():
    m = parse("11,11,11")
    decs = rigid_decompositions(m)
    assert len(decs) == 2
    for first, second in decs:
        assert first.order == second.order == 1
        assert idx(first.strip_zeros()) == 2
        assert first.part(0, 2) == 1
        assert second.part(1, 2) == 1


def test_rigid_decompositions_count_h_n():
    for n in (2, 3, 4, 5):
        m = hypergeometric_shape(n)
        decs = rigid_decompositions(m, n, 2)
        assert len(decs) == n
        # every splitting is a single unit column against the complement
        for first, _ in decs:
            assert first.order == 1


def test_rigid_decompositions_even_family():
    m = parse("1111,211,22")
    decs = rigid_decompositions(m, 4, 3)
    assert len(decs) == 4 + 3 - 2
    # two splittings shave off a point-one column, three an order-two piece
    orders = sorted(first.order for first, _ in decs)
    assert orders == [1, 1, 2, 2, 2]


def test_rigid_decompositions_unit_rows_first():
    # two unit rows ahead of the (n-1)1 row give many sub-rows of one
    # weighted value; the search must not walk them one by one
    n = 16
    m = SpectralType([(1,) * n, (1,) * n, (n - 1, 1)])
    decs = rigid_decompositions(m)
    assert len(decs) == 2 * n - 2
    for first, second in decs:
        assert all(
            tuple(a + b for a, b in zip(p, q)) == r
            for p, q, r in zip(first.partitions, second.partitions, m.partitions)
        )
        for g in (first, second):
            assert reduce_rows(g.partitions, g.order).terminal is Terminal.ORDER_ONE
    assert {first.order for first, _ in decs} == {1, n - 1}


def test_rigid_decomposition_errors():
    with pytest.raises(SchemeError):
        rigid_decompositions(parse("211,211,1111"))  # not rigid
    with pytest.raises(SchemeError):
        rigid_decompositions(parse("1111,211,22"), 4, 1)  # pin not 1


def test_pin_outside_the_row_raises():
    m = parse("1111,211,22")
    for pins, message in (
        ((0, 3), "pin 0 at point 0"),
        ((1, 0), "pin 0 at point 1"),
        ((-1, 3), "pin -1 at point 0"),
        ((9, 3), "pin 9 at point 0"),
        ((4, 4), "pin 4 at point 1"),
    ):
        with pytest.raises(SchemeError, match=message):
            rigid_decompositions(m, *pins)
    scheme = RiemannScheme.generic(m)
    with pytest.raises(SchemeError, match="pin 0 at point 0"):
        connection_formula(scheme, 0, 3)
    with pytest.raises(SchemeError, match="pin 0 at point 1"):
        scheme.normalized(4, 0)
    assert rigid_decompositions(m, None, 3) == rigid_decompositions(m, 4, 3)


def _two_kernel_decompositions(m, pin0, pin1):
    """Every pinned column-aligned sub-grid, kept when the reduction kernel
    proves both it and its complement rigid."""
    subs = [list(itertools.product(*(range(p + 1) for p in r))) for r in m.partitions]
    out = []
    for s in range(1, m.order):
        for first in itertools.product(
            *([sub for sub in rs if sum(sub) == s] for rs in subs)
        ):
            if first[0][pin0 - 1] != 1 or first[1][pin1 - 1] != 0:
                continue
            second = tuple(
                tuple(a - b for a, b in zip(p, q))
                for p, q in zip(m.partitions, first)
            )
            if all(
                reduce_rows(g, sum(g[0])).terminal is Terminal.ORDER_ONE
                for g in (first, second)
            ):
                out.append((first, second))
    return sorted(out)


def _pinned_arrangements():
    """Every pin pair with multiplicity one, on every ordering of the
    partitions of every three-point rigid class up to order 7."""
    for n in range(2, 8):
        for m in enumerate_rigid(n).items:
            if m.npart != 3:
                continue
            for arr in sorted(set(itertools.permutations(m.partitions))):
                for pin0, pin1 in itertools.product(
                    *(
                        [v + 1 for v, p in enumerate(row) if p == 1]
                        for row in arr[:2]
                    )
                ):
                    yield SpectralType(arr), pin0, pin1


def test_rigid_decompositions_match_the_two_kernel_rule():
    pairs = 0
    for shape, pin0, pin1 in _pinned_arrangements():
        arr = shape.partitions
        got = [
            (a.partitions, b.partitions)
            for a, b in rigid_decompositions(shape, pin0, pin1)
        ]
        want = _two_kernel_decompositions(shape, pin0, pin1)
        assert got == want, (arr, pin0, pin1)
        assert len(got) == len(arr[0]) + len(arr[1]) - 2
        pairs += 1
    assert pairs == 556


def test_reverse_connection_formula_pairs_every_factor():
    """With the first two points swapped, each numerator form f becomes
    1 - f and each denominator form g becomes 1 - g + (Fuchs value of the
    scheme): the reverse decompositions are the swapped pairs (m'', m').
    A flipped pin condition is symmetric under the swap, so this test does
    not see it; the two-kernel rule above does."""
    pairs = 0
    for shape, pin0, pin1 in _pinned_arrangements():
        scheme = RiemannScheme.generic(shape)
        rows, ev = shape.partitions, scheme.eigenvalues
        swapped = RiemannScheme(
            SpectralType((rows[1], rows[0], rows[2])),
            (ev[1], ev[0], ev[2]),
        )
        c = connection_formula(scheme, pin0, pin1)
        r = connection_formula(swapped, pin1, pin0)
        fuchs = fuchs_value(scheme)
        assert Counter(1 - f for f in c.num) == Counter(r.num), (shape, pin0, pin1)
        assert Counter(1 - g + fuchs for g in c.den) == Counter(r.den), (
            shape, pin0, pin1,
        )
        pairs += 1
    assert pairs == 556


def test_connection_formula_h2():
    scheme = RiemannScheme.generic(parse("11,11,11"))
    f = connection_formula(scheme)
    l = {name: var(name) for name in
         ("l0_1", "l0_2", "l1_1", "l1_2", "l2_1", "l2_2")}
    expected = GammaFormula.of(
        [l["l0_2"] - l["l0_1"] + 1, l["l1_1"] - l["l1_2"]],
        [
            l["l0_2"] + l["l1_1"] + l["l2_1"],
            l["l0_2"] + l["l1_1"] + l["l2_2"],
        ],
    )
    assert f == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_connection_formula_specializes_to_gamma_ratio(n):
    scheme, a, b = gauss_substitution_scheme(n)
    f = connection_formula(scheme, n, 2)
    expected = GammaFormula.of(b, a)
    assert f == expected


def test_connection_formula_even_family():
    # order-4 even family: two plus three denominator factors
    scheme = RiemannScheme.generic(parse("1111,211,22"))
    f = connection_formula(scheme, 4, 3)
    assert len(f.num) == (4 - 1) + (3 - 1)
    assert len(f.den) == 2 + 3


def test_column_sum_identity_h2():
    m = parse("11,11,11")
    decs = rigid_decompositions(m)
    n0 = n1 = 2
    for j in range(3):
        width = len(m.partitions[j])
        for v in range(1, width + 1):
            total = sum(first.part(j, v) for first, _ in decs)
            expect = (n1 - 1) * m.part(j, v)
            if j == 0:
                expect -= 1 - n0 * (1 if v == n0 else 0)
            if j == 1:
                expect += 1 - n1 * (1 if v == n1 else 0)
            assert total == expect


def test_evaluate_trivial():
    f = GammaFormula.of([ParamForm(1)], [ParamForm(1)])
    assert evaluate(f) == pytest.approx(1.0)
    f2 = GammaFormula.of([ParamForm(Fraction(1, 2))] * 2, [ParamForm(1)])
    assert evaluate(f2) == pytest.approx(math.pi)


def test_evaluate_pole():
    f = GammaFormula.of([ParamForm(0)], [])
    with pytest.raises(PoleError):
        evaluate(f)
    g = GammaFormula.of([ParamForm.var("t")], [])
    with pytest.raises(PoleError):
        evaluate(g, {"t": -3})
    assert evaluate(g, {"t": Fraction(-1, 2)}) == pytest.approx(
        math.gamma(-0.5)
    )


def test_gauss_instance_matches_gamma_products():
    alphas = (Fraction(1, 2), Fraction(1, 3))
    betas = (Fraction(1, 5), Fraction(19, 30))
    got = series_limit_oracle(alphas, betas, tol=1e-8)
    want = (
        math.gamma(1 / 5) * math.gamma(19 / 30)
        / (math.gamma(1 / 2) * math.gamma(1 / 3))
    )
    assert abs(got - want) <= 1e-8 * abs(want)


def test_oracle_collapse_case():
    # equal leading parameters collapse the series; the limit is one
    alphas = (Fraction(1, 3), Fraction(2, 5))
    betas = (Fraction(1, 3), Fraction(2, 5))
    assert series_limit_oracle(alphas, betas) == pytest.approx(1.0, abs=1e-9)


def test_oracle_validation():
    with pytest.raises(OracleError):
        series_limit_oracle((1, 2), (1, 3))  # sums differ
    with pytest.raises(OracleError):
        series_limit_oracle(
            (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(-1, 2))
        )  # nonpositive limit exponent


def test_formula_vs_oracle_random_gauss():
    rng = random.Random(97)
    done = 0
    while done < 3:
        a1 = Fraction(rng.randint(1, 9), 10)
        a2 = Fraction(rng.randint(1, 9), 8)
        b1 = Fraction(rng.randint(1, 9), 12)
        b2 = a1 + a2 - b1
        if b2 <= Fraction(1, 4) or b2.denominator == 1:
            continue
        scheme, _, _ = gauss_substitution_scheme(2)
        f = connection_formula(scheme, 2, 2)
        assignment = {"a1": a1, "a2": a2, "b1": b1, "b2": b2}
        got = evaluate(f, assignment)
        want = series_limit_oracle((a1, a2), (b1, b2), tol=1e-8)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
        done += 1


def test_normalized_scheme():
    scheme = RiemannScheme.generic(parse("11,11,11"))
    norm = scheme.normalized()
    assert norm.eigenvalues[0][1] == ParamForm(0)
    assert norm.eigenvalues[1][1] == ParamForm(0)
    assert fuchs_value(norm) == fuchs_value(scheme)


def test_param_form_coefficients_are_exact():
    third = Fraction(1, 3)
    assert ParamForm(third).const is third
    assert ParamForm("1/3") == ParamForm(third)
    assert ParamForm(0, {"x": "1/3"}.items()) == ParamForm.var("x") * third
    with pytest.raises(TypeError):
        ParamForm(0.5)
    with pytest.raises(TypeError):
        ParamForm.var("x") * 0.5


def test_gamma_formula_rendering():
    f = GammaFormula.of([ParamForm.var("x")], [ParamForm(1) + ParamForm.var("y")])
    assert str(f) == "G(x) / [G(y + 1)]"
    assert "\\Gamma" in f.to_latex()
    data = f.to_json()
    assert set(data) == {"num", "den"}
