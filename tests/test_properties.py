"""Randomized and exhaustive property suites (at least 10^4 cases each)."""

import itertools
import random
from fractions import Fraction

from midconv.enumeration import _nontrivial_partitions, enumerate_basic, enumerate_rigid
from midconv.katz import Scheme, classify, d_ell, ds_existence, partial_ell_raw
from midconv.rootlattice import (
    RootClass,
    classify_root,
    inner,
    reflect,
    reflect_by,
    root_of,
    simple_root,
)
from midconv.spectype import (
    SpectralType,
    canonicalize,
    dominance_leq,
    idx,
    pidx,
    scale_add,
    unit_at,
)

from test_spectype import random_partition, random_tuple


def test_idx_symmetry_and_bilinearity_bulk():
    rng = random.Random(101)
    cases = 0
    while cases < 10_000:
        n = rng.randint(1, 9)
        rows = rng.randint(1, 5)
        a = SpectralType((random_partition(rng, n) for _ in range(rows)))
        b = SpectralType((random_partition(rng, n) for _ in range(rows)))
        c = SpectralType((random_partition(rng, n) for _ in range(rows)))
        assert idx(a, b) == idx(b, a)
        width_rows = []
        for p, q in zip(a.partitions, c.partitions):
            w = max(len(p), len(q))
            width_rows.append((p + (0,) * (w - len(p)), q + (0,) * (w - len(q))))
        a_pad = SpectralType((r[0] for r in width_rows))
        c_pad = SpectralType((r[1] for r in width_rows))
        s = scale_add(1, a_pad, 1, c_pad)
        assert idx(s, b) == idx(a, b) + idx(c, b)
        cases += 2


def test_idx_is_symmetry_invariant_bulk():
    rng = random.Random(103)
    cases = 0
    while cases < 10_000:
        m = random_tuple(rng, max_order=8, max_rows=4)
        m2 = random_tuple(rng, max_order=8, max_rows=4)
        rows = max(m.npart, m2.npart)
        perm = list(range(rows))
        rng.shuffle(perm)

        def act(t):
            padded = list(t.partitions) + [(t.order,)] * (rows - t.npart)
            moved = [padded[perm[j]] for j in range(rows)]
            return SpectralType(moved)

        assert idx(act(m), act(m2)) == idx(m, m2)
        cases += 1


def test_root_dictionary_bulk():
    rng = random.Random(107)
    cases = 0
    while cases < 10_000:
        m = random_tuple(rng, max_order=8, max_rows=4)
        m2 = random_tuple(rng, max_order=8, max_rows=4)
        assert inner(root_of(m), root_of(m2)) == idx(m, m2)
        cases += 1


def test_reduction_involution_bulk():
    rng = random.Random(109)
    lattice_cases = 0
    tuple_cases = 0
    while lattice_cases < 10_000 or tuple_cases < 2_000:
        m = random_tuple(rng, max_order=9, max_rows=4)
        ells = tuple(rng.randint(1, len(row) + 1) for row in m.partitions)
        a = root_of(m)
        u = root_of(unit_at(ells))
        assert inner(u, u) == 2
        once = reflect_by(a, u)
        assert reflect_by(once, u) == a
        assert inner(once, once) == inner(a, a)
        lattice_cases += 1
        d = d_ell(m, ells)
        if all(m.part(j, l) > max(d, 0) for j, l in enumerate(ells)):
            raw = partial_ell_raw(m, ells)
            assert idx(raw) == idx(m)
            assert partial_ell_raw(raw, ells) == m
            assert root_of(raw) == once
            tuple_cases += 1
    assert lattice_cases >= 10_000 and tuple_cases >= 2_000


def test_dominance_strict_square_sums_bulk():
    rng = random.Random(113)
    cases = 0
    while cases < 10_000:
        n = rng.randint(2, 24)
        upper = sorted(random_partition(rng, n), reverse=True)
        lower = list(upper)
        # push mass downward to get a strictly dominated partition
        for _ in range(rng.randint(1, 6)):
            spots = [i for i in range(len(lower)) if
                     (i == 0 or lower[i - 1] > lower[i]) and lower[i] > 1]
            if not spots:
                break
            i = rng.choice(spots)
            lower[i] -= 1
            at = len(lower)
            while at > i + 1 and lower[at - 1] < 1:
                at -= 1
            # reinsert a unit keeping the partition monotone
            for j in range(i + 1, len(lower) + 1):
                if j == len(lower) or lower[j] < lower[j - 1]:
                    if j == len(lower):
                        lower.append(1)
                    else:
                        lower[j] += 1
                    break
        lower = sorted((x for x in lower if x), reverse=True)
        assert sum(lower) == n
        if tuple(lower) == tuple(upper):
            continue
        if not dominance_leq(lower, upper):
            continue
        assert sum(x * x for x in lower) < sum(x * x for x in upper)
        cases += 1


def test_idx_head_identity_bulk():
    # self-pairing plus column excesses equals the defect times the order
    rng = random.Random(127)
    cases = 0
    while cases < 10_000:
        m = random_tuple(rng, max_order=9, max_rows=4)
        sorted_rows = tuple(
            tuple(sorted(row, reverse=True)) for row in m.partitions
        )
        mm = SpectralType(sorted_rows)
        excess = sum(
            (row[0] - p) * p for row in mm.partitions for p in row[1:]
        )
        head = sum(row[0] for row in mm.partitions)
        k = mm.npart - 1
        assert idx(mm) + excess == (head - (k - 1) * mm.order) * mm.order
        cases += 1


def test_scaled_pidx_identity_bulk():
    rng = random.Random(131)
    cases = 0
    while cases < 10_000:
        base = random_tuple(rng, max_order=6, max_rows=4)
        for d in range(1, 6):
            scaled = scale_add(d, base, 0, base)
            assert pidx(scaled) == 1 + d * d * (pidx(base) - 1)
            cases += 1


def _leg_coefficients(a):
    legs = {}
    for (j, v), c in a.coeffs:
        legs.setdefault(j, {})[v] = c
    return legs


def _positive_root_profile_ok(a):
    """Coefficient shape of a positive root with support beyond the centre:
    weakly decreasing legs bounded by the centre, and the centre bounded by
    the first-ring sum minus the largest leg coefficient."""
    n = a.a0
    legs = _leg_coefficients(a)
    coeffs = []
    for j, leg in legs.items():
        depth = max(leg)
        prev = n
        for v in range(1, depth + 1):
            cur = leg.get(v, 0)
            if cur > prev:
                return False
            prev = cur
            coeffs.append(cur)
    ring = sum(leg.get(1, 0) for leg in legs.values())
    top = max(coeffs) if coeffs else 0
    return n <= ring - top


def test_positive_root_coefficient_profile():
    cases = 0
    roots = []
    for n in range(2, 8):
        roots.extend(root_of(m) for m in enumerate_rigid(n).items)
    for p in (0, -2, -4):
        roots.extend(root_of(m) for m in enumerate_basic(p).items)
    for a in roots:
        assert _positive_root_profile_ok(a)
        cases += 1
    # walk the reflection orbits to spray out more positive roots
    rng = random.Random(137)
    seeds = roots[:]
    while cases < 10_000:
        a = rng.choice(seeds)
        for _ in range(6):
            legs = _leg_coefficients(a)
            nodes = [0] + [
                (j, v) for j, leg in legs.items() for v in range(1, max(leg) + 2)
            ]
            a = reflect(a, rng.choice(nodes))
            if a.a0 > 0 and len(a.support()) > 1 and all(
                c > 0 for _, c in a.coeffs
            ):
                assert _positive_root_profile_ok(a)
                cases += 1


def _generic_table(shape):
    """Provably generic rational eigenvalues with zero trace: distinct prime
    powers on all columns but one, which is solved for the trace; any
    vanishing integer combination with small coefficients must then be
    proportional to the multiplicity grid."""
    big = 1009
    rows = []
    power = 1
    for row in shape.partitions:
        rows.append([Fraction(big) ** (power + i) for i in range(len(row))])
        power += len(row)
    head = sum(
        p * l for prow, lrow in zip(shape.partitions, rows)
        for p, l in zip(prow, lrow)
    )
    head -= shape.partitions[0][0] * rows[0][0]
    rows[0][0] = -head / shape.partitions[0][0]
    return tuple(tuple(r) for r in rows)


def _random_table(shape, rng):
    den = rng.randint(1, 50)
    rows = [
        [Fraction(rng.randint(-10 ** 6, 10 ** 6), den) for _ in row]
        for row in shape.partitions
    ]
    head = sum(
        p * l for prow, lrow in zip(shape.partitions, rows)
        for p, l in zip(prow, lrow)
    )
    head -= shape.partitions[0][0] * rows[0][0]
    rows[0][0] = -head / shape.partitions[0][0]
    return tuple(tuple(r) for r in rows)


def _all_tuples_up_to(order, max_rows):
    """Multisets of nontrivial partitions; at least two partitions so the
    existence theorem applies."""
    for n in range(2, order + 1):
        parts = _nontrivial_partitions(n, n * n)
        for size in range(2, max_rows + 1):
            for combo in itertools.combinations_with_replacement(parts, size):
                yield SpectralType(combo)


def test_existence_agrees_with_classification():
    rng = random.Random(139)
    cases = 0
    for m in _all_tuples_up_to(6, 5):
        expected = classify(m).irreducibly_realizable
        got = ds_existence(Scheme(m, _generic_table(m)))
        assert got == expected, "generic eigenvalues disagree on %s" % m
        cases += 1
        for _ in range(2):
            table = _random_table(m, rng)
            got = ds_existence(Scheme(m, table))
            retries = 0
            while got != expected and not expected and retries < 5:
                # random draw may vanish accidentally; resample
                table = _random_table(m, rng)
                got = ds_existence(Scheme(m, table))
                retries += 1
            if expected:
                # a generic-direction failure cannot be accidental
                assert got, "%s should be realizable" % m
            else:
                assert not got, "%s should not be realizable" % m
            cases += 1
    assert cases >= 10_000


def test_rigid_roots_are_real_positive():
    for n in range(2, 8):
        for m in enumerate_rigid(n).items:
            assert classify_root(root_of(m)) is RootClass.REAL_POSITIVE


def test_basic_roots_are_dominant_imaginary():
    for p in (0, -2, -4):
        for m in enumerate_basic(p).items:
            a = root_of(m)
            assert classify_root(a) is RootClass.IMAGINARY_POSITIVE
            for node in a.support():
                assert inner(a, simple_root(node)) <= 0


def test_basic_matches_lattice_dominance():
    # basicness of an indivisible tuple equals dominance of its lattice
    # vector: leg coefficients concave against their neighbours and the
    # centre at most the first-ring sum
    rng = random.Random(149)
    cases = 0
    while cases < 10_000:
        m = canonicalize(random_tuple(rng, max_order=8, max_rows=5))
        from midconv.spectype import gcd_of

        if gcd_of(m) != 1:
            continue
        a = root_of(m)
        legs = {}
        for (j, v), c in a.coeffs:
            legs.setdefault(j, {})[v] = c
        dominant = 2 * a.a0 <= sum(leg.get(1, 0) for leg in legs.values())
        for j, leg in legs.items():
            depth = max(leg)
            for v in range(1, depth + 1):
                prev = a.a0 if v == 1 else leg.get(v - 1, 0)
                if 2 * leg.get(v, 0) > prev + leg.get(v + 1, 0):
                    dominant = False
        assert classify(m).basic == dominant, str(m)
        cases += 1
