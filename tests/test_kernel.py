"""The integer reduction kernel against the root-lattice Weyl walk.

``katz.reduce_rows`` decides rigidity and realizability for every caller;
``rootlattice.classify_root`` is an independent walk on sparse lattice
vectors.  By the dictionary between spectral types and roots the kernel's
terminals must read: order one = real positive root, fixed point =
imaginary positive root, violation = no root.
"""

import itertools

import pytest

from midconv.enumeration import _nontrivial_partitions, enumerate_rigid
from midconv.katz import Terminal, reduce_rows
from midconv.rootlattice import RootClass, classify_root, root_of
from midconv.spectype import SpectralType

ROOT_CLASS = {
    Terminal.ORDER_ONE: RootClass.REAL_POSITIVE,
    Terminal.FIXED_POINT: RootClass.IMAGINARY_POSITIVE,
    Terminal.VIOLATION: RootClass.NOT_A_ROOT,
}


def _disagreements(grids):
    bad = []
    for rows in grids:
        st = SpectralType(rows, trim=False)
        kernel = ROOT_CLASS[reduce_rows(rows, st.order).terminal]
        if kernel is not classify_root(root_of(st)):
            bad.append(rows)
    return bad


def _multiset_grids():
    """Multisets of nontrivial partitions (at most 5 of them to order 7, at
    most 4 at order 8), each with one trivial row appended."""
    for n in range(1, 9):
        for k in range(0, (5 if n <= 7 else 4) + 1):
            for combo in itertools.combinations_with_replacement(
                _nontrivial_partitions(n, n * n), k
            ):
                yield combo + ((n,),)


def _rigid_sub_grids():
    """Every column-aligned sub-grid, zero entries included, of the
    three-point rigid classes of order <= 6."""
    for n in range(2, 7):
        for m in enumerate_rigid(n).items:
            if m.npart != 3:
                continue
            subs = [
                list(itertools.product(*(range(p + 1) for p in row)))
                for row in m.partitions
            ]
            for s in range(1, n + 1):
                yield from itertools.product(
                    *([sub for sub in rs if sum(sub) == s] for rs in subs)
                )


def test_kernel_matches_weyl_walk_on_partition_multisets():
    grids = list(_multiset_grids())
    assert len(grids) > 25000
    assert _disagreements(grids) == []


def test_kernel_matches_weyl_walk_on_rigid_sub_grids():
    grids = list(_rigid_sub_grids())
    assert any(0 in row for rows in grids for row in rows)
    assert _disagreements(grids) == []


@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("copies", [1, 3])
def test_only_trivial_partitions_is_a_violation(n, copies):
    rows = ((n,),) * copies
    assert reduce_rows(rows, n).terminal is Terminal.VIOLATION
    walk = classify_root(root_of(SpectralType(rows, trim=False)))
    assert walk is RootClass.NOT_A_ROOT


def test_kernel_carries_eigenvalues_with_the_columns():
    # 12,111,111 (order 3): the first maximal columns are 1, 0, 0 and d = 1
    rows = ((1, 2), (1, 1, 1), (1, 1, 1))
    red = reduce_rows(rows, 3, ((5, 7), (1, 2, 3), (4, 6, 8)))
    assert red.terminal is Terminal.ORDER_ONE
    order, marks, _ = red.steps[0]
    assert (order, marks) == (3, [1, 0, 0])
    # mu = (7, 1, 4), total 12: marked -> -mu_j, others l + 12 - 2 mu_j
    assert red.steps[1][2] == [[3, -7], [12, 13], [10, 12]]
