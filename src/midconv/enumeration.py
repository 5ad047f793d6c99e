"""Exhaustive enumeration of rigid and basic spectral-type classes.

Rigid classes are built, not filtered.  The maximal reduction step (Katz's
middle convolution at the first maximal column of every partition) takes a
rigid class of order n > 1 to a rigid class of order n - d, d its defect,
so the rigid classes form a tree rooted at the order-one class.  A
depth-first walk of that tree by inverse steps (:func:`_inverse_steps`)
reaches every class of order n canonical and exactly once, from its own
parent (canonical augmentation: B. D. McKay, J. Algorithms 26, 1998).

Basic classes of index p are multisets of nontrivial monotone partitions of
each order n <= 6 - 3p, generated in descending lexicographic order (so
every candidate is already canonical and no two candidates coincide).  The
self-index pins the total of the partition weights n^2 - sum(parts^2) at
2n^2 - p; basicness of an indivisible tuple then amounts to the sum over
partitions of sum_{v>=2} (m_1 - m_v) m_v being at most -p.  Each
nontrivial partition weighs at least 2n - 2, which bounds the number of
partitions.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .katz import Terminal, reduce_rows
from .spectype import InvariantError, SpectralType, to_text


class EnumerationError(ValueError):
    pass


def _nontrivial_partitions(n: int, budget: int) -> list[tuple[int, ...]]:
    """Monotone partitions of n with at least two parts and excess
    sum_{v>=2} (m_1 - m_v) m_v at most ``budget``, in descending lex order.

    Every excess term is >= 0.  Once a part p < m_1 is placed with ``left``
    units (p among them) to cover, the later parts q <= p cover left - p
    units and add q (m_1 - q) >= q (m_1 - p) each: every completion exceeds
    the prefix's excess by at least (m_1 - p)(left - p).  Past the budget
    the prefix is dropped with every smaller p, whose bound is larger.  A
    budget of n * n cuts nothing: every excess is below m_1 (n - m_1).
    """
    out: list[tuple[int, ...]] = []
    acc: list[int] = []

    def rec(left, cap, excess):
        if left == 0:
            out.append(tuple(acc))
            return
        for p in range(min(cap, left), 0, -1):
            head = acc[0] if acc else p
            cost = excess + (head - p) * p
            if cost + (head - p) * (left - p) > budget:
                break
            acc.append(p)
            rec(left - p, p, cost)
            acc.pop()

    rec(n, n - 1, 0)
    return out


def _weight(n: int, row: tuple[int, ...]) -> int:
    return n * n - sum(p * p for p in row)


def _reduces_to_one(rows: tuple[tuple[int, ...], ...], n: int) -> bool:
    """True when the maximal reduction chain of the rows reaches order one."""
    return reduce_rows(rows, n).terminal is Terminal.ORDER_ONE


def _multisets(weights, total, extra_cap=None, extras=None):
    """Non-decreasing index multisets with the prescribed total weight.

    ``extras``/``extra_cap`` optionally bound a second additive statistic
    (used for the basic fixed-point condition).
    """
    size = len(weights)
    minw = [0] * (size + 1)
    cur = None
    for i in range(size - 1, -1, -1):
        cur = weights[i] if cur is None else min(cur, weights[i])
        minw[i] = cur
    results = []
    acc: list[int] = []

    def rec(j0, remaining, budget):
        if remaining == 0:
            results.append(tuple(acc))
            return
        if j0 >= size or remaining < minw[j0]:
            return
        for j in range(j0, size):
            w = weights[j]
            if w > remaining:
                continue
            if extras is not None:
                e = extras[j]
                if e > budget:
                    continue
            else:
                e = 0
            rest = remaining - w
            if rest and rest < minw[j]:
                continue
            acc.append(j)
            rec(j, rest, budget - e)
            acc.pop()

    rec(0, total, extra_cap or 0)
    return results


class EnumerationReport(NamedTuple):
    """Deduplicated canonical classes plus counts."""

    kind: str  # "rigid" or "basic"
    parameter: int  # the order n, resp. the index p
    items: tuple[SpectralType, ...]
    total: int
    by_npart: tuple[tuple[int, int], ...]  # (#partitions, count), sorted

    def count(self, npart: int) -> int:
        """Number of classes with ``npart`` partitions; shadows
        ``tuple.count``."""
        return dict(self.by_npart).get(npart, 0)

    def to_lines(self) -> list[str]:
        return ["%d:%s" % (m.order, to_text(m)) for m in self.items]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "parameter": self.parameter,
            "total": self.total,
            "by_npart": [list(pair) for pair in self.by_npart],
            "items": [m.as_lists() for m in self.items],
        }


def _make_report(kind: str, parameter: int, grids) -> EnumerationReport:
    """The report of canonical grids, each of which must be listed once."""
    grids = sorted(grids)
    for a, b in zip(grids, grids[1:]):
        if a == b:
            raise InvariantError(
                "%s enumeration at %d lists %s twice"
                % (kind, parameter, to_text(SpectralType(a, trim=False)))
            )
    items = tuple(SpectralType(rows, trim=False) for rows in grids)
    by_npart: dict[int, int] = {}
    for m in items:
        by_npart[m.npart] = by_npart.get(m.npart, 0) + 1
    return EnumerationReport(
        kind, parameter, items, len(items), tuple(sorted(by_npart.items()))
    )


def _inverse_steps(rows, m: int, top: int) -> list:
    """Every rigid class of order m + 1 .. ``top`` whose maximal reduction
    step gives the rigid class of order m with canonical nontrivial rows
    ``rows`` (none for order one), as (order, canonical rows) pairs.

    A child of order n = m + d comes from choosing, for each of the P rows,
    a value c that is one of its parts or 0 (a new column) with c + d at
    least the row's largest part, raising one c to c + d, and adding t rows
    (d, m), t > 0 only when d >= m.  Its defect is d exactly when

        sum c = (P + t - 2) m - d.

    A depth-first search over the rows lists these choices: it prunes with
    the least and the greatest sum that the remaining rows can still give
    (``lo``, ``hi``) and looks the last row's value up.  The order-one
    class has no rows, so t = d + 2.  For d < m (so t = 0), sum c >= sum
    (largest part - d) needs (P - 1) d >= the parent's defect; smaller d
    are skipped before any row is looked at.

    Every child is a canonical rigid class whose maximal step gives back
    ``rows`` at defect d.  Its rows are P + t partitions of n with at
    least two parts each, sorted and led by the chosen column: c + d is at
    least every other part, and d >= m in (d, m).  Its defect is
    sum (c + d) + t d - (P + t - 2)(m + d) = sum c + 2d - (P + t - 2) m = d,
    and every marked value is at least d, so the step is taken.  It lowers
    each chosen column back to c, dropping a zero, and turns each (d, m)
    into the trivial (m): the result is the parent, which reduces to order
    one, so the child does too.

    Every rigid class C of order n > 1 comes out exactly once.  Its chain
    reaches order one, so its first step is taken, at a defect d > 0, and
    gives (canonicalized) a rigid class of order n - d: the parent.  A row
    of C with largest part a becomes trivial exactly when it is (a, n - a)
    with a = d, so (d, m) with d >= m: these are the t new rows.  Every
    other row becomes a nontrivial parent row, in which c = a - d is a part
    (or 0, when the column is dropped) and c + d = a is at least every
    other part: this is a choice above, and it builds C.  A child row gives
    back its parent row (lower its largest part by d), so C fixes d, t and
    the multiset of (parent row, c) pairs.  Equal consecutive parent rows
    take their values in non-increasing order, which lists each such
    multiset once; other parents or defects give other classes, so no set
    is kept.
    """
    size = len(rows)
    if not size:
        return [(1 + d, ((d, 1),) * (d + 2)) for d in range(1, top)]
    # per row: (c, the row less one c) for its distinct parts c, then (0, row)
    base = []
    for r in rows:
        opts = [
            (c, r[:i] + r[i + 1:])
            for i, c in enumerate(r)
            if i == 0 or r[i - 1] != c
        ]
        opts.append((0, r))
        base.append(opts)
    hi = [0] * (size + 1)
    for j in range(size - 1, -1, -1):
        hi[j] = hi[j + 1] + rows[j][0]
    defect = hi[0] - (size - 2) * m
    same = [rows[j] == rows[j + 1] for j in range(size - 1)]
    last = {c: k for k, (c, _) in enumerate(base[-1])}
    ks = [1] * size  # the values allowed at d are base[j][:ks[j]]
    lo = [0] * (size + 1)
    chosen = [None] * size
    out = []

    def rec(j, rest, start):  # reads d, n and extra of the current step
        if j == size - 1:
            k = last.get(rest)
            if k is not None and start <= k < ks[j]:
                chosen[j] = base[j][k]
                grown = [(c + d,) + r for c, r in chosen]
                out.append((n, tuple(sorted(grown + extra, reverse=True))))
            return
        opts, h, l = base[j], hi[j + 1], lo[j + 1]
        for k in range(start, ks[j]):
            c = opts[k][0]
            if rest - c > h:
                break
            if rest - c < l:
                continue
            chosen[j] = opts[k]
            rec(j + 1, rest - c, k if same[j] else 0)

    for d in range(1, top - m + 1):
        if d < m and (size - 1) * d < defect:
            continue
        n = m + d
        for j, opts in enumerate(base):
            k, low = ks[j], rows[j][0] - d
            while k < len(opts) and opts[k][0] >= low:
                k += 1
            ks[j] = k
        for j in range(size - 1, -1, -1):
            lo[j] = lo[j + 1] + base[j][ks[j] - 1][0]
        most = (hi[0] + d) // m - size + 2 if d >= m else 0
        for t in range(most + 1):
            target = (size + t - 2) * m - d
            if lo[0] <= target <= hi[0]:
                extra = [(d, m)] * t
                rec(0, target, 0)
    return out


def _rigid_grids(n: int):
    """Canonical rows of every rigid class of order n, each once.

    A depth-first walk of the tree of :func:`_inverse_steps` from the
    order-one class: each class below order n is expanded once, and only
    the classes of order n are kept, so besides the output the walk holds
    just the unexpanded siblings along its current path.
    """
    found = []
    stack = [(1, ())]
    while stack:
        m, rows = stack.pop()
        for order, child in _inverse_steps(rows, m, n):
            if order == n:
                found.append(child)
            else:
                stack.append((order, child))
    return found


def enumerate_rigid(n: int, *, max_order: int = 14) -> EnumerationReport:
    """All canonical rigid classes of order n.

    Each class is built once from its parent under the maximal reduction
    step, starting at order one (:func:`_inverse_steps`); nothing is kept
    between calls.  ``max_order`` guards long runs; raise it for orders
    beyond 14.
    """
    if n < 2:
        raise EnumerationError("order must be >= 2; order 1 has the single class 1")
    if n > max_order:
        raise EnumerationError(
            "order %d exceeds max_order=%d; pass a larger bound explicitly"
            % (n, max_order)
        )
    return _make_report("rigid", n, _rigid_grids(n))


def _basic_grids(p: int, n: int):
    parts = _nontrivial_partitions(n, -p)
    weights = tuple(_weight(n, row) for row in parts)
    excesses = tuple(sum((row[0] - q) * q for q in row[1:]) for row in parts)
    found = []
    for combo in _multisets(weights, 2 * n * n - p, extra_cap=-p, extras=excesses):
        grid = tuple(parts[j] for j in combo)
        if math.gcd(*(q for row in grid for q in row)) == 1:
            found.append(grid)
    return found


def enumerate_basic(p: int) -> EnumerationReport:
    """All canonical basic classes of self-index p (p <= 0, even).

    Basicness of a monotone indivisible tuple with index p amounts to the
    per-partition excesses summing to at most -p, and the order is bounded
    by 6 - 3p, so the search is finite.
    """
    if p > 0 or p % 2:
        raise EnumerationError("index must be an even integer <= 0")
    grids = []
    for n in range(2, 6 - 3 * p + 1):
        grids.extend(_basic_grids(p, n))
    return _make_report("basic", p, grids)


def count_table(max_n: int, max_p: int) -> dict:
    """Aggregated counts: rigid classes by order (total and triples) for
    2 <= n <= max_n, and basic classes by even index down to max_p (total,
    triples and 4-tuples)."""
    rigid_rows = []
    for n in range(2, max_n + 1):
        rep = enumerate_rigid(n, max_order=max(max_n, 14))
        rigid_rows.append((n, rep.count(3), rep.total))
    basic_rows = []
    p = 0
    while p >= max_p:
        rep = enumerate_basic(p)
        basic_rows.append((p, rep.total, rep.count(3), rep.count(4)))
        p -= 2
    return {"rigid": rigid_rows, "basic": basic_rows}
