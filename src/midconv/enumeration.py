"""Exhaustive enumeration of rigid and basic spectral-type classes.

Candidates are multisets of nontrivial monotone partitions of a fixed order
n, generated in descending lexicographic order (so every candidate is
already canonical and no two candidates coincide).  The self-index pins the
total of the partition weights n^2 - sum(parts^2):

  * rigid classes: total weight 2n^2 - 2, then the reduction chain must
    reach order one;
  * basic classes of index p: total weight 2n^2 - p, with the fixed-point
    condition equivalent to sum over partitions of
    sum_{v>=2} (m_1 - m_v) m_v <= -p, and the tuple indivisible.

Each nontrivial partition weighs at least 2n - 2, which bounds the number
of partitions; orders of basic tuples of index p are bounded by 6 - 3p.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .katz import Terminal, reduce_rows
from .spectype import SpectralType, to_text


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


def _multisets(weights, total, extra_cap=None, extras=None, first=None):
    """Non-decreasing index multisets with the prescribed total weight.

    ``extras``/``extra_cap`` optionally bound a second additive statistic
    (used for the basic fixed-point condition).  With ``first`` only the
    multisets whose smallest index is ``first`` are generated.
    """
    size = len(weights)
    minw = [0] * (size + 1)
    cur = None
    for i in range(size - 1, -1, -1):
        cur = weights[i] if cur is None else min(cur, weights[i])
        minw[i] = cur
    results = []
    acc: list[int] = []

    def rec(j0, remaining, budget, stop=size):
        if remaining == 0:
            results.append(tuple(acc))
            return
        if j0 >= size or remaining < minw[j0]:
            return
        for j in range(j0, stop):
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

    if first is None:
        rec(0, total, extra_cap or 0)
    else:
        rec(first, total, extra_cap or 0, first + 1)
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
    items = tuple(
        SpectralType(rows, trim=False) for rows in sorted(set(grids))
    )
    by_npart: dict[int, int] = {}
    for m in items:
        by_npart[m.npart] = by_npart.get(m.npart, 0) + 1
    return EnumerationReport(
        kind, parameter, items, len(items), tuple(sorted(by_npart.items()))
    )


def _rigid_grids(n: int, first: int | None = None):
    parts = _nontrivial_partitions(n, n * n)
    weights = tuple(_weight(n, row) for row in parts)
    found = []
    for combo in _multisets(weights, 2 * n * n - 2, first=first):
        rows = tuple(parts[j] for j in combo)
        if _reduces_to_one(rows, n):
            found.append(rows)
    return found


def enumerate_rigid(
    n: int, *, max_order: int = 14, jobs: int = 1
) -> EnumerationReport:
    """All canonical rigid classes of order n.

    Candidates are the multisets of nontrivial partitions with self-index 2
    (at most n+1 partitions); rigidity is then the success of the reduction
    chain.  ``max_order`` guards the combinatorial blow-up; raise it for
    long-running jobs.  ``jobs`` > 1 splits the space by the first
    partition across processes, one first partition per task.
    """
    if n < 2:
        raise EnumerationError("order must be >= 2; order 1 has the single class 1")
    if n > max_order:
        raise EnumerationError(
            "order %d exceeds max_order=%d; pass a larger bound explicitly"
            % (n, max_order)
        )
    if jobs > 1:
        import multiprocessing

        firsts = range(len(_nontrivial_partitions(n, n * n)))
        with multiprocessing.Pool(jobs) as pool:
            chunks = pool.starmap(_rigid_grids, [(n, f) for f in firsts], chunksize=1)
        grids = [rows for chunk in chunks for rows in chunk]
    else:
        grids = _rigid_grids(n)
    return _make_report("rigid", n, grids)


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


def count_table(max_n: int, max_p: int, *, jobs: int = 1) -> dict:
    """Aggregated counts: rigid classes by order (total and triples) for
    2 <= n <= max_n, and basic classes by even index down to max_p (total,
    triples and 4-tuples).  ``jobs`` applies to the rigid half only."""
    rigid_rows = []
    for n in range(2, max_n + 1):
        rep = enumerate_rigid(n, max_order=max(max_n, 14), jobs=jobs)
        rigid_rows.append((n, rep.count(3), rep.total))
    basic_rows = []
    p = 0
    while p >= max_p:
        rep = enumerate_basic(p)
        basic_rows.append((p, rep.total, rep.count(3), rep.count(4)))
        p -= 2
    return {"rigid": rigid_rows, "basic": basic_rows}
