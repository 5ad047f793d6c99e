"""Tuples of partitions of a common order and the rigidity index form.

A spectral type records, for each singular point of a Fuchsian system, the
eigenvalue multiplicities of the local residue matrix: one partition per
point, every partition summing to the same order n.  Beyond the stored
partitions the tuple continues implicitly with the trivial partition (n),
which is never materialised.

Zero entries are permitted in storage so that column-aligned arithmetic
(differences, decompositions, position-tracked reductions) can keep columns
fixed; user-facing normalisation removes them.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


class SpectralTypeError(ValueError):
    """Malformed spectral-type data or text."""


class InvariantError(RuntimeError):
    """A result breaks an invariant that holds for valid input (an error
    rather than an ``assert``, so that ``python -O`` keeps the check)."""


def _as_rows(partitions: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    rows = tuple(tuple(map(int, row)) for row in partitions)
    if not rows:
        raise SpectralTypeError("a spectral type needs at least one partition")
    for row in rows:
        if not row:
            raise SpectralTypeError("empty partition")
        if min(row) < 0:
            raise SpectralTypeError("negative part in %r" % (row,))
    sums = {sum(row) for row in rows}
    if len(sums) != 1:
        raise SpectralTypeError("partitions have different sums: %r" % sorted(sums))
    order = sums.pop()
    if order < 1:
        raise SpectralTypeError("order must be at least 1")
    return rows


class SpectralType:
    """Immutable tuple of partitions of a common order.

    ``partitions[j][v]`` is the multiplicity at point j, column v (0-based
    storage for the 1-based column index v+1).  With ``trim`` (the default)
    stored copies of the trivial partition (n) are dropped, since they carry
    no information; a single-entry partition therefore only survives for
    order 1 or when trimming is disabled.
    """

    __slots__ = ("partitions", "order")

    def __init__(self, partitions: Iterable[Iterable[int]], *, trim: bool = True):
        rows = _as_rows(partitions)
        order = sum(rows[0])
        if trim:
            kept = tuple(row for row in rows if row != (order,))
            rows = kept if kept else ((order,),)
        object.__setattr__(self, "partitions", rows)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralType is immutable")

    @property
    def npart(self) -> int:
        """Number of stored partitions (the k+1 of the tuple)."""
        return len(self.partitions)

    def part(self, j: int, v: int) -> int:
        """Multiplicity at point j, 1-based column v; 0 beyond storage."""
        row = self.partitions[j]
        return row[v - 1] if 1 <= v <= len(row) else 0

    def strip_zeros(self) -> "SpectralType":
        """Drop zero parts, keeping partition order."""
        return SpectralType(
            (tuple(p for p in row if p) or (0,) for row in self.partitions),
            trim=False,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, SpectralType) and self.partitions == other.partitions

    def __hash__(self) -> int:
        return hash(self.partitions)

    def __repr__(self) -> str:
        return "SpectralType(%r)" % (self.partitions,)

    def __str__(self) -> str:
        return to_text(self)

    def as_lists(self) -> list[list[int]]:
        """JSON form: array of arrays of integers."""
        return [list(row) for row in self.partitions]


def parse(text: str, *, trim: bool = True) -> SpectralType:
    """Parse comma-separated partitions.

    Each partition is either a digit string (every part a single digit 1-9,
    e.g. ``411``) or space-separated integers (``10 1``).  Zero parts are
    rejected; all partitions must sum to the same order.
    """
    if not text or not text.strip():
        raise SpectralTypeError("empty input")
    rows = []
    for token in text.strip().split(","):
        token = token.strip()
        if not token:
            raise SpectralTypeError("empty partition in %r" % text)
        try:
            if " " in token:
                parts = tuple(int(t) for t in token.split())
            elif token.isdigit():
                parts = tuple(int(c) for c in token)
            else:
                raise ValueError
        except ValueError:
            raise SpectralTypeError("non-numeric partition %r" % token) from None
        if any(p == 0 for p in parts):
            raise SpectralTypeError("zero part in %r" % token)
        rows.append(parts)
    return SpectralType(rows, trim=trim)


def to_text(m: SpectralType) -> str:
    """Render in the compact digit notation, or space-separated if any part
    exceeds 9."""
    if all(p <= 9 for row in m.partitions for p in row):
        return ",".join("".join(str(p) for p in row) for row in m.partitions)
    return ",".join(" ".join(str(p) for p in row) for row in m.partitions)


def canonicalize(m: SpectralType) -> SpectralType:
    """The distinguished representative of the symmetry class of ``m``.

    Zero parts are removed, each partition is sorted non-increasingly, the
    partitions are sorted in descending lexicographic order and trivial
    partitions (n) are dropped.  Two spectral types are related by part and
    partition permutations exactly when their canonical forms are equal.
    """
    n = m.order
    rows = []
    for row in m.partitions:
        cleaned = tuple(sorted((p for p in row if p), reverse=True))
        if cleaned and cleaned != (n,):
            rows.append(cleaned)
    if not rows:
        return SpectralType(((n,),), trim=False)
    rows.sort(reverse=True)
    return SpectralType(rows, trim=False)


def is_canonical(m: SpectralType) -> bool:
    return m == canonicalize(m)


def _aligned_rows(m: SpectralType, m2: SpectralType):
    """Pairs of rows over a common k, padding with trivial partitions."""
    rows = max(m.npart, m2.npart)
    for j in range(rows):
        p = m.partitions[j] if j < m.npart else (m.order,)
        q = m2.partitions[j] if j < m2.npart else (m2.order,)
        yield p, q


def idx(m: SpectralType, m2: SpectralType | None = None) -> int:
    """The rigidity index pairing.

    Sum of componentwise products over a common k (shorter tuple padded with
    trivial partitions) minus (k-1) times the product of the orders.  The
    value is independent of how many trivial partitions either side stores;
    ``idx(m)`` abbreviates ``idx(m, m)`` and equals 2 exactly on rigid
    classes.
    """
    if m2 is None:
        m2 = m
    rows = max(m.npart, m2.npart)
    dot = 0
    for p, q in _aligned_rows(m, m2):
        dot += sum(a * b for a, b in zip(p, q))
    return dot - (rows - 2) * m.order * m2.order


def pidx(m: SpectralType) -> int:
    """Number of accessory parameters: 1 - idx(m)/2 (idx is always even)."""
    i = idx(m)
    if i % 2:
        raise SpectralTypeError("self-index must be even, got %d" % i)
    return 1 - i // 2


def scale_add(a: int, m: SpectralType, b: int, m2: SpectralType) -> SpectralType:
    """Componentwise a*m + b*m2 on column-aligned tuples; zero parts removed.

    When both coefficients are nonzero the tuples must have the same number
    of partitions and the same column count per partition (callers align by
    explicit zero padding; no implicit sorting happens here).
    """
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise SpectralTypeError("coefficients must be nonnegative, not both zero")
    if a == 0:
        rows = tuple(tuple(b * p for p in row) for row in m2.partitions)
    elif b == 0:
        rows = tuple(tuple(a * p for p in row) for row in m.partitions)
    else:
        if m.npart != m2.npart:
            raise SpectralTypeError(
                "cannot add tuples with %d and %d partitions" % (m.npart, m2.npart)
            )
        rows = []
        for p, q in zip(m.partitions, m2.partitions):
            if len(p) != len(q):
                raise SpectralTypeError(
                    "ambiguous column pairing: %r vs %r" % (p, q)
                )
            rows.append(tuple(a * x + b * y for x, y in zip(p, q)))
    return SpectralType(
        (tuple(p for p in row if p) or (0,) for row in rows), trim=False
    )


def gcd_of(m: SpectralType) -> int:
    """Greatest common divisor of all parts; 1 means indivisible."""
    return math.gcd(*(p for row in m.partitions for p in row))


def divide(m: SpectralType, d: int) -> SpectralType:
    """Exact componentwise division by a common divisor d."""
    if d < 1 or gcd_of(m) % d:
        raise SpectralTypeError("%d does not divide all parts" % d)
    return SpectralType(
        (tuple(p // d for p in row) for row in m.partitions), trim=False
    )


def dominance_leq(p: Sequence[int], q: Sequence[int]) -> bool:
    """Dominance comparison of two monotone partitions of the same total.

    True when every prefix sum of ``p`` is at most the matching prefix sum
    of ``q``.  On distinct comparable partitions the sum of squares is
    strictly larger on the dominating side.
    """
    p = tuple(p)
    q = tuple(q)
    for row in (p, q):
        if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
            raise SpectralTypeError("partition %r is not monotone" % (row,))
        if row and row[-1] < 0:
            raise SpectralTypeError("negative part in %r" % (row,))
    if sum(p) != sum(q):
        raise SpectralTypeError("partitions have different sums")
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp > sq:
            return False
    return True


def unit_at(ells: Sequence[int]) -> SpectralType:
    """The order-1 tuple whose j-th partition has its single 1 in column
    ells[j] (1-based)."""
    if not ells or any(l < 1 for l in ells):
        raise SpectralTypeError("column indices must be >= 1")
    return SpectralType(((0,) * (l - 1) + (1,) for l in ells), trim=False)
