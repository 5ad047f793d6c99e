"""Exact linear algebra over the rationals.

Small dense matrices as tuples of tuples of Fraction.  Rank uses
fraction-free (Bareiss) elimination on a denominator-cleared integer copy;
solving, null spaces and inverses use ordinary Gauss-Jordan over Fraction.
No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class LinAlgError(ValueError):
    pass


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise LinAlgError("floats are not exact rationals")
    return Fraction(x)


class RationalMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise LinAlgError("matrix needs at least one row and column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise LinAlgError("ragged rows")
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            tuple(
                tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
            )
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "RationalMatrix(%r)" % (
            [[str(x) for x in row] for row in self.rows],
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        return RationalMatrix(
            tuple(tuple(c * x for x in row) for row in self.rows)
        )

    def shift(self, c) -> "RationalMatrix":
        """A + c * identity."""
        if not self.is_square():
            raise LinAlgError("shift needs a square matrix")
        c = _frac(c)
        return RationalMatrix(
            tuple(
                tuple(x + c if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(self.rows)
            )
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise LinAlgError("dimension mismatch in product")
        cols = tuple(zip(*other.rows))
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def trace(self) -> Fraction:
        if not self.is_square():
            raise LinAlgError("trace needs a square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def rank(self) -> int:
        """Fraction-free Bareiss elimination on an integer-cleared copy."""
        m = []
        for row in self.rows:
            den = math.lcm(*(x.denominator for x in row))
            m.append([int(x * den) for x in row])
        nr, nc = len(m), len(m[0])
        r = 0
        prev = 1
        for c in range(nc):
            piv = next((i for i in range(r, nr) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            for i in range(r + 1, nr):
                for j in range(c + 1, nc):
                    m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
                m[i][c] = 0
            prev = m[r][c]
            r += 1
            if r == nr:
                break
        return r

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        m = [list(row) for row in self.rows]
        nr, nc = len(m), len(m[0])
        pivots = []
        r = 0
        for c in range(nc):
            piv = next((i for i in range(r, nr) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = Fraction(1) / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return RationalMatrix(m), tuple(pivots)

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right kernel."""
        red, pivots = self.rref()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for f in free:
            vec = [Fraction(0)] * nc
            vec[f] = Fraction(1)
            for r, p in enumerate(pivots):
                vec[p] = -red.rows[r][f]
            basis.append(tuple(vec))
        return basis

    def inverse(self) -> "RationalMatrix":
        if not self.is_square():
            raise LinAlgError("inverse needs a square matrix")
        n = self.nrows
        aug = RationalMatrix(
            tuple(
                row + tuple(Fraction(int(i == j)) for j in range(n))
                for i, row in enumerate(self.rows)
            )
        )
        red, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise LinAlgError("matrix is singular")
        return RationalMatrix(tuple(row[n:] for row in red.rows))

    def charpoly(self) -> tuple[Fraction, ...]:
        """Monic characteristic polynomial coefficients, highest degree
        first, by the trace recursion (exact)."""
        if not self.is_square():
            raise LinAlgError("charpoly needs a square matrix")
        n = self.nrows
        coeffs = [Fraction(1)]
        acc = RationalMatrix.identity(n)
        for k in range(1, n + 1):
            acc = self @ acc
            c = -acc.trace() / k
            coeffs.append(c)
            acc = acc.shift(c)
        return tuple(coeffs)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]


def hstack(mats: Sequence[RationalMatrix]) -> RationalMatrix:
    rows = mats[0].nrows
    if any(m.nrows != rows for m in mats):
        raise LinAlgError("hstack needs equal row counts")
    return RationalMatrix(
        tuple(
            tuple(x for m in mats for x in m.rows[i]) for i in range(rows)
        )
    )


def vstack(mats: Sequence[RationalMatrix]) -> RationalMatrix:
    cols = mats[0].ncols
    if any(m.ncols != cols for m in mats):
        raise LinAlgError("vstack needs equal column counts")
    return RationalMatrix(tuple(row for m in mats for row in m.rows))
