"""Exact linear algebra over the rationals.

Small dense matrices as tuples of tuples of Fraction.  Rank, reduced
echelon form (and so null spaces and inverses) and products work on integer
copies: each row (for a product, each column of the right factor) is
multiplied by the lcm of its denominators, and the results go back to
Fraction only at the end.  No floating point anywhere.
"""

from __future__ import annotations

import math
import operator
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


def _cleared(rows) -> tuple[list[list[int]], list[int]]:
    """Integer rows and the lcm of each row's denominators."""
    out, dens = [], []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
        dens.append(den)
    return out, dens


def _eliminate(m: list[list[int]], above: bool) -> list[int]:
    """Row-reduce the integer rows ``m`` in place; return the pivot columns.

    Pivot k moves to row k; each other row below it (and, with ``above``,
    each row above it) that has a nonzero entry f in the pivot column
    becomes p * row - f * pivot_row, p the pivot entry, divided by the gcd
    of its entries.  The rows past the last pivot end up zero.

    The entries stay as small as Bareiss's.  Both methods apply the same row
    operations up to nonzero scalars: after each pivot, a row of either one
    is a nonzero multiple of its input row plus a combination of the input
    rows of the pivots reduced into it, and it vanishes in those pivot
    columns; as the pivot block is invertible, that fixes the row up to a
    factor.  So each primitive row here is the matching Bareiss row divided
    by its content, and its entries never exceed Bareiss's minors of ``m``.
    With ``above`` the same holds for fraction-free Gauss-Jordan, whose
    entries are minors by Cramer's rule.
    """
    nr, nc = len(m), len(m[0])
    pivots: list[int] = []
    for c in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(0 if above else r + 1, nr):
            f = m[i][c]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(m[i], prow)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if r + 1 == nr:
            break
    return pivots


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

    def _entrywise(self, other: "RationalMatrix", op) -> "RationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in sum or difference")
        return RationalMatrix(
            tuple(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows)
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._entrywise(other, operator.sub)

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
        rows, dens = _cleared(self.rows)
        cols, col_dens = _cleared(zip(*other.rows))
        return RationalMatrix(
            (Fraction(sum(map(operator.mul, row, col)), d * e)
             for col, e in zip(cols, col_dens))
            for row, d in zip(rows, dens)
        )

    def trace(self) -> Fraction:
        if not self.is_square():
            raise LinAlgError("trace needs a square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def rank(self) -> int:
        return len(_eliminate(_cleared(self.rows)[0], above=False))

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        m = _cleared(self.rows)[0]
        pivots = _eliminate(m, above=True)
        for row, c in zip(m, pivots):
            row[:] = [Fraction(x, row[c]) for x in row]
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
