"""Three-point Riemann schemes, rigid decompositions and the gamma-product
connection coefficient.

For a rigid three-point scheme whose distinguished columns at the first two
points carry multiplicity one, the connection coefficient between the two
normalized local solutions is a ratio of gamma factors: the numerator runs
over exponent differences at the two points, the denominator over the
accessory-free values (Fuchs values) of the pinned rigid decompositions of
the spectral type.  A numerically independent check for the hypergeometric
family evaluates the limit of (1-x)^b * nFn-1(x) as x tends to 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .katz import (
    Scheme, SchemeError, Terminal, _column_sum, _grid_sub, _sub_grids, reduce_rows
)
from .paramform import ParamForm
from .spectype import SpectralType


class PoleError(ValueError):
    """A gamma factor sits at a nonpositive integer."""

    def __init__(self, factor):
        self.factor = factor
        super().__init__("gamma factor at a nonpositive integer: %s" % (factor,))


class OracleError(ValueError):
    """The series limit did not converge within the term budget."""


def _pins(m: SpectralType, pin0: int | None, pin1: int | None) -> tuple[int, int]:
    """The pinned columns (1-based) at the first two points; None means the
    last column."""
    pins = []
    for j, (pin, row) in enumerate(zip((pin0, pin1), m.partitions)):
        if pin is None:
            pin = len(row)
        elif not 1 <= pin <= len(row):
            raise SchemeError(
                "pin %d at point %d is outside 1..%d" % (pin, j, len(row))
            )
        pins.append(pin)
    return pins[0], pins[1]


class RiemannScheme(Scheme):
    """A scheme with exactly three points (no geometric moduli left)."""

    def __init__(self, shape: SpectralType, eigenvalues):
        if shape.npart != 3:
            raise SchemeError("a Riemann scheme here has exactly three points")
        super().__init__(shape, eigenvalues)

    def normalized(self, pin0: int | None = None, pin1: int | None = None):
        """Shift exponents so the pinned columns at the first two points
        vanish; the third point absorbs the shifts."""
        pin0, pin1 = _pins(self.shape, pin0, pin1)
        s0 = self.eigenvalues[0][pin0 - 1]
        s1 = self.eigenvalues[1][pin1 - 1]
        rows = (
            tuple(e - s0 for e in self.eigenvalues[0]),
            tuple(e - s1 for e in self.eigenvalues[1]),
            tuple(e + s0 + s1 for e in self.eigenvalues[2]),
        )
        return RiemannScheme(self.shape, rows)


def fuchs_value(
    scheme: Scheme, sub_shape: SpectralType | None = None
) -> ParamForm:
    """Sum of multiplicity times exponent, minus order, plus one.

    With ``sub_shape`` the multiplicities of a column-aligned sub-tuple are
    used against the scheme's exponents (the Fuchs value of the piece)."""
    shape = sub_shape if sub_shape is not None else scheme.shape
    if len(shape.partitions) != len(scheme.eigenvalues) or any(
        len(r) > len(e) for r, e in zip(shape.partitions, scheme.eigenvalues)
    ):
        raise SchemeError("sub-shape is not aligned with the scheme")
    return _column_sum(shape.partitions, scheme.eigenvalues, 1 - shape.order)


def _is_rigid_grid(grid) -> bool:
    """Rigidity of a column-aligned grid (zero entries allowed)."""
    return reduce_rows(grid, sum(grid[0])).terminal is Terminal.ORDER_ONE


def rigid_decompositions(
    m: SpectralType, pin0: int | None = None, pin1: int | None = None
) -> list[tuple[SpectralType, SpectralType]]:
    """Ordered splittings m = m' + m'' into rigid summands, column-aligned,
    with m' carrying the pinned unit column of the first point and m'' the
    pinned unit column of the second.

    Requires a rigid three-partition tuple with all parts positive and
    multiplicity one at both pins; the number of splittings is then the
    column count of the first partition plus that of the second minus two.
    """
    if m.npart != 3:
        raise SchemeError("rigid decompositions need exactly three partitions")
    if any(p <= 0 for row in m.partitions for p in row):
        raise SchemeError("all parts must be positive")
    pin0, pin1 = _pins(m, pin0, pin1)
    if m.part(0, pin0) != 1 or m.part(1, pin1) != 1:
        raise SchemeError("pinned columns must carry multiplicity one")
    if not _is_rigid_grid(m.partitions):
        raise SchemeError("%s is not rigid" % m)
    # On aligned three-point grids (m', m) = sum of m'_{j,v} * m_{j,v} over
    # all columns, minus s * n for s = ord m'.  If m' and m'' = m - m' are
    # both rigid, 2 = (m, m) = 2 + 2 + 2 (m', m''), so (m', m'') = -1 and
    # (m', m) = 1.  Conversely, if m' is rigid and (m', m) = 1, then
    # m'' = m - (m', m) m' is the reflection of the real root m in m': a
    # real root with nonnegative entries, hence rigid.  So the search keeps
    # the sub-grids with (m', m) = 1, and only m' needs the kernel.  Row 0
    # of m' sums to s, so weighting it by m_{0,v} - n takes in the - s * n.
    n = m.order
    weights = (tuple(p - n for p in m.partitions[0]),) + m.partitions[1:]
    pins = ((0, pin0 - 1, 1), (1, pin1 - 1, 0))
    out = []
    for first in _sub_grids(m.partitions, weights, 1, pins):
        if _is_rigid_grid(first):
            pair = (first, _grid_sub(m.partitions, first))
            out.append(tuple(SpectralType(g) for g in pair))
    out.sort(key=lambda pair: pair[0].partitions)
    return out


class GammaFormula(NamedTuple):
    """Product of gamma values over the numerator forms divided by the
    product over the denominator forms."""

    num: tuple[ParamForm, ...]
    den: tuple[ParamForm, ...]

    @staticmethod
    def of(num, den) -> "GammaFormula":
        return GammaFormula(
            tuple(sorted((ParamForm.of(f) for f in num), key=ParamForm.sort_key)),
            tuple(sorted((ParamForm.of(f) for f in den), key=ParamForm.sort_key)),
        )

    def __str__(self) -> str:
        top = "".join("G(%s)" % f for f in self.num) or "1"
        bottom = "".join("G(%s)" % f for f in self.den) or "1"
        return "%s / [%s]" % (top, bottom)

    def to_latex(self) -> str:
        top = "".join("\\Gamma(%s)" % f.to_latex() for f in self.num) or "1"
        bottom = "".join("\\Gamma(%s)" % f.to_latex() for f in self.den) or "1"
        return "\\frac{%s}{%s}" % (top, bottom)

    def to_json(self) -> dict:
        return {
            "num": [f.to_json() for f in self.num],
            "den": [f.to_json() for f in self.den],
        }


def connection_formula(
    scheme: RiemannScheme, pin0: int | None = None, pin1: int | None = None
) -> GammaFormula:
    """Connection coefficient between the normalized solutions attached to
    the pinned exponents at the first two points.

    Numerator: gamma at (pinned exponent at point 0) - (other exponent) + 1
    for every other column of point 0, and at (other exponent) - (pinned
    exponent at point 1) for every other column of point 1.  Denominator:
    gamma at the Fuchs value of the first summand of every pinned rigid
    decomposition, with multiplicity.
    """
    m = scheme.shape
    pin0, pin1 = _pins(m, pin0, pin1)
    decs = rigid_decompositions(m, pin0, pin1)
    ev0 = scheme.eigenvalues[0]
    ev1 = scheme.eigenvalues[1]
    num = [
        ev0[pin0 - 1] - e + 1 for v, e in enumerate(ev0) if v != pin0 - 1
    ]
    num += [e - ev1[pin1 - 1] for v, e in enumerate(ev1) if v != pin1 - 1]
    den = [fuchs_value(scheme, first) for first, _ in decs]
    return GammaFormula.of(num, den)


def _gamma_signed(x: float) -> tuple[float, int]:
    """log|Gamma(x)| and the sign of Gamma(x) for non-pole x."""
    if x > 0:
        return math.lgamma(x), 1
    sign = -1 if math.floor(-x) % 2 == 0 else 1
    return math.lgamma(x), sign


def evaluate(formula: GammaFormula, assignment=None) -> float:
    """Numeric value via log-gamma with sign tracking.

    Exact rational factor values are checked for nonpositive-integer poles
    first; a numerator pole raises, as does a denominator pole (the value
    would be zero there, but the formula is only used off the poles).
    """
    log_total = 0.0
    sign = 1
    for side, factors in (("num", formula.num), ("den", formula.den)):
        for f in factors:
            val = f.evaluate(assignment)
            if val.denominator == 1 and val <= 0:
                raise PoleError(f)
            lg, s = _gamma_signed(float(val))
            if side == "num":
                log_total += lg
            else:
                log_total -= lg
            sign *= s
    return sign * math.exp(log_total)


def _series_sum(alphas, betas_low, x: float, terms: int) -> tuple[float, float]:
    """Partial sum of the hypergeometric series and its last term."""
    import numpy as np

    total = 1.0
    t = 1.0
    start = 0
    block = 1 << 20
    while start < terms:
        size = min(block, terms - start)
        k = np.arange(start, start + size, dtype=np.float64)
        r = np.full(size, x)
        for a in alphas:
            r *= a + k
        for b in betas_low:
            r /= b + k
        r /= 1.0 + k
        np.cumprod(r, out=r)
        r *= t
        total += float(r.sum())
        t = float(r[-1])
        start += size
    return total, t


def series_limit_oracle(
    alphas: Sequence, betas: Sequence, tol: float = 1e-9
) -> float:
    """Limit of (1-x)^(last beta) times the hypergeometric series at the
    unit argument, by geometric nodes x = 1 - 2^-s for s = 8..18 and
    repeated Richardson elimination of the four smallest error exponents
    (known: the last beta plus integers, and integers).

    Requires equal parameter sums, a positive last beta, and at most four
    numerator parameters; raises :class:`OracleError` when the term budget
    is exhausted before the partial sums settle.
    """
    alphas = [Fraction(a) for a in alphas]
    betas = [Fraction(b) for b in betas]
    if len(alphas) != len(betas) or not 2 <= len(alphas) <= 4:
        raise OracleError("need between two and four parameter pairs")
    if sum(alphas) != sum(betas):
        raise OracleError("parameter sums must agree")
    beta_tail = betas[-1]
    if beta_tail <= 0:
        raise OracleError("the limit needs a positive last lower parameter")
    for b in betas[:-1]:
        if b.denominator == 1 and b <= 0:
            raise OracleError("lower parameter at a nonpositive integer")
    af = [float(a) for a in alphas]
    bf = [float(b) for b in betas[:-1]]
    bt = float(beta_tail)
    series_tol = max(tol * 1e-3, 1e-14)
    budget = 120_000_000
    spent = 0
    values = []
    for s in range(8, 19):
        eps = 2.0 ** (-s)
        x = 1.0 - eps
        # tail ~ k^(bt-1) x^k relative to a total of order eps^-bt
        terms = int(
            (-math.log(series_tol) + (s + 6) * math.log(2) * max(1.0, bt))
            / eps
        ) + 16
        spent += terms
        if spent > budget:
            raise OracleError("term budget exhausted at node %d" % s)
        total, last = _series_sum(af, bf, x, terms)
        if abs(last) > series_tol * max(1.0, abs(total)):
            raise OracleError("series did not settle at node %d" % s)
        values.append(eps ** bt * total)
    exps = sorted({round(bt + i, 12) for i in range(5)} | {1.0, 2.0, 3.0, 4.0})
    exps = [e for e in exps if e > 0][:4]
    v = values
    for e in exps:
        rho = 2.0 ** (-e)
        v = [(b - rho * a) / (1.0 - rho) for a, b in zip(v, v[1:])]
    est = v[-1]
    err = abs(v[-1] - v[-2]) if len(v) > 1 else 0.0
    if err > 100 * tol * max(1.0, abs(est)):
        raise OracleError("extrapolation residual %.3g too large" % err)
    return est
