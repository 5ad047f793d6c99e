"""Reduction calculus on spectral types and realizability classification.

The reduction step subtracts the defect d (sum of the marked multiplicities
minus (k-1) times the order) from one marked column per partition.  Marking
the first maximal column of every partition and iterating drives every
spectral type to one of three terminal situations: order one (rigid), a
fixed point (basic core), or a well-definedness failure (not realizable as
an irreducible tuple).  The module also decides rigidity, irreducible
realizability, basicness, fundamentality and the nilpotent variant, and
implements the exact existence test for prescribed conjugacy classes with
concrete rational eigenvalues.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .paramform import ParamForm
from .spectype import (
    InvariantError,
    SpectralType,
    SpectralTypeError,
    _aligned_rows,
    canonicalize,
    gcd_of,
    idx,
    pidx,
)


class WellDefinednessViolation(ValueError):
    """A reduction step would drive a multiplicity negative.

    Attributes ``position`` (the offending partition index) and ``defect``
    carry the failing data; inside a reduction this signals that the input
    is not irreducibly realizable.
    """

    def __init__(self, position: int, defect: int, m: SpectralType):
        self.position = position
        self.defect = defect
        self.m = m
        super().__init__(
            "column %d of %s is smaller than the defect %d"
            % (position, m, defect)
        )


class SchemeError(ValueError):
    """Invalid eigenvalue scheme (congruence or trace condition)."""


def d_ell(m: SpectralType, ells: Sequence[int]) -> int:
    """Reduction defect for marked columns ``ells`` (1-based, one per stored
    partition; columns beyond a partition read as 0)."""
    ells = tuple(ells)
    if len(ells) != m.npart:
        raise SpectralTypeError(
            "need %d column marks, got %d" % (m.npart, len(ells))
        )
    if any(l < 1 for l in ells):
        raise SpectralTypeError("column marks must be >= 1")
    k = m.npart - 1
    return sum(m.part(j, l) for j, l in enumerate(ells)) - (k - 1) * m.order


def partial_ell_raw(m: SpectralType, ells: Sequence[int]) -> SpectralType:
    """One reduction step at the marked columns, zero parts removed but
    partitions left unsorted and trivial partitions kept.

    Well-defined only when every marked multiplicity is at least the
    defect.  With a negative defect the step grows the marked columns, so
    it also realises the inverse step.
    """
    d = d_ell(m, ells)
    rows = []
    for j, (row, l) in enumerate(zip(m.partitions, ells)):
        if m.part(j, l) < d:
            raise WellDefinednessViolation(j, d, m)
        padded = list(row) + [0] * (l - len(row))
        padded[l - 1] -= d
        rows.append(tuple(p for p in padded if p) or (0,))
    return SpectralType(rows)


def partial_ell(m: SpectralType, ells: Sequence[int]) -> SpectralType:
    """Canonicalized reduction step at the marked columns."""
    return canonicalize(partial_ell_raw(m, ells))


class Terminal(enum.Enum):
    """Where the maximal reduction of integer rows stops."""

    ORDER_ONE = "order one"
    FIXED_POINT = "fixed point"
    VIOLATION = "violation"


def max_step(rows, order: int, eigenvalues=None):
    """One maximal reduction step on integer rows, columns kept in place.

    Marks the first maximal column of every row; the defect is d = (sum of
    the marks) - (rows - 2) * order.  Order one, d <= 0 (fixed point) and
    a mark below d (violation) are terminals; otherwise every mark drops by
    d and a column reaching zero is dropped.  An eigenvalue table (one per
    column) follows the middle convolution at mu_j = the marked values: a
    mark becomes -mu_j, any other value l at row j becomes
    l + sum(mu) - 2*mu_j.  Returns (terminal, 0-based marks, d, rows,
    table): terminal None and the reduced rows and table (as lists) when
    the step was taken, else the terminal and the inputs.
    """
    marks = []
    top = 0
    low = order
    for r in rows:
        peak = max(r)
        marks.append(r.index(peak))
        top += peak
        if peak < low:
            low = peak
    d = top - (len(rows) - 2) * order
    if order == 1:
        return Terminal.ORDER_ONE, marks, d, rows, eigenvalues
    if d <= 0:
        return Terminal.FIXED_POINT, marks, d, rows, eigenvalues
    if low < d:
        return Terminal.VIOLATION, marks, d, rows, eigenvalues
    out = []
    for r, e in zip(rows, marks):
        r = list(r)
        if r[e] == d:
            del r[e]
        else:
            r[e] -= d
        out.append(r)
    if eigenvalues is None:
        return None, marks, d, out, None
    mus = [lam[e] for lam, e in zip(eigenvalues, marks)]
    total = sum(mus)
    table = []
    for r, lam, e, mu in zip(rows, eigenvalues, marks, mus):
        lam = [l + total - 2 * mu for l in lam]
        if r[e] == d:
            del lam[e]
        else:
            lam[e] = -mu
        table.append(lam)
    return None, marks, d, out, table


class Reduction(NamedTuple):
    """The terminal, the rows and table it stopped at, and one (order,
    marks, eigenvalues) record per step taken."""

    terminal: Terminal
    rows: list
    eigenvalues: list | None
    steps: list


def reduce_rows(rows, order: int, eigenvalues=None) -> Reduction:
    """Iterate :func:`max_step` to a terminal.  Rows may be unsorted and
    may hold zeros (never marked) and trivial rows.  On the lattice vector
    of the rows, order one is a real positive root, a fixed point an
    imaginary positive root, a violation no root.
    """
    steps = []
    while True:
        terminal, marks, d, nxt, table = max_step(rows, order, eigenvalues)
        if terminal is not None:
            return Reduction(terminal, rows, eigenvalues, steps)
        steps.append((order, marks, eigenvalues))
        rows, order, eigenvalues = nxt, order - d, table


def partial_max(m: SpectralType) -> tuple[tuple[int, ...], SpectralType]:
    """Reduction at the first maximal column of every partition.

    Returns the marks and the canonicalized output.  Order-1 input is a
    terminal and returned unchanged, as is any input whose defect is
    nonpositive (a fixed point; the order would not decrease).
    """
    terminal, marks, _, rows, _ = max_step(m.partitions, m.order)
    ells = tuple(e + 1 for e in marks)
    if terminal is Terminal.VIOLATION:
        return ells, partial_ell(m, ells)  # raises WellDefinednessViolation
    if terminal is None:
        return ells, canonicalize(SpectralType(rows))
    return ells, m


def dmax_value(m: SpectralType) -> int:
    """Defect of the maximal-column marking: sum of the partition maxima
    minus (k-1) times the order.  Nonpositive exactly on reduction fixed
    points."""
    return max_step(m.partitions, m.order)[2]


class Verdict(enum.Enum):
    RIGID = "rigid"
    REALIZABLE_NOT_RIGID = "realizable-not-rigid"
    NOT_REALIZABLE = "not-realizable"


class ReductionStep(NamedTuple):
    m: SpectralType
    ells: tuple[int, ...]
    d: int
    raw: SpectralType | None  # pre-canonical output; None when ill-defined
    out: SpectralType | None  # canonical output; equals m on a fixed point

    def to_json(self) -> dict:
        data = {"m": self.m.as_lists(), "ell": list(self.ells), "d": self.d}
        if self.raw is not None:
            data["raw"] = self.raw.as_lists()
        if self.out is not None:
            data["out"] = self.out.as_lists()
        return data


class ReductionTrace(NamedTuple):
    steps: tuple[ReductionStep, ...]
    verdict: Verdict
    terminal: SpectralType

    @property
    def start(self) -> SpectralType:
        """The canonical tuple the reduction started from."""
        return self.steps[0].m if self.steps else self.terminal

    def d_values(self) -> tuple[int, ...]:
        return tuple(s.d for s in self.steps)

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "verdict": self.verdict.value,
            "terminal": self.terminal.as_lists(),
        }


def _verdict(terminal: Terminal, rows) -> Verdict:
    """Realizability verdict of a reduction terminal: a fixed point is
    realizable when it is indivisible or has negative self-index."""
    if terminal is Terminal.ORDER_ONE:
        return Verdict.RIGID
    if terminal is Terminal.FIXED_POINT:
        fixed = SpectralType(rows)
        if gcd_of(fixed) == 1 or idx(fixed) < 0:
            return Verdict.REALIZABLE_NOT_RIGID
    return Verdict.NOT_REALIZABLE


def reduce(m: SpectralType) -> ReductionTrace:
    """Iterate the canonicalized maximal reduction until a terminal.

    Terminals: order one (rigid; this forces self-index 2), a fixed point
    with nonpositive defect (realizable-not-rigid when the tuple is
    indivisible or has negative self-index, not realizable otherwise), or a
    well-definedness failure (not realizable).  The order strictly drops
    while the defect is positive, so the loop terminates.
    """
    steps: list[ReductionStep] = []
    cur = canonicalize(m)
    while True:
        terminal, marks, d, rows, _ = max_step(cur.partitions, cur.order)
        ells = tuple(e + 1 for e in marks)
        if terminal is None:
            raw = SpectralType(rows)
            steps.append(ReductionStep(cur, ells, d, raw, canonicalize(raw)))
            cur = steps[-1].out
            continue
        if terminal is not Terminal.ORDER_ONE:
            out = cur if terminal is Terminal.FIXED_POINT else None
            steps.append(ReductionStep(cur, ells, d, out, out))
        return ReductionTrace(tuple(steps), _verdict(terminal, rows), cur)


class Classification(NamedTuple):
    indivisible: bool
    rigid: bool
    irreducibly_realizable: bool
    basic: bool
    fundamental: bool

    def to_json(self) -> dict:
        return self._asdict()


def classify(
    m: SpectralType, trace: ReductionTrace | None = None
) -> Classification:
    """Realizability record of a spectral type.

    A divisible tuple c*b is irreducibly realizable exactly when its
    indivisible core b is and the self-index is negative; it is fundamental
    exactly when the core is basic with negative self-index.  A caller that
    already holds ``reduce(m)`` passes it as ``trace`` and saves both the
    reduction and the canonicalization (``trace.start`` is canonical).
    """
    if trace is None:
        c = canonicalize(m)
        red = reduce_rows(c.partitions, c.order)
        verdict = _verdict(red.terminal, red.rows)
    else:
        c = trace.start
        verdict = trace.verdict
    g = gcd_of(c)
    at_fixed_point = dmax_value(c) <= 0
    return Classification(
        indivisible=g == 1,
        rigid=verdict is Verdict.RIGID,
        irreducibly_realizable=verdict is not Verdict.NOT_REALIZABLE,
        basic=g == 1 and at_fixed_point,
        fundamental=at_fixed_point and (g == 1 or idx(c) < 0),
    )


def reflect_by_rigid(
    m: SpectralType, mr: SpectralType, *, check: bool = True
) -> SpectralType:
    """Subtract idx(m, mr) copies of the rigid tuple ``mr`` componentwise.

    This is the reflection of ``m`` in the norm-2 lattice vector of ``mr``
    and preserves the self-index; it maps irreducibly realizable tuples to
    irreducibly realizable tuples whenever ord m > idx(m, mr) * ord mr
    (automatic when m is not rigid).  Columns are aligned as stored, the
    shorter tuple padded with trivial partitions and zero columns.
    """
    if check:
        if not classify(mr).rigid:
            raise SpectralTypeError("%s is not rigid" % mr)
        if not classify(m).irreducibly_realizable:
            raise SpectralTypeError("%s is not irreducibly realizable" % m)
    c = idx(m, mr)
    if m.order <= c * mr.order:
        raise SpectralTypeError(
            "order %d too small for reflection step %d * %d"
            % (m.order, c, mr.order)
        )
    rows = []
    for j, (p, q) in enumerate(_aligned_rows(m, mr)):
        row = tuple(
            a - c * b for a, b in itertools.zip_longest(p, q, fillvalue=0)
        )
        if any(x < 0 for x in row):
            raise SpectralTypeError(
                "reflection of %s by %s leaves partition %d negative"
                % (m, mr, j)
            )
        rows.append(tuple(x for x in row if x) or (0,))
    out = SpectralType(rows)
    if idx(out) != idx(m):
        raise InvariantError("reflection by %s changed the index of %s" % (mr, m))
    return out


_SPECIAL_KINDS = ("D4", "E6", "E7", "E8")


def special_family(kind: str, scale: int) -> SpectralType:
    """The four distinguished families of index 2 - 2*scale.

    For scale m they are (parts listed per partition, zeros removed):
    D4: m,m-1,1 / m,m / m,m / m,m;  E6: m,m,m-1,1 / m^3 / m^3;
    E7: m^3,m-1,1 / m^4 / 2m,2m;  E8: m^5,m-1,1 / 2m,2m,2m / 3m,3m.
    Their orders are 2m, 3m, 4m and 6m.
    """
    kind = kind.upper()
    if kind not in _SPECIAL_KINDS:
        raise SpectralTypeError("kind must be one of %s" % (_SPECIAL_KINDS,))
    if scale < 1:
        raise SpectralTypeError("scale must be >= 1")
    s = scale
    rows = {
        "D4": ((s, s - 1, 1), (s, s), (s, s), (s, s)),
        "E6": ((s, s, s - 1, 1), (s, s, s), (s, s, s)),
        "E7": ((s, s, s, s - 1, 1), (s, s, s, s), (2 * s, 2 * s)),
        "E8": ((s, s, s, s, s, s - 1, 1), (2 * s, 2 * s, 2 * s), (3 * s, 3 * s)),
    }[kind]
    return SpectralType(tuple(p for p in row if p) for row in rows)


def nilpotent_realizable(m: SpectralType) -> bool:
    """Existence of an irreducible zero-sum tuple with all eigenvalues zero
    and the prescribed multiplicities.

    Holds exactly for order one, or for fundamental tuples other than the
    special families at scale >= 2.
    """
    if m.order == 1:
        return True
    if not classify(m).fundamental:
        return False
    c = canonicalize(m)
    for kind, unit in zip(_SPECIAL_KINDS, (2, 3, 4, 6)):
        if c.order % unit == 0:
            scale = c.order // unit
            if scale >= 2 and canonicalize(special_family(kind, scale)) == c:
                return False
    return True


def _column_sum(rows, eigenvalues, const=0) -> ParamForm:
    """const + sum of multiplicity times eigenvalue over columns, as one form."""
    terms: dict[str, Fraction] = {}
    for row, evs in zip(rows, eigenvalues):
        for p, e in zip(row, evs):
            const += p * e.const
            for name, c in e.terms:
                terms[name] = terms.get(name, 0) + p * c
    return ParamForm(const, terms.items())


class Scheme:
    """A spectral type with an eigenvalue attached to every column.

    Eigenvalues are rational-affine forms in named parameters; constant
    forms describe concrete schemes.  The table must be congruent to the
    shape (one form per stored column).
    """

    __slots__ = ("shape", "eigenvalues")

    def __init__(self, shape: SpectralType, eigenvalues):
        rows = tuple(
            tuple(ParamForm.of(e) for e in row) for row in eigenvalues
        )
        if len(rows) != shape.npart or any(
            len(r) != len(p) for r, p in zip(rows, shape.partitions)
        ):
            raise SchemeError("eigenvalue table is not congruent to the shape")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "eigenvalues", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Scheme is immutable")

    @classmethod
    def generic(cls, shape: SpectralType) -> "Scheme":
        """Scheme with an independent parameter ``l<j>_<v>`` per column."""
        return cls(
            shape,
            tuple(
                tuple(
                    ParamForm.var("l%d_%d" % (j, v + 1))
                    for v in range(len(row))
                )
                for j, row in enumerate(shape.partitions)
            ),
        )

    def trace_form(self) -> ParamForm:
        """Sum of multiplicity times eigenvalue over all columns."""
        return _column_sum(self.shape.partitions, self.eigenvalues)

    def is_constant(self) -> bool:
        return all(e.is_constant() for row in self.eigenvalues for e in row)

    def constant_table(self) -> tuple[tuple[Fraction, ...], ...]:
        if not self.is_constant():
            raise SchemeError("scheme has non-constant eigenvalues")
        return tuple(
            tuple(e.const for e in row) for row in self.eigenvalues
        )

    def __eq__(self, other):
        return (
            isinstance(other, Scheme)
            and self.shape == other.shape
            and self.eigenvalues == other.eigenvalues
        )

    def __repr__(self):
        return "Scheme(%r, %r)" % (self.shape, self.eigenvalues)


def _grid_sub(a, b):
    rows = []
    for p, q in zip(a, b):
        row = tuple(x - y for x, y in zip(p, q))
        if any(x < 0 for x in row):
            return None
        rows.append(row)
    return tuple(rows)


def _sub_grids(rows, weights, target: int, fixed=()) -> list[tuple]:
    """Componentwise sub-grids of ``rows`` whose rows share a sum s with
    0 < s < order, whose weighted total (integer weights, one per column)
    is ``target``, and which carry ``value`` at every (row, column, value)
    in ``fixed``; listed by increasing s.

    Each row's sub-rows are listed once, grouped by sum and then by
    weighted value.  For each s a depth-first search over the distinct
    values, pruned with achievable-range bounds, fixes all rows but the
    last, whose value is then looked up; every combination of the matched
    groups is a grid.
    """
    tables = []
    for j, (row, wrow) in enumerate(zip(rows, weights)):
        ranges = [range(p, -1, -1) for p in row]
        for i, c, v in fixed:
            if i == j:
                ranges[c] = [v] if v in ranges[c] else []
        table: dict[int, dict[int, list[tuple[int, ...]]]] = {}
        for sub in itertools.product(*ranges):
            value = sum(c * w for c, w in zip(sub, wrow) if c)
            table.setdefault(sum(sub), {}).setdefault(value, []).append(sub)
        tables.append(table)
    grids: list[tuple] = []
    chosen: list[list[tuple[int, ...]]] = []
    depth = len(rows) - 1
    for s in range(1, sum(rows[0])):
        groups = [table.get(s) for table in tables]
        if not all(groups):
            continue
        lo = [sum(min(g) for g in groups[j:]) for j in range(depth)]
        hi = [sum(max(g) for g in groups[j:]) for j in range(depth)]
        last = groups[-1]

        def rec(j, total):
            if j == depth:
                if target - total in last:
                    grids.extend(itertools.product(*chosen, last[target - total]))
                return
            if total + lo[j] > target or total + hi[j] < target:
                return
            for value, subs in groups[j].items():
                chosen.append(subs)
                rec(j + 1, total + value)
                chosen.pop()

        rec(0, 0)
    return grids


def ds_existence(s: Scheme, *, bound: int = 12) -> bool:
    """Irreducible zero-sum realizability of a concrete rational scheme.

    Requires the exact trace condition.  The scheme is realizable exactly
    when the lattice vector of the shape is a positive root and no
    decomposition of the shape into at least two positive-root summands,
    all of whose eigenvalue sums vanish, reaches the accessory-parameter
    count of the whole (the count is superadditive on violating splits).
    The decomposition search runs over componentwise sub-grids and is
    memoized; exponential worst case, intended for small orders.
    """
    m = s.shape
    if m.order > bound:
        raise SchemeError(
            "order %d exceeds the existence-test bound %d" % (m.order, bound)
        )
    if not s.is_constant():
        raise SchemeError("existence test needs constant rational eigenvalues")
    trace = s.trace_form().const
    if trace != 0:
        raise SchemeError("trace condition violated: sum is %s" % trace)
    if reduce_rows(m.partitions, m.order).terminal is Terminal.VIOLATION:
        return False
    lam = s.constant_table()
    den = math.lcm(*(l.denominator for lrow in lam for l in lrow))
    ilam = [[int(l * den) for l in lrow] for lrow in lam]
    candidates = [
        (grid, pidx(SpectralType(grid)))
        for grid in _sub_grids(m.partitions, ilam, 0)
        if reduce_rows(grid, sum(grid[0])).terminal is not Terminal.VIOLATION
    ]
    candidates.sort()
    target = pidx(m)
    full = tuple(m.partitions)
    memo: dict = {}

    def best(rem, i):
        """Maximal accessory-parameter total over decompositions of rem."""
        if all(all(x == 0 for x in row) for row in rem):
            return 0
        if i >= len(candidates):
            return None
        key = (rem, i)
        if key in memo:
            return memo[key]
        res = best(rem, i + 1)
        left = _grid_sub(rem, candidates[i][0])
        if left is not None:
            deeper = best(left, i)
            if deeper is not None:
                cand = candidates[i][1] + deeper
                if res is None or cand > res:
                    res = cand
        memo[key] = res
        return res

    achieved = best(full, 0)
    return achieved is None or achieved < target
