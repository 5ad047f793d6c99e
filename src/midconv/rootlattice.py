"""Root lattice of the star-shaped Kac-Moody diagram attached to spectral types.

The diagram has one central node and, for every point index j, an infinite
chain of leg nodes (j,1), (j,2), ....  The symmetric bilinear form is the
standard one: every simple root has square 2, the central node pairs with
the first node of each leg with -1, consecutive leg nodes pair with -1, and
all other pairs are orthogonal.

A spectral type m of order n translates to the lattice vector with central
coefficient n and leg coefficients the partial tail sums of each partition;
under this dictionary the rigidity index pairing becomes the bilinear form,
partition-entry swaps become leg reflections and the reduction step becomes
the reflection at the central node.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Sequence

from .spectype import SpectralType, SpectralTypeError


class RootLatticeError(ValueError):
    """Invalid root-lattice data (e.g. coefficients with no preimage)."""


class StepBudgetError(RuntimeError):
    """The reflection walk ran out of its step budget before deciding."""


Index = "int | tuple[int, int]"  # 0 for the central node, (j, v) for leg nodes


class RootVector:
    """Integer vector in the root lattice: central coefficient ``a0`` plus a
    finite sparse map (j, v) -> coefficient over the leg nodes."""

    __slots__ = ("a0", "coeffs")

    def __init__(self, a0: int, coeffs: Iterable[tuple[tuple[int, int], int]] = ()):
        items = []
        for (j, v), c in dict(coeffs).items():
            if j < 0 or v < 1:
                raise RootLatticeError("bad leg index (%r, %r)" % (j, v))
            if c:
                items.append(((int(j), int(v)), int(c)))
        items.sort()
        object.__setattr__(self, "a0", int(a0))
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("RootVector is immutable")

    def coeff(self, j: int, v: int) -> int:
        return dict(self.coeffs).get((j, v), 0)

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return self.a0 == 0 and not self.coeffs

    def height(self) -> int:
        return self.a0 + sum(c for _, c in self.coeffs)

    def support(self) -> set:
        """Set of nodes with nonzero coefficient; 0 denotes the centre."""
        nodes = {key for key, _ in self.coeffs}
        if self.a0:
            nodes.add(0)
        return nodes

    def __add__(self, other: "RootVector") -> "RootVector":
        d = dict(self.coeffs)
        for key, c in other.coeffs:
            d[key] = d.get(key, 0) + c
        return RootVector(self.a0 + other.a0, d.items())

    def __sub__(self, other: "RootVector") -> "RootVector":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "RootVector":
        return RootVector(scalar * self.a0, ((k, scalar * c) for k, c in self.coeffs))

    def __neg__(self) -> "RootVector":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootVector)
            and self.a0 == other.a0
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.a0, self.coeffs))

    def __repr__(self) -> str:
        return "RootVector(%d, %r)" % (self.a0, list(self.coeffs))

    def __str__(self) -> str:
        terms = []
        if self.a0:
            terms.append("%d*a0" % self.a0 if self.a0 != 1 else "a0")
        for (j, v), c in self.coeffs:
            name = "a[%d,%d]" % (j, v)
            terms.append(name if c == 1 else "%d*%s" % (c, name))
        return " + ".join(terms) if terms else "0"

    def to_json(self) -> dict:
        return {"a0": self.a0, "coeffs": [[j, v, c] for (j, v), c in self.coeffs]}


def simple_root(i) -> RootVector:
    """The simple root at node ``i`` (0 or a pair (j, v))."""
    if i == 0:
        return RootVector(1)
    j, v = i
    return RootVector(0, {(j, v): 1})


class RootClass(enum.Enum):
    REAL_POSITIVE = "real positive"
    REAL_NEGATIVE = "real negative"
    IMAGINARY_POSITIVE = "imaginary positive"
    IMAGINARY_NEGATIVE = "imaginary negative"
    NOT_A_ROOT = "not a root"

    @property
    def is_root(self) -> bool:
        return self is not RootClass.NOT_A_ROOT


def root_of(m: SpectralType) -> RootVector:
    """Lattice vector of a spectral type: central coefficient the order,
    leg coefficient at (j, v) the tail sum of partition j past column v."""
    coeffs = {}
    for j, row in enumerate(m.partitions):
        tail = 0
        for v in range(len(row) - 1, 0, -1):
            tail += row[v]
            if tail:
                coeffs[(j, v)] = tail
    return RootVector(m.order, coeffs.items())


def tuple_of(a: RootVector) -> SpectralType:
    """Inverse of :func:`root_of`.

    Requires a positive central coefficient and, per leg, coefficients that
    decrease weakly from the centre outwards and vanish eventually.
    """
    n = a.a0
    if n < 1:
        raise RootLatticeError("central coefficient must be >= 1")
    legs: dict[int, dict[int, int]] = {}
    for (j, v), c in a.coeffs:
        legs.setdefault(j, {})[v] = c
    if not legs:
        return SpectralType(((n,),), trim=False)
    top = max(legs)
    rows = []
    for j in range(top + 1):
        leg = legs.get(j, {})
        depth = max(leg) if leg else 0
        prev = n
        row = []
        for v in range(1, depth + 2):
            cur = leg.get(v, 0)
            if v <= depth and cur == 0:
                raise RootLatticeError(
                    "leg %d has a gap at depth %d" % (j, v)
                )
            if cur > prev:
                raise RootLatticeError(
                    "leg %d increases at depth %d (%d > %d)" % (j, v, cur, prev)
                )
            row.append(prev - cur)
            prev = cur
        rows.append(tuple(row))
    try:
        return SpectralType(rows, trim=False)
    except SpectralTypeError as exc:  # pragma: no cover - guarded above
        raise RootLatticeError(str(exc)) from exc


def inner(a: RootVector, b: RootVector) -> int:
    """Bilinear form from the diagram: (center|center)=2, center pairs -1
    with the first node of each leg, consecutive leg nodes pair -1, leg
    nodes have square 2, everything else is orthogonal."""
    da, db = a.as_dict(), b.as_dict()
    s = 2 * a.a0 * b.a0
    for (j, v) in set(da) | set(db):
        av, bv = da.get((j, v), 0), db.get((j, v), 0)
        s += 2 * av * bv
        s -= av * db.get((j, v + 1), 0) + bv * da.get((j, v + 1), 0)
        if v == 1:
            s -= a.a0 * bv + b.a0 * av
    return s


def reflect(a: RootVector, i) -> RootVector:
    """Simple reflection at node ``i``: subtract (a|root_i) times root_i."""
    r = simple_root(i)
    return a - inner(a, r) * r


def reflect_by(a: RootVector, b: RootVector) -> RootVector:
    """Reflection in a norm-2 vector: a - (a|b) b."""
    if inner(b, b) != 2:
        raise RootLatticeError("reflection vector must have square norm 2")
    return a - inner(a, b) * b


def _connected(support: set) -> bool:
    """Connectivity of a support set in the star diagram."""
    if not support:
        return False
    nodes = set(support)
    stack = [next(iter(nodes))]
    seen = {stack[0]}
    while stack:
        cur = stack.pop()
        if cur == 0:
            nbrs = [(j, 1) for (j, v) in nodes - {0} if v == 1]
        else:
            j, v = cur
            nbrs = [(j, v - 1) if v > 1 else 0, (j, v + 1)]
        for nb in nbrs:
            if nb in nodes and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == nodes


def classify_root(a: RootVector, *, max_steps: int | None = None) -> RootClass:
    """Decide whether ``a`` is a real root, an imaginary root or no root.

    The positive representative is reduced by simple reflections that
    strictly decrease the height.  Reaching a simple root proves a real
    root; a reflection that turns a coefficient negative disproves
    root-ness; when no reflection decreases the height the vector is an
    imaginary root exactly if its support is connected.  The step budget
    defaults to ten times the height and is unreachable for genuine roots;
    running out of it raises :class:`StepBudgetError`.
    """
    if a.is_zero():
        return RootClass.NOT_A_ROOT
    values = [a.a0] + [c for _, c in a.coeffs]
    if all(v <= 0 for v in values):
        flipped = classify_root(-a, max_steps=max_steps)
        return {
            RootClass.REAL_POSITIVE: RootClass.REAL_NEGATIVE,
            RootClass.IMAGINARY_POSITIVE: RootClass.IMAGINARY_NEGATIVE,
            RootClass.NOT_A_ROOT: RootClass.NOT_A_ROOT,
        }[flipped]
    if any(v < 0 for v in values):
        return RootClass.NOT_A_ROOT
    cur = a
    budget = max_steps if max_steps is not None else 10 * cur.height()
    node_key = lambda x: (0, 0, 0) if x == 0 else (1,) + x
    for _ in range(budget):
        if cur.height() == 1:
            return RootClass.REAL_POSITIVE
        support = cur.support()
        descended = False
        for node in sorted(support, key=node_key):
            c = inner(cur, simple_root(node))
            if c > 0:
                nxt = reflect(cur, node)
                if nxt.a0 < 0 or any(x < 0 for _, x in nxt.coeffs):
                    return RootClass.NOT_A_ROOT
                cur = nxt
                descended = True
                break
        if not descended:
            return (
                RootClass.IMAGINARY_POSITIVE
                if _connected(support)
                else RootClass.NOT_A_ROOT
            )
    raise StepBudgetError("no verdict within %d reflections" % budget)


def star_norm(ells: Sequence[int]) -> Fraction:
    """Square norm of the distinguished vector orthogonal to the first
    ``ells[j]`` nodes of every leg: 1 - k + sum of 1/(ells[j]+1).

    Zero characterises the affine leg patterns, positive the finite ones.
    """
    ells = tuple(ells)
    if not ells or any(l < 1 for l in ells):
        raise RootLatticeError("leg lengths must be >= 1")
    k = len(ells) - 1
    return 1 - k + sum(Fraction(1, l + 1) for l in ells)
