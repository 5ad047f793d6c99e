"""Zero-sum tuples of rational matrices: normal forms, conjugacy-class data,
orbit dimensions, and addition / convolution / middle convolution.

Everything is exact rational arithmetic.  The middle convolution of a tuple
(A_0,...,A_k) with respect to parameters (mu_0,...,mu_k) shifts by -mu',
reads each convolution block at the total parameter from its one nonzero
n x kn block row, passes to the quotient by the invariant subspace spanned by
the blockwise kernels and the kernel of the zeroth block, and shifts by -mu'
again; the eigenvalue multiplicity data of the result is the marked-column
reduction of the input data when the parameter total is nonzero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .katz import Scheme, Terminal, reduce_rows
from .linalg import LinAlgError, RationalMatrix, hstack, vstack
from .spectype import InvariantError, SpectralType


class IrrationalEigenvalueError(ValueError):
    """The characteristic polynomial does not split over the rationals."""


class McAssumptionError(ValueError):
    """Middle-convolution kernel/image assumptions fail; carries the report."""

    def __init__(self, report: "McReport"):
        self.report = report
        super().__init__(
            "middle convolution assumptions violated: %s"
            % "; ".join("%s at i=%d" % v for v in report.violations)
        )


class DegenerateSchemeError(ValueError):
    """Eigenvalue scheme too special for the requested construction."""


class MatrixTuple:
    """Square rational matrices (A_0,...,A_k) of equal size with zero sum."""

    # _facts: "spectral" (spectral data) and "irreducible", each written once
    # by the routine that proves, computes or constructs it
    __slots__ = ("matrices", "_facts")

    def __init__(self, matrices: Sequence[RationalMatrix]):
        mats = tuple(
            m if isinstance(m, RationalMatrix) else RationalMatrix(m)
            for m in matrices
        )
        if len(mats) < 2:
            raise LinAlgError("a tuple needs at least two matrices")
        n = mats[0].nrows
        if any(not m.is_square() or m.nrows != n for m in mats):
            raise LinAlgError("matrices must be square and of equal size")
        total = mats[0]
        for m in mats[1:]:
            total = total + m
        if not total.is_zero():
            raise LinAlgError("matrices must sum to zero")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "_facts", {})

    def __setattr__(self, name, value):
        raise AttributeError("MatrixTuple is immutable")

    @property
    def size(self) -> int:
        return self.matrices[0].nrows

    @property
    def k(self) -> int:
        return len(self.matrices) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixTuple) and self.matrices == other.matrices

    def __repr__(self) -> str:
        return "MatrixTuple(size=%d, k=%d)" % (self.size, self.k)

    def to_json(self) -> list:
        return [m.to_json() for m in self.matrices]


def normal_form(parts: Sequence[int], eigvals: Sequence) -> RationalMatrix:
    """Block upper-bidiagonal normal form for eigenvalue multiplicities.

    Diagonal blocks eig_i * I of sizes ``parts``; the block right above the
    diagonal is the rectangular identity.  Non-monotone multiplicities are
    stably permuted to non-increasing order together with their eigenvalues.
    """
    if len(parts) != len(eigvals):
        raise LinAlgError("need one eigenvalue per part")
    if any(p < 1 for p in parts):
        raise LinAlgError("parts must be positive")
    order = sorted(range(len(parts)), key=lambda i: -parts[i])
    parts = [parts[i] for i in order]
    eigvals = [Fraction(eigvals[i]) for i in order]
    n = sum(parts)
    offsets = []
    at = 0
    for p in parts:
        offsets.append(at)
        at += p
    rows = [[Fraction(0)] * n for _ in range(n)]
    for b, (p, lam) in enumerate(zip(parts, eigvals)):
        o = offsets[b]
        for t in range(p):
            rows[o + t][o + t] = lam
        if b + 1 < len(parts):
            q = parts[b + 1]
            for t in range(q):
                rows[o + t][offsets[b + 1] + t] = Fraction(1)
    return RationalMatrix(rows)


def jordan_cell(size: int, eig) -> RationalMatrix:
    """Single Jordan block, as the normal form of all-ones multiplicities."""
    return normal_form([1] * size, [eig] * size)


def _rational_roots(coeffs: Sequence[Fraction]) -> dict[Fraction, int]:
    """Rational roots with multiplicities of a nonzero polynomial (highest
    degree first), in integers only, by p-adic lifting after R. Loos,
    "Computing rational zeros of integral polynomials by p-adic expansion",
    SIAM J. Comput. 12 (1983).  A root a/b of the squarefree part g has
    b | lc(g) and a | g(0): it is a simple root of g mod p, and its lift mod
    M > 2|g(0) lc(g)| gives it back by rational reconstruction."""

    def prim(h):  # primitive part with positive leading coefficient
        c = math.gcd(*h)
        return [x // (c if h[0] > 0 else -c) for x in h]

    def divide(h, d):  # exact quotient in Z[x], or None
        h, q = list(h), []
        for i in range(len(h) - len(d) + 1):
            c, rem = divmod(h[i], d[0])
            if rem:
                return None
            q.append(c)
            for j in range(1, len(d)):
                h[i + j] -= c * d[j]
        return None if any(h[len(q):]) else q

    def value(h, x, m):
        v = 0
        for c in h:
            v = (v * x + c) % m
        return v

    scale = math.lcm(*(c.denominator for c in coeffs))
    f = prim([int(c * scale) for c in coeffs])
    roots = {}
    while f[-1] == 0:
        f.pop()
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
    if len(f) == 1:
        return roots
    # squarefree part g = f / gcd(f, f') by a primitive remainder sequence
    a, b = f, prim([c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])])
    while len(b) > 1:
        r = a
        while r and len(r) >= len(b):
            r = [b[0] * x - r[0] * y for x, y in zip(r, b + [0] * len(r))][1:]
            while r and r[0] == 0:
                r = r[1:]
        if not r:
            break
        a, b = b, prim(r)
    g = divide(f, b)
    dg = [c * (len(g) - 1 - i) for i, c in enumerate(g[:-1])]
    lc, g0 = abs(g[0]), abs(g[-1])
    p = 2
    while lc % p == 0 or any(p % q == 0 for q in range(2, p)) or any(
        value(g, r, p) == 0 == value(dg, r, p) for r in range(p)
    ):
        p += 1
    for r in [r for r in range(p) if value(g, r, p) == 0]:
        m = p
        while m <= 2 * g0 * lc:
            m *= m
            r = (r - value(g, r, m) * pow(value(dg, r, m), -1, m)) % m
        # rational reconstruction: the first remainder r1 <= |g(0)|
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > g0:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        k = math.gcd(r1, t1) if t1 > 0 else -math.gcd(r1, t1)
        # deflating by (den x - num) is the Horner scheme at num/den: exact
        # division confirms the root and counts its multiplicity in f
        mult = 0
        while (q := divide(f, [t1 // k, -r1 // k])) is not None:
            f, mult = q, mult + 1
        if mult:
            roots[Fraction(r1 // k, t1 // k)] = mult
    return roots


def rational_eigenvalues(a: RationalMatrix) -> dict[Fraction, int]:
    """Eigenvalues with algebraic multiplicities; the characteristic
    polynomial must split over the rationals."""
    found = _rational_roots(a.charpoly())
    if sum(found.values()) != a.nrows:
        raise IrrationalEigenvalueError(
            "characteristic polynomial does not split over the rationals"
        )
    return found


class SpectralData(NamedTuple):
    """Per-eigenvalue multiplicity partitions of one matrix, sorted by
    eigenvalue.  The partition entry t counts rank (A-e)^{t-1} minus rank
    (A-e)^t, so it is automatically non-increasing."""

    entries: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def eigenvalues(self) -> tuple[Fraction, ...]:
        return tuple(e for e, _ in self.entries)

    def to_json(self) -> list:
        return [[str(e), list(p)] for e, p in self.entries]


def _filtration(a: RationalMatrix, eig, mult: int) -> tuple[int, ...]:
    """rank (A-e)^{t-1} - rank (A-e)^t for t = 1, 2, ... until the kernel
    reaches ``mult`` or the rank stops falling, so that a value that is not
    an eigenvalue ends the loop."""
    shifted = a.shift(-eig)
    power, prev, parts = shifted, a.nrows, []
    while prev > a.nrows - mult:
        r = power.rank()
        if r == prev:
            break
        parts.append(prev - r)
        prev, power = r, power @ shifted
    return tuple(parts)


def spectral_data_of(a: RationalMatrix) -> SpectralData:
    """Conjugacy-class data by exact rank filtration at every eigenvalue."""
    eigs = rational_eigenvalues(a)
    return SpectralData(
        tuple((e, _filtration(a, e, eigs[e])) for e in sorted(eigs))
    )


def expected_spectral_data(parts: Sequence[int], eigvals: Sequence) -> SpectralData:
    """Spectral data the normal form of (parts, eigvals) will produce:
    group by eigenvalue, sort each group non-increasingly."""
    groups: dict[Fraction, list[int]] = {}
    for p, e in zip(parts, eigvals):
        if p:
            groups.setdefault(Fraction(e), []).append(p)
    return SpectralData(
        tuple(
            (e, tuple(sorted(groups[e], reverse=True))) for e in sorted(groups)
        )
    )


def tuple_spectral_data(at: MatrixTuple) -> tuple[SpectralData, ...]:
    if "spectral" not in at._facts:
        at._facts["spectral"] = tuple(spectral_data_of(m) for m in at.matrices)
    return at._facts["spectral"]


def _commutator_matrix(a: RationalMatrix) -> RationalMatrix:
    """Matrix of X -> AX - XA on row-major flattened X."""
    n = a.nrows
    rows = []
    for p in range(n):
        for q in range(n):
            row = [Fraction(0)] * (n * n)
            for r in range(n):
                row[r * n + q] += a.rows[p][r]
            for s in range(n):
                row[p * n + s] -= a.rows[s][q]
            rows.append(row)
    return RationalMatrix(rows)


def centralizer_dim(a: RationalMatrix, *, bound: int = 12) -> int:
    """Dimension of the commutant {X : AX = XA}: n^2 minus the exact rank
    of X -> AX - XA."""
    if a.nrows > bound:
        raise LinAlgError("size %d exceeds bound %d" % (a.nrows, bound))
    n = a.nrows
    return n * n - _commutator_matrix(a).rank()


def joint_centralizer_dim(at: MatrixTuple, *, bound: int = 12) -> int:
    if "irreducible" in at._facts:
        return 1  # Schur
    if at.size > bound:
        raise LinAlgError("size %d exceeds bound %d" % (at.size, bound))
    # A_0 = -(A_1 + ... + A_k): whatever commutes with A_1..A_k commutes
    # with A_0, so its block adds nothing to the stack
    stacked = vstack([_commutator_matrix(m) for m in at.matrices[1:]])
    return at.size ** 2 - stacked.rank()


class OrbitDims(NamedTuple):
    """Dimension bookkeeping for a zero-sum tuple.

    ``dim_classes_orbit`` is the manifold of tuples with the same local
    conjugacy classes and the same sum; ``dim_conj_orbit`` the simultaneous
    conjugation orbit.  Their gap is even and vanishes exactly in the rigid
    irreducible case (index 2).  The field ``index`` is the self-index; it
    shadows ``tuple.index``.
    """

    dim_centralizer: int
    index: int
    pidx: int
    dim_conj_orbit: int
    dim_classes_orbit: int

    def to_json(self) -> dict:
        return self._asdict()


def orbit_dims(at: MatrixTuple, *, bound: int = 12) -> OrbitDims:
    n = at.size
    k = at.k
    z = joint_centralizer_dim(at, bound=bound)
    try:  # a centralizer dimension is the sum of p_t^2 over spectral data
        zj = [sum(p * p for _, ps in d.entries for p in ps)
              for d in tuple_spectral_data(at)]
    except IrrationalEigenvalueError:
        zj = [centralizer_dim(m, bound=bound) for m in at.matrices]
    index = sum(zj) - (k - 1) * n * n
    # the orbit gap is 2z - index, and pidx >= 0 means index <= 2z
    if index % 2 or index > 2 * z:
        raise InvariantError("index %d is odd or exceeds 2 dim Z" % index)
    return OrbitDims(z, index, z - index // 2, n * n - z, k * n * n + z - sum(zj))


def addition(at: MatrixTuple, shifts: Sequence) -> MatrixTuple:
    """Shift A_j by shifts[j-1] for j >= 1 and A_0 by minus their total."""
    shifts = [Fraction(s) for s in shifts]
    if len(shifts) != at.k:
        raise LinAlgError("need one shift per matrix past the zeroth")
    mats = [at.matrices[0].shift(-sum(shifts))]
    mats.extend(m.shift(s) for m, s in zip(at.matrices[1:], shifts))
    return MatrixTuple(mats)


def convolution(at: MatrixTuple, lam) -> MatrixTuple:
    """Size-kn convolution blocks: block row j of G_j is (A_1,...,A_j+lam,
    ...,A_k), all other rows zero; G_0 closes the sum to zero.  They are the
    quotient by the empty span."""
    return MatrixTuple(_quotient_tuple(hstack(at.matrices[1:]), Fraction(lam), []))


class McReport(NamedTuple):
    """Kernel/image condition check for middle convolution parameters.

    A violation ("kernel", i) means that for some complex tau the common
    kernel of A_j - mu_j (j != 0, i) meets ker(A_0 - tau) nontrivially;
    ("image", i) means that for some tau the images of A_j - mu_j
    (j != 0, i) and of A_0 - tau together miss part of the space.
    """

    violations: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_mc_assumptions(at: MatrixTuple, mu: Sequence) -> McReport:
    """Both conditions at every complex tau, with no eigenvalue computed.

    Let S and T stack the other A_j - mu_j vertically and side by side.  The
    kernel of (S, S A_0, ..., S A_0^{n-1}) stacked is the largest A_0-stable
    subspace of ker S, nonzero exactly when it holds an eigenvector of A_0;
    dually (T, A_0 T, ..., A_0^{n-1} T) spans all of the space unless a left
    eigenvector of A_0 annihilates im T.  With no other matrix (k = 1) both
    conditions fail at each eigenvalue of A_0.
    """
    mu = [Fraction(x) for x in mu]
    if len(mu) != at.k + 1:
        raise LinAlgError("need one parameter per matrix")
    n = at.size
    a0 = at.matrices[0]
    violations = []
    for i in range(1, at.k + 1):
        others = [at.matrices[j].shift(-mu[j]) for j in range(1, at.k + 1) if j != i]
        if not others:
            violations += [("kernel", i), ("image", i)]
            continue
        stack, spread = [vstack(others)], [hstack(others)]
        for _ in range(n - 1):
            stack.append(stack[-1] @ a0)
            spread.append(a0 @ spread[-1])
        if vstack(stack).rank() < n:
            violations.append(("kernel", i))
        if hstack(spread).rank() < n:
            violations.append(("image", i))
    return McReport(tuple(violations))


def _quotient_tuple(row, lam, space) -> list[RationalMatrix]:
    """Convolution blocks G_0,...,G_k at ``lam`` modulo an invariant
    column-span.

    ``row`` is hstack(A_1,...,A_k).  G_j (j >= 1) is zero outside block row
    j, which is row + lam E_j, E_j the identity in block column j, and G_0 =
    -(G_1 + ... + G_k).  The spanning vectors are brought to reduced echelon
    form with their pivots P on the last coordinates; the standard vectors at
    the other coordinates N complete them to a basis.  Row a of C holds the N
    coordinates of the echelon vector with pivot P[a], so that e_P[a] is
    congruent to -C[a] modulo the span, and the quotient map is pi = [I_N |
    -C^T].  So Q_j = pi G_j[:, N] = pi_j (row + lam E_j)[:, N], pi_j the
    columns of pi in block j.  The empty span gives the dense blocks.  At a
    nonzero ``lam`` the spanning vectors must be independent.
    """
    n, size = row.nrows, row.ncols
    basis, pivot_at = [], []
    if space:
        red, pivots = RationalMatrix([tuple(v)[::-1] for v in space]).rref()
        if lam and len(pivots) < len(space):
            raise InvariantError(
                "blockwise kernels meet the zeroth kernel at a nonzero total"
            )
        if len(pivots) == size:
            raise LinAlgError("middle convolution collapses to dimension zero")
        basis = [w[::-1] for w in red.rows[: len(pivots)]]
        pivot_at = [size - 1 - c for c in pivots]
    free = sorted(set(range(size)) - set(pivot_at))
    nf = len(free)
    # column q of pi is the class of e_q: a unit vector, or -C[a] at q = P[a]
    pi = {q: [Fraction(int(q == f)) for f in free] for q in free}
    pi.update((q, [-w[f] for f in free]) for q, w in zip(pivot_at, basis))
    # block row j of G_j times span (the spanning vectors as columns) is
    # row @ span + lam times the block-j rows of span: one product serves all
    rs = (row @ RationalMatrix(zip(*basis))).rows if basis else [()] * n
    out = []
    for j in range(0, size, n):
        pj = RationalMatrix(zip(*(pi[q] for q in range(j, j + n))))
        # pi_j [G_j[:, N] | G_j span]: Q_j, then what must vanish on the span
        prod = pj @ RationalMatrix(
            [w[c] + lam if c == j + r else w[c] for c in free]
            + [x + lam * v[j + r] for x, v in zip(rs[r], basis)]
            for r, w in enumerate(row.rows)
        )
        # G_j keeps the span iff pi G_j vanishes on it; G_0 = -(G_1 + ... +
        # G_k) then keeps it too, so it needs no check of its own
        if any(any(x[nf:]) for x in prod.rows):
            raise InvariantError("subspace is not invariant")
        out.append(RationalMatrix(x[:nf] for x in prod.rows))
    return [-sum(out[1:], out[0])] + out


def middle_convolution(
    at: MatrixTuple, mu: Sequence, *, check: bool = True
) -> MatrixTuple:
    """Middle convolution with parameters (mu_0,...,mu_k).

    Shift by minus (mu_1,...,mu_k), read the convolution blocks at the
    parameter total from their block row, divide out the blockwise kernels
    plus the kernel of the zeroth block, shift again; no kn x kn block is
    formed.  Unless the input is known irreducible of size > 1, ``check``
    verifies the kernel/image conditions first; a violation raises
    :class:`McAssumptionError`.  The output is known irreducible when the
    input is, the total is nonzero and the conditions hold (Dettweiler-Reiter).
    """
    mu = [Fraction(x) for x in mu]
    if len(mu) != at.k + 1:
        raise LinAlgError("need one parameter per matrix")
    # On an irreducible tuple of size n > 1 no condition fails.  A vector
    # in the kernel of every A_j - mu_j (j != i) and of A_0 - tau is an
    # eigenvector of A_i = -(sum of the others) too, so it spans an invariant
    # line; a deficient image sum gives a common left eigenvector, whose
    # kernel is an invariant hyperplane.  At n = 1 the check is the test.
    known = "irreducible" in at._facts and at.size > 1
    if check and not known:
        report = check_mc_assumptions(at, mu)
        if not report.ok:
            raise McAssumptionError(report)
    shifts = [-x for x in mu[1:]]
    shifted = [a.shift(s) for a, s in zip(at.matrices[1:], shifts)]
    total = sum(mu)
    n, k = at.size, at.k
    row = hstack(shifted)
    space = [
        (0,) * (j * n) + vec + (0,) * ((k - 1 - j) * n)
        for j, a in enumerate(shifted)
        for vec in a.nullspace()
    ]
    # Block row j of G_0 v is -(row v + total v_j).  At a nonzero total all
    # v_j are then one w, row v = -(A_0 + mu_1 + ... + mu_k) w and
    # (A_0 - mu_0) w = 0: ker G_0 is the diagonal copies of ker(A_0 - mu_0).
    # At total 0 it is ker(row).  Either basis has the free columns and the
    # unit entries of the rref null-space basis of the kn x kn G_0, so it is
    # that basis.
    if total:
        space += [vec * k for vec in at.matrices[0].shift(-mu[0]).nullspace()]
    else:
        space += row.nullspace()
    q0, *qs = _quotient_tuple(row, total, space)
    out = MatrixTuple(
        [q0.shift(-sum(shifts))] + [q.shift(s) for q, s in zip(qs, shifts)]
    )
    if "irreducible" in at._facts and total != 0 and (check or known):
        out._facts["irreducible"] = True
    return out


def scheme_of(at: MatrixTuple) -> Scheme:
    """Concrete scheme (shape plus constant eigenvalue table) of a tuple,
    columns ordered by decreasing multiplicity then by eigenvalue."""
    shape_rows = []
    eig_rows = []
    for data in tuple_spectral_data(at):
        cols = []
        for eig, parts in data.entries:
            cols.extend((p, eig) for p in parts)
        cols.sort(key=lambda pe: (-pe[0], pe[1]))
        shape_rows.append(tuple(p for p, _ in cols))
        eig_rows.append(tuple(e for _, e in cols))
    return Scheme(SpectralType(shape_rows), eig_rows)


def _replay_forward(shape: SpectralType, table):
    """Run the maximal reduction of a rigid shape on (multiplicities,
    eigenvalues) jointly, collecting the middle-convolution parameters of
    every step."""
    red = reduce_rows(shape.partitions, shape.order, table)
    chain = []
    orders = []
    for order, marks, lams in red.steps:
        for lam in lams:
            if len(set(lam)) != len(lam):
                raise DegenerateSchemeError(
                    "coinciding eigenvalues within one point: %s" % (lam,)
                )
        mu = tuple(lam[e] for lam, e in zip(lams, marks))
        if sum(mu) == 0:
            raise DegenerateSchemeError(
                "parameter total vanishes at order %d" % order
            )
        chain.append(mu)
        orders.append(order)
    # at order one every row holds a single 1 among zeros
    scalars = [lam[r.index(1)] for r, lam in zip(red.rows, red.eigenvalues)]
    return chain, orders, scalars


def construct_rigid(scheme: Scheme) -> MatrixTuple:
    """Irreducible zero-sum tuple realizing a rigid concrete scheme.

    The eigenvalue bookkeeping of the reduction chain is replayed down to
    scalars and inverted with one middle convolution per step.  Each total
    is nonzero, so the tuple is irreducible by construction and carries that
    fact.  Degenerate eigenvalue choices (vanishing parameter totals,
    coinciding eigenvalues, failed convolution assumptions) raise
    :class:`DegenerateSchemeError`; resample and retry in that case.
    """
    shape = scheme.shape
    red = reduce_rows(shape.partitions, shape.order)
    if red.terminal is not Terminal.ORDER_ONE:
        raise DegenerateSchemeError("shape %s is not rigid" % shape)
    if not scheme.is_constant():
        raise DegenerateSchemeError("need constant rational eigenvalues")
    table = scheme.constant_table()
    trace = scheme.trace_form().const
    if trace != 0:
        raise DegenerateSchemeError("trace condition violated: %s" % trace)
    chain, orders, scalars = _replay_forward(shape, table)
    if sum(scalars) != 0:
        raise InvariantError("scalar terminal does not sum to zero")
    at = MatrixTuple([RationalMatrix([[s]]) for s in scalars])
    at._facts["irreducible"] = True
    for mu, order in zip(reversed(chain), reversed(orders)):
        try:
            at = middle_convolution(at, tuple(-x for x in mu))
        except (McAssumptionError, LinAlgError) as exc:
            raise DegenerateSchemeError(
                "middle convolution degenerated: %s" % exc
            ) from exc
        if at.size != order:
            raise DegenerateSchemeError(
                "expected order %d, got %d" % (order, at.size)
            )
    # The expected multiplicities of each matrix sum to n = at.size and
    # generalized eigenspaces are independent, so a kernel of dimension
    # sum(p) at every expected eigenvalue is the whole generalized eigenspace:
    # ranks matching p up to t = len(p) prove the Jordan data exactly.
    facts = tuple(map(expected_spectral_data, shape.partitions, table))
    for a, data in zip(at.matrices, facts):
        if any(_filtration(a, e, sum(p)) != p for e, p in data.entries):
            raise DegenerateSchemeError("spectral data mismatch at %r" % a)
    at._facts["spectral"] = facts
    return at


def random_scheme(shape: SpectralType, rng, *, num_range: int = 10 ** 6) -> Scheme:
    """Random constant scheme on ``shape`` with exact zero trace: common
    denominator, numerators uniform in [-num_range, num_range], one column
    solved for the trace condition, rows kept collision-free."""
    den = rng.randint(1, 97)
    for _ in range(50):
        table = [
            [Fraction(rng.randint(-num_range, num_range), den) for _ in row]
            for row in shape.partitions
        ]
        head = sum(
            p * l
            for row, lrow in zip(shape.partitions, table)
            for p, l in zip(row, lrow)
        )
        solved = head - shape.partitions[0][0] * table[0][0]
        table[0][0] = -solved / shape.partitions[0][0]
        if all(len(set(row)) == len(row) for row in table):
            return Scheme(shape, table)
    raise DegenerateSchemeError("failed to sample a collision-free scheme")


def construct_rigid_random(
    shape: SpectralType, rng, *, retries: int = 20, num_range: int = 10 ** 6
) -> tuple[Scheme, MatrixTuple]:
    """Sample generic schemes on a rigid shape until construction succeeds.

    Smaller ``num_range`` keeps the exact arithmetic light downstream.  A
    shape that is not rigid raises before any draw.
    """
    if reduce_rows(shape.partitions, shape.order).terminal is not Terminal.ORDER_ONE:
        raise DegenerateSchemeError("shape %s is not rigid" % shape)
    last: Exception | None = None
    for _ in range(retries):
        scheme = random_scheme(shape, rng, num_range=num_range)
        try:
            return scheme, construct_rigid(scheme)
        except DegenerateSchemeError as exc:
            last = exc
    raise DegenerateSchemeError(
        "no generic scheme found after %d tries: %s" % (retries, last)
    )
