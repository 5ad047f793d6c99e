"""Checkers that share no code with midconv.

Spectral types are handled here as plain tuples of integer tuples.  The
Katz reduction, the rigidity index, the marked-column prediction for a
middle convolution, the Jordan data of a rational matrix (exact ranks with
sympy's domain matrices) and Gauss's limit (``math.lgamma``) are written
from their definitions, so a fault in the program cannot hide in its own
check.  Every ``check_*`` function returns a list of error strings; an empty
list means the outputs are right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

PUBLISHED = json.loads(
    (Path(__file__).resolve().parent / "data" / "published.json").read_text()
)

RIGID = "rigid"
REALIZABLE = "realizable-not-rigid"
NOT_REALIZABLE = "not-realizable"


def parse(text):
    """'411,411,42,33' (or space-separated parts) -> tuple of tuples."""
    rows = []
    for token in text.split(","):
        token = token.strip()
        rows.append(tuple(int(t) for t in token.split()) if " " in token
                    else tuple(int(c) for c in token))
    return tuple(rows)


def text_of(rows):
    sep = " " if any(p > 9 for row in rows for p in row) else ""
    return ",".join(sep.join(str(p) for p in row) for row in rows)


def order(rows):
    return sum(rows[0])


def canon(rows):
    """Zero parts removed, parts and partitions sorted descending, trivial
    partitions (n) dropped; (n) alone when nothing else is left."""
    rows = tuple(rows)
    n = order(rows)
    out = []
    for row in rows:
        row = tuple(sorted((p for p in row if p), reverse=True))
        if row and row != (n,):
            out.append(row)
    return tuple(sorted(out, reverse=True)) if out else ((n,),)


def index(rows, rows2=None):
    """Rigidity index pairing over a common number of partitions, shorter
    side padded with trivial partitions."""
    rows2 = rows if rows2 is None else rows2
    k = max(len(rows), len(rows2))
    n, n2 = order(rows), order(rows2)
    dot = 0
    for j in range(k):
        p = rows[j] if j < len(rows) else (n,)
        q = rows2[j] if j < len(rows2) else (n2,)
        dot += sum(a * b for a, b in zip(p, q))
    return dot - (k - 2) * n * n2


def gcd(rows):
    return math.gcd(*(p for row in rows for p in row))


def dmax(rows):
    return sum(max(row) for row in rows) - (len(rows) - 2) * order(rows)


def reduce_chain(rows):
    """Katz reduction at the first maximal column of every partition, on
    canonical forms.  Returns (verdict, defects, terminal)."""
    cur = canon(rows)
    ds = []
    while order(cur) > 1:
        n = order(cur)
        marks = [row.index(max(row)) for row in cur]
        d = sum(row[v] for row, v in zip(cur, marks)) - (len(cur) - 2) * n
        ds.append(d)
        if d <= 0:
            ok = gcd(cur) == 1 or index(cur) < 0
            return (REALIZABLE if ok else NOT_REALIZABLE), ds, cur
        if any(row[v] < d for row, v in zip(cur, marks)):
            return NOT_REALIZABLE, ds, cur
        cur = canon(
            tuple(p - d if i == v else p for i, p in enumerate(row))
            for row, v in zip(cur, marks)
        )
    return RIGID, ds, cur


# ---------------------------------------------------------------- classify-stream


def check_analyze(text, record_json):
    """One ``analyze --json`` record against the benchmark's own reduction."""
    try:
        rec = json.loads(record_json)[0]
    except (ValueError, IndexError) as exc:
        return ["%s: unreadable record (%s)" % (text, exc)]
    errors = []
    rows = parse(text)
    want = canon(rows)
    verdict, ds, terminal = reduce_chain(rows)
    i = index(want)
    got_verdict = rec["trace"]["verdict"]
    got_ds = [s["d"] for s in rec["trace"]["steps"]]
    cls = rec["classification"]
    if tuple(map(tuple, rec["canonical"])) != want:
        errors.append("canonical form %s" % rec["canonical"])
    if got_verdict != verdict or got_ds != ds:
        errors.append("verdict %s %s, expected %s %s" % (got_verdict, got_ds, verdict, ds))
    if tuple(map(tuple, rec["trace"]["terminal"])) != terminal:
        errors.append("terminal %s" % rec["trace"]["terminal"])
    if rec["idx"] != i or rec["pidx"] != 1 - i // 2 or rec["gcd"] != gcd(want):
        errors.append("idx/pidx/gcd %s/%s/%s" % (rec["idx"], rec["pidx"], rec["gcd"]))
    if verdict == RIGID and rec["idx"] != 2:
        errors.append("rigid verdict with idx %s" % rec["idx"])
    if cls["rigid"] != (verdict == RIGID) or cls["irreducibly_realizable"] != (
        verdict != NOT_REALIZABLE
    ):
        errors.append("classification %s" % cls)
    return ["%s: %s" % (text, e) for e in errors]


# ---------------------------------------------------------------- matrix-mc


def _fractions(matrix_json):
    return [[Fraction(x) for x in row] for row in matrix_json]


def _domain(mat):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = len(mat)
    return DomainMatrix(
        [[QQ(x.numerator, x.denominator) for x in row] for row in mat],
        (n, len(mat[0])),
        QQ,
    )


def jordan_errors(mat, data):
    """Compare a square rational matrix with Jordan data given as
    {eigenvalue: parts}, where parts[t-1] = rank (A-e)^(t-1) - rank (A-e)^t.
    Ranks are exact (sympy over QQ)."""
    n = len(mat)
    if sum(sum(p) for p in data.values()) != n:
        return ["multiplicities do not add up to the size %d" % n]
    errors = []
    for eig, parts in data.items():
        shifted = _domain(
            [[x - eig if i == j else x for j, x in enumerate(row)]
             for i, row in enumerate(mat)]
        )
        power = shifted
        want = n
        for t in range(len(parts) + 1):
            want -= parts[t] if t < len(parts) else 0
            got = power.rank()
            if got != want:
                errors.append("rank (A-%s)^%d is %d, expected %d" % (eig, t + 1, got, want))
                break
            power = power * shifted
    return errors


def scheme_data(shape_row, eig_row):
    """Jordan data of one column-labelled row: eigenvalue -> parts."""
    groups = {}
    for p, e in zip(shape_row, eig_row):
        if p:
            groups.setdefault(Fraction(e), []).append(p)
    return {e: sorted(ps, reverse=True) for e, ps in groups.items()}


def predict_mc(shape_rows, eig_rows, mu):
    """Marked-column rule for the middle convolution with parameters mu:
    (output size, Jordan data per matrix), or None when the rule does not
    apply (vanishing parameter total or a negative multiplicity)."""
    total = sum(mu)
    if total == 0:
        return None
    k = len(shape_rows) - 1
    n = sum(shape_rows[0])
    marks = []
    for row, lam, m in zip(shape_rows, eig_rows, mu):
        hits = [v for v, l in enumerate(lam) if l == m]
        if hits:
            best = max(row[v] for v in hits)
            marks.append(min(v for v in hits if row[v] == best))
        else:
            marks.append(None)
    d = sum(row[e] for row, e in zip(shape_rows, marks) if e is not None) - (k - 1) * n
    out = []
    for row, lam, e, m in zip(shape_rows, eig_rows, marks, mu):
        parts, eigs = [], []
        for v, (p, l) in enumerate(zip(row, lam)):
            if v == e:
                p, l = p - d, -m
            else:
                l = l + total - 2 * m
            if p < 0:
                return None
            parts.append(p)
            eigs.append(l)
        if e is None and d < 0:
            parts.append(-d)
            eigs.append(-m)
        out.append(scheme_data(parts, eigs))
    return n - d, out


def _centralizer(data):
    return sum(p * p for parts in data.values() for p in parts)


def _tuple_errors(label, mats, size, datas):
    errors = []
    if len(mats) != len(datas) or any(
        len(m) != size or any(len(r) != size for r in m) for m in mats
    ):
        return ["%s: not %d matrices of size %dx%d" % (label, len(datas), size, size)]
    for i in range(size):
        for j in range(size):
            if sum(m[i][j] for m in mats) != 0:
                return ["%s: the tuple does not sum to zero" % label]
    for j, (m, data) in enumerate(zip(mats, datas)):
        errors += ["%s A_%d: %s" % (label, j, e) for e in jordan_errors(m, data)]
    return errors


def check_mc(inp, output_json):
    """One matrix-mc operation: the mc-demo payload realises its scheme on
    the requested shape, the orbit index is 2, the forward convolution
    matches the marked-column prediction and the round trip restores the
    input's Jordan data."""
    out = json.loads(output_json)
    pay = out["payload"]
    shape = parse(inp["shape"])
    label = inp["shape"]
    if canon(tuple(map(tuple, pay["shape"]))) != canon(shape):
        return ["%s: payload shape %s" % (label, pay["shape"])]
    eigs = [[Fraction(e) for e in row] for row in pay["eigenvalues"]]
    shape_rows = [tuple(r) for r in pay["shape"]]
    n = order(shape_rows)
    if sum(p * e for row, lrow in zip(shape_rows, eigs) for p, e in zip(row, lrow)) != 0:
        return ["%s: scheme violates the trace condition" % label]
    datas = [scheme_data(r, l) for r, l in zip(shape_rows, eigs)]
    mats = [_fractions(m) for m in pay["matrices"]]
    errors = _tuple_errors(label, mats, n, datas)
    k = len(shape_rows) - 1
    own_index = sum(_centralizer(d) for d in datas) - (k - 1) * n * n
    if own_index != 2 or pay["orbit"]["index"] != 2:
        errors.append("%s: orbit index %s, own %d" % (label, pay["orbit"]["index"], own_index))
    listed = [{Fraction(e): list(p) for e, p in d} for d in pay["spectral_data"]]
    if listed != datas:
        errors.append("%s: payload spectral data differ from the scheme" % label)
    mu = [Fraction(x) for x in out["mu"]]
    prediction = predict_mc(shape_rows, eigs, mu)
    if prediction is None:
        return errors + ["%s: marked-column rule does not apply to mu" % label]
    size, fdatas = prediction
    errors += _tuple_errors(label + " forward", [_fractions(m) for m in out["forward"]], size, fdatas)
    errors += _tuple_errors(label + " back", [_fractions(m) for m in out["back"]], n, datas)
    return errors


# ---------------------------------------------------------------- decompose-connect


def log_gamma_signed(x):
    """(log|Gamma(x)|, sign of Gamma(x)) for x off the poles."""
    if x > 0:
        return math.lgamma(x), 1
    return math.lgamma(x), -1 if math.floor(x) % 2 else 1


def gauss_limit(a, b, c):
    """lim_{x->1} (1-x)^(a+b-c) 2F1(a,b;c;x) = G(c)G(a+b-c)/(G(a)G(b))
    for positive a, b, c and a+b-c."""
    return math.exp(
        math.lgamma(c) + math.lgamma(a + b - c) - math.lgamma(a) - math.lgamma(b)
    )


def connection_value(rows, decs, assignment):
    """The gamma ratio of a pinned three-point scheme (pins on the last
    columns of the first two points) from its decompositions: numerator
    exponent differences at points 0 and 1, denominator Fuchs values of
    the first summands."""
    x = {k: Fraction(v) for k, v in assignment.items()}
    e = [[x["l%d_%d" % (j, v + 1)] for v in range(len(row))] for j, row in enumerate(rows)]
    p0, p1 = len(rows[0]) - 1, len(rows[1]) - 1
    num = [e[0][p0] - e[0][v] + 1 for v in range(len(rows[0])) if v != p0]
    num += [e[1][v] - e[1][p1] for v in range(len(rows[1])) if v != p1]
    den = []
    for first, _ in decs:
        f = 1 - order(first)
        for j, row in enumerate(first):
            f += sum(p * ev for p, ev in zip(row, e[j]))
        den.append(f)
    log, sign = 0.0, 1
    for side, args in ((1, num), (-1, den)):
        for arg in args:
            lg, s = log_gamma_signed(float(arg))
            log += side * lg
            sign *= s
    return sign * math.exp(log)


def check_decompose(inp, output_json):
    """Decomposition count n0+n1-2, the column-sum identities, idx(m',m'')
    = -1, and the evaluated gamma ratio against the benchmark's own product
    (and, for order two, against Gauss's limit)."""
    out = json.loads(output_json)
    rows = parse(inp["tuple"])
    label = inp["tuple"]
    n0, n1 = len(rows[0]), len(rows[1])
    decs = [tuple(tuple(map(tuple, part)) for part in pair) for pair in out["decompositions"]]
    errors = []
    if len(decs) != n0 + n1 - 2:
        errors.append("%d decompositions, expected %d" % (len(decs), n0 + n1 - 2))
    for first, second in decs:
        if any(
            a + b != p
            for r1, r2, row in zip(first, second, rows)
            for a, b, p in zip(r1, r2, row)
        ) or any(q < 0 for part in (first, second) for row in part for q in row):
            errors.append("%s + %s is not a splitting" % (first, second))
        elif index(first, second) != -1 or first[0][n0 - 1] != 1 or second[1][n1 - 1] != 1:
            errors.append("%s + %s: idx or pins wrong" % (first, second))
    for j in range(3):
        for v in range(len(rows[j])):
            total = sum(first[j][v] for first, _ in decs)
            expect = (n1 - 1) * rows[j][v]
            if j == 0:
                expect -= 1 - n0 * (v == n0 - 1)
            if j == 1:
                expect += 1 - n1 * (v == n1 - 1)
            if total != expect:
                errors.append("column sum at (%d,%d) is %d, expected %d" % (j, v + 1, total, expect))
    if not errors:
        want = connection_value(rows, decs, inp["assignment"])
        if not math.isclose(out["value"], want, rel_tol=1e-9):
            errors.append("value %r, own gamma product %r" % (out["value"], want))
        if "gauss" in inp:
            a, b, c = (float(Fraction(inp["gauss"][key])) for key in "abc")
            if not math.isclose(out["value"], gauss_limit(a, b, c), rel_tol=1e-9):
                errors.append("value %r differs from Gauss's limit" % out["value"])
    return ["%s: %s" % (label, e) for e in errors]


# ---------------------------------------------------------------- enumerate


def _classes(text_list):
    return {canon(parse(t)) for t in text_list}


def check_enumeration(sweep, rigid_orders, basic_indices):
    """Rigid reports by order and basic reports by index, each a list of
    class texts.  Published data where it exists; otherwise every class is
    canonical, distinct and passes the benchmark's own test."""
    errors = []
    counts = PUBLISHED["rigid_counts_2_to_12"]
    for n in rigid_orders:
        items = [parse(t) for t in sweep["rigid"][str(n)]]
        if str(n) in counts:
            triples, total = counts[str(n)]
            got = (sum(len(r) == 3 for r in items), len(items))
            if got != (triples, total):
                errors.append("rigid order %d: counts %s, published %s" % (n, got, (triples, total)))
        for rows in items:
            if canon(rows) != rows or order(rows) != n:
                errors.append("rigid order %d: %s is not canonical" % (n, text_of(rows)))
            elif index(rows) != 2 or reduce_chain(rows)[0] != RIGID:
                errors.append("rigid order %d: %s is not rigid" % (n, text_of(rows)))
        if len(set(items)) != len(items):
            errors.append("rigid order %d: repeated classes" % n)
    if 7 in rigid_orders:
        table = _classes(PUBLISHED["rigid_table_to_order_7"])
        got = {parse(t) for n in rigid_orders if n <= 7 for t in sweep["rigid"][str(n)]}
        if got != table:
            errors.append("rigid classes to order 7 differ from the published table")
    for p in basic_indices:
        items = [parse(t) for t in sweep["basic"][str(p)]]
        for rows in items:
            if canon(rows) != rows:
                errors.append("basic index %d: %s is not canonical" % (p, text_of(rows)))
            elif index(rows) != p or gcd(rows) != 1 or dmax(rows) > 0:
                errors.append("basic index %d: %s is not basic" % (p, text_of(rows)))
        if len(set(items)) != len(items):
            errors.append("basic index %d: repeated classes" % p)
        got = set(items)
        if p == 0 and got != _classes(PUBLISHED["basic_index_0"]):
            errors.append("basic index 0 differs from the published list")
        if p == -2 and got != _classes(PUBLISHED["basic_index_minus_2"]):
            errors.append("basic index -2 differs from the published list")
        if p == -4 and not _classes(PUBLISHED["basic_index_minus_4_table"]) <= got:
            errors.append("basic index -4 misses classes of the published table")
    return errors
