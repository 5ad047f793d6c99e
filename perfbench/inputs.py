"""Seeded inputs for the four workloads.

Everything here is plain data made from ``--seed`` and the published
tables in ``data/published.json``; nothing calls midconv.  Each workload
gets a *round*: a fixed list of operation inputs, in a fixed order for a
given seed, plus one small warm-up input used by the cold starts.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from checks import (
    NOT_REALIZABLE,
    PUBLISHED,
    REALIZABLE,
    RIGID,
    canon,
    order,
    parse,
    reduce_chain,
    text_of,
)

# classify-stream: operations per round and the verdict mix.
STREAM_SHARES = {RIGID: 600, REALIZABLE: 450, NOT_REALIZABLE: 450}
STREAM_MAX_ORDER = 36

# matrix-mc: the three-point rigid shapes of orders 4 to 6.
MC_ORDERS = (4, 5, 6)

# enumerate: one sweep is every rigid order and every basic index below.
RIGID_ORDERS = tuple(range(2, 16))
BASIC_INDICES = tuple(range(0, -14, -2))

# decompose-connect: a distinct prime denominator per exponent keeps every
# gamma argument off the integers (coefficients are at most 7 < 11).
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _rng(seed, workload):
    return random.Random("%s:%d" % (workload, seed))


def _inverse_step(rows, rng, tries=8):
    """Grow a tuple by one reduction step with negative defect: mark one
    column per partition (possibly a new zero column) and add -d to each
    mark.  Of a few random markings the one with the defect closest to zero
    is taken, so orders grow slowly and reduction chains get long.  Rows
    are kept unsorted; None when no marking has a negative defect."""
    n = order(rows)
    best = None
    for _ in range(tries):
        marks = [rng.randrange(len(row) + 1) for row in rows]
        d = sum(row[v] if v < len(row) else 0 for row, v in zip(rows, marks))
        d -= (len(rows) - 2) * n
        if d < 0 and (best is None or d > best[0]):
            best = d, marks
    if best is None:
        return None
    d, marks = best
    out = []
    for row, v in zip(rows, marks):
        row = list(row) + ([0] if v == len(row) else [])
        row[v] -= d
        out.append(tuple(row))
    return tuple(out)


def _grow(rows, steps, rng):
    for _ in range(steps):
        nxt = _inverse_step(rows, rng)
        if nxt is None or order(nxt) > STREAM_MAX_ORDER:
            break
        rows = nxt
    return rows


def _scramble(rows, rng):
    """Text of rows with parts and partitions shuffled, so that the
    program has to canonicalize.  Trivial partitions (n) are left out: they
    carry nothing, and a lone part above 9 has no digit-string form."""
    n = order(rows)
    rows = [list(row) for row in rows if tuple(row) != (n,)]
    for row in rows:
        rng.shuffle(row)
    rng.shuffle(rows)
    return text_of(rows)


def _stream_candidate(rng, basics):
    kind = rng.random()
    if kind < 0.45:
        rows = _grow(((1,),) * rng.choice((3, 3, 4)), rng.randint(4, 30), rng)
    elif kind < 0.75:
        rows = _grow(parse(rng.choice(basics)), rng.randint(0, 6), rng)
    elif kind < 0.9:
        rows = _grow(((1,),) * 3, rng.randint(2, 8), rng)
        rows = tuple(tuple(2 * p for p in row) for row in rows)
    else:
        rows = [list(row) for row in _grow(((1,),) * 3, rng.randint(2, 10), rng)]
        row = rng.choice(rows)
        if len(row) > 1:
            i, j = rng.sample(range(len(row)), 2)
            if row[i] > 1:
                row[i] -= 1
                row[j] += 1
        rows = tuple(tuple(row) for row in rows)
    return rows


def classify_stream(seed):
    rng = _rng(seed, "classify-stream")
    basics = (
        PUBLISHED["basic_index_0"]
        + PUBLISHED["basic_index_minus_2"]
        + PUBLISHED["basic_index_minus_4_table"]
    )
    want = dict(STREAM_SHARES)
    ops = []
    while any(want.values()):
        rows = _stream_candidate(rng, basics)
        if not 2 <= order(rows) <= STREAM_MAX_ORDER or len(canon(rows)[0]) == 1:
            continue
        verdict = reduce_chain(rows)[0]
        if want[verdict]:
            want[verdict] -= 1
            ops.append(_scramble(rows, rng))
    rng.shuffle(ops)
    return ops, ops[0]


def _table(orders, npart):
    return [
        t for t in PUBLISHED["rigid_table_to_order_7"]
        if order(parse(t)) in orders and len(parse(t)) == npart
    ]


def matrix_mc(seed):
    rng = _rng(seed, "matrix-mc")
    ops = [{"shape": t, "seed": rng.randrange(1 << 30)} for t in _table(MC_ORDERS, 3)]
    rng.shuffle(ops)
    return ops, {"shape": "211,211,211", "seed": rng.randrange(1 << 30)}


def pinned_arrangements():
    """Every ordering of the partitions of a three-point rigid class up to
    order 7 whose first two partitions end in a part 1 (the pins)."""
    out = []
    for t in _table(range(2, 8), 3):
        for arr in sorted(set(itertools.permutations(parse(t)))):
            if arr[0][-1] == 1 and arr[1][-1] == 1:
                out.append(text_of(arr))
    return out


def _assignment(rows, rng):
    names = ["l%d_%d" % (j, v + 1) for j, row in enumerate(rows) for v in range(len(row))]
    primes = rng.sample(PRIMES, len(names))
    values = {}
    for name, p in zip(names, primes):
        num = p * rng.randint(-2, 1) + rng.randint(1, p - 1)
        values[name] = "%d/%d" % (num, p)
    return values


def _gauss(rng):
    """Exponents of 2F1(a,b;c;x) with pins at exponent 0 at x=0 and at
    exponent c-a-b at x=1, so the coefficient is Gauss's limit."""
    p, q, r = rng.sample(PRIMES, 3)
    a = (rng.randint(p // 5 + 1, 5 * p // 2), p)
    b = (rng.randint(q // 5 + 1, 5 * q // 2), q)
    top = (a[0] * q + b[0] * p) * r
    c = (rng.randint(r // 10 + 1, top // (p * q) - 1), r)
    fa, fb, fc = (Fraction(*x) for x in (a, b, c))
    assignment = {
        "l0_1": str(1 - fc), "l0_2": "0",
        "l1_1": "0", "l1_2": str(fc - fa - fb),
        "l2_1": str(fa), "l2_2": str(fb),
    }
    return assignment, {"a": str(fa), "b": str(fb), "c": str(fc)}


def decompose_connect(seed):
    rng = _rng(seed, "decompose-connect")
    ops = []
    for text in pinned_arrangements():
        rows = parse(text)
        if order(rows) == 2:
            assignment, gauss = _gauss(rng)
            ops.append({"tuple": text, "assignment": assignment, "gauss": gauss})
        else:
            ops.append({"tuple": text, "assignment": _assignment(rows, rng)})
    rng.shuffle(ops)
    warm = {"tuple": "111,111,21", "assignment": _assignment(parse("111,111,21"), rng)}
    return ops, warm


def enumerate_sweeps(seed):
    full = {"rigid_orders": list(RIGID_ORDERS), "basic_indices": list(BASIC_INDICES)}
    warm = {"rigid_orders": list(range(2, 8)), "basic_indices": [0, -2]}
    return [full], warm


GENERATORS = {
    "classify-stream": classify_stream,
    "matrix-mc": matrix_mc,
    "decompose-connect": decompose_connect,
    "enumerate": enumerate_sweeps,
}


def make(workload, seed):
    """(round of operation inputs, warm-up input) for a workload."""
    return GENERATORS[workload](seed)


def describe(workload, seed):
    """Make-up of a workload's round, for the README."""
    ops, _ = make(workload, seed)
    if workload == "classify-stream":
        chains = {RIGID: [], REALIZABLE: [], NOT_REALIZABLE: []}
        for text in ops:
            verdict, ds, _ = reduce_chain(parse(text))
            chains[verdict].append(len(ds))
        return {
            v: {"share": len(c) / len(ops), "mean_chain": sum(c) / len(c), "max_chain": max(c)}
            for v, c in chains.items()
        } | {"max_order": max(order(parse(t)) for t in ops)}
    if workload == "matrix-mc":
        return {"shapes": sorted((order(parse(o["shape"])), o["shape"]) for o in ops)}
    if workload == "decompose-connect":
        by_order = {}
        for o in ops:
            n = order(parse(o["tuple"]))
            by_order[n] = by_order.get(n, 0) + 1
        return {"arrangements": len(ops), "by_order": by_order}
    return ops[0]


if __name__ == "__main__":
    import json
    import sys

    print(json.dumps(describe(sys.argv[1], int(sys.argv[2])), indent=1, default=str))
