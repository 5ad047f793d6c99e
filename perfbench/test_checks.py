"""Self-tests of the benchmark's checkers.

    python3 -m pytest perfbench/test_checks.py -q

They show that the checkers agree with the published data (the rigid table
to order 7, the rigid counts to order 12, the basic lists at index 0 and -2,
the four reduction chains of the acceptance suite) and that they reject a
corrupted output: a dropped class, a perturbed matrix entry, a wrong gamma
factor, a wrong verdict.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
from checks import (  # noqa: E402
    NOT_REALIZABLE,
    PUBLISHED,
    REALIZABLE,
    RIGID,
    canon,
    dmax,
    gcd,
    index,
    order,
    parse,
    reduce_chain,
)


def test_published_rigid_table_agrees_with_own_reduction():
    table = {canon(parse(t)) for t in PUBLISHED["rigid_table_to_order_7"]}
    assert len(table) == 92
    for rows in table:
        assert index(rows) == 2
        assert reduce_chain(rows)[0] == RIGID, rows
    for n in range(2, 8):
        total = PUBLISHED["rigid_counts_2_to_12"][str(n)][1]
        assert sum(order(rows) == n for rows in table) == total


def test_published_basic_lists_are_basic():
    for p, key in ((0, "basic_index_0"), (-2, "basic_index_minus_2"),
                   (-4, "basic_index_minus_4_table")):
        for text in PUBLISHED[key]:
            rows = canon(parse(text))
            assert index(rows) == p and gcd(rows) == 1 and dmax(rows) <= 0, text
            assert reduce_chain(rows)[0] == REALIZABLE, text


def test_four_reduction_chains():
    chains = [
        ("411,411,42,33", RIGID, [3, 1, 1], "1,1,1"),
        ("211,211,1111", REALIZABLE, [1, 0], "111,111,111"),
        ("211,211,211,31", REALIZABLE, [1, -1], "111,111,111,21"),
        ("22,22,1111", NOT_REALIZABLE, [1, 2], "21,21,111"),
    ]
    for text, verdict, ds, terminal in chains:
        assert reduce_chain(parse(text)) == (verdict, ds, canon(parse(terminal)))


def test_enumeration_checker():
    sweep = {"rigid_orders": list(range(2, 13)), "basic_indices": [0, -2, -4]}
    texts = ops.sweep_texts(ops.enumerate_sweep(sweep))
    check = lambda t: checks.check_enumeration(t, sweep["rigid_orders"], sweep["basic_indices"])
    assert check(texts) == []
    for kind, key in (("rigid", "12"), ("rigid", "5"), ("basic", "-2"), ("basic", "-4")):
        dropped = json.loads(json.dumps(texts))
        dropped[kind][key].pop(0)
        assert check(dropped), (kind, key)
    repeated = json.loads(json.dumps(texts))
    repeated["rigid"]["12"].append(repeated["rigid"]["12"][0])
    assert check(repeated)


def test_analyze_checker():
    stream, _ = inputs.make("classify-stream", 3)
    for text in stream[:60]:
        record = ops.analyze(text)
        assert checks.check_analyze(text, record) == []
        bad = json.loads(record)
        bad[0]["trace"]["steps"][0]["d"] += 1
        assert checks.check_analyze(text, json.dumps(bad))
        bad = json.loads(record)
        bad[0]["classification"]["rigid"] = not bad[0]["classification"]["rigid"]
        assert checks.check_analyze(text, json.dumps(bad))


def _shift_entry(matrices, i, j, r, c):
    """Move one unit from A_j to A_i at (r, c): the tuple still sums to zero."""
    for k, delta in ((i, 1), (j, -1)):
        matrices[k][r][c] = str(Fraction(matrices[k][r][c]) + delta)


def test_mc_checker():
    inp = {"shape": "2111,221,311", "seed": 11}
    out = ops.matrix_mc(inp)
    assert checks.check_mc(inp, out) == []
    for part in ("payload", "forward", "back"):
        bad = json.loads(out)
        mats = bad["payload"]["matrices"] if part == "payload" else bad[part]
        _shift_entry(mats, 1, 0, 0, len(mats[0]) - 1)
        assert checks.check_mc(inp, json.dumps(bad)), part
    bad = json.loads(out)
    bad["payload"]["matrices"][1][0][0] = str(Fraction(bad["payload"]["matrices"][1][0][0]) + 1)
    assert checks.check_mc(inp, json.dumps(bad))


def test_gauss_limit_matches_the_series():
    import mpmath

    mpmath.mp.dps = 60
    for a, b, c in ((0.5, 0.75, 0.4), (1.3, 2.1, 1.7), (0.25, 1.5, 1.0)):
        x = 1 - mpmath.mpf(10) ** -40
        series = (1 - x) ** (a + b - c) * mpmath.hyp2f1(a, b, c, x)
        assert abs(float(series) / checks.gauss_limit(a, b, c) - 1) < 1e-9


def test_decompose_checker():
    round_inputs, _ = inputs.make("decompose-connect", 1)
    chosen = [i for i in round_inputs if order(parse(i["tuple"])) <= 4]
    assert any("gauss" in i for i in chosen)
    for inp in chosen:
        out = ops.decompose_connect(inp)
        assert checks.check_decompose(inp, out) == [], inp["tuple"]
        data = json.loads(out)
        # a denominator factor G(f) replaced by G(f+1) = f G(f)
        first = data["decompositions"][0][0]
        f = 1 - order(first) + sum(
            p * Fraction(inp["assignment"]["l%d_%d" % (j, v + 1)])
            for j, row in enumerate(first) for v, p in enumerate(row)
        )
        bad = dict(data, value=data["value"] / float(f))
        assert checks.check_decompose(inp, json.dumps(bad)), inp["tuple"]
        bad = dict(data, decompositions=data["decompositions"][1:])
        assert checks.check_decompose(inp, json.dumps(bad)), inp["tuple"]
