"""Regenerate ``tests/data/golden.json`` from the code in ``src/``.

Run from the root of a checkout: ``python tests/make_golden.py``.  The
inputs come from the benchmark's seeded generators (``perfbench/inputs.py``)
and are stored in the file, so the test needs no benchmark code:

* ``analyze`` on the 1 500 seed-1 ``classify-stream`` types;
* ``reduce`` and ``diagram`` on every tenth of them;
* ``enumerate-rigid`` for orders 2..12, ``enumerate-basic`` for indices
  0..-12 and ``counts`` with its defaults;
* ``decompose`` and ``connect`` (plain and ``--latex``) on the 98 pinned
  three-point arrangements to order 7;
* ``mc-demo --seed 0`` on every rigid shape of the published table to
  order 7 (``rigid_table_to_order_7``: orders 2 to 7, up to 8 points);
* a few malformed inputs, and a few with trivial partitions (n), which
  ``parse`` drops.

Every command runs in text form and with ``--json``; ``mc-demo --seed 1``
on the 21 three-point shapes of orders 4 to 6 runs with ``--json`` only,
which keeps the test under a minute.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from test_golden import GOLDEN, run_case  # noqa: E402


def command_lines():
    stream, _ = inputs.classify_stream(1)
    sample = stream[::10]
    lines = [["analyze", t] for t in stream]
    lines += [["reduce", t] for t in sample]
    lines += [["diagram", t] for t in sample]
    lines += [["diagram", t, "--dot"] for t in sample]
    lines += [["enumerate-rigid", "-n", str(n)] for n in range(2, 13)]
    lines += [["enumerate-basic", "-p", str(p)] for p in range(0, -13, -2)]
    lines += [["counts"]]
    for text in inputs.pinned_arrangements():
        lines += [["decompose", text], ["connect", text], ["connect", text, "--latex"]]
    shapes = sorted(op["shape"] for op in inputs.matrix_mc(1)[0])
    lines += [["mc-demo", s, "--seed", "0"] for s in shapes]
    lines += [["mc-demo", s, "--seed", "0"]
              for s in inputs.PUBLISHED["rigid_table_to_order_7"] if s not in shapes]
    lines += [["analyze", "21,111"], ["reduce", "2x,11"],
              ["enumerate-rigid", "-n", "1"], ["decompose", "21,21,21"],
              ["connect", "11,11"], ["frobnicate"]]
    # trivial partitions (n), which parse drops, and text with no other row
    lines += [["analyze", "111,111,21,3"], ["reduce", "22,22,1111,4"],
              ["decompose", "11,11,11,2"], ["connect", "111,111,21,3", "--pins", "3", "3"],
              ["mc-demo", "11,11,11,2", "--seed", "0"], ["diagram", "33,222,111111,6"],
              ["analyze", "1,1,1"], ["analyze", "3,4"]]
    lines = [argv + extra for argv in lines for extra in ([], ["--json"])]
    # seed 1 in JSON only: the JSON payload holds everything the text shows,
    # and each construction costs about 0.4 s
    return lines + [["mc-demo", s, "--seed", "1", "--json"] for s in shapes]


def main():
    cases = []
    for argv in command_lines():
        sha, code = run_case(argv)
        cases.append({"argv": argv, "sha256": sha, "exit": code})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=0) + "\n")
    print("%d cases written to %s" % (len(cases), GOLDEN))


if __name__ == "__main__":
    main()
