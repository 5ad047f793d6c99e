"""Checks that must survive ``python -O``, which strips ``assert``.

A step budget that runs out raises instead of giving a verdict, and broken
invariants raise typed errors; both are run here in a child interpreter
started with ``-O``.
"""

import os
import subprocess
import sys
from pathlib import Path

import midconv

SCRIPT = """
import sys
from fractions import Fraction
from midconv.katz import reflect_by_rigid
from midconv.linalg import RationalMatrix
from midconv.matrixmc import (
    MatrixTuple, SpectralData, _quotient_tuple, orbit_dims,
)
from midconv.rootlattice import StepBudgetError, classify_root, root_of
from midconv.spectype import InvariantError, parse

if __debug__:
    sys.exit("not running under -O")
try:
    classify_root(root_of(parse("411,411,42,33")), max_steps=2)
    sys.exit("budget exhausted without an error")
except StepBudgetError:
    pass
try:
    # 11,11,11,11 is not rigid, so the reflection cannot keep the index
    reflect_by_rigid(parse("21,111,111"), parse("11,11,11,11"), check=False)
    sys.exit("index change not detected")
except InvariantError:
    pass
try:
    # G_1 is the nilpotent Jordan block (k = 1, lam = 0): G_1 e_2 = e_1
    # leaves the span of e_2
    _quotient_tuple(RationalMatrix([[0, 1], [0, 0]]), Fraction(0), [(0, 1)])
    sys.exit("non-invariant subspace not detected")
except InvariantError:
    pass
try:
    # a Jordan pair claimed at size one makes the rigidity index odd
    at = MatrixTuple([RationalMatrix([[v]]) for v in (2, 3, -5)])
    at._facts["spectral"] = tuple(
        SpectralData(((Fraction(v), p),)) for v, p in ((2, (1, 1)), (3, (1,)), (-5, (1,)))
    )
    orbit_dims(at)
    sys.exit("inconsistent spectral data not detected")
except InvariantError:
    pass
print("ok")
"""


def test_budget_and_invariants_under_python_O():
    src = str(Path(midconv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "ok"
