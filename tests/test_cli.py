import io
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import midconv
from midconv.cli import _json_text, main
from midconv.linalg import LinAlgError
from midconv.matrixmc import MatrixTuple, construct_rigid_random, joint_centralizer_dim
from midconv.spectype import canonicalize, parse


def _load_schemas():
    store = {}
    for entry in resources.files("midconv.schemas").iterdir():
        if entry.name.endswith(".schema.json"):
            data = json.loads(entry.read_text())
            store[data["$id"]] = data
    return store


SCHEMAS = _load_schemas()
REGISTRY = Registry().with_resources(
    (sid, Resource.from_contents(s)) for sid, s in SCHEMAS.items()
)


def validate(instance, schema_id):
    Draft202012Validator(SCHEMAS[schema_id], registry=REGISTRY).validate(instance)


def run(capsys, *argv, stdin=""):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        code = main(list(argv))
    finally:
        sys.stdin = old
    out = capsys.readouterr().out
    return code, out


class _Pair(NamedTuple):
    left: object
    right: object


# quotes, backslashes, control characters, non-ASCII digits and letters,
# a character beyond the BMP (escaped as a surrogate pair) and a lone surrogate
_CHARS = 'ab 0\'"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u0663\u0967\u2028\U0001f600\ud800'


def _random_text(rng, longest):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(longest + 1)))


def _random_json_tree(rng, depth):
    kind = rng.randrange(10 if depth else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, 1, -1, 2**63, 2**64 + 1, -(2**70), rng.randint(-99, 99)])
    if kind == 2:
        return _random_text(rng, 5)
    if kind in (3, 4):
        # lists of ints alone, with bools among them, or empty
        ints = [rng.randint(-5, 2**65) for _ in range(rng.randrange(5))]
        if kind == 4 and ints:
            ints[rng.randrange(len(ints))] = rng.choice([True, False])
        return ints if rng.random() < 0.7 else tuple(ints)
    if kind == 5:
        return _Pair(*(_random_json_tree(rng, depth - 1) for _ in range(2)))
    items = [_random_json_tree(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return tuple(items)
    if kind in (7, 8):
        return items
    return {_random_text(rng, 3): x for x in items}


def test_json_text_matches_json_dumps_indent_2():
    rng = random.Random(25)
    for _ in range(3000):
        tree = _random_json_tree(rng, rng.randrange(5))
        assert _json_text(tree) == json.dumps(tree, indent=2), tree
    for tree in ([], {}, [[], {}], {"a": [{}]}, [[[]]], [True, 1, False, 0], "\u0663"):
        assert _json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("bad", [1.5, {1, 2}, {1: "a"}, [0, 0.5], {"a": {(1,): 0}}])
def test_json_text_rejects_other_types(bad):
    with pytest.raises(TypeError):
        _json_text(bad)


def test_analyze_rigid(capsys):
    code, out = run(capsys, "analyze", "411,411,42,33")
    assert code == 0
    assert "rigid" in out
    assert "d=3" in out and "d=1" in out


def test_analyze_not_realizable_exit_two(capsys):
    code, out = run(capsys, "analyze", "22,22,1111")
    assert code == 2
    assert "not realizable at 21,21,111" in out


def test_analyze_json_schema(capsys):
    code, out = run(capsys, "analyze", "211,211,1111", "--json")
    assert code == 0
    data = json.loads(out)
    validate(data, "urn:midconv:analyze")
    assert data[0]["classification"]["irreducibly_realizable"]


def test_analyze_stdin_batch(capsys):
    code, out = run(
        capsys, "analyze", "-", stdin="11,11,11\n22,22,1111\n"
    )
    assert code == 2
    assert "rigid" in out


def test_reduce_json_schema(capsys):
    code, out = run(capsys, "reduce", "411,411,42,33", "--json")
    assert code == 0
    validate(json.loads(out), "urn:midconv:reduction_trace")


def test_enumerate_rigid_lines_reparse(capsys):
    code, out = run(capsys, "enumerate-rigid", "-n", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if re.match(r"^\d+:", l)]
    assert len(lines) == 6
    for line in lines:
        n, text = line.split(":")
        m = parse(text)
        assert m.order == int(n)
        assert canonicalize(m) == m


def test_enumerate_rigid_json_schema(capsys):
    code, out = run(capsys, "enumerate-rigid", "-n", "4", "--json")
    validate(json.loads(out), "urn:midconv:enumeration_report")


def test_enumerate_basic(capsys):
    code, out = run(capsys, "enumerate-basic", "-p", "-2")
    assert code == 0
    lines = [l for l in out.splitlines() if re.match(r"^\d+:", l)]
    assert len(lines) == 13
    code, out = run(capsys, "enumerate-basic", "-p", "0", "--json")
    validate(json.loads(out), "urn:midconv:enumeration_report")


def test_counts_json(capsys):
    code, out = run(capsys, "counts", "--max-order", "3", "--max-index", "0", "--json")
    assert code == 0
    data = json.loads(out)
    validate(data, "urn:midconv:counts")
    assert data["rigid"] == [[2, 1, 1], [3, 1, 2]]


def test_decompose(capsys):
    code, out = run(capsys, "decompose", "11,11,11")
    assert code == 0
    assert "2 decompositions" in out
    code, out = run(capsys, "decompose", "1111,211,22", "--json")
    data = json.loads(out)
    validate(data, "urn:midconv:decompositions")
    assert len(data) == 5


def test_connect(capsys):
    code, out = run(capsys, "connect", "11,11,11")
    assert code == 0
    assert out.count("G(") == 4
    code, out = run(capsys, "connect", "11,11,11", "--latex")
    assert "\\Gamma" in out
    code, out = run(capsys, "connect", "11,11,11", "--json")
    validate(json.loads(out), "urn:midconv:gamma_formula")


def test_pin_outside_the_row_exits_one(capsys):
    for verb in ("decompose", "connect"):
        code, out = run(capsys, verb, "1111,211,22", "--pins", "0", "3")
        assert code == 1
        assert out == ""


def test_mc_demo(capsys):
    code, out = run(capsys, "mc-demo", "11,11,11", "--seed", "7")
    assert code == 0
    assert "idx=2" in out and "dim Z=1" in out
    code, out = run(capsys, "mc-demo", "11,11,11", "--seed", "7", "--json")
    validate(json.loads(out), "urn:midconv:mc_demo")
    code, _ = run(capsys, "mc-demo", "211,211,1111", "--seed", "1")
    assert code == 2


def test_mc_demo_past_the_centralizer_bound_exits_zero(capsys):
    # a constructed tuple is irreducible by construction, so dim Z = 1 needs
    # no dense centralizer computation and the bound of 12 does not apply
    code, out = run(capsys, "mc-demo", "1111111111111,1111111111111,12 1")
    assert code == 0
    assert out.startswith("shape ") and "realized in size 13\n" in out
    assert out.splitlines()[-1].startswith("idx=2 dim Z=1 ")
    # the same matrices without the fact still meet the bound
    _, at = construct_rigid_random(parse("1111111111111,1111111111111,12 1"),
                                   random.Random(0))
    assert "irreducible" in at._facts
    with pytest.raises(LinAlgError, match="^size 13 exceeds bound 12$"):
        joint_centralizer_dim(MatrixTuple(at.matrices))


def test_diagram(capsys):
    code, out = run(capsys, "diagram", "11,11,11,11")
    assert code == 0
    assert out.splitlines()[2].strip() == "1 - 2 - 1"
    code, out = run(capsys, "diagram", "33,222,111111")
    assert "2 - 4 - 6 - 5 - 4 - 3 - 2 - 1" in out
    code, out = run(capsys, "diagram", "1")
    assert code == 0
    code, out = run(capsys, "diagram", "11,11,11,11", "--dot")
    assert out.startswith("graph")


def test_usage_and_parse_errors(capsys):
    assert main(["analyze"]) == 1
    assert main(["analyze", "11,111"]) == 1
    assert main(["enumerate-rigid", "-n", "99"]) == 1


def test_root_vector_schema_standalone():
    from midconv.rootlattice import root_of

    validate(root_of(parse("11,11,11")).to_json(), "urn:midconv:root_vector")


COLD_IMPORT = """
import math
import sys

import midconv, midconv.cli

loaded = sorted({"sympy", "numpy", "dataclasses", "multiprocessing"} & set(sys.modules))
if loaded:
    sys.exit("loaded on import: %s" % loaded)
from midconv.connection import series_limit_oracle

got = series_limit_oracle((0.5, 0.25), (0.5, 0.25))
if abs(got - 1.0) > 1e-9:
    sys.exit("oracle gave %r" % got)
print("ok")
"""


def test_cold_import_loads_no_sympy_numpy_dataclasses_or_multiprocessing():
    src = str(Path(midconv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "ok"
