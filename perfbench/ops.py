"""One operation of each workload, made only of calls into midconv.

Every function takes one input made by ``inputs.py`` and returns the
program's output in a form the checks read.  Program functions are looked
up through their modules at call time, so the tracer's rebinding of a
module attribute is seen here as well.
"""

from __future__ import annotations

import argparse
import io
import json
import random
from fractions import Fraction

from midconv import cli, connection, enumeration, matrixmc, spectype


def analyze(text):
    """The ``analyze --json`` record of one spectral type."""
    out = io.StringIO()
    cli.cmd_analyze(argparse.Namespace(tuple=text, json=True), out, None)
    return out.getvalue()


def matrix_mc(inp):
    """The ``mc-demo --json`` payload, then a middle convolution at the
    eigenvalues of the first maximal columns and back."""
    shape = spectype.parse(inp["shape"])
    scheme, at = matrixmc.construct_rigid_random(shape, random.Random(inp["seed"]))
    payload = {
        "shape": scheme.shape.as_lists(),
        "eigenvalues": [[str(e.const) for e in row] for row in scheme.eigenvalues],
        "matrices": at.to_json(),
        "orbit": matrixmc.orbit_dims(at).to_json(),
        "spectral_data": [d.to_json() for d in matrixmc.tuple_spectral_data(at)],
    }
    table = scheme.constant_table()
    mu = tuple(lam[row.index(max(row))] for row, lam in zip(shape.partitions, table))
    forward = matrixmc.middle_convolution(at, mu)
    back = matrixmc.middle_convolution(forward, tuple(-x for x in mu))
    return json.dumps({
        "payload": payload,
        "mu": [str(x) for x in mu],
        "forward": forward.to_json(),
        "back": back.to_json(),
    })


def decompose_connect(inp):
    """Pinned rigid decompositions, the gamma-product formula of the
    generic scheme, and its value at the input's assignment."""
    m = spectype.parse(inp["tuple"])
    decs = connection.rigid_decompositions(m)
    formula = connection.connection_formula(connection.RiemannScheme.generic(m))
    assignment = {k: Fraction(v) for k, v in inp["assignment"].items()}
    value = connection.evaluate(formula, assignment)
    return json.dumps({
        "decompositions": [[a.as_lists(), b.as_lists()] for a, b in decs],
        "formula": formula.to_json(),
        "value": value,
    })


def enumerate_sweep(inp):
    """The serial library calls behind ``midconv counts``: rigid classes of
    every order and basic classes of every index in the input."""
    top = max(inp["rigid_orders"])
    return {
        "rigid": [enumeration.enumerate_rigid(n, max_order=top) for n in inp["rigid_orders"]],
        "basic": [enumeration.enumerate_basic(p) for p in inp["basic_indices"]],
    }


def sweep_texts(output):
    """Class texts of an enumeration sweep, keyed by order and by index."""
    return {
        kind: {str(r.parameter): [line.split(":", 1)[1] for line in r.to_lines()] for r in reports}
        for kind, reports in output.items()
    }


OPS = {
    "classify-stream": analyze,
    "matrix-mc": matrix_mc,
    "decompose-connect": decompose_connect,
    "enumerate": enumerate_sweep,
}
