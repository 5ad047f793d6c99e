"""Command-line front end.

Verbs: analyze, reduce, enumerate-rigid, enumerate-basic, decompose,
connect, mc-demo, diagram, counts.  Exit codes: 0 success, 1 usage error,
2 domain-negative verdict (e.g. a tuple that is not irreducibly
realizable), so pipelines can filter on realizability.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import diagram as diagram_mod
from .connection import RiemannScheme, connection_formula, rigid_decompositions
from .enumeration import EnumerationError, count_table, enumerate_basic, enumerate_rigid
from .katz import SchemeError, Verdict, classify, reduce as katz_reduce
from .linalg import LinAlgError
from .matrixmc import (
    DegenerateSchemeError,
    construct_rigid_random,
    orbit_dims,
    tuple_spectral_data,
)
from .spectype import SpectralTypeError, canonicalize, gcd_of, idx, parse, pidx, to_text


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _inputs(value, stdin):
    """Tuple arguments; '-' reads one tuple per line from stdin."""
    if value == "-":
        return [line.strip() for line in stdin if line.strip()]
    return [value]


def _json_text(obj, pad="\n"):
    """``json.dumps(obj, indent=2)``, byte for byte, on the types midconv
    emits: dicts with str keys, lists, tuples, str, int, bool and None.

    The stdlib writes indented JSON with its pure-Python encoder; this one
    prints a list of plain ints (no bools) with one join, and partitions
    are most of every payload.  ``pad`` is the newline and indentation
    before a closing bracket.  Anything else raises ``TypeError``.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            items.append(_quote(key) + ": " + _json_text(value, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(
        "Object of type %s is not JSON serializable" % type(obj).__name__
    )


def _trace_lines(trace):
    lines = []
    for step in trace.steps:
        out = to_text(step.out) if step.out is not None else "x"
        lines.append(
            "%s --[d=%d at %s]--> %s"
            % (to_text(step.m), step.d, ",".join(map(str, step.ells)), out)
        )
    lines.append("verdict: %s (terminal %s)" % (trace.verdict.value, trace.terminal))
    return lines


def cmd_analyze(args, out, stdin):
    worst = 0
    records = []
    for text in _inputs(args.tuple, stdin):
        trace = katz_reduce(parse(text))
        m = trace.start
        record = {
            "input": text,
            "canonical": m.as_lists(),
            "order": m.order,
            "idx": idx(m),
            "pidx": pidx(m),
            "gcd": gcd_of(m),
            "classification": classify(m, trace).to_json(),
            "trace": trace.to_json(),
        }
        if trace.verdict is Verdict.NOT_REALIZABLE:
            worst = 2
        if args.json:
            records.append(record)
            continue
        cls = record["classification"]
        flags = ", ".join(k for k, v in cls.items() if v) or "none"
        out.write("%s: ord=%d idx=%d pidx=%d gcd=%d\n" % (
            to_text(m), m.order, record["idx"], record["pidx"], record["gcd"]))
        out.write("  properties: %s\n" % flags)
        for line in _trace_lines(trace):
            out.write("  %s\n" % line)
        if trace.verdict is Verdict.NOT_REALIZABLE:
            fail = trace.steps[-1].m
            out.write("  not realizable at %s\n" % to_text(fail))
    if args.json:
        out.write(_json_text(records) + "\n")
    return worst


def cmd_reduce(args, out, stdin):
    worst = 0
    for text in _inputs(args.tuple, stdin):
        trace = katz_reduce(parse(text))
        if args.json:
            out.write(json.dumps(trace.to_json()) + "\n")
        else:
            for line in _trace_lines(trace):
                out.write(line + "\n")
        if trace.verdict is Verdict.NOT_REALIZABLE:
            worst = 2
    return worst


def _report_out(report, args, out):
    if args.json:
        out.write(_json_text(report.to_json()) + "\n")
    else:
        for line in report.to_lines():
            out.write(line + "\n")
        out.write(
            "total %d; by partition count %s\n"
            % (report.total, dict(report.by_npart))
        )
    return 0


def cmd_enumerate_rigid(args, out, stdin):
    report = enumerate_rigid(args.order, max_order=args.max_order)
    return _report_out(report, args, out)


def cmd_enumerate_basic(args, out, stdin):
    report = enumerate_basic(args.index)
    return _report_out(report, args, out)


def cmd_counts(args, out, stdin):
    table = count_table(args.max_order, args.max_index)
    if args.json:
        out.write(_json_text(table) + "\n")
        return 0
    out.write("order  #triples  #classes\n")
    for n, triples, total in table["rigid"]:
        out.write("%5d  %8d  %8d\n" % (n, triples, total))
    out.write("index  #classes  #triples  #4-tuples\n")
    for p, total, triples, quads in table["basic"]:
        out.write("%5d  %8d  %8d  %9d\n" % (p, total, triples, quads))
    return 0


def cmd_decompose(args, out, stdin):
    m = parse(args.tuple)
    pins = args.pins or [None, None]
    decs = rigid_decompositions(m, pins[0], pins[1])
    if args.json:
        out.write(_json_text([[a.as_lists(), b.as_lists()] for a, b in decs]) + "\n")
        return 0
    for a, b in decs:
        out.write("%s + %s\n" % (to_text(a), to_text(b)))
    out.write("%d decompositions\n" % len(decs))
    return 0


def cmd_connect(args, out, stdin):
    m = parse(args.tuple)
    scheme = RiemannScheme.generic(m)
    pins = args.pins or [None, None]
    formula = connection_formula(scheme, pins[0], pins[1])
    if args.json:
        out.write(_json_text(formula.to_json()) + "\n")
    elif args.latex:
        out.write(formula.to_latex() + "\n")
    else:
        out.write(str(formula) + "\n")
    return 0


def cmd_mc_demo(args, out, stdin):
    m = parse(args.tuple)
    rng = random.Random(args.seed)
    try:
        scheme, at = construct_rigid_random(m, rng)
    except DegenerateSchemeError as exc:
        out.write("cannot construct: %s\n" % exc)
        return 2
    dims = orbit_dims(at)
    if args.json:
        payload = {
            "shape": scheme.shape.as_lists(),
            "eigenvalues": [
                [str(e.const) for e in row] for row in scheme.eigenvalues
            ],
            "matrices": at.to_json(),
            "orbit": dims.to_json(),
            "spectral_data": [d.to_json() for d in tuple_spectral_data(at)],
        }
        out.write(_json_text(payload) + "\n")
        return 0
    out.write("shape %s realized in size %d\n" % (to_text(scheme.shape), at.size))
    for j, mat in enumerate(at.matrices):
        out.write("A_%d:\n" % j)
        for row in mat.rows:
            out.write("  [%s]\n" % "  ".join(str(x) for x in row))
    out.write(
        "idx=%d dim Z=%d (rigid irreducible: orbit gap %d)\n"
        % (
            dims.index,
            dims.dim_centralizer,
            dims.dim_classes_orbit - dims.dim_conj_orbit,
        )
    )
    return 0


def cmd_diagram(args, out, stdin):
    for text in _inputs(args.tuple, stdin):
        m = canonicalize(parse(text))
        if args.dot:
            out.write(diagram_mod.render_dot(m) + "\n")
        else:
            out.write(diagram_mod.render_diagram(m) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="midconv", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="JSON output")
        return p

    p = add("analyze", cmd_analyze, help="classify a tuple and show its reduction")
    p.add_argument("tuple", help="spectral type, or - for one per stdin line")

    p = add("reduce", cmd_reduce, help="print the reduction chain")
    p.add_argument("tuple")

    p = add("enumerate-rigid", cmd_enumerate_rigid, help="all rigid classes of an order")
    p.add_argument("-n", "--order", type=int, required=True)
    p.add_argument("--max-order", type=int, default=14)

    p = add("enumerate-basic", cmd_enumerate_basic, help="all basic classes of an index")
    p.add_argument("-p", "--index", type=int, required=True)

    p = add("counts", cmd_counts, help="count tables for rigid and basic classes")
    p.add_argument("--max-order", type=int, default=8)
    p.add_argument("--max-index", type=int, default=-2)

    p = add("decompose", cmd_decompose, help="pinned rigid decompositions")
    p.add_argument("tuple")
    p.add_argument("--pins", type=int, nargs=2, metavar=("PIN0", "PIN1"))

    p = add("connect", cmd_connect, help="gamma-product connection coefficient")
    p.add_argument("tuple")
    p.add_argument("--pins", type=int, nargs=2, metavar=("PIN0", "PIN1"))
    p.add_argument("--latex", action="store_true")

    p = add("mc-demo", cmd_mc_demo, help="construct a rigid tuple by middle convolutions")
    p.add_argument("tuple")
    p.add_argument("--seed", type=int, default=0)

    p = add("diagram", cmd_diagram, help="star diagram of a tuple")
    p.add_argument("tuple")
    p.add_argument("--dot", action="store_true", help="DOT output")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, sys.stdout, sys.stdin)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (SpectralTypeError, SchemeError, EnumerationError, LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
