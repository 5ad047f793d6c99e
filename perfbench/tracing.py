"""Spans and counters recorded around calls into midconv's layers.

Nothing inside ``src/`` is changed.  ``install`` rebinds each traced
function wherever a midconv module holds a reference to it, and
patches ``RationalMatrix`` methods on the class; ``uninstall`` puts the
originals back.  A span is (name, start, end, parent span, operation id);
spans are kept in flat arrays in memory and written out once at the end.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# Functions recorded as spans: (module, attribute, span name).
SPANS = (
    ("midconv.katz", "reduce", "katz.reduce"),
    ("midconv.katz", "classify", "katz.classify"),
    ("midconv.spectype", "canonicalize", "spectype.canonicalize"),
    ("midconv.rootlattice", "classify_root", "rootlattice.classify_root"),
    ("midconv.connection", "rigid_decompositions", "connection.rigid_decompositions"),
    ("midconv.connection", "connection_formula", "connection.connection_formula"),
    ("midconv.connection", "evaluate", "connection.evaluate"),
    ("midconv.matrixmc", "rational_eigenvalues", "matrixmc.rational_eigenvalues"),
    ("midconv.matrixmc", "middle_convolution", "matrixmc.middle_convolution"),
    ("midconv.matrixmc", "_quotient_tuple", "matrixmc.quotient"),
    ("midconv.matrixmc", "spectral_data_of", "matrixmc.spectral_data_of"),
    ("midconv.matrixmc", "orbit_dims", "matrixmc.orbit_dims"),
    ("midconv.enumeration", "_multisets", "enumeration.multisets"),
    ("midconv.enumeration", "_reduces_to_one", "enumeration.reduces_to_one"),
    ("midconv.enumeration", "_make_report", "enumeration.make_report"),
)

# RationalMatrix methods recorded as spans.
MATRIX_SPANS = (
    ("rank", "linalg.rank"),
    ("rref", "linalg.rref"),
    ("__matmul__", "linalg.matmul"),
    ("charpoly", "linalg.charpoly"),
    ("inverse", "linalg.inverse"),
)

# Functions only counted (called too often, or too cheap, for a span).
COUNTED = (
    ("midconv.rootlattice", "reflect", "rootlattice.reflect.calls"),
    ("midconv.connection", "_is_rigid_grid", "connection.rigid_grid.tests"),
    ("midconv.matrixmc", "construct_rigid", "matrixmc.construct.attempts"),
)

SPAN_METRICS = tuple(name for *_, name in SPANS + MATRIX_SPANS)

COUNT_METRICS = (
    "katz.reduce.steps", "rootlattice.reflect.calls",
    "connection.rigid_grid.tests", "connection.rigid_grid.accepted",
    "linalg.matmul.scalar_mults", "linalg.max_entry_bits",
    "matrixmc.construct.attempts", "matrixmc.construct.accepted",
    "enumeration.candidates", "enumeration.classes",
)


def _entry_bits(tup):
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        for m in tup.matrices for row in m.rows for x in row
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------
    def span(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, op, stack = (
            self.name_of, self.start, self.end, self.parent, self.op, self.stack
        )
        now = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0)
            stack.append(sid)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = now()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name, fn, after=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return counted

    # -- patching ---------------------------------------------------------
    def _rebind(self, original, replacement):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "midconv" or name.startswith("midconv.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        from midconv.linalg import RationalMatrix

        counts = self.counts

        def steps(args, trace):
            counts["katz.reduce.steps"] += len(trace.steps)

        def candidates(args, combos):
            counts["enumeration.candidates"] += len(combos)

        def classes(args, report):
            counts["enumeration.classes"] += report.total

        def grid(args, ok):
            counts["connection.rigid_grid.accepted"] += bool(ok)

        def constructed(args, tup):
            counts["matrixmc.construct.accepted"] += 1
            bits = _entry_bits(tup)
            if bits > counts["linalg.max_entry_bits"]:
                counts["linalg.max_entry_bits"] = bits

        def mults(args, result):
            a, b = args
            counts["linalg.matmul.scalar_mults"] += a.nrows * a.ncols * b.ncols

        after = {
            "katz.reduce": steps,
            "enumeration.multisets": candidates,
            "enumeration.make_report": classes,
            "connection.rigid_grid.tests": grid,
            "matrixmc.construct.attempts": constructed,
            "linalg.matmul": mults,
        }
        for module, attr, name in SPANS:
            fn = getattr(sys.modules[module], attr)
            self._rebind(fn, self.span(name, fn, after.get(name)))
        for module, attr, name in COUNTED:
            fn = getattr(sys.modules[module], attr)
            self._rebind(fn, self.counter(name, fn, after.get(name)))
        for attr, name in MATRIX_SPANS:
            fn = getattr(RationalMatrix, attr)
            setattr(RationalMatrix, attr, self.span(name, fn, after.get(name)))
            self._undo.append((RationalMatrix, attr, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------
    def metrics(self):
        """Calls and self time (ms) per span name, plus the counters."""
        n = len(self.start)
        covered = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = Counter()
        self_ns = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_ns[name] += end[i] - start[i] - covered[i]
        out = {}
        for name in SPAN_METRICS:
            out[name + ".calls"] = calls[name]
            out[name + ".self_ms"] = self_ns[name] / 1e6
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        return out

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                f.write("[%d,%d,%d,%d,%d,%d]\n" % (
                    i, self.name_of[i], self.start[i], self.end[i],
                    self.parent[i], self.op[i],
                ))
