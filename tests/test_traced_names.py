"""Every name the benchmark's tracer patches exists in midconv.

``perfbench/tracing.py`` rebinds functions by module and attribute name and
patches ``RationalMatrix`` methods by name, so a rename in ``src/`` would
otherwise show only when a traced benchmark run fails.  Its tables are read
from the source with ``ast``; perfbench is not imported.
"""

import ast
import importlib
from pathlib import Path

from midconv.linalg import RationalMatrix

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TABLES = ("SPANS", "MATRIX_SPANS", "COUNTED")


def test_traced_names_resolve():
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(TRACING.read_text()).body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in TABLES
    }
    assert set(tables) == set(TABLES)
    missing = [
        (module, attr)
        for module, attr, _ in tables["SPANS"] + tables["COUNTED"]
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    missing += [
        ("RationalMatrix", attr)
        for attr, _ in tables["MATRIX_SPANS"]
        if not callable(getattr(RationalMatrix, attr, None))
    ]
    assert missing == []
