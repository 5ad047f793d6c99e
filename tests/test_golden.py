"""Golden corpus: the exact stdout bytes and exit code of every verb.

``tests/data/golden.json`` pins, for a fixed list of command lines, the
sha256 of what ``midconv`` writes to stdout and the exit code, in text and
``--json`` form.  The file is regenerated only when a change alters output on
purpose: ``python tests/make_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from midconv.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden.json"


def run_case(argv):
    """(sha256 of stdout, exit code) of one in-process ``midconv`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def test_golden_corpus():
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert len(cases) > 3000
    changed = []
    for case in cases:
        if run_case(case["argv"]) != (case["sha256"], case["exit"]):
            changed.append(" ".join(case["argv"]))
    assert not changed, "%d outputs changed, first: %s" % (len(changed), changed[:5])
