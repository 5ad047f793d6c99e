"""The ``python`` blocks of README.md run as one doctest, in order, so a
name imported in one block is seen by the next."""

import doctest
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, "README.md", str(README), 0
    )
    out = io.StringIO()
    runner = doctest.DocTestRunner()
    runner.run(test, out=out.write)
    assert runner.failures == 0, out.getvalue()
