"""The README's library example runs and prints what its comment says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    p, low, estimate, up = map(float, out.getvalue().split())
    assert abs(p - 0.0064) <= 1e-12
    assert low <= estimate <= up
