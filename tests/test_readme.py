"""The README's Python examples run as written, in order, each in a fresh
namespace, so every example holds the imports it uses."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
