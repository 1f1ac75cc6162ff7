"""The README's Python code runs: every fenced ```python block, in order,
in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_python_blocks_run():
    namespace = {"__name__": "readme"}
    for k, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md block {k}", "exec"), namespace)
