"""The README's Python code runs: every fenced ```python block, in order,
in one namespace; and every name its entry-point paragraph lists exists."""

import re
from functools import reduce
from pathlib import Path

import fracschrod
from fracschrod.cli import CONFIG_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
ENTRY_POINTS = re.search(r"^Measurement-side entry points.*?\n\n", README.read_text(),
                         re.M | re.S)
KEYS = re.search(r"^Top-level config keys: (.*?)\.  ", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_python_blocks_run():
    namespace = {"__name__": "readme"}
    for k, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md block {k}", "exec"), namespace)


def test_readme_entry_points_resolve():
    # a deleted entry point must not outlive its docs: each backquoted name
    # is an attribute of fracschrod, or of one of its modules
    names = re.findall(r"`([^`]+)`", ENTRY_POINTS.group(0))
    assert "dn_map" in names
    missing = [name for name in names
               if reduce(lambda obj, attr: getattr(obj, attr, None),
                         name.split("."), fracschrod) is None]
    assert missing == []


def test_readme_config_keys_are_the_cli_keys():
    # the README lists each top-level key the CLI accepts, and no other
    names = re.findall(r"`([^`]+)`", KEYS.group(1))
    assert len(names) == len(set(names))
    assert set(names) == CONFIG_KEYS
