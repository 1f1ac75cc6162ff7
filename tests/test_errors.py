"""errors._number, the one reader of outside numbers, and its callers.

The drift guard reads src/fracschrod/*.py as syntax trees: the primitives
_finite_real and _finite_integer are used only in errors.py and by
grid.build_grid (which raises its own NonFiniteGrid), and cli.py reads its
numbers with the library's _number rather than a reader of its own.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from fracschrod.errors import ToolkitError, Validation, _number

SRC = Path(__file__).resolve().parent.parent / "src" / "fracschrod"
PRIMITIVES = {"_finite_real", "_finite_integer"}


@pytest.mark.parametrize("value, low, integer, want", [
    (0.5, None, False, 0.5),
    (np.float64(-2.5), None, False, -2.5),
    (3, 3, False, 3.0),          # the lower bound is inclusive
    (0.0, 0, False, 0.0),
    (2.0, None, True, 2),        # an integral float reads as an int
    (np.int64(7), 1, True, 7),
    (10**300, None, False, 1e300),
])
def test_number_reads(value, low, integer, want):
    got = _number(value, "key", low, integer)
    assert got == want and type(got) is (int if integer else float)


@pytest.mark.parametrize("value, low, integer", [
    (True, None, False), (False, None, True),       # bools are not numbers
    ("1", None, False), ("2", None, True), (None, None, False),
    ([1.0], None, False), (np.array(1.0), None, False), (1 + 0j, None, False),
    (float("nan"), None, False), (float("inf"), None, False), (-np.inf, 0, False),
    (10**400, None, False), (10**400, None, True),  # beyond the float range
    (2.5, None, True), (-1e-300, 0, False), (0, 1, True), (-1, 0, True),
])
def test_number_refuses(value, low, integer):
    with pytest.raises(Validation, match=r"^config x\.y must be "):
        _number(value, "config x.y", low, integer)


def test_validation_is_a_toolkit_error_and_a_value_error():
    with pytest.raises(ValueError, match=r"^key must be an integer >= 1, got 0\.5$") as info:
        _number(0.5, "key", 1, integer=True)
    assert isinstance(info.value, Validation) and isinstance(info.value, ToolkitError)


def _uses(tree):
    """(enclosing function, name) for every load of a primitive's name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id in PRIMITIVES:
                found.append((scope, child.id))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

    visit(tree, None)
    return found


def test_primitives_are_used_only_by_errors_and_build_grid():
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for scope, name in _uses(ast.parse(path.read_text(), filename=str(path))):
            users.add((path.name, scope if path.name != "errors.py" else "errors"))
    assert users == {("errors.py", "errors"), ("grid.py", "build_grid")}


def test_cli_defines_no_number_reader():
    tree = ast.parse((SRC / "cli.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_number" not in defined
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "errors" for alias in node.names}
    assert "_number" in imported and not imported & PRIMITIVES
