"""errors._number and errors._values, the readers of outside numbers and
arrays, and their callers.

The drift guards read src/fracschrod/*.py as syntax trees: the primitives
_finite_real and _finite_integer are used only in errors.py and by
grid.build_grid (which raises its own NonFiniteGrid), cli.py reads its
numbers with the library's _number rather than a reader of its own, and a
finiteness test outside errors.py checks internal state, not an argument.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from fracschrod.errors import (GridMismatch, NonFiniteSample, ToolkitError, Validation,
                               _number, _values)

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


@pytest.mark.parametrize("values, want", [
    ([1, 2, 3], [1.0, 2.0, 3.0]),                            # integers are converted
    (np.arange(3, dtype=np.int32), [0.0, 1.0, 2.0]),
    (np.array([0.5, 1.5, 2.5], dtype=np.float32), [0.5, 1.5, 2.5]),
    ([0.25, -1.0, 1e300], [0.25, -1.0, 1e300]),              # a list of floats
])
def test_values_reads(values, want):
    got = _values(values, "key", (3,))
    assert got.dtype == np.float64 and got.tolist() == want


def test_values_keeps_a_float64_array_and_a_signed_zero():
    arr = np.array([0.0, 1.0])
    assert _values(arr, "key", (2,)) is arr
    zero = _values([-0.0], "key", (1,), low=0)
    assert zero.tobytes() == np.array([-0.0]).tobytes()
    assert _values([2.0, 1.0], "key", (None,)).shape == (2,)


@pytest.mark.parametrize("values, shape, low, error, match", [
    (0.1, (None,), None, Validation, r"^key must be a 1-D array, got shape \(\)$"),
    ([[1.0, 2.0]], (2,), None, Validation, "1-D array"),
    ([1.0, 2.0], (3,), None, GridMismatch, r"shape \(3,\), got \(2,\)"),
    (np.zeros((2, 3)), (2, 2), None, GridMismatch, "shape"),
    (["1", "2"], (2,), None, Validation, r"dtype <U1: key\[0\] = '1'"),
    ([b"1"], (1,), None, Validation, "real numbers"),
    ([True, False], (2,), None, Validation, r"key\[0\] = True"),
    ([1 + 0j], (1,), None, Validation, "complex"),
    ([1.0, None], (2,), None, Validation, "object"),
    ([[1.0], [1.0, 2.0]], (2,), None, Validation, "real numbers"),   # ragged
    ([0.0, np.nan], (2,), None, Validation, r"non-finite entry: key\[1\] = nan"),
    ([np.inf], (1,), None, Validation, "non-finite"),
    ([[0.0, 1.0], [-np.inf, 0.0]], (2, 2), None, Validation, r"key\[1, 0\] = -inf"),
    ([0.0, -1e-300], (2,), 0, Validation, r">= 0, got key\[1\] = -1e-300"),
])
def test_values_refuses(values, shape, low, error, match):
    with pytest.raises(error, match=match):
        _values(values, "key", shape, low)


def test_values_raises_the_callers_class_for_a_non_finite_entry():
    with pytest.raises(NonFiniteSample, match="field"):
        _values([1.0, np.nan], "field", (2,), nonfinite=NonFiniteSample)
    with pytest.raises(Validation):     # a bad kind stays Validation
        _values(["x", "y"], "field", (2,), nonfinite=NonFiniteSample)


# the functions that may test finiteness themselves: the two readers, and
# checks of internal state (a factor's diagonal and right-hand side, Newton's
# iterate, a sampled function, the conditions' verdicts) or of JSON literals
FINITENESS_TESTS = {("errors.py", "_finite_real"), ("errors.py", "_values"),
                    ("solver.py", "_factor_system"), ("solver.py", "_solve"),
                    ("solver.py", "solve_semilinear"), ("grid.py", "sample_function"),
                    ("nonlinearity.py", "check_conditions"),
                    ("cli.py", "_finite"), ("cli.py", "_integer")}


def test_arrays_are_tested_for_finiteness_only_by_the_reader_and_state_checks():
    users = set()
    for path in sorted(SRC.glob("*.py")):
        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.Attribute) and child.attr == "isfinite"
                        or isinstance(child, ast.Name) and child.id == "isfinite"):
                    users.add((path.name, scope))
                visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

        visit(ast.parse(path.read_text(), filename=str(path)), None)
    assert users <= FINITENESS_TESTS, f"read arrays with errors._values: {users - FINITENESS_TESTS}"
