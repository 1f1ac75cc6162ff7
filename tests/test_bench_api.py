"""The benchmark under bench/ uses only names the package still has.

bench/test_bench.py, which runs the benchmark, is outside this suite, so a
renamed or deleted public name would first fail there.  These checks read
bench/*.py as syntax trees and import nothing from bench/.
"""

import ast
import importlib
from pathlib import Path

import fracschrod

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_bench_names_resolve():
    checked = []
    for path in sorted(BENCH.glob("*.py")):
        tree = _tree(path)
        # the local names bound to the package by `import fracschrod [as fs]`
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for a in node.names if a.name == "fracschrod"}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                assert hasattr(fracschrod, node.attr), \
                    f"{where} uses fracschrod.{node.attr}"
                checked.append(node.attr)
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "fracschrod"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), \
                        f"{where} imports {alias.name} from {node.module}"
                    checked.append(alias.name)
    # the workloads reach the package through `fs.` and three direct imports
    assert {"build_grid", "assemble", "write_csv", "trace_to_csv"} <= set(checked)


def test_traced_modules_import():
    tree = _tree(BENCH / "tracer.py")
    assigned = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED_MODULES" for t in node.targets)]
    assert len(assigned) == 1
    modules = ast.literal_eval(assigned[0])
    assert modules
    for name in modules:
        importlib.import_module(f"fracschrod.{name}")
