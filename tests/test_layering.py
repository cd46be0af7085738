"""The package's modules import each other only at module top, so an import
cycle between them fails at import time instead of hiding in a function."""

import ast
from pathlib import Path

import ddjump

SRC = Path(ddjump.__file__).parent


def _function_imports(tree):
    """(line, module) of every import inside a function body."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    yield node.lineno, "." * node.level + (node.module or "")
                elif isinstance(node, ast.Import):
                    yield from ((node.lineno, a.name) for a in node.names)


def test_no_package_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for line, module in _function_imports(ast.parse(path.read_text())):
            if module.startswith(".") or module.split(".")[0] == "ddjump":
                found.append(f"{path.name}:{line} imports {module}")
    assert not found, found


def test_the_guard_sees_a_function_import():
    src = "def f():\n    from .equilibrium import enumerate_ball\n    import scipy.stats\n"
    assert list(_function_imports(ast.parse(src))) == [(2, ".equilibrium"), (3, "scipy.stats")]
