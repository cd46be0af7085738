"""The package's modules import each other only at module top, so an import
cycle between them fails at import time instead of hiding in a function.
scipy.sparse, by contrast, is imported only inside the functions that use it,
and scipy.stats not at all, so a run that solves no generator loads neither."""

import ast
import os
import subprocess
import sys
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


SIMULATION_ONLY = """
import sys
import numpy as np
import ddjump as dj
import ddjump.cli

m = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
cert = dj.certify(m, np.array([1.0, 1.0]), rho_fraction=0.5)
opts = dj.SimOptions(N=50, seed=1, horizon=1.0, record=(0.0, 0.5, 1.0))
dj.martingale_deviation(m, opts, np.array([50, 50]), T=1.0, reps=20, z_grid=(0.1, 0.5))
dj.exit_probability(m, cert, 50, 0.3, 0.6, T=0.2, reps=20, seed=1)
dj.coupled_ensemble(m, cert, opts, np.array([52, 51]), np.array([48, 49]), reps=4)
print(sorted(k for k in ("scipy.sparse", "scipy.stats") if k in sys.modules))
pi = dj.stationary_exact(m, 20, cert, 0.4)
print(len(pi), round(float(pi.mass.sum()), 12), "scipy.sparse" in sys.modules)
"""


def test_simulation_only_runs_load_no_sparse_or_stats_module():
    """Importing the CLI and running the martingale, exit and coupling
    experiments leaves scipy.sparse and scipy.stats unloaded; a stationary
    solve in the same process then loads scipy.sparse where it is used."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", SIMULATION_ONLY], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    loaded, solve = out.stdout.splitlines()
    assert loaded == "[]"
    states, total, sparse = solve.split()
    assert int(states) > 1 and float(total) == 1.0 and sparse == "True"
