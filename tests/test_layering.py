"""The package's modules import each other only at module top, so an import
cycle between them fails at import time instead of hiding in a function.
scipy.sparse, by contrast, is imported only inside the functions that use it,
and scipy.special and scipy.stats not at all, so a run that solves no
generator loads none of them; a cutoff profile loads scipy.sparse for its
stationary solve, no other scipy module where the solve's class count
settles in one search, and nothing for its closed-form TV interval.

There are two hand-written samplers of jump paths, the batched engine and
the coupled-pair loop, and each reads its own random streams: only the
engine reads the ``PATH`` streams, and only ``simulate_coupled`` draws
scalar uniforms.  A third sampler fails the guard below.  Likewise, only the
engine reads the kernel's array rates, apart from ``certify``'s radius check,
and only the engine step asks the restriction ball jump by jump
(``Restriction.keeps``): the generator reads its held chain by membership in
the enumerated states, so the ball is not read a second time there.  Only
``simulate_path`` and ``stationary_empirical`` hand the engine a
restriction; every other simulator runs the free chain.

A start is checked by one function, ``engine.check_starts``: the engine
checks the starts of every chunk it runs, and only the functions that use a
start outside the engine or before it runs call it themselves, through
``engine.check_start`` where they take one start (the path, the coupled
pair and its ensemble, and the martingale bound's drift box), and directly
for the exit experiment's starts, which it checks even where no path runs.
A run's record grid and horizon are checked by one function too,
``engine.check_times``, called by the engine for every chunk and by
``SimOptions``; so ``equilibrium`` hands its grids to the engine as they are
and imports nothing from ``simulate``.  N is checked once, by
``engine.check_starts``, which every run meets before it uses N; so
``SimOptions`` does not check it.

There is one M-quadratic form, ``engine.m_form``: no ``einsum`` takes ``M``
as an operand and no ``a @ M @ b`` chain exists, so every M-norm rounds
alike.

The rate parser hands Python's parser a stand-in text and converts its tree;
``expr.py`` calls no ``eval``, ``exec``, ``compile`` or ``__import__``, so no
rate text is ever run."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import ddjump
from ddjump import rng
from ddjump.model import Kernel

SRC = Path(ddjump.__file__).parent


def _function_imports(tree, within=(ast.FunctionDef, ast.AsyncFunctionDef)):
    """(line, module) of every import inside a function body, or inside any
    other node type ``within`` names (``ast.Module``: every import)."""
    for fn in ast.walk(tree):
        if isinstance(fn, within):
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


def _special_or_stats_imports(tree):
    """(line, module) of every import of scipy.special or scipy.stats, at
    module top or in a function."""
    return sorted(
        (line, module)
        for line, module in _function_imports(tree, within=ast.Module)
        if module.split(".")[:2] in (["scipy", "special"], ["scipy", "stats"])
    )


def test_no_module_imports_scipy_special_or_stats():
    found = [
        f"{path.name}:{line} imports {module}"
        for path in sorted(SRC.glob("*.py"))
        for line, module in _special_or_stats_imports(ast.parse(path.read_text()))
    ]
    assert not found, found


def test_the_guard_sees_a_special_or_stats_import():
    src = (
        "import scipy.special\n"
        "from scipy.stats import beta\n"
        "import scipy.sparse.linalg as spla\n"
        "def lcb(c, n):\n"
        "    from scipy.special import betaincinv\n"
        "    import scipy.stats.distributions\n"
        "    return betaincinv(c, n - c + 1, 0.01)\n"
    )
    assert _special_or_stats_imports(ast.parse(src)) == [
        (1, "scipy.special"), (2, "scipy.stats"), (5, "scipy.special"), (6, "scipy.stats.distributions")
    ]


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
print(sorted(k for k in ("scipy.sparse", "scipy.special", "scipy.stats") if k in sys.modules))
pi = dj.stationary_exact(m, 20, cert, 0.4)
print(len(pi), round(float(pi.mass.sum()), 12), "scipy.sparse" in sys.modules)
"""


def test_simulation_only_runs_load_no_sparse_or_stats_module():
    """Importing the CLI and running the martingale, exit and coupling
    experiments leaves scipy.sparse, scipy.special and scipy.stats unloaded;
    a stationary solve in the same process then loads scipy.sparse where it
    is used."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", SIMULATION_ONLY], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    loaded, solve = out.stdout.splitlines()
    assert loaded == "[]"
    states, total, sparse = solve.split()
    assert int(states) > 1 and float(total) == 1.0 and sparse == "True"


DEFAULT_SOLVE = """
import sys
import numpy as np
import ddjump as dj
from ddjump.errors import ConvergenceError

m = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
cert = dj.certify(m, np.array([1.0, 1.0]), rho_fraction=0.5)
pi = dj.stationary_exact(m, 30, cert, 0.78)
print(len(pi), sorted(k for k in ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph") if k in sys.modules))
parity = dj.parse_model("[dimension]\\n1\\n[jumps]\\n2 : 1\\n-2 : x1\\n")
one = dj.StabilityCertificate(
    c=np.array([1.0]), A=-2.0 * np.eye(1), rho=1.0, M=np.eye(1), delta0=1.0, JstarM=1.0, sum_JM=1.0
)
try:
    dj.stationary_exact(parity, 10, one, 0.3)
except ConvergenceError as e:
    print(e)
"""


def test_a_default_stationary_solve_loads_no_scipy_module_but_sparse():
    """The power route's class count (a breadth-first search) and its GTH
    cross-check of a ball of at most 5000 states run in numpy: scipy.linalg,
    scipy.sparse.linalg and scipy.sparse.csgraph stay unloaded.  A chain the
    search does not settle, the parity walker's two classes, still has them
    counted."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", DEFAULT_SOLVE], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    solved, refused = out.stdout.splitlines()
    assert solved == "585 []"
    assert "the restricted chain has 2 closed communicating classes" in refused


def test_importing_the_cli_loads_no_random_module():
    """``rng`` makes its Philox key type on first use, so a run that draws
    no random number (a stationary solve, ``validate``) loads no
    numpy.random."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    src = "import sys\nimport ddjump.cli\nprint('numpy.random' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", src], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


SEPARATED_ONLY = """
import sys
import ddjump as dj

an = dj.classify_jumps([(1, 0), (0, 1)])
print(an.verdict, "scipy.optimize" in sys.modules)
"""


def test_separated_verdict_loads_no_optimize_module():
    """The separated test is exact integer arithmetic: it loads no LP
    solver."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", SEPARATED_ONLY], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "separated False"


CUTOFF_ONLY = """
import sys
import numpy as np
import ddjump as dj

m = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
cert = dj.certify(m, np.array([1.0, 1.0]), rho_fraction=0.5)
pi = dj.stationary_exact(m, 20, cert, 0.4)
prof = dj.cutoff_profile(m, cert, 20, (1.0, 1.0), (0.0, 2.0), 200, 0.4, pi, seed=1, workers=1)
print(len(prof.tv), sorted(k for k in ("scipy.special", "scipy.stats") if k in sys.modules))
"""


def test_cutoff_profile_loads_no_special_or_stats_module():
    """A cutoff profile's interval is closed-form: scoring its rows loads
    neither scipy.special nor scipy.stats."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", CUTOFF_ONLY], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "2 []"


def _rng_reads(tree, names=("uniforms", "PATH")):
    """(function, name) of every read of ``rng.<name>``, through the alias the
    module binds ``rng`` to, or of a bare import of the name from ``rng``;
    the function is the innermost one enclosing the read ("" at module top)."""
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and not node.module
        for a in node.names
        if a.name == "rng"
    }
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((fn, node.attr))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "rng":
            found.extend((fn, a.name) for a in node.names if a.name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "")
    return found


def test_only_the_engine_and_the_pair_loop_sample_paths():
    reads = {
        (path.name, fn, name)
        for path in sorted(SRC.glob("*.py"))
        for fn, name in _rng_reads(ast.parse(path.read_text()))
    }
    assert {r for r in reads if r[2] == "uniforms"} == {
        ("simulate.py", "simulate_coupled", "uniforms")
    }
    assert {r[0] for r in reads if r[2] == "PATH"} == {"engine.py"}
    assert not hasattr(rng, "OCCUPATION") and not hasattr(rng, "BOOTSTRAP")
    assert (rng.PATH, rng.COUPLED, rng.EXIT_START) == (0, 1, 4)


def test_the_guard_sees_a_third_sampler():
    src = (
        "from . import rng as r\nfrom .rng import PATH\n"
        "def walk(seed):\n    draw = r.uniforms(seed, 0, r.PATH)\n"
    )
    assert sorted(_rng_reads(ast.parse(src))) == [
        ("", "PATH"), ("walk", "PATH"), ("walk", "uniforms")
    ]


def _attribute_reads(tree, attr):
    """The innermost function ("" at module top) around every read of
    ``<expr>.<attr>``."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "")
    return found


def test_only_the_engine_and_the_radius_check_read_the_array_rates():
    """Rates on an array of lattice states come from the engine, which checks
    them (``engine.lattice_rates``); the radius check in ``certify`` reads
    the array form itself, because an invalid rate there fails a radius
    instead of raising.  The kernel's scalar form is its entries alone."""
    reads = {
        (path.name, fn)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "engine.py"
        for fn in _attribute_reads(ast.parse(path.read_text()), "rates_array")
    }
    assert reads == {("dynamics.py", "_ball_passes")}
    assert not {"rates", "grads"} & set(Kernel._fields)


def test_the_guard_sees_an_array_rate_read():
    src = "R = m.kernel.rates_array(Y)\ndef f(m):\n    return m.kernel.rates_array\n"
    assert _attribute_reads(ast.parse(src), "rates_array") == ["", "f"]


def test_only_the_engine_step_asks_the_ball_which_jumps_it_keeps():
    reads = {
        (path.name, fn)
        for path in sorted(SRC.glob("*.py"))
        for fn in _attribute_reads(ast.parse(path.read_text()), "keeps")
    }
    assert reads == {("engine.py", "simulate_chunk")}


def test_the_guard_sees_a_second_ball_reading():
    src = "def build_generator(m, N, states, ball):\n    return ball.keeps(states, m.jump_array)\n"
    assert _attribute_reads(ast.parse(src), "keeps") == ["build_generator"]


def _restricted_engine_calls(tree):
    """The innermost function ("" at module top) around every call of
    ``simulate_chunk`` or ``run_paths``, by name or attribute, that passes
    ``restriction=``."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("simulate_chunk", "run_paths") and any(k.arg == "restriction" for k in node.keywords):
                found.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "")
    return found


def test_only_the_path_and_the_sampled_stationary_law_run_a_restricted_chain():
    calls = {
        (path.name, fn)
        for path in sorted(SRC.glob("*.py"))
        for fn in _restricted_engine_calls(ast.parse(path.read_text()))
    }
    assert calls == {("simulate.py", "simulate_path"), ("equilibrium.py", "stationary_empirical")}
    assert [f.name for f in dataclasses.fields(ddjump.SimOptions)] == ["N", "seed", "horizon", "record"]


def test_the_guard_sees_a_third_restricted_caller():
    src = (
        "def sample_states(m, opts, X0, reps, ball):\n"
        "    out = engine.run_paths(m, opts.N, X0, opts.seed, reps, restriction=ball)\n"
        "    free = run_paths(m, opts.N, X0, opts.seed, reps)\n"
        "    return simulate_chunk(m, 10, X0, 0, 0, 1, restriction=None)\n"
    )
    assert _restricted_engine_calls(ast.parse(src)) == ["sample_states", "sample_states"]


def _raise_text(node):
    """The leading text of the message of ``raise E("...")`` or ``raise
    E(f"...")``; "" for any other node."""
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
        text = node.exc.args[0]
        first = text.values[0] if isinstance(text, ast.JoinedStr) and text.values else text
        if isinstance(first, ast.Constant):
            return str(first.value)
    return ""


_START_CHECKS = ("check_starts", "check_start")


def _start_checks(tree):
    """(function, kind) of every definition of ``check_starts`` or
    ``check_start`` ("def") and every call of either by name or attribute
    ("call"), with the innermost
    enclosing function ("" at module top), and of every raise whose message
    begins with "start " ("raise"), which a copy of the check would hold."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in _START_CHECKS:
                found.append((node.name, "def"))
            fn = node.name
        if isinstance(node, ast.Call):
            if getattr(node.func, "attr", getattr(node.func, "id", None)) in _START_CHECKS:
                found.append((fn, "call"))
        if _raise_text(node).startswith("start "):
            found.append((fn, "raise"))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "")
    return found


def test_one_start_check_called_by_the_engine_and_its_callers():
    sites = {
        (path.name, fn, kind)
        for path in sorted(SRC.glob("*.py"))
        for fn, kind in _start_checks(ast.parse(path.read_text()))
    }
    assert {s for s in sites if s[2] != "call"} == {
        ("engine.py", "check_starts", "def"), ("engine.py", "check_starts", "raise"),
        ("engine.py", "check_start", "def"), ("engine.py", "check_start", "raise"),
    }
    assert {s[:2] for s in sites if s[2] == "call"} == {
        ("engine.py", "simulate_chunk"),
        ("engine.py", "check_start"),
        ("simulate.py", "simulate_path"),
        ("simulate.py", "simulate_coupled"),
        ("simulate.py", "coupled_ensemble"),
        ("simulate.py", "martingale_deviation"),
        ("simulate.py", "exit_probability"),
    }
    assert not hasattr(ddjump.simulate, "_check_start")


def test_the_guard_sees_a_third_start_check():
    src = (
        "def sample_states(m, opts, X0, reps):\n"
        "    X0 = engine.check_starts(m, opts.N, X0)\n"
        "    if not restriction.contains(X0):\n"
        "        raise DomainError(f'start {X0} outside the restriction ball')\n"
        "    return check_starts(m, opts.N, X0)\n"
        "def _check_start(m, N, X0):\n"
        "    raise ValueError('start has the wrong shape')\n"
    )
    assert _start_checks(ast.parse(src)) == [
        ("sample_states", "call"), ("sample_states", "raise"), ("sample_states", "call"),
        ("_check_start", "raise"),
    ]


_TIME_MESSAGES = ("record times ", "horizon must ")
_N_MESSAGES = ("N must be a positive integer",)


def _check_raises(tree, messages=_TIME_MESSAGES):
    """The innermost function ("" at module top) around every raise whose
    message begins with one of ``messages``: by default "record times " or
    "horizon must ", which a copy of the times check would hold, or the N
    check's message (``_N_MESSAGES``)."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if _raise_text(node).startswith(messages):
            found.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "")
    return found


def test_one_check_of_record_times_and_horizons():
    sites = {
        (path.name, fn)
        for path in sorted(SRC.glob("*.py"))
        for fn in _check_raises(ast.parse(path.read_text()))
    }
    assert sites == {("engine.py", "check_times")}


def test_the_guard_sees_a_second_times_check():
    src = (
        "class SimOptions:\n"
        "    def __post_init__(self):\n"
        "        if not (self.horizon > 0):\n"
        "            raise ValueError('horizon must be positive')\n"
        "        raise ValueError(f'record times {self.record} must be sorted')\n"
        "raise ValueError('T must not exceed the horizon')\n"
        "raise ValueError(f'horizon must be finite, got {h}')\n"
    )
    assert _check_raises(ast.parse(src)) == ["__post_init__", "__post_init__", ""]


def test_one_check_of_N():
    sites = {
        (path.name, fn)
        for path in sorted(SRC.glob("*.py"))
        for fn in _check_raises(ast.parse(path.read_text()), _N_MESSAGES)
    }
    assert sites == {("engine.py", "check_N")}


def test_the_guard_sees_a_second_N_check():
    src = (
        "class SimOptions:\n"
        "    def __post_init__(self):\n"
        "        if self.N < 1:\n"
        "            raise ValueError('N must be a positive integer')\n"
        "def sample_at(m, opts, N):\n"
        "    raise ValueError(f'N must be a positive integer, got {N}')\n"
        "raise ValueError('N must be at most 10**9')\n"
    )
    assert _check_raises(ast.parse(src), _N_MESSAGES) == ["__post_init__", "sample_at"]


def _simulate_imports(tree):
    """The line of every import that names the ``simulate`` module, as
    ``from .simulate import x``, ``from . import simulate`` and ``import
    ddjump.simulate`` do."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "simulate" in re.split(r"\W+", ast.unparse(node))
    ]


def test_equilibrium_imports_nothing_from_simulate():
    """The cutoff, drift and variance experiments hand their grids to the
    engine directly, so ``equilibrium`` sits below ``simulate``."""
    assert _simulate_imports(ast.parse((SRC / "equilibrium.py").read_text())) == []


def test_the_guard_sees_an_import_from_simulate():
    src = (
        "from .simulate import SimOptions, sample_states\n"
        "from . import engine, simulate as sim\n"
        "import ddjump.simulate\n"
        "from .engine import simulate_chunk\n"
        "def f():\n"
        "    from ddjump import simulate\n"
    )
    assert sorted(_simulate_imports(ast.parse(src))) == [1, 2, 3, 6]


def _is_M(node):
    return (isinstance(node, ast.Name) and node.id == "M") or (
        isinstance(node, ast.Attribute) and node.attr == "M"
    )


def _is_matmul(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)


def _m_forms(tree):
    """Lines of every ``einsum`` call with an operand ``M`` (a name or an
    attribute) and of every chain ``a @ M @ b``, grouped either way."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "einsum" and any(_is_M(a) for a in node.args):
                found.append(node.lineno)
        elif _is_matmul(node) and (
            (_is_matmul(node.left) and _is_M(node.left.right))
            or (_is_matmul(node.right) and _is_M(node.right.left))
        ):
            found.append(node.lineno)
    return found


def test_engine_m_form_is_the_only_m_quadratic_form():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _m_forms(ast.parse(path.read_text()))
    ]
    assert not found, found
    assert not hasattr(ddjump.engine.Restriction, "form")


def test_the_guard_sees_a_second_m_form():
    src = (
        "q = np.einsum('i,ij,j', w, cert.M, w)\n"
        "r = einsum('...i,ij,...j', X, M, X)\n"
        "s = x @ M @ x\n"
        "t = x @ (self.M @ x)\n"
        "MA = M @ A\n"
        "u = np.trace(cert.M @ C)\n"
        "v = np.einsum('ni,ij,nj->n', W, np.linalg.inv(S), W)\n"
    )
    assert sorted(_m_forms(ast.parse(src))) == [1, 2, 3, 4]


_CODE_BUILTINS = {"eval", "exec", "compile", "__import__"}


def _code_calls(tree):
    """Lines that call a builtin which compiles or runs code, by name or
    through ``builtins``; ``re.compile`` and ``ast.parse`` are not such calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in _CODE_BUILTINS:
                yield node.lineno
            elif isinstance(f, ast.Attribute) and f.attr in _CODE_BUILTINS:
                if isinstance(f.value, ast.Name) and f.value.id == "builtins":
                    yield node.lineno


def test_the_rate_parser_compiles_and_runs_no_code():
    assert not list(_code_calls(ast.parse((SRC / "expr.py").read_text())))


def test_the_guard_sees_a_code_call():
    src = (
        "eval(s)\n"
        "builtins.exec(s)\n"
        "r = re.compile(p)\n"
        "t = ast.parse(s, mode='eval')\n"
        "m = __import__('os')\n"
        "code = compile(s, 'rate', 'eval')\n"
    )
    assert sorted(_code_calls(ast.parse(src))) == [1, 2, 5, 6]
