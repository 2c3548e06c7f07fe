"""The ``bellsim`` command runs with one BLAS thread, because bellsim calls no BLAS.

numpy's OpenBLAS starts its worker threads when numpy is imported; the
command's entry function (``bellsim.__main__.main``) sets
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1 first, unless the
environment already sets them. That is only free because no module of
the package makes a BLAS call: every station sign comes from the
elementwise dot expression of ``bellsim.experiment.station_readings``,
and the scan below keeps it that way.

The entry also imports ``bellsim.cli`` with the garbage collector off, then
calls ``gc.freeze()`` and turns the collector back on, so no later
collection walks numpy's and bellsim's start-up objects again: not during
the command, not in its forked workers, not at exit. ``cli.main``, which
tests and library callers run in their own process, freezes nothing.
Every entry case runs in a fresh interpreter, since both the threads and a
freeze last for the life of the process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bellsim"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_BLAS_FUNCTIONS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def _is_blas(name: str) -> bool:
    head, _, rest = name.partition(".")
    return head == "numpy" and (rest in _BLAS_FUNCTIONS or rest.split(".")[0] == "linalg")


def blas_calls(source: str) -> list[str]:
    """``line: what`` for each BLAS routine that ``source`` uses.

    Those are numpy's ``dot``, ``matmul``, ``einsum``, ``tensordot``,
    ``inner``, ``vdot`` and ``linalg.*``, under any alias of numpy, imported
    from numpy by name, or as the ``@`` operator.
    """
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else "numpy"
                    )
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{line}: @")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if _is_blas(f"{node.module}.{alias.name}"):
                    found.append(f"{line}: from {node.module} import {alias.name}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if module and _is_blas(f"{module}.{node.attr}"):
                found.append(f"{line}: {node.value.id}.{node.attr}")
    return found


def test_the_package_calls_no_blas():
    # station signs come from station_readings' elementwise dots, on purpose
    files = sorted(SRC.glob("*.py"))
    assert SRC / "experiment.py" in files
    found = {f.name: blas_calls(f.read_text()) for f in files}
    assert {name: calls for name, calls in found.items() if calls} == {}


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.dot(a, b)",
        "import numpy as np\nnp.matmul(a, b)",
        "import numpy\nnumpy.einsum('i,i', a, b)",
        "import numpy as np\nnp.tensordot(a, b, 1)",
        "import numpy as np\nnp.inner(a, b)",
        "import numpy as np\nnp.vdot(a, b)",
        "import numpy as np\nnp.linalg.norm(a)",
        "import numpy.linalg as la\nla.norm(a)",
        "from numpy import dot\n",
        "from numpy.linalg import norm\n",
        "c = a @ b",
        "c @= b",
    ],
)
def test_the_scan_finds_each_blas_routine(source):
    assert len(blas_calls(source)) == 1


def test_the_scan_passes_elementwise_numpy():
    source = "import numpy as np\nd = s0 * a.x + s1 * a.y\nnp.multiply(s0, d, out=t)\nv.dot(w)"
    assert blas_calls(source) == []


def _env(**blas) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    return {**env, **blas}


def _python(code: str, env: dict) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_numpy_and_sets_no_variable():
    code = (
        "import os, sys; before = dict(os.environ); import bellsim; "
        "print('numpy' in sys.modules, dict(os.environ) == before)"
    )
    assert _python(code, _env()) == "False True\n"


_THREADS = "print([l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')][0])"
_QUIET = "import contextlib, gc, io, os, runpy, sys; quiet = contextlib.redirect_stdout(io.StringIO())\n"
_ENTRIES = pytest.mark.parametrize(
    "entry",
    [
        # the console script's target
        "from bellsim.__main__ import main\nwith quiet: assert main(['enumerate']) == 0\n",
        # python -m bellsim
        "sys.argv = ['bellsim', 'enumerate']\n"
        "try:\n    with quiet: runpy.run_module('bellsim', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0\n",
    ],
    ids=["entry-function", "python-m"],
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@_ENTRIES
def test_the_command_runs_with_one_blas_thread(entry):
    assert _python(_QUIET + entry + "import numpy\n" + _THREADS, _env()) == "1\n"


_COLLECTOR = "print(gc.isenabled(), gc.get_freeze_count(), len(gc.get_objects()))\n"


@_ENTRIES
def test_the_command_freezes_its_start_up_heap_and_collects_the_rest(entry):
    enabled, frozen, tracked = _python(_QUIET + entry + _COLLECTOR, _env()).split()
    # numpy's import alone leaves some 30 000 objects; the command's own are few
    assert enabled == "True"
    assert int(frozen) >= 20_000
    assert int(tracked) < int(frozen) / 4


def test_the_command_line_function_freezes_nothing():
    code = "from bellsim.cli import main\nwith quiet: assert main(['enumerate']) == 0\n"
    assert _python(_QUIET + code + _COLLECTOR, _env()).split()[:2] == ["True", "0"]


def test_a_failed_import_leaves_the_collector_on():
    code = (
        "sys.modules['bellsim.cli'] = None\n"
        "from bellsim.__main__ import main\n"
        "try:\n    main(['enumerate'])\nexcept ImportError:\n    pass\n"
        "else:\n    raise AssertionError('the entry ran without bellsim.cli')\n"
        "print(gc.isenabled())\n"
    )
    assert _python(_QUIET + code, _env()) == "True\n"


def test_the_command_keeps_an_explicit_blas_thread_count():
    code = (
        _QUIET + "from bellsim.__main__ import main\nwith quiet: main(['enumerate'])\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    )
    assert _python(code, _env(OPENBLAS_NUM_THREADS="2")) == "2 1\n"


def test_the_console_script_is_the_entry_function():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["bellsim"] == "bellsim.__main__:main"


_COMMANDS = {
    "sweep": ["sweep", "--seed", "5", "--n", "5000", "--steps", "7"],
    "chsh": [
        "chsh", "--seed", "5", "--n", "5000", "--dist", "cap(0.6,0,0.8,0.3)",
        "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45",
    ],
    "search-reuse": ["search", "--seed", "5", "--n", "5000", "--budget", "60"],
    "search-fresh": ["search", "--seed", "5", "--n", "500", "--budget", "20", "--mode", "fresh"],
    "gen-db": ["gen-db", "--seed", "5", "--n", "5000"],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    artifacts = {}
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        for workers in ("1", "2"):
            out = tmp_path / f"{len(blas)}-{workers}.out"
            argv = [*_COMMANDS[command], "--workers", workers, "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "bellsim", *argv],
                capture_output=True,
                env=_env(**blas),
            )
            assert proc.returncode == 0, proc.stderr
            artifacts[(len(blas), workers)] = out.read_bytes()
    assert len(set(artifacts.values())) == 1, sorted(artifacts)
