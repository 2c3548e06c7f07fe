"""Each command imports only the layers it runs.

Every command compiles and imports its modules on every run, so a module
that a command never calls is start-up time for nothing. ``cli.py``
imports ``chsh`` and ``correlation`` inside the commands that call them.
Each command below runs in a fresh interpreter through the entry function
(``bellsim.__main__.main``), which then prints the ``bellsim.*`` modules
it loaded and whether numpy is loaded. Every command loads numpy: the
benchmark's ``setup_s`` times ``enumerate`` as the start-up that every
command pays.
"""

import subprocess
import sys

import pytest


_TINY = ["--seed", "3", "--n", "64"]
_COMMANDS = {
    "gen-db": ["gen-db", *_TINY],
    "sweep": ["sweep", *_TINY, "--steps", "3"],
    "chsh": ["chsh", *_TINY, "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45"],
    "search": ["search", *_TINY, "--budget", "8"],
    "enumerate": ["enumerate"],
}
# modules of the package that each command must not load; only gen-db writes a
# database, so only it loads the row kernel (``bellsim.rowtext``)
_NOT_LOADED = {
    "gen-db": {"bellsim.chsh", "bellsim.correlation", "bellsim.stats"},
    "sweep": {"bellsim.chsh", "bellsim.rowtext"},
    "chsh": {"bellsim.correlation", "bellsim.rowtext"},
    "search": {"bellsim.correlation", "bellsim.rowtext"},
    "enumerate": {"bellsim.correlation", "bellsim.rowtext"},
}
_REPORT = (
    "import contextlib, io, sys\n"
    "from bellsim.__main__ import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(sys.argv[1:]) == 0\n"
    "print('numpy' in sys.modules)\n"
    "print(*sorted(m for m in sys.modules if m.startswith('bellsim.')))\n"
)


def loaded_modules(argv: list[str]) -> tuple[bool, set[str]]:
    """(numpy loaded, the ``bellsim.*`` modules loaded) after one command in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _REPORT, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    numpy, modules = proc.stdout.splitlines()
    return numpy == "True", set(modules.split())


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_command_loads_only_the_layers_it_runs(tmp_path, command):
    out = [] if command == "enumerate" else ["--out", str(tmp_path / "out")]
    numpy, modules = loaded_modules([*_COMMANDS[command], *out])
    assert numpy
    assert {"bellsim.cli", "bellsim.experiment"} <= modules  # the report sees the package
    assert modules & _NOT_LOADED[command] == set()


# Resolves the annotations of every function, class and method that each module of
# the package defines, and prints one line per failure.
_HINTS = (
    "import importlib, inspect, pkgutil, typing\n"
    "import bellsim\n"
    "for info in pkgutil.iter_modules(bellsim.__path__):\n"
    "    module = importlib.import_module('bellsim.' + info.name)\n"
    "    for _, obj in inspect.getmembers(module):\n"
    "        if getattr(obj, '__module__', None) != module.__name__:\n"
    "            continue\n"
    "        found = [obj] if inspect.isfunction(obj) else []\n"
    "        if inspect.isclass(obj):\n"
    "            found = [obj] + [f for _, f in inspect.getmembers(obj, inspect.isfunction)]\n"
    "        for f in found:\n"
    "            try:\n"
    "                typing.get_type_hints(f)\n"
    "            except NameError as e:\n"
    "                print(module.__name__, f.__qualname__, e)\n"
)


def test_every_annotation_names_only_what_its_module_binds():
    # a name that moved into a function's own imports, or that a module binds
    # only on first use, must leave the annotations too, or resolving them
    # raises NameError; a fresh interpreter, since a test that started a pool
    # binds parallel's lazily imported executor class in this one
    proc = subprocess.run([sys.executable, "-c", _HINTS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
