"""Every CHSH statistic takes its station signs from the packed column kernel.

``bellsim.chsh._station_bits`` packs the signs of unit-stride spin columns,
and is the one place in ``chsh.py`` that writes the stations' comparisons;
reuse and fresh ``chsh_statistic`` (through ``_quad_tallies``), the search
and ``per_trial_terms`` all read them. The pair path,
``_pair_tallies`` -> ``pair_tallies``, counts agreeing boolean station
masks for ``bellsim.correlation``'s sweep and ``estimate_correlation``;
the int8 ``station_products`` it replaced lives on only as an oracle in
``tests/oracles.py``. The scan below keeps every other module of the
package off the pair path and that name, so that no statistic drifts
back onto a second sign path.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bellsim"
PAIR_PATH = {"station_products", "_pair_tallies", "pair_tallies"}
STATION_RULE = {"greater_equal", "less_equal"}


def pair_path_names(source: str) -> list[str]:
    """``line: name`` for each name of the int8 pair path that ``source`` imports, uses or
    defines: as a name, an attribute, an imported name (aliased or not) or a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if name in PAIR_PATH]
    return found


def test_only_correlation_names_the_int8_pair_path():
    files = sorted(SRC.glob("*.py"))
    assert SRC / "chsh.py" in files
    found = {f.name: pair_path_names(f.read_text()) for f in files if f.name != "correlation.py"}
    assert {name: names for name, names in found.items() if names} == {}
    # the sweep and estimate_correlation still use it, and the scan sees them
    assert len(pair_path_names((SRC / "correlation.py").read_text())) >= 3


@pytest.mark.parametrize(
    "source",
    [
        "from .correlation import station_products",
        "from bellsim.correlation import pair_tallies as tallies",
        "from . import correlation\ncorrelation._pair_tallies",
        "station_products",
        "def pair_tallies(source, pairs):\n    return []",
    ],
)
def test_the_scan_finds_each_pair_path_name(source):
    assert len(pair_path_names(source)) == 1


def test_the_scan_passes_the_column_kernel_and_mere_mentions():
    source = (
        '"""Signs as in ``station_products``."""\n'
        "from .correlation import _BLOCK_ROWS\n"
        "x = _sign_bits(s, d, np.greater_equal)\n"
        "_range_pair_tallies = station_products_like = None\n"
    )
    assert pair_path_names(source) == []


def station_rule_owners(source: str) -> list[str]:
    """The top-level function or class (else ``<module>``) around each occurrence in
    ``source`` of a station comparison: as a name, an attribute or an imported name."""
    owners = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                name = node.attr
            else:
                name = getattr(node, "id", getattr(node, "name", None))
            owners += [owner] if name in STATION_RULE else []
    return owners


def test_only_station_bits_writes_the_station_comparisons():
    assert station_rule_owners((SRC / "chsh.py").read_text()) == ["_station_bits"] * 2


def test_the_station_rule_scan_finds_each_spelling():
    source = (
        "from numpy import less_equal\n"
        "def f(d):\n    return np.greater_equal(d, 0.0)\n"
        "class C:\n    is_plus = greater_equal\n"
    )
    assert station_rule_owners(source) == ["<module>", "f", "C"]
