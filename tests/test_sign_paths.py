"""Every station sign comes from one function: ``bellsim.experiment.station_readings``.

It forms the spin-setting dots and applies the stations' rule (A reads +1
where s . a >= 0, B where s . b <= 0, so sign(0) := +1 at both) for every
array path: ``chsh._station_bits`` packs its readings for reuse and fresh
``chsh_statistic`` (through ``_quad_tallies``), the search and
``per_trial_terms``, and ``correlation._pair_tallies`` counts its agreeing
masks for the sweep and ``estimate_correlation``. The scalar
``measure_sign`` is the per-trial oracle, and the int8 ``station_products``
lives on only in ``tests/oracles.py``. The scans below keep the rule's
comparisons inside ``station_readings`` in every module of the package, and
keep every module but ``correlation`` off the pair path's names.
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


def _is_float_zero(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value == 0.0


def _compares_to_zero(node) -> bool:
    # d >= 0.0 or d <= 0.0, or 0.0 <= d outside a chained range check such as 0.0 <= t <= 180.0
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return any(
        isinstance(op, (ast.GtE, ast.LtE))
        and (_is_float_zero(right) or (_is_float_zero(left) and len(node.ops) == 1))
        for op, left, right in zip(node.ops, operands, operands[1:])
    )


def station_rule_owners(source: str) -> list[str]:
    """The top-level function or class (else ``<module>``) around each occurrence in
    ``source`` of a station comparison: ``greater_equal`` or ``less_equal`` as a name,
    an attribute or an imported name, or a ``>=`` or ``<=`` against a 0.0 constant."""
    owners = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                name = node.attr
            else:
                name = getattr(node, "id", getattr(node, "name", None))
            owners += [owner] if name in STATION_RULE or _compares_to_zero(node) else []
    return owners


def test_only_station_readings_writes_the_station_comparisons():
    files = sorted(SRC.glob("*.py"))
    assert SRC / "correlation.py" in files
    found = {f.name: station_rule_owners(f.read_text()) for f in files}
    assert {name: owners for name, owners in found.items() if owners} == {
        "experiment.py": ["station_readings"] * 2
    }


def test_the_station_rule_scan_finds_each_spelling():
    source = (
        "from numpy import less_equal\n"
        "def f(d):\n    return np.greater_equal(d, 0.0)\n"
        "class C:\n    is_plus = greater_equal\n"
        "def g(da, db):\n    return (da >= 0.0) == (db <= 0.0)\n"
        "def h(d):\n    return 0.0 <= d\n"
    )
    assert station_rule_owners(source) == ["<module>", "f", "C", "g", "g", "h"]


def test_the_station_rule_scan_passes_range_checks_and_other_comparisons():
    source = (
        "def f(t, d, k, n):\n"
        "    return 0.0 <= t <= 180.0, d == 0.0, d > 0.0, d >= 1.0, 0 <= k < n, k >= 0\n"
    )
    assert station_rule_owners(source) == []
