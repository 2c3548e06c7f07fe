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
keep every module but ``correlation`` off the pair path's names. The last
tests hold its dots and readings to ``oracles.dots`` and ``measure_sign``
where it leaves out a coordinate that is zero in every direction of a group.
"""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from bellsim import UniformSphere, UnitVector, direction_at_angle, generate_database, measure_sign
from bellsim.experiment import Outcome, station_readings
from bellsim.geometry import Z_AXIS

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


# spins with exact zero components, so that some products are +-0, then uniform ones
_EDGE_SPINS = [
    (0.0, 0.0, 1.0), (-0.0, 1.0, -0.0), (0.0, 0.6, 0.8), (0.6, 0.0, -0.8),
    (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-0.0, -0.0, -1.0), (0.8, -0.6, 0.0),
]
_DIRECTIONS = {
    "z-axis": Z_AXIS,
    "signed-zeros": UnitVector(-0.0, 0.0, 1.0),
    "in-plane": direction_at_angle(0.4),
    "quarter-turn": direction_at_angle(math.pi / 2),  # (1, 0, 6.1e-17): z is not zero
    "minus-zero-y": UnitVector(0.6, -0.0, -0.8),
    "zero-z": UnitVector(0.8, -0.6, 0.0),
    "general": UnitVector.normalize(1.0, 2.0, 3.0),
}
# each a setting group: the zero coordinates common to all of its directions differ
_GROUPS = {
    "axis": ["z-axis"],
    "signed-zeros": ["signed-zeros", "minus-zero-y"],
    "in-plane": ["in-plane", "quarter-turn"],
    "zero-y-and-nonzero-y": ["in-plane", "zero-z", "minus-zero-y"],
    "general": ["general"],
}


def _rows(directions) -> np.ndarray:
    return np.array([d.as_array() for d in directions]).reshape(-1, 3)


@pytest.mark.parametrize("scratch", [False, True], ids=["new", "scratch"])
@pytest.mark.parametrize("a_group,b_group", itertools.product(_GROUPS, repeat=2))
def test_station_readings_match_the_three_term_dot_and_measure_sign(a_group, b_group, scratch):
    spins = np.concatenate([np.array(_EDGE_SPINS), generate_database(3, UniformSphere(), 40).spins])
    s = np.ascontiguousarray(spins.T)
    a, b = ([_DIRECTIONS[name] for name in _GROUPS[g]] for g in (a_group, b_group))
    dots = np.full((2, len(a) + len(b), len(spins)), np.nan) if scratch else None
    x, y, da, db = station_readings(s, _rows(a), _rows(b), dots)
    if scratch:  # da, then db, in dots[0]
        assert np.shares_memory(da, dots[0, : len(a)]) and np.shares_memory(db, dots[0, len(a) :])
    for spin_sign, group, got, plus in ((+1, a, da, x), (-1, b, db, y)):
        assert got.shape == plus.shape == (len(group), len(spins))
        for d, row, mask in zip(group, got, plus):
            # equal values, and so equal masks and ties; only a zero's sign may differ
            assert row.tolist() == oracles.dots(*s, d).tolist()
            outcomes = [measure_sign(spin_sign, UnitVector(*spin), d) for spin in spins.tolist()]
            assert mask.tolist() == [o.value == 1 for o in outcomes]
            assert (row == 0.0).tolist() == [o.was_tie for o in outcomes]
    # every spin column holds exact zeros, of both signs
    assert (s == 0.0).any(axis=1).all() and np.signbit(s[s == 0.0]).any()


def test_a_tiny_coordinate_is_a_product_and_not_a_zero():
    quarter, spin = direction_at_angle(math.pi / 2), UnitVector(0.0, 0.6, 0.8)
    assert quarter.y == 0.0 and 0.0 < quarter.z < 1e-16
    row = _rows([quarter])
    x, y, da, db = station_readings(np.array([[0.0], [0.6], [0.8]]), row, row)
    assert da.tolist() == db.tolist() == [[0.8 * quarter.z]]
    # A reads +1 and B -1, neither a tie
    assert x.tolist() == [[True]] and y.tolist() == [[False]]
    assert measure_sign(+1, spin, quarter) == Outcome(1, False)
    assert measure_sign(-1, spin, quarter) == Outcome(-1, False)


def test_a_coordinate_zero_in_every_direction_of_a_group_forms_no_product():
    # the dots scratch's second plane holds each product after the first: an axis
    # group (one coordinate) writes none, an in-plane group (x and z) one
    s = np.ascontiguousarray(generate_database(5, UniformSphere(), 64).spins.T)
    a, b = _rows([Z_AXIS]), _rows([direction_at_angle(0.4), direction_at_angle(2.0)])
    dots = np.full((2, 3, 64), np.nan)
    _, _, da, db = station_readings(s, a, b, dots)
    assert np.isnan(dots[1, 0]).all()
    assert db.tolist() == (s[0] * b[:, 0, None] + s[2] * b[:, 2, None]).tolist()
    assert dots[1, 1:].tolist() == (s[2] * b[:, 2, None]).tolist()
    assert da.tolist() == [s[2].tolist()]
