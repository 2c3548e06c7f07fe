"""The mutation harness's edits still apply to the source they mutate.

Each mutant of ``tools/mutants.py`` replaces text that must occur exactly
once in its file. A refactor that moves or rewrites that text leaves the
mutant stale; this catches it in tier-1 without running any mutant.
"""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_replaces_text_that_occurs_once_in_its_file(mutant):
    text = (_ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old

