"""The mutation table of ``tools/mutants.py`` still applies to the code.

Each mutant's old text occurs exactly once in its file, its new text
differs, and the test files expected to kill it exist.  The mutants
themselves run outside Tier-1 (``python tools/mutants.py``); nothing here
starts a process.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_applies_exactly_once():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants) >= 8
    for m in mutants:
        assert m.path.startswith("src/"), m.name
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert m.tests and all((ROOT / t).is_file() for t in m.tests), m.name
