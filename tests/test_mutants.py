"""The mutation gate's list stays applicable: each mutant's old text occurs
exactly once in ``src/``, in the file it names, and its targets name test
files that exist.  No mutant is run here; ``python3 tests/mutants.py`` runs
them."""

import pytest

from mutants import MUTANTS, ROOT

SOURCES = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_in_src(mutant):
    assert sum(text.count(mutant.old) for text in SOURCES.values()) == 1
    assert SOURCES[ROOT / mutant.file].count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.targets
    for target in mutant.targets:
        assert (ROOT / target.split("::")[0]).is_file(), target
