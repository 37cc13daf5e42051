"""The mutant list of ``tests/mutants.py`` cannot rot silently: each old
text occurs exactly once in its file, so the mutant deletes the clause it
names, and each killing test is defined in its test file."""

import pytest

from . import mutants


@pytest.mark.parametrize("m", mutants.MUTANTS + mutants.SURVIVORS, ids=lambda m: m.name)
def test_each_mutant_names_one_text_and_a_defined_test(m):
    assert (mutants.ROOT / m.file).read_text().count(m.old) == 1
    if m.test is not None:
        path, _, name = m.test.partition("::")
        assert "\ndef %s(" % name.split("[")[0] in (mutants.ROOT / path).read_text()


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS + mutants.SURVIVORS]
    assert len(names) == len(set(names))
