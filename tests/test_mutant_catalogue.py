"""The mutant catalogue stays pointed at the code it edits."""
import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS + mutants.EQUIVALENT, ids=lambda m: m.name)
def test_each_mutants_old_text_occurs_once(mutant):
    # the runner applies only an entry whose old text occurs exactly once in its file
    assert mutants._count(mutant) == 1


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutants_killer_file_exists(mutant):
    # the runner runs it first; a missing file would cost a full tier-1 run per mutant
    assert (mutants.ROOT / mutant.killer).is_file()
