"""The finite-difference suite behind `mambamoe gradcheck`, one test per entry."""

import pytest

from mambamoe.gradcheck_suite import ENTRIES, run_entry


@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_passes(name):
    rep = run_entry(name)
    assert rep.passed, rep.per_param
