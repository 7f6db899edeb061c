"""The finite-difference suite behind `mambamoe gradcheck`, one test per entry."""

import pytest

from mambamoe.gradcheck_suite import ENTRIES, run_entry


@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_passes(name):
    rep = run_entry(name)
    assert rep.passed, rep.per_param


def test_removing_an_entry_redraws_no_other(monkeypatch):
    before = run_entry("router")
    monkeypatch.delitem(ENTRIES, "conv2d")  # an entry listed before it
    assert run_entry("router") == before


@pytest.mark.parametrize("seed", range(1, 8))
@pytest.mark.parametrize("name", ["ssm_scan", "router", "sre_top2"])
def test_gated_expert_entries_pass_at_more_seeds(name, seed):
    # the entries that make or read the experts' gates, on seven more draws
    rep = run_entry(name, seed)
    assert rep.passed, rep.per_param
