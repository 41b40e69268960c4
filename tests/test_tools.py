"""The pair rule of ``tools/pairs.py`` on canned samples."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [0.60, 0.59, 0.61, 0.60, 0.62, 0.58, 0.60, 0.61, 0.59, 0.60]


def test_quartiles_of_ten_samples():
    assert pairs.quartiles(PARENT) == pytest.approx((0.5925, 0.60, 0.6075))
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_clear_gain_is_met():
    change = [p - 0.03 for p in PARENT]
    v = pairs.verdict(PARENT, change, lower_is_better=True)
    assert v["wins"] == 10 and v["verdict"] == "met"


def test_nine_wins_of_ten_suffice_and_eight_do_not():
    change = [p - 0.03 for p in PARENT]
    change[0] = PARENT[0] + 0.01  # a loss
    assert pairs.verdict(PARENT, change, True)["verdict"] == "met"
    change[1] = PARENT[1]  # a tie counts for neither side
    v = pairs.verdict(PARENT, change, True)
    assert v["wins"] == 8 and v["verdict"] == "unresolved"


def test_a_gain_inside_the_parent_spread_is_unresolved():
    # every pair won, but the medians differ by less than the parent's IQR
    change = [p - 0.01 for p in PARENT]
    v = pairs.verdict(PARENT, change, True)
    assert v["wins"] == 10 and v["verdict"] == "unresolved"


def test_fewer_than_ten_pairs_never_meet_the_rule():
    change = [p - 0.03 for p in PARENT]
    v = pairs.verdict(PARENT[:9], change[:9], True)
    assert v["wins"] == 9 and v["verdict"] == "unresolved"


def test_a_flagged_pair_counts_as_a_pair_not_won_and_never_meets_the_rule():
    # eleven pairs, ten clear wins and one pair whose change run failed
    change = [p - 0.03 for p in PARENT]
    v = pairs.verdict(PARENT, change, True, flagged=1)
    assert (v["pairs"], v["wins"], v["verdict"]) == (11, 10, "unresolved")
    assert pairs.verdict(PARENT, change, True, flagged=0)["verdict"] == "met"


def test_higher_is_better_metrics_flip_the_sign():
    rate = [1 / p for p in PARENT]
    assert pairs.verdict(rate, [r * 1.1 for r in rate], False)["verdict"] == "met"
    assert pairs.verdict(rate, [r * 0.9 for r in rate], False)["wins"] == 0
    assert pairs.verdict(PARENT, [p * 1.1 for p in PARENT], True)["verdict"] == "unresolved"


def test_unpaired_samples_are_refused():
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT[:9], True)
    with pytest.raises(ValueError):
        pairs.verdict([], [], True)
