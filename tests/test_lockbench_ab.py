"""The A/B verdict rules of scripts/lockbench_ab.py on synthetic runs."""

import importlib.util
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "lockbench_ab.py")
_spec = importlib.util.spec_from_file_location("lockbench_ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = ab  # dataclasses resolve annotations through it
_spec.loader.exec_module(ab)

BASE = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_nine_of_ten_wins_beyond_the_iqr_meets_the_claim():
    change = [b * 1.2 for b in BASE]
    change[3] = BASE[3] - 1.0  # the one lost pair
    v = ab.verdict(BASE, change, "higher", 0.2)
    assert (v.wins, v.losses, v.pairs) == (9, 1, 10)
    assert v.beyond_iqr
    assert v.claim_met
    assert v.status == "ok"
    assert v.ratio == pytest.approx(1.2, rel=0.01)


def test_eight_of_ten_wins_does_not_meet_the_claim():
    change = [b * 1.2 for b in BASE]
    change[3] = BASE[3] - 1.0
    change[7] = BASE[7]  # a tie counts for neither side
    change[8] = BASE[8] - 0.5
    v = ab.verdict(BASE, change, "higher", 0.2)
    assert (v.wins, v.losses) == (7, 2)
    change[7] = BASE[7] + 5.0
    v = ab.verdict(BASE, change, "higher", 0.2)
    assert (v.wins, v.losses) == (8, 2)
    assert v.beyond_iqr
    assert not v.claim_met


def test_a_gain_inside_the_base_spread_does_not_meet_the_claim():
    change = [b + 0.5 for b in BASE]  # wins every pair, but by less than the IQR
    v = ab.verdict(BASE, change, "higher", 0.2)
    assert v.wins == 10
    assert not v.beyond_iqr
    assert not v.claim_met


def test_regression_beyond_its_bound_is_flagged():
    # A lower-is-better latency 15 % worse against a 10 % bound.
    change = [b * 1.15 for b in BASE]
    v = ab.verdict(BASE, change, "lower", 0.10)
    assert v.status == "regression"
    assert v.worse_by == pytest.approx(0.15, rel=0.01)
    assert v.wins == 0
    # The same move is within a 20 % bound.
    assert ab.verdict(BASE, change, "lower", 0.20).status == "ok"


def test_spread_wider_than_the_bound_is_unresolved_unless_separated():
    base = [50.0, 150.0, 100.0, 60.0, 140.0, 100.0]
    assert ab.verdict(base, [b * 0.97 for b in base], "higher", 0.1).status == "unresolved"
    # Every change run beats every base run: resolved despite the spread.
    assert ab.verdict(base, [b + 200.0 for b in base], "higher", 0.1).status == "ok"


def test_per_layer_metrics_have_no_bound():
    v = ab.verdict([1.0, 2.0], [0.5, 1.5], "lower", None)
    assert v.status == "no bound"
    assert v.wins == 2


def test_mismatched_runs_rejected():
    with pytest.raises(ValueError):
        ab.verdict([1.0], [1.0, 2.0], "higher", 0.2)
    with pytest.raises(ValueError):
        ab.verdict([1.0], [1.0], "sideways", 0.2)


def test_nine_wins_and_one_failed_change_run_do_not_meet_the_claim():
    change = [b * 1.2 for b in BASE]
    assert ab.verdict(BASE, change, "higher", 0.2).claim_met
    change[3] = None  # failed its correctness gate: a loss, not a win
    v = ab.verdict(BASE, change, "higher", 0.2)
    assert (v.wins, v.losses, v.pairs) == (9, 1, 10)
    assert v.beyond_iqr
    assert not v.claim_met


def test_a_failed_base_run_counts_for_neither_side():
    base = list(BASE)
    base[0] = None
    v = ab.verdict(base, [b * 1.2 for b in BASE], "higher", 0.2)
    assert (v.wins, v.losses, v.pairs) == (9, 0, 10)
    assert v.claim_met


def test_judge_keeps_pairs_with_a_failed_run():
    def run(value):
        return {"correct": True, "metrics": {"txn_per_s": {"value": value}}}

    broken = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    runs = [(run(b), run(b * 1.2)) for b in BASE[:9]] + [(run(BASE[9]), broken)]
    specs = {"txn_per_s": {"better": "higher", "bound": 0.2}}
    v = ab.judge(runs, specs)["txn_per_s"]
    assert (v.wins, v.losses, v.pairs) == (9, 1, 10)
    assert ab.judge([(run(1.0), broken)], specs) == {}
