"""The per-metric summary of tools/perf_pairs.py on synthetic numbers."""

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_pairs", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "perf_pairs.py"))
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

LOWER = {"name": "target_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "train_pairs_per_s", "better": "higher", "bound": 0.25}
# ten parent runs: median 1.0, quartiles 0.9825 and 1.0175, IQR 0.035
PARENT = [0.95, 0.96, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.05]


def test_nine_wins_and_a_gap_beyond_the_iqr_is_a_gain():
    change = [p - 0.1 for p in PARENT[:9]] + [PARENT[9]]  # the last pair ties
    s = perf_pairs.summarize(LOWER, PARENT, change)
    assert s["parent_median"] == pytest.approx(1.0)
    assert s["parent_iqr"] == pytest.approx(0.035)
    assert s["change_wins"] == 9
    assert s["within_bound"] and s["gain"]


def test_ties_count_for_neither_side():
    # eight wins and two ties: eight tenths, not nine
    change = [p - 0.1 for p in PARENT[:8]] + PARENT[8:]
    s = perf_pairs.summarize(LOWER, PARENT, change)
    assert s["change_wins"] == 8 and not s["gain"]
    # ten ties: no win for the change, and no regression either
    s = perf_pairs.summarize(LOWER, PARENT, list(PARENT))
    assert s["change_wins"] == 0 and s["within_bound"] and not s["gain"]


def test_every_pair_won_by_less_than_the_iqr_is_no_gain():
    s = perf_pairs.summarize(LOWER, PARENT, [p - 0.01 for p in PARENT])
    assert s["change_wins"] == 10 and not s["gain"]


def test_higher_is_better_turns_both_rules():
    s = perf_pairs.summarize(HIGHER, PARENT, [p + 0.1 for p in PARENT])
    assert s["change_wins"] == 10 and s["within_bound"] and s["gain"]
    s = perf_pairs.summarize(HIGHER, PARENT, [p - 0.1 for p in PARENT])
    assert s["change_wins"] == 0 and s["within_bound"] and not s["gain"]


def test_a_median_worse_by_more_than_the_bound_leaves_it():
    s = perf_pairs.summarize(LOWER, PARENT, [p * 1.3 for p in PARENT])
    assert s["change_wins"] == 0 and not s["within_bound"] and not s["gain"]
