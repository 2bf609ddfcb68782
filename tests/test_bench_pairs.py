"""The verdict rule of tools/bench_pairs.py on fixed numbers: no benchmark
is run."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten parent runs with q3 - q1 = 0.045 around a median of 1.045
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_quartiles_are_inclusive(pairs):
    assert pairs.quartiles(PARENT) == pytest.approx((1.0225, 1.045, 1.0675))


def test_every_pair_won_beyond_the_spread_is_a_gain(pairs):
    change = [p - 0.2 for p in PARENT]
    assert pairs.wins(PARENT, change, "lower") == 10
    assert pairs.verdict(PARENT, change, "lower", 0.25) == "gain"


def test_nine_of_ten_inside_the_spread_is_within_bound(pairs):
    change = [p - 0.01 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    assert pairs.wins(PARENT, change, "lower") == 9
    assert pairs.verdict(PARENT, change, "lower", 0.25) == "within bound"


def test_nine_of_ten_beyond_the_spread_is_a_gain(pairs):
    change = [p - 0.2 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    assert pairs.verdict(PARENT, change, "lower", 0.25) == "gain"


def test_eight_of_ten_is_no_gain(pairs):
    change = [p - 0.2 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    assert pairs.verdict(PARENT, change, "lower", 0.25) == "within bound"


def test_thirty_percent_worse(pairs):
    change = [1.3 * p for p in PARENT]
    assert pairs.verdict(PARENT, change, "lower", 0.25) == "worse"
    assert pairs.verdict(PARENT, [1.2 * p for p in PARENT], "lower", 0.25) == "within bound"


def test_parent_spread_wider_than_the_bound_is_unresolved(pairs):
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [1.9, 1.1, 1.9, 1.1, 1.9, 1.1]
    assert pairs.verdict(parent, change, "lower", 0.25) == "unresolved"


def test_wide_spread_with_every_change_run_better_is_resolved(pairs):
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [0.5, 0.9, 0.5, 0.9, 0.5, 0.9]
    # every change run beats every parent run, but the medians (1.5, 0.7)
    # differ by less than the parent's q3 - q1 (1.0)
    assert pairs.verdict(parent, change, "lower", 0.25) == "within bound"


def test_ties_count_for_neither_side(pairs):
    assert pairs.wins([1.0, 1.0, 1.0], [1.0, 0.9, 1.1], "lower") == 1
    assert pairs.wins([1.0, 1.0, 1.0], [1.0, 0.9, 1.1], "higher") == 1
    assert pairs.verdict(PARENT, PARENT, "lower", 0.25) == "within bound"
    # two ties leave 8 wins of 10, short of a gain
    change = [p - 0.2 for p in PARENT[:8]] + PARENT[8:]
    assert pairs.wins(PARENT, change, "lower") == 8
    assert pairs.verdict(PARENT, change, "lower", 0.25) == "within bound"


def test_accuracy_higher_is_better(pairs):
    parent = [0.88] * 10
    assert pairs.verdict(parent, [0.93] * 10, "higher", 0.25) == "gain"
    assert pairs.verdict(parent, [0.93] * 10, "lower", 0.25) == "within bound"
    assert pairs.verdict(parent, [0.6] * 10, "higher", 0.25) == "worse"
    assert pairs.verdict(parent, [0.83] * 10, "higher", 0.25) == "within bound"
