"""The pairs tool's run order and its summary of canned runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(rows):
    """Runs in the tool's layout from (pair, side, {metric: value}) rows."""
    return [
        {"pair": pair, "seed": 100 + pair, "side": side,
         "result": {"correct": True, "metrics": {k: {"value": v, "unit": "s"}
                                                 for k, v in metrics.items()}}}
        for pair, side, metrics in rows
    ]


def test_the_side_that_runs_first_alternates(pairs):
    assert [pairs.run_order(i) for i in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")
    ]


def test_summary_counts_wins_in_each_direction(pairs):
    walls = [(1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 0.7), (1.0, 0.85)]
    rows = []
    for pair, (parent, change) in enumerate(walls, start=1):
        rows += [(pair, "parent", {"wall_s": parent, "items_per_s": 1 / parent}),
                 (pair, "change", {"wall_s": change, "items_per_s": 1 / change})]
    summary = pairs.summarize(canned(rows), {"wall_s": "lower", "items_per_s": "higher"})
    assert summary["wall_s"] == {
        "pairs": 5,
        "change_wins": 4,
        # statistics.quantiles, exclusive method: q1 and q3 at ranks 1.5 and 4.5 of 5
        "parent": {"q1": 0.95, "median": 1.0, "q3": 1.15},
        "change": {"q1": 0.75, "median": 0.85, "q3": 0.95},
    }
    assert summary["items_per_s"]["change_wins"] == 4
    assert summary["items_per_s"]["parent"]["median"] == 1.0


def test_summary_rounds_to_four_decimals(pairs):
    rows = [(1, "parent", {"setup_s": 0.123456}), (1, "change", {"setup_s": 0.1}),
            (2, "change", {"setup_s": 0.1}), (2, "parent", {"setup_s": 0.123456})]
    summary = pairs.summarize(canned(rows), {"setup_s": "lower"})["setup_s"]
    assert summary["parent"] == {"q1": 0.1235, "median": 0.1235, "q3": 0.1235}
    assert summary["change_wins"] == 2


def test_summary_counts_a_tie_as_no_win(pairs):
    rows = [(1, "parent", {"peak_rss_mb": 33.0}), (1, "change", {"peak_rss_mb": 33.0}),
            (2, "parent", {"peak_rss_mb": 33.2}), (2, "change", {"peak_rss_mb": 33.1})]
    assert pairs.summarize(canned(rows), {"peak_rss_mb": "lower"})["peak_rss_mb"][
        "change_wins"
    ] == 1


def test_summary_skips_pairs_missing_a_side_or_metric(pairs):
    rows = [(1, "parent", {"wall_s": 1.0}), (1, "change", {"wall_s": 0.5}),
            (2, "parent", {"wall_s": 1.0}), (2, "change", {}),
            (3, "parent", {"wall_s": 1.0}),
            (4, "parent", {"wall_s": 2.0}), (4, "change", {"wall_s": 3.0})]
    summary = pairs.summarize(canned(rows), {"wall_s": "lower", "setup_s": "lower"})
    assert list(summary) == ["wall_s"]  # setup_s: no pair reports it
    assert summary["wall_s"]["pairs"] == 2 and summary["wall_s"]["change_wins"] == 1
