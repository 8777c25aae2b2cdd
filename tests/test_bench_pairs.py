"""The summary arithmetic of ``scripts/bench_pairs.py`` on a fixed list of runs.

Nothing here runs git or perfbench: the pairs are written out by hand.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"rate": "higher", "rss": "lower", "error": "lower"}
# (base, head) per pair; the last pair's head run failed
PAIRS = [
    ({"rate": 10.0, "rss": 5.0, "error": 0.1}, {"rate": 12.0, "rss": 5.0, "error": 0.1}),
    ({"rate": 11.0, "rss": 6.0, "error": 0.1}, {"rate": 10.0, "rss": 4.0, "error": 0.1}),
    ({"rate": 12.0, "rss": 4.0, "error": 0.1}, {"rate": 14.0, "rss": 7.0, "error": 0.1}),
    ({"rate": 13.0, "rss": 5.0, "error": 0.1}, {"rate": 13.0, "rss": 3.0, "error": 0.1}),
    ({"rate": 9.0, "rss": 5.0, "error": 0.1}, None),
]


@pytest.fixture(scope="module")
def summary():
    return bench_pairs.summarize(PAIRS, BETTER)


def test_medians_and_inclusive_quartiles(summary):
    # base rates 9..13 (the failed pair's base run counts), head rates 10, 12, 13, 14
    assert summary["rate"]["base"] == {"median": 11.0, "quartiles": [10.0, 12.0]}
    assert summary["rate"]["head"] == {"median": 12.5, "quartiles": [11.5, 13.25]}
    assert summary["rss"]["base"] == {"median": 5.0, "quartiles": [5.0, 5.0]}
    assert summary["rss"]["head"] == {"median": 4.5, "quartiles": [3.75, 5.5]}
    assert summary["rate"]["change_over_base"] == pytest.approx(12.5 / 11.0, rel=1e-15)


@pytest.mark.parametrize("name, head, base, ties", [
    ("rate", 2, 1, 1),    # higher is better: pairs 1 and 3 against pair 2, pair 4 ties
    ("rss", 2, 1, 1),     # lower is better: pairs 2 and 4 against pair 3, pair 1 ties
    ("error", 0, 0, 4),
])
def test_better_pairs_follow_the_direction_and_skip_failed_runs(summary, name, head, base, ties):
    s = summary[name]
    assert (s["pairs"], s["head_better"], s["base_better"], s["ties"]) == (4, head, base, ties)
    assert s["better"] == BETTER[name]


def test_table_rows(summary):
    rows = bench_pairs.table_rows("w", summary)
    assert rows == [
        "| w | rate | 11 [10, 12] | 12.5 [11.5, 13.25] | +13.6% | 2/4, 1 ties |",
        "| w | rss | 5 [5, 5] | 4.5 [3.75, 5.5] | -10.0% | 2/4, 1 ties |",
        "| w | error | 0.1 [0.1, 0.1] | 0.1 [0.1, 0.1] | identical | 4 ties |",
    ]


def test_large_values_and_missing_sides():
    s = bench_pairs.summarize([({"rate": 1.5e6}, None), ({"rate": 2.5e6}, None)],
                              {"rate": "higher"})
    assert s["rate"]["head"] is None and s["rate"]["change_over_base"] is None
    assert s["rate"]["pairs"] == 0
    assert bench_pairs.table_rows("w", s) == ["| w | rate | 2M [1.75M, 2.25M] | - | - | 0/0 |"]
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([]) is None
