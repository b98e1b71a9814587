"""The summary of ``scripts/bench_pairs.py``, on synthetic benchmark result lines."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_pairs  # noqa: E402


def result(wall_s, slots_per_s, failed=0, digest="d1"):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "slots_per_s": {"value": slots_per_s, "unit": "1/s"},
        },
        "sim_digest": digest,
    }


def test_summary_of_alternated_pairs():
    pairs = [
        (result(2.0, 100.0), result(1.8, 110.0)),
        (result(2.2, 90.0, failed=1), result(1.9, 90.0)),  # slots_per_s ties
        (result(2.1, 95.0), result(2.3, 80.0, digest="d2")),
        (result(2.4, 85.0), result(2.0, 105.0)),
        (result(1.9, 99.0), result(1.7, 120.0)),
    ]
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower", "slots_per_s": "higher"})
    assert summary["pairs"] == 5
    assert summary["first_side"] == "parent on odd pairs, change on even pairs"
    wall = summary["wall_s"]
    assert wall["parent"]["runs"] == [2.0, 2.2, 2.1, 2.4, 1.9]
    assert wall["parent"]["median"] == 2.1
    # statistics.quantiles' default (exclusive) method on five runs
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (1.95, 2.3)
    assert wall["change"]["median"] == 1.9
    assert wall["change_better_pairs"] == 4
    assert summary["slots_per_s"]["change_better_pairs"] == 3
    assert summary["failed"] == {"parent": 1, "change": 0}
    assert summary["attempted"] == {"parent": 50, "change": 50}
    assert summary["sim_digest"] == {"parent": ["d1"], "change": ["d1", "d2"]}


def test_single_pair_has_flat_quartiles():
    summary = bench_pairs.summarize([(result(2.0, 1.0), result(2.0, 1.0))],
                                    {"wall_s": "lower"})
    assert summary["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                           "runs": [2.0]}
    assert summary["wall_s"]["change_better_pairs"] == 0
