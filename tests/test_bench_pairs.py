"""The summary of ``scripts/bench_pairs.py``, on synthetic benchmark result lines."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

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
    metrics = {"wall_s": {"better": "lower", "bound": 0.25},
               "slots_per_s": {"better": "higher", "bound": 0.1}}
    summary = bench_pairs.summarize(pairs, metrics)
    assert summary["pairs"] == 5
    assert summary["first_side"] == "parent on odd pairs, change on even pairs"
    wall = summary["wall_s"]
    assert wall["parent"]["runs"] == [2.0, 2.2, 2.1, 2.4, 1.9]
    assert wall["parent"]["median"] == 2.1
    # statistics.quantiles' default (exclusive) method on five runs
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (1.95, 2.3)
    assert wall["change"]["median"] == 1.9
    assert wall["change_better_pairs"] == 4
    assert wall["median_change_pct"] == pytest.approx(100.0 * (1.9 / 2.1 - 1.0))
    # quartiles 0.35 apart, 17 % of the median: inside the 25 % bound
    assert wall["verdict"] == "within bound"
    assert wall["gain_resolved"] is False  # the third pair went to the parent
    rate = summary["slots_per_s"]
    assert rate["change_better_pairs"] == 3
    assert rate["median_change_pct"] == pytest.approx(100.0 * (105.0 / 95.0 - 1.0))
    # quartiles 87.5 and 99.5, 13 % of the median, wider than the 10 % bound,
    # and the change's 80 and 90 do not beat every parent run
    assert (rate["parent"]["q1"], rate["parent"]["q3"]) == (87.5, 99.5)
    assert rate["verdict"] == "unresolved"
    assert summary["failed"] == {"parent": 1, "change": 0}
    assert summary["attempted"] == {"parent": 50, "change": 50}
    assert summary["sim_digest"] == {"parent": ["d1"], "change": ["d1", "d2"]}
    assert summary["sim_digest_equal"] is False


def test_single_pair_has_flat_quartiles():
    metrics = {"wall_s": {"better": "lower", "bound": 0.25},
               "slots_per_s": {"better": "higher", "bound": 0.2}}
    summary = bench_pairs.summarize([(result(2.0, 1.0), result(2.0, 0.7))], metrics)
    assert summary["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                           "runs": [2.0]}
    assert summary["wall_s"]["change_better_pairs"] == 0
    assert summary["wall_s"]["median_change_pct"] == 0.0
    assert summary["wall_s"]["verdict"] == "within bound"
    assert summary["slots_per_s"]["median_change_pct"] == pytest.approx(-30.0)
    assert summary["slots_per_s"]["verdict"] == "outside bound"
    assert summary["sim_digest_equal"] is True


def test_wide_spread_resolves_when_every_change_run_wins():
    pairs = [(result(2.0, 1.0), result(1.0, 1.0)),
             (result(3.0, 1.0), result(1.9, 1.0)),
             (result(4.0, 1.0), result(1.5, 1.0))]
    summary = bench_pairs.summarize(pairs, {"wall_s": {"better": "lower", "bound": 0.25}})
    assert summary["wall_s"]["median_change_pct"] == 100.0 * (1.5 / 3.0 - 1.0)
    assert summary["wall_s"]["verdict"] == "within bound"


def test_gain_resolved_needs_every_pair_and_a_median_past_the_quartile():
    metrics = {"wall_s": {"better": "lower", "bound": 0.25},
               "slots_per_s": {"better": "higher", "bound": 0.2}}

    def resolved(pairs):
        summary = bench_pairs.summarize(
            [(result(p, ps), result(c, cs)) for (p, ps), (c, cs) in pairs], metrics)
        return summary["wall_s"]["gain_resolved"], summary["slots_per_s"]["gain_resolved"]

    # parent wall_s 3.6, 3.7, 3.8, 3.65, 3.75: quartiles 3.625 and 3.775;
    # slots_per_s quartiles 91.5 and 98.5
    parent = [(3.6, 100.0), (3.7, 95.0), (3.8, 90.0), (3.65, 97.0), (3.75, 93.0)]
    # a 12 % gain in every pair: resolved on both metrics
    change = [(w * 0.88, s * 1.12) for w, s in parent]
    assert resolved(zip(parent, change)) == (True, True)
    # every pair won, but the medians 3.69 and 96.0 stay inside the quartiles
    change = [(w - 0.01, s + 1.0) for w, s in parent]
    assert resolved(zip(parent, change)) == (False, False)
    # a median far past the quartile, but one pair lost
    change = [(3.2, 110.0), (3.2, 110.0), (3.9, 80.0), (3.2, 110.0), (3.2, 110.0)]
    assert resolved(zip(parent, change)) == (False, False)
    # a loss on the wrong side never resolves
    change = [(w * 1.2, s * 0.8) for w, s in parent]
    assert resolved(zip(parent, change)) == (False, False)


def test_trace_medians_take_each_metric_median():
    runs = [result(2.0, 30.0), result(1.0, 10.0), result(5.0, 20.0, failed=1)]
    merged = bench_pairs.trace_medians(runs)
    assert merged["metrics"] == {"wall_s": {"value": 2.0, "unit": "s"},
                                 "slots_per_s": {"value": 20.0, "unit": "1/s"}}
    assert (merged["runs"], merged["failed"], merged["attempted"]) == (3, 1, 30)
    assert merged["sim_digest"] == ["d1"]


def write_benchmark(checkout, workloads):
    (checkout / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": name} for name in workloads],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                       {"name": "slots_per_s", "better": "higher", "bound": 0.2}]}))


def test_main_warns_when_a_workload_digest_differs(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for checkout in (parent, change):
        write_benchmark(checkout, ("same", "moved"))
    digests = {("same", parent): "d1", ("same", change): "d1",
               ("moved", parent): "d1", ("moved", change): "d2"}

    traced = []

    def fake_run(checkout, workload, seed, seconds, trace):
        if trace:
            traced.append((workload, checkout.name))
        return result(2.0, 1.0, digest=digests[workload, checkout])

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.setattr(bench_pairs, "git_revision", lambda checkout: "abc")
    out = tmp_path / "pairs.json"
    bench_pairs.main([str(parent), str(change), "--seed", "1", "--seconds", "1",
                      "--plan", "same=2", "moved=2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["pairs"]["same"]["sim_digest_equal"] is True
    assert doc["pairs"]["moved"]["sim_digest_equal"] is False
    # three traced runs per side, alternated like the pairs, kept as medians
    sides = ["parent", "change", "change", "parent", "parent", "change"]
    assert traced == [("same", side) for side in sides] + [("moved", side) for side in sides]
    assert doc["trace"]["same"]["parent"]["runs"] == 3
    assert doc["trace"]["moved"]["change"]["metrics"]["wall_s"]["value"] == 2.0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: moved: sim_digest differs, parent ['d1'] -> change ['d2']"]


def test_main_warns_when_the_benchmark_differs(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "bench" / "__pycache__").mkdir(parents=True)
        (checkout / "bench" / "run.py").write_text("x = 1\n")
        write_benchmark(checkout, ("same",))
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: result(2.0, 1.0))
    monkeypatch.setattr(bench_pairs, "git_revision", lambda checkout: "abc")
    out = tmp_path / "pairs.json"
    argv = [str(parent), str(change), "--seed", "1", "--seconds", "1", "--plan", "same=1",
            "--out", str(out)]

    def warnings():
        return [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]

    # bytecode that a run leaves and files outside bench/ do not count
    (change / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    (change / "README.md").write_text("other\n")
    bench_pairs.main(argv)
    hashes = json.loads(out.read_text())["bench_sha1"]
    assert hashes["parent"] == hashes["change"] == bench_pairs.bench_sha1(parent)
    assert warnings() == []
    # an edit under bench/, or one to BENCHMARK.json alone, moves the change's hash
    for run_py, workloads in (("x = 2\n", ("same",)), ("x = 1\n", ("same", "more"))):
        (change / "bench" / "run.py").write_text(run_py)
        write_benchmark(change, workloads)
        bench_pairs.main(argv)
        hashes = json.loads(out.read_text())["bench_sha1"]
        assert hashes["change"] == bench_pairs.bench_sha1(change) != hashes["parent"]
        assert warnings() == [f"warning: bench_sha1 differs, parent {hashes['parent']} -> "
                              f"change {hashes['change']}"]


def test_main_names_each_side_by_a_hash_of_its_sources(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout, text in ((parent, "x = 1\n"), (change, "x = 2\n")):
        (checkout / "src" / "cellsched").mkdir(parents=True)
        (checkout / "src" / "cellsched" / "a.py").write_text(text)
        (checkout / "src" / "cellsched" / "b.py").write_text("y = 1\n")
        (checkout / "README.md").write_text(text)  # not a source file
    (change / "src" / "cellsched" / "b.py").write_text("\ny = 1\n  \nz = 2\n")
    for checkout in (parent, change):
        write_benchmark(checkout, ("same",))
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: result(2.0, 1.0))
    monkeypatch.setattr(bench_pairs, "git_revision", lambda checkout: "unknown")
    out = tmp_path / "pairs.json"
    bench_pairs.main([str(parent), str(change), "--seed", "1", "--seconds", "1",
                      "--plan", "same=1", "--out", str(out)])
    doc = json.loads(out.read_text())
    hashes = doc["source_sha1"]
    # non-blank lines of src/cellsched/*.py: README.md and blank lines do not count
    assert doc["source_lines"] == {"parent": 2, "change": 3}
    assert doc["code_lines"] == {"parent": 2, "change": 3}
    assert hashes == {"parent": bench_pairs.source_sha1(parent),
                      "change": bench_pairs.source_sha1(change)}
    assert hashes["parent"] != hashes["change"]
    # the hash follows the sources only: other files and the checkout's place do not move
    # it, while a renamed source file does
    (change / "README.md").write_text("other\n")
    (change / "src" / "cellsched" / "a.py").write_text("x = 1\n")
    (change / "src" / "cellsched" / "b.py").write_text("y = 1\n")
    moved = tmp_path / "elsewhere"
    change.rename(moved)
    assert bench_pairs.source_sha1(moved) == hashes["parent"]
    (moved / "src" / "cellsched" / "b.py").rename(moved / "src" / "cellsched" / "c.py")
    assert bench_pairs.source_sha1(moved) != hashes["parent"]


CODE_AND_DOCS = '''"""Module docstring,

on three lines."""
# a comment

class K:
    """Class docstring."""
    x = 1  # a trailing comment

    def f(self):
        """Function
        docstring."""
        "a string statement after the docstring"
        return """a string

of code"""
'''


def test_code_lines_leave_out_docstrings_and_comments(tmp_path):
    source = tmp_path / "src" / "cellsched"
    source.mkdir(parents=True)
    (source / "a.py").write_text(CODE_AND_DOCS)
    (source / "b.py").write_text("y = (1,\n     # inside\n     2)\n")
    (tmp_path / "c.py").write_text("z = 3\n")  # not a source file
    # class K, x = 1, def f, the string statement, the returned string's two
    # non-blank lines, and b.py's two lines of code
    assert sum(bench_pairs.code_lines_by_module(tmp_path).values()) == 8
    assert bench_pairs.source_lines(tmp_path) == 15


def test_a_moved_function_shifts_the_counts_per_module(tmp_path):
    source = tmp_path / "src" / "cellsched"
    source.mkdir(parents=True)
    moved = 'def f(x):\n    """Docstring."""\n    return x + 1  # comment\n'
    (source / "a.py").write_text("import os\n\n" + moved)
    (source / "b.py").write_text("y = 1\n")
    before = bench_pairs.code_lines_by_module(tmp_path)
    (source / "a.py").write_text("import os\n")
    (source / "b.py").write_text("y = 1\n\n\n" + moved)
    after = bench_pairs.code_lines_by_module(tmp_path)
    # def f and its return are code; the docstring and the comment are not
    assert (before, after) == ({"a.py": 3, "b.py": 1}, {"a.py": 1, "b.py": 3})
    assert sum(after.values()) == sum(before.values()) == 4


@pytest.mark.parametrize("bad", ["reference_ranking", "short_runs=0", "refrence_ranking=2",
                                 "short_runs=x", "reference_ranking=3"])
def test_main_checks_the_plan_before_the_first_run(tmp_path, monkeypatch, capsys, bad):
    write_benchmark(tmp_path, ("reference_ranking", "short_runs"))
    runs = []
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: runs.append(args))
    monkeypatch.setattr(bench_pairs, "git_revision", lambda checkout: "abc")
    out = tmp_path / "pairs.json"
    code = bench_pairs.main([str(tmp_path), str(tmp_path), "--seed", "1", "--seconds", "1",
                             "--plan", "reference_ranking=2", bad, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and runs == [] and not out.exists()
    assert err == [f"error: --plan {bad!r}: need WORKLOAD=N with N >= 1, each WORKLOAD "
                   "once and one of reference_ranking, short_runs"]
