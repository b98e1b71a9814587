"""Alternated parent/change pairs of the host-speed benchmark, as one JSON file.

PARENT and CHANGE are two checkouts of this repository.  For each workload
the script runs ``bench/run.py`` in both checkouts, N pairs of runs with the
parent first on odd pairs and the change first on even pairs, then
``TRACE_RUNS`` alternated ``--trace 1`` runs on each side.  It writes, per
workload and end-to-end metric, each side's runs, median and quartiles, the
number of pairs the change won, the change of the median in percent, a
verdict against the metric's relative ``bound`` in BENCHMARK.json and
``gain_resolved``, which says whether the change was strictly better in at
least nine tenths of the pairs (ties count for neither side) and its median
better than the parent's by more than the parent's interquartile range; per side
of the traced runs it writes the median of every metric, since a single
traced run's self times swing with the host's speed.  Per workload,
``sim_digest_equal`` says whether both sides' runs gave the same
``sim_digest``s; a stderr warning names any workload where they did not.
Each side is named by its git revision and by ``source_sha1``, a SHA-1 over
its ``src/cellsched/*.py``, which also names a checkout that is not
committed; ``bench_sha1`` hashes its ``BENCHMARK.json`` and the files under
``bench/`` the same way, and a stderr warning says when the two sides'
differ, since a change that leaves the benchmark alone must give one hash;
``source_lines`` gives the non-blank line count of those files,
``code_lines`` the count of those lines that hold code, not a docstring
or a ``#`` comment, and ``code_lines_by_module`` that count per file, so a
move between modules shows as a move.  Standard library only.

Run from the repository root (about 27 minutes for the default plan):

    python3 scripts/bench_pairs.py PARENT CHANGE --seed 113 --seconds 20 \\
        --plan reference_ranking=10 loaded_sweep=5 short_runs=5 --out BENCH_13.json
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SIDE = "parent on odd pairs, change on even pairs"
ORDERS = ((0, 1), (1, 0))  # the sides' run order, by pair number modulo 2
COMMAND = "python3 bench/run.py --workload W --seed S --seconds T --trace 0|1"
# --seconds lengthens only the untraced cycles, so a short traced run suffices
TRACE_SECONDS = 5.0
TRACE_RUNS = 3
_DIGEST = re.compile(r"^sim_digest: (\S+)", re.MULTILINE)
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """The result line of one benchmark run, with the run's ``sim_digest`` added."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = _DIGEST.search(proc.stdout)
    result["sim_digest"] = digest.group(1) if digest else None
    return result


def _spread(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``' default method) of the runs."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """"unresolved" when the parent's quartiles lie further apart than ``bound``
    (relative to its median) and not every change run beats every parent run;
    otherwise "within bound" when the median got worse by at most ``bound``,
    else "outside bound".
    """
    sign = -1.0 if better == "lower" else 1.0
    spread = (parent["q3"] - parent["q1"]) / abs(parent["median"])
    beats_all = min(sign * v for v in change["runs"]) > max(sign * v for v in parent["runs"])
    if spread > bound and not beats_all:
        return "unresolved"
    worse = sign * (parent["median"] - change["median"]) / abs(parent["median"])
    return "within bound" if worse <= bound else "outside bound"


def gain_resolved(parent: dict, change: dict, better: str, won: int, pairs: int) -> bool:
    """Whether the change won at least nine tenths of the ``pairs`` (``won`` counts
    the pairs where it was strictly better) and its median is better than the
    parent's by more than the parent's interquartile range."""
    sign = -1.0 if better == "lower" else 1.0
    gap = sign * (change["median"] - parent["median"])
    return 10 * won >= 9 * pairs and gap > parent["q3"] - parent["q1"]


def summarize(pairs: list[tuple[dict, dict]], metrics: dict[str, dict]) -> dict:
    """Summary of alternated (parent, change) result lines of one workload.

    ``metrics`` maps each end-to-end metric to its BENCHMARK.json entry,
    which gives ``better`` ("lower" or "higher") and the relative ``bound``.
    A pair counts for the change only when it is strictly better; ties count
    for neither side.
    """
    summary = {"pairs": len(pairs), "first_side": FIRST_SIDE}
    for metric, spec in metrics.items():
        values = [[side["metrics"][metric]["value"] for side in pair] for pair in pairs]
        sign = -1.0 if spec["better"] == "lower" else 1.0
        parent, change = (_spread([v[i] for v in values]) for i in range(len(SIDES)))
        won = sum(sign * (c - p) > 0.0 for p, c in values)
        summary[metric] = {
            "parent": parent,
            "change": change,
            "change_better_pairs": won,
            "median_change_pct": 100.0 * (change["median"] / parent["median"] - 1.0),
            "verdict": verdict(parent, change, spec["better"], spec["bound"]),
            "gain_resolved": gain_resolved(parent, change, spec["better"], won, len(pairs)),
        }
    for key in ("failed", "attempted"):
        summary[key] = {name: sum(pair[i][key] for pair in pairs)
                        for i, name in enumerate(SIDES)}
    digests = {name: sorted({pair[i]["sim_digest"] for pair in pairs})
               for i, name in enumerate(SIDES)}
    summary["sim_digest"] = digests
    summary["sim_digest_equal"] = digests["parent"] == digests["change"]
    return summary


def trace_medians(results: list[dict]) -> dict:
    """One side's traced result lines as one: the median of each metric."""
    return {
        "runs": len(results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "sim_digest": sorted({r["sim_digest"] for r in results}),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                   "unit": metric["unit"]}
            for name, metric in results[0]["metrics"].items()
        },
    }


def git_revision(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _sha1(checkout: Path, paths) -> str:
    """SHA-1 over the files ``paths`` in ``checkout``, in sorted path order: each
    file's path relative to the checkout, its length, then its bytes."""
    digest = hashlib.sha1()
    for path in sorted(paths):
        data = path.read_bytes()
        digest.update(b"%s\0%d\0" % (path.relative_to(checkout).as_posix().encode(), len(data)))
        digest.update(data)
    return digest.hexdigest()


def source_sha1(checkout: Path) -> str:
    """:func:`_sha1` over ``src/cellsched/*.py`` in ``checkout``."""
    return _sha1(checkout, checkout.glob("src/cellsched/*.py"))


def bench_sha1(checkout: Path) -> str:
    """:func:`_sha1` over ``BENCHMARK.json`` and every file under ``bench/`` in
    ``checkout``, leaving out the ``__pycache__`` that running the benchmark writes."""
    files = [path for path in checkout.glob("bench/**/*")
             if path.is_file() and "__pycache__" not in path.parts]
    return _sha1(checkout, files + list(checkout.glob("BENCHMARK.json")))


def source_lines(checkout: Path) -> int:
    """The number of non-blank lines in ``src/cellsched/*.py`` in ``checkout``."""
    return sum(1 for path in checkout.glob("src/cellsched/*.py")
               for line in path.read_text().splitlines() if line.strip())


def code_lines_by_module(checkout: Path) -> dict[str, int]:
    """The number of non-blank lines of each file of ``src/cellsched/*.py`` in
    ``checkout`` that hold a token other than a docstring or a ``#`` comment, keyed
    by file name in sorted order, so that code moved between modules shows as a move."""
    counts = {}
    for path in sorted(checkout.glob("src/cellsched/*.py")):
        text = path.read_text()
        docstrings = {  # where each module, class and function docstring starts
            (body[0].lineno, body[0].col_offset)
            for node in ast.walk(ast.parse(text)) if isinstance(node, _SCOPES)
            if (body := node.body) and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
        }
        rows = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in _NOT_CODE and token.start not in docstrings:
                rows.update(range(token.start[0], token.end[0] + 1))
        lines = text.splitlines()
        counts[path.name] = sum(1 for row in rows if lines[row - 1].strip())
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--plan", nargs="+", required=True, metavar="WORKLOAD=N",
                        help="workload and its number of pairs")
    parser.add_argument("--description", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = (args.parent, args.change)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    plan = {}
    for item in args.plan:  # all checked before the first run
        name, _, count = item.partition("=")
        if name in plan or name not in names or not count.isdigit() or int(count) < 1:
            print(f"error: --plan {item!r}: need WORKLOAD=N with N >= 1, each WORKLOAD "
                  f"once and one of {', '.join(names)}", file=sys.stderr)
            return 2
        plan[name] = int(count)

    by_module = {name: code_lines_by_module(checkout) for name, checkout in zip(SIDES, checkouts)}
    doc = {
        "description": args.description,
        "parent": git_revision(args.parent),
        "change": git_revision(args.change),
        "source_sha1": {name: source_sha1(checkout) for name, checkout in zip(SIDES, checkouts)},
        "bench_sha1": {name: bench_sha1(checkout) for name, checkout in zip(SIDES, checkouts)},
        "source_lines": {name: source_lines(checkout) for name, checkout in zip(SIDES, checkouts)},
        "code_lines": {name: sum(modules.values()) for name, modules in by_module.items()},
        "code_lines_by_module": by_module,
        "host": f"{os.cpu_count()} CPUs, {platform.system()}, "
                f"Python {platform.python_version()}; times scaled to the nominal "
                "host speed by bench/hostspeed.py",
        "command": COMMAND,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace_seconds": TRACE_SECONDS,
        "trace_runs": TRACE_RUNS,
        "pairs": {},
        "trace": {},
    }
    bench = doc["bench_sha1"]
    if bench["parent"] != bench["change"]:
        print(f"warning: bench_sha1 differs, parent {bench['parent']} -> "
              f"change {bench['change']}", file=sys.stderr)
    for workload, count in plan.items():
        pairs = []
        for k in range(count):
            pair = [None, None]
            for i in ORDERS[k % 2]:
                pair[i] = run_bench(checkouts[i], workload, args.seed, args.seconds, 0)
            pairs.append(tuple(pair))
            print(f"{workload} pair {k + 1}/{count}: wall_s "
                  f"{pair[0]['metrics']['wall_s']['value']:.4g} -> "
                  f"{pair[1]['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
        doc["pairs"][workload] = summary = summarize(pairs, metrics)
        if not summary["sim_digest_equal"]:
            print(f"warning: {workload}: sim_digest differs, parent "
                  f"{summary['sim_digest']['parent']} -> change "
                  f"{summary['sim_digest']['change']}", file=sys.stderr)
        traced = [[], []]
        for k in range(TRACE_RUNS):
            for i in ORDERS[k % 2]:
                traced[i].append(run_bench(checkouts[i], workload, args.seed, TRACE_SECONDS, 1))
        doc["trace"][workload] = {
            name: trace_medians(runs) for name, runs in zip(SIDES, traced)
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")  # keep what is done
    return 0


if __name__ == "__main__":
    sys.exit(main())
