"""No function in ``src/cellsched`` is there only for the tests.

A fresh interpreter runs the product paths under ``sys.setprofile``: the five
CLI commands on two small configs, which together name every strategy kind,
both buffers and both envelopes, and a few traced library runs that read
their traces.  Every ``def`` in the package, found with ``ast``, must be
called on the way, unless ``ALLOWED`` names it with the reason it stays; an
allowed function that the product paths do call fails too, so the list
cannot go stale.  A function is matched on its file, its name and its
first line, which for a decorated function is its first decorator's.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "cellsched"

# functions that no product path calls, each with what keeps it
ALLOWED = {
    "simcore.py:SimConfig.horizon": "bench/tracer.py reads it on every traced run",
    "metrics.py:paired": "scripts/ranking_evidence.py and criterion 2 call it",
}

# Config 1: the infinite buffer, the literal envelope and every kind that it
# serves.  Config 2: tcp-refill, a moving envelope and no drain; tas comes
# first, so `trace` runs a strategy that skips its waits' rates with
# FlowRateStream.skip, and `run` replays them through RateRecord.skip.
CONFIGS = [
    {
        "horizon": 300,
        "replications": 2,
        "strategies": [
            "round_robin", "max_ci", "tas", "das", "pf", "srpt", "T", "TK",
            {"kind": "TK", "tk_variant": "mean"},
            {"kind": "linear", "children": ["tas", "das"], "weights": [1.0, 0.5]},
            {"kind": "probabilistic", "children": ["T", "tas", "das"],
             "weights": [0.25, 0.5, 0.25]},
        ],
        "sweep": {"alpha_max": 0.2, "alpha_step": 0.1, "simplex_step": 0.5},
    },
    {
        "horizon": 300,
        "replications": 2,
        "drain_after_horizon": False,
        "buffer": {"mode": "tcp-refill", "rtt": 5},
        "channel": {"envelope_mode": "time_varying", "envelope_freq": 0.01},
        "strategies": ["tas", "sectf", "T"],
        "sweep": {"kind": "probabilistic", "alpha_max": 0.1, "alpha_step": 0.1,
                  "simplex_step": 1.0},
    },
]

# Runs in a fresh interpreter, so no cache of an earlier test hides a call:
# argv is the package directory, a work directory and the configs as JSON.
DRIVER = """
import contextlib, io, json, sys
package, work, configs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
reached = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        reached.add((code.co_filename, code.co_name, code.co_firstlineno))

sys.setprofile(profile)
from cellsched import BufferModel, SimConfig, StrategySpec, WorkloadConfig, run_simulation
from cellsched.cli import _COMMANDS, main
with contextlib.redirect_stdout(io.StringIO()):
    for i, config in enumerate(configs):
        path = f"{work}/config{i}.yaml"
        with open(path, "w") as handle:
            json.dump(config, handle)  # JSON is YAML
        for command in _COMMANDS:  # the five subcommands
            assert main([command, "--config", path, "--out", f"{work}/{i}/{command}"]) == 0
for seed, buffer in enumerate([BufferModel(), BufferModel("tcp-refill")]):
    workload = WorkloadConfig(arrival_rate=0.3, horizon=60, seed=seed)
    trace = run_simulation(SimConfig(workload, StrategySpec("TK"), buffer=buffer),
                           collect_trace=True).trace
    assert len(trace) == sum(1 for _ in trace) >= 60
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def _defs() -> dict[tuple[str, str, int], str]:
    """Every function defined in the package, by (file, name, first line), to its
    ``file:qualified.name``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), child.name, first] = f"{path.name}:{qualname}"
                visit(child, path, qualname + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def _reached(tmp_path) -> set[tuple[str, str, int]]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(PACKAGE), str(tmp_path), json.dumps(CONFIGS)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return {tuple(entry) for entry in json.loads(proc.stdout)}


def test_every_src_function_runs_on_a_product_path(tmp_path):
    defs = _defs()
    assert len(defs) > 60 and set(ALLOWED) <= set(defs.values())
    unreached = {defs[key] for key in set(defs) - _reached(tmp_path)}
    assert sorted(unreached - set(ALLOWED)) == [], "called only by tests, or by nothing"
    assert sorted(set(ALLOWED) - unreached) == [], "allowed, but a product path calls it"
