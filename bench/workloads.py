"""The benchmark's workloads: inputs made from the seed, timed parts, checks.

Each workload is a list of parts.  A part is one closed-loop operation with
one caller: a ``cellsched.cli.main`` call for the two CLI workloads, a chunk
of ``run_simulation`` calls for ``short_runs``.  Parts use distinct inputs,
so one cycle over them covers more distinct work than a single part would.
``run_part`` is the timed region; ``check_part`` runs after it, untimed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import replace
from pathlib import Path

from cellsched import cli, metrics, simcore
from cellsched.experiments import RANKING_KINDS, experiment_from_dict
from cellsched.workload import generate_workload


def blob_sha1(data: bytes) -> str:
    """Git blob SHA-1, recomputed here so the check does not trust the program's own."""
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


class CliWorkload:
    """``cellsched.cli.main([command, ...])`` in-process, one call per part."""

    command: str
    mapping: dict
    csv_name: str
    rows: int

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.yaml"
        # JSON is valid YAML, and the CLI reads its config with yaml.safe_load.
        self.config_path.write_text(json.dumps(self.mapping, indent=2) + "\n")
        reps = self.mapping["replications"]
        # part k replicates on base seeds base, base+1, ...; no two parts or
        # two benchmark seeds share a replication seed
        self.bases = [
            (seed * self.parts + k) * reps for k in range(self.parts)
        ]

    @property
    def config_mappings(self) -> list[dict]:
        return [self.mapping]

    def run_part(self, k: int):
        argv = [
            self.command,
            "--config",
            str(self.config_path),
            "--seed",
            str(self.bases[k]),
            "--out",
            str(self.workdir / f"part{k}"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def ops(self, k: int) -> int:
        return 1

    def check_part(self, k: int, exit_code) -> tuple[str | None, int, list[str]]:
        """Verify one part's files on disk; returns (digest piece, failed ops, problems)."""
        out = self.workdir / f"part{k}"
        if exit_code != 0:
            return None, 1, [f"part {k}: cli exit code {exit_code}"]
        manifest = json.loads((out / "manifest.json").read_text())
        problems = []
        reps = self.mapping["replications"]
        if manifest["seeds"] != [self.bases[k] + i for i in range(reps)]:
            problems.append(f"part {k}: manifest seeds {manifest['seeds']}")
        outputs = manifest["outputs"]
        if list(outputs) != [self.csv_name]:
            problems.append(f"part {k}: manifest outputs {sorted(outputs)}")
            return None, 1, problems
        data = (out / self.csv_name).read_bytes()
        if blob_sha1(data) != outputs[self.csv_name]:
            problems.append(f"part {k}: {self.csv_name} does not match its manifest hash")
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != self.rows:
            problems.append(f"part {k}: {len(rows)} rows, expected {self.rows}")
        for row in rows:
            for key in ("logalpt_mean", "logalpt_std"):
                if not math.isfinite(float(row[key])):
                    problems.append(f"part {k}: {key}={row[key]} is not finite")
        return outputs[self.csv_name], int(bool(problems)), problems


class ReferenceRanking(CliWorkload):
    """``cellsched run`` on the reference setup with the seven ranking strategies."""

    name = "reference_ranking"
    command = "run"
    csv_name = "ranking.csv"
    parts = 72  # 1008 runs of 1000 slots
    mapping = {
        "horizon": 1000,
        "replications": 2,
        "workload": {"arrival_rate": 0.09},
        "buffer": {"mode": "infinite"},
        "strategies": list(RANKING_KINDS),
    }
    rows = len(RANKING_KINDS)


class LoadedSweep(CliWorkload):
    """``cellsched sweep-prob`` at 0.6x channel rates over a six-point simplex."""

    name = "loaded_sweep"
    command = "sweep-prob"
    csv_name = "prob_sweep.csv"
    parts = 42  # 504 runs of 1000 slots
    mapping = {
        "horizon": 1000,
        "replications": 2,
        "workload": {"arrival_rate": 0.09, "rate_lo_mult": 0.2, "rate_hi_mult": 1.8},
        "sweep": {"kind": "probabilistic", "simplex_step": 0.5},
    }
    rows = 6  # simplex_step 0.5: the T, tas and das vertices and their midpoints


# atomic kinds of the randomized short runs; sectf needs a tcp-refill buffer
SHORT_KINDS = ("round_robin", "max_ci", "tas", "das", "pf", "srpt", "T", "TK")


class ShortRuns:
    """Library-API loop over randomized tiny configs, each collecting its slot trace."""

    name = "short_runs"
    runs = 2000
    parts = 200

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.config_mappings = [self._draw(rng) for _ in range(self.runs)]
        self.configs = []
        for mapping in self.config_mappings:
            exp = experiment_from_dict(mapping)
            self.configs.append(
                replace(
                    exp.sim,
                    strategy=exp.strategies[0],
                    workload=replace(exp.sim.workload, seed=exp.base_seed),
                )
            )
        size = -(-self.runs // self.parts)
        self.chunks = [
            self.configs[i : i + size] for i in range(0, self.runs, size)
        ]

    @staticmethod
    def _draw(rng: random.Random) -> dict:
        mapping = {
            "horizon": rng.randint(20, 80),
            "workload": {"arrival_rate": rng.uniform(0.05, 0.4)},
        }
        if rng.random() < 0.5:
            mapping["buffer"] = {"mode": "infinite"}
        else:
            initial = rng.uniform(50.0, 200.0)
            mapping["buffer"] = {
                "mode": "tcp-refill",
                "rtt": rng.randint(0, 8),
                "initial_window": initial,
                "max_window": initial * rng.uniform(1.0, 4.0),
            }
        mapping["strategies"] = [rng.choice(SHORT_KINDS)]
        mapping["base_seed"] = rng.randrange(2**31)
        return mapping

    def ops(self, k: int) -> int:
        return len(self.chunks[k])

    def run_part(self, k: int):
        results = []
        reports = []
        for config in self.chunks[k]:
            result = simcore.run_simulation(config, collect_trace=True)
            if result.records:
                reports.append(metrics.summarize(result.records, result.unfinished))
            results.append(result)
        if len(reports) >= 2:
            metrics.aggregate(reports)
        return results

    def check_part(self, k: int, results) -> tuple[str | None, int, list[str]]:
        """Flow accounting, drain completion and per-flow byte conservation."""
        problems = []
        failed = 0
        digest = hashlib.sha1()
        for j, (config, result) in enumerate(zip(self.chunks[k], results)):
            where = f"part {k} run {j}"
            before = len(problems)
            flows = generate_workload(config.workload)
            if len(result.records) + result.unfinished != len(flows):
                problems.append(f"{where}: records + unfinished != {len(flows)} flows")
            if result.unfinished != 0:
                problems.append(f"{where}: {result.unfinished} flows unfinished")
            delivered: dict[int, float] = {}
            for event in result.trace:
                if event.chosen_id is not None:
                    delivered[event.chosen_id] = (
                        delivered.get(event.chosen_id, 0.0) + event.transfer
                    )
            for flow in flows:
                got = delivered.get(flow.id, 0.0)
                if not math.isclose(got, flow.file_size, rel_tol=1e-9):
                    problems.append(
                        f"{where}: flow {flow.id} received {got} of {flow.file_size}"
                    )
            failed += len(problems) > before
            for r in result.records:
                digest.update(
                    f"{r.file_size.hex()},{r.arrival},{r.departure};".encode()
                )
            digest.update(f"|{len(result.trace)}|".encode())
        if len(results) != len(self.chunks[k]):
            failed = len(self.chunks[k])
            problems.append(f"part {k}: {len(results)} results")
        return digest.hexdigest(), failed, problems


WORKLOADS = {w.name: w for w in (ReferenceRanking, LoadedSweep, ShortRuns)}
