"""Command-line entry point: runs the experiments, writes each one's CSV and manifest.

Subcommands:
  run            strategy ranking table (logALPT/ALPT mean +/- std per strategy)
  sweep-linear   logALPT curve of the linear index I_tas + alpha * I_das
  sweep-prob     logALPT surface of the probabilistic {T, tas, das} mixture
  dump-workload  CSV of the generated arrival stream for the base seed
  trace          per-slot service trace of one run of the first strategy

Configuration comes from an optional YAML file (--config); --seed, --replications
and --out override it.  Without a config the reference setup is used.  Exit code 0
on success or when the reader of stdout leaves early, 2 on any expected error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from .errors import CellschedError
from .experiments import (
    ExperimentConfig,
    experiment_from_dict,
    experiment_to_dict,
    run_experiment,
    sweep_linear,
    sweep_probabilistic,
)
from .simcore import run_simulation
from .workload import generate_workload


class _UniqueKeys:
    """A safe loader's check that no key is given twice in one mapping.

    Each mapping's own keys are checked before its merge keys (``<<``) are
    flattened into it, so a key may still override one that a merge brings.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._checked = set()  # a node merged more than once is flattened each time

    def flatten_mapping(self, node):
        if node not in self._checked:
            self._checked.add(node)
            seen = set()
            for key, _ in node.value:
                if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                    if (key.tag, key.value) in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found duplicate key {key.value!r}", key.start_mark)
                    seen.add((key.tag, key.value))
        super().flatten_mapping(node)


class _LOADER(_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The config loader: libyaml's scanner when PyYAML is built with it."""


TABLE_HEADER = (
    "strategy",
    "logalpt_mean",
    "logalpt_std",
    "alpt_mean",
    "alpt_std",
    "replications",
    "completed",
    "unfinished",
)
CURVE_HEADER = ("alpha", "logalpt_mean", "logalpt_std")
SURFACE_HEADER = ("p_t", "p_tas", "p_das", "logalpt_mean", "logalpt_std")
WORKLOAD_HEADER = ("id", "arrival_slot", "file_size_kb", "mean_rate_kbps")
TRACE_HEADER = ("t", "chosen_id", "transfer_kb", "active_count")


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return experiment_from_dict({})
    # bytes: PyYAML detects the encoding and rejects invalid text as a YAMLError
    with open(path, "rb") as handle:
        data = yaml.load(handle, Loader=_LOADER)
    return experiment_from_dict({} if data is None else data)  # None: an empty file


def apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    given = dict(base_seed=args.seed, replications=args.replications, output=args.out)
    return replace(config, **{k: v for k, v in given.items() if v is not None})


def _emit(config: ExperimentConfig, name: str, filename: str, write, rows) -> Path:
    """Write ``rows`` to <out>/``filename`` with ``write``, then the manifest beside it.

    <out> is the config's output directory; returns the CSV path.
    """
    out = Path(config.output)
    data = write(out / filename, rows)
    write_manifest(out, name, config, {filename: git_blob_sha1(data)})
    return out / filename


def _write_csv(path: Path, header, rows) -> bytes:
    """Write the CSV in one go and return the bytes written."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    data = text.getvalue().encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return data


def write_ranking_csv(path, scores) -> bytes:
    rows = [
        (
            label,
            agg.log_alpt_mean,
            agg.log_alpt_std,
            agg.alpt_mean,
            agg.alpt_std,
            agg.replications,
            agg.completed_total,
            agg.unfinished_total,
        )
        for label, agg in scores
    ]
    return _write_csv(Path(path), TABLE_HEADER, rows)


def write_curve_csv(path, curve) -> bytes:
    rows = [(a, agg.log_alpt_mean, agg.log_alpt_std) for a, agg in curve]
    return _write_csv(Path(path), CURVE_HEADER, rows)


def write_surface_csv(path, surface) -> bytes:
    rows = [
        (p[0], p[1], p[2], agg.log_alpt_mean, agg.log_alpt_std)
        for p, agg in surface
    ]
    return _write_csv(Path(path), SURFACE_HEADER, rows)


def write_workload_csv(path, flows) -> bytes:
    rows = [(f.id, f.arrival_slot, f.file_size, f.mean_rate) for f in flows]
    return _write_csv(Path(path), WORKLOAD_HEADER, rows)


def write_trace_csv(path, events) -> bytes:
    return _write_csv(Path(path), TRACE_HEADER, events)  # csv writes a None id as ""


def git_blob_sha1(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def write_manifest(out_dir, name: str, config: ExperimentConfig, outputs: dict) -> Path:
    """Write <out_dir>/manifest.json echoing the config, seeds, and file hashes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "experiment": name,
        "seeds": list(config.seeds),
        "config": experiment_to_dict(config),
        "outputs": outputs,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _pm(mean: float, std: float) -> str:
    return f"{mean:8.3f} ± {std:.3f}"


def cmd_run(config: ExperimentConfig) -> None:
    """strategy ranking table (logALPT/ALPT mean +/- std per strategy)"""
    scores = run_experiment(config)
    path = _emit(config, "ranking", "ranking.csv", write_ranking_csv, scores)
    table = [("strategy", "logALPT", "ALPT")] + [
        (label, _pm(agg.log_alpt_mean, agg.log_alpt_std), _pm(agg.alpt_mean, agg.alpt_std))
        for label, agg in scores
    ]
    label_w, log_w, alpt_w = (max(map(len, column)) for column in zip(*table))
    for label, log_cell, alpt_cell in table:
        print(f"{label:<{label_w}}  {log_cell:>{log_w}}  {alpt_cell:>{alpt_w}}")
    print(f"wrote {path}")


def cmd_sweep_linear(config: ExperimentConfig) -> None:
    """logALPT curve of the linear index I_tas + alpha * I_das"""
    curve = sweep_linear(config)
    best_alpha, best = max(curve, key=lambda row: row[1].log_alpt_mean)
    path = _emit(config, "sweep-linear", "linear_sweep.csv", write_curve_csv, curve)
    for alpha, agg in curve:
        print(f"alpha={alpha:<5g} logALPT {_pm(agg.log_alpt_mean, agg.log_alpt_std)}")
    print(f"best alpha: {best_alpha:g} (logALPT {best.log_alpt_mean:.3f})")
    print(f"wrote {path}")


def cmd_sweep_prob(config: ExperimentConfig) -> None:
    """logALPT surface of the probabilistic {T, tas, das} mixture"""
    surface = sweep_probabilistic(config)
    best_p, best = max(surface, key=lambda row: row[1].log_alpt_mean)
    path = _emit(config, "sweep-prob", "prob_sweep.csv", write_surface_csv, surface)
    for point, agg in surface:
        print(
            f"p=({point[0]:g},{point[1]:g},{point[2]:g}) "
            f"logALPT {_pm(agg.log_alpt_mean, agg.log_alpt_std)}"
        )
    print(
        f"best mixture: (p_t,p_tas,p_das)=({best_p[0]:g},{best_p[1]:g},{best_p[2]:g})"
        f" (logALPT {best.log_alpt_mean:.3f})"
    )
    print(f"wrote {path}")


def cmd_dump_workload(config: ExperimentConfig) -> None:
    """CSV of the generated arrival stream for the base seed"""
    workload = replace(config.sim.workload, seed=config.base_seed)
    flows = generate_workload(workload)
    path = _emit(config, "dump-workload", "workload.csv", write_workload_csv, flows)
    print(f"wrote {path} ({len(flows)} flows)")


def cmd_trace(config: ExperimentConfig) -> None:
    """per-slot service trace of one run of the first strategy"""
    spec, workload = config.strategies[0], replace(config.sim.workload, seed=config.base_seed)
    run = replace(config.sim, strategy=spec, workload=workload)
    result = run_simulation(run, collect_trace=True)
    path = _emit(config, "trace", "trace.csv", write_trace_csv, result.trace)
    print(
        f"wrote {path} ({len(result.trace)} slots, "
        f"{len(result.records)} completions, strategy {spec.label()})"
    )


_COMMANDS = {
    "run": cmd_run,
    "sweep-linear": cmd_sweep_linear,
    "sweep-prob": cmd_sweep_prob,
    "dump-workload": cmd_dump_workload,
    "trace": cmd_trace,
}


@functools.cache  # parse_args leaves the parser as it was: build it once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellsched",
        description="Slot-based downlink scheduling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--seed", type=int, help="base replication seed")
        p.add_argument("--replications", type=int, help="replication count")
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](apply_overrides(load_config(args.config), args))
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return 0
    except BrokenPipeError:  # the reader of stdout left; the files are written first
        if sys.stdout is sys.__stdout__:  # Python flushes it at exit: point it at devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (CellschedError, OSError, yaml.YAMLError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
