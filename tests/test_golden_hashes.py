"""Golden hashes: the CLI's CSV outputs and a set of slot traces, pinned bit for bit.

Speed-ups of the slot loop and the experiment harness must leave every
number unchanged.  The SHA-1 values below were recorded before the slot loop
reused per-flow views and before experiments generated one workload per
seed; any change to them is a change of results and needs its own reason.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from cellsched import (
    BufferModel,
    ChannelConfig,
    SimConfig,
    StrategySpec,
    WorkloadConfig,
    run_simulation,
)
from cellsched.cli import git_blob_sha1, main

CLI_CONFIG = {
    "horizon": 2000,
    "replications": 2,
    "base_seed": 3,
    "workload": {"arrival_rate": 0.09, "rate_lo_mult": 0.2, "rate_hi_mult": 1.8},
    "strategies": ["T", "TK", "round_robin", "tas", "max_ci", "das", "pf"],
    "sweep": {"kind": "linear", "alpha_max": 1.0, "alpha_step": 0.5},
}

CLI_GOLDEN = {
    "run": ("ranking.csv", "962be2e773e893809d489e9148b5caa8b65f5760"),
    "sweep-linear": ("linear_sweep.csv", "35dae5de98b8b41dfeec1f0b997347ae9af2e92f"),
    "sweep-prob": ("prob_sweep.csv", "c327090f4aeff1cb78a871c30150a770ac3a3ce6"),
    "trace": ("trace.csv", "1274f9ab6e24d6cd27f2208a45b0ec19ea43c036"),
    "dump-workload": ("workload.csv", "9ae54fca6dd6d763924ea2deb8227402fbd07aed"),
}


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_csv_hash(tmp_path, capsys, command):
    config = dict(CLI_CONFIG)
    if command == "sweep-prob":
        config["sweep"] = {"kind": "probabilistic", "simplex_step": 0.5}
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps(config))  # JSON is valid YAML
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    name, expected = CLI_GOLDEN[command]
    digest = git_blob_sha1((out / name).read_bytes())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == {name: digest}
    assert digest == expected


TCP = BufferModel(mode="tcp-refill", rtt=3, initial_window=60.0, max_window=960.0)
_TAS = StrategySpec(kind="tas")
_DAS = StrategySpec(kind="das")
_T = StrategySpec(kind="T")

TRACE_CASES = {
    "probabilistic": StrategySpec(
        kind="probabilistic", children=(_T, _TAS, _DAS), weights=(0.3, 0.3, 0.4)
    ),
    "srpt": StrategySpec(kind="srpt"),
    "sectf": StrategySpec(kind="sectf"),
    "linear": StrategySpec(kind="linear", children=(_TAS, _DAS), weights=(1.0, 0.5)),
    "T-assigned": StrategySpec(kind="T", mean_rate_mode="assigned"),
    "TK-mean": StrategySpec(kind="TK", tk_variant="mean"),  # reads rate_sum after waits
    "tas-rtt0": _TAS,
    "tas-rtt1": _TAS,
}

TRACE_GOLDEN = {
    "probabilistic": "7eebd406f5ab4f6f8663cf2925b8712587408292",
    "srpt": "8c24438e68e380dbbd0dbd455334c53f5c5392be",
    "sectf": "22a32bc7328104e126aee24243837711049cf75c",
    "linear": "c0076c339a4fd0d015dba6c5d4d205834e7fc8a0",
    "T-assigned": "754a7f6b1435a8ffc82150bdcd5be9b260e41d49",
    "TK-mean": "92493d6f350a4db5f040e4e27651fb1b22220268",
    "tas-rtt0": "6b0805ca4e34d49662ca38dfeeef96f8a726ff81",
    "tas-rtt1": "26010968be92ea0df399118d364bcc981235943b",
}


def trace_digest(result) -> str:
    """SHA-1 over the exact bits of every record and trace event."""
    h = hashlib.sha1()
    for r in result.records:
        h.update(f"{r.file_size.hex()},{r.arrival},{r.departure};".encode())
    h.update(f"|{result.unfinished}|".encode())
    for e in result.trace:
        h.update(f"{e.t},{e.chosen_id},{e.transfer.hex()},{e.active_count};".encode())
    return h.hexdigest()


def trace_config(case: str) -> SimConfig:
    config = SimConfig(
        workload=WorkloadConfig(
            arrival_rate=0.12,
            rate_lo_mult=0.2,
            rate_hi_mult=1.8,
            horizon=1500,
            seed=7,
        ),
        strategy=TRACE_CASES[case],
        buffer=TCP,
    )
    if case == "linear":
        # the moving envelope and a run cut off at the horizon
        config = replace(
            config,
            channel=ChannelConfig(envelope_mode="time_varying", envelope_freq=0.01),
            drain_after_horizon=False,
        )
    if case.startswith("tas-rtt"):
        # rtt 0: a refill lands on the slot after the buffer empties, before that
        # slot's decision, so no slot waits; rtt 1: every wait lasts one slot
        config = replace(config, buffer=replace(TCP, rtt=int(case[-1])))
    return config


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_tcp_refill_trace_hash(case):
    result = run_simulation(trace_config(case), collect_trace=True)
    assert trace_digest(result) == TRACE_GOLDEN[case]
