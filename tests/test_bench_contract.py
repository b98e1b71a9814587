"""The package names the host-speed benchmark patches from outside.

``bench/tracer.py`` wraps module globals and class attributes of the
unmodified package (``serve_slot`` counts slots, ``SimConfig.horizon`` marks
drain slots).  A refactor that inlines or renames one of them makes every
traced benchmark run fail or silently read 0; this test runs the
benchmark's instruments on two tiny library runs and two tiny CLI runs,
``run`` and ``sweep-prob``, so every name it patches is reached.  The
second library run passes through idle and single-flow stretches with a
probabilistic strategy, where the slot loop skips the decision but still
calls ``serve_slot`` once per slot.

Every config mapping the benchmark's workloads build must also decode: a
loader change that rejected one (``loaded_sweep`` writes ``sweep.kind``)
would fail every run of that workload.  The manifest echo of each
``short_runs`` config must decode to the same config again.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

from cellsched import BufferModel, SimConfig, StrategySpec, WorkloadConfig, cli, simcore
from cellsched.experiments import experiment_from_dict, experiment_to_dict

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracer import TARGETS, RunTimer, SlotCounter, Tracer  # noqa: E402
from workloads import LoadedSweep, ReferenceRanking, ShortRuns  # noqa: E402


def test_instruments_see_every_patched_name(tmp_path):
    tracer, counter, timer = Tracer(), SlotCounter(), RunTimer()
    mixture = StrategySpec(
        kind="probabilistic",
        children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
        weights=(0.5, 0.5),
    )
    configs = [
        SimConfig(
            workload=WorkloadConfig(arrival_rate=0.3, horizon=40, seed=5),
            strategy=StrategySpec(kind="pf"),
            buffer=BufferModel(mode="tcp-refill", rtt=2, initial_window=50.0),
        ),
        # sparse arrivals: idle and single-flow stretches between contended slots
        SimConfig(
            workload=WorkloadConfig(arrival_rate=0.05, horizon=300, seed=3),
            strategy=mixture,
        ),
    ]
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        json.dumps({"horizon": 200, "replications": 2, "strategies": ["tas", "T"]})
    )
    sweep_path = tmp_path / "sweep.yaml"
    sweep_path.write_text(
        json.dumps({"horizon": 200, "replications": 2, "sweep": {"simplex_step": 0.5}})
    )
    argvs = [
        ["run", "--config", str(config_path), "--out", str(tmp_path / "out")],
        ["sweep-prob", "--config", str(sweep_path), "--out", str(tmp_path / "sweep")],
    ]

    with contextlib.ExitStack() as stack:
        for instrument in (tracer, counter, timer):
            stack.enter_context(instrument.installed())
        slots = 0
        for config in configs:
            trace = simcore.run_simulation(config, collect_trace=True).trace
            slots += len(trace)
            assert counter.slots == slots
            assert tracer.layer_metrics()["simcore.slots"] == (slots, "count")
        active_counts = {e.active_count for e in trace}
        assert {0, 1} < active_counts
        with contextlib.redirect_stdout(io.StringIO()):
            assert [cli.main(argv) for argv in argvs] == [0, 0]

    calls = Counter(tracer.names[k] for k in tracer.name)
    assert not [name for name in TARGETS if not calls[name]]
    assert len(timer.latencies) == calls["simcore.run_simulation"]
    assert tracer.layer_metrics()["simcore.slots"] == (counter.slots, "count")


def test_loader_decodes_every_benchmark_config(tmp_path):
    for workload in (ReferenceRanking, LoadedSweep):
        # the CLI workloads write their mapping to a file and pass --config
        config_path = workload(1, tmp_path / workload.name).config_path
        config = cli.load_config(str(config_path))
        assert config == experiment_from_dict(workload.mapping)
    assert config.sweep.kind == "probabilistic"
    mappings = ShortRuns(1, tmp_path).config_mappings
    assert len(mappings) == ShortRuns.runs
    for mapping in mappings:
        experiment_from_dict(mapping)


def test_short_runs_configs_round_trip(tmp_path):
    # the decoder on the inputs it serves: each mapping's manifest echo
    # decodes to the config the mapping gave
    for mapping in ShortRuns(1, tmp_path).config_mappings:
        config = experiment_from_dict(mapping)
        assert experiment_from_dict(experiment_to_dict(config)) == config
