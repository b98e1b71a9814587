"""Metamorphic relations: pairs of whole runs that the model's symmetries tie bit for bit.

Each relation changes one config in a way whose effect on the run is known
exactly, whatever README says about the model, and checks the two runs
against each other (Chen, Cheung & Yiu, "Metamorphic testing", 1998):

- *scale*: every ``scale_kb``, and under ``tcp-refill`` both windows, times
  c = 2^k gives the same choices and active counts, c times every transfer
  and every file size, and the same slots.  A power of two scales every byte
  count, mean rate and draw without rounding, and every index either keeps
  its value or scales by a power of c, so no comparison changes;
- *shift*: the flows s slots later and the horizon s slots longer give s
  idle slots, then the same trace, with every record s slots later;
- *buffer*: ``tcp-refill`` with both windows 10^300 stages every file whole,
  so at any rtt it is the infinite buffer;
- *envelope*: ``time_varying`` at ``envelope_freq: 0`` is ``literal`` at
  ``envelope_freq: 0``, since both read E at the argument ``phase``.

The configs are small random ones like acceptance criterion 9's, but each
relation cycles through the strategies instead of drawing them, so a fault
in one index shows whatever the seed, and the scale relation uses both
extreme factors.
"""

from __future__ import annotations

import dataclasses
import random

from cellsched import (
    BufferModel, ChannelConfig, ParetoMixture, SimConfig, StrategySpec, WorkloadConfig,
    generate_workload, run_simulation,
)
from cellsched.simcore import Trace
from cellsched.strategies import ATOMIC_KINDS

T, TAS, DAS, PF, MAX_CI = (StrategySpec(kind=k) for k in ("T", "tas", "das", "pf", "max_ci"))
STRATEGIES = (
    *(StrategySpec(kind=k) for k in ATOMIC_KINDS),
    StrategySpec(kind="TK", tk_variant="mean"),
    StrategySpec(kind="T", mean_rate_mode="assigned"),
    # Each sum's children scale by one power of c: tas and max_ci by c, das
    # and pf not at all.  A sum like tas + das is left out of the scale
    # relation, since c * tas + das can order two flows unlike tas + das.
    StrategySpec(kind="linear", children=(TAS, MAX_CI), weights=(1.0, 0.5)),
    StrategySpec(kind="linear", children=(DAS, PF), weights=(1.0, 2.0)),
    StrategySpec(kind="probabilistic", children=(T, TAS, DAS), weights=(0.4, 0.3, 0.3)),
)
CASES = 28  # twice through STRATEGIES
SCALE_EXPONENTS = (-3, 5)
HUGE_WINDOW = 1e300


def cases(strategies, seed):
    """``CASES`` small configs that take ``strategies`` in turn, half of them (and
    every ``sectf`` one) under ``tcp-refill``."""
    rng = random.Random(seed)
    for case in range(CASES):
        strategy = strategies[case % len(strategies)]
        workload = WorkloadConfig(arrival_rate=rng.uniform(0.05, 0.4),
                                  horizon=rng.randint(20, 200), seed=seed + case)
        initial = rng.uniform(50.0, 200.0)
        buffer = BufferModel()
        if case % 2 or strategy.uses_buffer:
            buffer = BufferModel(mode="tcp-refill", rtt=rng.randint(0, 8),
                                 initial_window=initial,
                                 max_window=initial * rng.uniform(1.0, 4.0))
        yield case, SimConfig(workload=workload, strategy=strategy, buffer=buffer)


def run(config, **kwargs):
    return run_simulation(config, collect_trace=True, **kwargs)


def scaled(config, c):
    """``config`` with every file-size scale, and any tcp-refill window, times ``c``."""
    mixture = config.workload.size_mixture
    components = tuple((w, c * m) for w, m in mixture.components)
    workload = dataclasses.replace(config.workload, size_mixture=ParetoMixture(
        components=components, alpha=mixture.alpha))
    buffer = config.buffer
    if buffer.mode == "tcp-refill":
        buffer = dataclasses.replace(buffer, initial_window=c * buffer.initial_window,
                                     max_window=c * buffer.max_window)
    return dataclasses.replace(config, workload=workload, buffer=buffer)


def test_scaling_every_size_by_a_power_of_two_scales_every_byte_count():
    for case, config in cases(STRATEGIES, seed=1300):
        base = run(config)
        for k in SCALE_EXPONENTS:
            c = 2.0 ** k
            other = run(scaled(config, c))
            label = f"case {case}, {config.strategy.label()}, c = 2^{k}"
            assert other.trace.chosen_ids == base.trace.chosen_ids, label
            assert other.trace.active_counts == base.trace.active_counts, label
            assert other.trace.transfers == tuple(c * x for x in base.trace.transfers), label
            assert other.records == tuple((c * f, a, d) for f, a, d in base.records), label


# A probabilistic strategy draws its choice stream once a slot from slot 0,
# so a shift hands each slot another draw; a time-varying envelope reads the
# slot, so a shift moves every rate.  Both stay out; the literal default
# envelope reads none.
SHIFT_STRATEGIES = tuple(s for s in STRATEGIES if s.kind != "probabilistic")


def test_shifting_every_arrival_shifts_the_run():
    rng = random.Random(1301)
    for case, config in cases(SHIFT_STRATEGIES, seed=1301):
        s = rng.randint(1, 300)
        base = run(config)
        flows = [dataclasses.replace(f, arrival_slot=f.arrival_slot + s)
                 for f in generate_workload(config.workload)]
        workload = dataclasses.replace(config.workload, horizon=config.workload.horizon + s)
        other = run(dataclasses.replace(config, workload=workload), flows=flows)
        label = f"case {case}, {config.strategy.label()}, s = {s}"
        assert other.trace == Trace((None,) * s + base.trace.chosen_ids,
                                    (0.0,) * s + base.trace.transfers,
                                    (0,) * s + base.trace.active_counts), label
        assert other.records == tuple((f, a + s, d + s) for f, a, d in base.records), label


# sectf reads the buffer, so the infinite buffer refuses it.
BUFFER_STRATEGIES = tuple(s for s in STRATEGIES if not s.uses_buffer)


def test_windows_no_file_fills_are_the_infinite_buffer():
    rng = random.Random(1302)
    for case, config in cases(BUFFER_STRATEGIES, seed=1302):
        infinite = dataclasses.replace(config, buffer=BufferModel())
        huge = dataclasses.replace(config, buffer=BufferModel(
            mode="tcp-refill", rtt=rng.randint(0, 50),
            initial_window=HUGE_WINDOW, max_window=HUGE_WINDOW))
        assert run(huge) == run(infinite), f"case {case}, {config.strategy.label()}"


def test_a_still_time_varying_envelope_is_the_literal_one():
    rng = random.Random(1303)
    for case, config in cases(STRATEGIES, seed=1303):
        phase = rng.uniform(0.0, 3.0)
        literal, moving = (
            dataclasses.replace(config, channel=ChannelConfig(
                envelope_freq=0.0, envelope_phase=phase, envelope_mode=mode))
            for mode in ("literal", "time_varying"))
        assert run(moving) == run(literal), f"case {case}, {config.strategy.label()}"
