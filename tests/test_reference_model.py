"""The simulator against the independent reference of the documented slot model.

Both replay the same generated workloads with the same per-flow channel
streams, and a probabilistic mixture draws from the same choice stream, so
for every index the reference knows and for linear sums and mixtures of
them, under the infinite and the ``tcp-refill`` buffer, in both envelope
modes and with the drain on or off, the served sequence, the completed
flow records and the count of unfinished flows must agree exactly, slot
for slot, also for runs that replay one seed's rates from a shared source.
The last test draws its configs at random, the way acceptance criterion 9
does.
"""

from __future__ import annotations

import math
import random

import pytest

from cellsched import (
    BufferModel, ChannelConfig, ParetoMixture, SimConfig, StrategySpec, WorkloadConfig,
    generate_workload, run_simulation,
)
from cellsched.channel import SharedRateSource

from reference_model import BUFFER_INDICES, INDICES, Linear, simulate

T, TAS, DAS = (StrategySpec(kind=kind) for kind in ("T", "tas", "das"))
# the README's other parameters of T and TK, srpt, two mixtures: one like
# loaded_sweep's {T, tas, das}, and one whose first child has zero weight, and
# three linear sums: one of the sweep-linear family, one whose zero weight
# masks das's +inf for a flow never served, and one of three children
MIXTURE = StrategySpec(kind="probabilistic", children=(T, TAS, DAS), weights=(0.5, 0.25, 0.25))
LINEAR = StrategySpec(kind="linear", children=(TAS, DAS), weights=(1.0, 0.5))
MORE_SPECS = (
    StrategySpec(kind="srpt"),
    StrategySpec(kind="TK", tk_variant="mean"),
    StrategySpec(kind="TK", tk_variant="mean", mean_rate_mode="assigned"),
    StrategySpec(kind="T", mean_rate_mode="assigned"),
    StrategySpec(kind="T", c_const=20.0),
    MIXTURE,
    StrategySpec(kind="probabilistic", children=(DAS, T), weights=(0.0, 1.0)),
    LINEAR,
    StrategySpec(kind="linear", children=(T, DAS), weights=(1.0, 0.0)),
    StrategySpec(kind="linear", weights=(1.0, 0.5, 0.01), children=(
        StrategySpec(kind="T", mean_rate_mode="assigned"), StrategySpec(kind="pf"),
        StrategySpec(kind="max_ci"))),
)
RANKING_SPECS = tuple(StrategySpec(kind=kind) for kind in sorted(INDICES))
BUFFER_SPECS = tuple(StrategySpec(kind=kind) for kind in sorted(BUFFER_INDICES))

SEEDS = (1, 2, 3)
HORIZON = 4000
# tcp-refill (rtt, initial_window, max_window): refills that land on the next
# slot or after a wait, and windows that reach the cap or stay below it
TCP_BUFFERS = tuple((rtt, initial, top) for rtt in (0, 1, 3)
                    for initial, top in ((1000.0, 64000.0), (500.0, 2000.0)))


def _first_difference(got, want) -> int:
    return next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
        min(len(got), len(want)),
    )


def _rule(spec):
    """The reference's name of ``spec``: its label, or its children's (label, weight)
    pairs, as they are for a mixture and in a :class:`Linear` for a linear sum."""
    pairs = tuple((child.label(), w) for child, w in zip(spec.children, spec.weights))
    if spec.kind == "linear":
        return Linear(pairs)
    return pairs if spec.kind == "probabilistic" else spec.label()


def _check_match(workload, spec, tcp=None):
    """Run both on ``workload``; returns the reference's replay once they agree."""
    buffer = BufferModel() if tcp is None else BufferModel("tcp-refill", *tcp)
    expected = simulate(generate_workload(workload), workload.seed, _rule(spec), tcp)
    result = run_simulation(
        SimConfig(workload=workload, strategy=spec, buffer=buffer), collect_trace=True
    )
    served = [(e.t, e.chosen_id) for e in result.trace if e.chosen_id is not None]
    i = _first_difference(served, expected.served)
    assert served == expected.served, (
        f"{spec.label()}, seed {workload.seed}, tcp {tcp}: service diverges at busy slot {i}: "
        f"simulator {served[i:i + 3]}, reference {expected.served[i:i + 3]}"
    )
    records = [(r.file_size, r.arrival, r.departure) for r in result.records]
    assert records == expected.records and result.unfinished == 0
    return expected


@pytest.mark.parametrize("spec", RANKING_SPECS + MORE_SPECS, ids=StrategySpec.label)
def test_simulator_matches_reference(spec):
    contested = 0
    for seed in SEEDS:
        workload = WorkloadConfig(arrival_rate=0.09, horizon=HORIZON, seed=seed)
        contested += _check_match(workload, spec).contested
    # the match must cover real decisions, not only slots with one flow
    assert contested >= 100 * len(SEEDS), f"only {contested} contested slots"


@pytest.mark.parametrize("spec", RANKING_SPECS + BUFFER_SPECS + MORE_SPECS,
                         ids=StrategySpec.label)
def test_simulator_matches_reference_under_tcp_refill(spec):
    # about six flows a seed, so each run drains within a few hundred slots
    contested = all_wait = 0
    for tcp in TCP_BUFFERS:
        for seed in SEEDS:
            workload = WorkloadConfig(arrival_rate=0.02, horizon=300, seed=seed)
            replay = _check_match(workload, spec, tcp)
            contested += replay.contested
            all_wait += replay.all_wait
    # real decisions, and waits where every active flow's rates still add up
    assert contested >= 100 * len(TCP_BUFFERS), f"only {contested} contested slots"
    assert all_wait >= 20 * len(TCP_BUFFERS), f"only {all_wait} slots where every flow waits"


def _check_config(config: SimConfig, **given):
    """Run ``config`` in both, the simulator on the ``flows`` and ``rate_source`` that
    ``given`` may hold; returns the reference's replay once they agree, the count of
    flows left unfinished included."""
    workload, buffer = config.workload, config.buffer
    tcp = (buffer.rtt, buffer.initial_window, buffer.max_window)
    expected = simulate(
        generate_workload(workload), workload.seed, _rule(config.strategy),
        tcp if buffer.mode == "tcp-refill" else None, config.channel,
        None if config.drain_after_horizon else workload.horizon,
    )
    result = run_simulation(config, collect_trace=True, **given)
    served = [(e.t, e.chosen_id) for e in result.trace if e.chosen_id is not None]
    i = _first_difference(served, expected.served)
    assert served == expected.served, (
        f"{config}: service diverges at busy slot {i}: "
        f"simulator {served[i:i + 3]}, reference {expected.served[i:i + 3]}"
    )
    records = [(r.file_size, r.arrival, r.departure) for r in result.records]
    assert (records, result.unfinished) == (expected.records, expected.unfinished), config
    return expected


# the envelope moves over a run: a period of 2 pi / 0.01, about 628 slots
TIME_VARYING = ChannelConfig(envelope_mode="time_varying", envelope_freq=0.01)


@pytest.mark.parametrize("spec", (T, TAS, LINEAR, MIXTURE), ids=StrategySpec.label)
def test_envelope_and_drain_match_reference(spec):
    # the time-varying envelope with the drain, and both envelopes with the drain off
    cases = ((TIME_VARYING, True), (ChannelConfig(), False), (TIME_VARYING, False))
    runs = stopped = contested = unfinished = 0
    for tcp in (None,) + TCP_BUFFERS:
        buffer = BufferModel() if tcp is None else BufferModel("tcp-refill", *tcp)
        rate, horizon = (0.09, 1000) if tcp is None else (0.02, 300)
        for channel, drain in cases:
            for seed in SEEDS:
                workload = WorkloadConfig(arrival_rate=rate, horizon=horizon, seed=seed)
                replay = _check_config(SimConfig(
                    workload=workload, strategy=spec, channel=channel, buffer=buffer,
                    drain_after_horizon=drain,
                ))
                runs += 1
                stopped += not drain
                contested += replay.contested
                unfinished += replay.unfinished
    assert contested >= 30 * runs, f"only {contested} contested slots"
    # on average a run without the drain stops with a flow still active
    assert unfinished >= stopped, f"only {unfinished} unfinished flows in {stopped} runs"


# tas first: it skips its waits' rates, and the kinds after it read them back
REPLAYED_SPECS = (TAS, T, StrategySpec(kind="TK", tk_variant="mean"), MIXTURE, LINEAR)


def test_runs_replayed_from_a_shared_source_match_reference():
    # per seed, one flow list and one SharedRateSource serve every kind in turn
    runs = contested = all_wait = 0
    for tcp in (None, TCP_BUFFERS[2], TCP_BUFFERS[5]):  # rtt 1 and 3, both window pairs
        buffer = BufferModel() if tcp is None else BufferModel("tcp-refill", *tcp)
        rate, horizon = (0.09, 1000) if tcp is None else (0.02, 300)
        for seed in SEEDS:
            workload = WorkloadConfig(arrival_rate=rate, horizon=horizon, seed=seed)
            flows = generate_workload(workload)
            shared = SharedRateSource(seed, ChannelConfig())
            for spec in REPLAYED_SPECS:
                config = SimConfig(workload=workload, strategy=spec, buffer=buffer)
                replay = _check_config(config, flows=flows, rate_source=shared)
                runs += 1
                contested += replay.contested
                all_wait += replay.all_wait
    assert contested >= 30 * runs, f"only {contested} contested slots"
    # waits whose rates tas skipped and the mean readers after it add up
    assert all_wait >= 20 * len(SEEDS), f"only {all_wait} slots where every flow waits"


ATOMIC_SPECS = tuple(spec for spec in RANKING_SPECS + MORE_SPECS if not spec.children)


def _random_spec(rng, tcp: bool) -> StrategySpec:
    """One kind the reference knows, or a linear sum or a mixture of two or three of
    them, each a third of the time."""
    atomic = ATOMIC_SPECS + (BUFFER_SPECS if tcp else ())
    kind = rng.choice((rng.choice(atomic), "linear", "probabilistic"))
    if isinstance(kind, StrategySpec):
        return kind
    children = rng.sample(atomic, rng.randint(2, 3))
    weights = [rng.choice((0.0, rng.uniform(0.1, 2.0))) for _ in children]
    weights[rng.randrange(len(weights))] += 1.0  # at least one positive weight
    if kind == "probabilistic":
        weights = [w / sum(weights) for w in weights]
    return StrategySpec(kind=kind, children=children, weights=weights)


def _random_mixture(rng) -> ParetoMixture:
    """One to four size classes with random weights and scales, and a random shape."""
    weights = [rng.uniform(0.1, 1.0) for _ in range(rng.randint(1, 4))]
    scales = [10.0 ** rng.uniform(2.0, 5.0) for _ in weights]
    components = tuple((w / sum(weights), m) for w, m in zip(weights, scales))
    return ParetoMixture(components, alpha=rng.uniform(1.2, 10.0))


def test_simulator_matches_reference_on_random_configs():
    # configs drawn like acceptance criterion 9's, with both envelopes, the drain off,
    # and the channel band, the envelope's amplitude, the size mixture and the
    # mean-rate band drawn too
    rng = random.Random(6)
    contested = {"infinite": 0, "tcp-refill": 0}
    for case in range(300):
        workload = WorkloadConfig(
            arrival_rate=rng.uniform(0.05, 0.4), horizon=rng.randint(20, 80), seed=case,
            size_mixture=_random_mixture(rng), rate_lo_mult=rng.uniform(0.1, 1.0),
            rate_hi_mult=rng.uniform(1.2, 5.0),
        )
        buffer = BufferModel()
        if rng.random() < 0.5:
            initial = rng.uniform(50.0, 200.0)
            buffer = BufferModel("tcp-refill", rng.randint(0, 8), initial,
                                 initial * rng.uniform(1.0, 4.0))
        band = dict(lo_coeff=rng.uniform(0.2, 0.95), hi_coeff=rng.uniform(1.05, 3.0),
                    envelope_amplitude=rng.uniform(0.5, 3.0))
        channel = ChannelConfig(**band)
        if rng.random() < 0.3:
            channel = ChannelConfig(envelope_mode="time_varying",
                                    envelope_freq=rng.uniform(0.01, 0.2),
                                    envelope_phase=rng.uniform(0.0, 2.0 * math.pi), **band)
        config = SimConfig(
            workload=workload, strategy=_random_spec(rng, buffer.mode == "tcp-refill"),
            channel=channel, buffer=buffer, drain_after_horizon=rng.random() < 0.7,
        )
        contested[buffer.mode] += _check_config(config).contested
    # about 2200 infinite and 64000 tcp-refill contested slots on these 300 configs
    assert min(contested.values()) >= 1000, contested
