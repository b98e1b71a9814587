"""The simulator against the independent reference of the documented slot model.

Both replay the same generated workloads with the same per-flow channel
streams, and a probabilistic mixture draws from the same choice stream, so
for every index the reference knows and for mixtures of them, under the
infinite and the ``tcp-refill`` buffer, the served sequence and the
completed flow records must agree exactly, slot for slot.
"""

from __future__ import annotations

import pytest

from cellsched import (
    BufferModel, SimConfig, StrategySpec, WorkloadConfig, generate_workload, run_simulation,
)

from reference_model import BUFFER_INDICES, INDICES, simulate

T, TAS, DAS = (StrategySpec(kind=kind) for kind in ("T", "tas", "das"))
# the README's other parameters of T and TK, srpt, and two mixtures: one like
# loaded_sweep's {T, tas, das}, and one whose first child has zero weight
MORE_SPECS = (
    StrategySpec(kind="srpt"),
    StrategySpec(kind="TK", tk_variant="mean"),
    StrategySpec(kind="TK", tk_variant="mean", mean_rate_mode="assigned"),
    StrategySpec(kind="T", mean_rate_mode="assigned"),
    StrategySpec(kind="T", c_const=20.0),
    StrategySpec(kind="probabilistic", children=(T, TAS, DAS), weights=(0.5, 0.25, 0.25)),
    StrategySpec(kind="probabilistic", children=(DAS, T), weights=(0.0, 1.0)),
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
    """The reference's name of ``spec``, its label, or a mixture's (label, weight) pairs."""
    if spec.kind == "probabilistic":
        return tuple((child.label(), w) for child, w in zip(spec.children, spec.weights))
    return spec.label()


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
