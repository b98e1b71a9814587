"""Slot loop mechanics: admission, buffering, service, and run-level invariants."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellsched import (
    BufferModel,
    CapabilityError,
    ChannelConfig,
    ParameterError,
    SchedulingError,
    SimConfig,
    StrategySpec,
    WorkloadConfig,
    run_simulation,
)
from cellsched import simcore
from cellsched.simcore import admit_arrivals, make_flow_state, refill_buffers, serve_slot

from conftest import FixedRateSource, make_flow

INFINITE = BufferModel()
TCP = BufferModel(mode="tcp-refill", rtt=30, initial_window=100.0, max_window=400.0)


def sim_config(flows_horizon=100, strategy="round_robin", **kwargs) -> SimConfig:
    workload = kwargs.pop(
        "workload", WorkloadConfig(arrival_rate=0.09, horizon=flows_horizon, seed=1)
    )
    if isinstance(strategy, str):
        strategy = StrategySpec(kind=strategy)
    return SimConfig(workload=workload, strategy=strategy, **kwargs)


class _SquareRateSource:
    """Flow ``fid`` sees ``base[fid] + t * t`` at slot t: every draw differs."""

    def __init__(self, base: dict[int, float]):
        self.base = base

    def stream_for(self, flow):
        return _SquareStream(self.base[flow.id])


class _SquareStream:
    def __init__(self, base: float):
        self.base = base

    def draw(self, t):
        return self.base + t * t


def _mean_rate_est(state) -> float:
    """The running mean rate a strategy reads from a flow record."""
    return state.rate_sum / (state.age + 1)


def _spy_views(monkeypatch) -> dict[int, dict[int, float]]:
    """Record {t: {flow id: mean rate estimate}} of the flows select_client gets."""
    seen: dict[int, dict[int, float]] = {}
    select = simcore.select_client

    def spy(spec, views, rng=None):
        for view in views:
            t = view.spec.arrival_slot + view.age
            seen.setdefault(t, {})[view.spec.id] = _mean_rate_est(view)
        return select(spec, views, rng)

    monkeypatch.setattr(simcore, "select_client", spy)
    return seen


class TestBufferModel:
    def test_defaults(self):
        assert INFINITE.mode == "infinite"
        assert TCP.rtt == 30

    def test_validation(self):
        with pytest.raises(ParameterError):
            BufferModel(mode="bounded")
        with pytest.raises(ParameterError):
            BufferModel(rtt=-1)
        with pytest.raises(ParameterError):
            BufferModel(initial_window=0.0)
        with pytest.raises(ParameterError):
            BufferModel(initial_window=500.0, max_window=400.0)


class TestSimConfigValidation:
    def test_horizon_defaults_to_workload(self):
        config = sim_config(flows_horizon=777)
        assert config.workload.horizon == 777
        with pytest.raises(TypeError):  # the workload's horizon is the only one
            replace(config, horizon=5)

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ParameterError):
            sim_config(workload=WorkloadConfig(arrival_rate=0.09, horizon=0))

    def test_sectf_requires_tcp_mode(self):
        with pytest.raises(CapabilityError):
            sim_config(strategy="sectf")
        sim_config(strategy="sectf", buffer=TCP)  # accepted


class TestMakeFlowState:
    def test_infinite_buffers_whole_file(self):
        state = make_flow_state(make_flow(size=500.0), INFINITE)
        assert state.buffer == 500.0
        assert state.served == 0.0
        assert state.unfetched == 0.0

    def test_tcp_stages_initial_window(self):
        state = make_flow_state(make_flow(size=500.0), TCP)
        assert state.buffer == 100.0
        assert state.unfetched == 400.0
        assert state.congestion_window == 100.0

    def test_tcp_small_file_fits_entirely(self):
        state = make_flow_state(make_flow(size=60.0), TCP)
        assert state.buffer == 60.0
        assert state.unfetched == 0.0


class TestAdmitArrivals:
    def test_no_arrivals_leaves_state_untouched(self):
        active = {}
        nxt = admit_arrivals(active, 5, [make_flow(arrival=9)], INFINITE, 0)
        assert active == {} and nxt == 0

    def test_admits_exactly_at_slot(self):
        active = {}
        pending = [make_flow(fid=0, arrival=3), make_flow(fid=1, arrival=3),
                   make_flow(fid=2, arrival=4)]
        nxt = admit_arrivals(active, 3, pending, INFINITE, 0)
        assert sorted(active) == [0, 1] and nxt == 2

    def test_missed_arrival_is_contract_violation(self):
        with pytest.raises(SchedulingError):
            admit_arrivals({}, 10, [make_flow(arrival=4)], INFINITE, 0)

    def test_duplicate_id_rejected(self):
        active = {0: make_flow_state(make_flow(fid=0), INFINITE)}
        with pytest.raises(SchedulingError):
            admit_arrivals(active, 0, [make_flow(fid=0, arrival=0)], INFINITE, 0)


class TestRefillBuffers:
    def test_infinite_mode_is_noop(self):
        state = make_flow_state(make_flow(size=500.0), INFINITE)
        state.buffer = 0.0
        refill_buffers({0: state}, 4, INFINITE)
        assert state.refill_due is None

    def test_nonempty_buffer_untouched(self):
        state = make_flow_state(make_flow(size=500.0), TCP)
        refill_buffers({0: state}, 4, TCP)
        assert state.refill_due is None and state.buffer == 100.0

    def test_schedules_then_delivers_after_rtt(self):
        state = make_flow_state(make_flow(size=500.0), TCP)
        state.buffer = 0.0
        refill_buffers({0: state}, 7, TCP)
        assert state.refill_due == 37
        for t in range(8, 37):
            refill_buffers({0: state}, t, TCP)
            assert state.buffer == 0.0
        refill_buffers({0: state}, 37, TCP)
        assert state.buffer == 100.0
        assert state.unfetched == 300.0
        assert state.congestion_window == 200.0  # doubled for the next cycle
        assert state.refill_due is None

    def test_zero_rtt_delivers_same_slot(self):
        model = replace(TCP, rtt=0)
        state = make_flow_state(make_flow(size=500.0), model)
        state.buffer = 0.0
        refill_buffers({0: state}, 9, model)
        assert state.buffer == 100.0

    def test_window_clamps_at_remaining_bytes(self):
        state = make_flow_state(make_flow(size=110.0), TCP)
        state.buffer = 0.0
        state.served = 100.0
        state.unfetched = 10.0
        refill_buffers({0: state}, 0, TCP)
        refill_buffers({0: state}, 30, TCP)
        assert state.buffer == 10.0 and state.unfetched == 0.0

    def test_window_saturates_at_max(self):
        state = make_flow_state(make_flow(size=10_000.0), TCP)
        for cycle, expected_window in enumerate((200.0, 400.0, 400.0)):
            state.buffer = 0.0
            t = cycle * 1000
            refill_buffers({0: state}, t, TCP)
            refill_buffers({0: state}, t + TCP.rtt, TCP)
            assert state.congestion_window == expected_window


class TestServeSlot:
    def test_rate_limited_transfer(self):
        state = make_flow_state(make_flow(size=250.0), INFINITE)
        record, transfer = serve_slot({0: state}, 0, 100.0, 0)
        assert record is None and transfer == 100.0
        assert state.served == 100.0 and state.buffer == 150.0

    def test_buffer_limited_transfer(self):
        state = make_flow_state(make_flow(size=500.0), TCP)
        state.buffer = 40.0
        record, transfer = serve_slot({0: state}, 0, 100.0, 0)
        assert record is None and transfer == 40.0
        assert state.buffer == 0.0

    def test_completion_departs_next_slot(self):
        state = make_flow_state(make_flow(size=100.0, arrival=0), INFINITE)
        state.served = 90.0
        state.buffer = 10.0
        active = {0: state}
        record, transfer = serve_slot(active, 17, 50.0, 0)
        assert transfer == 10.0
        assert record is not None
        assert record.departure == 18
        assert record.file_size == 100.0
        assert active == {}
        assert state.served == 100.0  # exact, no float residue

    # The rate history grows in the draw loop of run_simulation, for every
    # active flow whether or not serve_slot serves it; these two tests watch
    # the slot loop around serve_slot through the records the strategy reads.

    def test_idle_slot_still_updates_rate_history(self, monkeypatch):
        # t=0 empties the first window; slots 1-3 wait out the rtt with no
        # eligible flow, so nobody is served; the refill lands at t=4
        model = BufferModel(mode="tcp-refill", rtt=3, initial_window=10.0, max_window=10.0)
        views = _spy_views(monkeypatch)
        result = run_simulation(
            sim_config(flows_horizon=10, strategy="max_ci", buffer=model),
            flows=[make_flow(fid=0, arrival=0, size=20.0)],
            rate_source=_SquareRateSource({0: 10.0}),
            collect_trace=True,
        )
        assert [e.chosen_id for e in result.trace[:5]] == [0, None, None, None, 0]
        # rates 10, 11, 14, 19, 26: the idle slots' draws are in the mean
        assert views[4] == {0: 16.0}

    def test_unserved_flows_accumulate_rate_history(self, monkeypatch):
        views = _spy_views(monkeypatch)
        result = run_simulation(
            sim_config(flows_horizon=10, strategy="max_ci"),
            flows=[
                make_flow(fid=0, arrival=0, size=1000.0),
                make_flow(fid=1, arrival=0, size=1000.0),
            ],
            rate_source=_SquareRateSource({0: 100.0, 1: 1.0}),
            collect_trace=True,
        )
        assert [e.chosen_id for e in result.trace[:3]] == [0, 0, 0]
        # flow 1 draws 1, 2, 5 while unserved
        assert views[1][1] == 1.5
        assert views[2][1] == 8.0 / 3.0

    def test_invalid_chosen_is_contract_violation(self):
        state = make_flow_state(make_flow(size=100.0), INFINITE)
        with pytest.raises(SchedulingError):
            serve_slot({0: state}, 0, 5.0, 3)
        state.buffer = 0.0
        with pytest.raises(SchedulingError):
            serve_slot({0: state}, 0, 5.0, 0)


class TestRunSimulation:
    def test_zero_flows_yield_no_records(self):
        result = run_simulation(sim_config(), flows=[], rate_source=FixedRateSource())
        assert result.records == () and result.unfinished == 0

    def test_arrival_at_or_after_horizon_is_rejected(self):
        flows = [make_flow(fid=0, arrival=3), make_flow(fid=1, arrival=12)]
        with pytest.raises(SchedulingError, match="flow 1 arrives at slot 12.*10"):
            run_simulation(
                sim_config(flows_horizon=10), flows=flows, rate_source=FixedRateSource()
            )
        flows = [make_flow(fid=0, arrival=3), make_flow(fid=1, arrival=10)]
        with pytest.raises(SchedulingError, match="flow 1 arrives at slot 10"):
            run_simulation(
                sim_config(flows_horizon=10), flows=flows, rate_source=FixedRateSource()
            )

    def test_single_flow_hand_trace(self):
        config = sim_config(strategy="max_ci")
        result = run_simulation(
            config,
            flows=[make_flow(size=100.0, mean_rate=10.0)],
            rate_source=FixedRateSource(10.0),
            collect_trace=True,
        )
        (record,) = result.records
        assert (record.file_size, record.arrival, record.departure) == (100.0, 0, 10)
        served_slots = [e for e in result.trace if e.chosen_id is not None]
        assert [e.t for e in served_slots] == list(range(10))
        assert all(e.transfer == 10.0 for e in served_slots)

    def test_deterministic_given_seed(self):
        config = sim_config(flows_horizon=2000, strategy="tas")
        a = run_simulation(config, collect_trace=True)
        b = run_simulation(config, collect_trace=True)
        assert a.records == b.records
        assert a.trace == b.trace

    def test_different_seeds_differ(self):
        config = sim_config(flows_horizon=2000, strategy="tas")
        other = replace(
            config, workload=replace(config.workload, seed=2)
        )
        assert run_simulation(config).records != run_simulation(other).records

    def test_drain_completes_every_admitted_flow(self):
        config = sim_config(flows_horizon=3000, strategy="pf")
        flows = None  # generated workload
        result = run_simulation(config, flows=flows)
        assert result.unfinished == 0

    def test_no_drain_leaves_unfinished(self):
        config = sim_config(strategy="round_robin", drain_after_horizon=False)
        result = run_simulation(
            config,
            flows=[make_flow(size=10_000.0, mean_rate=1.0)],
            rate_source=FixedRateSource(1.0),
        )
        assert result.records == ()
        assert result.unfinished == 1

    def test_work_conservation_infinite_mode(self):
        config = sim_config(flows_horizon=1500, strategy="das")
        result = run_simulation(config, collect_trace=True)
        for event in result.trace:
            if event.active_count > 0:
                assert event.chosen_id is not None
                assert event.transfer > 0.0

    def test_conservation_of_bytes(self):
        config = sim_config(flows_horizon=1500, strategy="T")
        result = run_simulation(config, collect_trace=True)
        total_transferred = sum(e.transfer for e in result.trace)
        total_size = sum(r.file_size for r in result.records)
        assert result.unfinished == 0
        assert total_transferred == pytest.approx(total_size, rel=1e-9)

    def test_monotone_serving_never_negative_buffer(self):
        # reconstruct per-flow cumulative service from the trace
        config = sim_config(flows_horizon=800, strategy="max_ci")
        flows = [make_flow(fid=i, arrival=i, size=5000.0, mean_rate=10.0)
                 for i in range(5)]
        result = run_simulation(
            config, flows=flows, rate_source=FixedRateSource(100.0), collect_trace=True
        )
        served = {f.id: 0.0 for f in flows}
        for event in result.trace:
            if event.chosen_id is not None:
                assert event.transfer >= 0.0
                served[event.chosen_id] += event.transfer
        for flow in flows:
            assert served[flow.id] == pytest.approx(flow.file_size, rel=1e-12)

    def test_single_flow_departure_is_strategy_independent(self):
        flows = [make_flow(size=1234.5, mean_rate=10.0)]
        departures = set()
        for kind in ("round_robin", "max_ci", "tas", "das", "pf", "T", "TK", "srpt"):
            result = run_simulation(
                sim_config(strategy=kind),
                flows=list(flows),
                rate_source=FixedRateSource(10.0),
            )
            departures.add(result.records[0].departure)
        assert len(departures) == 1

    def test_tcp_mode_completes_with_sectf(self):
        config = sim_config(flows_horizon=600, strategy="sectf", buffer=TCP)
        flows = [make_flow(fid=i, arrival=i * 3, size=350.0, mean_rate=10.0)
                 for i in range(4)]
        result = run_simulation(config, flows=flows, rate_source=FixedRateSource(40.0))
        assert len(result.records) == 4
        assert result.unfinished == 0

    def test_mean_rate_estimate_averages_every_draw_since_arrival(self, monkeypatch):
        # every draw differs, so a skipped or doubled rate changes the mean
        drawn = {}

        class VaryingStream:
            def __init__(self, fid):
                self.fid = fid
                drawn[fid] = []

            def draw(self, t):
                r = 2.0 + self.fid + (len(drawn[self.fid]) * 0.618) % 3.0
                drawn[self.fid].append((t, r))
                return r

        class VaryingSource:
            def stream_for(self, flow):
                return VaryingStream(flow.id)

        seen = []  # (t, flow id, mean_rate_est, expected mean, chosen)
        select = simcore.select_client

        def spy(spec, views, rng=None):
            chosen = select(spec, views, rng)
            for view in views:
                fid = view.spec.id
                rates = [r for _, r in drawn[fid]]
                t = view.spec.arrival_slot + view.age
                seen.append(
                    (t, fid, _mean_rate_est(view), sum(rates) / len(rates), chosen)
                )
            return chosen

        monkeypatch.setattr(simcore, "select_client", spy)
        model = BufferModel(mode="tcp-refill", rtt=3, initial_window=10.0, max_window=20.0)
        flows = [
            make_flow(fid=0, arrival=0, size=60.0),
            make_flow(fid=1, arrival=1, size=45.0),
            make_flow(fid=2, arrival=5, size=30.0),
        ]
        result = run_simulation(
            sim_config(flows_horizon=40, strategy="max_ci", buffer=model),
            flows=flows,
            rate_source=VaryingSource(),
        )
        assert result.unfinished == 0
        for flow, record in zip(flows, sorted(result.records, key=lambda r: r.arrival)):
            # one draw per slot from arrival through the departing slot
            slots = [t for t, _ in drawn[flow.id]]
            assert slots == list(range(flow.arrival_slot, record.departure))
        for t, fid, estimate, expected, _ in seen:
            assert estimate == expected, (t, fid)
        # the run covers views of unserved flows and tcp-refill waits
        assert any(fid != chosen for _, fid, _, _, chosen in seen)
        eligible = {(t, fid) for t, fid, *_ in seen}
        assert any(
            (t, fid) not in eligible and (t + 1, fid) in eligible
            for fid, draws in drawn.items()
            for t, _ in draws
        )

    def test_probabilistic_strategy_runs_deterministically(self):
        spec = StrategySpec(
            kind="probabilistic",
            children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
            weights=(0.5, 0.5),
        )
        config = sim_config(flows_horizon=1200, strategy=spec)
        assert run_simulation(config).records == run_simulation(config).records

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           kind=st.sampled_from(("round_robin", "tas", "das", "pf", "T", "TK",
                                 "max_ci", "srpt")))
    def test_every_admitted_flow_accounted(self, seed, kind):
        workload = WorkloadConfig(arrival_rate=0.2, horizon=150, seed=seed)
        config = SimConfig(workload=workload, strategy=StrategySpec(kind=kind))
        result = run_simulation(config)
        from cellsched import generate_workload

        admitted = len(generate_workload(workload))
        assert len(result.records) + result.unfinished == admitted
        assert result.unfinished == 0  # drain enabled by default
