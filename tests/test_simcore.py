"""Slot loop mechanics: admission, buffering, service, and run-level invariants."""

from __future__ import annotations

import gc
import math
import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellsched import (
    BufferModel,
    ChannelConfig,
    ParameterError,
    SimConfig,
    StrategySpec,
    WorkloadConfig,
    run_simulation,
)
from cellsched import seeding, simcore, strategies
from cellsched.channel import ChannelRateSource
from cellsched.errors import SchedulingError
from cellsched.metrics import FlowRecord
from cellsched.simcore import (
    FlowState, TraceEvent, admit_arrivals, make_flow_state, refill_buffers, serve_slot,
)

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

    def skip(self, start, stop):
        pass  # a slot's rate depends on the slot alone


class _DrawingSkipSource:
    """The seeded channel source, but a stream's ``skip`` draws each slot and drops it."""

    def __init__(self, seed: int, channel: ChannelConfig):
        self._source = ChannelRateSource(seed, channel)
        self.skipped = 0

    def stream_for(self, flow):
        return _DrawingSkip(self._source.stream_for(flow).draw, self)


class _DrawingSkip:
    def __init__(self, draw, source: _DrawingSkipSource):
        self.draw = draw
        self._source = source

    def skip(self, start, stop):
        self._source.skipped += stop - start
        for t in range(start, stop):
            self.draw(t)


def _mean_rate_est(state) -> float:
    """The running mean rate a strategy reads from a flow record."""
    return state.rate_sum / (state.age + 1)


# reads the running mean rate, so the loop adds every rate of a refill wait to it
TK_MEAN = StrategySpec(kind="TK", tk_variant="mean")


def _spy_views(monkeypatch) -> dict[int, dict[int, float]]:
    """Record {t: {flow id: mean rate estimate}} of the records TK's index reads."""
    seen: dict[int, dict[int, float]] = {}
    index = strategies._INDEX_FUNCS["TK"]

    def spy(spec, view):
        t = view.spec.arrival_slot + view.age
        seen.setdefault(t, {})[view.spec.id] = _mean_rate_est(view)
        return index(spec, view)

    monkeypatch.setitem(strategies._INDEX_FUNCS, "TK", spy)
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
        # an infinite buffer never refills, so a window or rtt would do nothing
        for field in ("rtt", "initial_window", "max_window"):
            with pytest.raises(ParameterError, match="'infinite' does not take"):
                BufferModel(**{field: getattr(TCP, field) * 2})


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
        with pytest.raises(ParameterError):
            sim_config(strategy="sectf")
        sim_config(strategy="sectf", buffer=TCP)  # accepted


class TestMakeFlowState:
    def test_infinite_buffers_whole_file(self):
        state = make_flow_state(make_flow(size=500.0), INFINITE)
        assert state.buffer == 500.0
        assert state.served == 0.0
        assert state.unfetched == 0.0
        assert state.congestion_window == math.inf  # one window holds the whole file

    def test_tcp_stages_initial_window(self):
        state = make_flow_state(make_flow(size=500.0), TCP)
        assert state.buffer == 100.0
        assert state.unfetched == 400.0
        assert state.congestion_window == 100.0

    def test_tcp_small_file_fits_entirely(self):
        state = make_flow_state(make_flow(size=60.0), TCP)
        assert state.buffer == 60.0
        assert state.unfetched == 0.0

    @pytest.mark.parametrize("model, window", [(INFINITE, math.inf), (TCP, 100.0)])
    def test_positional_build_equals_keyword_build(self, model, window):
        spec, stream = make_flow(size=500.0), object()
        staged = min(spec.file_size, window)
        assert make_flow_state(spec, model, stream) == FlowState(
            spec=spec, buffer=staged, unfetched=500.0 - staged,
            congestion_window=window, stream=stream,
        )


class TestAdmitArrivals:
    def test_no_arrivals_leaves_state_untouched(self):
        active = {}
        source = FixedRateSource()
        nxt = admit_arrivals(active, 5, [make_flow(arrival=9)], INFINITE, 0, source)
        assert active == {} and nxt == 0

    def test_admits_exactly_at_slot(self):
        active = {}
        pending = [make_flow(fid=0, arrival=3), make_flow(fid=1, arrival=3),
                   make_flow(fid=2, arrival=4)]
        source = FixedRateSource(per_flow={0: 3.0, 1: 4.0})
        nxt = admit_arrivals(active, 3, pending, INFINITE, 0, source)
        assert sorted(active) == [0, 1] and nxt == 2
        # each record is admitted whole, holding the stream its source gave
        assert [active[fid].stream.draw(3) for fid in (0, 1)] == [3.0, 4.0]


def _waiting(state, due: int) -> deque:
    """A refill queue holding ``state``, emptied and due at slot ``due``."""
    state.buffer = 0.0
    state.refill_due = due
    return deque([state])


def _lone_run(monkeypatch, model, size, rate):
    """Trace of one flow alone at a fixed rate, and the slots refill_buffers ran on."""
    calls = []
    refill = simcore.refill_buffers

    def spy(waiting, t, model):
        calls.append(t)
        return refill(waiting, t, model)

    monkeypatch.setattr(simcore, "refill_buffers", spy)
    result = run_simulation(
        sim_config(flows_horizon=10, buffer=model),
        flows=[make_flow(size=size)],
        rate_source=FixedRateSource(rate),
        collect_trace=True,
    )
    return [(e.chosen_id, e.transfer) for e in result.trace], calls


class TestRefillBuffers:
    def test_infinite_mode_is_noop(self, monkeypatch):
        # a serve empties an infinite buffer only with the file, so no refill
        # is ever due: refill_buffers is never called and no slot waits
        trace, calls = _lone_run(monkeypatch, INFINITE, size=500.0, rate=40.0)
        assert calls == []
        assert trace == [(0, 40.0)] * 12 + [(0, 20.0)]

    def test_nonempty_buffer_untouched(self, monkeypatch):
        # the flow is served from its first window with no wait until it empties
        trace, calls = _lone_run(monkeypatch, TCP, size=500.0, rate=40.0)
        assert trace[:4] == [(0, 40.0), (0, 40.0), (0, 20.0), (None, 0.0)]
        assert calls[0] == 3 + TCP.rtt
        # a record that is not due yet stays queued, its buffer as it was
        state = make_flow_state(make_flow(size=500.0), TCP)
        waiting = _waiting(state, 5)
        refill_buffers(waiting, 4, TCP)
        assert list(waiting) == [state] and state.buffer == 0.0

    def test_schedules_then_delivers_after_rtt(self, monkeypatch):
        # the serve at t=0 empties the window; the refill lands rtt slots
        # after the next slot, and refill_buffers runs only on due slots
        trace, calls = _lone_run(monkeypatch, TCP, size=500.0, rate=100.0)
        assert trace[:32] == [(0, 100.0)] + [(None, 0.0)] * 30 + [(0, 100.0)]
        assert calls == [31, 62, 94]
        state = make_flow_state(make_flow(size=500.0), TCP)
        waiting = _waiting(state, 37)
        refill_buffers(waiting, 37, TCP)
        assert state.buffer == 100.0
        assert state.unfetched == 300.0
        assert state.congestion_window == 200.0  # doubled for the next cycle
        assert not waiting

    def test_zero_rtt_delivers_same_slot(self, monkeypatch):
        # with rtt = 0 the refill lands on the slot after the emptying serve,
        # so the flow never waits
        model = replace(TCP, rtt=0)
        trace, calls = _lone_run(monkeypatch, model, size=500.0, rate=100.0)
        assert trace[:6] == [(0, 100.0)] * 5 + [(None, 0.0)]
        assert calls == [1, 2, 4]

    def test_window_clamps_at_remaining_bytes(self):
        state = make_flow_state(make_flow(size=110.0), TCP)
        state.served = 100.0
        state.unfetched = 10.0
        refill_buffers(_waiting(state, 30), 30, TCP)
        assert state.buffer == 10.0 and state.unfetched == 0.0

    def test_window_saturates_at_max(self):
        state = make_flow_state(make_flow(size=10_000.0), TCP)
        for cycle, expected_window in enumerate((200.0, 400.0, 400.0)):
            t = cycle * 1000
            refill_buffers(_waiting(state, t + TCP.rtt), t + TCP.rtt, TCP)
            assert state.congestion_window == expected_window


class TestServeSlot:
    def test_rate_limited_transfer(self):
        state = make_flow_state(make_flow(size=250.0), INFINITE)
        record, transfer = serve_slot({0: state}, 0, 100.0, state)
        assert record is None and transfer == 100.0
        assert state.served == 100.0 and state.buffer == 150.0

    def test_buffer_limited_transfer(self):
        state = make_flow_state(make_flow(size=500.0), TCP)
        state.buffer = 40.0
        record, transfer = serve_slot({0: state}, 0, 100.0, state)
        assert record is None and transfer == 40.0
        assert state.buffer == 0.0

    def test_completion_departs_next_slot(self):
        state = make_flow_state(make_flow(size=100.0, arrival=0), INFINITE)
        state.served = 90.0
        state.buffer = 10.0
        active = {0: state}
        record, transfer = serve_slot(active, 17, 50.0, state)
        assert transfer == 10.0
        assert type(record) is FlowRecord
        assert record == FlowRecord(100.0, 0, 18)
        assert active == {}
        assert state.served == 100.0  # exact, no float residue

    # Under a strategy that reads the running mean rate, the rate history
    # grows for every active flow whether or not serve_slot serves it, a
    # refill wait's slots included; these tests watch the slot loop around
    # serve_slot through the records the strategy reads.

    def test_idle_slot_still_updates_rate_history(self, monkeypatch):
        # t=0 empties the first window; slots 1-3 wait out the rtt with no
        # eligible flow, so nobody is served; the refill lands at t=4, when
        # flow 1 arrives and the strategy has two flows to choose from (TK
        # puts a flow first in its arrival slot)
        model = BufferModel(mode="tcp-refill", rtt=3, initial_window=10.0, max_window=10.0)
        views = _spy_views(monkeypatch)
        result = run_simulation(
            sim_config(flows_horizon=10, strategy=TK_MEAN, buffer=model),
            flows=[
                make_flow(fid=0, arrival=0, size=20.0),
                make_flow(fid=1, arrival=4, size=5.0),
            ],
            rate_source=_SquareRateSource({0: 10.0, 1: 1.0}),
            collect_trace=True,
        )
        assert result.trace.chosen_ids[:5] == (0, None, None, None, 1)
        # rates 10, 11, 14, 19, 26: the idle slots' draws are in the mean
        assert views[4][0] == 16.0 and set(views[4]) == {0, 1}

    def test_wait_shared_by_two_flows_updates_both_rate_histories(self, monkeypatch):
        # flows 0 and 1 empty their windows at t=0 and t=1 and both wait in
        # 2-3, when nobody is served; their refills land on different slots:
        # flow 0's at t=4, when flow 2 arrives and takes the slot, and flow
        # 1's at t=5, when the strategy chooses between flows 0 and 1: TK
        # gives flow 0 19.17 * 10 / 5 and flow 1 21 * 10 / 4
        model = BufferModel(mode="tcp-refill", rtt=3, initial_window=10.0, max_window=10.0)
        views = _spy_views(monkeypatch)
        result = run_simulation(
            sim_config(flows_horizon=10, strategy=TK_MEAN, buffer=model),
            flows=[
                make_flow(fid=0, arrival=0, size=100.0),
                make_flow(fid=1, arrival=1, size=100.0),
                make_flow(fid=2, arrival=4, size=100.0),
            ],
            rate_source=_SquareRateSource({0: 10.0, 1: 10.0, 2: 20.0}),
            collect_trace=True,
        )
        trace = result.trace
        assert [e.t for e in trace] == list(range(len(trace)))  # one row per slot
        assert list(zip(trace.chosen_ids, trace.active_counts))[:6] == [
            (0, 1), (1, 2), (None, 2), (None, 2), (2, 3), (1, 3),
        ]
        # each running mean holds every draw of the wait
        rates = {fid: [10.0 + t * t for t in range(arrival, 6)] for fid, arrival in ((0, 0), (1, 1))}
        assert views[5] == {fid: sum(r) / len(r) for fid, r in rates.items()}

    def test_unserved_flows_accumulate_rate_history(self, monkeypatch):
        views = _spy_views(monkeypatch)
        result = run_simulation(
            sim_config(flows_horizon=10, strategy=TK_MEAN),
            flows=[
                make_flow(fid=0, arrival=0, size=1000.0),
                make_flow(fid=1, arrival=0, size=1000.0),
            ],
            rate_source=_SquareRateSource({0: 100.0, 1: 1.0}),
            collect_trace=True,
        )
        assert result.trace.chosen_ids[:3] == (0, 0, 0)
        # flow 1 draws 1, 2, 5 while unserved
        assert views[1][1] == 1.5
        assert views[2][1] == 8.0 / 3.0

    def test_invalid_chosen_is_contract_violation(self):
        state = make_flow_state(make_flow(size=100.0), INFINITE)
        state.buffer = 0.0
        with pytest.raises(SchedulingError, match="flow 0 has an empty buffer at slot 0"):
            serve_slot({0: state}, 0, 5.0, state)


class TestRunSimulation:
    def test_zero_flows_yield_no_records(self):
        result = run_simulation(sim_config(), flows=[], rate_source=FixedRateSource())
        assert result.records == () and result.unfinished == 0

    def test_arrival_at_or_after_horizon_is_rejected(self):
        flows = [make_flow(fid=0, arrival=3), make_flow(fid=1, arrival=12)]
        with pytest.raises(ParameterError, match="flow 1 arrives at slot 12.*10"):
            run_simulation(
                sim_config(flows_horizon=10), flows=flows, rate_source=FixedRateSource()
            )
        flows = [make_flow(fid=0, arrival=3), make_flow(fid=1, arrival=10)]
        with pytest.raises(ParameterError, match="flow 1 arrives at slot 10"):
            run_simulation(
                sim_config(flows_horizon=10), flows=flows, rate_source=FixedRateSource()
            )

    def test_late_flow_is_rejected_before_any_flow_is_admitted(self):
        class RecordingSource(FixedRateSource):
            def stream_for(self, flow):
                admitted.append(flow.id)
                return super().stream_for(flow)

        admitted = []
        flows = [make_flow(fid=0, arrival=0), make_flow(fid=1, arrival=10_000)]
        with pytest.raises(ParameterError, match="flow 1 arrives at slot 10000"):
            run_simulation(
                sim_config(flows_horizon=100), flows=flows, rate_source=RecordingSource()
            )
        assert admitted == []

    def test_unsorted_flows_are_rejected_before_slot_0(self, monkeypatch):
        calls = []
        admit = simcore.admit_arrivals

        def spy(active, t, *args):
            calls.append(t)
            return admit(active, t, *args)

        monkeypatch.setattr(simcore, "admit_arrivals", spy)
        flows = [make_flow(fid=0, arrival=4), make_flow(fid=1, arrival=2)]
        with pytest.raises(ParameterError, match="flow 1 arrives at slot 2"):
            run_simulation(sim_config(), flows=flows, rate_source=FixedRateSource())
        assert calls == []

    def test_duplicate_id_rejected(self):
        flows = [make_flow(fid=0, arrival=0), make_flow(fid=0, arrival=0)]
        with pytest.raises(ParameterError, match="flow 0 arrives at slot 0"):
            run_simulation(sim_config(), flows=flows, rate_source=FixedRateSource())

    def test_non_overlapping_duplicate_ids_are_rejected(self):
        # the first flow 7 is long gone when the second arrives; both would
        # be served, and seeded, as flow 7
        flows = [make_flow(fid=7, arrival=0, size=10.0), make_flow(fid=7, arrival=20)]
        with pytest.raises(ParameterError, match="flow 7 arrives at slot 20.*distinct ids"):
            run_simulation(sim_config(), flows=flows, rate_source=FixedRateSource())

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

            def skip(self, start, stop):  # advances the draw count as drawing would
                for t in range(start, stop):
                    self.draw(t)

        class VaryingSource:
            def stream_for(self, flow):
                return VaryingStream(flow.id)

        seen = []  # (t, flow id, mean_rate_est, expected mean)
        index = strategies._INDEX_FUNCS["TK"]

        def spy(spec, view):
            fid = view.spec.id
            rates = [r for _, r in drawn[fid]]
            t = view.spec.arrival_slot + view.age
            seen.append((t, fid, _mean_rate_est(view), sum(rates) / len(rates)))
            return index(spec, view)

        monkeypatch.setitem(strategies._INDEX_FUNCS, "TK", spy)
        model = BufferModel(mode="tcp-refill", rtt=3, initial_window=10.0, max_window=20.0)
        flows = [
            make_flow(fid=0, arrival=0, size=60.0),
            make_flow(fid=1, arrival=1, size=45.0),
            make_flow(fid=2, arrival=5, size=30.0),
        ]
        result = run_simulation(
            sim_config(flows_horizon=40, strategy=TK_MEAN, buffer=model),
            flows=flows,
            rate_source=VaryingSource(),
            collect_trace=True,
        )
        assert result.unfinished == 0
        for flow, record in zip(flows, sorted(result.records, key=lambda r: r.arrival)):
            # one draw per slot from arrival through the departing slot
            slots = [t for t, _ in drawn[flow.id]]
            assert slots == list(range(flow.arrival_slot, record.departure))
        for t, fid, estimate, expected in seen:
            assert estimate == expected, (t, fid)
        # the run covers views of unserved flows and tcp-refill waits
        chosen = [event.chosen_id for event in result.trace]
        assert any(fid != chosen[t] for t, fid, *_ in seen)
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

    def test_probabilistic_choice_draws_one_uniform_per_slot(self):
        # idle 0-2; flow 0 alone at 3, waits out its refill in 4-5 and
        # departs after 6; idle 7-11; flow 1 alone at 12; from 13 flows 1
        # and 2 contend: max_ci serves flow 1 (rate 2 > 1), round_robin the
        # younger flow 2
        spec = StrategySpec(
            kind="probabilistic",
            children=(StrategySpec(kind="max_ci"), StrategySpec(kind="round_robin")),
            weights=(0.5, 0.5),
        )
        model = BufferModel(mode="tcp-refill", rtt=2, initial_window=100.0)
        result = run_simulation(
            sim_config(flows_horizon=40, strategy=spec, buffer=model,
                       drain_after_horizon=False),
            flows=[
                make_flow(fid=0, arrival=3, size=150.0),
                make_flow(fid=1, arrival=12, size=1e6),
                make_flow(fid=2, arrival=13, size=1e6),
            ],
            rate_source=FixedRateSource(per_flow={0: 100.0, 1: 2.0, 2: 1.0}),
            collect_trace=True,
        )
        rng = seeding.stream(1, seeding.CHOICE_STREAM)
        draws = [rng.random() for _ in range(40)]
        expected = [None] * 3 + [0, None, None, 0] + [None] * 5 + [1]
        expected += [1 if u < 0.5 else 2 for u in draws[13:]]
        assert [e.chosen_id for e in result.trace] == expected
        assert {1, 2} <= set(expected[13:])

    def test_choice_stream_is_made_only_for_a_probabilistic_strategy(self, monkeypatch):
        made = []
        real = seeding.stream

        def spy(base_seed, tag, sub=0):
            rng = real(base_seed, tag, sub)
            if tag == seeding.CHOICE_STREAM:
                made.append(rng)
            return rng

        monkeypatch.setattr(seeding, "stream", spy)
        linear = StrategySpec(kind="linear", children=(StrategySpec(kind="tas"),),
                              weights=(1.0,))
        for spec in ("round_robin", "tas", linear):
            run_simulation(sim_config(flows_horizon=300, strategy=spec))
        assert made == []
        mixture = StrategySpec(
            kind="probabilistic",
            children=(StrategySpec(kind="tas"), StrategySpec(kind="das")),
            weights=(0.5, 0.5),
        )
        for buffer in (INFINITE, TCP):
            made.clear()
            result = run_simulation(
                sim_config(flows_horizon=300, strategy=mixture, buffer=buffer),
                collect_trace=True,
            )
            assert len(made) == 1
            # the stream ends one uniform per slot past its start, drain included
            expected = real(1, seeding.CHOICE_STREAM)
            seeding.skip(expected, len(result.trace))
            assert made[0].getstate() == expected.getstate()
        # the tcp-refill run has slots where two flows wait on refills together
        assert any(e.chosen_id is None and e.active_count == 2 for e in result.trace)

    def test_a_contended_slot_always_has_an_eligible_flow(self, monkeypatch):
        # A flow waits exactly when it is active with an empty buffer, and a slot
        # where every active flow waits runs as a wait stretch; so a contended
        # slot hands select_client at least one record and gets one of them back.
        # With one record it is the tcp-refill shortcut: an infinite buffer never
        # empties before its flow departs, so there every active flow is eligible.
        calls = []  # (tcp-refill run, number of records, chosen among them)
        select = simcore.select_client

        def spy(spec, flows, rng=None):
            chosen = select(spec, flows, rng)
            calls.append((tcp, len(flows), any(f is chosen for f in flows)))
            return chosen

        monkeypatch.setattr(simcore, "select_client", spy)
        rng = random.Random(27)
        atomic = [kind for kind in strategies.ATOMIC_KINDS if kind != "sectf"]
        for case in range(300):
            tcp = rng.random() < 0.5
            buffer = INFINITE
            kinds = atomic
            if tcp:
                low, high = sorted(rng.uniform(50.0, 800.0) for _ in range(2))
                buffer = BufferModel(mode="tcp-refill", rtt=rng.randint(0, 8),
                                     initial_window=low, max_window=high)
                kinds = atomic + ["sectf"] * 3
            children = tuple(StrategySpec(kind=rng.choice(kinds)) for _ in range(2))
            combinator = rng.choice(("linear", "probabilistic", None, None))
            strategy = children[0]
            if combinator is not None:
                share = rng.uniform(0.1, 0.9)
                strategy = StrategySpec(kind=combinator, children=children,
                                        weights=(share, 1.0 - share))
            channel = ChannelConfig()
            if rng.random() < 0.3:
                channel = ChannelConfig(envelope_mode="time_varying",
                                        envelope_freq=rng.uniform(0.01, 0.5))
            config = SimConfig(
                workload=WorkloadConfig(arrival_rate=rng.uniform(0.05, 0.3),
                                        horizon=rng.randint(10, 40), seed=case),
                strategy=strategy, channel=channel, buffer=buffer,
                drain_after_horizon=rng.random() < 0.7,
            )
            run_simulation(config)
        assert calls and all(n >= 1 and chosen for _, n, chosen in calls)
        assert not any(n == 1 for tcp, n, _ in calls if not tcp)
        assert sum(n == 1 for tcp, n, _ in calls if tcp) >= 100

    def test_a_contended_slot_without_a_chosen_flow_names_the_slot(self, monkeypatch):
        monkeypatch.setattr(simcore, "select_client", lambda spec, flows, rng=None: None)
        flows = [make_flow(fid=0, arrival=0), make_flow(fid=1, arrival=2)]
        with pytest.raises(SchedulingError, match="no active flow chosen on contended slot 2"):
            run_simulation(sim_config(), flows=flows, rate_source=FixedRateSource())

    def test_skipping_the_rates_no_index_reads_changes_no_result(self, monkeypatch):
        # Criterion-9-style tcp-refill configs, each run three ways: as is (a
        # waiting flow's stream skips the wait), with a skip that draws every
        # slot, and as if the strategy read the mean rate (every rate drawn
        # into rate_sum), which is how every strategy ran before skips.
        rng = random.Random(28)
        blind = [StrategySpec(kind=k) for k in strategies.ATOMIC_KINDS if k not in ("T", "TK")]
        blind += [StrategySpec(kind="TK"), StrategySpec(kind="T", mean_rate_mode="assigned"),
                  StrategySpec(kind="TK", tk_variant="mean", mean_rate_mode="assigned")]
        runs, skipped = [], 0
        for case in range(200):
            initial = rng.uniform(50.0, 200.0)
            buffer = BufferModel(mode="tcp-refill", rtt=rng.randint(0, 8),
                                 initial_window=initial,
                                 max_window=initial * rng.uniform(1.0, 4.0))
            strategy = rng.choice(blind)
            combinator = rng.choice(("linear", "probabilistic", None, None))
            if combinator is not None:
                share = rng.uniform(0.1, 0.9)
                strategy = StrategySpec(kind=combinator, children=(strategy, rng.choice(blind)),
                                        weights=(share, 1.0 - share))
            channel = ChannelConfig()
            if rng.random() < 0.3:
                channel = ChannelConfig(envelope_mode="time_varying",
                                        envelope_freq=rng.uniform(0.01, 0.5))
            config = SimConfig(
                workload=WorkloadConfig(arrival_rate=rng.uniform(0.05, 0.2),
                                        horizon=rng.randint(20, 40), seed=case),
                strategy=strategy, channel=channel, buffer=buffer,
            )
            assert not strategy.reads_mean_rate
            result = run_simulation(config, collect_trace=True)
            source = _DrawingSkipSource(case, channel)
            drawn = run_simulation(config, rate_source=source, collect_trace=True)
            assert (drawn.records, drawn.trace) == (result.records, result.trace), case
            skipped += source.skipped
            runs.append((config, result))
        assert skipped >= 100_000  # slots of refill waits, over all cases
        monkeypatch.setattr(StrategySpec, "reads_mean_rate", property(lambda spec: True))
        for case, (config, result) in enumerate(runs):
            drawn = run_simulation(config, collect_trace=True)
            assert (drawn.records, drawn.trace) == (result.records, result.trace), case

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


def _short_configs(count: int) -> list[SimConfig]:
    """Criterion-9-style runs: tiny randomized configs, alternating the two buffers."""
    rng = random.Random(34)
    configs = []
    for case in range(count):
        buffer = INFINITE
        if case % 2:
            initial = rng.uniform(50.0, 200.0)
            buffer = BufferModel(mode="tcp-refill", rtt=rng.randint(0, 8),
                                 initial_window=initial,
                                 max_window=initial * rng.uniform(1.0, 4.0))
        kind = rng.choice(("round_robin", "max_ci", "tas", "das", "pf", "srpt", "T", "TK"))
        configs.append(SimConfig(
            workload=WorkloadConfig(arrival_rate=rng.uniform(0.15, 0.4),
                                    horizon=rng.randint(40, 80), seed=case),
            strategy=StrategySpec(kind=kind), buffer=buffer,
        ))
    return configs


class TestTrace:
    """A trace iterates as its ``TraceEvent`` rows, yet holds none of them."""

    @pytest.mark.parametrize("config", _short_configs(6))
    def test_rows_read_as_a_tuple_of_events(self, config):
        trace = run_simulation(config, collect_trace=True).trace
        rows = list(trace)
        assert len(rows) == len(trace) > 5
        assert all(type(e) is TraceEvent for e in rows)
        assert [e.t for e in trace] == list(range(len(trace)))  # row i is slot i
        columns = zip(trace.chosen_ids, trace.transfers, trace.active_counts)
        assert [e[1:] for e in rows] == list(columns)

    @pytest.mark.parametrize("config", _short_configs(6))
    def test_equal_runs_compare_equal_and_hash_alike(self, config):
        a = run_simulation(config, collect_trace=True)
        b = run_simulation(config, collect_trace=True)
        other = replace(config, workload=replace(config.workload, seed=config.workload.seed + 100))
        assert a.trace == b.trace and tuple(a.trace) == tuple(b.trace)
        assert a.trace != run_simulation(other, collect_trace=True).trace
        assert hash(a) == hash(b)

    def test_a_held_trace_keeps_no_object_per_slot(self):
        # A row of a tuple subclass stays tracked by the collector for as long as
        # it lives, so a trace holding its rows would add one object per slot.
        config = sim_config(flows_horizon=20_000, strategy="tas")
        run_simulation(config)  # first-run set-up is not the trace's
        gc.collect()
        before = len(gc.get_objects())
        plain = run_simulation(config)
        gc.collect()
        middle = len(gc.get_objects())
        traced = run_simulation(config, collect_trace=True)
        gc.collect()
        after = len(gc.get_objects())
        assert traced.records == plain.records and len(traced.trace) >= 20_000
        assert (after - middle) - (middle - before) < len(traced.trace) // 100
