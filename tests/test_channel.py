"""Channel model: envelope arithmetic, rate bounds, per-flow stream independence."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellsched import (
    BufferModel,
    ChannelConfig,
    ExperimentConfig,
    ParameterError,
    SimConfig,
    StrategySpec,
    WorkloadConfig,
    generate_workload,
    run_simulation,
)
from cellsched.channel import (
    ENVELOPE_TIME_VARYING,
    ChannelRateSource,
    FlowRateStream,
    RateRecord,
    SharedRateSource,
    envelope_factor,
    envelope_max,
    rate_bounds,
)
from cellsched.experiments import RANKING_KINDS, replicate

from conftest import FixedRateSource, StubRng, make_flow

LITERAL_ENVELOPE = 1.5 * (math.sin(0.1005) + 1.0)  # ~1.6505


def stream_on(rng, flow, config) -> FlowRateStream:
    """The flow's rate stream drawing its uniforms from ``rng``."""
    stream = FlowRateStream(0, flow, config)
    stream._rng = rng
    return stream


class TestConfigValidation:
    def test_rejects_inverted_band(self):
        with pytest.raises(ParameterError):
            ChannelConfig(lo_coeff=1.3, hi_coeff=0.7)

    def test_rejects_non_positive_amplitude(self):
        with pytest.raises(ParameterError):
            ChannelConfig(envelope_amplitude=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ParameterError):
            ChannelConfig(envelope_mode="sawtooth")

    def test_rejects_an_envelope_of_zero_on_every_slot(self):
        # sin(argument) == -1 makes E = 0 and every rate 0, so no flow finishes;
        # so does an E so small that no flow finishes within the drain guard
        workload = WorkloadConfig(arrival_rate=0.5, horizon=5)
        for config in (
            dict(envelope_phase=-math.pi / 2 - 5e-4),  # literal: freq + phase
            dict(envelope_mode="time_varying", envelope_freq=0.0, envelope_phase=-math.pi / 2),
            dict(envelope_phase=-math.pi / 2 - 5e-4 + 2e-8),  # E = 3.3e-16
            # moving, but only 1e-5 up from the trough by the guard's last slot: E < 7.6e-11
            dict(envelope_mode="time_varying", envelope_freq=1e-12, envelope_phase=-math.pi / 2),
        ):
            channel = ChannelConfig(**config)
            with pytest.raises(ParameterError, match=r"channel\.hi_coeff \* envelope .* "
                               r"workload\.rate_hi_mult .* no flow can finish"):
                SimConfig(workload=workload, strategy=StrategySpec(kind="tas"), channel=channel)
        # a moving envelope is 0 only where the argument passes -pi/2
        channel = ChannelConfig(envelope_mode="time_varying", envelope_phase=-math.pi / 2 - 5e-4)
        SimConfig(workload=workload, strategy=StrategySpec(kind="tas"), channel=channel)


class TestEnvelopeMax:
    @given(
        freq=st.floats(-0.1, 0.1),
        phase=st.floats(-10.0, 10.0),
        mode=st.sampled_from(("literal", "time_varying")),
        last=st.integers(0, 10**8),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=20),
    )
    def test_bounds_every_slot_up_to_last(self, freq, phase, mode, last, fractions):
        config = ChannelConfig(envelope_freq=freq, envelope_phase=phase, envelope_mode=mode)
        e_max = envelope_max(config, last)
        slots = [0, last, *(round(f * last) for f in fractions)]
        assert all(e_max >= envelope_factor(t, config) for t in slots)
        assert e_max <= 2 * config.envelope_amplitude
        if mode == "literal" or freq == 0.0:  # a still envelope: its one value, exactly
            assert e_max == envelope_factor(0, config)

    def test_a_window_without_a_crest_peaks_at_an_end(self):
        # the argument runs from 2.0 up to 2.0 + 2e-4 * 10_000 = 4.0, past no
        # crest pi/2 + 2 pi k, so E peaks at slot 0, below 2 * amplitude
        config = ChannelConfig(envelope_freq=2e-4, envelope_phase=2.0,
                               envelope_mode=ENVELOPE_TIME_VARYING)
        e_max = envelope_max(config, 10_000)
        assert e_max == envelope_factor(0, config) == 1.5 * (math.sin(2.0) + 1.0)
        assert e_max < 2 * 1.5
        # one crest inside the window lifts it to 2 * amplitude
        assert envelope_max(replace(config, envelope_phase=1.0), 10_000) == 3.0


class TestEnvelopeFactor:
    def test_literal_mode_is_constant_in_t(self):
        config = ChannelConfig()
        values = {envelope_factor(t, config) for t in (0, 1, 17, 12_345, 10**6)}
        assert len(values) == 1  # t is ignored entirely
        assert values.pop() == pytest.approx(LITERAL_ENVELOPE, rel=1e-12)
        assert envelope_factor(0, config) == pytest.approx(1.6505, abs=1e-4)

    @pytest.mark.parametrize("freq, phase", [(5e-4, 0.1), (0.3, -2.0), (-1.7, 40.0), (0.0, 1.0)])
    def test_literal_mode_is_time_varying_at_slot_one(self, freq, phase):
        literal = ChannelConfig(envelope_freq=freq, envelope_phase=phase)
        moving = replace(literal, envelope_mode=ENVELOPE_TIME_VARYING)
        for t in (0, 1, 2, 17, 12_345, 10**6, 2.5):
            assert envelope_factor(t, literal) == envelope_factor(1, moving)

    def test_time_varying_at_zero(self):
        config = ChannelConfig(envelope_mode=ENVELOPE_TIME_VARYING)
        assert envelope_factor(0, config) == pytest.approx(1.6497, abs=1e-4)

    def test_time_varying_sine_minimum_is_zero(self):
        config = ChannelConfig(
            envelope_freq=1.0, envelope_phase=0.0, envelope_mode=ENVELOPE_TIME_VARYING
        )
        assert envelope_factor(3.0 * math.pi / 2.0, config) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_time_varying_moves_with_t(self):
        config = ChannelConfig(envelope_mode=ENVELOPE_TIME_VARYING)
        a, b = envelope_factor(0, config), envelope_factor(5000, config)
        assert a != b
        assert b == pytest.approx(1.5 * (math.sin(5e-4 * 5000 + 0.1) + 1.0))


class TestSampleRate:
    def test_literal_band_edges(self):
        flow = make_flow(mean_rate=100.0)
        config = ChannelConfig()
        lo = stream_on(StubRng([0.0]), flow, config).draw(0)
        hi = stream_on(StubRng([1.0]), flow, config).draw(0)
        assert lo == pytest.approx(115.53, abs=0.01)
        assert hi == pytest.approx(214.56, abs=0.01)

    def test_zero_envelope_yields_zero_rate(self):
        config = ChannelConfig(
            envelope_freq=1.0, envelope_phase=0.0, envelope_mode=ENVELOPE_TIME_VARYING
        )
        flow = make_flow(mean_rate=12_345.0)
        t = 3.0 * math.pi / 2.0
        assert stream_on(random.Random(0), flow, config).draw(t) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_draws_respect_bounds(self):
        flow = make_flow(mean_rate=250.0)
        config = ChannelConfig()
        lo, hi = rate_bounds(flow.mean_rate, 0, config)
        stream = stream_on(random.Random(17), flow, config)
        for _ in range(2000):
            assert lo <= stream.draw(0) <= hi

    def test_empirical_mean_matches_band_midpoint(self):
        flow = make_flow(mean_rate=100.0)
        config = ChannelConfig()
        stream = stream_on(random.Random(23), flow, config)
        n = 10**5
        mean = sum(stream.draw(0) for _ in range(n)) / n
        assert mean == pytest.approx(
            (0.7 + 1.3) / 2.0 * LITERAL_ENVELOPE * 100.0, rel=0.01
        )

    def test_band_fluctuation_is_thirty_percent(self):
        lo, hi = rate_bounds(100.0, 0, ChannelConfig())
        mean = (lo + hi) / 2.0
        assert (hi - mean) / mean == pytest.approx(0.3, rel=1e-9)


class TestFlowRateStream:
    def test_same_key_reproduces_draws(self):
        flow = make_flow(fid=4, mean_rate=100.0)
        config = ChannelConfig()
        a = FlowRateStream(99, flow, config)
        b = FlowRateStream(99, flow, config)
        assert [a.draw(t) for t in range(50)] == [b.draw(t) for t in range(50)]

    def test_draws_independent_of_slot_argument_in_literal_mode(self):
        # the j-th draw is defined by position, not by the slot label, so the
        # sequence a flow sees cannot depend on when other flows were served
        flow = make_flow(fid=2, mean_rate=80.0)
        config = ChannelConfig()
        a = FlowRateStream(7, flow, config)
        b = FlowRateStream(7, flow, config)
        assert [a.draw(t) for t in range(20)] == [b.draw(t + 1000) for t in range(20)]

    def test_distinct_flows_get_distinct_streams(self):
        config = ChannelConfig()
        source = ChannelRateSource(5, config)
        s0 = source.stream_for(make_flow(fid=0, mean_rate=100.0))
        s1 = source.stream_for(make_flow(fid=1, mean_rate=100.0))
        assert [s0.draw(t) for t in range(10)] != [s1.draw(t) for t in range(10)]

    def test_matches_sample_rate_arithmetic(self):
        flow = make_flow(fid=3, mean_rate=120.0)
        config = ChannelConfig()
        stream = FlowRateStream(31, flow, config)
        import cellsched.seeding as seeding

        rng = seeding.stream(31, seeding.CHANNEL_STREAM, flow.id)
        expected = []
        for t in range(25):
            lo, hi = rate_bounds(flow.mean_rate, t, config)
            expected.append(lo + (hi - lo) * rng.random())
        assert [stream.draw(t) for t in range(25)] == expected

    def test_time_varying_stream_tracks_envelope(self):
        config = ChannelConfig(envelope_mode=ENVELOPE_TIME_VARYING)
        flow = make_flow(fid=6, mean_rate=90.0)
        stream = FlowRateStream(13, flow, config)
        for t in (0, 100, 2000):
            lo, hi = rate_bounds(flow.mean_rate, t, config)
            assert lo <= stream.draw(t) <= hi

    @pytest.mark.parametrize("mode", ["literal", "time_varying"])
    @pytest.mark.parametrize("start, stop", [(3, 3), (3, 4), (3, 40), (0, 700)])
    def test_skip_leaves_the_stream_where_drawing_would(self, mode, start, stop):
        config = ChannelConfig(envelope_mode=mode)
        flow = make_flow(fid=6, mean_rate=90.0)
        skipped, drawn = FlowRateStream(13, flow, config), FlowRateStream(13, flow, config)
        assert skipped.draw(start - 1) == drawn.draw(start - 1)
        skipped.skip(start, stop)
        for t in range(start, stop):
            drawn.draw(t)
        assert [skipped.draw(t) for t in range(stop, stop + 5)] == [
            drawn.draw(t) for t in range(stop, stop + 5)
        ]


class TestSharedRateSource:
    @staticmethod
    def fresh(flow, config, n):
        """The first ``n`` rates of the flow's own stream, at slots arrival + j."""
        stream = FlowRateStream(5, flow, config)
        return [stream.draw(flow.arrival_slot + j) for j in range(n)]

    @staticmethod
    def read(reader, flow, start, n):
        return [reader.draw(flow.arrival_slot + j) for j in range(start, start + n)]

    @pytest.mark.parametrize("mode", ["literal", "time_varying"])
    def test_replays_and_extends_the_flow_stream(self, mode):
        config = ChannelConfig(envelope_mode=mode)
        flow = make_flow(fid=4, arrival=300, mean_rate=100.0)
        source = SharedRateSource(5, config)
        expected = self.fresh(flow, config, 30)
        assert self.read(source.stream_for(flow), flow, 0, 10) == expected[:10]
        # replays the ten recorded rates, then extends the record from its stream
        assert self.read(source.stream_for(flow), flow, 0, 20) == expected[:20]
        # two readers interleaved: each extension follows the other's
        a, b = source.stream_for(flow), source.stream_for(flow)
        got_a = self.read(a, flow, 0, 22)
        got_b = self.read(b, flow, 0, 26)
        got_a += self.read(a, flow, 22, 8)
        assert got_a == expected and got_b == expected[:26]

    def test_skip_records_the_slots_it_passes(self):
        config = ChannelConfig()
        flow = make_flow(fid=4, arrival=300, mean_rate=100.0)
        expected = self.fresh(flow, config, 30)
        record = RateRecord(flow, FlowRateStream(5, flow, config))
        assert self.read(record, flow, 0, 3) == expected[:3]
        record.skip(303, 310)  # slots 303-309 are recorded, none is returned
        assert list(record.values()) == expected[:10]
        record.skip(305, 308)  # already recorded: nothing to draw
        record.skip(310, 310)
        assert self.read(record, flow, 10, 5) == expected[10:15]
        # a later run on the seed replays the skipped slots as its own
        assert self.read(record, flow, 0, 30) == expected

    MEAN_READERS = [StrategySpec(kind="T"), StrategySpec(kind="TK", tk_variant="mean")]

    @pytest.mark.parametrize("reader", MEAN_READERS, ids=lambda spec: spec.label())
    def test_a_run_after_skips_on_the_seed_sees_fresh_rates(self, reader):
        # tas never reads the running mean, so it skips its waits' rates; the
        # reader, run next on the same records, reads every one of them
        buffer = BufferModel(mode="tcp-refill", rtt=4, initial_window=60.0, max_window=240.0)
        workload = WorkloadConfig(arrival_rate=0.2, horizon=150, seed=8)
        flows = generate_workload(workload)
        tas = StrategySpec(kind="tas")
        assert not tas.reads_mean_rate and reader.reads_mean_rate

        def run(spec, source):
            config = SimConfig(workload=workload, strategy=spec, buffer=buffer)
            return run_simulation(config, flows=flows, rate_source=source, collect_trace=True)

        shared = SharedRateSource(5, ChannelConfig())  # the seed of `fresh`
        first = run(tas, shared)
        assert any(e.chosen_id is None and e.active_count > 0 for e in first.trace)
        # every record holds its flow's own rates, slot by slot from the arrival
        for flow in flows:
            record = shared.stream_for(flow)
            assert list(record) == list(range(flow.arrival_slot, flow.arrival_slot + len(record)))
            assert list(record.values()) == self.fresh(flow, ChannelConfig(), len(record))
        replayed = run(reader, shared)
        fresh = run(reader, ChannelRateSource(5, ChannelConfig()))
        assert replayed.records == fresh.records and replayed.trace == fresh.trace
        assert run(tas, shared).trace == first.trace

    @pytest.mark.parametrize("reader", MEAN_READERS, ids=lambda spec: spec.label())
    def test_replicate_gives_a_kind_the_same_reports_after_one_that_skips(self, reader):
        buffer = BufferModel(mode="tcp-refill", rtt=3, initial_window=80.0, max_window=320.0)
        tas = StrategySpec(kind="tas")
        sim = SimConfig(workload=WorkloadConfig(arrival_rate=0.15, horizon=120),
                        strategy=tas, buffer=buffer)
        config = ExperimentConfig(sim, (tas, reader), replications=3, base_seed=6)
        both = replicate(config, (tas, reader))
        assert both[1] == replicate(config, (reader,))[0]
        assert both[0] == replicate(config, (tas,))[0]

    @pytest.fixture
    def seeded(self, monkeypatch):
        """The flow of every ChannelRateSource.stream_for call, in call order."""
        seeded = []
        real = ChannelRateSource.stream_for
        monkeypatch.setattr(
            ChannelRateSource,
            "stream_for",
            lambda source, flow: seeded.append(flow) or real(source, flow),
        )
        return seeded

    def test_later_readers_extend_the_record_without_reseeding(self, seeded):
        config = ChannelConfig()
        flow = make_flow(fid=4, arrival=300, mean_rate=100.0)
        source = SharedRateSource(5, config)
        for n in (10, 20, 5, 40):
            assert self.read(source.stream_for(flow), flow, 0, n) == self.fresh(
                flow, config, n
            )
        assert seeded == [flow]  # one stream per record

    def test_replicate_seeds_one_stream_per_flow_per_seed(self, seeded):
        specs = [StrategySpec(kind=k) for k in RANKING_KINDS]
        sim = SimConfig(
            workload=WorkloadConfig(arrival_rate=0.09, horizon=600), strategy=specs[0]
        )
        replicate(ExperimentConfig(sim, specs, replications=2, base_seed=4), specs)
        flows = [
            flow
            for seed in (4, 5)
            for flow in generate_workload(replace(sim.workload, seed=seed))
        ]
        assert flows and seeded == flows

    def test_new_flow_object_under_known_id_starts_fresh_record(self, seeded):
        config = ChannelConfig()
        source = SharedRateSource(5, config)
        first = make_flow(fid=1, mean_rate=100.0)
        self.read(source.stream_for(first), first, 0, 10)
        second = make_flow(fid=1, mean_rate=300.0)
        assert self.read(source.stream_for(second), second, 0, 10) == self.fresh(
            second, config, 10
        )
        self.read(source.stream_for(second), second, 0, 10)  # a replay seeds nothing
        assert seeded == [first, second]
        # an equal but distinct spec is a different flow too
        third = make_flow(fid=1, mean_rate=300.0)
        self.read(source.stream_for(third), third, 0, 10)
        assert seeded == [first, second, third] and seeded[2] is third


class TestFixedRateSource:
    def test_constant_and_per_flow_rates(self):
        source = FixedRateSource(rate=7.0, per_flow={1: 3.0})
        assert source.stream_for(make_flow(fid=0)).draw(0) == 7.0
        assert source.stream_for(make_flow(fid=1)).draw(99) == 3.0
