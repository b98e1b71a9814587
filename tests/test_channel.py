"""Channel model: envelope arithmetic, rate bounds, per-flow stream independence."""

from __future__ import annotations

import math
import random

import pytest

from cellsched import (
    ChannelConfig,
    ChannelRateSource,
    ParameterError,
    envelope_factor,
    rate_bounds,
)
from cellsched.channel import ENVELOPE_LITERAL, ENVELOPE_TIME_VARYING, FlowRateStream

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


class TestEnvelopeFactor:
    def test_literal_mode_is_constant_in_t(self):
        config = ChannelConfig()
        values = {envelope_factor(t, config) for t in (0, 1, 17, 12_345, 10**6)}
        assert len(values) == 1  # t is ignored entirely
        assert values.pop() == pytest.approx(LITERAL_ENVELOPE, rel=1e-12)
        assert envelope_factor(0, config) == pytest.approx(1.6505, abs=1e-4)

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


class TestFixedRateSource:
    def test_constant_and_per_flow_rates(self):
        source = FixedRateSource(rate=7.0, per_flow={1: 3.0})
        assert source.stream_for(make_flow(fid=0)).draw(0) == 7.0
        assert source.stream_for(make_flow(fid=1)).draw(99) == 3.0
