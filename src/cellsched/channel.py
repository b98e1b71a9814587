"""Per-slot channel rates: uniform draws between envelope-scaled bounds.

Each active flow sees an i.i.d. rate every slot, uniform on
``[lo_coeff * E(t) * mean_rate, hi_coeff * E(t) * mean_rate]`` where E(t)
is a sinusoidal envelope factor.  With the default coefficients the band
amplitude is 30% of the band mean.  A run draws from one
:class:`FlowRateStream` per flow; runs on a shared seed read each flow's
rates from a :class:`RateRecord` keyed by slot instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import seeding
from .errors import ParameterError
from .workload import FlowSpec

ENVELOPE_LITERAL = "literal"
ENVELOPE_TIME_VARYING = "time_varying"


@dataclass(frozen=True)
class ChannelConfig:
    """Rate-band coefficients and the sinusoidal envelope.

    In ``literal`` mode the sine argument is the constant ``freq + phase``
    (the envelope does not move); in ``time_varying`` mode the argument is
    ``freq * t + phase``.
    """

    lo_coeff: float = 0.7
    hi_coeff: float = 1.3
    envelope_amplitude: float = 1.5
    envelope_freq: float = 1e-4 * 5
    envelope_phase: float = 0.1
    envelope_mode: str = ENVELOPE_LITERAL

    def __post_init__(self):
        if not 0.0 < self.lo_coeff < self.hi_coeff:
            raise ParameterError(
                f"need 0 < lo_coeff < hi_coeff, got {self.lo_coeff}, {self.hi_coeff}"
            )
        if not self.envelope_amplitude > 0.0:
            raise ParameterError("envelope_amplitude must be positive")
        if not math.isfinite(self.envelope_freq + self.envelope_phase):
            raise ParameterError("envelope_freq + envelope_phase must be finite")
        if self.envelope_mode not in (ENVELOPE_LITERAL, ENVELOPE_TIME_VARYING):
            raise ParameterError(f"unknown envelope_mode {self.envelope_mode!r}")


def envelope_factor(t: float, config: ChannelConfig) -> float:
    """Envelope multiplier E(t); literal mode reads every t as slot 1, as ``envelope_max`` does."""
    if config.envelope_mode == ENVELOPE_LITERAL:
        t = 1  # freq * 1 == freq exactly: the argument is freq + phase
    arg = config.envelope_freq * t + config.envelope_phase
    return config.envelope_amplitude * (math.sin(arg) + 1.0)


def envelope_max(config: ChannelConfig, last: int) -> float:
    """The largest E(t) over slots 0 to ``last``: the sine's argument spans [lo, hi], and E
    peaks at a crest pi/2 + 2 pi k if the next one up from lo comes before hi, else at an end."""
    t0, t1 = (1, 1) if config.envelope_mode == ENVELOPE_LITERAL else (0, last)  # literal: one point
    lo, hi = sorted((config.envelope_freq * t0 + config.envelope_phase,
                     config.envelope_freq * t1 + config.envelope_phase))
    if not math.isfinite(hi - lo):
        raise ParameterError(f"channel.envelope_freq={config.envelope_freq} overflows the "
                             f"time-varying envelope argument by slot {last}")
    peak = 1.0 if (math.pi / 2 - lo) % math.tau < hi - lo else max(math.sin(lo), math.sin(hi))
    return config.envelope_amplitude * (peak + 1.0)


def rate_bounds(mean_rate: float, t: float, config: ChannelConfig) -> tuple[float, float]:
    """Lower and upper rate bounds for a flow with the given mean rate at slot t."""
    e = envelope_factor(t, config)
    return config.lo_coeff * e * mean_rate, config.hi_coeff * e * mean_rate


class FlowRateStream:
    """The rate sequence of one flow, keyed by (base seed, flow id).

    The j-th draw is the flow's rate in the j-th slot after its arrival, so
    the value of r_k(t) never depends on which flows were served earlier.
    A draw is ``lo + (hi - lo) * u`` with [lo, hi] from :func:`rate_bounds`
    and u the stream's next uniform; it is 0 where E(t) = 0.
    """

    __slots__ = ("_rng", "_config", "_mean_rate", "_lo", "_span")

    def __init__(self, base_seed: int, flow: FlowSpec, config: ChannelConfig):
        self._rng = seeding.stream(base_seed, seeding.CHANNEL_STREAM, flow.id)
        if config.envelope_mode == ENVELOPE_LITERAL:
            lo, hi = rate_bounds(flow.mean_rate, 0, config)
            self._lo = lo
            self._span = hi - lo
        else:  # only a moving envelope reads the config and the mean rate again
            self._config = config
            self._mean_rate = flow.mean_rate
            self._lo = None
            self._span = None

    def draw(self, t: float) -> float:
        u = self._rng.random()
        if self._lo is not None:
            return self._lo + self._span * u
        lo, hi = rate_bounds(self._mean_rate, t, self._config)
        return lo + (hi - lo) * u

    def skip(self, start: int, stop: int) -> None:
        """Pass over the rates of slots ``start`` to ``stop - 1`` without drawing them;
        each draw takes one uniform in either envelope mode, so this leaves the same state."""
        seeding.skip(self._rng, stop - start)


class ChannelRateSource:
    """Factory handing each flow its own deterministic rate stream."""

    def __init__(self, base_seed: int, config: ChannelConfig):
        self.base_seed = base_seed
        self.config = config

    def stream_for(self, flow: FlowSpec) -> FlowRateStream:
        return FlowRateStream(self.base_seed, flow, self.config)


class RateRecord(dict):
    """One flow's rates on one seed, keyed by slot and drawn on first read.

    ``draw`` is ``dict.__getitem__``, so reading a recorded rate is one C
    call.  A missing slot is drawn from the flow's :class:`FlowRateStream`,
    which the record keeps, and stored.  Every run reads or skips its flow's
    slots in order from the arrival on, and ``skip`` records the slots it
    passes, so the missing slot is always the one after the last recorded,
    and the stream's next draw is its rate.  A record
    holds no reference to its :class:`SharedRateSource`: that cycle would
    leave each seed's records to the cyclic garbage collector.
    """

    __slots__ = ("flow", "_stream")

    draw = dict.__getitem__

    def __init__(self, flow: FlowSpec, stream: FlowRateStream):
        self.flow = flow
        self._stream = stream

    def __missing__(self, t: int) -> float:
        rate = self[t] = self._stream.draw(t)
        return rate

    def skip(self, start: int, stop: int) -> None:
        """Record the slots below ``stop`` not yet drawn, so a later run on the seed can
        read them; a run that skips them reads none."""
        draw = self._stream.draw
        for t in range(self.flow.arrival_slot + len(self), stop):
            self[t] = draw(t)


class SharedRateSource(ChannelRateSource):
    """One seed's channel rates, drawn once and replayed to every run on the seed.

    ``stream_for`` hands every run the flow's :class:`RateRecord`, made on
    the flow's first admission with the flow's own stream from the
    :class:`ChannelRateSource` base.  A record keeps its stream and every rate
    drawn so far, about 100 bytes a slot and 2.5 KB of generator state a
    flow, until the source is dropped.  A replayed run sees exactly the
    rates its own :class:`ChannelRateSource` would give.  A record belongs
    to one FlowSpec object: a different flow under a known id starts a
    fresh record.
    """

    def __init__(self, base_seed: int, config: ChannelConfig):
        super().__init__(base_seed, config)
        self._records: dict[int, RateRecord] = {}

    def stream_for(self, flow: FlowSpec) -> RateRecord:
        record = self._records.get(flow.id)
        if record is None or record.flow is not flow:
            record = self._records[flow.id] = RateRecord(flow, super().stream_for(flow))
        return record
