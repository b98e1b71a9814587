"""Per-slot channel rates: uniform draws between envelope-scaled bounds.

Each active flow sees an i.i.d. rate every slot, uniform on
``[lo_coeff * E(t) * mean_rate, hi_coeff * E(t) * mean_rate]`` where E(t)
is a sinusoidal envelope factor.  With the default coefficients the band
amplitude is 30% of the band mean.
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
        if self.envelope_mode not in (ENVELOPE_LITERAL, ENVELOPE_TIME_VARYING):
            raise ParameterError(f"unknown envelope_mode {self.envelope_mode!r}")


def envelope_factor(t: float, config: ChannelConfig) -> float:
    """Envelope multiplier E(t); constant over t in literal mode."""
    if config.envelope_mode == ENVELOPE_LITERAL:
        arg = config.envelope_freq + config.envelope_phase
    else:
        arg = config.envelope_freq * t + config.envelope_phase
    return config.envelope_amplitude * (math.sin(arg) + 1.0)


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
        self._config = config
        self._mean_rate = flow.mean_rate
        if config.envelope_mode == ENVELOPE_LITERAL:
            lo, hi = rate_bounds(flow.mean_rate, 0, config)
            self._lo = lo
            self._span = hi - lo
        else:
            self._lo = None
            self._span = None

    def draw(self, t: float) -> float:
        u = self._rng.random()
        if self._lo is not None:
            return self._lo + self._span * u
        lo, hi = rate_bounds(self._mean_rate, t, self._config)
        return lo + (hi - lo) * u


class ChannelRateSource:
    """Factory handing each flow its own deterministic rate stream."""

    def __init__(self, base_seed: int, config: ChannelConfig):
        self.base_seed = base_seed
        self.config = config

    def stream_for(self, flow: FlowSpec) -> FlowRateStream:
        return FlowRateStream(self.base_seed, flow, self.config)

