"""Stochastic workload generation: arrival stream, file sizes, per-client mean rates.

Inter-arrival gaps are exponential, file sizes come from a Pareto mixture
(one component per traffic class), and each new client is assigned a mean
channel rate drawn uniformly from a band proportional to the offered load.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from . import seeding
from .errors import ParameterError


class Component(NamedTuple):
    """One traffic class of a size mixture: its weight and its Pareto scale."""

    weight: float
    scale_kb: float


@dataclass(frozen=True)
class ParetoMixture:
    """Mixture of Pareto laws sharing one shape parameter.

    ``components`` holds ``(weight, scale_kb)`` pairs. Weights must sum to
    one and ``alpha`` must exceed 1 so the mixture mean is finite.  The
    defaults are four traffic classes: text page, app payload, audio track
    and video clip.
    """

    components: tuple[Component, ...] = (
        (0.4, 500.0), (0.3, 5000.0), (0.2, 25000.0), (0.1, 62500.0)
    )
    alpha: float = 5.5

    def __post_init__(self):
        comps = tuple(Component(float(w), float(m)) for w, m in self.components)
        object.__setattr__(self, "components", comps)
        if not all(m > 0.0 for _, m in comps):
            raise ParameterError(f"component scales {[m for _, m in comps]} must be positive")
        bounds = seeding.choice_bounds([w for w, _ in comps])  # checks the weights
        object.__setattr__(self, "_choice_bounds", bounds)
        if not self.alpha > 1.0:
            raise ParameterError(f"shape alpha={self.alpha} must exceed 1")


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic arrival stream.

    ``arrival_rate`` is the expected number of new clients per slot.  Mean
    client rates are drawn uniformly from
    ``[rate_lo_mult * load, rate_hi_mult * load]`` where ``load`` is
    ``arrival_rate`` times the mean file size.
    """

    arrival_rate: float = 0.09
    size_mixture: ParetoMixture = ParetoMixture()
    rate_lo_mult: float = 1.0 / 3.0
    rate_hi_mult: float = 3.0
    horizon: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not self.arrival_rate > 0.0:
            raise ParameterError(f"arrival_rate={self.arrival_rate} must be positive")
        if type(self.horizon) is not int or self.horizon <= 0:
            raise ParameterError(f"horizon={self.horizon!r} must be positive and an int")
        if type(self.seed) is not int:
            raise ParameterError(f"seed={self.seed!r} must be an int")
        if not 0.0 < self.rate_lo_mult < self.rate_hi_mult:
            raise ParameterError(
                f"need 0 < rate_lo_mult < rate_hi_mult, got "
                f"{self.rate_lo_mult}, {self.rate_hi_mult}"
            )


@dataclass(frozen=True)
class FlowSpec:
    """One client download: when it arrives, how big it is, how fast its channel is on average."""

    id: int
    arrival_slot: int
    file_size: float  # kilobytes
    mean_rate: float  # kilobytes per slot

    def __post_init__(self):
        if type(self.arrival_slot) is not int or self.arrival_slot < 0:
            raise ParameterError(f"arrival_slot={self.arrival_slot!r} must be an int >= 0")
        if not 0.0 < self.file_size < math.inf:
            raise ParameterError(f"file_size={self.file_size} must be positive and finite")
        if not 0.0 < self.mean_rate < math.inf:
            raise ParameterError(f"mean_rate={self.mean_rate} must be positive and finite")


def sample_interarrival(rng, arrival_rate: float) -> float:
    """Draw one exponential inter-arrival gap, in slots (real-valued).

    Inverse-CDF form ``-ln(u)/rate`` with u uniform on (0, 1]; the boundary
    u = 1 maps to a zero-length gap.  The rate is positive, as
    ``WorkloadConfig`` checks.
    """
    u = 1.0 - rng.random()
    return -math.log(u) / arrival_rate


def sample_file_size(rng, mixture: ParetoMixture) -> float:
    """Draw one file size: pick a mixture component, then invert the Pareto CDF.

    The component draw and the Pareto draw are independent; the result is
    never below the chosen component's scale.  A component of zero weight is
    never drawn.
    """
    scale = mixture.components[bisect_right(mixture._choice_bounds, rng.random())][1]
    u = 1.0 - rng.random()  # (0, 1]; avoids the u=0 pole
    return scale * u ** (-1.0 / mixture.alpha)


def mixture_mean(mixture: ParetoMixture) -> float:
    """Exact mixture mean: sum of weight * alpha * scale / (alpha - 1)."""
    a = mixture.alpha
    return sum(w * a * m / (a - 1.0) for w, m in mixture.components)


def mean_rate_band(config: WorkloadConfig) -> tuple[float, float]:
    """The band clients' mean rates are drawn from: each multiplier times the offered load."""
    load = config.arrival_rate * mixture_mean(config.size_mixture)
    return config.rate_lo_mult * load, config.rate_hi_mult * load


def generate_workload(config: WorkloadConfig) -> list[FlowSpec]:
    """Generate the full arrival list for one run.

    Continuous arrival times are the cumulative sums of exponential gaps;
    each is placed in slot ``ceil(time)`` (several flows may share a slot).
    Generation stops at the first arrival that lands at or past the horizon.
    Deterministic given ``config.seed``.
    """
    rng = seeding.stream(config.seed, seeding.WORKLOAD_STREAM)
    lo, hi = mean_rate_band(config)
    flows: list[FlowSpec] = []
    clock = 0.0
    while True:
        clock += sample_interarrival(rng, config.arrival_rate)
        slot = math.ceil(clock)
        if slot >= config.horizon:
            break
        size = sample_file_size(rng, config.size_mixture)
        rate = lo + (hi - lo) * rng.random()  # uniform on the mean-rate band
        flows.append(FlowSpec(len(flows), slot, size, rate))
    return flows
