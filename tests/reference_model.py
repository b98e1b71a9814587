"""Independent reference of the documented slot model, for checking the simulator.

Written from the README's description of the slot loop and its strategy
table, and from the ``strategies`` module docstring; it shares no code with
``cellsched.simcore`` or ``cellsched.strategies``.  It covers the infinite
buffer, the literal channel envelope and the seven ranking indices.  Per
slot t:

- flows arriving at slot t join with their whole file buffered;
- every active flow draws its rate r_k(t) from its own channel stream
  ``seeding.stream(seed, CHANNEL_STREAM, id)`` as lo + (hi - lo) * u, with
  [lo, hi] = [lo_coeff, hi_coeff] x envelope x the flow's mean rate;
- r̄_k is the mean of the flow's rates since arrival, this slot included;
- the flow with the largest index is served min(r_k(t), buffer); a zero
  denominator scores +inf, and ties go to the flow served least recently
  (a never-served flow counts as least recent), then to the smallest id;
- a flow departs on the slot after its last byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from cellsched import seeding
from cellsched.channel import ChannelConfig

C = 0.6 / math.log(13.0 / 7.0)


def _ratio(num, den):
    return math.inf if den == 0.0 else num / den


# index of a flow from (rate this slot, age, served before this slot, r̄)
INDICES = {
    "round_robin": lambda r, age, served, mean: _ratio(1.0, age),
    "max_ci": lambda r, age, served, mean: r,
    "tas": lambda r, age, served, mean: _ratio(r, age),
    "das": lambda r, age, served, mean: _ratio(r, served),
    "pf": lambda r, age, served, mean: _ratio(r * age, served),
    "T": lambda r, age, served, mean: _ratio(served, age + _ratio(served, C * mean)),
    "TK": lambda r, age, served, mean: _ratio(r * served, age),
}


@dataclass
class Replay:
    """What the reference produced for one run."""

    records: list = field(default_factory=list)  # (file_size, arrival, departure)
    served: list = field(default_factory=list)  # (slot, flow id) of busy slots
    contested: int = 0  # slots with two or more flows to choose from


class _Flow:
    def __init__(self, spec, seed, channel):
        envelope = channel.envelope_amplitude * (
            math.sin(channel.envelope_freq + channel.envelope_phase) + 1.0
        )
        self.spec = spec
        self.rng = seeding.stream(seed, seeding.CHANNEL_STREAM, spec.id)
        self.lo = channel.lo_coeff * envelope * spec.mean_rate
        self.hi = channel.hi_coeff * envelope * spec.mean_rate
        self.remaining = spec.file_size
        self.served = 0.0
        self.rate_sum = 0.0
        self.draws = 0
        self.last_served = None

    def draw(self) -> float:
        rate = self.lo + (self.hi - self.lo) * self.rng.random()
        self.rate_sum += rate
        self.draws += 1
        return rate


def simulate(flows, seed: int, kind: str) -> Replay:
    """Replay ``flows`` (sorted by arrival) under the index ``kind`` until all depart.

    The channel is the default ``ChannelConfig``, whose envelope is literal.
    """
    channel = ChannelConfig()
    index = INDICES[kind]
    out = Replay()
    pending = list(reversed(flows))
    active: dict[int, _Flow] = {}
    t = 0
    while pending or active:
        while pending and pending[-1].arrival_slot == t:
            spec = pending.pop()
            active[spec.id] = _Flow(spec, seed, channel)
        rates = {fid: flow.draw() for fid, flow in active.items()}
        if active:
            out.contested += len(active) > 1

            def key(flow):
                r = rates[flow.spec.id]
                value = index(r, t - flow.spec.arrival_slot, flow.served,
                              flow.rate_sum / flow.draws)
                recency = math.inf if flow.last_served is None else t - flow.last_served
                return value, recency, -flow.spec.id

            flow = max(active.values(), key=key)
            transfer = min(rates[flow.spec.id], flow.remaining)
            flow.remaining -= transfer
            flow.served += transfer
            flow.last_served = t
            out.served.append((t, flow.spec.id))
            if flow.remaining == 0.0:
                del active[flow.spec.id]
                out.records.append(
                    (flow.spec.file_size, flow.spec.arrival_slot, t + 1)
                )
        t += 1
    return out
